//! Bounded in-memory hot layer in front of the on-disk result cache.
//!
//! A warm sweep against the plain disk cache still pays a file read, a
//! decode, and a full [`RunResult`](hfs_core::RunResult)
//! reconstruction per job. The hot cache keeps recently touched
//! outcomes resident — both the decoded [`JobOutcome`] and its
//! serialized text — so repeat lookups cost one shard lock and a clone,
//! and a server splices the text into its result frame as it is
//! (`JobResult::encoded`, through [`Sink::raw`](crate::Sink::raw)).
//!
//! Structure: 16 shards (the same first-hex-digit split as the disk
//! cache), each a `HashMap` keyed by content hash plus a
//! `BTreeMap<tick, key>` recency index. A global monotonic tick orders
//! touches across shards; eviction pops the lowest tick in the shard
//! until the shard is back under its slice of the byte budget
//! (`HFS_HOT_CACHE_MB`, split evenly 16 ways). Entries are immutable
//! and content-keyed, so write-through coherence with the disk cache is
//! trivial: the same key always maps to the same bytes, and an evicted
//! entry simply falls back to the disk copy.
//!
//! Only `Ok` outcomes are kept, mirroring the disk cache's persistence
//! rule. Byte accounting charges each entry its serialized length plus
//! a fixed per-entry overhead estimate, so the bound tracks real
//! memory, not just entry counts.
//!
//! Every count the cache keeps is a handle on a metric [`Registry`]
//! (`hfs_hot_cache_*`), and [`HotCache::stats`] reads those handles:
//! the exposition and the stats view have one source.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hfs_obs::{Counter, Gauge, Registry};

use crate::job::JobOutcome;
use crate::ser::outcome_to_text;

/// Hot-cache byte budget in megabytes (`HFS_HOT_CACHE_MB`). `0`
/// disables the hot layer entirely; unset means [`DEFAULT_HOT_CACHE_MB`].
pub const ENV_HOT_CACHE_MB: &str = "HFS_HOT_CACHE_MB";

/// Default hot-cache budget when `HFS_HOT_CACHE_MB` is unset.
pub const DEFAULT_HOT_CACHE_MB: u64 = 64;

/// Shard count; matches the disk cache's 16-way first-hex-digit split.
const SHARDS: usize = 16;

/// Estimated fixed per-entry overhead (map/tree nodes, `Arc` headers,
/// the key stored in both indexes) charged on top of the payload bytes.
const ENTRY_OVERHEAD: u64 = 96;

/// One resident cache entry: the decoded outcome plus a serialized
/// text of it.
#[derive(Debug)]
pub struct HotEntry {
    outcome: JobOutcome,
    json: Arc<str>,
}

impl HotEntry {
    /// An entry from a decoded outcome and its serialized text. The
    /// caller promises `json` is *a* serialization of `outcome` —
    /// compact or pretty — that `outcome_from_text` decodes to it (the
    /// invariant every consumer of [`json`] relies on).
    ///
    /// [`json`]: HotEntry::json
    pub(crate) fn new(outcome: JobOutcome, json: Arc<str>) -> HotEntry {
        HotEntry { outcome, json }
    }

    /// The decoded outcome.
    pub fn outcome(&self) -> &JobOutcome {
        &self.outcome
    }

    /// The serialized outcome text: the body of the disk-cache entry for
    /// the same key ([`outcome_to_text`], compact) unless whoever
    /// inserted the entry brought a text of their own.
    pub fn json(&self) -> &str {
        &self.json
    }

    /// The serialized text as a shared handle, cheap to splice into
    /// outgoing frames ([`Sink::raw`](crate::Sink::raw)).
    pub fn json_arc(&self) -> &Arc<str> {
        &self.json
    }
}

/// A point-in-time snapshot of hot-cache activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotCacheStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that fell through (to disk or to execution).
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Entries accepted (inserts and replacements).
    pub insertions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Estimated resident bytes (payload + per-entry overhead).
    pub bytes: u64,
}

struct Slot {
    entry: Arc<HotEntry>,
    tick: u64,
    cost: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, Slot>,
    lru: BTreeMap<u64, String>,
    bytes: u64,
}

/// The sharded, byte-bounded, LRU-evicting in-memory result cache.
pub struct HotCache {
    shards: Vec<Mutex<Shard>>,
    shard_cap: u64,
    tick: AtomicU64,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    insertions: Counter,
    /// Kept only by adds, so concurrent updates cannot leave it stale.
    bytes: Gauge,
    entries: Gauge,
}

impl std::fmt::Debug for HotCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotCache")
            .field("cap_bytes", &(self.shard_cap * SHARDS as u64))
            .field("stats", &self.stats())
            .finish()
    }
}

impl HotCache {
    /// A hot cache bounded by `cap_bytes` (split evenly across 16
    /// shards; each shard keeps at least one entry's worth of room),
    /// counting on a registry of its own.
    pub fn new(cap_bytes: u64) -> HotCache {
        HotCache::on(cap_bytes, &Registry::new())
    }

    /// A hot cache whose counts are the `hfs_hot_cache_*` instruments
    /// of `registry`.
    fn on(cap_bytes: u64, registry: &Registry) -> HotCache {
        HotCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_cap: (cap_bytes / SHARDS as u64).max(ENTRY_OVERHEAD),
            tick: AtomicU64::new(0),
            hits: registry.counter("hfs_hot_cache_hits_total"),
            misses: registry.counter("hfs_hot_cache_misses_total"),
            evictions: registry.counter("hfs_hot_cache_evictions_total"),
            insertions: registry.counter("hfs_hot_cache_insertions_total"),
            bytes: registry.gauge("hfs_hot_cache_bytes"),
            entries: registry.gauge("hfs_hot_cache_entries"),
        }
    }

    /// A hot cache of `mb` MiB counting on `registry`: `None` at `0`,
    /// and a budget too large to count in bytes saturates at `u64::MAX`
    /// bytes rather than wrap.
    pub fn with_mb(mb: u64, registry: &Registry) -> Option<Arc<HotCache>> {
        (mb > 0).then(|| Arc::new(HotCache::on(mb.saturating_mul(1 << 20), registry)))
    }

    /// The hot cache the environment asks for: [`HotCache::with_mb`] of
    /// `HFS_HOT_CACHE_MB`, or of [`DEFAULT_HOT_CACHE_MB`] when unset.
    pub fn from_env(registry: &Registry) -> Option<Arc<HotCache>> {
        let mb = std::env::var(ENV_HOT_CACHE_MB)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_HOT_CACHE_MB);
        HotCache::with_mb(mb, registry)
    }

    /// The total byte budget.
    pub fn cap_bytes(&self) -> u64 {
        self.shard_cap * SHARDS as u64
    }

    /// Takes an entry of `cost` bytes out of the residency gauges.
    fn release(&self, cost: u64) {
        self.bytes.add(-(cost as i64));
        self.entries.dec();
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let idx = key
            .bytes()
            .next()
            .and_then(|b| (b as char).to_digit(16))
            .unwrap_or(0) as usize;
        &self.shards[idx % SHARDS]
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<HotEntry>> {
        let mut guard = self.shard(key).lock().unwrap();
        let shard = &mut *guard;
        let Some(slot) = shard.map.get_mut(key) else {
            self.misses.inc();
            return None;
        };
        let entry = Arc::clone(&slot.entry);
        let new_tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let old_tick = std::mem::replace(&mut slot.tick, new_tick);
        // The key string moves to its new tick: a hit allocates nothing.
        let owned = shard.lru.remove(&old_tick).expect("every slot has a tick");
        shard.lru.insert(new_tick, owned);
        drop(guard);
        self.hits.inc();
        Some(entry)
    }

    /// Inserts (or refreshes) `key`, evicting least-recently-used
    /// entries in its shard until the shard fits its byte budget.
    /// Non-`Ok` outcomes and entries larger than a whole shard are
    /// declined. `json` is an already-serialized text of `outcome` when
    /// the caller has one (a disk load, a store that just serialized, a
    /// pretty text of the caller's own); otherwise it is produced here.
    pub fn insert(&self, key: &str, outcome: &JobOutcome, json: Option<&str>) {
        if !outcome.is_ok() {
            return;
        }
        let json: Arc<str> = match json {
            Some(t) => Arc::from(t),
            None => Arc::from(outcome_to_text(outcome)),
        };
        let cost = ENTRY_OVERHEAD + 2 * key.len() as u64 + json.len() as u64;
        if cost > self.shard_cap {
            return;
        }
        let entry = Arc::new(HotEntry {
            outcome: outcome.clone(),
            json,
        });
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock().unwrap();
        if let Some(old) = shard.map.remove(key) {
            shard.lru.remove(&old.tick);
            shard.bytes -= old.cost;
            self.release(old.cost);
        }
        shard
            .map
            .insert(key.to_string(), Slot { entry, tick, cost });
        shard.lru.insert(tick, key.to_string());
        shard.bytes += cost;
        self.bytes.add(cost as i64);
        self.entries.inc();
        while shard.bytes > self.shard_cap {
            // The loop terminates before touching the entry just
            // inserted: its cost alone fits the shard budget, and it
            // holds the highest tick.
            let (&victim_tick, _) = shard.lru.iter().next().unwrap();
            let victim_key = shard.lru.remove(&victim_tick).unwrap();
            let victim = shard.map.remove(&victim_key).unwrap();
            shard.bytes -= victim.cost;
            self.release(victim.cost);
            self.evictions.inc();
        }
        drop(shard);
        self.insertions.inc();
    }

    /// A consistent-enough snapshot of the counters (each field is
    /// individually exact; the set is not taken under one lock).
    pub fn stats(&self) -> HotCacheStats {
        HotCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            insertions: self.insertions.get(),
            entries: self.entries.get() as u64,
            bytes: self.bytes.get() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{execute, Job};
    use crate::json::to_text;
    use crate::ser::{outcome_from_text, write_outcome};
    use hfs_core::kernel::KernelPair;
    use hfs_core::{DesignPoint, MachineConfig};

    fn demo_outcome(iters: u64) -> (String, JobOutcome) {
        let job = Job::pipeline(
            "hot/demo",
            KernelPair::simple("demo", 2, iters),
            MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
        );
        (job.key(), execute(&job, 0))
    }

    #[test]
    fn insert_then_get_round_trips_outcome_and_bytes() {
        let hot = HotCache::new(1 << 20);
        let (key, out) = demo_outcome(30);
        assert!(hot.get(&key).is_none(), "cold cache misses");
        hot.insert(&key, &out, None);
        let entry = hot.get(&key).expect("hit after insert");
        assert_eq!(
            entry.outcome().ok().unwrap().cycles,
            out.ok().unwrap().cycles
        );
        assert_eq!(
            entry.json(),
            outcome_to_text(&out),
            "stored text matches the disk-cache serialization"
        );
        let s = hot.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > entry.json().len() as u64);
        // A caller's own text of the same outcome is kept as it came.
        let pretty = to_text(true, |w| write_outcome(w, &out));
        hot.insert(&key, &out, Some(&pretty));
        let entry = hot.get(&key).expect("hit after re-insert");
        assert_eq!(entry.json(), pretty);
        let decoded = outcome_from_text(entry.json()).expect("the text decodes");
        assert_eq!(outcome_to_text(&decoded), outcome_to_text(entry.outcome()));
    }

    #[test]
    fn failures_are_declined() {
        let hot = HotCache::new(1 << 20);
        hot.insert("deadbeef", &JobOutcome::Timeout { max_cycles: 1 }, None);
        hot.insert("deadbeef", &JobOutcome::Cancelled, None);
        hot.insert("deadbeef", &JobOutcome::WorkerDied("x".into()), None);
        assert!(hot.get("deadbeef").is_none());
        assert_eq!(hot.stats().entries, 0);
    }

    #[test]
    fn lru_bound_holds_under_churn_and_evicts_oldest_first() {
        // A deliberately tiny budget: each shard fits only a few
        // entries, so churning many keys through one shard must evict.
        let (_, out) = demo_outcome(30);
        let entry_cost = ENTRY_OVERHEAD + 2 * 16 + outcome_to_text(&out).len() as u64;
        let hot = HotCache::new(entry_cost * 3 * SHARDS as u64);
        // All keys share a first hex digit => one shard.
        let keys: Vec<String> = (0..50).map(|i| format!("a{i:015x}")).collect();
        for k in &keys {
            hot.insert(k, &out, None);
        }
        let s = hot.stats();
        assert!(s.bytes <= hot.cap_bytes(), "byte bound respected: {s:?}");
        assert!(s.evictions > 0, "churn must evict: {s:?}");
        assert_eq!(s.entries + s.evictions, 50, "every insert accounted");
        // The survivors are exactly the most recently inserted keys.
        let resident: Vec<bool> = keys.iter().map(|k| hot.get(k).is_some()).collect();
        let first_resident = resident.iter().position(|&r| r).unwrap();
        assert!(
            resident[first_resident..].iter().all(|&r| r),
            "residency must be a suffix of insertion order"
        );
        // Touching the oldest survivor protects it from the next evict.
        let oldest = &keys[first_resident];
        assert!(hot.get(oldest).is_some());
        let (_, fresh) = demo_outcome(31);
        hot.insert("a0000000000000ff", &fresh, None);
        assert!(
            hot.get(oldest).is_some(),
            "recently touched entry survives the next eviction"
        );
    }

    #[test]
    fn oversized_entries_are_declined_not_evicting_everything() {
        let hot = HotCache::new(SHARDS as u64 * 128);
        let (key, out) = demo_outcome(30);
        hot.insert(&key, &out, None); // far larger than 128 bytes/shard
        assert!(hot.get(&key).is_none());
        assert_eq!(hot.stats().entries, 0);
    }

    #[test]
    fn concurrent_insert_get_evict_is_exact() {
        use std::thread;
        let hot = Arc::new(HotCache::new(200 * 1024));
        let (_, out) = demo_outcome(30);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let hot = Arc::clone(&hot);
                let out = out.clone();
                thread::spawn(move || {
                    for i in 0..200 {
                        let key = format!("{:016x}", (t * 1000 + i) * 0x9e37);
                        hot.insert(&key, &out, None);
                        if let Some(e) = hot.get(&key) {
                            assert_eq!(e.outcome().ok().unwrap().cycles, out.ok().unwrap().cycles);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = hot.stats();
        assert!(s.bytes <= hot.cap_bytes(), "bound holds under races: {s:?}");
        assert_eq!(s.insertions, 800);
        assert_eq!(
            s.entries + s.evictions,
            800,
            "inserts partition into resident + evicted: {s:?}"
        );
    }

    #[test]
    fn a_budget_past_u64_bytes_saturates_and_never_evicts() {
        assert!(HotCache::with_mb(0, &Registry::new()).is_none());
        let (_, out) = demo_outcome(30);
        for mb in [1 << 44, u64::MAX] {
            let hot = HotCache::with_mb(mb, &Registry::new()).expect("a nonzero budget is on");
            // All of `u64`, less what the 16-way split leaves over.
            assert_eq!(hot.cap_bytes(), u64::MAX / 16 * 16, "{mb} MiB");
            // Four entries in every shard.
            let keys: Vec<String> = (0..64u64)
                .map(|i| format!("{:016x}", (i << 58) | i))
                .collect();
            for k in &keys {
                hot.insert(k, &out, None);
            }
            assert!(keys.iter().all(|k| hot.get(k).is_some()), "{mb} MiB");
            let s = hot.stats();
            assert_eq!((s.entries, s.evictions), (64, 0), "{mb} MiB");
        }
    }

    /// The `hfs_hot_cache_*` samples of `reg`'s exposition, in
    /// [`HotCacheStats`] field order.
    fn exposed(reg: &Registry) -> HotCacheStats {
        let text = reg.render_prometheus();
        let sample = |name: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or_else(|| panic!("{name} missing from\n{text}"))
        };
        HotCacheStats {
            hits: sample("hfs_hot_cache_hits_total"),
            misses: sample("hfs_hot_cache_misses_total"),
            evictions: sample("hfs_hot_cache_evictions_total"),
            insertions: sample("hfs_hot_cache_insertions_total"),
            entries: sample("hfs_hot_cache_entries"),
            bytes: sample("hfs_hot_cache_bytes"),
        }
    }

    #[test]
    fn the_exposition_is_the_stats() {
        let reg = Registry::new();
        let hot = HotCache::with_mb(1, &reg).expect("1 MiB is on");
        let (key, out) = demo_outcome(30);
        hot.get(&key);
        hot.insert(&key, &out, None);
        hot.get(&key);
        let s = hot.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.entries), (1, 1, 1, 1));
        assert_eq!(exposed(&reg), s);
    }

    #[test]
    fn concurrent_churn_leaves_no_gauge_stale() {
        // Each shard holds about three entries, so four threads inserting
        // into shared shards evict constantly; replacing a resident key
        // releases its old cost too.
        let (_, out) = demo_outcome(30);
        let entry_cost = ENTRY_OVERHEAD + 2 * 16 + outcome_to_text(&out).len() as u64;
        let reg = Registry::new();
        let hot = HotCache::on(entry_cost * 3 * SHARDS as u64, &reg);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (hot, out, start) = (&hot, &out, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..300u64 {
                        let key = format!("{:016x}", ((i % 16) << 60) | (t * 7 + i % 5));
                        hot.insert(&key, out, None);
                        hot.get(&key);
                    }
                });
            }
        });
        let s = hot.stats();
        assert!(s.evictions > 0, "the churn evicts: {s:?}");
        assert_eq!(s.insertions, 1200);
        assert_eq!(exposed(&reg), s, "the exposition agrees field for field");
        let resident: u64 = hot.shards.iter().map(|m| m.lock().unwrap().bytes).sum();
        let count: usize = hot.shards.iter().map(|m| m.lock().unwrap().map.len()).sum();
        assert_eq!((s.bytes, s.entries), (resident, count as u64));
    }
}
