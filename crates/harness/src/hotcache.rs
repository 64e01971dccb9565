//! Bounded in-memory hot layer in front of the on-disk result cache.
//!
//! A warm sweep against the plain disk cache still pays a file read, a
//! JSON parse, and a full [`RunResult`](hfs_core::RunResult)
//! reconstruction per job. The hot cache keeps recently touched
//! outcomes resident — both the decoded [`JobOutcome`] and its
//! serialized text — so repeat lookups cost one shard lock and a clone.
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

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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
    /// outgoing frames ([`Json::Raw`](crate::Json::Raw)).
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

struct HotObs {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    bytes: Gauge,
    entries: Gauge,
}

/// The sharded, byte-bounded, LRU-evicting in-memory result cache.
pub struct HotCache {
    shards: Vec<Mutex<Shard>>,
    shard_cap: u64,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
    total_bytes: AtomicU64,
    total_entries: AtomicU64,
    obs: OnceLock<HotObs>,
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
    /// shards; each shard keeps at least one entry's worth of room).
    pub fn new(cap_bytes: u64) -> HotCache {
        HotCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_cap: (cap_bytes / SHARDS as u64).max(ENTRY_OVERHEAD),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            total_bytes: AtomicU64::new(0),
            total_entries: AtomicU64::new(0),
            obs: OnceLock::new(),
        }
    }

    /// Builds the hot cache the environment asks for: `None` when
    /// `HFS_HOT_CACHE_MB=0`, otherwise a cache bounded by the requested
    /// (or default) budget.
    pub fn from_env() -> Option<Arc<HotCache>> {
        let mb = std::env::var(ENV_HOT_CACHE_MB)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_HOT_CACHE_MB);
        (mb > 0).then(|| Arc::new(HotCache::new(mb * 1024 * 1024)))
    }

    /// The total byte budget.
    pub fn cap_bytes(&self) -> u64 {
        self.shard_cap * SHARDS as u64
    }

    /// Registers hit/eviction counters and residency gauges on
    /// `registry` (`hfs_hot_cache_*`). Idempotent; the first call wins.
    /// Until called, the cache only keeps its internal [`stats`]
    /// counters — observability stays strictly opt-in.
    ///
    /// [`stats`]: HotCache::stats
    pub fn install_metrics(&self, registry: &Registry) {
        let _ = self.obs.set(HotObs {
            hits: registry.counter("hfs_hot_cache_hits_total"),
            misses: registry.counter("hfs_hot_cache_misses_total"),
            evictions: registry.counter("hfs_hot_cache_evictions_total"),
            bytes: registry.gauge("hfs_hot_cache_bytes"),
            entries: registry.gauge("hfs_hot_cache_entries"),
        });
        self.sync_gauges();
    }

    fn sync_gauges(&self) {
        if let Some(o) = self.obs.get() {
            o.bytes
                .set(i64::try_from(self.total_bytes.load(Ordering::Relaxed)).unwrap_or(i64::MAX));
            o.entries
                .set(i64::try_from(self.total_entries.load(Ordering::Relaxed)).unwrap_or(i64::MAX));
        }
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
            self.misses.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = self.obs.get() {
                o.misses.inc();
            }
            return None;
        };
        let entry = Arc::clone(&slot.entry);
        let new_tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let old_tick = std::mem::replace(&mut slot.tick, new_tick);
        // The key string moves to its new tick: a hit allocates nothing.
        let owned = shard.lru.remove(&old_tick).expect("every slot has a tick");
        shard.lru.insert(new_tick, owned);
        drop(guard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.obs.get() {
            o.hits.inc();
        }
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
        let mut evicted = 0u64;
        let mut shard = self.shard(key).lock().unwrap();
        if let Some(old) = shard.map.remove(key) {
            shard.lru.remove(&old.tick);
            shard.bytes -= old.cost;
            self.total_bytes.fetch_sub(old.cost, Ordering::Relaxed);
            self.total_entries.fetch_sub(1, Ordering::Relaxed);
        }
        shard
            .map
            .insert(key.to_string(), Slot { entry, tick, cost });
        shard.lru.insert(tick, key.to_string());
        shard.bytes += cost;
        self.total_bytes.fetch_add(cost, Ordering::Relaxed);
        self.total_entries.fetch_add(1, Ordering::Relaxed);
        while shard.bytes > self.shard_cap {
            // The loop terminates before touching the entry just
            // inserted: its cost alone fits the shard budget, and it
            // holds the highest tick.
            let (&victim_tick, _) = shard.lru.iter().next().unwrap();
            let victim_key = shard.lru.remove(&victim_tick).unwrap();
            let victim = shard.map.remove(&victim_key).unwrap();
            shard.bytes -= victim.cost;
            self.total_bytes.fetch_sub(victim.cost, Ordering::Relaxed);
            self.total_entries.fetch_sub(1, Ordering::Relaxed);
            evicted += 1;
        }
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            if let Some(o) = self.obs.get() {
                o.evictions.add(evicted);
            }
        }
        self.sync_gauges();
    }

    /// A consistent-enough snapshot of the counters (each field is
    /// individually exact; the set is not taken under one lock).
    pub fn stats(&self) -> HotCacheStats {
        HotCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            entries: self.total_entries.load(Ordering::Relaxed),
            bytes: self.total_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{execute, Job};
    use crate::ser::{outcome_from_text, outcome_to_json};
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
        let pretty = outcome_to_json(&out).to_pretty();
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
    fn metrics_installation_mirrors_internal_counters() {
        let hot = HotCache::new(1 << 20);
        let reg = Registry::new();
        hot.install_metrics(&reg);
        let (key, out) = demo_outcome(30);
        hot.get(&key);
        hot.insert(&key, &out, None);
        hot.get(&key);
        let text = reg.render_prometheus();
        assert!(text.contains("hfs_hot_cache_hits_total 1"), "{text}");
        assert!(text.contains("hfs_hot_cache_misses_total 1"), "{text}");
        assert!(text.contains("hfs_hot_cache_entries 1"), "{text}");
    }
}
