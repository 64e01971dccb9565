//! On-disk result cache, sharded 16 ways by key prefix:
//! `<dir>/<k[0]>/<key>.json`, one file per job outcome.
//!
//! Sharding keeps per-directory entry counts manageable when a
//! long-running `hfs-serve` instance accumulates a large design-space
//! cache, and spreads rename traffic across directories. Keys reach the
//! cache from the wire (`submit_refs`), so only strings shaped like a
//! [`Job::key`](crate::job::Job::key) ever become a path: any other key
//! is a miss on load and a no-op on store.
//!
//! Only successful outcomes are persisted — the next run simulates a
//! failure again, and a partial `all_figures` pass therefore resumes
//! exactly where it failed. Writes go through a temp file + rename so a
//! killed run never leaves a truncated entry behind.
//!
//! An entry checks itself. Its first line is `hfs-cache <fingerprint>
//! <key> <checksum of the rest>`; the rest is the outcome's compact JSON,
//! byte for byte what the hot layer holds. A file whose first line is not
//! the one its name and body call for — an entry of another build, one
//! copied to another key's name, a body with a flipped bit, a file cut
//! short — is a miss, and the next [`store`](Cache::store) replaces it.
//!
//! An optional in-memory [`HotCache`] fronts the disk: loads check it
//! first, and both loads and stores populate it write-through, so a
//! warm lookup skips the file read and JSON parse entirely. Because
//! entries are content-keyed and immutable, the two layers can never
//! disagree.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::hotcache::{HotCache, HotEntry};
use crate::job::{is_cache_key, JobOutcome, MODEL_FINGERPRINT};
use crate::key::checksum;
use crate::ser::{outcome_from_text, outcome_to_text};

/// The first line of the entry holding `body` under `key`.
fn header(key: &str, body: &str) -> String {
    let sum = checksum(body.as_bytes());
    format!("hfs-cache {MODEL_FINGERPRINT:016x} {key} {sum:016x}")
}

/// A directory of cached job outcomes keyed by content hash, optionally
/// fronted by a bounded in-memory hot layer.
#[derive(Debug)]
pub struct Cache {
    dir: PathBuf,
    tmp_counter: AtomicU64,
    hot: Option<Arc<HotCache>>,
}

impl Cache {
    /// Opens (without creating) a cache rooted at `dir`, with the hot
    /// layer the environment asks for (`HFS_HOT_CACHE_MB`; `0`
    /// disables it), counting on a registry of its own.
    pub fn new(dir: impl Into<PathBuf>) -> Cache {
        Cache::with_hot(dir, HotCache::from_env(&hfs_obs::Registry::new()))
    }

    /// Opens a cache with an explicit hot layer (or none) — the hook
    /// for servers and benchmarks that size or share the hot cache
    /// themselves.
    pub fn with_hot(dir: impl Into<PathBuf>, hot: Option<Arc<HotCache>>) -> Cache {
        Cache {
            dir: dir.into(),
            tmp_counter: AtomicU64::new(0),
            hot,
        }
    }

    /// The hot layer, when one is attached.
    pub fn hot(&self) -> Option<&Arc<HotCache>> {
        self.hot.as_ref()
    }

    /// Memory-only lookup: a hit costs one shard lock, never disk I/O.
    /// The server's submit path uses this to resolve warm jobs inline
    /// without blocking the dispatcher on the filesystem.
    pub fn hot_entry(&self, key: &str) -> Option<Arc<HotEntry>> {
        self.hot.as_ref()?.get(key)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where `key`'s entry lives: the shard named by its first hex digit
    /// (16 shards for the 16-hex-digit keys), then `<key>.json`.
    /// `None` for anything that is not a well-formed key.
    fn path_for(&self, key: &str) -> Option<PathBuf> {
        is_cache_key(key).then(|| self.dir.join(&key[..1]).join(format!("{key}.json")))
    }

    /// Loads the outcome cached under `key`, if present, intact and
    /// decodable. Corrupt, misnamed or unreadable entries are misses.
    pub fn load(&self, key: &str) -> Option<JobOutcome> {
        Some(self.load_entry(key)?.outcome().clone())
    }

    /// Like [`load`](Cache::load), but returns the outcome *with* its
    /// cached serialization, so callers that re-emit the serialized
    /// text (the server's key-reference delivery path) skip a
    /// re-encode per hit. A disk hit still populates the hot layer;
    /// without one, the entry is built ad hoc from the disk text.
    pub fn load_entry(&self, key: &str) -> Option<Arc<HotEntry>> {
        if let Some(entry) = self.hot_entry(key) {
            return Some(entry);
        }
        let file = fs::read_to_string(self.path_for(key)?).ok()?;
        let (head, body) = file.split_once('\n')?;
        if head != header(key, body) {
            return None;
        }
        let outcome = outcome_from_text(body).ok()?;
        if let Some(hot) = &self.hot {
            hot.insert(key, &outcome, Some(body));
        }
        Some(Arc::new(HotEntry::new(outcome, body.into())))
    }

    /// Persists a successful outcome under `key`; non-`Ok` outcomes are
    /// ignored. I/O failures are swallowed: the cache is an accelerator,
    /// never a correctness dependency.
    pub fn store(&self, key: &str, outcome: &JobOutcome) {
        let Some(path) = self.path_for(key).filter(|_| outcome.is_ok()) else {
            return;
        };
        // One serialization feeds both layers.
        let body = outcome_to_text(outcome);
        if let Some(hot) = &self.hot {
            hot.insert(key, outcome, Some(&body));
        }
        let shard = path.parent().expect("entries live in a shard directory");
        if fs::create_dir_all(shard).is_err() {
            return;
        }
        let tmp = shard.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let file = format!("{}\n{body}", header(key, &body));
        if fs::write(&tmp, file).is_err() || fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{execute, Job};
    use crate::spec::key_with;
    use hfs_core::kernel::KernelPair;
    use hfs_core::{DesignPoint, MachineConfig};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hfs-cache-test-{}-{}", std::process::id(), tag));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn demo_outcome() -> (String, JobOutcome) {
        let job = Job::pipeline(
            "t",
            KernelPair::simple("demo", 2, 30),
            MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
        );
        (job.key(), execute(&job, 0))
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = tmp_dir("roundtrip");
        let cache = Cache::new(&dir);
        let (key, out) = demo_outcome();
        assert!(cache.load(&key).is_none(), "cold cache misses");
        cache.store(&key, &out);
        let loaded = cache.load(&key).expect("hit after store");
        assert_eq!(
            loaded.ok().unwrap().cycles,
            out.ok().unwrap().cycles,
            "cached cycles match"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_land_in_their_shard() {
        let dir = tmp_dir("shards");
        let cache = Cache::new(&dir);
        let (key, out) = demo_outcome();
        cache.store(&key, &out);
        let shard = key.chars().next().unwrap().to_string();
        assert!(
            dir.join(&shard).join(format!("{key}.json")).is_file(),
            "entry must live under shard {shard}/"
        );
        assert!(
            !dir.join(format!("{key}.json")).exists(),
            "no flat entry is written"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_keys_never_reach_the_filesystem() {
        let root = tmp_dir("foreign");
        let dir = root.join("cache");
        fs::create_dir_all(&dir).unwrap();
        let (_, out) = demo_outcome();
        let body = outcome_to_text(&out);
        // A valid entry one level above the cache directory: a key that
        // walks out of it must neither read nor move it.
        let victim = root.join("victim.json");
        fs::write(&victim, &body).unwrap();
        let cache = Cache::with_hot(&dir, None);
        for key in ["../victim", "victim", "", "0123456789ABCDEF"] {
            assert!(cache.load_entry(key).is_none(), "{key:?} must miss");
            cache.store(key, &out);
        }
        assert_eq!(fs::read_to_string(&victim).unwrap(), body, "unmoved");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "nothing stored");
        let _ = fs::remove_dir_all(&root);
    }

    /// A store whose rename fails (a non-empty directory squats on the
    /// entry's path; no permission gets a file renamed over it) removes
    /// its temp file, and the next store once the path is free heals.
    #[test]
    fn a_failed_rename_leaves_no_temp_file() {
        let dir = tmp_dir("rename");
        let cache = Cache::with_hot(&dir, None);
        let (key, out) = demo_outcome();
        let path = cache.path_for(&key).unwrap();
        fs::create_dir_all(path.join("squatter")).unwrap();
        cache.store(&key, &out);
        let names: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            !names.iter().any(|n| n.starts_with(".tmp-")),
            "a failed store leaves its temp file: {names:?}"
        );
        assert!(cache.load(&key).is_none(), "a directory is not an entry");
        fs::remove_dir_all(&path).unwrap();
        cache.store(&key, &out);
        assert!(cache.load(&key).is_some(), "the next store heals");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failures_are_not_cached() {
        let dir = tmp_dir("failures");
        let cache = Cache::new(&dir);
        let key = "deadbeefdeadbeef";
        cache.store(key, &JobOutcome::Timeout { max_cycles: 1 });
        cache.store(key, &JobOutcome::SimError("x".into()));
        cache.store(key, &JobOutcome::Cancelled);
        assert!(cache.load(key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_layer_serves_after_disk_entry_disappears() {
        use crate::hotcache::HotCache;
        use std::sync::Arc;
        let dir = tmp_dir("hotlayer");
        let hot = Arc::new(HotCache::new(1 << 20));
        let cache = Cache::with_hot(&dir, Some(Arc::clone(&hot)));
        let (key, out) = demo_outcome();
        cache.store(&key, &out);
        // The hot entry's text is the disk file's body, byte for byte.
        let disk = fs::read_to_string(
            dir.join(key.chars().next().unwrap().to_string())
                .join(format!("{key}.json")),
        )
        .unwrap();
        let (head, body) = disk.split_once('\n').expect("a header line");
        assert_eq!(cache.hot_entry(&key).unwrap().json(), body);
        assert_eq!(head, header(&key, body));
        assert!(head.starts_with(&format!("hfs-cache {MODEL_FINGERPRINT:016x} {key} ")));
        // Removing the disk file doesn't evict the hot copy.
        let _ = fs::remove_dir_all(&dir);
        let loaded = cache.load(&key).expect("hot layer still hits");
        assert_eq!(loaded.ok().unwrap().cycles, out.ok().unwrap().cycles);
        // A disk-only cache (no hot layer) now misses.
        assert!(Cache::with_hot(&dir, None).load(&key).is_none());
    }

    #[test]
    fn disk_load_populates_the_hot_layer() {
        use crate::hotcache::HotCache;
        use std::sync::Arc;
        let dir = tmp_dir("hotfill");
        let (key, out) = demo_outcome();
        Cache::with_hot(&dir, None).store(&key, &out);
        let hot = Arc::new(HotCache::new(1 << 20));
        let cache = Cache::with_hot(&dir, Some(Arc::clone(&hot)));
        assert!(cache.hot_entry(&key).is_none(), "hot starts cold");
        cache.load(&key).expect("disk hit");
        assert!(cache.hot_entry(&key).is_some(), "disk hit fills hot");
        let s = hot.stats();
        // Two misses (the cold probe + the load's own probe), then the
        // post-load probe hits.
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let dir = tmp_dir("corrupt");
        let key = "abcdefabcdefabcd";
        fs::create_dir_all(dir.join("a")).unwrap();
        fs::write(dir.join("a").join(format!("{key}.json")), "{not json").unwrap();
        assert!(Cache::new(&dir).load(key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_that_fails_its_own_header_is_a_miss_the_next_store_heals() {
        let dir = tmp_dir("selfcheck");
        let cache = Cache::with_hot(&dir, None);
        let (key, out) = demo_outcome();
        let path = cache.path_for(&key).unwrap();
        cache.store(&key, &out);
        let good = fs::read_to_string(&path).unwrap();
        let (head, body) = good.split_once('\n').unwrap();
        let other_key = format!("{:016x}", !u64::from_str_radix(&key, 16).unwrap());
        for (what, bad) in [
            ("a schema-1 blob: pretty JSON, no header", {
                crate::json::to_text(true, |w| crate::ser::write_outcome(w, &out))
            }),
            ("the body alone", body.to_string()),
            ("another build's entry", {
                let this = format!("hfs-cache {MODEL_FINGERPRINT:016x} ");
                let other = format!("hfs-cache {:016x} ", !MODEL_FINGERPRINT);
                good.replacen(&this, &other, 1)
            }),
            ("another key's entry", good.replace(&key, &other_key)),
            (
                "a body that still parses",
                good.replace("\"cycles\":", "\"cycles\":1"),
            ),
            ("a checksum of something else", {
                format!("{}\n{body}", header(&key, "{}"))
            }),
            ("cut short", good[..good.len() - 1].to_string()),
            ("the header alone", format!("{head}\n")),
            ("nothing", String::new()),
        ] {
            assert_ne!(bad, good, "{what}");
            fs::write(&path, &bad).unwrap();
            assert!(cache.load(&key).is_none(), "{what} must miss");
            cache.store(&key, &out);
            assert_eq!(fs::read_to_string(&path).unwrap(), good, "{what} heals");
            assert!(cache.load(&key).is_some(), "{what} hits again");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn builds_share_keys_exactly_when_they_share_a_fingerprint() {
        let pair = |work| KernelPair::simple("demo", work, 30);
        let cmp = MachineConfig::itanium2_cmp;
        for job in [
            Job::pipeline("a", pair(2), cmp(DesignPoint::heavywt())),
            Job::pipeline("b", pair(3), cmp(DesignPoint::existing())).with_metrics(true),
            Job::single("c", pair(2), MachineConfig::itanium2_single()),
        ] {
            let key = job.key();
            assert_eq!(key_with(MODEL_FINGERPRINT, &job), key, "{}", job.label);
            let others = [!MODEL_FINGERPRINT, MODEL_FINGERPRINT ^ 1].map(|f| key_with(f, &job));
            assert!(!others.contains(&key), "{}: another build hits", job.label);
            assert_ne!(others[0], others[1], "{}", job.label);
        }
    }
}
