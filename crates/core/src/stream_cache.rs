//! The 1 KB fully-associative stream cache (§5).
//!
//! When a write-forwarded streaming line fills the consumer's L2, its
//! memory address is reverse-mapped to queue addresses — (queue, slot)
//! two-tuples — which fill this small cache. A consume that hits reads its
//! datum in a single cycle, bypassing TLB lookup and address generation;
//! the hit invalidates the entry. Fills arriving when the cache is full
//! are dropped (the consume then follows the ordinary L2 path).

use hfs_isa::QueueId;
use hfs_sim::FnvMap;

/// Key: the queue id under the absolute queue slot sequence number (not
/// wrapped), so stale entries from previous wraps can never alias.
fn key(q: QueueId, slot: u64) -> u64 {
    debug_assert!(slot < 1 << 48, "slot sequence numbers fit 48 bits");
    slot << 16 | u64::from(q.0)
}

/// A fully-associative cache of queue data keyed by (queue, slot).
#[derive(Debug, Clone)]
pub struct StreamCache {
    capacity: usize,
    entries: FnvMap<u64>,
    hits: u64,
    misses: u64,
    dropped_fills: u64,
}

impl StreamCache {
    /// Entry size in bytes (one queue datum).
    pub const ENTRY_BYTES: usize = 8;

    /// Creates a stream cache with the given total capacity in bytes
    /// (the paper's design is 1 KB = 128 entries).
    pub fn with_capacity_bytes(bytes: usize) -> Self {
        StreamCache {
            capacity: bytes / Self::ENTRY_BYTES,
            entries: FnvMap::new(),
            hits: 0,
            misses: 0,
            dropped_fills: 0,
        }
    }

    /// The paper's 1 KB configuration.
    pub fn paper_1kb() -> Self {
        Self::with_capacity_bytes(1024)
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fills `(q, slot)` with `value`. Returns false (dropping the fill)
    /// when the cache is full — the §5 policy.
    pub fn fill(&mut self, q: QueueId, slot: u64, value: u64) -> bool {
        if self.entries.len() >= self.capacity {
            self.dropped_fills += 1;
            return false;
        }
        self.entries.insert(key(q, slot), value);
        true
    }

    /// Consumes `(q, slot)`: returns the datum, invalidates the entry and
    /// counts a hit on a hit. A miss is not counted here: the consume may
    /// yet be refused, and a refused consume is not an event.
    pub fn take(&mut self, q: QueueId, slot: u64) -> Option<u64> {
        let v = self.entries.remove(key(q, slot))?;
        self.hits += 1;
        Some(v)
    }

    /// Counts a consume that missed and issued its gated load.
    pub fn count_miss(&mut self) {
        self.misses += 1;
    }

    /// Consumes that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Consumes that missed and went to the L2.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fills dropped because the cache was full.
    pub fn dropped_fills(&self) -> u64 {
        self.dropped_fills
    }

    /// Iterates over resident `((queue, slot), value)` entries in
    /// arbitrary order — used by the machine checker's inclusion audit.
    pub fn entries(&self) -> impl Iterator<Item = (QueueId, u64, u64)> + '_ {
        self.entries
            .iter()
            .map(|(k, &v)| (QueueId(k as u16), k >> 16, v))
    }
}

impl Default for StreamCache {
    fn default() -> Self {
        Self::paper_1kb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_holds_128_entries() {
        assert_eq!(StreamCache::paper_1kb().capacity(), 128);
    }

    #[test]
    fn hit_invalidates() {
        let mut sc = StreamCache::paper_1kb();
        assert!(sc.fill(QueueId(0), 5, 42));
        assert_eq!(sc.take(QueueId(0), 5), Some(42));
        assert_eq!(sc.take(QueueId(0), 5), None);
        assert_eq!(sc.hits(), 1);
        assert_eq!(sc.misses(), 0, "a miss is counted when its load issues");
        assert!(sc.is_empty());
    }

    #[test]
    fn full_cache_drops_fills() {
        let mut sc = StreamCache::with_capacity_bytes(16); // 2 entries
        assert!(sc.fill(QueueId(0), 0, 1));
        assert!(sc.fill(QueueId(0), 1, 2));
        assert!(!sc.fill(QueueId(0), 2, 3));
        assert_eq!(sc.dropped_fills(), 1);
        assert_eq!(sc.len(), 2);
        // The dropped slot misses; the resident ones hit.
        assert_eq!(sc.take(QueueId(0), 2), None);
        assert_eq!(sc.take(QueueId(0), 0), Some(1));
    }

    #[test]
    fn absolute_slots_do_not_alias_across_wraps() {
        let mut sc = StreamCache::paper_1kb();
        sc.fill(QueueId(1), 0, 10);
        sc.fill(QueueId(1), 32, 20); // same wrapped slot for depth 32
        assert_eq!(sc.take(QueueId(1), 0), Some(10));
        assert_eq!(sc.take(QueueId(1), 32), Some(20));
    }

    #[test]
    fn queues_are_distinct() {
        let mut sc = StreamCache::paper_1kb();
        sc.fill(QueueId(0), 7, 1);
        assert_eq!(sc.take(QueueId(1), 7), None);
        assert_eq!(sc.take(QueueId(0), 7), Some(1));
    }
}
