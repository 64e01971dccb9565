//! Per-core write-through L1 data cache.

use hfs_isa::Addr;
use hfs_sim::ConfigError;

use crate::cache::{CacheArray, CacheGeometry, LineState};

/// A write-through, no-write-allocate L1 data cache.
///
/// Because the cache is write-through, every resident line is clean and
/// eviction never writes back. Coherence is maintained by the L2: any
/// invalidation or eviction at the L2 is forwarded here so the L1 stays a
/// subset of the L2.
#[derive(Debug)]
pub struct L1d {
    array: CacheArray,
    line_bytes: u64,
}

impl L1d {
    /// Creates an empty L1.
    pub fn new(geom: CacheGeometry) -> Result<Self, ConfigError> {
        Ok(L1d {
            line_bytes: geom.line_bytes,
            array: CacheArray::new(geom)?,
        })
    }

    fn line(&self, addr: Addr) -> u64 {
        addr.line(self.line_bytes)
    }

    /// Load lookup: true on hit (updates LRU and stats).
    pub fn load_hit(&mut self, addr: Addr) -> bool {
        self.array.access(self.line(addr)).is_some()
    }

    /// Store lookup: updates the line's LRU if present (write-through;
    /// no allocation on miss). Returns whether the line was present.
    pub fn store_touch(&mut self, addr: Addr) -> bool {
        self.array.access(self.line(addr)).is_some()
    }

    /// Whether the line containing `addr` is resident; touches neither
    /// LRU nor statistics.
    pub fn holds(&self, addr: Addr) -> bool {
        self.array.probe(self.line(addr)).is_some()
    }

    /// Installs the line containing `addr` after an L2 fill (clean —
    /// write-through L1 lines are never dirty).
    pub fn fill(&mut self, addr: Addr) {
        // Victims are clean by construction; nothing to write back.
        let _ = self.array.install(self.line(addr), LineState::Shared);
    }

    /// Drops the line containing `line_addr` (L2 eviction/invalidation).
    pub fn invalidate_line(&mut self, line_addr: Addr) {
        let _ = self.array.invalidate(self.line(line_addr));
    }

    /// When the L2 line size exceeds the L1's, one L2 invalidation covers
    /// several L1 lines; this drops them all.
    pub fn invalidate_span(&mut self, l2_line_addr: Addr, l2_line_bytes: u64) {
        let mut a = l2_line_addr;
        let end = l2_line_addr + l2_line_bytes;
        while a < end {
            self.invalidate_line(a);
            a = a + self.line_bytes;
        }
    }

    /// Load hits observed.
    pub fn hits(&self) -> u64 {
        self.array.hits()
    }

    /// Load misses observed.
    pub fn misses(&self) -> u64 {
        self.array.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> L1d {
        L1d::new(CacheGeometry::new(16 * 1024, 4, 64)).unwrap()
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = l1();
        let a = Addr::new(0x1000);
        assert!(!c.load_hit(a));
        c.fill(a);
        assert!(c.load_hit(a));
        assert!(c.load_hit(Addr::new(0x103f))); // same 64B line
        assert!(!c.load_hit(Addr::new(0x1040))); // next line
    }

    #[test]
    fn store_does_not_allocate() {
        let mut c = l1();
        let a = Addr::new(0x2000);
        assert!(!c.store_touch(a));
        assert!(!c.load_hit(a)); // still absent
    }

    #[test]
    fn invalidate_span_covers_l2_line() {
        let mut c = l1();
        // An L2 line of 128B covers two 64B L1 lines.
        c.fill(Addr::new(0x4000));
        c.fill(Addr::new(0x4040));
        c.invalidate_span(Addr::new(0x4000), 128);
        assert!(!c.load_hit(Addr::new(0x4000)));
        assert!(!c.load_hit(Addr::new(0x4040)));
    }
}
