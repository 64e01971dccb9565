//! The shared L3 cache and its memory controller.

use hfs_isa::CoreId;
use hfs_sim::stats::Counter;
use hfs_sim::{fold_bound, ConfigError, Cycle, TimedQueue};

use crate::cache::{CacheArray, CacheGeometry, LineState};

/// A request the L3 is servicing on behalf of a core's L2 miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct L3Req {
    /// Line number requested.
    pub line: u64,
    /// Requesting core.
    pub requester: CoreId,
    /// Coherence state the fill will install in at the requester,
    /// decided by the system at request time (Modified for RdX,
    /// Exclusive for MESI/Dragon fills with no other holder, Shared
    /// otherwise). Passed through untouched.
    pub fill: LineState,
}

/// A serviced request ready to be put on the bus data channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct L3Ready {
    pub req: L3Req,
    /// Whether main memory had to be accessed.
    pub from_dram: bool,
}

/// The shared L3 plus a fixed-latency DRAM behind it.
///
/// Requests pass through the L3 tag array after `l3_latency` cycles; on a
/// miss they continue to DRAM for `dram_latency` more cycles, installing
/// the line in the L3 on return. Writebacks from L2s install dirty lines.
/// Dirty L3 victims are absorbed by DRAM without additional modeled
/// latency (the request that caused the eviction has already paid the
/// DRAM round trip).
#[derive(Debug)]
pub(crate) struct L3 {
    array: CacheArray,
    l3_latency: u64,
    dram_latency: u64,
    lookups: TimedQueue<L3Req>,
    dram: TimedQueue<L3Req>,
    ready: Vec<L3Ready>,
    dram_accesses: Counter,
    dirty_evictions: u64,
}

impl L3 {
    pub(crate) fn new(
        geom: CacheGeometry,
        l3_latency: u64,
        dram_latency: u64,
    ) -> Result<Self, ConfigError> {
        Ok(L3 {
            array: CacheArray::new(geom)?,
            l3_latency,
            dram_latency,
            lookups: TimedQueue::new(),
            dram: TimedQueue::new(),
            ready: Vec::new(),
            dram_accesses: Counter::new("mem.dram_accesses"),
            dirty_evictions: 0,
        })
    }

    /// Accepts a demand request from the bus snoop path.
    pub(crate) fn request(&mut self, req: L3Req, now: Cycle) {
        self.lookups.push(now + self.l3_latency, req);
    }

    /// Absorbs an L2 writeback (installs the line dirty).
    pub(crate) fn writeback(&mut self, line: u64) {
        if let Some(v) = self.array.install(line, LineState::Modified) {
            if v.state == LineState::Modified {
                self.dirty_evictions += 1;
            }
        }
    }

    /// Installs a clean copy (e.g. shadowing a cache-to-cache transfer).
    pub(crate) fn install_clean(&mut self, line: u64) {
        if self.array.probe(line).is_none() {
            if let Some(v) = self.array.install(line, LineState::Shared) {
                if v.state == LineState::Modified {
                    self.dirty_evictions += 1;
                }
            }
        }
    }

    /// Advances one cycle; completed requests accumulate and are drained
    /// with [`L3::take_ready`]. Requests whose lookup misses into DRAM
    /// this cycle are appended to `to_dram`.
    pub(crate) fn tick(&mut self, now: Cycle, to_dram: &mut Vec<L3Req>) {
        while let Some(req) = self.lookups.pop_ready(now) {
            if self.array.access(req.line).is_some() {
                self.ready.push(L3Ready {
                    req,
                    from_dram: false,
                });
            } else {
                self.dram_accesses.inc();
                self.dram.push(now + self.dram_latency, req);
                to_dram.push(req);
            }
        }
        while let Some(req) = self.dram.pop_ready(now) {
            if let Some(v) = self.array.install(req.line, LineState::Shared) {
                if v.state == LineState::Modified {
                    self.dirty_evictions += 1;
                }
            }
            self.ready.push(L3Ready {
                req,
                from_dram: true,
            });
        }
    }

    /// Moves serviced requests awaiting the bus data channel into `out`
    /// (cleared first); both buffers keep their capacity.
    pub(crate) fn take_ready(&mut self, out: &mut Vec<L3Ready>) {
        out.clear();
        std::mem::swap(out, &mut self.ready);
    }

    /// Whether a request for `line` is currently at the DRAM stage.
    #[cfg(test)]
    pub(crate) fn line_in_dram(&self, line: u64, requester: CoreId) -> bool {
        self.dram
            .iter()
            .any(|r| r.line == line && r.requester == requester)
    }

    /// Conservative lower bound on the L3's next state change: the head
    /// stamps of the lookup and DRAM pipelines (exact), plus `now + 1`
    /// defensively while serviced requests sit undrained.
    pub(crate) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut best = None;
        if let Some(t) = self.lookups.next_ready() {
            fold_bound(&mut best, now, t);
        }
        if let Some(t) = self.dram.next_ready() {
            fold_bound(&mut best, now, t);
        }
        if !self.ready.is_empty() {
            fold_bound(&mut best, now, now.next());
        }
        best
    }

    /// Whether the L3 has no in-flight work.
    pub(crate) fn is_idle(&self) -> bool {
        self.lookups.is_empty() && self.dram.is_empty() && self.ready.is_empty()
    }

    /// DRAM accesses made.
    pub(crate) fn dram_accesses(&self) -> u64 {
        self.dram_accesses.value()
    }

    /// L3/DRAM named counters for the unified metrics report.
    pub(crate) fn counters(&self) -> Vec<Counter> {
        let mut l3_hits = Counter::new("mem.l3_hits");
        l3_hits.add(self.array.hits());
        let mut l3_misses = Counter::new("mem.l3_misses");
        l3_misses.add(self.array.misses());
        vec![l3_hits, l3_misses, self.dram_accesses.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l3() -> L3 {
        L3::new(CacheGeometry::new(1536 * 1024, 12, 128), 13, 141).unwrap()
    }

    fn req(line: u64) -> L3Req {
        L3Req {
            line,
            requester: CoreId(0),
            fill: LineState::Shared,
        }
    }

    #[test]
    fn miss_goes_to_dram_then_hits() {
        let mut c = l3();
        c.request(req(7), Cycle::new(0));
        let mut ready_at = None;
        for t in 0..200 {
            c.tick(Cycle::new(t), &mut Vec::new());
            let mut r = Vec::new();
            c.take_ready(&mut r);
            if !r.is_empty() {
                ready_at = Some((t, r[0]));
                break;
            }
        }
        let (t, r) = ready_at.expect("request serviced");
        assert_eq!(t, 13 + 141);
        assert!(r.from_dram);
        assert_eq!(c.dram_accesses(), 1);

        // Second access to the same line: L3 hit.
        c.request(req(7), Cycle::new(200));
        let mut hit_at = None;
        for t in 200..260 {
            c.tick(Cycle::new(t), &mut Vec::new());
            let mut r = Vec::new();
            c.take_ready(&mut r);
            if !r.is_empty() {
                hit_at = Some((t, r[0]));
                break;
            }
        }
        let (t, r) = hit_at.unwrap();
        assert_eq!(t, 200 + 13);
        assert!(!r.from_dram);
        assert_eq!(c.dram_accesses(), 1);
    }

    #[test]
    fn writeback_makes_future_access_hit() {
        let mut c = l3();
        c.writeback(42);
        c.request(req(42), Cycle::new(0));
        for t in 0..20 {
            c.tick(Cycle::new(t), &mut Vec::new());
            let mut ready = Vec::new();
            c.take_ready(&mut ready);
            if let Some(r) = ready.into_iter().next() {
                assert!(!r.from_dram);
                return;
            }
        }
        panic!("no response");
    }

    #[test]
    fn install_clean_does_not_clobber_dirty() {
        let mut c = l3();
        c.writeback(9);
        c.install_clean(9);
        assert_eq!(c.array.probe(9), Some(LineState::Modified));
    }

    #[test]
    fn line_in_dram_visibility() {
        let mut c = l3();
        c.request(req(3), Cycle::new(0));
        for t in 0..20 {
            c.tick(Cycle::new(t), &mut Vec::new());
        }
        assert!(c.line_in_dram(3, CoreId(0)));
        assert!(!c.line_in_dram(4, CoreId(0)));
        assert!(!c.line_in_dram(3, CoreId(1)));
    }

    #[test]
    fn idle_tracking() {
        let mut c = l3();
        assert!(c.is_idle());
        c.request(req(1), Cycle::new(0));
        assert!(!c.is_idle());
    }
}
