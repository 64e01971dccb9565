//! One line ledger per memory-backed streaming queue (DESIGN §5
//! decision 6): which slots a queue line covers, when it is pushed to
//! the consumer, and whether it arrived.
//!
//! A queue of `depth` slots, QLU to a line, has a ring of `depth / qlu`
//! records, one per line position. A record follows the absolute line
//! (`slot / qlu` over the run) at its position: filling until the QLU-th
//! store performs (§3.5.1's trigger edge: the line is to be pushed), then
//! forwarding until a `ForwardDone` or `ForwardDropped` resolves it. A
//! report resolves the oldest open line at its position, so pushes may
//! land in any order. A record moves on to the line one ring later at
//! that line's first store; a store arriving while the line is still
//! open counts ahead, and the record moves on when the outcome arrives.

use std::collections::VecDeque;
use std::ops::Range;

use hfs_isa::program::QueueMemLayout;
use hfs_isa::{Addr, CoreId};
use hfs_mem::{MemEvent, MemSystem};
use hfs_sim::Cycle;

/// The push a memory event reports the end of: its destination core,
/// its line, and whether it was delivered.
pub(crate) fn push_outcome(ev: &MemEvent) -> Option<(CoreId, Addr, bool)> {
    match *ev {
        MemEvent::ForwardDone { to, line_addr, .. } => Some((to, line_addr, true)),
        MemEvent::ForwardDropped { to, line_addr, .. } => Some((to, line_addr, false)),
        _ => None,
    }
}

/// Pushes the lines at their trigger edge, oldest first, while the
/// producer's OzQ takes them; the rest wait (the §4.4 back-pressure that
/// fills MEMOPTI's OzQ).
pub(crate) fn push_lines(
    lines: &mut VecDeque<Addr>,
    mem: &mut MemSystem,
    from: CoreId,
    to: CoreId,
    now: Cycle,
) {
    while let Some(&line) = lines.front() {
        if !mem.forward_line(from, to, line, now) {
            break;
        }
        lines.pop_front();
    }
}

/// A line's outcome: `Open` while filling or forwarding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Open,
    Resident,
    Dropped,
}

/// One ring position's record.
#[derive(Debug, Clone, Copy)]
struct Line {
    abs: u64,
    /// Stores performed on `abs`, and on the lines a ring later that
    /// filled while it was open.
    stores: u64,
    state: State,
}

#[derive(Debug)]
pub(crate) struct LineLedger {
    layout: QueueMemLayout,
    qlu: u64,
    lines: Vec<Line>,
    /// Every absolute line below this one is resolved.
    resolved: u64,
}

impl LineLedger {
    pub(crate) fn new(layout: &QueueMemLayout) -> Self {
        let qlu = u64::from(layout.qlu);
        let open = |abs| Line {
            abs,
            stores: 0,
            state: State::Open,
        };
        LineLedger {
            layout: *layout,
            qlu,
            lines: (0..u64::from(layout.depth) / qlu).map(open).collect(),
            resolved: 0,
        }
    }

    fn ring(&self) -> u64 {
        self.lines.len() as u64
    }

    /// The ring position of the line holding the slot word at `addr`.
    fn position(&self, addr: Addr) -> usize {
        let off = addr.as_u64() - self.layout.base.as_u64();
        (self.layout.slot_of_offset(off).0 / self.qlu) as usize
    }

    /// A store on the slot word at `addr` performed. Returns its line at
    /// the trigger edge.
    pub(crate) fn on_store(&mut self, addr: Addr) -> Option<Addr> {
        let (qlu, ring, pos) = (self.qlu, self.ring(), self.position(addr));
        let line = &mut self.lines[pos];
        if line.state != State::Open && line.stores == qlu {
            *line = Line {
                abs: line.abs + ring,
                stores: 0,
                state: State::Open,
            };
        }
        line.stores += 1;
        line.stores
            .is_multiple_of(qlu)
            .then(|| self.layout.line_of(addr))
    }

    /// The push of the line at `line_addr` was `delivered` or dropped:
    /// resolves the oldest open line at its position. Returns the slots
    /// a delivered line fills the stream cache with, those below `issued`
    /// (the consumer's issue position) left out: their consumes have
    /// issued, so a cached copy could never be taken.
    pub(crate) fn resolve(&mut self, line_addr: Addr, delivered: bool, issued: u64) -> Range<u64> {
        let (qlu, ring, pos) = (self.qlu, self.ring(), self.position(line_addr));
        let line = &mut self.lines[pos];
        if line.state != State::Open || line.stores < qlu {
            return 0..0; // no push of this position is outstanding
        }
        let abs = line.abs;
        line.state = if delivered {
            State::Resident
        } else {
            State::Dropped
        };
        if line.stores > qlu {
            *line = Line {
                abs: abs + ring,
                stores: line.stores - qlu,
                state: State::Open,
            };
        }
        while self.is_resolved(self.resolved) {
            self.resolved += 1;
        }
        if !delivered {
            return 0..0;
        }
        (abs * qlu).max(issued)..(abs + 1) * qlu
    }

    fn is_resolved(&self, abs: u64) -> bool {
        let line = self.lines[(abs % self.ring()) as usize];
        line.abs > abs || line.abs == abs && line.state != State::Open
    }

    /// Whether every line up to `slot`'s is resolved, so a consume of it
    /// finds the line in its L2 or pulls a dropped one.
    pub(crate) fn released(&self, slot: u64) -> bool {
        slot < self.resolved * self.qlu
    }

    /// Whether `slot`'s own store performed: its record moved past its
    /// line, or counts more of the line's stores (counted a ring ahead)
    /// than the slot's offset. A line's stores perform in slot order.
    pub(crate) fn performed(&self, slot: u64) -> bool {
        let (abs, offset) = (slot / self.qlu, slot % self.qlu);
        let line = self.lines[(abs % self.ring()) as usize];
        line.abs > abs || line.stores > (abs - line.abs) / self.ring() * self.qlu + offset
    }

    /// Whether `slot`'s line was delivered by its push.
    pub(crate) fn delivered(&self, slot: u64) -> bool {
        let abs = slot / self.qlu;
        let line = self.lines[(abs % self.ring()) as usize];
        line.abs > abs || line.abs == abs && line.state == State::Resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignPoint;
    use hfs_isa::QueueId;

    /// SYNCOPTI's 32-slot queue, 8 slots to a line: a ring of four.
    fn ledger() -> (LineLedger, QueueMemLayout) {
        let layout = DesignPoint::syncopti().queue_mem_info(QueueId(0)).unwrap();
        (LineLedger::new(&layout), layout)
    }

    fn store_line(l: &mut LineLedger, layout: &QueueMemLayout, abs: u64) -> Option<Addr> {
        (abs * 8..(abs + 1) * 8)
            .map(|slot| l.on_store(layout.slot_addr(slot)))
            .last()
            .flatten()
    }

    #[test]
    fn pushes_landing_out_of_order_release_in_order_and_fill_their_own_slots() {
        let (mut l, layout) = ledger();
        let first = store_line(&mut l, &layout, 0).expect("the 8th store pushes");
        let second = store_line(&mut l, &layout, 1).expect("the 8th store pushes");
        assert!(l.performed(15) && !l.performed(16));
        // Line 1 lands first: it fills slots 8..16, and releases nothing
        // while line 0 is open.
        assert_eq!(l.resolve(second, true, 0), 8..16);
        assert!(!l.released(0) && l.delivered(8) && !l.delivered(0));
        // Consumes of slots 0..3 have issued: the fill leaves them out.
        assert_eq!(l.resolve(first, true, 3), 3..8);
        assert!(l.released(15) && !l.released(16));
    }

    #[test]
    fn a_slot_is_performed_by_its_own_lines_stores() {
        let (mut l, layout) = ledger();
        store_line(&mut l, &layout, 1);
        for slot in 0..7 {
            l.on_store(layout.slot_addr(slot));
        }
        // Fifteen stores performed on the queue, but not slot 7's.
        assert!(!l.performed(7) && l.performed(6) && l.performed(15));
    }

    #[test]
    fn a_dropped_push_resolves_its_line_without_a_fill() {
        let (mut l, layout) = ledger();
        let line = store_line(&mut l, &layout, 0).unwrap();
        assert_eq!(l.resolve(line, false, 0), 0..0);
        assert!(l.released(7) && !l.delivered(0));
        // A report with no push outstanding resolves nothing.
        assert_eq!(l.resolve(line, true, 0), 0..0);
    }

    #[test]
    fn stores_a_ring_ahead_wait_for_the_open_line_they_share_a_position_with() {
        let (mut l, layout) = ledger();
        let lines: Vec<_> = (0..4).map(|abs| store_line(&mut l, &layout, abs)).collect();
        for line in &lines[1..] {
            l.resolve(line.unwrap(), true, 0);
        }
        // Line 0 was pulled and consumed while its push was queued, so
        // the consumer issues at slot 8; line 4 fills its position and
        // pushes again.
        assert_eq!(store_line(&mut l, &layout, 4), lines[0]);
        assert!(l.performed(39) && !l.performed(40) && !l.released(32));
        // The first outcome is line 0's, with nothing left to fill; the
        // second is line 4's.
        assert!(l.resolve(lines[0].unwrap(), true, 8).is_empty());
        assert!(l.released(31) && !l.released(32));
        assert_eq!(l.resolve(lines[0].unwrap(), true, 8), 32..40);
        assert!(l.released(39) && l.delivered(32));
    }
}
