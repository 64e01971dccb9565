//! A calendar queue: a bucketed timing wheel over [`Cycle`] with an
//! overflow min-heap for events beyond the wheel's horizon.
//!
//! No production code uses it: the machine's one run loop folds
//! `next_event` bounds instead of queueing wake times. It is retained,
//! unit-tested, only because `benchmark/` (which the change that retired
//! the event-driven run loop could not touch) still times
//! [`CalendarQueue::new`], [`CalendarQueue::schedule`],
//! [`CalendarQueue::next_due`] and [`CalendarQueue::pop_due`]; the next
//! `benchmark` PR removes the module.
//!
//! # Example
//!
//! ```
//! use hfs_sim::sched::CalendarQueue;
//! use hfs_sim::Cycle;
//!
//! let mut q = CalendarQueue::new(Cycle::ZERO);
//! q.schedule(Cycle::new(3), 0);
//! q.schedule(Cycle::new(9_000), 1); // far future: overflow heap
//! assert_eq!(q.next_due(), Some(Cycle::new(3)));
//! assert_eq!(q.pop_due(Cycle::new(5)), Some((Cycle::new(3), 0)));
//! assert_eq!(q.pop_due(Cycle::new(5)), None);
//! assert_eq!(q.next_due(), Some(Cycle::new(9_000)));
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Cycle;

/// Wheel size in one-cycle buckets. Events within this many cycles of
/// the cursor index directly into their bucket; later events park in the
/// overflow heap and are promoted as the cursor advances. 256 covers the
/// longest component-internal latencies (DRAM, idle-flush timeouts) for
/// the configured machines, so promotion is rare.
const WHEEL_SLOTS: u64 = 256;

/// A calendar queue: a timing wheel of one-cycle buckets plus an
/// overflow min-heap for events beyond the wheel horizon.
///
/// Each entry is a `(wake cycle, token)` pair; tokens are small integers
/// chosen by the caller. The queue never coalesces or cancels entries.
#[derive(Debug)]
pub struct CalendarQueue {
    /// `wheel[c % WHEEL_SLOTS]` holds every entry with wake cycle `c`
    /// for `c` in `[cursor, cursor + WHEEL_SLOTS)`. Within that window
    /// the mapping is bijective, so all entries in one bucket share the
    /// same wake cycle.
    wheel: Vec<Vec<(u64, u32)>>,
    /// All entries have wake cycle `>= cursor`; buckets behind the
    /// cursor are empty.
    cursor: u64,
    /// Entries with wake cycle `>= cursor + WHEEL_SLOTS`, promoted into
    /// the wheel as the cursor advances.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
    /// Entry count currently in the wheel (not the overflow heap).
    wheel_len: usize,
}

impl CalendarQueue {
    /// An empty queue whose cursor starts at `start`.
    pub fn new(start: Cycle) -> CalendarQueue {
        CalendarQueue {
            wheel: vec![Vec::new(); WHEEL_SLOTS as usize],
            cursor: start.as_u64(),
            overflow: BinaryHeap::new(),
            wheel_len: 0,
        }
    }

    /// Schedules `token` to surface at cycle `at` (clamped to the
    /// cursor: the past is not reachable, so an overdue wake surfaces
    /// immediately).
    pub fn schedule(&mut self, at: Cycle, token: u32) {
        let at = at.as_u64().max(self.cursor);
        if at < self.cursor + WHEEL_SLOTS {
            self.wheel[(at % WHEEL_SLOTS) as usize].push((at, token));
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse((at, token)));
        }
    }

    /// Pops one entry with wake cycle `<= now`, advancing the cursor as
    /// needed; `None` once nothing remains due. Entries for one cycle
    /// surface before any entry of a later cycle (wake-time
    /// monotonicity).
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, u32)> {
        let now = now.as_u64();
        loop {
            if self.cursor > now {
                return None;
            }
            if self.wheel_len == 0 {
                // Nothing inside the horizon: hop the cursor straight to
                // the earliest overflow entry instead of walking empty
                // buckets one by one.
                match self.overflow.peek() {
                    Some(&Reverse((at, _))) if at <= now => {
                        self.cursor = at;
                        self.promote();
                    }
                    _ => {
                        // The jump can pull overflow entries inside the
                        // horizon; promote them now so the wheel invariant
                        // holds for the next schedule/next_due call.
                        self.cursor = now + 1;
                        self.promote();
                        return None;
                    }
                }
                continue;
            }
            let bucket = (self.cursor % WHEEL_SLOTS) as usize;
            if let Some((at, token)) = self.wheel[bucket].pop() {
                debug_assert_eq!(at, self.cursor, "bucket holds one wake cycle");
                self.wheel_len -= 1;
                return Some((Cycle::new(at), token));
            }
            self.cursor += 1;
            self.promote();
        }
    }

    /// The earliest scheduled wake cycle, without popping. In the dense
    /// case the first bucket is non-empty and this is O(1); a long empty
    /// stretch costs one wheel scan right before a correspondingly long
    /// jump.
    pub fn next_due(&self) -> Option<Cycle> {
        let overflow_min = self.overflow.peek().map(|&Reverse((at, _))| at);
        if self.wheel_len > 0 {
            for d in 0..WHEEL_SLOTS {
                let bucket = ((self.cursor + d) % WHEEL_SLOTS) as usize;
                if let Some(&(at, _)) = self.wheel[bucket].first() {
                    // With the horizon invariant the wheel hit is always
                    // earliest, but take the min against the overflow
                    // peek so a future invariant slip can't reorder
                    // wakes silently.
                    return Some(Cycle::new(match overflow_min {
                        Some(o) => at.min(o),
                        None => at,
                    }));
                }
            }
        }
        overflow_min.map(Cycle::new)
    }

    /// Moves overflow entries that now fall inside the wheel horizon
    /// into their buckets.
    fn promote(&mut self) {
        while let Some(&Reverse((at, token))) = self.overflow.peek() {
            if at >= self.cursor + WHEEL_SLOTS {
                break;
            }
            self.overflow.pop();
            self.wheel[(at % WHEEL_SLOTS) as usize].push((at, token));
            self.wheel_len += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    #[test]
    fn pop_due_is_monotone_in_wake_time() {
        // Random schedule order; pops must come back sorted by wake
        // cycle, including entries that start in the overflow heap.
        let mut q = CalendarQueue::new(Cycle::ZERO);
        let mut rng = Rng64::new(7);
        let mut expect: Vec<u64> = (0..500).map(|_| rng.below(4 * WHEEL_SLOTS)).collect();
        for (i, &at) in expect.iter().enumerate() {
            q.schedule(Cycle::new(at), i as u32);
        }
        expect.sort_unstable();
        let mut got = Vec::new();
        let mut last = 0;
        while let Some((at, _)) = q.pop_due(Cycle::new(u64::MAX / 4)) {
            assert!(at.as_u64() >= last, "pops must be monotone");
            last = at.as_u64();
            got.push(at.as_u64());
        }
        assert_eq!(got, expect);
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn far_future_entries_promote_from_overflow() {
        let mut q = CalendarQueue::new(Cycle::ZERO);
        let far = WHEEL_SLOTS * 10 + 17;
        q.schedule(Cycle::new(far), 42);
        // Parked in the overflow heap, still visible to next_due.
        assert_eq!(q.next_due(), Some(Cycle::new(far)));
        // Not due before its time.
        assert_eq!(q.pop_due(Cycle::new(far - 1)), None);
        // Due exactly at its wake cycle, after promotion.
        assert_eq!(q.pop_due(Cycle::new(far)), Some((Cycle::new(far), 42)));
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn near_and_far_entries_interleave_correctly() {
        let mut q = CalendarQueue::new(Cycle::new(100));
        q.schedule(Cycle::new(105), 1);
        q.schedule(Cycle::new(100 + WHEEL_SLOTS + 3), 2);
        q.schedule(Cycle::new(102), 3);
        assert_eq!(q.next_due(), Some(Cycle::new(102)));
        assert_eq!(q.pop_due(Cycle::new(200)), Some((Cycle::new(102), 3)));
        assert_eq!(q.pop_due(Cycle::new(200)), Some((Cycle::new(105), 1)));
        // The far entry is beyond `now`; nothing else is due yet.
        assert_eq!(q.pop_due(Cycle::new(200)), None);
        let far = Cycle::new(100 + WHEEL_SLOTS + 3);
        assert_eq!(q.next_due(), Some(far));
        assert_eq!(q.pop_due(far), Some((far, 2)));
    }

    #[test]
    fn empty_pop_jump_promotes_overflow_into_horizon() {
        // Regression: pop_due's cursor jump over an empty window used to
        // skip promote(), leaving an overflow entry inside the wheel
        // horizon; a later wheel schedule then shadowed it in next_due()
        // and a caller could jump past a pending wake.
        let mut q = CalendarQueue::new(Cycle::ZERO);
        q.schedule(Cycle::new(300), 1); // beyond horizon: overflow heap
        assert_eq!(q.pop_due(Cycle::new(100)), None); // cursor hops to 101
        q.schedule(Cycle::new(350), 2); // inside horizon: wheel
        assert_eq!(q.next_due(), Some(Cycle::new(300)));
        assert_eq!(q.pop_due(Cycle::new(400)), Some((Cycle::new(300), 1)));
        assert_eq!(q.pop_due(Cycle::new(400)), Some((Cycle::new(350), 2)));
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn past_schedules_clamp_to_cursor() {
        let mut q = CalendarQueue::new(Cycle::new(50));
        q.schedule(Cycle::new(10), 7); // in the past: surfaces at cursor
        assert_eq!(q.pop_due(Cycle::new(50)), Some((Cycle::new(50), 7)));
    }
}
