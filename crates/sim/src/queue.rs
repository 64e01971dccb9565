//! Latency-stamped message channels.
//!
//! Hardware components in the simulator never call each other directly;
//! they exchange messages through [`TimedQueue`]s (arbitrary per-message
//! delivery times), which preserve FIFO order among messages that become
//! ready on the same cycle, keeping the simulation deterministic.

use std::collections::VecDeque;

use crate::Cycle;

/// A FIFO of messages, each carrying the cycle at which it becomes visible
/// to the receiver.
///
/// Messages must be pushed with monotonically non-decreasing ready times
/// relative to the *front* of the queue only in the sense that a message
/// can never be popped before an earlier-pushed message: `TimedQueue` is a
/// strict FIFO whose head is additionally gated by its ready stamp. This
/// models an ordered channel (a wire or queue) with per-message latency.
///
/// # Example
///
/// ```
/// use hfs_sim::{Cycle, TimedQueue};
///
/// let mut q = TimedQueue::new();
/// q.push(Cycle::new(5), 'a');
/// q.push(Cycle::new(3), 'b'); // behind 'a' despite earlier stamp
/// assert_eq!(q.pop_ready(Cycle::new(4)), None);
/// assert_eq!(q.pop_ready(Cycle::new(5)), Some('a'));
/// assert_eq!(q.pop_ready(Cycle::new(5)), Some('b'));
/// ```
#[derive(Debug, Clone)]
pub struct TimedQueue<T> {
    /// The head message's ready stamp, [`NEVER`] when the queue is empty:
    /// a poll that finds nothing due reads only this, not the buffer.
    head: Cycle,
    entries: VecDeque<(Cycle, T)>,
}

/// The head stamp of an empty queue.
const NEVER: Cycle = Cycle::new(u64::MAX);

impl<T> TimedQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        TimedQueue {
            head: NEVER,
            entries: VecDeque::new(),
        }
    }

    /// Enqueues `value`, to become visible at `ready`.
    pub fn push(&mut self, ready: Cycle, value: T) {
        if self.entries.is_empty() {
            self.head = ready;
        }
        self.entries.push_back((ready, value));
    }

    /// Pops the head if its ready stamp is at or before `now`.
    #[inline]
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.head > now {
            return None;
        }
        let (_, value) = self.entries.pop_front()?;
        self.head = self.entries.front().map_or(NEVER, |(ready, _)| *ready);
        Some(value)
    }

    /// The ready stamp of the head message, if any.
    ///
    /// Because the queue is a strict FIFO gated only by its head stamp,
    /// this is the *exact* earliest cycle at which the next pop can
    /// succeed — the building block for event-driven fast-forwarding.
    #[inline]
    pub fn next_ready(&self) -> Option<Cycle> {
        (!self.entries.is_empty()).then_some(self.head)
    }

    /// Number of messages in flight (ready or not).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no messages are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all in-flight messages in FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl<T> Default for TimedQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_queue_fifo_gated_by_ready() {
        let mut q = TimedQueue::new();
        q.push(Cycle::new(10), "x");
        q.push(Cycle::new(2), "y");
        assert_eq!(q.len(), 2);
        assert!(q.pop_ready(Cycle::new(9)).is_none());
        assert_eq!(q.pop_ready(Cycle::new(10)), Some("x"));
        // "y" was stamped earlier but is strictly behind "x".
        assert_eq!(q.pop_ready(Cycle::new(10)), Some("y"));
        assert!(q.is_empty());
    }

    #[test]
    fn next_ready_reports_head_stamp() {
        let mut q = TimedQueue::new();
        assert_eq!(q.next_ready(), None);
        q.push(Cycle::new(10), "x");
        q.push(Cycle::new(2), "y");
        // The head gates the whole queue, even when a later message has
        // an earlier stamp.
        assert_eq!(q.next_ready(), Some(Cycle::new(10)));
        q.pop_ready(Cycle::new(10));
        assert_eq!(q.next_ready(), Some(Cycle::new(2)));
    }

    #[test]
    fn iter_visits_in_fifo_order() {
        let mut q = TimedQueue::new();
        q.push(Cycle::new(1), 'a');
        q.push(Cycle::new(2), 'b');
        let seen: Vec<_> = q.iter().copied().collect();
        assert_eq!(seen, vec!['a', 'b']);
    }

    /// A seeded script of pushes with arbitrary stamps, pops and peeks,
    /// checked step by step against a plain `VecDeque` of stamped values.
    #[test]
    fn matches_a_plain_deque_and_keeps_the_head_stamp() {
        for seed in 0..8 {
            let mut rng = crate::Rng64::new(0x71de + seed);
            let mut q = TimedQueue::new();
            let mut model: VecDeque<(Cycle, u64)> = VecDeque::new();
            let mut now = Cycle::ZERO;
            for step in 0..4_000u64 {
                match rng.below(4) {
                    0 | 1 => {
                        let ready = now + rng.below(20);
                        q.push(ready, step);
                        model.push_back((ready, step));
                    }
                    2 => {
                        let expected = match model.front() {
                            Some(&(ready, v)) if ready <= now => {
                                model.pop_front();
                                Some(v)
                            }
                            _ => None,
                        };
                        assert_eq!(q.pop_ready(now), expected, "seed {seed} step {step}");
                    }
                    _ => now += rng.below(6),
                }
                let front = model.front().map(|&(ready, _)| ready);
                assert_eq!(q.next_ready(), front, "seed {seed} step {step}");
                if let Some(ready) = front {
                    assert_eq!(q.head, ready, "seed {seed} step {step}");
                }
                assert_eq!(q.len(), model.len());
                assert!(q.iter().eq(model.iter().map(|(_, v)| v)));
            }
        }
    }
}
