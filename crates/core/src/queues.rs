//! End-to-end queue semantics verification.
//!
//! Every produce payload is the queue's running sequence number, so a
//! correct machine must observe consumes in exactly produced order. The
//! backends feed their observations into a [`QueueCheck`], and the machine
//! fails the run if FIFO order or conservation is violated — a built-in
//! self-check of the whole timing/functional stack.

use hfs_isa::QueueId;
use hfs_sim::DenseMap;

/// Observes produce/consume values and verifies FIFO semantics.
#[derive(Debug, Default, Clone)]
pub struct QueueCheck {
    produced: DenseMap<u64>,
    consumed: DenseMap<u64>,
    errors: Vec<String>,
}

impl QueueCheck {
    /// Creates an empty checker.
    pub fn new() -> Self {
        QueueCheck::default()
    }

    /// Records a produce of `value` on `q`; values must count up from 0.
    pub fn on_produce(&mut self, q: QueueId, value: u64) {
        let n = self.produced.or_default(q.index());
        if value != *n {
            self.errors
                .push(format!("{q}: produce #{n} carried value {value}"));
        }
        *n += 1;
    }

    /// Records a produce observed at a queue *slot* rather than in issue
    /// order: software-queue data stores may perform out of program order
    /// across lines (the release flag store provides the ordering), so
    /// only slot consistency can be checked: `value mod depth == slot`.
    pub fn on_produce_slot(&mut self, q: QueueId, slot: u64, value: u64, depth: u64) {
        if value % depth != slot {
            self.errors.push(format!(
                "{q}: slot {slot} received value {value} (depth {depth})"
            ));
        }
        *self.produced.or_default(q.index()) += 1;
    }

    /// Records a consume on `q`: the consume for `slot` returned `value`.
    /// The value must equal the slot's sequence number (each produce
    /// writes its sequence number). Completions may arrive out of slot
    /// order (L2 bank latencies differ across lines); the core's in-order
    /// commit restores architectural order, so correctness is per-slot.
    pub fn on_consume(&mut self, q: QueueId, slot: u64, value: u64) {
        if value != slot {
            self.errors.push(format!(
                "{q}: consume of slot {slot} returned value {value}"
            ));
        }
        *self.consumed.or_default(q.index()) += 1;
    }

    /// Produces observed on `q`.
    pub fn produced(&self, q: QueueId) -> u64 {
        self.produced.get(q.index()).copied().unwrap_or(0)
    }

    /// Consumes observed on `q`.
    pub fn consumed(&self, q: QueueId) -> u64 {
        self.consumed.get(q.index()).copied().unwrap_or(0)
    }

    /// FIFO violations recorded so far (truncated reporting is the
    /// caller's concern).
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Checks conservation at end of run: everything produced was
    /// consumed, with no ordering errors.
    ///
    /// # Errors
    ///
    /// Returns the first few violation descriptions.
    pub fn finish(&self) -> Result<(), String> {
        if !self.errors.is_empty() {
            return Err(self.errors[..self.errors.len().min(5)].join("; "));
        }
        for (q, p) in self.produced.iter() {
            let q = QueueId(q as u16);
            let c = self.consumed(q);
            if *p != c {
                return Err(format!("{q}: {p} produced but {c} consumed"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_traffic_passes() {
        let mut c = QueueCheck::new();
        for i in 0..10 {
            c.on_produce(QueueId(0), i);
        }
        for i in 0..10 {
            c.on_consume(QueueId(0), i, i);
        }
        assert!(c.finish().is_ok());
        assert_eq!(c.produced(QueueId(0)), 10);
        assert_eq!(c.consumed(QueueId(0)), 10);
    }

    #[test]
    fn out_of_order_consume_is_reported() {
        let mut c = QueueCheck::new();
        c.on_produce(QueueId(0), 0);
        c.on_produce(QueueId(0), 1);
        c.on_consume(QueueId(0), 0, 1); // slot 0 saw value 1
        assert!(!c.errors().is_empty());
        assert!(c.finish().is_err());
    }

    #[test]
    fn unbalanced_counts_fail_finish() {
        let mut c = QueueCheck::new();
        c.on_produce(QueueId(3), 0);
        assert!(c.finish().is_err());
    }

    #[test]
    fn independent_queues_tracked_separately() {
        let mut c = QueueCheck::new();
        c.on_produce(QueueId(0), 0);
        c.on_produce(QueueId(1), 0);
        c.on_consume(QueueId(1), 0, 0);
        c.on_consume(QueueId(0), 0, 0);
        assert!(c.finish().is_ok());
    }
}
