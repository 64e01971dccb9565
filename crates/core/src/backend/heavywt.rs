//! HEAVYWT (§4.1): the synchronization array and its dedicated
//! pipelined interconnect.

use std::collections::VecDeque;

use hfs_check::Mutation;
use hfs_cpu::{StreamSubmit, StreamToken};
use hfs_isa::QueueId;
use hfs_sim::{fold_bound, Cycle, DenseMap};
use hfs_trace::TraceEvent;

use super::Shared;
use crate::design::HeavyWtConfig;
use crate::sync_array::SyncArray;

/// Backend for the synchronization-array design.
#[derive(Debug)]
pub(super) struct HeavyWtBackend {
    sa: SyncArray,
    waiting: DenseMap<VecDeque<StreamToken>>,
    /// Per-queue produced count (producer-side occupancy numerator).
    injected: DenseMap<u64>,
    /// Per-queue consumption ACKs received back at the producer.
    acked: DenseMap<u64>,
    /// ACKs in flight on the dedicated interconnect (one per consume,
    /// arriving `transit` cycles later): the §4.4 synchronization
    /// acknowledgment delay that makes full queues transit-sensitive.
    acks_in_flight: hfs_sim::TimedQueue<QueueId>,
    cfg: HeavyWtConfig,
    /// Per-cycle scratch for the sorted wake order, reused so the hot
    /// loop allocates nothing in steady state
    /// (`tests/cost.rs::a_run_allocates_the_same_at_any_length`).
    wake_scratch: Vec<QueueId>,
}

impl HeavyWtBackend {
    pub(super) fn new(cfg: HeavyWtConfig) -> Result<Self, hfs_sim::ConfigError> {
        Ok(HeavyWtBackend {
            sa: SyncArray::new(cfg)?,
            waiting: DenseMap::new(),
            injected: DenseMap::new(),
            acked: DenseMap::new(),
            acks_in_flight: hfs_sim::TimedQueue::new(),
            cfg,
            wake_scratch: Vec::new(),
        })
    }

    pub(super) fn quiescent(&self) -> bool {
        self.sa.is_empty() && self.waiting.values().all(VecDeque::is_empty)
    }

    /// Whether the occupancy counter admits a produce on `q`: produced
    /// minus ACKed consumptions is below the queue depth.
    fn admits(&self, q: QueueId) -> bool {
        self.occupancy(q) < u64::from(self.cfg.queue_depth)
    }

    /// Producer-side occupancy of `q`: produced minus ACKed consumptions.
    fn occupancy(&self, q: QueueId) -> u64 {
        let count = |t: &DenseMap<u64>| t.get(q.index()).copied().unwrap_or(0);
        count(&self.injected) - count(&self.acked)
    }

    /// The consume of `q`'s next slot takes `v` at `now`, completing
    /// `pending`; its ACK starts back to the producer.
    fn consume(
        &mut self,
        sh: &mut Shared,
        q: QueueId,
        v: u64,
        now: Cycle,
        pending: Option<StreamToken>,
    ) -> Cycle {
        let slot = sh.check.consumed(q);
        let at = now + self.cfg.sa_latency;
        self.acks_in_flight.push(now + self.cfg.transit, q);
        sh.consumed(q, slot, v, at, pending);
        at
    }

    pub(super) fn process(&mut self, sh: &mut Shared, now: Cycle) {
        while let Some(q) = self.acks_in_flight.pop_ready(now) {
            *self.acked.or_default(q.index()) += 1;
        }
        if self.sa.in_network() > 0 && sh.checker.fire_once(Mutation::SyncArrayLoseItem) {
            let _ = self.sa.lose_one_in_network();
        }
        self.sa.begin_cycle();
        // Wake consumes that were waiting for data, in FIFO order per
        // queue, while array ports remain. Queue order must be fixed:
        // ports are contended, so a map-iteration order here would leak
        // into cycle counts and break run-to-run determinism.
        let mut queues = std::mem::take(&mut self.wake_scratch);
        queues.clear();
        // Ascending queue id: the table iterates in key order.
        queues.extend(
            self.waiting
                .iter()
                .filter(|(_, w)| !w.is_empty())
                .map(|(q, _)| QueueId(q as u16)),
        );
        let drop_wakes = !queues.is_empty()
            && queues.iter().any(|&q| self.sa.occupancy(q) > 0)
            && sh.checker.fire_once(Mutation::DropConsumerWake);
        if !drop_wakes {
            for &q in &queues {
                while let Some(&tok) = self.waiting.get(q.index()).and_then(VecDeque::front) {
                    let Some(v) = self.sa.try_consume(q) else {
                        break;
                    };
                    self.waiting
                        .get_mut(q.index())
                        .expect("queue known")
                        .pop_front();
                    self.consume(sh, q, v, now, Some(tok));
                }
            }
        }
        self.wake_scratch = queues;
        if sh.checker.is_enabled() {
            sh.checker.sync_array_audit(
                now,
                self.sa.injected(),
                self.sa.delivered(),
                self.sa.in_network() as u64,
            );
            let depth = self.cfg.queue_depth as usize;
            for (q, _) in self.injected.iter() {
                let q = QueueId(q as u16);
                sh.checker
                    .sync_array_queue(now, q, self.sa.occupancy(q), depth);
            }
            // Wake liveness: a consumer still parked after the wake pass
            // while its ring has data and ports remain means the pass
            // skipped it.
            for &q in &self.wake_scratch {
                if self.waiting.get(q.index()).is_some_and(|w| !w.is_empty()) {
                    sh.checker.sync_array_wake(
                        now,
                        q,
                        self.sa.occupancy(q),
                        u64::from(self.sa.budget_left()),
                    );
                }
            }
        }
    }

    pub(super) fn try_produce(
        &mut self,
        sh: &mut Shared,
        q: QueueId,
        value: u64,
        now: Cycle,
    ) -> StreamSubmit {
        // Occupancy counter check (queue-full): produced minus ACKed
        // consumptions. ACKs take a transit delay back, so a longer
        // interconnect shrinks the usable queue for codes that keep it
        // full (§4.4's bzip2 effect; a deeper queue restores the slack).
        if !self.admits(q) || !self.sa.try_inject(q, value) {
            return StreamSubmit::Blocked;
        }
        let depth = self.occupancy(q) + 1;
        let injected = self.injected.or_default(q.index());
        let seq = *injected;
        *injected += 1;
        sh.produced(q, seq, value, depth, now);
        StreamSubmit::Done {
            at: now + 1,
            value: None,
        }
    }

    pub(super) fn try_consume(&mut self, sh: &mut Shared, q: QueueId, now: Cycle) -> StreamSubmit {
        let no_earlier_waiter = self.waiting.get(q.index()).is_none_or(VecDeque::is_empty);
        if no_earlier_waiter {
            if let Some(v) = self.sa.try_consume(q) {
                // Consume-to-use = the backing store's access latency:
                // 1 cycle for the distributed store (the §4.4 HEAVYWT
                // advantage), more for a centralized one (§3.5.2).
                let at = self.consume(sh, q, v, now, None);
                return StreamSubmit::Done { at, value: Some(v) };
            }
        }
        let tok = sh.mint();
        self.waiting.or_default(q.index()).push_back(tok);
        let core = sh.consumer;
        sh.tracer.emit(|| TraceEvent::SyncWait {
            core,
            queue: q,
            at: now.as_u64(),
        });
        StreamSubmit::Pending(tok)
    }

    /// See [`super::Backend::next_event`]. In-flight ACKs wake at their
    /// arrival stamp; anything moving through the network or a
    /// serviceable waiting consume needs the very next cycle.
    pub(super) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut best = None;
        if let Some(t) = self.acks_in_flight.next_ready() {
            fold_bound(&mut best, now, t);
        }
        if self.sa.in_network() > 0 {
            fold_bound(&mut best, now, now.next());
        }
        for (q, w) in self.waiting.iter() {
            if !w.is_empty() && self.sa.occupancy(QueueId(q as u16)) > 0 {
                fold_bound(&mut best, now, now.next());
            }
        }
        best
    }
}
