//! SYNCOPTI (§4.2) and its stream-cache / Q64 variants.

use std::collections::VecDeque;

use hfs_check::Mutation;
use hfs_cpu::{StreamSubmit, StreamToken};
use hfs_isa::program::QueueMemLayout;
use hfs_isa::{Addr, QueueId};
use hfs_mem::{Completion, CtlPayload, MemEvent, MemOp, MemSystem, MemToken, Submit};
use hfs_sim::stats::StallComponent;
use hfs_sim::{fold_bound, Cycle, DenseMap};
use hfs_trace::TraceEvent;

use super::Shared;
use crate::addr_map::queue_of_addr;
use crate::design::DesignPoint;
use crate::ledger::{push_lines, push_outcome, LineLedger};
use crate::stream_cache::StreamCache;

/// Control-message kind: bulk consumption ACK (consumer -> producer).
const CTL_BULK_ACK: u16 = 1;

/// Cycles without a new produce on a queue before waiting consumes are
/// released to pull partially-filled lines through ordinary coherence
/// (the §4.2 flush for lines that stop filling: stream tails and
/// low-rate queues). While a line is actively filling, consumes wait for
/// its single bulk write-forward instead of stealing it item by item.
const IDLE_FLUSH: u64 = 30;

#[derive(Debug)]
struct SoQueue {
    layout: QueueMemLayout,
    /// Cycle of the most recent performed produce store on this queue.
    last_perform: Cycle,
    // Producer side.
    prod_next: u64,
    acked: u64,
    waiting_produces: VecDeque<MemToken>,
    // Consumer side.
    cons_next: u64,
    /// Which slots each line covers, and whether it was delivered.
    lines: LineLedger,
    /// Lines at their trigger edge, waiting for the producer's OzQ.
    queued: VecDeque<Addr>,
}

impl SoQueue {
    /// Whether the occupancy counter admits the oldest waiting produce:
    /// fewer than `depth` released produces are unacknowledged.
    fn admits(&self) -> bool {
        let released = self.prod_next - self.waiting_produces.len() as u64;
        released - self.acked < u64::from(self.layout.depth)
    }

    /// When the waiting consume of `slot` may go, for `process` and
    /// `next_event` alike: never before the slot's own store performed.
    fn release(&self, slot: u64) -> Option<Release> {
        match (self.lines.released(slot), self.lines.performed(slot)) {
            (true, _) => Some(Release::Now),
            (false, true) => Some(Release::Flush(self.last_perform + IDLE_FLUSH + 1)),
            (false, false) => None,
        }
    }
}

/// Now (every line up to the slot's is resolved: a local hit, or a pull
/// of a dropped line), or at the idle-flush deadline, before the forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Release {
    Now,
    Flush(Cycle),
}

#[derive(Debug)]
struct WaitingConsume {
    q: QueueId,
    slot: u64,
    mem_token: MemToken,
    stream_token: StreamToken,
    /// How the gated load went, once released.
    released: Option<Release>,
}

/// Backend for SYNCOPTI and its optimized variants.
#[derive(Debug)]
pub(super) struct SyncOptiBackend {
    queues: Vec<QueueId>,
    state: DenseMap<SoQueue>,
    waiting_consumes: VecDeque<WaitingConsume>,
    pending_acks: Vec<(QueueId, u64)>,
    pub(super) sc: Option<StreamCache>,
}

impl SyncOptiBackend {
    pub(super) fn new(design: &DesignPoint, stream_cache: bool, queues: &[QueueId]) -> Self {
        let mut state = DenseMap::new();
        for &q in queues {
            let layout = design
                .queue_mem_info(q)
                .expect("SYNCOPTI uses memory backing");
            state.insert(
                q.index(),
                SoQueue {
                    layout,
                    last_perform: Cycle::ZERO,
                    prod_next: 0,
                    acked: 0,
                    waiting_produces: VecDeque::new(),
                    cons_next: 0,
                    lines: LineLedger::new(&layout),
                    queued: VecDeque::new(),
                },
            );
        }
        SyncOptiBackend {
            sc: stream_cache.then(StreamCache::paper_1kb),
            queues: queues.to_vec(),
            state,
            waiting_consumes: VecDeque::new(),
            pending_acks: Vec::new(),
        }
    }

    pub(super) fn quiescent(&self) -> bool {
        self.waiting_consumes.is_empty()
            && self.pending_acks.is_empty()
            && self
                .state
                .values()
                .all(|s| s.waiting_produces.is_empty() && s.queued.is_empty())
    }

    pub(super) fn try_produce(
        &mut self,
        sh: &mut Shared,
        mem: &mut MemSystem,
        q: QueueId,
        value: u64,
        now: Cycle,
    ) -> StreamSubmit {
        let s = self.state.get_mut(q.index()).expect("queue planned");
        // Stream address generation (renaming) assigns the next slot; its
        // 2-cycle latency is overlapped with the L1 access (§4.2).
        let addr = s.layout.slot_addr(s.prod_next);
        // The gated store sits dormant in its OzQ slot until the
        // occupancy counter admits it; a full OzQ back-pressures the
        // pipeline (PreL2).
        match mem.submit(sh.producer, MemOp::store(addr, value).gated(), now) {
            Submit::Accepted(tok) => {
                let seq = s.prod_next;
                s.prod_next += 1;
                s.waiting_produces.push_back(tok);
                sh.produced(q, seq, value, s.prod_next - s.acked, now);
                StreamSubmit::Done {
                    at: now + 1,
                    value: None,
                }
            }
            Submit::Rejected(_) => StreamSubmit::Blocked,
            Submit::L1Hit { .. } => unreachable!("gated ops bypass the L1"),
        }
    }

    pub(super) fn try_consume(
        &mut self,
        sh: &mut Shared,
        mem: &mut MemSystem,
        q: QueueId,
        now: Cycle,
    ) -> StreamSubmit {
        let core = sh.consumer;
        let s = self.state.get_mut(q.index()).expect("queue planned");
        let slot = s.cons_next;
        let addr = s.layout.slot_addr(slot);
        // Stream-cache hit: 1-cycle consume-to-use. The consume still
        // sends a background shadow access to the L2 so the occupancy
        // counters are updated (§5). On a miss that access is the consume:
        // a gated load, released once the consumer-side counter shows
        // forwarded data (or by timeout).
        let hit = self.sc.as_mut().and_then(|sc| sc.take(q, slot));
        let submitted = mem.submit(core, MemOp::load(addr).gated().background(), now);
        if let Some(v) = hit {
            s.cons_next += 1;
            if let Submit::Accepted(tok) = submitted {
                mem.release(tok, now);
            }
            sh.tracer.emit(|| TraceEvent::ScHit {
                queue: q,
                at: now.as_u64(),
            });
            sh.consumed(q, slot, v, now + 1, None);
            // The shadow access keeps the L2 occupancy counters
            // updated (§5), so line-completing consumes still emit
            // their bulk ACK to the producer.
            let done = slot + 1;
            if done.is_multiple_of(u64::from(s.layout.qlu)) {
                self.pending_acks.push((q, done));
            }
            return StreamSubmit::Done {
                at: now + 1,
                value: Some(v),
            };
        }
        match submitted {
            Submit::Accepted(tok) => {
                if let Some(sc) = self.sc.as_mut() {
                    sc.count_miss();
                }
                s.cons_next += 1;
                let stok = sh.mint();
                self.waiting_consumes.push_back(WaitingConsume {
                    q,
                    slot,
                    mem_token: tok,
                    stream_token: stok,
                    released: None,
                });
                sh.tracer.emit(|| TraceEvent::SyncWait {
                    core,
                    queue: q,
                    at: now.as_u64(),
                });
                StreamSubmit::Pending(stok)
            }
            Submit::Rejected(_) => StreamSubmit::Blocked,
            Submit::L1Hit { .. } => unreachable!("gated ops bypass the L1"),
        }
    }

    pub(super) fn location(&self, mem: &MemSystem, token: StreamToken) -> StallComponent {
        let waiting = &self.waiting_consumes;
        match waiting.iter().find(|w| w.stream_token == token) {
            Some(w) => mem
                .location(w.mem_token)
                .map_or(StallComponent::PostL2, |l| l.component()),
            None => StallComponent::PreL2,
        }
    }

    pub(super) fn on_mem_completion(&mut self, sh: &mut Shared, c: Completion) {
        if let Some(pos) = self
            .waiting_consumes
            .iter()
            .position(|w| w.mem_token == c.token)
        {
            let w = self.waiting_consumes.remove(pos).expect("position valid");
            let value = c.value.expect("consume completions carry values");
            sh.consumed(w.q, w.slot, value, c.at, Some(w.stream_token));
            let s = self.state.get(w.q.index()).expect("queue planned");
            let done = w.slot + 1;
            // Bulk ACK when the last item of a line is consumed; timeout
            // path ACKs eagerly to keep the tail moving.
            if done.is_multiple_of(u64::from(s.layout.qlu)) || w.released != Some(Release::Now) {
                self.pending_acks.push((w.q, done));
            }
        }
    }

    pub(super) fn process(
        &mut self,
        sh: &mut Shared,
        mem: &mut MemSystem,
        events: &[MemEvent],
        now: Cycle,
    ) {
        // 1. Memory events: performed produces, push outcomes, ACKs.
        for ev in events {
            if let Some((to, line_addr, delivered)) = push_outcome(ev) {
                let Some((q, _)) =
                    queue_of_addr(line_addr, &self.queues).filter(|_| to == sh.consumer)
                else {
                    continue;
                };
                let s = self.state.get_mut(q.index()).expect("queue planned");
                let slots = s.lines.resolve(line_addr, delivered, s.cons_next);
                if let Some(sc) = self.sc.as_mut() {
                    // Reverse-map the line to queue addresses and fill the
                    // stream cache with the items it carries.
                    let consumed = (s.cons_next > 0 && !slots.is_empty())
                        .then(|| s.cons_next - 1)
                        .filter(|_| sh.checker.fire_once(Mutation::FillConsumedSlot));
                    for slot in consumed.into_iter().chain(slots) {
                        let mut v = mem.func_mem().read(s.layout.slot_addr(slot));
                        if sh.checker.fire_once(Mutation::CorruptForwardValue) {
                            v ^= 1;
                        }
                        let _ = sc.fill(q, slot, v);
                        sh.tracer.emit(|| TraceEvent::ScFill {
                            queue: q,
                            at: now.as_u64(),
                        });
                    }
                }
                continue;
            }
            match *ev {
                MemEvent::StorePerformed { core, addr, .. } if core == sh.producer => {
                    let Some((q, _)) = queue_of_addr(addr, &self.queues) else {
                        continue;
                    };
                    let s = self.state.get_mut(q.index()).expect("queue planned");
                    s.last_perform = now;
                    s.queued.extend(s.lines.on_store(addr));
                }
                MemEvent::CtlDelivered { to, payload, .. }
                    if to == sh.producer && payload.kind == CTL_BULK_ACK =>
                {
                    let q = QueueId(payload.a as u16);
                    if let Some(s) = self.state.get_mut(q.index()) {
                        s.acked = s.acked.max(payload.b);
                    }
                }
                _ => {}
            }
        }

        // 2. Send pending ACKs over the shared bus.
        for (q, watermark) in self.pending_acks.drain(..) {
            mem.send_ctl(
                sh.consumer,
                sh.producer,
                CtlPayload {
                    kind: CTL_BULK_ACK,
                    a: u32::from(q.0),
                    b: watermark,
                },
            );
        }

        // 3. Release produces admitted by the occupancy counter.
        for q in &self.queues {
            let s = self.state.get_mut(q.index()).expect("queue planned");
            while s.admits() {
                let Some(tok) = s.waiting_produces.pop_front() else {
                    break;
                };
                mem.release(tok, now);
            }
        }

        // 4. Release the consumes `SoQueue::release` lets go.
        let waiting = self.waiting_consumes.iter_mut();
        for w in waiting.filter(|w| w.released.is_none()) {
            let s = self.state.get(w.q.index()).expect("queue planned");
            let how = match s.release(w.slot) {
                Some(Release::Flush(at)) if at > now => continue,
                Some(how) => how,
                None if sh.checker.fire_once(Mutation::ReleaseBeforeStore) => Release::Flush(now),
                None => continue,
            };
            sh.checker
                .on_consume_released(now, w.q, w.slot, s.layout.slot_addr(w.slot).as_u64());
            w.released = Some(how);
            mem.release(w.mem_token, now);
        }

        // 5. Issue queued line forwards.
        for q in &self.queues {
            let s = self.state.get_mut(q.index()).expect("queue planned");
            push_lines(&mut s.queued, mem, sh.producer, sh.consumer, now);
        }

        // 6. Stream-cache inclusion audit: every entry must lie at or
        // above the consumer's issue position (so a consume can take it),
        // cover a delivered line and match memory.
        if sh.checker.is_enabled() {
            if let Some(sc) = &self.sc {
                let mut entries: Vec<_> = sc.entries().collect();
                entries.sort_unstable_by_key(|&(q, slot, _)| (q.0, slot));
                for (q, slot, v) in entries {
                    let s = self.state.get(q.index()).expect("queue planned");
                    let expected = mem.func_mem().read(s.layout.slot_addr(slot));
                    let delivered = s.lines.delivered(slot);
                    let pos = (slot, s.cons_next);
                    sh.checker
                        .stream_cache_entry(now, q, pos, v, expected, delivered);
                }
            }
        }
    }

    /// See [`super::Backend::next_event`]. Releasable gated operations and
    /// queued forwards retry every cycle (`now + 1`); a waiting consume
    /// fires when `SoQueue::release` lets it go.
    pub(super) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut best = None;
        if !self.pending_acks.is_empty() {
            fold_bound(&mut best, now, now.next());
        }
        for s in self.state.values() {
            if !s.queued.is_empty() || !s.waiting_produces.is_empty() && s.admits() {
                fold_bound(&mut best, now, now.next());
            }
        }
        let waiting = self.waiting_consumes.iter();
        for w in waiting.filter(|w| w.released.is_none()) {
            let s = self.state.get(w.q.index()).expect("queue planned");
            match s.release(w.slot) {
                Some(Release::Now) => fold_bound(&mut best, now, now.next()),
                Some(Release::Flush(at)) => fold_bound(&mut best, now, at),
                None => {}
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::software::SoftwareBackend;
    use crate::backend::{Backend, Mech};
    use hfs_cpu::StreamPort;
    use hfs_isa::CoreId;
    use hfs_mem::MemConfig;

    fn mem() -> MemSystem {
        MemSystem::new(MemConfig::itanium2_cmp()).unwrap()
    }

    fn syncopti() -> Backend {
        Backend::new(
            &DesignPoint::syncopti(),
            &[QueueId(0)],
            CoreId(0),
            CoreId(1),
        )
        .unwrap()
    }

    #[test]
    fn syncopti_assigns_consecutive_stream_addresses() {
        let mut b = syncopti();
        let mut m = mem();
        let now = Cycle::new(0);
        for i in 0..3 {
            match b.try_produce(&mut m, CoreId(0), QueueId(0), i, now) {
                StreamSubmit::Done { .. } => {}
                other => panic!("produce {i}: {other:?}"),
            }
        }
        let Mech::SyncOpti(b) = b.mech else {
            unreachable!()
        };
        let s = b.state.get(0).expect("queue planned");
        assert_eq!(s.prod_next, 3);
        assert_eq!(s.waiting_produces.len(), 3);
        // Slot addresses stride by line/QLU = 16 bytes.
        assert_eq!(
            s.layout.slot_addr(1).as_u64() - s.layout.slot_addr(0).as_u64(),
            16
        );
    }

    /// A waiting consume is wherever the memory system has its gated
    /// load, read when asked: released with no `process` call since, the
    /// load has left its dormant OzQ slot for the L2 port.
    #[test]
    fn a_waiting_consume_is_where_its_gated_load_is() {
        let mut b = syncopti();
        let mut m = mem();
        let StreamSubmit::Pending(tok) = b.try_consume(&mut m, CoreId(1), QueueId(0), Cycle::ZERO)
        else {
            panic!("nothing was produced, so the consume waits");
        };
        let Mech::SyncOpti(so) = &b.mech else {
            unreachable!()
        };
        let gated = so.waiting_consumes[0].mem_token;
        assert_eq!(b.location(&m, tok), StallComponent::PreL2);
        m.release(gated, Cycle::new(1));
        let live = m.location(gated).expect("in flight").component();
        assert_eq!(live, StallComponent::L2);
        assert_eq!(b.location(&m, tok), live);
    }

    /// Every memory-backed design's one layout, over two wraps: the
    /// addresses the sequencer generates for a slot (software queues) or
    /// the backend renames a produce to (SYNCOPTI) map back to that slot,
    /// datum and flag share the line the ledger counts, and that line
    /// reaches its trigger edge after exactly QLU slots.
    #[test]
    fn sequencer_and_backends_agree_on_every_slot() {
        use crate::kernel::KernelPair;
        use crate::lower::{lower, Role};
        let pair = KernelPair::simple("t", 1, 10);
        let q = QueueId(0);
        let designs = [1, 2, 4, 8]
            .into_iter()
            .flat_map(|qlu| {
                [
                    DesignPoint::existing_with_qlu(qlu),
                    DesignPoint::memopti_with_qlu(qlu),
                ]
            })
            .chain([
                DesignPoint::syncopti(),
                DesignPoint::syncopti_q64(),
                DesignPoint::syncopti_sc_q64(),
            ]);
        for design in designs {
            let layout = match Backend::new(&design, &[q], CoreId(0), CoreId(1))
                .unwrap()
                .mech
            {
                Mech::Software(b) => b.layout,
                Mech::SyncOpti(b) => b.state.get(q.index()).unwrap().layout,
                Mech::HeavyWt(_) => unreachable!("{design} has a memory layout"),
            };
            // The sequencer addresses a queue exactly where flags live in
            // memory, and then through this layout.
            let lowered = lower(&pair, &design, Role::Producer).unwrap();
            let plan = lowered.program.queue_plan(q).unwrap().layout;
            assert_eq!(plan, layout.flag_offset.map(|_| layout), "{design}");
            let sw = SoftwareBackend::new(&design, &[q]);
            let mut ledger = LineLedger::new(&layout);
            let qlu = u64::from(layout.qlu);
            for seq in 0..2 * u64::from(layout.depth) {
                let slot = (seq % u64::from(layout.depth)) as u32;
                let datum = layout.data_addr(slot);
                assert_eq!(layout.slot_addr(seq), datum, "{design}");
                let mut words = vec![(datum, false)];
                if layout.flag_offset.is_some() {
                    words.push((layout.flag_addr(slot), true));
                }
                for (addr, is_flag) in words {
                    assert_eq!(
                        sw.classify(addr),
                        Some((q, u64::from(slot), is_flag)),
                        "{design}"
                    );
                    assert_eq!(layout.line_of(addr), layout.line_of(datum), "{design}");
                }
                let edge = ledger.on_store(datum);
                // Each line holds exactly QLU slots: the QLU-th store on
                // a line completes it.
                let line_of_first = layout.line_of(layout.slot_addr(seq - seq % qlu));
                assert_eq!(layout.line_of(datum), line_of_first, "{design}");
                if (seq + 1) % qlu == 0 {
                    assert_eq!(edge, Some(line_of_first), "{design}");
                    let next = layout.line_of(layout.slot_addr(seq + 1));
                    assert_ne!(next, line_of_first, "{design}");
                    // The push lands: the line is delivered, and the
                    // next one ring later may start.
                    assert_eq!(
                        ledger.resolve(line_of_first, true, 0),
                        seq + 1 - qlu..seq + 1
                    );
                    assert!(
                        ledger.released(seq) && !ledger.released(seq + 1),
                        "{design}"
                    );
                } else {
                    assert_eq!(edge, None, "{design}");
                }
            }
        }
    }
}
