//! Design-point backends: the streaming hardware behind the cores.
//!
//! * [`SoftwareBackend`] — EXISTING/MEMOPTI: communication is ordinary
//!   loads/stores; the backend only implements MEMOPTI's write-forward
//!   trigger (push a queue line once all its slots' flags are set).
//! * [`SyncOptiBackend`] — §4.2: stream address generation, distributed
//!   occupancy counters, dormant OzQ waiting, line forwarding, bulk ACKs
//!   on the shared bus, the consume timeout flush, and optionally the
//!   1 KB stream cache.
//! * [`HeavyWtBackend`] — §4.1: the synchronization array and its
//!   dedicated pipelined interconnect.

use std::collections::VecDeque;

use hfs_check::{Checker, Mutation};
use hfs_cpu::{StreamCompletion, StreamPort, StreamSubmit, StreamToken};
use hfs_isa::program::QueueMemLayout;
use hfs_isa::{Addr, CoreId, QueueId};
use hfs_mem::{Completion, CtlPayload, MemEvent, MemOp, MemSystem, MemToken, Submit};
use hfs_sim::stats::StallComponent;
use hfs_sim::{fold_bound, Cycle, DenseMap};
use hfs_trace::{TraceEvent, Tracer};

use crate::addr_map::queue_of_addr;
use crate::design::{DesignPoint, HeavyWtConfig, Mechanism};
use crate::ledger::{push_lines, push_outcome, LineLedger};
use crate::queues::QueueCheck;
use crate::stream_cache::StreamCache;
use crate::sync_array::{SyncArray, SyncArrayConfig};

/// Control-message kind: bulk consumption ACK (consumer -> producer).
const CTL_BULK_ACK: u16 = 1;

/// The design-point dispatch enum owned by the machine.
#[derive(Debug)]
pub(crate) enum Backend {
    /// EXISTING / MEMOPTI.
    Software(SoftwareBackend),
    /// SYNCOPTI and its SC / Q64 variants.
    SyncOpti(SyncOptiBackend),
    /// HEAVYWT.
    HeavyWt(HeavyWtBackend),
}

impl Backend {
    pub(crate) fn new(
        design: &DesignPoint,
        queues: &[QueueId],
        producer: CoreId,
        consumer: CoreId,
    ) -> Result<Self, hfs_sim::ConfigError> {
        design.validate()?;
        Ok(match design.mechanism() {
            Mechanism::Software(_) => {
                Backend::Software(SoftwareBackend::new(design, queues, producer, consumer))
            }
            Mechanism::SyncOpti(c) => Backend::SyncOpti(SyncOptiBackend::new(
                design,
                c.stream_cache,
                queues,
                producer,
                consumer,
            )),
            Mechanism::Dedicated(c) => {
                Backend::HeavyWt(HeavyWtBackend::new(c, producer, consumer)?)
            }
        })
    }

    /// Processes one cycle. `events` is the memory-event stream drained
    /// once per cycle by the machine and shared by every backend (each
    /// filters to its own queues), so multiple pipelines can coexist on
    /// one CMP.
    pub(crate) fn process(&mut self, mem: &mut MemSystem, events: &[MemEvent], now: Cycle) {
        match self {
            Backend::Software(b) => b.process(mem, events, now),
            Backend::SyncOpti(b) => b.process(mem, events, now),
            Backend::HeavyWt(b) => b.process(now),
        }
    }

    pub(crate) fn quiescent(&self) -> bool {
        match self {
            Backend::Software(b) => b.queued.is_empty(),
            Backend::SyncOpti(b) => b.quiescent(),
            Backend::HeavyWt(b) => b.sa.is_empty() && b.waiting.values().all(VecDeque::is_empty),
        }
    }

    /// Conservative lower bound on the next cycle this backend could act
    /// on its own: retry a queued forward, release a gated operation,
    /// advance the sync-array network, fire the consume-timeout flush, or
    /// surface a completion. `None` means the backend is purely
    /// event-driven until another component changes state (those changes
    /// are covered by the memory system's and cores' own bounds).
    pub(crate) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        match self {
            Backend::Software(b) => (!b.queued.is_empty()).then(|| now.next()),
            Backend::SyncOpti(b) => b.next_event(now),
            Backend::HeavyWt(b) => b.next_event(now),
        }
    }

    pub(crate) fn check(&self) -> &QueueCheck {
        match self {
            Backend::Software(b) => &b.check,
            Backend::SyncOpti(b) => &b.check,
            Backend::HeavyWt(b) => &b.check,
        }
    }

    /// Stream-cache statistics, when the design has one.
    pub(crate) fn stream_cache(&self) -> Option<&StreamCache> {
        match self {
            Backend::SyncOpti(b) => b.sc.as_ref(),
            _ => None,
        }
    }

    /// Hands the backend a shared tracer handle.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        match self {
            Backend::Software(b) => b.tracer = tracer,
            Backend::SyncOpti(b) => b.tracer = tracer,
            Backend::HeavyWt(b) => b.tracer = tracer,
        }
    }

    /// Hands the backend a shared machine-checker handle. The software
    /// backend's traffic is ordinary loads/stores, fully covered by the
    /// memory system's own hooks, so it carries no handle.
    pub(crate) fn set_checker(&mut self, checker: Checker) {
        match self {
            Backend::Software(_) => {}
            Backend::SyncOpti(b) => b.checker = checker,
            Backend::HeavyWt(b) => b.checker = checker,
        }
    }
}

impl StreamPort for Backend {
    fn try_produce(
        &mut self,
        mem: &mut MemSystem,
        core: CoreId,
        q: QueueId,
        value: u64,
        now: Cycle,
    ) -> StreamSubmit {
        match self {
            Backend::Software(_) => {
                panic!("software-queue programs must not contain produce instructions")
            }
            Backend::SyncOpti(b) => b.try_produce(mem, core, q, value, now),
            Backend::HeavyWt(b) => b.try_produce(core, q, value, now),
        }
    }

    fn try_consume(
        &mut self,
        mem: &mut MemSystem,
        core: CoreId,
        q: QueueId,
        now: Cycle,
    ) -> StreamSubmit {
        match self {
            Backend::Software(_) => {
                panic!("software-queue programs must not contain consume instructions")
            }
            Backend::SyncOpti(b) => b.try_consume(mem, core, q, now),
            Backend::HeavyWt(b) => b.try_consume(core, q, now),
        }
    }

    fn poll(&mut self, core: CoreId, now: Cycle, out: &mut Vec<StreamCompletion>) {
        match self {
            Backend::Software(_) => {}
            Backend::SyncOpti(b) => b.poll(core, now, out),
            Backend::HeavyWt(b) => b.poll(core, now, out),
        }
    }

    fn charge_blocked(&mut self, core: CoreId, q: QueueId, produce: bool, n: u64) {
        match self {
            Backend::Software(_) => {}
            Backend::SyncOpti(b) => b.charge_blocked(core, q, produce, n),
            Backend::HeavyWt(b) => b.charge_blocked(core, q, produce, n),
        }
    }

    fn location(&self, token: StreamToken) -> StallComponent {
        match self {
            Backend::Software(_) => StallComponent::PreL2,
            Backend::SyncOpti(b) => b.location(token),
            Backend::HeavyWt(_) => StallComponent::PreL2,
        }
    }

    fn on_mem_completion(&mut self, completion: Completion) {
        if let Backend::SyncOpti(b) = self {
            b.on_mem_completion(completion);
        }
    }
}

// ---------------------------------------------------------------------
// Software queues (EXISTING / MEMOPTI)
// ---------------------------------------------------------------------

/// Backend for software-queue designs. Under MEMOPTI the
/// producer's L2 pushes a queue line to the consumer once every slot on it
/// has been produced (its flag set), per §3.5.1's locality-preserving
/// write-forward policy (N = QLU).
#[derive(Debug)]
pub(crate) struct SoftwareBackend {
    queues: Vec<QueueId>,
    producer: CoreId,
    consumer: CoreId,
    /// Per queue, the ledger that counts flag-set stores (MEMOPTI only);
    /// nothing here reads a line's state past its trigger edge.
    ledgers: DenseMap<LineLedger>,
    /// Lines at their trigger edge, across queues in trigger order.
    queued: VecDeque<Addr>,
    check: QueueCheck,
    /// Slot geometry (Figure 5), the same for every queue of a design;
    /// only `base` is per queue, and offsets are all this backend reads.
    layout: QueueMemLayout,
    tracer: Tracer,
}

impl SoftwareBackend {
    fn new(design: &DesignPoint, queues: &[QueueId], producer: CoreId, consumer: CoreId) -> Self {
        let mut ledgers = DenseMap::new();
        if design.write_forwards() {
            for &q in queues {
                let layout = design
                    .queue_mem_info(q)
                    .expect("software queues live in memory");
                ledgers.insert(q.index(), LineLedger::new(&layout));
            }
        }
        SoftwareBackend {
            queues: queues.to_vec(),
            producer,
            consumer,
            ledgers,
            queued: VecDeque::new(),
            check: QueueCheck::new(),
            layout: design
                .queue_mem_info(QueueId(0))
                .expect("software queues live in memory"),
            tracer: Tracer::disabled(),
        }
    }

    /// The queue, slot and word (flag or datum) a store to `addr` hits.
    fn classify(&self, addr: Addr) -> Option<(QueueId, u64, bool)> {
        let (q, off) = queue_of_addr(addr, &self.queues)?;
        let (slot, is_flag) = self.layout.slot_of_offset(off);
        Some((q, slot, is_flag))
    }

    fn process(&mut self, mem: &mut MemSystem, events: &[MemEvent], now: Cycle) {
        for ev in events {
            if let MemEvent::StorePerformed { core, addr, value } = *ev {
                let Some((q, slot, is_flag)) = self.classify(addr) else {
                    continue;
                };
                if core == self.producer && !is_flag {
                    // A data store: verify it lands on the right slot
                    // (data stores may perform out of program order; the
                    // release flag store enforces publication order).
                    self.check
                        .on_produce_slot(q, slot, value, self.layout.depth.into());
                    // Data values carry their absolute sequence number, so
                    // they double as the trace's produce/consume match key.
                    self.tracer.emit(|| TraceEvent::Produce {
                        core,
                        queue: q,
                        seq: value,
                        at: now.as_u64(),
                    });
                } else if core == self.consumer && is_flag && value == 0 {
                    // Flag cleared: one slot consumed. The consumed value
                    // itself flows through a load the backend cannot see;
                    // conservation is still checked via counts.
                    let seen = self.check.consumed(q);
                    self.tracer.emit(|| TraceEvent::Consume {
                        core,
                        queue: q,
                        seq: seen,
                        at: now.as_u64(),
                    });
                    self.check.on_consume(q, seen, seen);
                } else if core == self.producer && is_flag && value != 0 {
                    if let Some(ledger) = self.ledgers.get_mut(q.index()) {
                        self.queued.extend(ledger.on_store(addr));
                    }
                }
            }
        }
        push_lines(&mut self.queued, mem, self.producer, self.consumer, now);
    }
}

// ---------------------------------------------------------------------
// SYNCOPTI
// ---------------------------------------------------------------------

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
    prod_released: u64,
    acked: u64,
    waiting_produces: VecDeque<MemToken>,
    // Consumer side.
    cons_next: u64,
    /// Which slots each line covers, and whether it was delivered.
    lines: LineLedger,
    /// Lines at their trigger edge, waiting for the producer's OzQ.
    queued: VecDeque<Addr>,
}

#[derive(Debug)]
struct WaitingConsume {
    q: QueueId,
    slot: u64,
    mem_token: MemToken,
    stream_token: StreamToken,
    released: bool,
    /// Released before the slot's line was write-forwarded: the gated
    /// load pulls the data through ordinary coherence instead.
    early_released: bool,
    /// Stall-attribution location, refreshed by every `process`.
    location: StallComponent,
}

/// Backend for SYNCOPTI and its optimized variants.
#[derive(Debug)]
pub(crate) struct SyncOptiBackend {
    producer: CoreId,
    consumer: CoreId,
    queues: Vec<QueueId>,
    state: DenseMap<SoQueue>,
    waiting_consumes: VecDeque<WaitingConsume>,
    completions: Vec<StreamCompletion>,
    pending_acks: Vec<(QueueId, u64)>,
    next_token: u64,
    sc: Option<StreamCache>,
    check: QueueCheck,
    tracer: Tracer,
    checker: Checker,
}

impl SyncOptiBackend {
    fn new(
        design: &DesignPoint,
        stream_cache: bool,
        queues: &[QueueId],
        producer: CoreId,
        consumer: CoreId,
    ) -> Self {
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
                    prod_released: 0,
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
            producer,
            consumer,
            queues: queues.to_vec(),
            state,
            waiting_consumes: VecDeque::new(),
            completions: Vec::new(),
            pending_acks: Vec::new(),
            next_token: 0,
            check: QueueCheck::new(),
            tracer: Tracer::disabled(),
            checker: Checker::disabled(),
        }
    }

    fn quiescent(&self) -> bool {
        self.waiting_consumes.is_empty()
            && self.completions.is_empty()
            && self.pending_acks.is_empty()
            && self
                .state
                .values()
                .all(|s| s.waiting_produces.is_empty() && s.queued.is_empty())
    }

    fn fresh_token(&mut self) -> StreamToken {
        let t = StreamToken(self.next_token);
        self.next_token += 1;
        t
    }

    fn try_produce(
        &mut self,
        mem: &mut MemSystem,
        core: CoreId,
        q: QueueId,
        value: u64,
        now: Cycle,
    ) -> StreamSubmit {
        assert_eq!(core, self.producer, "{q} is produced by {}", self.producer);
        let s = self.state.get_mut(q.index()).expect("queue planned");
        // Stream address generation (renaming) assigns the next slot; its
        // 2-cycle latency is overlapped with the L1 access (§4.2).
        let addr = s.layout.slot_addr(s.prod_next);
        // The gated store sits dormant in its OzQ slot until the
        // occupancy counter admits it; a full OzQ back-pressures the
        // pipeline (PreL2).
        match mem.submit(core, MemOp::store(addr, value).gated(), now) {
            Submit::Accepted(tok) => {
                let seq = s.prod_next;
                s.prod_next += 1;
                s.waiting_produces.push_back(tok);
                let depth = s.prod_next - s.acked;
                self.check.on_produce(q, value);
                self.tracer.emit(|| TraceEvent::Produce {
                    core,
                    queue: q,
                    seq,
                    at: now.as_u64(),
                });
                self.tracer.emit(|| TraceEvent::QueueDepth {
                    queue: q,
                    at: now.as_u64(),
                    depth,
                });
                StreamSubmit::Done {
                    at: now + 1,
                    value: None,
                }
            }
            Submit::Rejected(_) => StreamSubmit::Blocked,
            Submit::L1Hit { .. } => unreachable!("gated ops bypass the L1"),
        }
    }

    fn try_consume(
        &mut self,
        mem: &mut MemSystem,
        core: CoreId,
        q: QueueId,
        now: Cycle,
    ) -> StreamSubmit {
        assert_eq!(core, self.consumer, "{q} is consumed by {}", self.consumer);
        let s = self.state.get_mut(q.index()).expect("queue planned");
        let slot = s.cons_next;
        let addr = s.layout.slot_addr(slot);
        // Stream-cache hit: 1-cycle consume-to-use. The consume still
        // sends a background shadow access to the L2 so the occupancy
        // counters are updated (§5).
        if let Some(sc) = self.sc.as_mut() {
            if let Some(v) = sc.take(q, slot) {
                s.cons_next += 1;
                if let Submit::Accepted(tok) =
                    mem.submit(core, MemOp::load(addr).gated().background(), now)
                {
                    mem.release(tok, now);
                }
                self.check.on_consume(q, slot, v);
                self.tracer.emit(|| TraceEvent::ScHit {
                    queue: q,
                    at: now.as_u64(),
                });
                self.tracer.emit(|| TraceEvent::Consume {
                    core,
                    queue: q,
                    seq: slot,
                    at: now.as_u64() + 1,
                });
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
        }
        // Ordinary path: a gated background load; released once the
        // consumer-side counter shows forwarded data (or by timeout).
        match mem.submit(core, MemOp::load(addr).gated().background(), now) {
            Submit::Accepted(tok) => {
                s.cons_next += 1;
                let stok = self.fresh_token();
                self.waiting_consumes.push_back(WaitingConsume {
                    q,
                    slot,
                    mem_token: tok,
                    stream_token: stok,
                    released: false,
                    early_released: false,
                    location: StallComponent::PreL2,
                });
                self.tracer.emit(|| TraceEvent::SyncWait {
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

    fn poll(&mut self, core: CoreId, _now: Cycle, out: &mut Vec<StreamCompletion>) {
        if core == self.consumer {
            out.append(&mut self.completions);
        }
    }

    fn location(&self, token: StreamToken) -> StallComponent {
        self.waiting_consumes
            .iter()
            .find(|w| w.stream_token == token)
            .map_or(StallComponent::PreL2, |w| w.location)
    }

    fn on_mem_completion(&mut self, c: Completion) {
        if let Some(pos) = self
            .waiting_consumes
            .iter()
            .position(|w| w.mem_token == c.token)
        {
            let w = self.waiting_consumes.remove(pos).expect("position valid");
            let value = c.value.expect("consume completions carry values");
            self.check.on_consume(w.q, w.slot, value);
            let consumer = self.consumer;
            self.tracer.emit(|| TraceEvent::Consume {
                core: consumer,
                queue: w.q,
                seq: w.slot,
                at: c.at.as_u64(),
            });
            self.completions.push(StreamCompletion {
                token: w.stream_token,
                value: Some(value),
                at: c.at,
            });
            let s = self.state.get_mut(w.q.index()).expect("queue planned");
            s.lines.on_consumed(w.slot);
            let done = w.slot + 1;
            // Bulk ACK when the last item of a line is consumed; timeout
            // path ACKs eagerly to keep the tail moving.
            if done.is_multiple_of(u64::from(s.layout.qlu)) || w.early_released {
                self.pending_acks.push((w.q, done));
            }
        }
    }

    fn process(&mut self, mem: &mut MemSystem, events: &[MemEvent], now: Cycle) {
        // 1. Memory events: performed produces, push outcomes, ACKs.
        for ev in events {
            if let Some((to, line_addr, delivered)) = push_outcome(ev) {
                let Some((q, _)) =
                    queue_of_addr(line_addr, &self.queues).filter(|_| to == self.consumer)
                else {
                    continue;
                };
                let s = self.state.get_mut(q.index()).expect("queue planned");
                let slots = s.lines.resolve(line_addr, delivered);
                if let Some(sc) = self.sc.as_mut() {
                    // Reverse-map the line to queue addresses and fill the
                    // stream cache with the items it carries.
                    for slot in slots {
                        let mut v = mem.func_mem().read(s.layout.slot_addr(slot));
                        if self.checker.fire_once(Mutation::CorruptForwardValue) {
                            v ^= 1;
                        }
                        let _ = sc.fill(q, slot, v);
                        self.tracer.emit(|| TraceEvent::ScFill {
                            queue: q,
                            at: now.as_u64(),
                        });
                    }
                }
                continue;
            }
            match *ev {
                MemEvent::StorePerformed { core, addr, .. } if core == self.producer => {
                    let Some((q, _)) = queue_of_addr(addr, &self.queues) else {
                        continue;
                    };
                    let s = self.state.get_mut(q.index()).expect("queue planned");
                    s.last_perform = now;
                    s.queued.extend(s.lines.on_store(addr));
                }
                MemEvent::CtlDelivered { to, payload, .. }
                    if to == self.producer && payload.kind == CTL_BULK_ACK =>
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
                self.consumer,
                self.producer,
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
            while let Some(&tok) = s.waiting_produces.front() {
                if s.prod_released - s.acked >= u64::from(s.layout.depth) {
                    break; // queue full (or wrap-around not yet consumed)
                }
                mem.release(tok, now);
                s.prod_released += 1;
                s.waiting_produces.pop_front();
            }
        }

        // 4. Release consumes. The fast path waits for every line up to
        // the slot's to be resolved (the consume then hits locally, or
        // pulls a dropped line). If the producer has gone idle on the
        // queue while produced-but-unforwarded data exists — a partially
        // filled tail line or a low-rate stream — the consume is released
        // anyway and pulls the line through ordinary coherence.
        for w in self.waiting_consumes.iter_mut() {
            if w.released {
                continue;
            }
            let s = self.state.get(w.q.index()).expect("queue planned");
            if s.lines.released(w.slot) {
                w.released = true;
                mem.release(w.mem_token, now);
            } else if s.lines.performed(w.slot) && now.saturating_since(s.last_perform) > IDLE_FLUSH
            {
                w.released = true;
                w.early_released = true;
                mem.release(w.mem_token, now);
            }
        }

        // 5. Issue queued line forwards.
        for q in &self.queues {
            let s = self.state.get_mut(q.index()).expect("queue planned");
            push_lines(&mut s.queued, mem, self.producer, self.consumer, now);
        }

        // 6. Refresh stall-attribution locations.
        for w in self.waiting_consumes.iter_mut() {
            w.location = mem
                .location(w.mem_token)
                .map_or(StallComponent::PostL2, |l| l.component());
        }

        // 7. Stream-cache inclusion audit: every still-takeable entry
        // must cover a delivered line and match memory. Entries below the
        // completion watermark are unreachable leftovers (their consume
        // completed through coherence before the fill landed) and their
        // backing word may legally be rewritten on wrap-around, so they
        // are excluded.
        if self.checker.is_enabled() {
            if let Some(sc) = &self.sc {
                let mut entries: Vec<_> = sc.entries().collect();
                entries.sort_unstable_by_key(|&(q, slot, _)| (q.0, slot));
                for (q, slot, v) in entries {
                    let s = self.state.get(q.index()).expect("queue planned");
                    if s.lines.consumed(slot) {
                        continue;
                    }
                    let expected = mem.func_mem().read(s.layout.slot_addr(slot));
                    let delivered = s.lines.delivered(slot);
                    self.checker
                        .stream_cache_entry(now, q, slot, v, expected, delivered);
                }
            }
        }
    }

    /// See [`Backend::next_event`]. Releasable gated operations and
    /// queued forwards retry every cycle (`now + 1`); a waiting consume on
    /// produced-but-unforwarded data fires at the idle-flush deadline.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut best = None;
        if !self.completions.is_empty() || !self.pending_acks.is_empty() {
            fold_bound(&mut best, now, now.next());
        }
        for s in self.state.values() {
            if !s.queued.is_empty() {
                fold_bound(&mut best, now, now.next());
            }
            if !s.waiting_produces.is_empty()
                && s.prod_released - s.acked < u64::from(s.layout.depth)
            {
                fold_bound(&mut best, now, now.next());
            }
        }
        for w in &self.waiting_consumes {
            if w.released {
                continue;
            }
            let s = self.state.get(w.q.index()).expect("queue planned");
            if s.lines.released(w.slot) {
                fold_bound(&mut best, now, now.next());
            } else if s.lines.performed(w.slot) {
                fold_bound(&mut best, now, s.last_perform + IDLE_FLUSH + 1);
            }
        }
        best
    }

    /// See [`StreamPort::charge_blocked`]. A refused produce is a gated
    /// store the OzQ rejected before touching anything; a refused
    /// consume first probed the stream cache (and missed — a hit would
    /// have completed), so only that miss counter needs replaying.
    fn charge_blocked(&mut self, _core: CoreId, _q: QueueId, produce: bool, n: u64) {
        if !produce {
            if let Some(sc) = self.sc.as_mut() {
                sc.charge_missed_takes(n);
            }
        }
    }
}

// ---------------------------------------------------------------------
// HEAVYWT
// ---------------------------------------------------------------------

/// Backend for the synchronization-array design.
#[derive(Debug)]
pub(crate) struct HeavyWtBackend {
    producer: CoreId,
    consumer: CoreId,
    sa: SyncArray,
    waiting: DenseMap<VecDeque<StreamToken>>,
    completions: Vec<StreamCompletion>,
    next_token: u64,
    check: QueueCheck,
    /// Per-queue produced count (producer-side occupancy numerator).
    injected: DenseMap<u64>,
    /// Per-queue consumption ACKs received back at the producer.
    acked: DenseMap<u64>,
    /// ACKs in flight on the dedicated interconnect (one per consume,
    /// arriving `transit` cycles later): the §4.4 synchronization
    /// acknowledgment delay that makes full queues transit-sensitive.
    acks_in_flight: hfs_sim::TimedQueue<QueueId>,
    depth: u64,
    transit: u64,
    sa_latency: u64,
    /// Per-cycle scratch for the sorted wake order, reused so the hot
    /// loop allocates nothing in steady state
    /// (`tests/cost.rs::a_run_allocates_the_same_at_any_length`).
    wake_scratch: Vec<QueueId>,
    tracer: Tracer,
    checker: Checker,
}

impl HeavyWtBackend {
    fn new(
        cfg: HeavyWtConfig,
        producer: CoreId,
        consumer: CoreId,
    ) -> Result<Self, hfs_sim::ConfigError> {
        Ok(HeavyWtBackend {
            producer,
            consumer,
            sa: SyncArray::new(SyncArrayConfig {
                depth: cfg.queue_depth,
                transit: cfg.transit,
                ops_per_cycle: cfg.sa_ops_per_cycle,
                stage_capacity: cfg.sa_ops_per_cycle,
            })?,
            waiting: DenseMap::new(),
            completions: Vec::new(),
            next_token: 0,
            check: QueueCheck::new(),
            injected: DenseMap::new(),
            acked: DenseMap::new(),
            acks_in_flight: hfs_sim::TimedQueue::new(),
            depth: u64::from(cfg.queue_depth),
            transit: cfg.transit,
            sa_latency: cfg.sa_latency,
            wake_scratch: Vec::new(),
            tracer: Tracer::disabled(),
            checker: Checker::disabled(),
        })
    }

    /// Producer-side occupancy of `q`: produced minus ACKed consumptions.
    fn occupancy(&self, q: QueueId) -> u64 {
        let count = |t: &DenseMap<u64>| t.get(q.index()).copied().unwrap_or(0);
        count(&self.injected) - count(&self.acked)
    }

    fn process(&mut self, now: Cycle) {
        while let Some(q) = self.acks_in_flight.pop_ready(now) {
            *self.acked.or_default(q.index()) += 1;
        }
        if self.sa.in_network() > 0 && self.checker.fire_once(Mutation::SyncArrayLoseItem) {
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
            && self.checker.fire_once(Mutation::DropConsumerWake);
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
                    let slot = self.check.consumed(q);
                    self.check.on_consume(q, slot, v);
                    self.acks_in_flight.push(now + self.transit, q);
                    let (consumer, at) = (self.consumer, now + self.sa_latency);
                    self.tracer.emit(|| TraceEvent::Consume {
                        core: consumer,
                        queue: q,
                        seq: slot,
                        at: at.as_u64(),
                    });
                    self.completions.push(StreamCompletion {
                        token: tok,
                        value: Some(v),
                        at: now + self.sa_latency,
                    });
                }
            }
        }
        self.wake_scratch = queues;
        if self.checker.is_enabled() {
            self.checker.sync_array_audit(
                now,
                self.sa.injected(),
                self.sa.delivered(),
                self.sa.in_network() as u64,
            );
            let depth = self.sa.config().depth as usize;
            for (q, _) in self.injected.iter() {
                let q = QueueId(q as u16);
                self.checker
                    .sync_array_queue(now, q, self.sa.occupancy(q), depth);
            }
            // Wake liveness: a consumer still parked after the wake pass
            // while its ring has data and ports remain means the pass
            // skipped it.
            for &q in &self.wake_scratch {
                if self.waiting.get(q.index()).is_some_and(|w| !w.is_empty()) {
                    self.checker.sync_array_wake(
                        now,
                        q,
                        self.sa.occupancy(q),
                        u64::from(self.sa.budget_left()),
                    );
                }
            }
        }
    }

    fn try_produce(&mut self, core: CoreId, q: QueueId, value: u64, now: Cycle) -> StreamSubmit {
        assert_eq!(core, self.producer, "{q} is produced by {}", self.producer);
        // Occupancy counter check (queue-full): produced minus ACKed
        // consumptions. ACKs take a transit delay back, so a longer
        // interconnect shrinks the usable queue for codes that keep it
        // full (§4.4's bzip2 effect; a deeper queue restores the slack).
        let occ = self.occupancy(q);
        if occ >= self.depth {
            return StreamSubmit::Blocked;
        }
        if self.sa.try_inject(q, value) {
            let injected = self.injected.or_default(q.index());
            let seq = *injected;
            *injected += 1;
            self.check.on_produce(q, value);
            self.tracer.emit(|| TraceEvent::Produce {
                core,
                queue: q,
                seq,
                at: now.as_u64(),
            });
            self.tracer.emit(|| TraceEvent::QueueDepth {
                queue: q,
                at: now.as_u64(),
                depth: occ + 1,
            });
            StreamSubmit::Done {
                at: now + 1,
                value: None,
            }
        } else {
            StreamSubmit::Blocked
        }
    }

    fn try_consume(&mut self, core: CoreId, q: QueueId, now: Cycle) -> StreamSubmit {
        assert_eq!(core, self.consumer, "{q} is consumed by {}", self.consumer);
        let no_earlier_waiter = self.waiting.get(q.index()).is_none_or(VecDeque::is_empty);
        if no_earlier_waiter {
            if let Some(v) = self.sa.try_consume(q) {
                let slot = self.check.consumed(q);
                self.check.on_consume(q, slot, v);
                self.acks_in_flight.push(now + self.transit, q);
                let at = now + self.sa_latency;
                self.tracer.emit(|| TraceEvent::Consume {
                    core,
                    queue: q,
                    seq: slot,
                    at: at.as_u64(),
                });
                // Consume-to-use = the backing store's access latency:
                // 1 cycle for the distributed store (the §4.4 HEAVYWT
                // advantage), more for a centralized one (§3.5.2).
                return StreamSubmit::Done { at, value: Some(v) };
            }
        }
        let tok = StreamToken(self.next_token);
        self.next_token += 1;
        self.waiting.or_default(q.index()).push_back(tok);
        self.tracer.emit(|| TraceEvent::SyncWait {
            core,
            queue: q,
            at: now.as_u64(),
        });
        StreamSubmit::Pending(tok)
    }

    fn poll(&mut self, core: CoreId, _now: Cycle, out: &mut Vec<StreamCompletion>) {
        if core == self.consumer {
            out.append(&mut self.completions);
        }
    }

    /// See [`Backend::next_event`]. In-flight ACKs wake at their arrival
    /// stamp; anything moving through the network, a serviceable waiting
    /// consume, or an undrained completion needs the very next cycle.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut best = None;
        if let Some(t) = self.acks_in_flight.next_ready() {
            fold_bound(&mut best, now, t);
        }
        if self.sa.in_network() > 0 || !self.completions.is_empty() {
            fold_bound(&mut best, now, now.next());
        }
        for (q, w) in self.waiting.iter() {
            if !w.is_empty() && self.sa.occupancy(QueueId(q as u16)) > 0 {
                fold_bound(&mut best, now, now.next());
            }
        }
        best
    }

    /// See [`StreamPort::charge_blocked`]. A produce refused by the
    /// occupancy counter mutates nothing; one that passed the counter
    /// but found injection stage 0 full bumped the array's inject-stall
    /// counter on every attempt. Consumes never block on this design.
    fn charge_blocked(&mut self, _core: CoreId, q: QueueId, produce: bool, n: u64) {
        if produce && self.occupancy(q) < self.depth {
            self.sa.charge_inject_stalls(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_mem::MemConfig;

    fn mem() -> MemSystem {
        MemSystem::new(MemConfig::itanium2_cmp()).unwrap()
    }

    fn hw_backend(transit: u64, depth: u32) -> HeavyWtBackend {
        HeavyWtBackend::new(
            HeavyWtConfig {
                queue_depth: depth,
                transit,
                sa_ops_per_cycle: 4,
                sa_latency: 1,
            },
            CoreId(0),
            CoreId(1),
        )
        .unwrap()
    }

    #[test]
    fn heavywt_produce_then_consume_roundtrip() {
        let mut b = hw_backend(1, 32);
        let q = QueueId(0);
        let now = Cycle::new(0);
        match b.try_produce(CoreId(0), q, 0, now) {
            StreamSubmit::Done { .. } => {}
            other => panic!("expected immediate produce, got {other:?}"),
        }
        // Data needs one network cycle to reach the array.
        b.process(Cycle::new(1));
        match b.try_consume(CoreId(1), q, Cycle::new(1)) {
            StreamSubmit::Done { value: Some(0), at } => assert_eq!(at, Cycle::new(2)),
            other => panic!("expected consume hit, got {other:?}"),
        }
        assert!(b.check.finish().is_ok());
    }

    #[test]
    fn heavywt_consume_before_data_pends_then_completes() {
        let mut b = hw_backend(2, 32);
        let q = QueueId(3);
        let tok = match b.try_consume(CoreId(1), q, Cycle::new(0)) {
            StreamSubmit::Pending(t) => t,
            other => panic!("expected pending, got {other:?}"),
        };
        let mut done = Vec::new();
        b.poll(CoreId(1), Cycle::new(0), &mut done);
        assert!(done.is_empty());
        let _ = b.try_produce(CoreId(0), q, 0, Cycle::new(1));
        // Two network cycles later the waiting consume completes.
        b.process(Cycle::new(2));
        b.process(Cycle::new(3));
        b.poll(CoreId(1), Cycle::new(3), &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, tok);
        assert_eq!(done[0].value, Some(0));
    }

    #[test]
    fn heavywt_occupancy_blocks_until_ack_returns() {
        let mut b = hw_backend(4, 4);
        let q = QueueId(0);
        let mut t = 0u64;
        // Fill the queue (4 entries) plus whatever the network holds.
        let mut sent = 0u64;
        for _ in 0..200 {
            b.process(Cycle::new(t));
            while let StreamSubmit::Done { .. } = b.try_produce(CoreId(0), q, sent, Cycle::new(t)) {
                sent += 1;
            }
            t += 1;
            if sent >= 4 {
                break;
            }
        }
        assert_eq!(sent, 4, "occupancy counter must cap at the queue depth");
        assert!(matches!(
            b.try_produce(CoreId(0), q, sent, Cycle::new(t)),
            StreamSubmit::Blocked
        ));
        // One consume; its completion sends the ACK, which takes
        // `transit` cycles to free a producer credit.
        let tok = match b.try_consume(CoreId(1), q, Cycle::new(t)) {
            StreamSubmit::Pending(tk) => Some(tk),
            StreamSubmit::Done { .. } => None,
            StreamSubmit::Blocked => panic!("consume cannot block"),
        };
        let mut consumed_at = if tok.is_none() { Some(t) } else { None };
        let mut unblocked_at = None;
        for _ in 0..40 {
            t += 1;
            b.process(Cycle::new(t));
            if consumed_at.is_none() {
                let mut done = Vec::new();
                b.poll(CoreId(1), Cycle::new(t), &mut done);
                if !done.is_empty() {
                    consumed_at = Some(t);
                }
            }
            if consumed_at.is_some() {
                if let StreamSubmit::Done { .. } = b.try_produce(CoreId(0), q, sent, Cycle::new(t))
                {
                    unblocked_at = Some(t);
                    break;
                }
            }
        }
        let consumed = consumed_at.expect("consume must complete");
        let unblocked = unblocked_at.expect("producer must eventually unblock");
        assert!(
            unblocked >= consumed + 4,
            "credit must take >= transit cycles to return ({consumed} -> {unblocked})"
        );
    }

    #[test]
    fn syncopti_assigns_consecutive_stream_addresses() {
        let design = DesignPoint::syncopti();
        let mut b = match Backend::new(&design, &[QueueId(0)], CoreId(0), CoreId(1)).unwrap() {
            Backend::SyncOpti(b) => b,
            _ => unreachable!(),
        };
        let mut m = mem();
        let now = Cycle::new(0);
        for i in 0..3 {
            match b.try_produce(&mut m, CoreId(0), QueueId(0), i, now) {
                StreamSubmit::Done { .. } => {}
                other => panic!("produce {i}: {other:?}"),
            }
        }
        let s = b.state.get(0).expect("queue planned");
        assert_eq!(s.prod_next, 3);
        assert_eq!(s.waiting_produces.len(), 3);
        // Slot addresses stride by line/QLU = 16 bytes.
        assert_eq!(
            s.layout.slot_addr(1).as_u64() - s.layout.slot_addr(0).as_u64(),
            16
        );
    }

    #[test]
    fn syncopti_consume_waits_for_forward_watermark() {
        let design = DesignPoint::syncopti();
        let mut b = match Backend::new(&design, &[QueueId(0)], CoreId(0), CoreId(1)).unwrap() {
            Backend::SyncOpti(b) => b,
            _ => unreachable!(),
        };
        let mut m = mem();
        let tok = match b.try_consume(&mut m, CoreId(1), QueueId(0), Cycle::new(0)) {
            StreamSubmit::Pending(t) => t,
            other => panic!("{other:?}"),
        };
        // Nothing produced, nothing forwarded: stays pending.
        b.process(&mut m, &[], Cycle::new(1));
        let mut done = Vec::new();
        b.poll(CoreId(1), Cycle::new(1), &mut done);
        assert!(done.is_empty());
        assert_eq!(b.location(tok), hfs_sim::stats::StallComponent::PreL2);
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
            let layout = match Backend::new(&design, &[q], CoreId(0), CoreId(1)).unwrap() {
                Backend::Software(b) => b.layout,
                Backend::SyncOpti(b) => b.state.get(q.index()).unwrap().layout,
                Backend::HeavyWt(_) => unreachable!("{design} has a memory layout"),
            };
            // The sequencer addresses a queue exactly where flags live in
            // memory, and then through this layout.
            let lowered = lower(&pair, &design, Role::Producer).unwrap();
            let plan = lowered.program.queue_plan(q).unwrap().layout;
            assert_eq!(plan, layout.flag_offset.map(|_| layout), "{design}");
            let sw = SoftwareBackend::new(&design, &[q], CoreId(0), CoreId(1));
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
                    assert_eq!(ledger.resolve(line_of_first, true), seq + 1 - qlu..seq + 1);
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
