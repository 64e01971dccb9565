//! The assembled memory system: cores' L1/L2, shared bus, L3, DRAM,
//! coherence glue, and the streaming hooks used by the machine model.

use hfs_check::{Checker, Mutation};
use hfs_isa::{Addr, CoreId};
use hfs_sim::stats::Counter;
use hfs_sim::{ConfigError, Cycle, FnvMap, TimedQueue};
use hfs_trace::{CacheLevel, TraceEvent, Tracer};

use crate::bus::{AddrTxn, Agent, Bus, BusStats, DataTxn};
use crate::cache::LineState;
use crate::config::MemConfig;
use crate::func::FuncMem;
use crate::l1::L1d;
use crate::l2::{EntryKind, L2Ctl, L2Outcome, LineStage, ResolvedWaiter, NEVER};
use crate::l3::{L3Ready, L3Req, L3};
use crate::msg::{Completion, CtlPayload, MemEvent, MemToken, OpLocation, RejectReason};
use crate::protocol::{self, LineOp};

/// Cycles between the L2 returning load data and the value being
/// architecturally available (L1 fill + register writeback; the paper's
/// PostL2 region).
const FILL_LATENCY: u64 = 2;

/// A memory operation submitted by a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Byte address accessed.
    pub addr: Addr,
    /// `Some(value)` for a store; `None` for a load.
    pub write: Option<u64>,
    /// Background operations complete without any register waiting
    /// (stream-cache shadow accesses keeping occupancy counters fresh).
    pub background: bool,
    /// Gated operations sit dormant in their OzQ slot until
    /// [`MemSystem::release`] is called (SYNCOPTI produce/consume
    /// synchronization). Gated operations bypass the L1.
    pub gated: bool,
    /// Release stores (Itanium `st.rel`) may not access the L2 until all
    /// earlier memory operations from the same core have performed;
    /// software queues use this to order the flag store after the datum.
    pub release: bool,
}

impl MemOp {
    /// A demand load.
    pub fn load(addr: Addr) -> Self {
        MemOp {
            addr,
            write: None,
            background: false,
            gated: false,
            release: false,
        }
    }

    /// A store of `value`.
    pub fn store(addr: Addr, value: u64) -> Self {
        MemOp {
            addr,
            write: Some(value),
            background: false,
            gated: false,
            release: false,
        }
    }

    /// Marks the operation gated (builder style).
    #[must_use]
    pub fn gated(mut self) -> Self {
        self.gated = true;
        self
    }

    /// Marks the operation background (builder style).
    #[must_use]
    pub fn background(mut self) -> Self {
        self.background = true;
        self
    }

    /// Marks a store as a release store (builder style).
    #[must_use]
    pub fn release_store(mut self) -> Self {
        self.release = true;
        self
    }
}

/// Result of submitting an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submit {
    /// The load hit the L1; its value is ready at `at`.
    L1Hit {
        /// Loaded value.
        value: u64,
        /// Cycle the value is available.
        at: Cycle,
    },
    /// The operation entered the OzQ; completion arrives later.
    Accepted(MemToken),
    /// The operation could not be accepted this cycle.
    Rejected(RejectReason),
}

/// Aggregate memory-system statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1 load hits (all cores).
    pub l1_hits: u64,
    /// L1 load misses.
    pub l1_misses: u64,
    /// L2 pipe accesses (port bandwidth consumed).
    pub l2_accesses: u64,
    /// L2 port-arbitration losses (recirculations).
    pub l2_port_conflicts: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// Bus statistics.
    pub bus: BusStats,
    /// Write-forward pushes completed.
    pub forwards: u64,
    /// Dragon bus-update broadcasts delivered (update protocols only).
    pub updates: u64,
}

/// The complete memory hierarchy of the simulated CMP.
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    func: FuncMem,
    l1s: Vec<L1d>,
    l2s: Vec<L2Ctl>,
    bus: Bus,
    l3: L3,
    busy_lines: FnvMap<()>,
    completions: Vec<TimedQueue<Completion>>,
    events: Vec<MemEvent>,
    /// Per-tick scratch buffers, reused every cycle so the hot loop
    /// allocates nothing in steady state (`tests/cost.rs::a_run_allocates_the_same_at_any_length`).
    addr_scratch: Vec<AddrTxn>,
    data_scratch: Vec<DataTxn>,
    l3_scratch: Vec<L3Ready>,
    dram_scratch: Vec<L3Req>,
    l2_scratch: Vec<L2Outcome>,
    waiter_scratch: Vec<ResolvedWaiter>,
    /// In-flight forward pushes: (line, producer core, OzQ entry id).
    forward_track: Vec<(u64, CoreId, u64)>,
    forwards_done: u64,
    /// Dragon bus-update broadcasts delivered.
    updates_done: u64,
    /// Byte range of the streaming (queue) backing store, used to tag
    /// bus requests for the §4.2 application-traffic-priority arbiter.
    streaming_range: Option<(u64, u64)>,
    /// The hierarchy's one bound: the earliest cycle at which a tick can
    /// change anything, the fold of every L2's, the bus's and the L3's
    /// bound ([`NEVER`] when none has timed work). Recomputed by each
    /// tick that runs, and lowered to the changed component's own bound
    /// by every call that gives one new timed work; ticks before it
    /// return at once (DESIGN §6c).
    work_at: Cycle,
    /// The cycle after the last tick, run or quiet: a call between ticks
    /// acts before the tick at this cycle.
    next_tick: Cycle,
    tracer: Tracer,
    checker: Checker,
}

impl MemSystem {
    /// Builds the hierarchy described by `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn new(cfg: MemConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let cores = cfg.cores as usize;
        let mut l1s = Vec::with_capacity(cores);
        let mut l2s = Vec::with_capacity(cores);
        for c in 0..cores {
            l1s.push(L1d::new(cfg.l1d)?);
            let mut l2 = L2Ctl::new(
                CoreId(c as u8),
                cfg.l2,
                cfg.l2_latency_min,
                cfg.l2_ports,
                cfg.ozq_entries,
                cfg.recirc_interval,
            )?;
            l2.set_protocol(cfg.protocol);
            l2s.push(l2);
        }
        Ok(MemSystem {
            bus: Bus::new(cfg.bus, cores),
            l3: L3::new(cfg.l3, cfg.l3_latency, cfg.dram_latency)?,
            func: FuncMem::new(),
            l1s,
            l2s,
            busy_lines: FnvMap::new(),
            completions: (0..cores).map(|_| TimedQueue::new()).collect(),
            events: Vec::new(),
            addr_scratch: Vec::new(),
            data_scratch: Vec::new(),
            l3_scratch: Vec::new(),
            dram_scratch: Vec::new(),
            l2_scratch: Vec::new(),
            waiter_scratch: Vec::new(),
            forward_track: Vec::new(),
            forwards_done: 0,
            updates_done: 0,
            streaming_range: None,
            work_at: NEVER,
            next_tick: Cycle::ZERO,
            tracer: Tracer::disabled(),
            checker: Checker::disabled(),
            cfg,
        })
    }

    /// Installs a tracer, distributing handles to the bus and every L2.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.bus.set_tracer(tracer.clone());
        for l2 in &mut self.l2s {
            l2.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// Installs a machine checker, distributing handles to the bus and
    /// every L2 and seeding the differential golden memory from the
    /// functional memory's current contents — call after any
    /// pre-initialization writes.
    pub fn set_checker(&mut self, checker: Checker) {
        if checker.is_full() {
            checker.seed_golden(self.func.iter_words());
        }
        checker.set_protocol(self.cfg.protocol);
        self.bus.set_checker(checker.clone());
        for l2 in &mut self.l2s {
            l2.set_checker(checker.clone());
        }
        self.checker = checker;
    }

    /// The active configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Read access to the functional memory.
    pub fn func_mem(&self) -> &FuncMem {
        &self.func
    }

    /// Write access to the functional memory (for pre-initializing data).
    pub fn func_mem_mut(&mut self) -> &mut FuncMem {
        &mut self.func
    }

    /// Submits a memory operation from `core` at cycle `now`.
    pub fn submit(&mut self, core: CoreId, op: MemOp, now: Cycle) -> Submit {
        let c = core.index();
        assert!(c < self.l2s.len(), "core {core} out of range");
        // A refused operation leaves nothing behind: unless a demand
        // load hits, the OzQ admits the operation before the L1 is
        // touched (DESIGN §6c).
        let full = self.l2s[c].free_slots() == 0;
        if op.write.is_none() && !op.gated && (!full || self.l1s[c].holds(op.addr)) {
            // Demand load: try the L1 first.
            let hit = self.l1s[c].load_hit(op.addr);
            self.trace_access(core, CacheLevel::L1, hit, now);
            if hit {
                let mut value = self.func.read(op.addr);
                if self.checker.fire_once(Mutation::CorruptLoadValue) {
                    value ^= 1;
                }
                self.checker.on_load(now, op.addr.as_u64(), value);
                return Submit::L1Hit {
                    value,
                    at: now + self.cfg.l1_latency,
                };
            }
        }
        if full {
            return Submit::Rejected(RejectReason::OzqFull);
        }
        if op.write.is_some() && !op.gated {
            // Write-through touch (no allocate).
            self.l1s[c].store_touch(op.addr);
        }
        let kind = match op.write {
            Some(value) => EntryKind::Store {
                value,
                release: op.release,
            },
            None => EntryKind::Load,
        };
        let id = self.l2s[c].allocate(op.addr, kind, op.background, op.gated, now);
        self.l2_woken(c);
        Submit::Accepted(MemToken::new(core, id))
    }

    /// Releases a gated operation so it proceeds to the L2.
    /// Returns false if the token is unknown (already completed).
    pub fn release(&mut self, token: MemToken, now: Cycle) -> bool {
        let c = token.core().index();
        let known = self.l2s[c].release(token.id(), now);
        self.l2_woken(c);
        known
    }

    /// Lowers the stamp to L2 `c`'s bound after a call that may have
    /// given it timed work. Its own bound, not the next cycle: a gated
    /// allocation, or a release of an entry already released, arms no
    /// timer, and the stamp must stay what the fold would give.
    fn l2_woken(&mut self, c: usize) {
        self.work_at = self.work_at.min(self.l2s[c].work_at());
    }

    /// Injects a write-forward push of the line containing `line_addr`
    /// from `from`'s L2 to `to`'s L2. Returns false (and does nothing)
    /// when `from`'s OzQ is full — the caller retries later, which models
    /// forward back-pressure filling the OzQ (§4.4).
    pub fn forward_line(&mut self, from: CoreId, to: CoreId, line_addr: Addr, now: Cycle) -> bool {
        let f = from.index();
        if self.l2s[f].free_slots() == 0 {
            return false;
        }
        self.l2s[f].allocate(line_addr, EntryKind::Forward { to }, true, false, now);
        self.l2_woken(f);
        self.checker.on_forward_issued(from, to);
        true
    }

    /// Declares the byte range of the streaming queue backing store so
    /// bus requests can be classified as inter-thread operand traffic
    /// (used only when [`crate::BusConfig::favor_app_traffic`] is set).
    pub fn set_streaming_range(&mut self, base: u64, end: u64) {
        self.streaming_range = Some((base, end));
    }

    #[inline]
    fn trace_access(&self, core: CoreId, level: CacheLevel, hit: bool, now: Cycle) {
        self.tracer.emit(|| TraceEvent::CacheAccess {
            core,
            at: now.as_u64(),
            level,
            hit,
        });
    }

    /// Byte address of the first word of `line`.
    fn line_addr(&self, line: u64) -> Addr {
        Addr::new(line * self.cfg.l2.line_bytes)
    }

    fn line_is_streaming(&self, line: u64) -> bool {
        match self.streaming_range {
            Some((base, end)) => {
                let addr = line * self.cfg.l2.line_bytes;
                addr >= base && addr < end
            }
            None => false,
        }
    }

    /// Sends a small streaming control message over the bus address
    /// channel; delivered as [`MemEvent::CtlDelivered`].
    pub fn send_ctl(&mut self, from: CoreId, to: CoreId, payload: CtlPayload) {
        self.bus
            .request_addr(from, AddrTxn::Ctl { from, to, payload });
        // A queued request is granted on the next bus cycle.
        let grant = self.bus.next_bus_cycle(self.next_tick);
        self.work_at = self.work_at.min(grant);
    }

    /// Free OzQ slots for `core`.
    pub fn free_slots(&self, core: CoreId) -> u32 {
        self.l2s[core.index()].free_slots()
    }

    /// Stall-attribution location of an in-flight operation, or `None`
    /// once it has completed.
    #[inline]
    pub fn location(&self, token: MemToken) -> Option<OpLocation> {
        self.l2s[token.core().index()].location(token.id())
    }

    /// A count that `core`'s L2 bumps on every change that can move the
    /// [`MemSystem::location`] of one of its operations: while it stands
    /// still, a location read earlier still holds.
    #[inline]
    pub fn location_moves(&self, core: CoreId) -> u64 {
        self.l2s[core.index()].moves()
    }

    /// Whether the whole hierarchy is quiescent.
    pub fn is_idle(&self) -> bool {
        self.bus.is_idle()
            && self.l3.is_idle()
            && self.l2s.iter().all(|l| l.occupancy() == 0)
            && self.completions.iter().all(TimedQueue::is_empty)
    }

    /// Drains completions ready for `core` at `now`.
    pub fn drain_completions(&mut self, core: CoreId, now: Cycle) -> Vec<Completion> {
        let mut out = Vec::new();
        self.drain_completions_into(core, now, &mut out);
        out
    }

    /// Appends completions ready for `core` at `now` to the caller-owned
    /// `out` buffer (not cleared), avoiding a per-cycle allocation.
    #[inline]
    pub fn drain_completions_into(&mut self, core: CoreId, now: Cycle, out: &mut Vec<Completion>) {
        let q = &mut self.completions[core.index()];
        while let Some(c) = q.pop_ready(now) {
            out.push(c);
        }
    }

    /// Whether any completion is ready for `core` at `now` — a cheap
    /// probe so callers that would discard the completions anyway can
    /// skip the drain entirely.
    pub fn has_completions(&self, core: CoreId, now: Cycle) -> bool {
        self.completions[core.index()]
            .next_ready()
            .is_some_and(|ready| ready <= now)
    }

    /// Drains the event stream accumulated since the last call.
    pub fn drain_events(&mut self) -> Vec<MemEvent> {
        std::mem::take(&mut self.events)
    }

    /// Moves the event stream accumulated since the last call into `out`
    /// (cleared first); both buffers keep their capacity, so a caller
    /// recycling the same buffer allocates nothing in steady state
    /// (`tests/cost.rs::a_run_allocates_the_same_at_any_length`).
    pub fn take_events(&mut self, out: &mut Vec<MemEvent>) {
        out.clear();
        std::mem::swap(out, &mut self.events);
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MemStats {
        MemStats {
            l1_hits: self.l1s.iter().map(L1d::hits).sum(),
            l1_misses: self.l1s.iter().map(L1d::misses).sum(),
            l2_accesses: self.l2s.iter().map(L2Ctl::pipe_accesses).sum(),
            l2_port_conflicts: self.l2s.iter().map(L2Ctl::port_conflicts).sum(),
            dram_accesses: self.l3.dram_accesses(),
            bus: self.bus.stats(),
            forwards: self.forwards_done,
            updates: self.updates_done,
        }
    }

    /// The hierarchy's named counters for the unified metrics report,
    /// and the one place a memory-system count is named: aggregated
    /// L1/L2/L3 hit-miss, L2 port statistics, DRAM accesses, bus channel
    /// activity, write-forward completions and update broadcasts. Every
    /// count [`MemStats`] carries is read from [`MemSystem::stats`].
    pub fn counters(&self) -> Vec<Counter> {
        let s = self.stats();
        let l2_sum = |count: fn(&L2Ctl) -> u64| self.l2s.iter().map(count).sum();
        [
            ("mem.l1_hits", s.l1_hits),
            ("mem.l1_misses", s.l1_misses),
            ("mem.l2_hits", l2_sum(L2Ctl::array_hits)),
            ("mem.l2_misses", l2_sum(L2Ctl::array_misses)),
            ("mem.l2_accesses", s.l2_accesses),
            ("mem.l2_port_conflicts", s.l2_port_conflicts),
            ("mem.l3_hits", self.l3.array.hits()),
            ("mem.l3_misses", self.l3.array.misses()),
            ("mem.dram_accesses", s.dram_accesses),
            ("bus.addr_phases", s.bus.addr_phases),
            ("bus.data_transfers", s.bus.data_transfers),
            ("bus.data_busy_cycles", s.bus.data_busy_cycles),
            ("bus.ctl_delivered", s.bus.ctl_delivered),
            ("mem.forwards", s.forwards),
            ("mem.updates", s.updates),
        ]
        .into_iter()
        .map(|(name, value)| Counter::new(name, value))
        .collect()
    }

    /// Whether `core`'s L2 currently holds the line containing `addr`.
    pub fn l2_has_line(&self, core: CoreId, addr: Addr) -> bool {
        let l2 = &self.l2s[core.index()];
        l2.probe(l2.line_of(addr)).is_some()
    }

    /// Renders internal state for deadlock diagnostics.
    pub fn debug_state(&self) -> String {
        let mut out = String::new();
        for (i, l2) in self.l2s.iter().enumerate() {
            out.push_str(&format!("L2[{i}]: {}\n", l2.debug_entries()));
        }
        let mut busy: Vec<u64> = self.busy_lines.iter().map(|(line, ())| line).collect();
        busy.sort_unstable();
        out.push_str(&format!(
            "busy_lines={busy:?} bus_idle={} l3_idle={}\n",
            self.bus.is_idle(),
            self.l3.is_idle()
        ));
        out
    }

    /// Advances the hierarchy one cycle.
    pub fn tick(&mut self, now: Cycle) {
        self.next_tick = now.next();
        // Quiet cycle: no component has anything due, so every step below
        // would be a no-op. A checker audits every cycle, so it sees them.
        if now < self.work_at && !self.checker.is_enabled() {
            return;
        }

        // 1. Bus: deliver address phases (snoops) and data transfers.
        // The scratch buffers are taken out of `self` so the handler
        // calls below can borrow the system mutably; they go back (with
        // their capacity) at the end.
        let mut addrs = std::mem::take(&mut self.addr_scratch);
        let mut datas = std::mem::take(&mut self.data_scratch);
        addrs.clear();
        datas.clear();
        self.bus.tick(now, &mut addrs, &mut datas);
        for &a in &addrs {
            self.handle_addr(a, now);
        }
        for &d in &datas {
            self.handle_data(d, now);
        }
        self.addr_scratch = addrs;
        self.data_scratch = datas;

        // 2. L3: move lookups along; ship serviced lines onto the bus.
        // A request is stamped `InDram` for stall attribution once, as its
        // lookup misses: from then until its fill is `Incoming` the line
        // is busy, so nothing else can restage its pending entry.
        let mut to_dram = std::mem::take(&mut self.dram_scratch);
        to_dram.clear();
        self.l3.tick(now, &mut to_dram);
        for req in &to_dram {
            self.l2s[req.requester.index()].line_stage(req.line, LineStage::InDram);
        }
        self.dram_scratch = to_dram;
        let mut serviced = std::mem::take(&mut self.l3_scratch);
        self.l3.take_ready(&mut serviced);
        for ready in &serviced {
            self.trace_access(ready.req.requester, CacheLevel::L3, !ready.from_dram, now);
            self.l2s[ready.req.requester.index()].line_stage(ready.req.line, LineStage::Incoming);
            self.bus.request_data(
                Agent::L3,
                self.cfg.l2.line_bytes,
                DataTxn::FillL2 {
                    line: ready.req.line,
                    dest: ready.req.requester,
                    state: ready.req.fill,
                },
            );
        }
        self.l3_scratch = serviced;

        // 3. L2s: ports, pipe resolutions, line-request (re)issues. An
        // L2's outcomes change no other L2, so its bound is final once
        // they are handled; the bus and the L3 bounds are read after
        // every L2 has queued its requests.
        let mut work = NEVER;
        let mut outcomes = std::mem::take(&mut self.l2_scratch);
        for c in 0..self.l2s.len() {
            outcomes.clear();
            self.l2s[c].tick(now, &mut outcomes);
            for &o in &outcomes {
                self.handle_l2_outcome(CoreId(c as u8), o, now);
            }
            work = work.min(self.l2s[c].work_at());
        }
        self.l2_scratch = outcomes;
        for t in [self.bus.next_event(now), self.l3.next_event(now)] {
            work = t.map_or(work, |t| work.min(t));
        }
        self.work_at = work;

        // 4. Machine-check audits (no-ops when checking is off).
        if self.checker.is_enabled() {
            for (c, l2) in self.l2s.iter().enumerate() {
                self.checker
                    .ozq_audit(now, CoreId(c as u8), l2.occupancy(), l2.capacity());
            }
            self.checker.audit_outstanding(now);
        }
    }

    /// Conservative lower bound on the next cycle at which the hierarchy
    /// changes state on its own: the stamp (bus deliveries/grants, L3
    /// pipeline heads, L2 port/pipe/reissue timers) and undelivered
    /// completions. `None` when fully quiescent (nothing will ever happen
    /// without new submissions).
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let floor = now.next();
        // Undrained events must reach the backends next cycle.
        if !self.events.is_empty() {
            return Some(floor);
        }
        let heads = self.completions.iter().filter_map(TimedQueue::next_ready);
        let best = heads.fold(self.work_at, Cycle::min);
        (best != NEVER).then(|| best.max(floor))
    }

    fn handle_l2_outcome(&mut self, core: CoreId, o: L2Outcome, now: Cycle) {
        let c = core.index();
        match &o {
            L2Outcome::LoadHit { addr, .. } | L2Outcome::StorePerform { addr, .. } => {
                self.trace_access(core, CacheLevel::L2, true, now);
                if self.checker.is_enabled() {
                    let line = self.l2s[c].line_of(*addr);
                    self.checker.on_l2_hit(now, core, line);
                }
            }
            L2Outcome::NeedLine { .. } => self.trace_access(core, CacheLevel::L2, false, now),
            _ => {}
        }
        match o {
            L2Outcome::LoadHit {
                id,
                addr,
                background,
                gated,
            } => self.complete_load(core, id, addr, background, gated, now),
            L2Outcome::StorePerform {
                id,
                addr,
                value,
                background,
            } => self.perform_store(core, id, addr, value, background, now),
            L2Outcome::NeedLine {
                line,
                exclusive,
                have_shared,
            } => {
                let txn = AddrTxn::Line {
                    op: protocol::line_request(self.cfg.protocol, exclusive, have_shared),
                    line,
                    requester: core,
                    streaming: self.line_is_streaming(line),
                };
                self.l2s[c].line_stage(line, LineStage::OnBus);
                self.bus.request_addr(core, txn);
            }
            L2Outcome::ForwardReady { id, line, to } => {
                if self.busy_lines.contains_key(line) {
                    // The destination is already fetching the line by
                    // demand; drop the push.
                    self.l2s[c].drop_forward(id);
                    self.forward_dropped(core, to, line);
                    return;
                }
                self.busy_lines.insert(line, ());
                self.bus.request_data(
                    Agent::Core(core),
                    self.cfg.l2.line_bytes,
                    DataTxn::ForwardLine {
                        line,
                        from: core,
                        to,
                    },
                );
                // Remember which entry to complete on delivery.
                self.forward_track.push((line, core, id));
            }
            L2Outcome::ForwardAbort { line, to } => self.forward_dropped(core, to, line),
        }
    }

    /// Reports a push that will never reach `to`, so the consumer's
    /// ledger can resolve the line.
    fn forward_dropped(&mut self, from: CoreId, to: CoreId, line: u64) {
        self.checker.on_forward_resolved(from, to);
        self.events.push(MemEvent::ForwardDropped {
            from,
            to,
            line_addr: self.line_addr(line),
        });
    }

    /// A load completes: samples the functional value and schedules the
    /// completion.
    fn complete_load(
        &mut self,
        core: CoreId,
        id: u64,
        addr: Addr,
        background: bool,
        gated: bool,
        now: Cycle,
    ) {
        let c = core.index();
        let mut value = self.func.read(addr);
        if self.checker.fire_once(Mutation::CorruptLoadValue) {
            value ^= 1;
        }
        self.checker.on_load(now, addr.as_u64(), value);
        // Gated (streaming) loads bypass the L1 and its fill latency;
        // their data goes straight to the consumer.
        let at = if gated {
            now
        } else {
            self.l1s[c].fill(addr);
            now + FILL_LATENCY
        };
        self.completions[c].push(
            at,
            Completion {
                token: MemToken::new(core, id),
                value: Some(value),
                at,
                background,
            },
        );
    }

    /// A store performs: writes functional memory, reports the event and
    /// completes.
    fn perform_store(
        &mut self,
        core: CoreId,
        id: u64,
        addr: Addr,
        value: u64,
        background: bool,
        now: Cycle,
    ) {
        // Fault injection: the timing model writes a wrong value while
        // the architectural event (and the checker's golden) keep the
        // original.
        let mut stored = value;
        if self.checker.fire_once(Mutation::CorruptStoreValue) {
            stored ^= 1;
        }
        self.func.write(addr, stored);
        self.checker.on_store(now, addr.as_u64(), value);
        self.events
            .push(MemEvent::StorePerformed { core, addr, value });
        self.completions[core.index()].push(
            now,
            Completion {
                token: MemToken::new(core, id),
                value: None,
                at: now,
                background,
            },
        );
    }

    /// Invalidates every copy of `line` outside `requester`'s L2, telling
    /// the checker, the L1s and the machine model. Returns the core that
    /// held the line dirty, which must supply it.
    fn snoop_invalidate(&mut self, requester: usize, line: u64, now: Cycle) -> Option<usize> {
        let line_addr = self.line_addr(line);
        let mut owner = None;
        for c in 0..self.l2s.len() {
            if c == requester {
                continue;
            }
            // Fault injection: skip one snoop invalidation, leaving a
            // stale copy behind the new owner.
            if self.l2s[c].probe(line).is_some()
                && self.checker.fire_once(Mutation::SkipSnoopInvalidate)
            {
                continue;
            }
            if let Some(state) = self.l2s[c].snoop_inv(line) {
                self.checker.on_invalidate(now, CoreId(c as u8), line);
                self.l1s[c].invalidate_span(line_addr, self.cfg.l2.line_bytes);
                self.events.push(MemEvent::LineEvicted {
                    core: CoreId(c as u8),
                    line_addr,
                    dirty: state.dirty(),
                });
                if state.dirty() {
                    owner = Some(c);
                }
            }
        }
        owner
    }

    /// Answers `requester`'s request for `line`, to install in `state`:
    /// cache-to-cache from `supplier`'s L2 (the L3 shadows a clean copy),
    /// else from the L3.
    fn supply(
        &mut self,
        supplier: Option<usize>,
        requester: CoreId,
        line: u64,
        state: LineState,
        now: Cycle,
    ) {
        let r = requester.index();
        match supplier {
            Some(c) => {
                self.l3.install_clean(line);
                self.l2s[r].line_stage(line, LineStage::Incoming);
                self.bus.request_data(
                    Agent::Core(CoreId(c as u8)),
                    self.cfg.l2.line_bytes,
                    DataTxn::FillL2 {
                        line,
                        dest: requester,
                        state,
                    },
                );
            }
            None => {
                self.l2s[r].line_stage(line, LineStage::InL3);
                self.l3.request(
                    L3Req {
                        line,
                        requester,
                        fill: state,
                    },
                    now,
                );
            }
        }
    }

    fn handle_addr(&mut self, txn: AddrTxn, now: Cycle) {
        let (op, line, requester) = match txn {
            AddrTxn::Ctl { from, to, payload } => {
                self.events
                    .push(MemEvent::CtlDelivered { from, to, payload });
                return;
            }
            AddrTxn::Line {
                op,
                line,
                requester,
                ..
            } => (op, line, requester),
        };
        let r = requester.index();
        if self.busy_lines.contains_key(line) {
            // Another transaction on the line is in flight. A NACKed
            // read reissues as a read, everything else as a store's
            // request.
            let backoff = 2 * self.cfg.bus.pipeline_stages * self.cfg.bus.clock_divider;
            self.l2s[r].nack_line(line, now + backoff, op != LineOp::Rd);
            return;
        }
        match op {
            LineOp::Rd => {
                self.busy_lines.insert(line, ());
                self.checker.on_addr_request(now, requester, line);
                let mut supplier = None;
                let mut other_holder = false;
                for c in 0..self.l2s.len() {
                    if c == r {
                        continue;
                    }
                    other_holder |= self.l2s[c].probe(line).is_some();
                    if supplier.is_none() && self.l2s[c].snoop_rd(line) {
                        supplier = Some(c);
                    }
                }
                let mut fill = match supplier {
                    Some(_) => LineState::Shared,
                    None => protocol::read_fill(self.cfg.protocol, other_holder),
                };
                // Fault injection: claim exclusivity despite a surviving
                // sharer; the install census must object.
                let alone = protocol::read_fill(self.cfg.protocol, false);
                if supplier.is_none()
                    && fill != alone
                    && self.checker.fire_once(Mutation::GrantExclusiveWithSharers)
                {
                    fill = alone;
                }
                self.supply(supplier, requester, line, fill, now);
            }
            LineOp::RdX => {
                self.busy_lines.insert(line, ());
                self.checker.on_addr_request(now, requester, line);
                let owner = self.snoop_invalidate(r, line, now);
                self.supply(owner, requester, line, LineState::Modified, now);
            }
            LineOp::Upgr => {
                if self.l2s[r].probe(line) != Some(LineState::Shared) {
                    // Our copy vanished while the upgrade was in flight:
                    // reissue as a full exclusive fetch.
                    self.l2s[r].nack_line(line, now, true);
                    return;
                }
                // No owner to hear from: beside our Shared copy every
                // other legal copy is Shared, so each eviction reported
                // is a clean one.
                self.snoop_invalidate(r, line, now);
                self.l2s[r].grant_upgrade(line, now);
                self.audit_line_states(line, now);
                self.resolve_waiters(requester, line, now);
            }
            LineOp::Upd => {
                // Dragon bus-update: a single address/snoop-phase
                // broadcast. Every sharer patches its copy in place; the
                // writer becomes the SM owner (EM with no sharers left).
                // No data-channel transfer and no split-transaction
                // response follow.
                if !matches!(
                    self.l2s[r].probe(line),
                    Some(LineState::Shared) | Some(LineState::SharedModified)
                ) {
                    // Our copy vanished while the update was in flight:
                    // refetch (the reissue sees have_shared = false and
                    // maps back to a plain read under Dragon).
                    self.l2s[r].nack_line(line, now, true);
                    return;
                }
                let line_addr = self.line_addr(line);
                let mut holders = 0u32;
                // Sharers the broadcast reached, one bit per core (the
                // bus model tops out at 8).
                let mut reached = 0u8;
                for c in 0..self.l2s.len() {
                    if c == r || self.l2s[c].probe(line).is_none() {
                        continue;
                    }
                    // Fault injection: hide one sharer from the
                    // broadcast entirely — counts agree, but its copy
                    // goes silently stale.
                    if self.checker.fire_once(Mutation::HideDragonSharer) {
                        continue;
                    }
                    holders += 1;
                    // Fault injection: count the sharer but skip the
                    // delivery — the update census comes up short.
                    if self.checker.fire_once(Mutation::SkipDragonUpdate) {
                        continue;
                    }
                    self.l2s[c].snoop_upd(line);
                    // The sharer's L1 span is stale at word granularity;
                    // invalidate it so later loads refetch through L2.
                    self.l1s[c].invalidate_span(line_addr, self.cfg.l2.line_bytes);
                    reached |= 1 << c;
                }
                let updated = reached.count_ones();
                // Bump the broadcast version first, then mark each
                // reached sharer current at the *new* version.
                self.checker
                    .on_bus_update(now, requester, line, holders, updated);
                for c in (0..self.l2s.len()).filter(|c| reached & (1 << c) != 0) {
                    self.checker.on_update_applied(CoreId(c as u8), line);
                }
                self.updates_done += 1;
                self.events.push(MemEvent::UpdateDelivered {
                    from: requester,
                    line_addr,
                    sharers: updated as u8,
                });
                self.l2s[r].grant_update(line, holders > 0, now);
                self.audit_line_states(line, now);
                self.resolve_waiters(requester, line, now);
            }
        }
    }

    fn handle_data(&mut self, txn: DataTxn, now: Cycle) {
        match txn {
            DataTxn::FillL2 { line, dest, state } => {
                self.busy_lines.remove(line);
                self.install_fill(dest, line, state, false, now);
            }
            DataTxn::WbL3 { line, .. } => self.l3.writeback(line),
            DataTxn::ForwardLine { line, from, to } => {
                self.busy_lines.remove(line);
                // Complete the producer-side forward entry.
                if let Some(pos) = self
                    .forward_track
                    .iter()
                    .position(|(l, c, _)| *l == line && *c == from)
                {
                    let (_, _, id) = self.forward_track.remove(pos);
                    self.l2s[from.index()].forward_complete(id, line);
                }
                let line_addr = self.line_addr(line);
                self.l1s[from.index()].invalidate_span(line_addr, self.cfg.l2.line_bytes);
                self.install_fill(to, line, LineState::Modified, true, now);
                self.forwards_done += 1;
                self.tracer.emit(|| TraceEvent::Forward {
                    at: now.as_u64(),
                    line,
                });
                if !self.checker.fire_once(Mutation::SwallowForwardDone) {
                    self.checker.on_forward_resolved(from, to);
                    self.events.push(MemEvent::ForwardDone {
                        from,
                        to,
                        line_addr,
                    });
                }
            }
        }
    }

    fn install_fill(
        &mut self,
        dest: CoreId,
        line: u64,
        state: LineState,
        forwarded: bool,
        now: Cycle,
    ) {
        let d = dest.index();
        let victim = self.l2s[d].fill(line, state, now);
        if let Some(v) = victim {
            let victim_addr = self.line_addr(v.line);
            self.l1s[d].invalidate_span(victim_addr, self.cfg.l2.line_bytes);
            if v.dirty {
                self.bus.request_data(
                    Agent::Core(dest),
                    self.cfg.l2.line_bytes,
                    DataTxn::WbL3 {
                        line: v.line,
                        from: dest,
                    },
                );
            }
            self.events.push(MemEvent::LineEvicted {
                core: dest,
                line_addr: victim_addr,
                dirty: v.dirty,
            });
        }
        self.events.push(MemEvent::LineFilled {
            core: dest,
            line_addr: self.line_addr(line),
            forwarded,
        });
        self.checker.on_line_filled(dest, line);
        if !forwarded {
            // Forward pushes are unsolicited; everything else answers a
            // registered split-transaction request.
            self.checker.on_addr_response(now, dest, line);
        }
        self.audit_line_states(line, now);
        self.resolve_waiters(dest, line, now);
    }

    /// Cross-L2 coherence census for `line`, reported to the machine
    /// checker, which applies the active protocol's invariant table.
    fn audit_line_states(&self, line: u64, now: Cycle) {
        if !self.checker.is_enabled() {
            return;
        }
        let count = |state| {
            let holds = |l2: &&L2Ctl| l2.probe(line) == Some(state);
            self.l2s.iter().filter(holds).count() as u32
        };
        self.checker.coherence_states(
            now,
            line,
            count(LineState::Modified),
            count(LineState::Exclusive),
            count(LineState::Shared),
            count(LineState::SharedModified),
        );
    }

    /// Satisfies operations that were waiting on `line` at fill/upgrade
    /// time (MSHR refill semantics): stores perform immediately and loads
    /// sample their value, before any later snoop can steal the line.
    /// Operations resolve in OzQ (program) order so same-core
    /// store-then-load sequences observe their own writes.
    fn resolve_waiters(&mut self, core: CoreId, line: u64, now: Cycle) {
        let mut waiters = std::mem::take(&mut self.waiter_scratch);
        waiters.clear();
        self.l2s[core.index()].drain_line_waiters(line, now, &mut waiters);
        for &w in &waiters {
            match w.kind {
                EntryKind::Store { value, .. } => {
                    self.perform_store(core, w.id, w.addr, value, w.background, now);
                }
                EntryKind::Load => {
                    self.complete_load(core, w.id, w.addr, w.background, w.gated, now);
                }
                EntryKind::Forward { .. } => unreachable!("forwards never wait on lines"),
            }
        }
        self.waiter_scratch = waiters;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemSystem {
        MemSystem::new(MemConfig::itanium2_cmp()).unwrap()
    }

    /// Runs the system until the given token completes, returning
    /// (completion cycle, value).
    fn run_until_complete(
        m: &mut MemSystem,
        core: CoreId,
        token: MemToken,
        start: u64,
        limit: u64,
    ) -> (u64, Option<u64>) {
        for t in start..start + limit {
            let now = Cycle::new(t);
            m.tick(now);
            for c in m.drain_completions(core, now) {
                if c.token == token {
                    return (t, c.value);
                }
            }
        }
        panic!("operation did not complete within {limit} cycles");
    }

    #[test]
    fn deadlock_dump_lists_busy_lines_ascending() {
        let mut m = sys();
        m.busy_lines.insert(0x4000, ());
        m.busy_lines.insert(0x80, ());
        let dump = m.debug_state();
        assert!(
            dump.contains("busy_lines=[128, 16384] "),
            "busy lines not ascending in:\n{dump}"
        );
    }

    #[test]
    fn cold_load_misses_to_dram_and_returns_value() {
        let mut m = sys();
        let a = Addr::new(0x10000);
        m.func_mem_mut().write(a, 1234);
        let tok = match m.submit(CoreId(0), MemOp::load(a), Cycle::new(0)) {
            Submit::Accepted(t) => t,
            other => panic!("expected acceptance, got {other:?}"),
        };
        let (t, v) = run_until_complete(&mut m, CoreId(0), tok, 0, 400);
        assert_eq!(v, Some(1234));
        // L2 miss -> bus -> L3 miss -> DRAM (141) -> back: > 160 cycles.
        assert!(t > 160, "completed unrealistically fast at {t}");
        assert_eq!(m.stats().dram_accesses, 1);
    }

    #[test]
    fn second_load_hits_l1() {
        let mut m = sys();
        let a = Addr::new(0x2000);
        let tok = match m.submit(CoreId(0), MemOp::load(a), Cycle::new(0)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let (t, _) = run_until_complete(&mut m, CoreId(0), tok, 0, 400);
        match m.submit(CoreId(0), MemOp::load(a), Cycle::new(t + 1)) {
            Submit::L1Hit { at, .. } => assert_eq!(at, Cycle::new(t + 2)),
            other => panic!("expected L1 hit, got {other:?}"),
        }
    }

    /// A refused operation is not an event (DESIGN §6c): with the OzQ
    /// full, a load that misses the L1 and a store to a resident line
    /// are refused before either touches the L1, so they count no
    /// access, move no line in the LRU order and emit no `CacheAccess`.
    #[test]
    fn a_refused_operation_leaves_the_l1_untouched() {
        let mut m = sys();
        let now = Cycle::new(0);
        // Four lines of one 4-way L1 set (64 sets of 64 B): `set[0]` is
        // the least recently used.
        let set: Vec<Addr> = (0..4).map(|k| Addr::new(0x10000 + k * 4096)).collect();
        for &a in &set {
            m.l1s[0].fill(a);
        }
        let mut next = 0x100000;
        while m.free_slots(CoreId(0)) > 0 {
            let op = MemOp::load(Addr::new(next));
            assert!(matches!(m.submit(CoreId(0), op, now), Submit::Accepted(_)));
            next += 128;
        }
        let before = m.stats();
        let tracer = Tracer::recording();
        m.set_tracer(tracer.clone());
        let refused = [MemOp::load(Addr::new(next)), MemOp::store(set[0], 7)];
        for op in refused {
            let outcome = m.submit(CoreId(0), op, now);
            assert_eq!(outcome, Submit::Rejected(RejectReason::OzqFull));
        }
        let after = m.stats();
        assert_eq!(
            (after.l1_hits, after.l1_misses),
            (before.l1_hits, before.l1_misses)
        );
        let events = tracer.take_events();
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, TraceEvent::CacheAccess { .. })),
            "{events:?}"
        );
        // The refused store did not make `set[0]` recently used: the
        // next line into the set still evicts it.
        m.l1s[0].fill(Addr::new(0x10000 + 4 * 4096));
        assert!(!m.l1s[0].holds(set[0]));
        assert!(set[1..].iter().all(|&a| m.l1s[0].holds(a)));
    }

    #[test]
    fn store_performs_and_updates_functional_memory() {
        let mut m = sys();
        let a = Addr::new(0x3000);
        let tok = match m.submit(CoreId(0), MemOp::store(a, 77), Cycle::new(0)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let _ = run_until_complete(&mut m, CoreId(0), tok, 0, 400);
        assert_eq!(m.func_mem().read(a), 77);
        let evs: Vec<_> = m.drain_events();
        assert!(evs
            .iter()
            .any(|e| matches!(e, MemEvent::StorePerformed { value: 77, .. })));
    }

    #[test]
    fn producer_store_invalidates_consumer_copy() {
        let mut m = sys();
        let a = Addr::new(0x4000);
        // Consumer (core 1) reads the line first.
        let t1 = match m.submit(CoreId(1), MemOp::load(a), Cycle::new(0)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let (end, _) = run_until_complete(&mut m, CoreId(1), t1, 0, 400);
        assert!(m.l2_has_line(CoreId(1), a));
        m.drain_events();
        // Producer (core 0) stores: must invalidate consumer's copy.
        let t0 = match m.submit(CoreId(0), MemOp::store(a, 5), Cycle::new(end + 1)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let _ = run_until_complete(&mut m, CoreId(0), t0, end + 1, 600);
        assert!(!m.l2_has_line(CoreId(1), a));
        // And the consumer's next load must see the new value.
        let t2 = match m.submit(CoreId(1), MemOp::load(a), Cycle::new(end + 300)) {
            Submit::Accepted(t) => t,
            Submit::L1Hit { .. } => panic!("consumer copy should be invalid"),
            _ => panic!(),
        };
        let (_, v) = run_until_complete(&mut m, CoreId(1), t2, end + 300, 600);
        assert_eq!(v, Some(5));
    }

    #[test]
    fn modified_line_supplied_cache_to_cache() {
        let mut m = sys();
        let a = Addr::new(0x5000);
        let t0 = match m.submit(CoreId(0), MemOp::store(a, 9), Cycle::new(0)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let (end, _) = run_until_complete(&mut m, CoreId(0), t0, 0, 400);
        let drams = m.stats().dram_accesses;
        // Consumer load: owner must supply without a fresh DRAM trip.
        let t1 = match m.submit(CoreId(1), MemOp::load(a), Cycle::new(end + 1)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let (t, v) = run_until_complete(&mut m, CoreId(1), t1, end + 1, 400);
        assert_eq!(v, Some(9));
        assert_eq!(m.stats().dram_accesses, drams, "no extra DRAM access");
        // Cache-to-cache is much faster than DRAM.
        assert!(t - end < 100, "c2c transfer took {} cycles", t - end);
    }

    #[test]
    fn gated_op_waits_for_release() {
        let mut m = sys();
        let a = Addr::new(0x6000);
        let tok = match m.submit(CoreId(0), MemOp::store(a, 3).gated(), Cycle::new(0)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        for t in 0..50 {
            m.tick(Cycle::new(t));
            assert!(m.drain_completions(CoreId(0), Cycle::new(t)).is_empty());
        }
        assert_eq!(m.location(tok), Some(OpLocation::Dormant));
        assert!(m.release(tok, Cycle::new(50)));
        let (_, _) = run_until_complete(&mut m, CoreId(0), tok, 50, 400);
        assert_eq!(m.func_mem().read(a), 3);
    }

    #[test]
    fn ozq_fills_up_and_rejects() {
        let mut m = sys();
        let mut accepted = 0;
        loop {
            match m.submit(
                CoreId(0),
                MemOp::load(Addr::new(0x100000 + accepted * 0x1000)),
                Cycle::new(0),
            ) {
                Submit::Accepted(_) => accepted += 1,
                Submit::Rejected(RejectReason::OzqFull) => break,
                Submit::L1Hit { .. } => panic!("cold loads cannot hit"),
            }
            assert!(accepted <= 16, "OzQ should cap at 16");
        }
        assert_eq!(accepted, 16);
    }

    #[test]
    fn forward_moves_line_ownership() {
        let mut m = sys();
        let a = Addr::new(0x7000);
        // Producer dirties the line.
        let t0 = match m.submit(CoreId(0), MemOp::store(a, 11), Cycle::new(0)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let (end, _) = run_until_complete(&mut m, CoreId(0), t0, 0, 400);
        m.drain_events();
        assert!(m.forward_line(CoreId(0), CoreId(1), a, Cycle::new(end + 1)));
        let mut done = false;
        for t in end + 1..end + 200 {
            m.tick(Cycle::new(t));
            for e in m.drain_events() {
                if let MemEvent::ForwardDone { from, to, .. } = e {
                    assert_eq!((from, to), (CoreId(0), CoreId(1)));
                    done = true;
                }
            }
            if done {
                break;
            }
        }
        assert!(done, "forward never completed");
        assert!(!m.l2_has_line(CoreId(0), a), "producer keeps ownership");
        assert!(m.l2_has_line(CoreId(1), a), "consumer should own the line");
        assert_eq!(m.stats().forwards, 1);
        // Consumer load now hits its own L2 (no bus transaction).
        let t1 = match m.submit(CoreId(1), MemOp::load(a), Cycle::new(end + 200)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let (t, v) = run_until_complete(&mut m, CoreId(1), t1, end + 200, 100);
        assert_eq!(v, Some(11));
        assert!(t - (end + 200) < 20, "local L2 hit expected");
    }

    #[test]
    fn ctl_message_is_delivered() {
        let mut m = sys();
        m.send_ctl(
            CoreId(1),
            CoreId(0),
            CtlPayload {
                kind: 2,
                a: 7,
                b: 16,
            },
        );
        let mut seen = false;
        for t in 0..20 {
            m.tick(Cycle::new(t));
            for e in m.drain_events() {
                if let MemEvent::CtlDelivered { payload, .. } = e {
                    assert_eq!(payload.b, 16);
                    seen = true;
                }
            }
        }
        assert!(seen);
    }

    #[test]
    fn is_idle_lifecycle() {
        let mut m = sys();
        assert!(m.is_idle());
        let _ = m.submit(CoreId(0), MemOp::load(Addr::new(0x8000)), Cycle::new(0));
        assert!(!m.is_idle());
        for t in 0..500 {
            let now = Cycle::new(t);
            m.tick(now);
            let _ = m.drain_completions(CoreId(0), now);
        }
        assert!(m.is_idle());
    }

    #[test]
    fn release_store_waits_for_earlier_operations() {
        let mut m = sys();
        // A slow load (cold miss to DRAM) followed by a release store to
        // a different line: the store must not perform before the load.
        let load_tok = match m.submit(CoreId(0), MemOp::load(Addr::new(0x40000)), Cycle::new(0)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let rel_tok = match m.submit(
            CoreId(0),
            MemOp::store(Addr::new(0x50000), 1).release_store(),
            Cycle::new(0),
        ) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let mut load_done = None;
        let mut store_done = None;
        for t in 0..2000 {
            let now = Cycle::new(t);
            m.tick(now);
            for c in m.drain_completions(CoreId(0), now) {
                if c.token == load_tok {
                    load_done = Some(t);
                }
                if c.token == rel_tok {
                    store_done = Some(t);
                }
            }
            if load_done.is_some() && store_done.is_some() {
                break;
            }
        }
        let (l, s) = (load_done.expect("load"), store_done.expect("store"));
        assert!(
            s >= l,
            "release store performed at {s}, before the earlier load at {l}"
        );
    }

    #[test]
    fn plain_store_can_pass_a_slow_load() {
        let mut m = sys();
        let load_tok = match m.submit(CoreId(0), MemOp::load(Addr::new(0x60000)), Cycle::new(0)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        // Warm the store's line first so the store is a fast L2 hit...
        // it is cold too, but to separate lines both go to DRAM; the
        // store (no release) may complete in any order. Just assert both
        // complete and the machine stays consistent.
        let st_tok = match m.submit(
            CoreId(0),
            MemOp::store(Addr::new(0x70000), 2),
            Cycle::new(0),
        ) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let mut done = 0;
        for t in 0..2000 {
            let now = Cycle::new(t);
            m.tick(now);
            for c in m.drain_completions(CoreId(0), now) {
                if c.token == load_tok || c.token == st_tok {
                    done += 1;
                }
            }
            if done == 2 {
                break;
            }
        }
        assert_eq!(done, 2);
        assert_eq!(m.func_mem().read(Addr::new(0x70000)), 2);
    }

    #[test]
    fn concurrent_same_line_requests_serialize() {
        let mut m = sys();
        let a = Addr::new(0x9000);
        let t0 = match m.submit(CoreId(0), MemOp::store(a, 1), Cycle::new(0)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let t1 = match m.submit(CoreId(1), MemOp::store(a + 8, 2), Cycle::new(0)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let mut done = [false, false];
        for t in 0..2000 {
            let now = Cycle::new(t);
            m.tick(now);
            for c in m.drain_completions(CoreId(0), now) {
                if c.token == t0 {
                    done[0] = true;
                }
            }
            for c in m.drain_completions(CoreId(1), now) {
                if c.token == t1 {
                    done[1] = true;
                }
            }
            if done == [true, true] {
                break;
            }
        }
        assert_eq!(done, [true, true], "conflicting stores must both finish");
        assert_eq!(m.func_mem().read(a), 1);
        assert_eq!(m.func_mem().read(a + 8), 2);
        // Exactly one core may own the line at the end.
        let owners =
            u32::from(m.l2_has_line(CoreId(0), a)) + u32::from(m.l2_has_line(CoreId(1), a));
        assert_eq!(owners, 1);
    }

    // --- snoop-supply dirty-data regressions (machine-check audited) ---

    fn checked_sys() -> (MemSystem, Checker) {
        let mut m = sys();
        let checker = Checker::with_level(hfs_check::CheckLevel::Full);
        m.set_checker(checker.clone());
        (m, checker)
    }

    fn assert_clean(checker: &Checker) {
        assert_eq!(
            checker.violation_count(),
            0,
            "machine-check violations: {:?}",
            checker.violations()
        );
    }

    /// `snoop_rd` downgrades a dirty owner to Shared when it supplies the
    /// line cache-to-cache. The owner must then *re-upgrade* before its
    /// next store — a model that left the stale Modified tag in place
    /// would let two incoherent writers coexist. The attached checker's
    /// MSI census audits every intermediate state, and the differential
    /// data check replays each load against the golden memory.
    #[test]
    fn snoop_supply_downgrade_forces_reupgrade() {
        let (mut m, checker) = checked_sys();
        let a = Addr::new(0xA000);
        let t0 = match m.submit(CoreId(0), MemOp::store(a, 1), Cycle::new(0)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let (end, _) = run_until_complete(&mut m, CoreId(0), t0, 0, 600);
        // Dirty snoop-supply: core 1's load downgrades core 0 to Shared.
        let t1 = match m.submit(CoreId(1), MemOp::load(a), Cycle::new(end + 1)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let (end, v) = run_until_complete(&mut m, CoreId(1), t1, end + 1, 600);
        assert_eq!(v, Some(1), "supplied data must be the dirty value");
        assert!(m.l2_has_line(CoreId(0), a) && m.l2_has_line(CoreId(1), a));
        // The downgraded owner stores again: must upgrade and invalidate
        // the other Shared copy, not silently write as if still Modified.
        let t2 = match m.submit(CoreId(0), MemOp::store(a, 2), Cycle::new(end + 1)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let (end, _) = run_until_complete(&mut m, CoreId(0), t2, end + 1, 600);
        assert!(
            !m.l2_has_line(CoreId(1), a),
            "Shared copy must be invalidated"
        );
        let t3 = match m.submit(CoreId(1), MemOp::load(a), Cycle::new(end + 1)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let (_, v) = run_until_complete(&mut m, CoreId(1), t3, end + 1, 600);
        assert_eq!(v, Some(2));
        assert_clean(&checker);
    }

    /// The dirty snoop-supply's write-back must be *visible* toward the
    /// outer hierarchy: when the owner supplies a Modified line, the L3
    /// installs a clean shadow copy, so a later sharer is served on-chip
    /// rather than reading a stale word from DRAM.
    #[test]
    fn snoop_supply_writes_back_into_l3() {
        let mut cfg = MemConfig::itanium2_cmp();
        cfg.cores = 4;
        let mut m = MemSystem::new(cfg).unwrap();
        let checker = Checker::with_level(hfs_check::CheckLevel::Full);
        m.set_checker(checker.clone());
        let a = Addr::new(0xB000);
        let t0 = match m.submit(CoreId(0), MemOp::store(a, 7), Cycle::new(0)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let (end, _) = run_until_complete(&mut m, CoreId(0), t0, 0, 600);
        let t1 = match m.submit(CoreId(1), MemOp::load(a), Cycle::new(end + 1)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let (end, v) = run_until_complete(&mut m, CoreId(1), t1, end + 1, 600);
        assert_eq!(v, Some(7));
        let drams = m.stats().dram_accesses;
        // A third sharer: the line now lives in two L2s and (clean) in
        // the L3. No path may need a fresh DRAM trip.
        let t2 = match m.submit(CoreId(2), MemOp::load(a), Cycle::new(end + 1)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let (_, v) = run_until_complete(&mut m, CoreId(2), t2, end + 1, 600);
        assert_eq!(v, Some(7));
        assert_eq!(m.stats().dram_accesses, drams, "write-back must be on-chip");
        assert_clean(&checker);
    }

    /// `forward_complete` retires the producer-side OzQ entry when a
    /// write-forward lands in the consumer's L2; the per-cycle OzQ
    /// conservation audit proves no slot leaks, and the consumer's next
    /// load of the line hits locally with the forwarded data.
    #[test]
    fn forward_complete_retires_ozq_and_delivers_data() {
        let (mut m, checker) = checked_sys();
        let a = Addr::new(0xC000);
        let t0 = match m.submit(CoreId(0), MemOp::store(a, 99), Cycle::new(0)) {
            Submit::Accepted(t) => t,
            _ => panic!(),
        };
        let (end, _) = run_until_complete(&mut m, CoreId(0), t0, 0, 600);
        assert!(m.forward_line(CoreId(0), CoreId(1), a, Cycle::new(end + 1)));
        let mut done_at = None;
        for t in end + 1..end + 600 {
            m.tick(Cycle::new(t));
            for e in m.drain_events() {
                if matches!(e, MemEvent::ForwardDone { .. }) {
                    done_at = Some(t);
                }
            }
            if done_at.is_some() {
                break;
            }
        }
        let end = done_at.expect("forward completes");
        assert!(m.l2_has_line(CoreId(1), a), "forward must install the line");
        let t1 = match m.submit(CoreId(1), MemOp::load(a), Cycle::new(end + 1)) {
            Submit::Accepted(t) => t,
            Submit::L1Hit { value, .. } => {
                assert_eq!(value, 99);
                assert_clean(&checker);
                return;
            }
            other => panic!("unexpected submit outcome {other:?}"),
        };
        let (_, v) = run_until_complete(&mut m, CoreId(1), t1, end + 1, 600);
        assert_eq!(v, Some(99));
        assert_clean(&checker);
    }

    /// The stamp folded from scratch: each L2's, the bus's and the L3's
    /// clamped `next_event`, `NEVER` when none has one.
    fn brute_force_work(m: &MemSystem, now: Cycle) -> Cycle {
        let l2s = m.l2s.iter().map(|l2| l2.next_event(now));
        let outer = [m.bus.next_event(now), m.l3.next_event(now)];
        l2s.chain(outer).flatten().fold(NEVER, Cycle::min)
    }

    /// Drives two systems with one seeded script of loads, stores and
    /// release stores from both cores, gated submits and their releases,
    /// forwards and control messages, in phases from busy to silent, on
    /// a bus clocked at `divider`. `fast` is the system as built; `slow`
    /// has its stamp pulled back to `now` before every tick, so it runs
    /// every step on every cycle. Most cycles the calls follow the tick,
    /// as in the machine's loop; some precede it. Every cycle both must
    /// agree on completions, events, statistics, counters and
    /// `next_event`, and the stamp must equal the brute-force fold of
    /// the components' bounds. Returns (quiet ticks, releases that
    /// lowered a stamp that lay past the next cycle).
    fn run_stamp_script(protocol: crate::Protocol, divider: u64, seed: u64) -> (u64, u64) {
        let mut rng = hfs_sim::Rng64::new(seed);
        let build = || {
            let mut cfg = MemConfig::itanium2_cmp();
            cfg.protocol = protocol;
            cfg.bus.clock_divider = divider;
            MemSystem::new(cfg).unwrap()
        };
        let (mut fast, mut slow) = (build(), build());
        let mut gated: Vec<MemToken> = Vec::new();
        let (mut quiet, mut late_releases) = (0u64, 0u64);
        // Chance in 16 that a core submits this cycle.
        let mut rate = 0;
        for t in 0..4_000u64 {
            let now = Cycle::new(t);
            let next = now.next();
            if t % 200 == 0 {
                rate = [0, 0, 1, 4, 12][rng.below(5) as usize];
            }
            let calls_first = rng.below(4) == 0;
            let mut tick = |fast: &mut MemSystem, slow: &mut MemSystem| {
                quiet += u64::from(fast.work_at > now);
                slow.work_at = slow.work_at.min(now);
                fast.tick(now);
                slow.tick(now);
            };
            if !calls_first {
                tick(&mut fast, &mut slow);
            }
            // Every call goes to both systems.
            macro_rules! both {
                ($m:ident => $call:expr) => {{
                    let a = {
                        let $m = &mut fast;
                        $call
                    };
                    let b = {
                        let $m = &mut slow;
                        $call
                    };
                    assert_eq!(a, b, "cycle {t}");
                    a
                }};
            }
            for c in 0..2u8 {
                if rng.below(16) >= rate {
                    continue;
                }
                let addr = Addr::new(0x20000 + rng.below(12) * 128 + 8 * rng.below(16));
                let mut op = match rng.below(8) {
                    0..=3 => MemOp::load(addr),
                    4..=5 => MemOp::store(addr, t),
                    _ => MemOp::store(addr, t).release_store(),
                };
                let gate = rng.below(4) == 0;
                if gate {
                    op = op.gated();
                }
                if let Submit::Accepted(tok) = both!(m => m.submit(CoreId(c), op, now)) {
                    if gate {
                        gated.push(tok);
                    }
                }
            }
            if !gated.is_empty() && rng.below(24) == 0 {
                let tok = gated.swap_remove(rng.below(gated.len() as u64) as usize);
                late_releases += u64::from(fast.work_at > next);
                both!(m => m.release(tok, now));
            }
            if rng.below(64) == 0 {
                let from = CoreId(rng.below(2) as u8);
                let to = CoreId(1 - from.0);
                let line = Addr::new(0x20000 + rng.below(12) * 128);
                both!(m => m.forward_line(from, to, line, now));
            }
            if rng.below(48) == 0 {
                let from = CoreId(rng.below(2) as u8);
                let payload = CtlPayload {
                    kind: 2,
                    a: t as u32,
                    b: 0,
                };
                both!(m => m.send_ctl(from, CoreId(1 - from.0), payload));
            }
            if calls_first {
                tick(&mut fast, &mut slow);
            }
            for c in 0..2 {
                let done = fast.drain_completions(CoreId(c), now);
                assert_eq!(done, slow.drain_completions(CoreId(c), now), "cycle {t}");
            }
            assert_eq!(fast.next_event(now), slow.next_event(now), "cycle {t}");
            assert_eq!(fast.drain_events(), slow.drain_events(), "cycle {t}");
            assert_eq!(fast.stats(), slow.stats(), "cycle {t}");
            assert_eq!(fast.counters(), slow.counters(), "cycle {t}");
            let exact = brute_force_work(&slow, now);
            assert_eq!(fast.work_at.max(next), exact.max(next), "cycle {t}");
            assert_eq!(slow.work_at.max(next), exact.max(next), "cycle {t}");
        }
        (quiet, late_releases)
    }

    #[test]
    fn the_stamp_is_the_components_fold_and_quiet_ticks_change_nothing() {
        for protocol in crate::Protocol::ALL {
            let (mut quiet, mut late_releases) = (0, 0);
            for seed in 0..4 {
                let divider = [1, 3][seed as usize % 2];
                let (q, r) = run_stamp_script(protocol, divider, 0x5a3c + seed);
                quiet += q;
                late_releases += r;
            }
            // The script must reach what it is there to check.
            assert!(quiet > 5_000, "{protocol}: {quiet} quiet ticks");
            assert!(
                late_releases > 100,
                "{protocol}: {late_releases} late releases"
            );
        }
    }

    /// `counters()` names every count once, and every `MemStats` and
    /// `BusStats` field (destructured, so a new field must be named
    /// here) equals the counter under its name.
    #[test]
    fn counters_name_each_stats_field_once() {
        for protocol in crate::Protocol::ALL {
            let mut cfg = MemConfig::itanium2_cmp();
            cfg.protocol = protocol;
            let mut m = MemSystem::new(cfg).unwrap();
            let step = |m: &mut MemSystem, t: u64| {
                m.tick(Cycle::new(t));
                for c in 0..2 {
                    m.drain_completions(CoreId(c), Cycle::new(t));
                }
                m.drain_events();
            };
            // Loads and stores from both cores over four shared lines.
            let mut now = 0;
            for i in 0..64u64 {
                let a = Addr::new(0x9000 + (i % 4) * 128);
                let op = if i % 3 == 0 {
                    MemOp::store(a, i)
                } else {
                    MemOp::load(a)
                };
                step(&mut m, now);
                while let Submit::Rejected(_) = m.submit(CoreId((i % 2) as u8), op, Cycle::new(now))
                {
                    now += 1;
                    step(&mut m, now);
                }
                now += 1;
            }
            // A dirty line forwarded to the other core, and a control
            // message.
            let a = Addr::new(0xa000);
            let tok = loop {
                step(&mut m, now);
                now += 1;
                if let Submit::Accepted(t) =
                    m.submit(CoreId(0), MemOp::store(a, 1), Cycle::new(now))
                {
                    break t;
                }
            };
            let (end, _) = run_until_complete(&mut m, CoreId(0), tok, now, 2000);
            assert!(m.forward_line(CoreId(0), CoreId(1), a, Cycle::new(end + 1)));
            m.send_ctl(
                CoreId(1),
                CoreId(0),
                CtlPayload {
                    kind: 2,
                    a: 0,
                    b: 0,
                },
            );
            now = end + 1;
            while !m.is_idle() {
                step(&mut m, now);
                now += 1;
                assert!(now < end + 5000, "{protocol}: the run drains");
            }

            let named: Vec<(&str, u64)> =
                m.counters().iter().map(|c| (c.name(), c.value())).collect();
            let mut names: Vec<&str> = named.iter().map(|&(n, _)| n).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), named.len(), "{protocol}: a name repeats");
            let MemStats {
                l1_hits,
                l1_misses,
                l2_accesses,
                l2_port_conflicts,
                dram_accesses,
                bus,
                forwards,
                updates,
            } = m.stats();
            let BusStats {
                addr_phases,
                data_transfers,
                data_busy_cycles,
                ctl_delivered,
            } = bus;
            for (name, value) in [
                ("mem.l1_hits", l1_hits),
                ("mem.l1_misses", l1_misses),
                ("mem.l2_accesses", l2_accesses),
                ("mem.l2_port_conflicts", l2_port_conflicts),
                ("mem.dram_accesses", dram_accesses),
                ("mem.forwards", forwards),
                ("mem.updates", updates),
                ("bus.addr_phases", addr_phases),
                ("bus.data_transfers", data_transfers),
                ("bus.data_busy_cycles", data_busy_cycles),
                ("bus.ctl_delivered", ctl_delivered),
            ] {
                let got = named.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v);
                assert_eq!(got, Some(value), "{protocol}: {name}");
            }
            assert_eq!((forwards, ctl_delivered), (1, 1), "{protocol}");
            assert!(
                l1_hits + l1_misses > 0 && addr_phases > 0 && l2_accesses > 0,
                "{protocol}"
            );
        }
    }
}
