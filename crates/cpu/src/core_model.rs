//! The in-order core pipeline model.

use std::cell::Cell;
use std::collections::VecDeque;

use hfs_isa::{CoreId, DynInstr, DynOp, FuClass, InstrKind, Reg, Sequencer, SpinToken};
use hfs_mem::{MemOp, MemSystem, MemToken, Submit};
use hfs_sim::stats::{Breakdown, StallComponent};
use hfs_sim::{fold_bound, Cycle, TimedQueue};
use hfs_trace::{CoreActivity, TraceEvent, Tracer};

use crate::config::CoreConfig;
use crate::port::{StreamPort, StreamSubmit, StreamToken};

/// Sentinel for "register busy until an asynchronous completion".
const PENDING: Cycle = Cycle::new(u64::MAX / 2);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Executing on a functional unit or already finished; commits once
    /// `done` has passed.
    Done { done: Cycle },
    /// Waiting on the memory system.
    WaitMem { token: MemToken },
    /// Waiting on the streaming hardware.
    WaitStream { token: StreamToken },
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    instr: DynInstr,
    status: Status,
}

/// Per-core execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Total cycles the core was ticked until it finished.
    pub cycles: u64,
    /// Committed application instructions.
    pub app_instrs: u64,
    /// Committed communication/synchronization instructions.
    pub comm_instrs: u64,
    /// Figure 7 stall breakdown (busy + six components).
    pub breakdown: Breakdown,
    /// Issue attempts refused because the OzQ was full.
    pub ozq_stalls: u64,
    /// Issue attempts refused by blocked streaming hardware.
    pub stream_blocked: u64,
}

impl CoreStats {
    /// Committed instructions of both kinds.
    pub fn total_instrs(&self) -> u64 {
        self.app_instrs + self.comm_instrs
    }

    /// Dynamic communication-to-application instruction ratio (Figure 8).
    pub fn comm_ratio(&self) -> f64 {
        if self.app_instrs == 0 {
            0.0
        } else {
            self.comm_instrs as f64 / self.app_instrs as f64
        }
    }
}

/// One in-order core executing a [`Sequencer`]'s instruction stream.
///
/// Drive it by calling [`Core::tick`] once per cycle with the shared
/// memory system and the design's stream port; check [`Core::finished`].
#[derive(Debug)]
pub struct Core {
    id: CoreId,
    cfg: CoreConfig,
    reg_ready: [Cycle; Reg::COUNT],
    window: VecDeque<InFlight>,
    spin_deliveries: TimedQueue<(SpinToken, u64)>,
    stats: CoreStats,
    tracer: Tracer,
    /// Last cycle this core committed at least one instruction (folded
    /// ones included) — drives the machine's strided deadlock detector.
    last_commit: Cycle,
    /// Per-tick scratch buffers, reused every cycle so draining
    /// completions allocates nothing in steady state
    /// (`tests/cost.rs::a_run_allocates_the_same_at_any_length`).
    mem_scratch: Vec<hfs_mem::Completion>,
    stream_scratch: Vec<crate::StreamCompletion>,
    /// The structural block the issue stage hit on the last tick, if
    /// any; fast-forward charges the re-attempts it skips to the stall
    /// counter the block names.
    blocked: Option<BlockedAttempt>,
    /// The stall component last derived for a memory operation, with
    /// the operation and its L2's [`MemSystem::location_moves`] count at
    /// the time: while both match, the component still holds and a
    /// waiting cycle reads it instead of searching the OzQ again.
    mem_stall: Cell<Option<(MemToken, u64, StallComponent)>>,
}

/// An issue attempt refused by structural back-pressure. A refused
/// attempt leaves nothing behind outside the core (DESIGN §6c), so while
/// the block persists each re-attempt only bumps the stall counter its
/// variant names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockedAttempt {
    /// A load or store the OzQ refused (`ozq_stalls`).
    Ozq,
    /// A produce/consume the streaming hardware refused (`stream_blocked`).
    Stream,
}

impl Core {
    /// Creates a core.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreConfig::validate`] failures.
    pub fn new(id: CoreId, cfg: CoreConfig) -> Result<Self, hfs_sim::ConfigError> {
        cfg.validate()?;
        Ok(Core {
            id,
            cfg,
            reg_ready: [Cycle::ZERO; Reg::COUNT],
            window: VecDeque::new(),
            spin_deliveries: TimedQueue::new(),
            stats: CoreStats::default(),
            tracer: Tracer::disabled(),
            last_commit: Cycle::ZERO,
            mem_scratch: Vec::new(),
            stream_scratch: Vec::new(),
            blocked: None,
            mem_stall: Cell::new(None),
        })
    }

    /// Installs a tracer handle.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Whether the program has fully committed.
    pub fn finished(&self, seq: &Sequencer) -> bool {
        seq.finished() && self.window.is_empty()
    }

    /// Last cycle this core committed an instruction (folded queue
    /// operations included). Feeds the machine's deadlock detector.
    pub fn last_commit(&self) -> Cycle {
        self.last_commit
    }

    /// Conservative lower bound on the next cycle this core could act on
    /// its own: deliver a spin value, commit the window front, or attempt
    /// an issue. `None` means progress depends entirely on external
    /// completions, whose timing the memory system's and backend's own
    /// bounds cover. An issue stage blocked by structural back-pressure
    /// waits on the component that holds the block: its re-attempts
    /// repeat identically and leave nothing behind but the stall counter
    /// that [`Core::charge_idle`] charges.
    pub fn next_event(&self, now: Cycle, seq: &mut Sequencer) -> Option<Cycle> {
        let mut best = None;
        if let Some(t) = self.spin_deliveries.next_ready() {
            fold_bound(&mut best, now, t);
        }
        if let Some(e) = self.window.front() {
            if let Status::Done { done } = e.status {
                fold_bound(&mut best, now, done);
            }
        }
        if self.window.len() < self.cfg.window as usize && self.blocked.is_none() {
            if let Some(instr) = seq.peek() {
                let mut ready = Cycle::ZERO;
                let mut pending = false;
                for r in instr.srcs.iter().flatten() {
                    let t = self.reg_ready[r.index()];
                    if t == PENDING {
                        pending = true;
                    } else {
                        ready = ready.max(t);
                    }
                }
                if !pending {
                    fold_bound(&mut best, now, ready);
                }
            }
        }
        best
    }

    /// Advances the core one cycle.
    pub fn tick(
        &mut self,
        now: Cycle,
        seq: &mut Sequencer,
        mem: &mut MemSystem,
        stream: &mut dyn StreamPort,
    ) {
        self.stats.cycles += 1;
        self.blocked = None;

        // 1. Deliver spin values whose load data is now available.
        while let Some((tok, val)) = self.spin_deliveries.pop_ready(now) {
            seq.deliver_spin(tok, val);
        }

        // 2. Drain memory completions into the core-owned scratch (taken
        // out of `self` so the handling loop can borrow `self` mutably).
        let mut mcs = std::mem::take(&mut self.mem_scratch);
        mcs.clear();
        mem.drain_completions_into(self.id, now, &mut mcs);
        for &c in &mcs {
            if c.background {
                // Background operations belong to the streaming hardware.
                stream.on_mem_completion(c);
                continue;
            }
            if let Some(e) = self
                .window
                .iter_mut()
                .find(|e| e.status == (Status::WaitMem { token: c.token }))
            {
                e.status = Status::Done { done: c.at };
                if let (Some(dest), Some(_)) = (e.instr.dest, c.value) {
                    self.reg_ready[dest.index()] = c.at;
                }
                if let DynOp::Load {
                    spin: Some(tok), ..
                } = e.instr.op
                {
                    let v = c.value.expect("load completions carry values");
                    self.spin_deliveries.push(c.at, (tok, v));
                }
            }
        }
        self.mem_scratch = mcs;

        // 3. Drain streaming completions, same scratch discipline.
        let mut scs = std::mem::take(&mut self.stream_scratch);
        scs.clear();
        stream.poll(self.id, now, &mut scs);
        for &c in &scs {
            if let Some(e) = self
                .window
                .iter_mut()
                .find(|e| e.status == (Status::WaitStream { token: c.token }))
            {
                e.status = Status::Done { done: c.at };
                if let Some(dest) = e.instr.dest {
                    self.reg_ready[dest.index()] = c.at;
                }
            }
        }
        self.stream_scratch = scs;

        // 4. In-order commit. Register-mapped (folded) queue operations
        // ride other instructions, so they consume no commit bandwidth.
        let mut commits = 0;
        while commits < self.cfg.issue_width {
            match self.window.front() {
                Some(e) => match e.status {
                    Status::Done { done } if done <= now => {
                        let comm = match e.instr.kind {
                            InstrKind::App => {
                                self.stats.app_instrs += 1;
                                false
                            }
                            InstrKind::Comm => {
                                self.stats.comm_instrs += 1;
                                true
                            }
                        };
                        self.tracer.emit(|| TraceEvent::Issue {
                            core: self.id,
                            at: now.as_u64(),
                            comm,
                        });
                        let folded = self.cfg.free_queue_ops
                            && matches!(e.instr.op, DynOp::Produce { .. } | DynOp::Consume { .. });
                        self.window.pop_front();
                        self.last_commit = now;
                        if !folded {
                            commits += 1;
                        }
                    }
                    _ => break,
                },
                None => break,
            }
        }

        // 5. Issue.
        let mut issued = 0u32;
        let mut fu_used = [0u32; 4]; // IntAlu, Fp, Branch, Mem
        loop {
            if issued >= self.cfg.issue_width {
                break;
            }
            if self.window.len() >= self.cfg.window as usize {
                break;
            }
            let Some(instr) = seq.peek() else {
                break; // finished or blocked on a spin value
            };
            if !self.sources_ready(instr, now) {
                break; // in-order: a stalled instruction blocks later ones
            }
            let class = instr.op.fu_class();
            // Register-mapped queue operations ride existing
            // instructions: no issue slot, no memory port.
            let folded = self.cfg.free_queue_ops
                && matches!(instr.op, DynOp::Produce { .. } | DynOp::Consume { .. });
            let (slot, cap) = match class {
                FuClass::IntAlu => (0, self.cfg.int_alus),
                FuClass::Fp => (1, self.cfg.fp_units),
                FuClass::Branch => (2, self.cfg.branch_units),
                FuClass::Mem => (3, self.cfg.mem_ports),
            };
            if !folded && fu_used[slot] >= cap {
                break;
            }
            // Attempt the operation's side effects.
            let status = match instr.op {
                DynOp::IntAlu | DynOp::FpAlu | DynOp::Branch => Status::Done {
                    done: now + class.latency(),
                },
                DynOp::Load { addr, spin } => match mem.submit(self.id, MemOp::load(addr), now) {
                    Submit::L1Hit { value, at } => {
                        if let Some(tok) = spin {
                            self.spin_deliveries.push(at, (tok, value));
                        }
                        if let Some(dest) = instr.dest {
                            self.reg_ready[dest.index()] = at;
                        }
                        Status::Done { done: at }
                    }
                    Submit::Accepted(token) => {
                        if let Some(dest) = instr.dest {
                            self.reg_ready[dest.index()] = PENDING;
                        }
                        Status::WaitMem { token }
                    }
                    Submit::Rejected(_) => {
                        self.stats.ozq_stalls += 1;
                        self.blocked = Some(BlockedAttempt::Ozq);
                        break;
                    }
                },
                DynOp::Store {
                    addr,
                    value,
                    release,
                } => {
                    let mut op = MemOp::store(addr, value);
                    if release {
                        op = op.release_store();
                    }
                    match mem.submit(self.id, op, now) {
                        Submit::Accepted(_) => {
                            // Stores retire through the OzQ (store-buffer
                            // semantics); the instruction commits quickly.
                            Status::Done { done: now + 1 }
                        }
                        Submit::Rejected(_) => {
                            self.stats.ozq_stalls += 1;
                            self.blocked = Some(BlockedAttempt::Ozq);
                            break;
                        }
                        Submit::L1Hit { .. } => unreachable!("stores never L1-hit-complete"),
                    }
                }
                DynOp::Produce { q, value } => {
                    match stream.try_produce(mem, self.id, q, value, now) {
                        StreamSubmit::Done { at, .. } => Status::Done { done: at },
                        StreamSubmit::Pending(token) => Status::WaitStream { token },
                        StreamSubmit::Blocked => {
                            self.stats.stream_blocked += 1;
                            self.blocked = Some(BlockedAttempt::Stream);
                            break;
                        }
                    }
                }
                DynOp::Consume { q } => match stream.try_consume(mem, self.id, q, now) {
                    StreamSubmit::Done { at, .. } => {
                        if let Some(dest) = instr.dest {
                            self.reg_ready[dest.index()] = at;
                        }
                        Status::Done { done: at }
                    }
                    StreamSubmit::Pending(token) => {
                        if let Some(dest) = instr.dest {
                            self.reg_ready[dest.index()] = PENDING;
                        }
                        Status::WaitStream { token }
                    }
                    StreamSubmit::Blocked => {
                        self.stats.stream_blocked += 1;
                        self.blocked = Some(BlockedAttempt::Stream);
                        break;
                    }
                },
            };
            // For register-writing non-memory ops, publish readiness.
            if let Status::Done { done } = status {
                if let Some(dest) = instr.dest {
                    if !matches!(instr.op, DynOp::Load { .. } | DynOp::Consume { .. }) {
                        self.reg_ready[dest.index()] = done;
                    }
                }
            }
            let instr = seq.pop().expect("peeked above");
            self.window.push_back(InFlight { instr, status });
            if !folded {
                fu_used[slot] += 1;
                issued += 1;
            }
        }

        // 6. Stall attribution.
        if commits > 0 {
            self.stats.breakdown.charge_busy(1);
            self.tracer.emit(|| TraceEvent::CoreState {
                core: self.id,
                at: now.as_u64(),
                state: CoreActivity::Busy,
            });
        } else {
            let component = self.stall_component(now, mem, stream);
            self.stats.breakdown.charge(component, 1);
            self.tracer.emit(|| TraceEvent::CoreState {
                core: self.id,
                at: now.as_u64(),
                state: CoreActivity::Stall(component),
            });
        }
    }

    /// The stall component an idle (non-committing) cycle charges right
    /// now; exposed so the machine can bulk-charge fast-forwarded
    /// windows, during which the component cannot change.
    pub fn idle_component(
        &self,
        now: Cycle,
        mem: &MemSystem,
        stream: &dyn StreamPort,
    ) -> StallComponent {
        self.stall_component(now, mem, stream)
    }

    /// Accounts `cycles` fast-forwarded idle cycles in one step: the
    /// machine proved this core cannot commit or issue during them, so
    /// they all charge `component`, exactly as ticking each would have.
    pub fn charge_idle(&mut self, cycles: u64, component: StallComponent) {
        self.stats.cycles += cycles;
        self.stats.breakdown.charge(component, cycles);
        // A blocked issue attempt would have repeated (and been refused)
        // on every skipped cycle; account its stall counter in bulk.
        match self.blocked {
            Some(BlockedAttempt::Ozq) => self.stats.ozq_stalls += cycles,
            Some(BlockedAttempt::Stream) => self.stats.stream_blocked += cycles,
            None => {}
        }
    }

    /// Emits the `CoreState` trace event a live idle cycle would have
    /// produced at `at`, keeping fast-forwarded traces bit-identical.
    pub fn trace_idle(&self, at: Cycle, component: StallComponent) {
        self.tracer.emit(|| TraceEvent::CoreState {
            core: self.id,
            at: at.as_u64(),
            state: CoreActivity::Stall(component),
        });
    }

    fn sources_ready(&self, instr: &DynInstr, now: Cycle) -> bool {
        instr
            .srcs
            .iter()
            .flatten()
            .all(|r| self.reg_ready[r.index()] <= now)
    }

    fn stall_component(
        &self,
        now: Cycle,
        mem: &MemSystem,
        stream: &dyn StreamPort,
    ) -> StallComponent {
        match self.window.front() {
            None => StallComponent::PreL2,
            Some(e) => match e.status {
                Status::Done { done } => {
                    if done > now && matches!(e.instr.op.fu_class(), FuClass::Mem) {
                        StallComponent::PostL2
                    } else {
                        StallComponent::PreL2
                    }
                }
                Status::WaitMem { token } => self.mem_stall_component(mem, token),
                Status::WaitStream { token } => stream.location(mem, token),
            },
        }
    }

    /// The stall component of waiting on memory operation `token`,
    /// memoized on its L2's move count.
    fn mem_stall_component(&self, mem: &MemSystem, token: MemToken) -> StallComponent {
        let fresh = || {
            mem.location(token)
                .map_or(StallComponent::PostL2, |l| l.component())
        };
        let moves = mem.location_moves(token.core());
        if let Some((t, m, component)) = self.mem_stall.get() {
            if t == token && m == moves {
                debug_assert_eq!(component, fresh(), "stale stall memo for {token:?}");
                return component;
            }
        }
        let component = fresh();
        self.mem_stall.set(Some((token, moves, component)));
        component
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::NullStreamPort;
    use hfs_isa::{Addr, ProgramBuilder, RegionId};
    use hfs_mem::MemConfig;
    use std::collections::HashMap;

    fn mem() -> MemSystem {
        MemSystem::new(MemConfig::itanium2_cmp()).unwrap()
    }

    fn bases() -> HashMap<RegionId, Addr> {
        let mut m = HashMap::new();
        m.insert(RegionId(0), Addr::new(0x100000));
        m
    }

    fn run(prog: &hfs_isa::Program, limit: u64) -> (Core, Sequencer) {
        let mut seq = Sequencer::new(prog, &bases(), 0).unwrap();
        let mut core = Core::new(CoreId(0), CoreConfig::itanium2()).unwrap();
        let mut m = mem();
        let mut port = NullStreamPort;
        for t in 0..limit {
            let now = Cycle::new(t);
            m.tick(now);
            core.tick(now, &mut seq, &mut m, &mut port);
            if core.finished(&seq) {
                break;
            }
        }
        assert!(
            core.finished(&seq),
            "program did not finish in {limit} cycles"
        );
        (core, seq)
    }

    #[test]
    fn independent_alu_ops_reach_issue_width() {
        let prog = ProgramBuilder::new(100).alu_work(6).build();
        let (core, _) = run(&prog, 10_000);
        let s = core.stats();
        assert_eq!(s.total_instrs(), 600);
        // 6-wide: ~1 iteration per cycle (plus pipeline fill).
        assert!(s.cycles < 130, "took {} cycles", s.cycles);
    }

    #[test]
    fn dependent_chain_serializes() {
        let prog = ProgramBuilder::new(10).alu_chain(10).build();
        let (core, _) = run(&prog, 10_000);
        // 100 dependent 1-cycle ops need at least ~100 cycles.
        assert!(
            core.stats().cycles >= 90,
            "chain finished too fast: {}",
            core.stats().cycles
        );
    }

    #[test]
    fn fp_latency_is_longer() {
        let chain_int = ProgramBuilder::new(50).alu_chain(4).build();
        let (int_core, _) = run(&chain_int, 10_000);
        let mut b = ProgramBuilder::new(50);
        b.fp_work(4); // independent FPs, but only 2 FP units
        let (fp_core, _) = run(&b.build(), 10_000);
        assert!(fp_core.stats().cycles > int_core.stats().cycles / 4);
    }

    #[test]
    fn breakdown_accounts_every_cycle() {
        let mut b = ProgramBuilder::new(20);
        let r = b.declare_region("ws", 1 << 20);
        b.alu_work(2).load_random(r).branch();
        let (core, _) = run(&b.build(), 200_000);
        let s = core.stats();
        assert_eq!(s.breakdown.total(), s.cycles);
        // Cold random loads over 1 MB mostly miss: memory components show.
        assert!(s.breakdown[StallComponent::Mem] > 0);
    }

    #[test]
    fn loads_that_hit_l1_are_fast() {
        let mut b = ProgramBuilder::new(200);
        let r = b.declare_region("small", 512); // fits L1 easily
        b.load_stream(r, 8);
        let (core, _) = run(&b.build(), 50_000);
        let s = core.stats();
        // After warmup, each iteration is an L1 hit: ~1-2 cycles each.
        assert!(s.cycles < 3_000, "took {}", s.cycles);
    }

    #[test]
    fn spin_resolves_from_loaded_flag_and_counts_comm() {
        use hfs_isa::program::QueueMemLayout;
        use hfs_isa::{QueueId, QueuePlan};
        let layout = QueueMemLayout {
            base: Addr::new(0x200000),
            depth: 8,
            qlu: 8,
            stride: 16,
            flag_offset: Some(8),
        };
        let mut b = ProgramBuilder::new(4);
        b.plan_queue(QueuePlan {
            q: QueueId(0),
            layout: Some(layout),
        });
        b.alu_work(3)
            .spin(QueueId(0), true)
            .advance_queue(QueueId(0));
        let prog = b.build();

        let mut seq = Sequencer::new(&prog, &bases(), 0).unwrap();
        let mut core = Core::new(CoreId(0), CoreConfig::itanium2()).unwrap();
        let mut m = mem();
        // Pre-set every slot's flag to "full" so each spin exits after
        // one load+branch attempt.
        for slot in 0..8 {
            let flag = layout.flag_addr(slot);
            m.func_mem_mut().write(flag, 1);
        }
        let mut port = NullStreamPort;
        for t in 0..100_000 {
            let now = Cycle::new(t);
            m.tick(now);
            core.tick(now, &mut seq, &mut m, &mut port);
            if core.finished(&seq) {
                break;
            }
        }
        assert!(core.finished(&seq));
        let s = core.stats();
        assert_eq!(s.app_instrs, 12); // 3 ALU x 4 iterations
                                      // Per iteration: flag load + branch + advance = 3 comm instrs.
        assert_eq!(s.comm_instrs, 12);
        assert!((s.comm_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn free_queue_ops_do_not_consume_issue_slots() {
        use hfs_isa::{QueueId, QueuePlan};
        // 6 ALU + 2 produces per iteration: at 6-wide issue this takes
        // 2 cycles per iteration normally, 1 with register-mapped
        // (folded) queue operations.
        let build = || {
            let mut b = ProgramBuilder::new(200);
            b.plan_queue(QueuePlan {
                q: QueueId(0),
                layout: None,
            });
            b.alu_work(6).produce(QueueId(0)).produce(QueueId(0));
            b.build()
        };
        // A trivially-accepting stream port.
        struct FreePort;
        impl StreamPort for FreePort {
            fn try_produce(
                &mut self,
                _mem: &mut MemSystem,
                _core: CoreId,
                _q: hfs_isa::QueueId,
                _value: u64,
                now: Cycle,
            ) -> StreamSubmit {
                StreamSubmit::Done {
                    at: now + 1,
                    value: None,
                }
            }
            fn try_consume(
                &mut self,
                _mem: &mut MemSystem,
                _core: CoreId,
                _q: hfs_isa::QueueId,
                _now: Cycle,
            ) -> StreamSubmit {
                unreachable!()
            }
            fn poll(
                &mut self,
                _core: CoreId,
                _now: Cycle,
                _out: &mut Vec<crate::StreamCompletion>,
            ) {
            }
            fn location(&self, _mem: &MemSystem, _token: StreamToken) -> StallComponent {
                StallComponent::PreL2
            }
        }
        let run = |free: bool| {
            let prog = build();
            let mut seq = Sequencer::new(&prog, &HashMap::new(), 0).unwrap();
            let mut cfg = CoreConfig::itanium2();
            cfg.free_queue_ops = free;
            let mut core = Core::new(CoreId(0), cfg).unwrap();
            let mut m = mem();
            let mut port = FreePort;
            for t in 0..100_000 {
                let now = Cycle::new(t);
                m.tick(now);
                core.tick(now, &mut seq, &mut m, &mut port);
                if core.finished(&seq) {
                    return core.stats().cycles;
                }
            }
            panic!("did not finish");
        };
        let normal = run(false);
        let folded = run(true);
        assert!(
            folded < normal,
            "folded queue ops must save issue slots: {folded} vs {normal}"
        );
    }

    #[test]
    fn window_limits_inflight() {
        // 1 MB random loads: many misses; the window and OzQ bound
        // in-flight ops, so the run completes without panic.
        let mut b = ProgramBuilder::new(30);
        let r = b.declare_region("ws", 1 << 20);
        for _ in 0..8 {
            b.load_random(r);
        }
        let (core, _) = run(&b.build(), 500_000);
        assert_eq!(core.stats().total_instrs(), 240);
    }
}
