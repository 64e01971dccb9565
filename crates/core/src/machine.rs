//! The assembled CMP: cores + memory hierarchy + streaming hardware.

use std::error::Error;
use std::fmt;

use hfs_check::{CheckLevel, Checker};
use hfs_cpu::{Core, CoreStats, NullStreamPort};
use hfs_isa::{CoreId, Sequencer};
use hfs_mem::{Completion, MemEvent, MemStats, MemSystem};
use hfs_sim::stats::StallComponent;
use hfs_sim::{CancelToken, ConfigError, Cycle};
use hfs_trace::{MetricsReport, Tracer};

use crate::addr_map;
use crate::backend::Backend;
use crate::config::MachineConfig;
use crate::kernel::KernelPair;
use crate::lower::{lower_at, lower_fused, Role};

/// Cycles between deadlock-detector sweeps. Progress timestamps are
/// tracked exactly (per core), so striding the sweep changes only when a
/// deadlock is *noticed*, never the cycle it is declared at.
const DEADLOCK_STRIDE: u64 = 64;

/// The largest CMP the bus model supports (4 pipelines x 2 cores).
const MAX_CORES: usize = 8;

/// Producer/consumer pipelines that fit on it.
const MAX_PIPELINES: usize = MAX_CORES / 2;

/// The share of the architectural queues each pipeline maps its queue
/// ids into.
const QUEUES_PER_PIPELINE: usize = addr_map::ARCH_QUEUES as usize / MAX_PIPELINES;

/// Retained only because `benchmark/`, which the change that retired the
/// event-driven loop could not touch, still names both variants; the next
/// `benchmark` PR removes it. There is one production run loop, so the
/// variants mean the same thing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedMode {
    /// The run loop.
    Event,
    /// The run loop.
    Poll,
}

/// Retained for `benchmark/` like [`SchedMode`], and removed with it.
#[derive(Clone, Copy, Debug)]
pub struct SchedStats {
    /// Cycles skipped by fast-forward jumps: always
    /// [`FastForwardStats::skipped_cycles`].
    pub cycles_skipped: u64,
}

/// A simulation failure.
#[derive(Debug)]
pub enum SimError {
    /// Invalid configuration or program.
    Config(ConfigError),
    /// No core made progress for the configured deadlock window.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
        /// Human-readable machine state summary.
        detail: String,
    },
    /// The run exceeded the caller's cycle budget.
    Timeout {
        /// The budget that was exceeded.
        max_cycles: u64,
    },
    /// A correctness check failed: queue FIFO/conservation semantics or,
    /// with the machine checker enabled, a cycle-level invariant.
    Verification(String),
    /// The run was abandoned because its [`CancelToken`] fired (e.g. the
    /// client that requested it disconnected).
    Cancelled {
        /// Cycle at which the cancellation was observed.
        cycle: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::Deadlock { cycle, detail } => {
                write!(f, "deadlock at cycle {cycle}: {detail}")
            }
            SimError::Timeout { max_cycles } => {
                write!(f, "simulation exceeded {max_cycles} cycles")
            }
            SimError::Verification(msg) => write!(f, "verification failed: {msg}"),
            SimError::Cancelled { cycle } => {
                write!(f, "simulation cancelled at cycle {cycle}")
            }
        }
    }
}

impl Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// The result of a completed simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Design-point label (e.g. "SYNCOPTI+SC+Q64").
    pub design: String,
    /// Total cycles until every thread committed its last instruction.
    pub cycles: u64,
    /// Per-core statistics, indexed by core id (producer first).
    pub cores: Vec<CoreStats>,
    /// Outer-loop iterations completed (minimum over threads).
    pub iterations: u64,
    /// Memory-system statistics.
    pub mem: MemStats,
    /// Stream-cache (hits, misses, dropped fills), when present.
    pub stream_cache: Option<(u64, u64, u64)>,
    /// Unified metrics report, present when the run was traced (see
    /// [`Machine::set_tracer`]). Boxed to keep untraced results small.
    pub metrics: Option<Box<MetricsReport>>,
    /// Whether the cycle-level machine checker was enabled for this run
    /// (`HFS_CHECK` or [`Machine::set_check_level`]); a `true` here means
    /// every cycle passed the invariant audits.
    pub checked: bool,
}

impl RunResult {
    /// The producer core's statistics (or the only core's).
    pub fn producer(&self) -> &CoreStats {
        &self.cores[0]
    }

    /// The consumer core's statistics, if this was a pipeline run.
    pub fn consumer(&self) -> Option<&CoreStats> {
        self.cores.get(1)
    }

    /// Cycles per completed iteration.
    pub fn cycles_per_iteration(&self) -> f64 {
        if self.iterations == 0 {
            f64::INFINITY
        } else {
            self.cycles as f64 / self.iterations as f64
        }
    }
}

/// Skip-rate accounting for idle-cycle fast-forwarding (see
/// [`Machine::fast_forward_stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct FastForwardStats {
    /// Jump-target (bound) computations performed so far this run.
    pub bound_computations: u64,
    /// Total cycles skipped across all fast-forward jumps this run.
    pub skipped_cycles: u64,
    /// Always `false`: fast-forward no longer latches itself off. Kept
    /// for `benchmark/`, which reads it.
    pub auto_disabled: bool,
}

/// The simulated machine, ready to run one workload to completion.
///
/// Construct with [`Machine::new_pipeline`] (two cores, one design point)
/// or [`Machine::new_single`] (the fused single-threaded baseline of
/// Figure 9), then call [`Machine::run`].
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    mem: MemSystem,
    cores: Vec<Core>,
    seqs: Vec<Sequencer>,
    /// One backend per pipeline: cores `2i` (producer) and `2i+1`
    /// (consumer) talk to `backends[i]`. Empty for single-core runs.
    backends: Vec<Backend>,
    now: Cycle,
    tracer: Tracer,
    checker: Checker,
    /// Idle-cycle fast-forwarding (on until [`Machine::set_fast_forward`]
    /// turns it off). Results are bit-identical either way; only
    /// wall-clock changes.
    fast_forward: bool,
    /// Skip-rate accounting for fast-forward.
    ff: FastForwardStats,
    /// Cooperative cancellation, polled once per simulated cycle.
    cancel: Option<CancelToken>,
    /// Per-cycle scratch buffers, reused so the hot loop allocates
    /// nothing in steady state
    /// (`tests/cost.rs::a_run_allocates_the_same_at_any_length`).
    events_scratch: Vec<MemEvent>,
    drop_scratch: Vec<Completion>,
}

impl Machine {
    /// Builds a dual-core pipeline machine for `pair` under the
    /// configured design point.
    ///
    /// # Errors
    ///
    /// Returns configuration errors from the machine config, the kernel
    /// pair, or lowering.
    pub fn new_pipeline(cfg: &MachineConfig, pair: &KernelPair) -> Result<Self, SimError> {
        Self::new_multi_pipeline(cfg, std::slice::from_ref(pair))
    }

    /// Builds a CMP running several independent pipelines at once: pair
    /// `i` runs on cores `2i`/`2i+1`, with its queues remapped to a
    /// disjoint id range and its work regions to disjoint addresses. All
    /// pipelines share the bus, L3, and (for memory-backed designs) the
    /// queue backing store — the paper's "larger-scale CMP" scenario of
    /// inter-thread operand traffic multiplexed with other requests.
    ///
    /// # Example
    ///
    /// ```
    /// use hfs_core::kernel::KernelPair;
    /// use hfs_core::{DesignPoint, Machine, MachineConfig};
    ///
    /// let pair = KernelPair::simple("demo", 3, 50);
    /// let cfg = MachineConfig::itanium2_cmp(DesignPoint::heavywt());
    /// let pairs = vec![pair.clone(), pair];
    /// let mut m = Machine::new_multi_pipeline(&cfg, &pairs).unwrap();
    /// let r = m.run(1_000_000).unwrap();
    /// assert_eq!(r.cores.len(), 4);
    /// assert_eq!(r.iterations, 50);
    /// ```
    ///
    /// # Errors
    ///
    /// Configuration errors; at most 4 pairs fit the 8-core bus model.
    pub fn new_multi_pipeline(cfg: &MachineConfig, pairs: &[KernelPair]) -> Result<Self, SimError> {
        if pairs.is_empty() || pairs.len() > MAX_PIPELINES {
            return Err(SimError::Config(hfs_sim::ConfigError::new(
                "between 1 and 4 pipelines are supported",
            )));
        }
        let mut cfg = cfg.clone();
        cfg.mem.cores = (pairs.len() * 2) as u8;
        cfg.core.free_queue_ops = cfg.design.is_register_mapped();
        cfg.validate()?;
        let mut seqs = Vec::new();
        let mut cores = Vec::new();
        let mut backends = Vec::new();
        for (i, raw_pair) in pairs.iter().enumerate() {
            // Its own range of queue ids keeps the pipelines disjoint.
            let pair = raw_pair.with_queue_offset((i * QUEUES_PER_PIPELINE) as u16);
            let producer_core = CoreId((2 * i) as u8);
            let consumer_core = CoreId((2 * i + 1) as u8);
            let producer = lower_at(&pair, &cfg.design, Role::Producer, i as u32)?;
            let consumer = lower_at(&pair, &cfg.design, Role::Consumer, i as u32)?;
            seqs.push(Sequencer::new(
                &producer.program,
                &producer.region_bases,
                cfg.seed.wrapping_add((2 * i) as u64),
            )?);
            seqs.push(Sequencer::new(
                &consumer.program,
                &consumer.region_bases,
                cfg.seed.wrapping_add((2 * i + 1) as u64),
            )?);
            cores.push(Core::new(producer_core, cfg.core)?);
            cores.push(Core::new(consumer_core, cfg.core)?);
            let queues = pair.queues()?;
            backends.push(Backend::new(
                &cfg.design,
                &queues,
                producer_core,
                consumer_core,
            )?);
        }
        let mut mem = MemSystem::new(cfg.mem.clone())?;
        mem.set_streaming_range(addr_map::STREAMING.start, addr_map::STREAMING.end);
        Ok(Self::assemble(cfg, mem, cores, seqs, backends))
    }

    /// A machine at cycle zero over its built parts, checked as
    /// `HFS_CHECK` asks.
    fn assemble(
        cfg: MachineConfig,
        mem: MemSystem,
        cores: Vec<Core>,
        seqs: Vec<Sequencer>,
        backends: Vec<Backend>,
    ) -> Self {
        let mut m = Machine {
            mem,
            cores,
            seqs,
            backends,
            now: Cycle::ZERO,
            cfg,
            tracer: Tracer::disabled(),
            checker: Checker::disabled(),
            fast_forward: true,
            ff: FastForwardStats::default(),
            cancel: None,
            events_scratch: Vec::new(),
            drop_scratch: Vec::new(),
        };
        m.set_checker(Checker::from_env());
        m
    }

    /// Builds a single-core machine running the fused version of `pair`
    /// (all communication removed; producer work then consumer work per
    /// iteration).
    ///
    /// # Errors
    ///
    /// Returns configuration errors from the config, kernels, or fusing.
    pub fn new_single(cfg: &MachineConfig, pair: &KernelPair) -> Result<Self, SimError> {
        let mut cfg = cfg.clone();
        cfg.mem.cores = 1;
        cfg.validate()?;
        let fused = lower_fused(pair)?;
        let seqs = vec![Sequencer::new(
            &fused.program,
            &fused.region_bases,
            cfg.seed,
        )?];
        let cores = vec![Core::new(CoreId(0), cfg.core)?];
        let mem = MemSystem::new(cfg.mem.clone())?;
        Ok(Self::assemble(cfg, mem, cores, seqs, Vec::new()))
    }

    /// Enables or disables idle-cycle fast-forwarding (machines start
    /// with it on). Simulation results are bit-identical either way;
    /// only wall-clock changes.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Whether idle-cycle fast-forwarding is active.
    pub fn fast_forward_enabled(&self) -> bool {
        self.fast_forward
    }

    /// Skip-rate accounting for this run's fast-forwarding: how many jump
    /// targets were computed and how many cycles they actually skipped.
    pub fn fast_forward_stats(&self) -> FastForwardStats {
        self.ff
    }

    /// Accepted and ignored: either mode runs the one loop. Retained for
    /// `benchmark/` (see [`SchedMode`]).
    pub fn set_sched_mode(&mut self, _mode: SchedMode) {}

    /// The skipped-cycle count under its old name. Retained for
    /// `benchmark/` (see [`SchedStats`]).
    pub fn sched_stats(&self) -> SchedStats {
        SchedStats {
            cycles_skipped: self.ff.skipped_cycles,
        }
    }

    /// Attaches a cooperative cancellation token, polled once per
    /// simulated cycle in [`Machine::run`]. When the token fires the run
    /// aborts with [`SimError::Cancelled`]; the machine's partial state
    /// is left in place but no [`RunResult`] is produced.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Attaches a tracer, distributing cloned handles to the memory
    /// system, every core, and every streaming backend. Call before
    /// [`Machine::run`]; with a recording tracer the caller can drain the
    /// event stream afterwards via its own clone's
    /// [`Tracer::take_events`].
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.mem.set_tracer(tracer.clone());
        for core in &mut self.cores {
            core.set_tracer(tracer.clone());
        }
        for b in &mut self.backends {
            b.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// The tracer attached with [`Machine::set_tracer`] (disabled by
    /// default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Attaches a machine checker, distributing cloned handles to the
    /// memory system and every streaming backend. The constructors call
    /// this with [`Checker::from_env`], so setting `HFS_CHECK=1` checks
    /// every run; call explicitly (before [`Machine::run`]) to override.
    /// An enabled checker also pins simulation to its per-cycle bound so
    /// every cycle is audited (fast-forward windows are never dead to the
    /// checker's aging rules).
    pub fn set_checker(&mut self, checker: Checker) {
        self.mem.set_checker(checker.clone());
        for b in &mut self.backends {
            b.set_checker(checker.clone());
        }
        self.checker = checker;
    }

    /// Convenience wrapper over [`Machine::set_checker`]: attaches a
    /// fresh checker at `level` ([`CheckLevel::Off`] detaches).
    pub fn set_check_level(&mut self, level: CheckLevel) {
        self.set_checker(Checker::with_level(level));
    }

    /// The machine checker attached with [`Machine::set_checker`]
    /// (configured from `HFS_CHECK` at construction).
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when no core commits for the configured
    /// window, [`SimError::Timeout`] past `max_cycles`, and
    /// [`SimError::Verification`] if queue FIFO semantics were violated.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunResult, SimError> {
        Ok(self.run_sampled(max_cycles, None)?.0)
    }

    /// Runs to completion, additionally sampling `(cycle, completed
    /// iterations)` every `interval` cycles when `Some` — useful for
    /// warm-up/steady-state analysis of the streaming protocols.
    ///
    /// This is the one run loop: every component steps on every
    /// processed cycle, and [`Machine::advance`] folds `next_event`
    /// bounds to jump over dead windows. With fast-forward off (or a
    /// checker attached) it is the plain per-cycle walk the tests use as
    /// their oracle.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Machine::run`].
    pub fn run_sampled(
        &mut self,
        max_cycles: u64,
        interval: Option<u64>,
    ) -> Result<(RunResult, Vec<(u64, u64)>), SimError> {
        let mut samples = Vec::new();
        loop {
            let now = self.now;
            if now.as_u64() > max_cycles {
                return Err(SimError::Timeout { max_cycles });
            }
            if let Some(c) = &self.cancel {
                if c.is_cancelled() {
                    return Err(SimError::Cancelled {
                        cycle: now.as_u64(),
                    });
                }
            }
            self.mem.tick(now);
            // Drain the event stream once; every backend filters it to
            // its own queues. The buffer is machine-owned and reused, so
            // the hot loop allocates nothing in steady state
            // (`tests/cost.rs::a_run_allocates_the_same_at_any_length`).
            let mut events = std::mem::take(&mut self.events_scratch);
            self.mem.take_events(&mut events);
            for b in &mut self.backends {
                b.process(&mut self.mem, &events, now);
            }
            self.events_scratch = events;
            let mut all_done = true;
            for i in 0..self.cores.len() {
                let core = &mut self.cores[i];
                let seq = &mut self.seqs[i];
                if core.finished(seq) {
                    // Drain stray completions (e.g. late store acks); the
                    // cheap probe skips the call on the common empty cycle.
                    if self.mem.has_completions(core.id(), now) {
                        self.drop_scratch.clear();
                        self.mem
                            .drain_completions_into(core.id(), now, &mut self.drop_scratch);
                    }
                    continue;
                }
                all_done = false;
                match self.backends.get_mut(i / 2) {
                    Some(b) => core.tick(now, seq, &mut self.mem, b),
                    None => {
                        let mut null = NullStreamPort;
                        core.tick(now, seq, &mut self.mem, &mut null);
                    }
                }
            }
            // Fail loudly, at the offending cycle: a machine-check
            // violation or a queue FIFO error terminates the run
            // immediately instead of surfacing as a late timeout or a
            // silently wrong figure.
            if self.checker.is_enabled() {
                if let Some(msg) = self.checker.first_violation() {
                    return Err(SimError::Verification(msg));
                }
            }
            for b in &self.backends {
                if let Some(e) = b.check().errors().first() {
                    return Err(SimError::Verification(format!("queue-check: {e}")));
                }
            }
            if all_done && self.mem.is_idle() && self.backends.iter().all(Backend::quiescent) {
                break;
            }
            // Deadlock detection: some core must commit within the
            // configured window. Commit stamps are exact, so the sweep
            // runs every DEADLOCK_STRIDE cycles and still declares the
            // cycle the live per-cycle check would have.
            if now.as_u64().is_multiple_of(DEADLOCK_STRIDE) {
                let last = self.last_progress();
                if now.saturating_since(last) > self.cfg.deadlock_cycles {
                    return Err(SimError::Deadlock {
                        cycle: last.as_u64() + self.cfg.deadlock_cycles + 1,
                        detail: self.diagnose(),
                    });
                }
            }
            if let Some(step) = interval {
                if now.as_u64().is_multiple_of(step) {
                    let iters = self
                        .seqs
                        .iter()
                        .map(Sequencer::iterations_completed)
                        .min()
                        .unwrap_or(0);
                    samples.push((now.as_u64(), iters));
                }
            }
            self.now = self.advance(now, max_cycles, interval);
        }
        self.checker.audit_forwards(self.now);
        if let Some(msg) = self.checker.first_violation() {
            return Err(SimError::Verification(msg));
        }
        for b in &self.backends {
            b.check().finish().map_err(SimError::Verification)?;
        }
        Ok((self.result(), samples))
    }

    /// Last cycle any core committed an instruction.
    fn last_progress(&self) -> Cycle {
        self.cores
            .iter()
            .map(Core::last_commit)
            .max()
            .unwrap_or(Cycle::ZERO)
    }

    /// The next value of `self.now`: normally `now + 1`, or a later cycle
    /// when fast-forwarding proves no component can act in between. The
    /// jump target is the minimum over every component's conservative
    /// `next_event` bound plus the simulator's own scheduled events (the
    /// deadlock sweep, the sampling grid, the timeout). Skipped cycles
    /// are charged to each unfinished core exactly as live ticks would
    /// have, including per-cycle trace events when tracing.
    fn advance(&mut self, now: Cycle, max_cycles: u64, interval: Option<u64>) -> Cycle {
        let next = now.next();
        // An enabled checker forces the per-cycle bound: its audits and
        // aging rules (bus starvation, request age, per-cycle occupancy
        // checks) must observe every cycle, so fast-forward windows are
        // disabled rather than reasoned about.
        if !self.fast_forward || self.checker.is_enabled() {
            return next;
        }
        // A core may have committed its last instruction during this very
        // cycle; the termination check must run on the next one, so never
        // jump once every program is done.
        if self
            .cores
            .iter()
            .zip(&self.seqs)
            .all(|(c, s)| c.finished(s))
        {
            return next;
        }
        // A committing machine is busy: the next cycle almost certainly
        // commits again, so skip the bound computation entirely rather
        // than pay its cost every cycle of a compute-dense stretch.
        if self.last_progress() == now {
            return next;
        }
        self.ff.bound_computations += 1;
        // Fold the bounds, the memory system first (it is the one that
        // most often allows nothing), and stop at the first that pins
        // the next cycle: most commit-free cycles cannot be skipped, and
        // on those every further bound would be computed for nothing.
        // Timeout fires at max_cycles + 1.
        let mut target = Cycle::new(max_cycles.saturating_add(1));
        let mut pins_next = |t: Option<Cycle>| {
            target = t.map_or(target, |t| target.min(t));
            target <= next
        };
        let (cores, seqs) = (&self.cores, &mut self.seqs);
        if pins_next(self.mem.next_event(now))
            || self.backends.iter().any(|b| pins_next(b.next_event(now)))
            || (0..cores.len()).any(|i| {
                !cores[i].finished(&seqs[i]) && pins_next(cores[i].next_event(now, &mut seqs[i]))
            })
        {
            return next;
        }
        // The simulator's own events. Next deadlock sweep that could
        // declare: the first stride multiple past the declaration point,
        // and past `now`. The window is a cycle budget, not a bound, so
        // the sum saturates.
        let declare = (self.last_progress().as_u64())
            .saturating_add(self.cfg.deadlock_cycles)
            .saturating_add(1);
        let sweep = (declare
            .div_ceil(DEADLOCK_STRIDE)
            .saturating_mul(DEADLOCK_STRIDE))
        .max((now.as_u64() / DEADLOCK_STRIDE + 1) * DEADLOCK_STRIDE);
        target = target.min(Cycle::new(sweep));
        if let Some(step) = interval {
            target = target.min(Cycle::new((now.as_u64() / step + 1) * step));
        }
        if target <= next {
            return next;
        }
        // Charge the skipped window [now+1, target-1] to every unfinished
        // core. No component changes state in a dead window, so the stall
        // component is constant across it.
        let skipped = target.as_u64() - next.as_u64();
        self.ff.skipped_cycles += skipped;
        let mut live = [false; MAX_CORES];
        let mut comps = [StallComponent::PreL2; MAX_CORES];
        for i in 0..self.cores.len() {
            if self.cores[i].finished(&self.seqs[i]) {
                continue;
            }
            live[i] = true;
            comps[i] = match self.backends.get(i / 2) {
                Some(b) => self.cores[i].idle_component(next, &self.mem, b),
                None => self.cores[i].idle_component(next, &self.mem, &NullStreamPort),
            };
            self.cores[i].charge_idle(skipped, comps[i]);
        }
        if self.tracer.is_enabled() {
            // Replay the per-cycle stall events in live order: cycles
            // outermost, cores in index order within each cycle.
            for cy in next.as_u64()..target.as_u64() {
                for i in 0..self.cores.len() {
                    if live[i] {
                        self.cores[i].trace_idle(Cycle::new(cy), comps[i]);
                    }
                }
            }
        }
        target
    }

    fn diagnose(&self) -> String {
        let mut s = String::new();
        for (i, (core, seq)) in self.cores.iter().zip(&self.seqs).enumerate() {
            s.push_str(&format!(
                "core{i}: finished={} iters={} committed={}; ",
                core.finished(seq),
                seq.iterations_completed(),
                core.stats().total_instrs(),
            ));
        }
        s.push_str(&format!(
            "mem idle={}\n{}",
            self.mem.is_idle(),
            self.mem.debug_state()
        ));
        s
    }

    fn result(&self) -> RunResult {
        let iterations = self
            .seqs
            .iter()
            .map(Sequencer::iterations_completed)
            .min()
            .unwrap_or(0);
        let stream_cache = self
            .backends
            .iter()
            .filter_map(Backend::stream_cache)
            .map(|sc| (sc.hits(), sc.misses(), sc.dropped_fills()))
            .fold(None, |acc, (h, m2, d)| {
                let (ah, am, ad) = acc.unwrap_or((0, 0, 0));
                Some((ah + h, am + m2, ad + d))
            });
        let metrics = self
            .tracer
            .is_enabled()
            .then(|| Box::new(self.metrics_report(iterations, stream_cache)));
        RunResult {
            design: self.cfg.design.label(),
            cycles: self.now.as_u64(),
            cores: self.cores.iter().map(|c| *c.stats()).collect(),
            iterations,
            mem: self.mem.stats(),
            stream_cache,
            metrics,
            checked: self.checker.is_enabled(),
        }
    }

    /// Assembles the unified metrics report: machine-level and per-core
    /// counters, every named memory-system counter, the tracer's event
    /// totals, its latency/occupancy histograms, and the summed Figure 7
    /// stall breakdown.
    fn metrics_report(
        &self,
        iterations: u64,
        stream_cache: Option<(u64, u64, u64)>,
    ) -> MetricsReport {
        let mut r = MetricsReport::new();
        r.counter("machine.cycles", self.now.as_u64());
        r.counter("machine.iterations", iterations);
        let (mut app, mut comm, mut ozq, mut blocked) = (0u64, 0u64, 0u64, 0u64);
        for c in &self.cores {
            let s = c.stats();
            app += s.app_instrs;
            comm += s.comm_instrs;
            ozq += s.ozq_stalls;
            blocked += s.stream_blocked;
            r.breakdown += s.breakdown;
        }
        r.counter("core.app_instrs", app);
        r.counter("core.comm_instrs", comm);
        r.counter("core.ozq_stalls", ozq);
        r.counter("core.stream_blocked", blocked);
        for c in self.mem.counters() {
            r.counter(c.name(), c.value());
        }
        if let Some((hits, misses, dropped)) = stream_cache {
            r.counter("sc.hits", hits);
            r.counter("sc.misses", misses);
            r.counter("sc.dropped_fills", dropped);
        }
        for (name, v) in self.tracer.event_counts() {
            r.counter(format!("trace.{name}"), v);
        }
        r.histogram("consume_to_use_cycles", &self.tracer.consume_to_use());
        r.histogram("queue_depth", &self.tracer.queue_depth());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignPoint;
    use hfs_sim::stats::StallComponent;

    /// What the bounds let a machine that validates allocate before it
    /// runs: every cache at its most lines (two per core plus the L3) on
    /// the most cores, and each core's lowered body at its most steps
    /// (spill code included), once as lowered and once as compiled into
    /// its sequencer. The stated ceiling is 256 MiB.
    #[test]
    fn the_bounds_cap_what_a_machine_allocates() {
        use std::mem::size_of;
        // A tag array holds one `Vec` per set and at most one line
        // number, state and LRU stamp per line.
        let cache = hfs_mem::MAX_CACHE_LINES as usize * (size_of::<Vec<u64>>() + 24);
        let caches = (2 * MAX_CORES + 1) * cache;
        let steps =
            crate::kernel::MAX_BODY_STEPS as usize + 2 * crate::design::MAX_SPILL_OPS as usize;
        let bodies = MAX_CORES * steps * 2 * size_of::<hfs_isa::Step>();
        let total = caches + bodies;
        assert!(total < 256 << 20, "{} MiB", total >> 20);
    }

    fn run_design(design: DesignPoint, work: u32, iters: u64) -> RunResult {
        let pair = KernelPair::simple("t", work, iters);
        let cfg = MachineConfig::itanium2_cmp(design);
        let mut m = Machine::new_pipeline(&cfg, &pair).unwrap();
        m.run(20_000_000)
            .unwrap_or_else(|e| panic!("{design:?} failed: {e}"))
    }

    #[test]
    fn heavywt_pipeline_completes_and_verifies() {
        let r = run_design(DesignPoint::heavywt(), 4, 300);
        assert_eq!(r.iterations, 300);
        assert_eq!(r.cores.len(), 2);
        // Breakdown accounts for every cycle on both cores.
        for c in &r.cores {
            assert_eq!(c.breakdown.total(), c.cycles);
        }
    }

    #[test]
    fn syncopti_pipeline_completes_and_verifies() {
        let r = run_design(DesignPoint::syncopti(), 4, 300);
        assert_eq!(r.iterations, 300);
        assert!(r.mem.forwards > 0, "SYNCOPTI must write-forward lines");
    }

    #[test]
    fn syncopti_sc_q64_uses_the_stream_cache() {
        let r = run_design(DesignPoint::syncopti_sc_q64(), 4, 300);
        assert_eq!(r.iterations, 300);
        let (hits, _misses, _dropped) = r.stream_cache.expect("SC configured");
        assert!(hits > 0, "stream cache should hit");
    }

    #[test]
    fn existing_software_queues_complete() {
        let r = run_design(DesignPoint::existing(), 4, 150);
        assert_eq!(r.iterations, 150);
        assert_eq!(r.mem.forwards, 0, "EXISTING never forwards");
        // Software queues execute ~10 comm instructions per produce.
        let p = r.producer();
        assert!(p.comm_instrs >= 150 * 9, "comm instrs: {}", p.comm_instrs);
    }

    #[test]
    fn memopti_forwards_lines() {
        let r = run_design(DesignPoint::memopti(), 4, 150);
        assert_eq!(r.iterations, 150);
        assert!(r.mem.forwards > 0, "MEMOPTI must write-forward");
    }

    #[test]
    fn heavywt_beats_software_queues() {
        let hw = run_design(DesignPoint::heavywt(), 4, 200);
        let sw = run_design(DesignPoint::existing(), 4, 200);
        assert!(
            sw.cycles as f64 > hw.cycles as f64 * 1.3,
            "EXISTING {} vs HEAVYWT {}",
            sw.cycles,
            hw.cycles
        );
    }

    #[test]
    fn single_threaded_fused_run() {
        let pair = KernelPair::simple("t", 4, 200);
        let cfg = MachineConfig::itanium2_single();
        let mut m = Machine::new_single(&cfg, &pair).unwrap();
        let r = m.run(10_000_000).unwrap();
        assert_eq!(r.iterations, 200);
        assert_eq!(r.cores.len(), 1);
        assert!(r.stream_cache.is_none());
    }

    #[test]
    fn results_expose_normalization_helpers() {
        let a = run_design(DesignPoint::heavywt(), 2, 100);
        let b = run_design(DesignPoint::existing(), 2, 100);
        assert!(b.cycles > a.cycles);
        assert!(a.cycles_per_iteration() > 0.0);
    }

    #[test]
    fn deadlock_detection_fires_on_unbalanced_pair() {
        use crate::kernel::{KStep, Kernel};
        use hfs_isa::QueueId;
        // Consumer consumes twice per iteration but producer produces
        // once: validation catches it, so bypass validation via a pair
        // where counts match but the consumer consumes an extra queue the
        // producer only feeds every other... — instead simply starve:
        // producer iterates fewer times than the consumer expects.
        let pair = KernelPair {
            name: "starve".into(),
            producer: Kernel::new(vec![KStep::Produce(QueueId(0))]),
            consumer: Kernel::new(vec![KStep::Consume(QueueId(0)), KStep::Consume(QueueId(0))]),
            iterations: 50,
        };
        // validate() rejects this; drive the machine directly.
        assert!(pair.validate().is_err());
    }

    #[test]
    fn sim_error_displays_are_informative() {
        let d = SimError::Deadlock {
            cycle: 42,
            detail: "stuck".into(),
        };
        assert!(d.to_string().contains("42"));
        assert!(d.to_string().contains("stuck"));
        let t = SimError::Timeout { max_cycles: 7 };
        assert!(t.to_string().contains('7'));
        let v = SimError::Verification("fifo broke".into());
        assert!(v.to_string().contains("fifo broke"));
        let c = SimError::from(hfs_sim::ConfigError::new("bad"));
        assert!(c.to_string().contains("bad"));
    }

    #[test]
    fn run_sampled_reports_progress() {
        let pair = KernelPair::simple("s", 3, 200);
        let cfg = MachineConfig::itanium2_cmp(DesignPoint::heavywt());
        let mut m = Machine::new_pipeline(&cfg, &pair).unwrap();
        let (r, samples) = m.run_sampled(10_000_000, Some(100)).unwrap();
        assert_eq!(r.iterations, 200);
        assert!(samples.len() > 1);
        // Samples are monotone in both cycle and iteration count.
        for w in samples.windows(2) {
            assert!(w[1].0 > w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn breakdown_has_memory_components_for_software_designs() {
        let r = run_design(DesignPoint::existing(), 2, 100);
        let p = r.producer();
        let coherence_cycles = p.breakdown[StallComponent::Bus]
            + p.breakdown[StallComponent::L2]
            + p.breakdown[StallComponent::L3];
        assert!(
            coherence_cycles > 0,
            "software queues must show memory-system stalls: {}",
            p.breakdown
        );
    }
}
