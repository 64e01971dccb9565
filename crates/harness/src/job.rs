//! Experiment job specifications and outcomes.

use std::fmt;
use std::sync::OnceLock;

use hfs_core::kernel::KernelPair;
use hfs_core::{Checker, Machine, MachineConfig, RunResult, SimError};
use hfs_sim::CancelToken;
use hfs_trace::Tracer;

/// Default per-job simulated-cycle budget; hitting it is a harness or
/// model bug, surfaced as [`JobOutcome::Timeout`] by the watchdog.
pub const DEFAULT_MAX_CYCLES: u64 = 500_000_000;

/// The seed of every cache key, a hash of the model's sources (`build.rs`):
/// an edit to them moves every key, so no build hits another's results.
pub const MODEL_FINGERPRINT: u64 = include!(concat!(env!("OUT_DIR"), "/fingerprint"));

/// How the machine is assembled for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Dual-core producer/consumer pipeline ([`Machine::new_pipeline`]).
    Pipeline,
    /// Fused single-threaded baseline ([`Machine::new_single`]).
    Single,
    /// `n` independent copies of the pair on a `2n`-core CMP
    /// ([`Machine::new_multi_pipeline`]).
    Multi(u8),
}

/// One unit of experiment work: a kernel pair under a machine
/// configuration, with a watchdog budget.
///
/// The job's [cache key](Job::key) is derived from the *content* that
/// determines the simulation result (pair, config, mode, cycle budget) —
/// never from the display label — so identical runs shared between
/// figures (e.g. HEAVYWT baselines) deduplicate in the cache.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display label, e.g. `"fig7/wc/HEAVYWT"`. Not part of the key.
    pub label: String,
    /// The workload, with iteration scaling already applied.
    pub pair: KernelPair,
    /// Machine configuration (includes the design point and seed).
    pub cfg: MachineConfig,
    /// Machine assembly mode.
    pub mode: Mode,
    /// Watchdog budget in simulated cycles.
    pub max_cycles: u64,
    /// Whether to attach a metrics-digesting tracer so the result carries
    /// a [`hfs_trace::MetricsReport`]. Part of the cache key (traced and
    /// untraced results serialize differently).
    pub metrics: bool,
    // Lazily computed cache key. Populated on the first `key()` call and
    // reused by every later cache/dedup lookup; the `with_*`
    // builders reset it because they change keyed content. Cloning
    // preserves it (a clone has identical content, hence an identical
    // key). Callers mutating keyed pub fields *after* calling `key()`
    // must go through the builders — in-crate construction sites use
    // struct-update over fresh jobs, where the memo is still unset.
    key_memo: OnceLock<String>,
}

impl Job {
    /// A dual-core pipeline job.
    pub fn pipeline(label: impl Into<String>, pair: KernelPair, cfg: MachineConfig) -> Job {
        Job {
            label: label.into(),
            pair,
            cfg,
            mode: Mode::Pipeline,
            max_cycles: DEFAULT_MAX_CYCLES,
            metrics: false,
            key_memo: OnceLock::new(),
        }
    }

    /// A fused single-threaded job.
    pub fn single(label: impl Into<String>, pair: KernelPair, cfg: MachineConfig) -> Job {
        Job {
            mode: Mode::Single,
            ..Job::pipeline(label, pair, cfg)
        }
    }

    /// Rebuilds a job from its raw parts (the spec-codec entry point).
    /// Keeps the deserializer honest about every keyed field without
    /// exposing the key memo outside this module.
    pub fn from_parts(
        label: String,
        pair: KernelPair,
        cfg: MachineConfig,
        mode: Mode,
        max_cycles: u64,
        metrics: bool,
    ) -> Job {
        Job {
            label,
            pair,
            cfg,
            mode,
            max_cycles,
            metrics,
            key_memo: OnceLock::new(),
        }
    }

    /// A multi-pipeline job running `pairs` copies of the workload.
    pub fn multi(label: impl Into<String>, pair: KernelPair, cfg: MachineConfig, pairs: u8) -> Job {
        Job {
            mode: Mode::Multi(pairs),
            ..Job::pipeline(label, pair, cfg)
        }
    }

    /// Overrides the watchdog cycle budget.
    #[must_use]
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Job {
        self.max_cycles = max_cycles;
        self.key_memo = OnceLock::new();
        self
    }

    /// Requests a metrics report in the result.
    #[must_use]
    pub fn with_metrics(mut self, metrics: bool) -> Job {
        self.metrics = metrics;
        self.key_memo = OnceLock::new();
        self
    }

    /// The stable, content-derived cache key (16 hex digits).
    ///
    /// A hash of the job's canonical spec — the field list
    /// [`write_job`](crate::spec::write_job) puts on the wire, less the
    /// label — under [`MODEL_FINGERPRINT`]: the kernel pair (kernels, queues,
    /// iterations), the full machine configuration (memory hierarchy,
    /// core, design point, seed), the assembly mode, the cycle budget
    /// and the metrics flag.
    ///
    /// Computed once per job and memoized: cache lookups and dedup
    /// reuse the first computation.
    pub fn key(&self) -> String {
        self.key_ref().to_string()
    }

    /// The memoized cache key as a borrowed string — the allocation-free
    /// spelling of [`Job::key`] for hot paths that only compare or hash.
    pub fn key_ref(&self) -> &str {
        self.key_memo
            .get_or_init(|| crate::spec::key_with(MODEL_FINGERPRINT, self))
    }
}

/// Whether `s` has the shape of a [`Job::key`]: exactly 16 lowercase
/// hex digits. Keys arrive from outside the program (a `submit_refs`
/// frame) and name files in the result cache, so anything else is
/// refused before it can reach the filesystem.
pub fn is_cache_key(s: &str) -> bool {
    s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// The structured result of attempting one job: success, a simulation
/// error (config/deadlock/verification), or a watchdog timeout. Replaces
/// the seed harness's `panic!`-on-error behavior so one bad kernel no
/// longer kills a whole figure.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The run completed; full statistics attached.
    Ok(RunResult),
    /// The simulator reported an error.
    SimError(String),
    /// The machine checker (`HFS_CHECK=1`) found an invariant violation
    /// or a queue-accounting error: a model bug to fix.
    CheckFailed(String),
    /// The run exceeded its cycle budget.
    Timeout {
        /// The budget that was exceeded.
        max_cycles: u64,
    },
    /// The run was abandoned because its cancellation token fired (e.g.
    /// every client waiting on it disconnected). Never cached — the
    /// owner decides whether to re-enqueue.
    Cancelled,
    /// The job panicked (`worker_died` on the wire). The message is the
    /// panic's. Never cached: the next submission runs it again.
    WorkerDied(String),
}

impl JobOutcome {
    /// The run result, if the job succeeded.
    pub fn ok(&self) -> Option<&RunResult> {
        match self {
            JobOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// Whether the job succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self, JobOutcome::Ok(_))
    }

    /// Short status tag: `"ok"`, `"sim_error"`, `"check_failed"`,
    /// `"timeout"`, `"cancelled"`, or `"worker_died"`.
    pub fn status(&self) -> &'static str {
        match self {
            JobOutcome::Ok(_) => "ok",
            JobOutcome::SimError(_) => "sim_error",
            JobOutcome::CheckFailed(_) => "check_failed",
            JobOutcome::Timeout { .. } => "timeout",
            JobOutcome::Cancelled => "cancelled",
            JobOutcome::WorkerDied(_) => "worker_died",
        }
    }
}

impl fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobOutcome::Ok(r) => write!(f, "ok ({} cycles)", r.cycles),
            JobOutcome::SimError(e) => write!(f, "sim error: {e}"),
            JobOutcome::CheckFailed(e) => write!(f, "machine check failed: {e}"),
            JobOutcome::Timeout { max_cycles } => {
                write!(f, "timeout: exceeded {max_cycles} cycles")
            }
            JobOutcome::Cancelled => write!(f, "cancelled"),
            JobOutcome::WorkerDied(e) => write!(f, "worker died: {e}"),
        }
    }
}

/// Runs `job` once, propagating the simulator's fallible API.
///
/// # Errors
///
/// Any [`SimError`] from machine construction or the run itself.
pub fn execute_once(job: &Job) -> Result<RunResult, SimError> {
    execute_once_with(job, &own_tracer(job))
}

/// The tracer a job asks for itself: metrics-digesting or none.
fn own_tracer(job: &Job) -> Tracer {
    if job.metrics {
        Tracer::metrics_only()
    } else {
        Tracer::disabled()
    }
}

/// Runs `job` once with an explicit tracer attached to the machine —
/// the entry point for callers that want the recorded event stream (the
/// engine's `HFS_TRACE_DIR` export).
///
/// # Errors
///
/// Any [`SimError`] from machine construction or the run itself.
pub fn execute_once_with(job: &Job, tracer: &Tracer) -> Result<RunResult, SimError> {
    run_once(job, tracer, &Checker::disabled(), None)
}

/// The single-run core: tracer, machine-check handle, and an optional
/// cancellation token polled once per simulated cycle. A disabled
/// `checker` leaves the machine's own (env-derived) checker in place, so
/// `HFS_CHECK=1` keeps working through every harness entry point; an
/// enabled one overrides it — the hook the fault-injection tests use to
/// arm [`hfs_core::Mutation`]s through the job path.
fn run_once(
    job: &Job,
    tracer: &Tracer,
    checker: &Checker,
    cancel: Option<&CancelToken>,
) -> Result<RunResult, SimError> {
    let mut machine = match job.mode {
        Mode::Pipeline => Machine::new_pipeline(&job.cfg, &job.pair)?,
        Mode::Single => Machine::new_single(&job.cfg, &job.pair)?,
        Mode::Multi(n) => {
            let pairs: Vec<KernelPair> = (0..n).map(|_| job.pair.clone()).collect();
            Machine::new_multi_pipeline(&job.cfg, &pairs)?
        }
    };
    machine.set_tracer(tracer.clone());
    if checker.is_enabled() {
        machine.set_checker(checker.clone());
    }
    if let Some(c) = cancel {
        machine.set_cancel_token(c.clone());
    }
    machine.run(job.max_cycles)
}

/// The one `SimError` → [`JobOutcome`] mapping.
pub(crate) fn classify(run: Result<RunResult, SimError>) -> JobOutcome {
    match run {
        Ok(r) => JobOutcome::Ok(r),
        Err(SimError::Timeout { max_cycles }) => JobOutcome::Timeout { max_cycles },
        Err(SimError::Verification(msg)) => JobOutcome::CheckFailed(msg),
        Err(SimError::Cancelled { .. }) => JobOutcome::Cancelled,
        Err(e) => JobOutcome::SimError(e.to_string()),
    }
}

/// Runs `job` once, classifying failures. The simulator is
/// deterministic, so no failure is worth a second attempt.
///
/// `_retries` is ignored; the parameter is kept for `benchmark/`.
pub fn execute(job: &Job, _retries: u32) -> JobOutcome {
    execute_cancellable(job, None)
}

/// [`execute`] with an optional cancellation token — what the engine
/// and the `hfs-serve` workers run. A fired token surfaces as
/// [`JobOutcome::Cancelled`].
pub fn execute_cancellable(job: &Job, cancel: Option<&CancelToken>) -> JobOutcome {
    classify(run_once(
        job,
        &own_tracer(job),
        &Checker::disabled(),
        cancel,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_core::DesignPoint;

    fn demo_job(iters: u64) -> Job {
        Job::pipeline(
            "test/demo",
            KernelPair::simple("demo", 3, iters),
            MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
        )
    }

    #[test]
    fn key_is_stable_and_label_independent() {
        let a = demo_job(50);
        let mut b = demo_job(50);
        b.label = "something/else".into();
        assert_eq!(a.key(), b.key());
        assert!(is_cache_key(&a.key()));
        for foreign in [
            "",
            "../victim",
            "0123456789ABCDEF",
            "0123456789abcde",
            "0123456789abcdef0",
        ] {
            assert!(!is_cache_key(foreign), "{foreign:?}");
        }
    }

    #[test]
    fn key_memo_survives_clone_and_resets_on_builders() {
        let job = demo_job(50);
        let first = job.key();
        // Memoized: later calls return the identical string without
        // recomputation (same pointer into the OnceLock).
        assert_eq!(job.key_ref() as *const str, job.key_ref() as *const str);
        assert_eq!(job.key(), first);
        // A clone carries identical content, so carrying the memo over
        // is sound.
        assert_eq!(job.clone().key(), first);
        // Builders change keyed content and must invalidate the memo
        // even when the source job already computed its key.
        let rebudgeted = job.clone().with_max_cycles(1234);
        assert_ne!(rebudgeted.key(), first);
        let traced = job.clone().with_metrics(true);
        assert_ne!(traced.key(), first);
    }

    #[test]
    fn key_depends_on_content() {
        let base = demo_job(50);
        assert_ne!(base.key(), demo_job(51).key(), "iterations change the key");
        let other_design = Job {
            cfg: MachineConfig::itanium2_cmp(DesignPoint::existing()),
            ..demo_job(50)
        };
        assert_ne!(base.key(), other_design.key(), "design changes the key");
        let single = Job {
            mode: Mode::Single,
            ..demo_job(50)
        };
        assert_ne!(base.key(), single.key(), "mode changes the key");
        let budget = demo_job(50).with_max_cycles(1_000);
        assert_ne!(base.key(), budget.key(), "budget changes the key");
    }

    #[test]
    fn metrics_flag_changes_key_and_attaches_report() {
        let base = demo_job(40);
        let traced = demo_job(40).with_metrics(true);
        assert_ne!(base.key(), traced.key(), "metrics jobs cache separately");
        let plain = execute(&base, 0);
        let with = execute(&traced, 0);
        let plain = plain.ok().expect("plain run ok");
        let with = with.ok().expect("traced run ok");
        assert!(plain.metrics.is_none());
        let m = with.metrics.as_ref().expect("metrics attached");
        assert_eq!(m.get_counter("machine.cycles"), Some(with.cycles));
        assert!(m.get_counter("trace.produce").unwrap_or(0) > 0);
        assert!(m.get_histogram("consume_to_use_cycles").unwrap().count > 0);
        // Tracing must not perturb the simulation itself.
        assert_eq!(plain.cycles, with.cycles);
    }

    #[test]
    fn execute_completes_a_small_pipeline() {
        let out = execute(&demo_job(40), 0);
        let r = out.ok().expect("run succeeds");
        assert_eq!(r.iterations, 40);
        assert!(out.is_ok());
        assert_eq!(out.status(), "ok");
    }

    #[test]
    fn watchdog_classifies_budget_overrun() {
        let job = demo_job(10_000).with_max_cycles(100);
        match execute(&job, 3) {
            JobOutcome::Timeout { max_cycles } => assert_eq!(max_cycles, 100),
            other => panic!("expected timeout, got {other}"),
        }
    }

    #[test]
    fn check_violations_fail_loudly_and_skip_retries() {
        use hfs_core::{CheckLevel, Mutation};
        // A machine-check violation must surface as its own outcome —
        // not be misfiled as a generic sim error, not run to timeout.
        let checker = hfs_core::Checker::with_level(CheckLevel::Full);
        checker.set_mutation(Mutation::DoubleGrantBus);
        let job = Job {
            cfg: MachineConfig::itanium2_cmp(DesignPoint::existing()),
            ..demo_job(200)
        };
        let run = |checker| classify(run_once(&job, &Tracer::disabled(), checker, None));
        match run(&checker) {
            JobOutcome::CheckFailed(e) => {
                assert!(e.contains("bus.double_grant"), "{e}");
            }
            other => panic!("expected check failure, got {other}"),
        }
        // The same job under a clean checker succeeds and reports it.
        let clean = hfs_core::Checker::with_level(CheckLevel::Full);
        let out = run(&clean);
        assert_eq!(out.status(), "ok");
        assert!(out.ok().expect("clean run ok").checked);
    }

    #[test]
    fn cancellation_classifies_and_skips_retries() {
        use hfs_sim::CancelToken;
        let token = CancelToken::new();
        token.cancel();
        // A pre-fired token aborts at cycle 0.
        let out = execute_cancellable(&demo_job(5_000), Some(&token));
        assert_eq!(out.status(), "cancelled");
        assert!(!out.is_ok());
        assert!(out.to_string().contains("cancelled"));
        // An unfired token changes nothing.
        let fresh = CancelToken::new();
        let out = execute_cancellable(&demo_job(40), Some(&fresh));
        assert_eq!(out.ok().expect("runs to completion").iterations, 40);
    }

    #[test]
    fn config_errors_become_sim_errors() {
        // 5 pairs exceed the 8-core bus model.
        let job = Job::multi(
            "test/too-many",
            KernelPair::simple("demo", 2, 10),
            MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
            5,
        );
        match execute(&job, 1) {
            JobOutcome::SimError(e) => assert!(e.contains("pipelines"), "{e}"),
            other => panic!("expected sim error, got {other}"),
        }
    }

    #[test]
    fn single_and_multi_modes_execute() {
        let single = Job::single(
            "test/single",
            KernelPair::simple("demo", 2, 30),
            MachineConfig::itanium2_single(),
        );
        let r = execute(&single, 0);
        assert_eq!(r.ok().expect("single ok").cores.len(), 1);

        let multi = Job::multi(
            "test/multi",
            KernelPair::simple("demo", 2, 30),
            MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
            2,
        );
        let r = execute(&multi, 0);
        assert_eq!(r.ok().expect("multi ok").cores.len(), 4);
    }
}
