//! Shared run helpers for the experiments.
//!
//! Every experiment routes its simulation work through the shared
//! [`hfs_harness::Engine`] returned by [`engine`]: jobs are built with
//! the helpers here, submitted as a batch, executed on the worker pool
//! (cache-aware, watchdog-guarded), and gathered back in submission
//! order.

use std::path::PathBuf;
use std::sync::OnceLock;

use hfs_core::{DesignPoint, MachineConfig, RunResult, SimError};
use hfs_harness::{env_flag, Batch, Engine, Job};
use hfs_mem::Protocol;
use hfs_trace::{chrome_trace_json, Tracer};
use hfs_workloads::Benchmark;

/// Upper bound on simulated cycles per run; hitting it is a harness bug.
pub const MAX_CYCLES: u64 = hfs_harness::DEFAULT_MAX_CYCLES;

/// Iteration cap applied when `HFS_QUICK=1` is set, trading steady-state
/// fidelity for speed.
pub const QUICK_ITERATIONS: u64 = 300;

/// Set to route experiment batches through a running `hfs-serve`
/// instance (`HFS_VIA_SERVER=1`; endpoint from `HFS_SOCK`/`HFS_ADDR`)
/// instead of the in-process engine. Artifacts stay byte-identical.
pub const ENV_VIA_SERVER: &str = "HFS_VIA_SERVER";

/// Selects the coherence protocol every job helper builds machines with
/// (`HFS_PROTOCOL=msi|mesi|dragon`; default MSI). Non-default protocols
/// also suffix batch/artifact names (see [`protocol_suffixed`]) so the
/// committed MSI goldens are never clobbered by a protocol sweep.
pub const ENV_PROTOCOL: &str = "HFS_PROTOCOL";

/// The coherence protocol selected by `HFS_PROTOCOL` (default MSI).
///
/// # Panics
///
/// Panics when the variable names an unknown protocol — a silent
/// fallback would sweep the wrong design axis.
pub fn protocol() -> Protocol {
    match std::env::var(ENV_PROTOCOL) {
        Err(_) => Protocol::Msi,
        Ok(s) if s.is_empty() => Protocol::Msi,
        Ok(s) => {
            Protocol::parse(&s).unwrap_or_else(|| panic!("{ENV_PROTOCOL}: unknown protocol `{s}`"))
        }
    }
}

/// `name` with the suffix non-default protocols carry (`fig6` becomes
/// `fig6__mesi`); MSI names pass through unchanged, keeping every
/// committed artifact path stable.
pub fn protocol_suffixed(name: &str) -> String {
    match protocol() {
        Protocol::Msi => name.to_string(),
        p => format!("{name}__{}", p.label()),
    }
}

fn apply_protocol(mut cfg: MachineConfig) -> MachineConfig {
    cfg.mem.protocol = protocol();
    cfg
}

/// The process-wide experiment engine, configured from the `HFS_*`
/// environment (`HFS_JOBS`, `HFS_CACHE_DIR`, `HFS_NO_CACHE`,
/// `HFS_RESULTS_DIR`, `HFS_METRICS`, `HFS_TRACE_DIR`) on first use.
pub fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(Engine::from_env)
}

/// Whether batches route through an `hfs-serve` instance.
pub fn via_server() -> bool {
    env_flag(ENV_VIA_SERVER)
}

/// Runs an experiment batch — the single entry point every experiment
/// uses. Locally this is [`Engine::run_batch`]; with `HFS_VIA_SERVER=1`
/// the batch is instead submitted to the `hfs-serve` instance named by
/// `HFS_SOCK`/`HFS_ADDR`, streaming chunked progress back and writing
/// the same byte-identical `results/<name>.json` artifact.
///
/// # Panics
///
/// In server mode, panics when the server is unreachable or rejects the
/// batch — silently falling back to local execution would defeat the
/// point of routing through the shared cache/dedup service.
pub fn run_batch(name: &str, jobs: Vec<Job>) -> Batch {
    // Protocol sweeps land in their own artifact files (`fig6__dragon`);
    // the default MSI name is untouched.
    let name = &protocol_suffixed(name);
    if !via_server() {
        return engine().run_batch(name, jobs);
    }
    // Mirror Engine::run_batch's metrics handling so cache keys and
    // artifact bytes match whichever path executes the sweep.
    let jobs: Vec<Job> = if engine().metrics_enabled() {
        jobs.into_iter().map(|j| j.with_metrics(true)).collect()
    } else {
        jobs
    };
    let mut client = hfs_serve::Client::from_env()
        .unwrap_or_else(|e| panic!("HFS_VIA_SERVER=1 but cannot reach hfs-serve: {e}"));
    let batch = client
        .submit_batched(name, jobs, hfs_serve::Subscribe::Final, |u| {
            hfs_serve::print_update(name, u);
        })
        .unwrap_or_else(|e| panic!("server batch `{name}` failed: {e}"));
    if let Some(dir) = engine().results_dir() {
        if let Err(e) = batch.write_artifact(dir) {
            hfs_obs::error(
                "harness",
                "artifact_write_failed",
                &[
                    ("batch", name.as_str().into()),
                    ("error", e.to_string().into()),
                ],
            );
        }
    }
    batch
}

/// Returns the benchmark with quick-mode iteration capping applied.
pub fn scaled(bench: &Benchmark) -> Benchmark {
    if env_flag("HFS_QUICK") {
        bench.with_iterations(bench.pair.iterations.min(QUICK_ITERATIONS))
    } else {
        bench.clone()
    }
}

/// A pipeline job for `bench` (quick-scaled) under `cfg`, labeled
/// `<batch>/<bench>/<design>`.
pub fn pipeline_job(batch: &str, bench: &Benchmark, cfg: MachineConfig) -> Job {
    let b = scaled(bench);
    let label = format!("{batch}/{}/{}", b.name, cfg.design);
    Job::pipeline(label, b.pair, apply_protocol(cfg))
}

/// A pipeline job for `bench` under `design` on the baseline machine.
pub fn design_job(batch: &str, bench: &Benchmark, design: DesignPoint) -> Job {
    pipeline_job(batch, bench, MachineConfig::itanium2_cmp(design))
}

/// A fused single-threaded job for `bench` (Figure 9 baseline).
pub fn single_job(batch: &str, bench: &Benchmark) -> Job {
    let b = scaled(bench);
    Job::single(
        format!("{batch}/{}/single", b.name),
        b.pair,
        apply_protocol(MachineConfig::itanium2_single()),
    )
}

/// A multi-pipeline job: `pairs` concurrent copies of `bench` under
/// `design` (the CMP scaling sweep).
pub fn multi_job(batch: &str, bench: &Benchmark, design: DesignPoint, pairs: u8) -> Job {
    let b = scaled(bench);
    Job::multi(
        format!("{batch}/{}/{}/x{pairs}", b.name, design.label()),
        b.pair,
        apply_protocol(MachineConfig::itanium2_cmp(design)),
        pairs,
    )
}

/// Runs `bench` under an explicit machine configuration, without the
/// engine (no cache, no pool) — the building block for one-off runs.
///
/// # Errors
///
/// Any [`SimError`] from machine construction or the run.
pub fn try_run_with_config(bench: &Benchmark, cfg: &MachineConfig) -> Result<RunResult, SimError> {
    let b = scaled(bench);
    hfs_harness::execute_once(&Job::pipeline(
        b.name,
        b.pair.clone(),
        apply_protocol(cfg.clone()),
    ))
}

/// Runs `bench` as a two-thread pipeline under `design` on the baseline
/// machine.
///
/// # Panics
///
/// Panics on simulation errors (deadlock/verification), which indicate a
/// harness or model bug, with the failing benchmark named.
pub fn run_design(bench: &Benchmark, design: DesignPoint) -> RunResult {
    run_with_config(bench, &MachineConfig::itanium2_cmp(design))
}

/// Runs `bench` under an explicit machine configuration.
///
/// # Panics
///
/// See [`run_design`].
pub fn run_with_config(bench: &Benchmark, cfg: &MachineConfig) -> RunResult {
    try_run_with_config(bench, cfg)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", bench.name, cfg.design))
}

/// Runs the demo design point — the Figure 6 HEAVYWT pipeline on `fir`,
/// capped at [`QUICK_ITERATIONS`] — with a recording tracer, returning
/// the Chrome trace-event JSON and the (metrics-carrying) run result.
///
/// # Panics
///
/// Panics if the demo run fails, which indicates a model bug.
pub fn demo_trace() -> (String, RunResult) {
    let b = hfs_workloads::benchmark("fir").expect("fir benchmark exists");
    let b = b.with_iterations(b.pair.iterations.min(QUICK_ITERATIONS));
    let job = design_job("trace-demo", &b, DesignPoint::heavywt());
    let tracer = Tracer::recording();
    let result = hfs_harness::execute_once_with(&job, &tracer)
        .unwrap_or_else(|e| panic!("trace demo run failed: {e}"));
    (chrome_trace_json(&tracer.take_events()), result)
}

/// Honors the fig binaries' trace hook: when `--trace <path>` was passed
/// on the command line, writes the [`demo_trace`] Chrome JSON to that
/// path and returns it.
///
/// # Panics
///
/// Panics if the trace file cannot be written.
pub fn maybe_write_demo_trace() -> Option<PathBuf> {
    let path = std::env::args()
        .skip_while(|a| a != "--trace")
        .nth(1)
        .map(PathBuf::from)?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).expect("create trace output directory");
    }
    let (json, _) = demo_trace();
    std::fs::write(&path, json).expect("write trace file");
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_workloads::benchmark;

    #[test]
    fn run_design_completes_quickly_scaled() {
        let b = benchmark("fir").unwrap().with_iterations(50);
        let r = run_design(&b, DesignPoint::heavywt());
        assert_eq!(r.iterations, 50);
    }

    #[test]
    fn try_variants_report_errors_instead_of_panicking() {
        // An undersized queue deadlocks bzip2's nested stream by
        // construction; the fallible API must surface that as Err.
        let b = benchmark("bzip2").unwrap().with_iterations(50);
        let cfg = MachineConfig::itanium2_cmp(DesignPoint::heavywt_with(1, 4));
        assert!(try_run_with_config(&b, &cfg).is_err());
    }

    #[test]
    fn demo_trace_produces_chrome_json_with_metrics() {
        let (json, r) = demo_trace();
        assert!(json.starts_with("{\"traceEvents\":["), "chrome envelope");
        let m = r.metrics.expect("traced run carries metrics");
        assert!(m.get_counter("trace.produce").unwrap_or(0) > 0);
    }

    #[test]
    fn default_protocol_keeps_artifact_names() {
        // HFS_PROTOCOL is unset under `cargo test`, so the helpers must
        // build MSI machines and leave artifact names untouched.
        assert_eq!(protocol(), Protocol::Msi);
        assert_eq!(protocol_suffixed("fig6"), "fig6");
        let b = benchmark("fir").unwrap().with_iterations(50);
        let j = design_job("fig6", &b, DesignPoint::existing());
        assert_eq!(j.cfg.mem.protocol, Protocol::Msi);
    }

    #[test]
    fn job_labels_follow_batch_bench_design() {
        let b = benchmark("fir").unwrap().with_iterations(50);
        let j = design_job("fig7", &b, DesignPoint::heavywt());
        assert_eq!(j.label, "fig7/fir/HEAVYWT");
        let s = single_job("fig9", &b);
        assert_eq!(s.label, "fig9/fir/single");
        let m = multi_job("scaling", &b, DesignPoint::existing(), 3);
        assert_eq!(m.label, "scaling/fir/EXISTING/x3");
    }
}
