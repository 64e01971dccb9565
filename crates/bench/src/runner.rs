//! Shared run helpers for the experiments.
//!
//! Every experiment routes its simulation work through the shared
//! [`hfs_harness::Engine`] returned by [`engine`]: jobs are built with
//! the helpers here, submitted as a batch, executed on the worker pool
//! (cache-aware, watchdog-guarded), and gathered back in submission
//! order.

use std::sync::OnceLock;

use hfs_core::{DesignPoint, MachineConfig};
use hfs_harness::{env_flag, Batch, Engine, Job};
use hfs_mem::Protocol;
use hfs_workloads::Benchmark;

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

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_workloads::benchmark;

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
