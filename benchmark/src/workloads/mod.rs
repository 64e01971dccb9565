//! The five workloads and what the runner needs from each.

pub mod figures;
pub mod sim;
pub mod sweep;

use std::path::Path;

use hfs_core::RunResult;
use hfs_harness::{Job, JobOutcome};

use crate::inputs;
use crate::report::Tally;
use crate::spans::Recorder;

/// One benchmark workload: set-up, a repeatable timed rep, and the
/// end-of-run correctness checks.
pub trait Workload {
    /// Builds (or rebuilds from scratch) everything a timed rep needs:
    /// inputs, a warm-up rep, cache priming, server start. Timed by the
    /// runner as `setup_s`.
    fn setup(&mut self);

    /// Undoes [`Workload::setup`] — stops servers, empties and settles
    /// scratch directories — so that the next set-up starts from nothing.
    /// Not timed: `setup_s` is the cost of setting up, not of cleaning up
    /// after the set-up before it.
    fn teardown(&mut self) {}

    /// How many separately timed parts one rep has (the simulator
    /// workloads time each point; the others time the rep whole).
    fn parts(&self) -> usize {
        1
    }

    /// Runs one rep, pushing `(part, seconds)` for each timed part and
    /// checking its outputs. `op_id` tags every span of the rep.
    fn rep(&mut self, rec: &mut Recorder, op_id: u64, out: &mut Vec<(usize, f64)>);

    /// Jobs completed by one rep.
    fn jobs_per_rep(&self) -> u64;

    /// Simulated cycles in the results one rep delivers (exact).
    fn cycles_per_rep(&self) -> u64;

    /// Tears down, runs the end-of-run checks (reference executions,
    /// server identities) and returns the operation tally; remarks that
    /// are not failures go to `notes`.
    fn finish(&mut self, notes: &mut Vec<String>) -> Tally;

    /// A few jobs representative of the workload; the `isa`, `cpu` and
    /// `core` rows of the per-layer ledger are measured on them.
    fn layer_jobs(&self) -> Vec<Job>;
}

/// Builds the named workload with its scratch directory `dir` (under
/// `benchmark/out/`).
pub fn build(name: &str, seed: u64, dir: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sim_dense" => Box::new(sim::Sim::new(inputs::dense_points(), seed)),
        "sim_stream" => Box::new(sim::Sim::new(inputs::stream_points(), seed)),
        "figures_cold" => Box::new(figures::FiguresCold::new(dir)),
        "sweep_cold" => Box::new(sweep::Cold::new(seed, dir)),
        "sweep_warm" => Box::new(sweep::Warm::new(seed, dir)),
        _ => return None,
    })
}

/// Empties `dir` (recreating it) and waits for the filesystem to finish
/// with what was there. A cold rep deletes the thousands of cache files
/// the rep before it wrote; left alone, the journal commits and discards
/// that deletion queues land in the next timed region (on the authoring
/// host's ext4 they moved `sweep_cold` by up to a quarter from one run to
/// the next). Syncing the parent directory forces that commit here,
/// outside the timing.
pub fn empty_and_settle(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create a scratch directory");
    if let Some(parent) = dir.parent() {
        // Best effort: a filesystem that cannot sync a directory only
        // loses the settling.
        let _ = std::fs::File::open(parent).and_then(|d| d.sync_all());
    }
}

/// Whether two runs produced the same result, field by field.
pub fn same_result(a: &RunResult, b: &RunResult) -> bool {
    a.design == b.design
        && a.cycles == b.cycles
        && a.cores == b.cores
        && a.iterations == b.iterations
        && a.mem == b.mem
        && a.stream_cache == b.stream_cache
        && a.metrics == b.metrics
        && a.checked == b.checked
}

/// Whether two outcomes are both `Ok` with the same result.
pub fn same_ok_outcome(a: &JobOutcome, b: &JobOutcome) -> bool {
    matches!((a.ok(), b.ok()), (Some(x), Some(y)) if same_result(x, y))
}
