//! The per-layer ledger: one module per crate, each timing calls into
//! that crate's public functions from outside. Nothing inside the
//! program is edited.
//!
//! Every traced run measures every row. The `isa`, `cpu` and `core`
//! rows that depend on simulator points take the workload's own
//! [`Workload::layer_jobs`](crate::workloads::Workload::layer_jobs);
//! everything else runs on fixed or seeded inputs, so a row means the
//! same thing on every workload.

mod bench;
mod check;
mod core;
mod cpu;
mod harness;
mod isa;
mod mem;
mod obs;
mod serve;
mod sim;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use hfs_harness::Job;

use crate::catalog;
use crate::report::{Metric, Tally};
use crate::stats::{quantile, HEADLINE_Q};

/// What the ledger needs from the traced run.
pub struct Ctx {
    /// `--seed`: drives the sweep draw and the `mem` replay streams.
    pub seed: u64,
    /// The workload's scratch directory.
    pub dir: PathBuf,
    /// The workload's representative jobs.
    pub jobs: Vec<Job>,
    /// Traced ÷ untraced rep time − 1, from the workload's own reps.
    pub span_overhead_frac: f64,
    /// Share of the workload's timed region no span covers.
    pub unattributed_frac: f64,
    /// Untraced reps behind the two fractions.
    pub traced_reps: u64,
}

/// The measured rows, plus the faithfulness checks made on the way (the
/// hand-rolled drivers must agree with the machine, modes with each
/// other, replays with themselves).
#[derive(Default)]
pub struct Ledger {
    /// Rows, in catalog order once [`measure`] returns.
    pub metrics: Vec<Metric>,
    /// Checks made while measuring.
    pub tally: Tally,
    /// Remarks (ledger closure, model drift).
    pub notes: Vec<String>,
}

impl Ledger {
    /// Records the catalog row `name` (its unit comes from the catalog).
    pub fn put(&mut self, name: &str, value: f64, n: u64) {
        let def = catalog::find(name).unwrap_or_else(|| panic!("`{name}` is not in the catalog"));
        self.metrics.push(Metric::new(name, value, def.unit, n));
    }

    /// Records one check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.tally.record(ok);
        if !ok {
            self.notes.push(format!("check failed: {what}"));
        }
    }
}

/// How long each micro-benchmark row samples.
const SLICE: Duration = Duration::from_millis(60);

/// Times `op` in batches of `batch` calls until [`SLICE`] has passed and
/// returns (low-quantile nanoseconds per call, calls made). Results go
/// through `black_box` in the callers; the batch keeps the two clock
/// reads small beside the work.
pub fn ns_per_op(batch: u64, mut op: impl FnMut()) -> (f64, u64) {
    let mut samples = Vec::new();
    let begin = Instant::now();
    while samples.len() < 5 || begin.elapsed() < SLICE {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    (quantile(&samples, HEADLINE_Q), samples.len() as u64 * batch)
}

/// Seconds `f` takes, with its value.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (t.elapsed().as_secs_f64(), out)
}

/// The low-quantile ([`HEADLINE_Q`]) of `reps` samples of `sample`.
pub fn low_of(reps: usize, mut sample: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| sample()).collect();
    quantile(&samples, HEADLINE_Q)
}

/// What an empty `Instant::now()`/`elapsed()` bracket reads, in
/// nanoseconds: the clock's own latency, which every per-call bracket
/// below includes and has subtracted.
pub fn bracket_overhead_ns() -> f64 {
    let mut read = Duration::ZERO;
    let (_, brackets) = ns_per_op(1024, || {
        let t = Instant::now();
        read += std::hint::black_box(t).elapsed();
    });
    read.as_nanos() as f64 / brackets as f64
}

/// Measures every row of the per-layer ledger.
pub fn measure(ctx: &Ctx) -> Ledger {
    let mut l = Ledger::default();
    let overhead = bracket_overhead_ns();
    sim::measure(&mut l);
    isa::measure(ctx, &mut l);
    let results = core::measure(ctx, &mut l);
    cpu::measure(&results, overhead, &mut l);
    mem::measure(ctx, overhead, &mut l);
    check::measure(&mut l);
    trace::measure(&mut l);
    let (ns, calls) = ns_per_op(16, || {
        std::hint::black_box(hfs_workloads::all_benchmarks());
    });
    l.put("workloads.registry_us", ns / 1e3, calls);
    let slice = harness::SweepSlice::new(ctx.seed, &mut l);
    harness::measure(ctx, &slice, &mut l);
    serve::measure(ctx, &slice, &mut l);
    obs::measure(&mut l);
    bench::measure(ctx, &mut l);
    let order = |m: &Metric| {
        catalog::PER_LAYER
            .iter()
            .position(|d| d.name == m.name)
            .expect("put() only accepts catalog names")
    };
    l.metrics.sort_by_key(order);
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_rows(seed: u64) -> Ledger {
        let ctx = Ctx {
            seed,
            dir: PathBuf::new(),
            jobs: Vec::new(),
            span_overhead_frac: 0.0,
            unattributed_frac: 0.0,
            traced_reps: 0,
        };
        let mut l = Ledger::default();
        mem::measure(&ctx, 0.0, &mut l);
        l
    }

    /// Same seed: identical exact counts. Different seed: other counts,
    /// the same metric names.
    #[test]
    fn exact_rows_follow_the_seed_and_names_do_not() {
        let exact = |l: &Ledger| -> Vec<(String, f64)> {
            l.metrics
                .iter()
                .filter(|m| catalog::find(&m.name).is_some_and(|d| d.exact))
                .map(|m| (m.name.clone(), m.value))
                .collect()
        };
        let names =
            |l: &Ledger| -> Vec<String> { l.metrics.iter().map(|m| m.name.clone()).collect() };
        let (a, b, other) = (mem_rows(1), mem_rows(1), mem_rows(2));
        assert_eq!(a.tally.failed + b.tally.failed + other.tally.failed, 0);
        assert!(!exact(&a).is_empty());
        assert_eq!(exact(&a), exact(&b));
        assert_ne!(exact(&a), exact(&other));
        assert_eq!(names(&a), names(&other));
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn rows_outside_the_catalog_are_refused() {
        Ledger::default().put("mem.made_up", 1.0, 1);
    }
}
