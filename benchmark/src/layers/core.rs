//! `hfs-core`: lowering, machine construction, and `Machine::run` under
//! each of the three run loops, on the workload's representative jobs.

use std::time::Instant;

use hfs_core::kernel::KernelPair;
use hfs_core::{DesignPoint, Machine, RunResult, SchedMode};
use hfs_harness::{execute_once, Job, Mode};

use crate::layers::isa::lowered_programs;
use crate::layers::{low_of, timed, Ctx, Ledger};
use crate::stats::{quantile, HEADLINE_Q};
use crate::workloads::same_result;

/// Samples per job of the microsecond-scale rows (lowering,
/// construction).
const SMALL_REPS: usize = 15;

/// Wall time each job × run loop should accumulate; short jobs repeat
/// until they have, long jobs run twice.
const RUN_TARGET_S: f64 = 0.004;

/// The machine `job` describes, as `execute_once` builds it.
pub fn machine_for(job: &Job) -> Machine {
    match job.mode {
        Mode::Pipeline => Machine::new_pipeline(&job.cfg, &job.pair),
        Mode::Single => Machine::new_single(&job.cfg, &job.pair),
        Mode::Multi(n) => {
            let pairs: Vec<KernelPair> = (0..n).map(|_| job.pair.clone()).collect();
            Machine::new_multi_pipeline(&job.cfg, &pairs)
        }
    }
    .unwrap_or_else(|e| panic!("{}: {e}", job.label))
}

/// The three run loops.
#[derive(Clone, Copy)]
enum Loop {
    PerCycle,
    Poll,
    Event,
}

impl Loop {
    fn select(self, m: &mut Machine) {
        match self {
            Loop::PerCycle => m.set_fast_forward(false),
            Loop::Poll => m.set_sched_mode(SchedMode::Poll),
            Loop::Event => m.set_sched_mode(SchedMode::Event),
        }
    }
}

/// Low-quantile seconds of `f`, called twice and then as often again (at
/// most 40 times) as fits in [`RUN_TARGET_S`].
fn low_within_target(mut f: impl FnMut() -> f64) -> f64 {
    let first = f();
    let more = ((RUN_TARGET_S / first) as usize).clamp(1, 40);
    let mut samples = vec![first];
    samples.extend((0..more).map(|_| f()));
    quantile(&samples, HEADLINE_Q)
}

/// Seconds one call of `f` takes.
fn secs_of<T>(f: impl FnOnce() -> T) -> f64 {
    timed(f).0
}

/// One timed `Machine::run` under `which`: (seconds, result, skipped
/// cycles, bound computations, fast-forward latched off).
fn timed_run(job: &Job, which: Loop) -> (f64, RunResult, u64, u64, bool) {
    let mut m = machine_for(job);
    which.select(&mut m);
    let t = Instant::now();
    let r = m
        .run(job.max_cycles)
        .unwrap_or_else(|e| panic!("{}: {e}", job.label));
    let secs = t.elapsed().as_secs_f64();
    let ff = m.fast_forward_stats();
    (
        secs,
        r,
        m.sched_stats().cycles_skipped,
        ff.bound_computations,
        ff.auto_disabled,
    )
}

/// The `core.*` rows. Returns each job's result, for the `cpu` rows.
pub fn measure(ctx: &Ctx, l: &mut Ledger) -> Vec<RunResult> {
    let jobs = &ctx.jobs;
    let n = jobs.len() as u64;

    let lower_s: f64 = jobs
        .iter()
        .map(|j| low_of(SMALL_REPS, || secs_of(|| lowered_programs(j))))
        .sum();
    l.put("core.lower_us", lower_s * 1e6, n);

    let new_s: f64 = jobs
        .iter()
        .map(|j| low_of(SMALL_REPS, || secs_of(|| machine_for(j))))
        .sum();
    l.put("core.machine_new_us", new_s * 1e6, n);

    let mut results: Vec<RunResult> = Vec::with_capacity(jobs.len());
    let mut wall = [0.0f64; 3];
    let mut whole = 0.0f64;
    let (mut skipped, mut bounds, mut latched) = (0u64, 0u64, 0u64);
    for job in jobs {
        let mut first: Option<RunResult> = None;
        for (k, which) in [Loop::PerCycle, Loop::Poll, Loop::Event]
            .into_iter()
            .enumerate()
        {
            let mut side = None;
            wall[k] += low_within_target(|| {
                let (secs, r, skip, bound, off) = timed_run(job, which);
                side.get_or_insert((r, skip, bound, off));
                secs
            });
            let (r, skip, bound, off) = side.expect("the run was timed at least once");
            match which {
                Loop::Poll => {
                    bounds += bound;
                    latched += u64::from(off);
                }
                Loop::Event => skipped += skip,
                Loop::PerCycle => {}
            }
            match &first {
                None => first = Some(r),
                Some(f) => l.check(same_result(f, &r), "run loops disagree on a result"),
            }
        }
        results.push(first.expect("three loops ran"));
        // Timed next to its own loops, so that slow drift of the host
        // hits both sides of the closure check below.
        whole += low_within_target(|| secs_of(|| execute_once(job).ok()));
    }
    let cycles: u64 = results.iter().map(|r| r.cycles).sum();
    let per_cycle = |secs: f64| secs * 1e9 / cycles as f64;
    l.put("core.run_ns_per_cycle.percycle", per_cycle(wall[0]), n);
    l.put("core.run_ns_per_cycle.poll", per_cycle(wall[1]), n);
    l.put("core.run_ns_per_cycle.event", per_cycle(wall[2]), n);
    l.put("core.sched_overhead_ratio", wall[2] / wall[0], n);
    l.put("core.skipped_cycle_frac", skipped as f64 / cycles as f64, n);
    l.put(
        "core.bound_computations_per_kcycle",
        bounds as f64 * 1e3 / cycles as f64,
        n,
    );
    l.put("core.ff_auto_disabled", latched as f64, n);
    l.put("core.model_cycles", cycles as f64, n);

    // Ledger closure: construction (which includes lowering) plus the
    // event loop's cycles should add up to what `execute_once` costs.
    l.notes.push(format!(
        "core ledger: machine_new + cycles x run_ns_per_cycle.event = {:.1}% of the execute_once wall on the layer jobs",
        (new_s + wall[2]) / whole * 100.0
    ));

    // The scaling figure's largest machine: four adpcmdec pairs, eight
    // cores, on the software-queue design.
    let b = hfs_workloads::benchmark("adpcmdec").expect("adpcmdec is a registered benchmark");
    let multi = hfs_bench::runner::multi_job("scaling", &b, DesignPoint::existing(), 4);
    let (secs, r, ..) = timed_run(&multi, Loop::Event);
    l.put("core.multi4_ns_per_cycle", secs * 1e9 / r.cycles as f64, 1);
    results
}
