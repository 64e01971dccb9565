//! Runs one workload in this process: set-up, timed reps, checks, and —
//! on the traced run — the span pass and the per-layer ledger.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::catalog;
use crate::layers;
use crate::report::{Metric, Report};
use crate::spans::{self, Recorder};
use crate::stats::{quantile, HEADLINE_Q};
use crate::workloads;

/// Where every cache, socket, result and trace goes (relative to the
/// repository root, which `run.sh` makes the working directory).
pub const OUT_DIR: &str = "benchmark/out";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Fewest timed reps, however short `--seconds` is.
const MIN_REPS: u64 = 3;

/// Share of `--seconds` the traced run spends on the workload's own reps
/// (alternating untraced and traced); the per-layer ledger gets the rest.
const TRACED_REP_SHARE: f64 = 0.4;

/// `--workload/--seed/--seconds/--trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
}

/// A fresh, empty scratch directory for `workload`.
fn scratch_dir(workload: &str) -> PathBuf {
    let dir = Path::new(OUT_DIR).join(workload);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the workload's scratch directory");
    dir
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs this process may run on (`Cpus_allowed_list`): `run.sh` pins
/// the run to one.
pub fn allowed_cpus() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

/// The time one rep takes at quantile `q`: the sum over its parts of
/// each part's own `q`-quantile.
fn rep_time(parts: &[Vec<f64>], q: f64) -> f64 {
    parts.iter().map(|p| quantile(p, q)).sum()
}

/// Runs `args.workload` and returns its report.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(args: &Args, mut notes: Vec<String>) -> Result<Report, String> {
    let dir = scratch_dir(&args.workload);
    let mut w = workloads::build(&args.workload, args.seed, &dir)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;

    // The traced run reports no end-to-end metric, so it sets up once.
    let setups = if args.trace { 1 } else { SETUP_REPS };
    let setup_secs: Vec<f64> = (0..setups)
        .map(|_| {
            w.teardown();
            let t = Instant::now();
            w.setup();
            t.elapsed().as_secs_f64()
        })
        .collect();

    let budget = if args.trace {
        args.seconds * TRACED_REP_SHARE
    } else {
        args.seconds
    };
    // Traced: at least two reps of each kind.
    let min_reps = if args.trace { 4 } else { MIN_REPS };
    let mut rec = Recorder::new(false);
    let mut plain: Vec<Vec<f64>> = vec![Vec::new(); w.parts()];
    let mut traced = plain.clone();
    let mut buf = Vec::new();
    let mut reps = 0u64;
    let start = Instant::now();
    while reps < min_reps || start.elapsed().as_secs_f64() < budget {
        let tracing = args.trace && reps % 2 == 1;
        rec.set_enabled(tracing);
        w.rep(&mut rec, reps + 1, &mut buf);
        let into = if tracing { &mut traced } else { &mut plain };
        for (part, secs) in buf.drain(..) {
            into[part].push(secs);
        }
        reps += 1;
    }
    rec.set_enabled(false);
    // Before the end-of-run checks: their reference executions are the
    // benchmark's memory, not the program's.
    let rss_mb = peak_rss_mb();

    let jobs = w.jobs_per_rep() as f64;
    let cycles = w.cycles_per_rep() as f64;
    let layer_jobs = w.layer_jobs();
    let mut tally = w.finish(&mut notes);
    drop(w);

    let n = plain.iter().map(Vec::len).min().unwrap_or(0) as u64;
    let mut metrics = Vec::new();
    let mut extras = Vec::new();
    if args.trace {
        let out = Path::new(OUT_DIR).join(format!("trace_{}.json", args.workload));
        std::fs::write(&out, spans::chrome_json(rec.spans())).expect("write the span trace");
        notes.push(format!("spans written to {}", out.display()));
        for (layer, ns) in spans::layer_self_ns(rec.spans()) {
            extras.push(Metric::new(
                format!("span_self_ms.{layer}"),
                ns as f64 / 1e6,
                "ms",
                traced.iter().map(Vec::len).min().unwrap_or(0) as u64,
            ));
        }
        let ledger = layers::measure(&layers::Ctx {
            seed: args.seed,
            dir: dir.clone(),
            jobs: layer_jobs,
            span_overhead_frac: rep_time(&traced, HEADLINE_Q) / rep_time(&plain, HEADLINE_Q) - 1.0,
            unattributed_frac: spans::unattributed_frac(rec.spans()),
            traced_reps: n,
        });
        tally.add(ledger.tally);
        metrics = ledger.metrics;
        notes.extend(ledger.notes);
    } else {
        let wall = rep_time(&plain, HEADLINE_Q);
        metrics.push(Metric::new("jobs_per_s", jobs / wall, "1/s", n));
        metrics.push(Metric::new("sim_cycles_per_s", cycles / wall, "1/s", n));
        metrics.push(Metric::new("peak_rss_mb", rss_mb, "MiB", 1));
        metrics.push(Metric::new(
            "setup_s",
            quantile(&setup_secs, 0.5),
            "s",
            setups as u64,
        ));
        for (tag, q) in [("p50", 0.5), ("p90", 0.9)] {
            let t = rep_time(&plain, q);
            extras.push(Metric::new(format!("jobs_per_s.{tag}"), jobs / t, "1/s", n));
            extras.push(Metric::new(
                format!("sim_cycles_per_s.{tag}"),
                cycles / t,
                "1/s",
                n,
            ));
        }
        extras.push(Metric::new("rep_wall_s", wall, "s", n));
        extras.push(Metric::new("rep_wall_s.p50", rep_time(&plain, 0.5), "s", n));
        extras.push(Metric::new("rep_wall_s.p90", rep_time(&plain, 0.9), "s", n));
        extras.push(Metric::new("jobs_per_rep", jobs, "count", n));
        extras.push(Metric::new("sim_cycles_per_rep", cycles, "count", n));
    }

    // The run must print exactly the catalog's names, in its order.
    let want = if args.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    let got: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    let names: Vec<&str> = want.iter().map(|m| m.name).collect();
    assert_eq!(got, names, "the run's metrics are not the catalog's");

    Ok(Report {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tally,
        metrics,
        extras,
        notes,
    })
}
