//! Wall-clock benchmark of the simulation hot loop.
//!
//! Runs a fixed set of (benchmark × design point) configurations through
//! [`hfs_harness::execute_once`] (no engine, no cache — every simulated
//! cycle is paid for) and reports **simulated cycles per wall-clock
//! second** for each, measured with `std::time::Instant`. Each point is
//! timed twice: once as the run loop runs by default (fast-forwarding
//! dead cycles) and once pinned to plain per-cycle stepping via the
//! `HFS_NO_FASTFWD` escape hatch, so the headline speedup of
//! fast-forwarding is recorded alongside the absolute rate. The
//! artifact's top-level `geomean_speedup` summarizes the whole set
//! (schema `simbench-v3`). A `host` block records `nproc` and an
//! iso-8601 timestamp (overridable via `HFS_BENCH_TIMESTAMP` so CI
//! drivers can pin it); `--check` matches baseline rows by point keys
//! only and ignores it.
//!
//! The full run writes `BENCH_simloop.json` at the current directory
//! (the repo root under `scripts/ci.sh`), recording the perf trajectory
//! of the loop over time. `--quick` runs a reduced point set and writes
//! to `target/BENCH_simloop_quick.json` instead (so the committed
//! artifact stays clean). The full set includes the quick points, so
//! quick runs always have committed rows to compare against.
//!
//! `--check` turns the comparison into a gate: any point more than 10%
//! slower than its committed `BENCH_simloop.json` row (matched by
//! bench, design, *and* iteration count) is re-measured once with a 4×
//! longer window to damp scheduler noise, and the run exits non-zero if
//! the regression persists. Without `--check`, deltas are printed
//! informationally.

use std::time::Instant;

use hfs_bench::perfbench::{
    bench_timestamp, load_committed_points, round2, write_artifact, CHECK_FLOOR,
};
use hfs_core::{DesignPoint, MachineConfig};
use hfs_harness::{execute_once, Job, Json};
use hfs_sim::stats::geomean;
use hfs_workloads::benchmark;

/// Environment variable that disables the fast-forward loop.
const ENV_NO_FASTFWD: &str = "HFS_NO_FASTFWD";

/// One benchmark × design configuration to time.
struct Point {
    bench: &'static str,
    design: DesignPoint,
    iterations: u64,
}

/// Result of timing one configuration in one loop mode.
struct Sample {
    sim_cycles: u64,
    runs: u64,
    wall_secs: f64,
}

impl Sample {
    fn cycles_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.sim_cycles as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// The full measurement set: the three golden designs on both a tight
/// FP kernel (`fir`) and a memory-bound loop (`mcf`), iteration counts
/// chosen so each point simulates a few hundred thousand cycles per
/// run — plus the `--quick` points, so the committed artifact always
/// carries baseline rows for the CI quick gate.
fn full_points() -> Vec<Point> {
    let mut points = vec![
        point("fir", DesignPoint::existing(), 20_000),
        point("fir", DesignPoint::syncopti_sc_q64(), 20_000),
        point("fir", DesignPoint::heavywt(), 20_000),
        point("mcf", DesignPoint::existing(), 5_000),
        point("mcf", DesignPoint::syncopti_sc_q64(), 5_000),
        point("mcf", DesignPoint::heavywt(), 5_000),
    ];
    points.extend(quick_points());
    points
}

/// The `--quick` set: one streaming point per backend family, small
/// iteration counts, for CI smoke use.
fn quick_points() -> Vec<Point> {
    vec![
        point("fir", DesignPoint::syncopti_sc_q64(), 2_000),
        point("fir", DesignPoint::heavywt(), 2_000),
    ]
}

fn point(bench: &'static str, design: DesignPoint, iterations: u64) -> Point {
    Point {
        bench,
        design,
        iterations,
    }
}

/// Runs `p` repeatedly until at least `min_secs` of wall time has
/// accumulated, returning total simulated cycles and elapsed time.
fn time_point(p: &Point, min_secs: f64) -> Sample {
    let b = benchmark(p.bench)
        .unwrap_or_else(|| panic!("unknown benchmark `{}`", p.bench))
        .with_iterations(p.iterations);
    let cfg = MachineConfig::itanium2_cmp(p.design);
    let job = Job::pipeline(
        format!("simbench/{}/{}", p.bench, p.design),
        b.pair,
        cfg.clone(),
    );
    // Warm-up run: page in code, prime allocator arenas.
    let warm = execute_once(&job).unwrap_or_else(|e| panic!("{}: {e}", job.label));
    let mut sim_cycles = 0u64;
    let mut runs = 0u64;
    let start = Instant::now();
    loop {
        let r = execute_once(&job).unwrap_or_else(|e| panic!("{}: {e}", job.label));
        assert_eq!(r.cycles, warm.cycles, "{}: nondeterministic run", job.label);
        sim_cycles += r.cycles;
        runs += 1;
        if start.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
    Sample {
        sim_cycles,
        runs,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// Measurement windows per mode; the fastest per mode is kept for the
/// absolute rates. Scheduler interference only ever *slows* a window
/// down, so the max-rate window is the least-contaminated estimate of
/// the true throughput.
const BEST_OF: usize = 5;

fn keep_best(best: &mut Option<Sample>, s: Sample) {
    if best
        .as_ref()
        .is_none_or(|b| s.cycles_per_sec() > b.cycles_per_sec())
    {
        *best = Some(s);
    }
}

/// One configuration measured in both loop modes. `speedup` is the
/// paired-ratio estimate, not `ff`/`no_ff` of the best windows: the two
/// maxima are contaminated independently, so their ratio carries twice
/// the noise of a back-to-back pair.
struct Measurement {
    ff: Sample,
    no_ff: Sample,
    speedup: f64,
}

/// Times one window of `p` in the given loop mode.
fn time_mode(p: &Point, min_secs: f64, fastfwd: bool) -> Sample {
    if fastfwd {
        std::env::remove_var(ENV_NO_FASTFWD);
    } else {
        std::env::set_var(ENV_NO_FASTFWD, "1");
    }
    let s = time_point(p, min_secs);
    std::env::remove_var(ENV_NO_FASTFWD);
    s
}

/// Times `p` with the fast-forward loop on and off: [`BEST_OF`] window
/// *pairs*, each pair run back-to-back with the mode order alternating.
/// Adjacent windows share the interference environment, so slow drift
/// (CPU frequency ramps, noisy neighbors) cancels inside each pair's
/// ratio, and alternating the order cancels what linear drift remains.
/// The reported speedup is the *median* pair ratio — robust to a
/// contaminated pair in a way the ratio of two independent best-of
/// maxima is not. Absolute rates still report each mode's best window.
fn measure(p: &Point, min_secs: f64) -> Measurement {
    let mut ff: Option<Sample> = None;
    let mut no_ff: Option<Sample> = None;
    let mut ratios: Vec<f64> = Vec::with_capacity(BEST_OF);
    for i in 0..BEST_OF {
        let (f, n) = if i % 2 == 0 {
            let f = time_mode(p, min_secs, true);
            let n = time_mode(p, min_secs, false);
            (f, n)
        } else {
            let n = time_mode(p, min_secs, false);
            let f = time_mode(p, min_secs, true);
            (f, n)
        };
        if n.cycles_per_sec() > 0.0 {
            ratios.push(f.cycles_per_sec() / n.cycles_per_sec());
        }
        keep_best(&mut ff, f);
        keep_best(&mut no_ff, n);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    let speedup = if ratios.is_empty() {
        0.0
    } else {
        ratios[ratios.len() / 2]
    };
    Measurement {
        ff: ff.unwrap(),
        no_ff: no_ff.unwrap(),
        speedup,
    }
}

fn point_json(p: &Point, m: &Measurement) -> Json {
    let (ff, no_ff) = (&m.ff, &m.no_ff);
    Json::obj(vec![
        ("bench", Json::Str(p.bench.to_string())),
        ("design", Json::Str(p.design.to_string())),
        ("iterations", Json::U64(p.iterations)),
        ("runs", Json::U64(ff.runs)),
        ("sim_cycles", Json::U64(ff.sim_cycles)),
        ("wall_secs", Json::F64(ff.wall_secs)),
        ("cycles_per_sec", Json::F64(ff.cycles_per_sec().round())),
        (
            "cycles_per_sec_no_fastfwd",
            Json::F64(no_ff.cycles_per_sec().round()),
        ),
        ("fastfwd_speedup", Json::F64(round2(m.speedup))),
    ])
}

/// Geometric mean of the per-point speedups (the artifact's headline
/// number: how much faster the fast-forwarding loop is than per-cycle
/// stepping across the whole point set).
fn geomean_speedup(rows: &[Json]) -> f64 {
    let speedups: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.get("fastfwd_speedup").and_then(Json::as_f64))
        .filter(|&s| s > 0.0)
        .collect();
    if speedups.is_empty() {
        0.0
    } else {
        geomean(speedups)
    }
}

/// Finds the committed row matching a current point — by bench, design,
/// *and* iteration count, since cycles/sec varies with run length.
fn baseline_for<'a>(committed: &'a [Json], p: &Json) -> Option<&'a Json> {
    committed.iter().find(|c| {
        (c.get("bench"), c.get("design"), c.get("iterations"))
            == (p.get("bench"), p.get("design"), p.get("iterations"))
    })
}

/// Reads the committed artifact and prints per-point deltas against the
/// current measurements (informational only).
fn print_delta(current: &Json, committed_path: &str) {
    let Some(committed) = load_committed_points(committed_path) else {
        println!("simbench: no committed {committed_path}; skipping delta");
        return;
    };
    let points = current.get("points").and_then(Json::as_arr).unwrap_or(&[]);
    for p in points {
        let Some(base) = baseline_for(&committed, p) else {
            continue;
        };
        let cur = rate(p);
        let old = rate(base);
        if old > 0.0 {
            println!(
                "simbench: {}/{}: {:.2}x vs committed baseline ({:.0} vs {:.0} cyc/s; informational)",
                p.get("bench").and_then(Json::as_str).unwrap_or("?"),
                p.get("design").and_then(Json::as_str).unwrap_or("?"),
                cur / old,
                cur,
                old,
            );
        }
    }
}

/// Gates the current measurements against the committed baseline.
/// A point slower than [`CHECK_FLOOR`]× its committed rate is
/// re-measured once with a 4× window (damping transient scheduler
/// noise), updating its row in `rows`; persistent regressions are
/// returned as failure messages.
fn run_check(
    points: &[Point],
    rows: &mut [Json],
    min_secs: f64,
    committed_path: &str,
) -> Vec<String> {
    let Some(committed) = load_committed_points(committed_path) else {
        println!("simbench: no committed {committed_path}; nothing to check against");
        return Vec::new();
    };
    let mut failures = Vec::new();
    for (p, row) in points.iter().zip(rows.iter_mut()) {
        let Some(base) = baseline_for(&committed, row) else {
            println!(
                "simbench: {}/{} iters={} has no committed baseline; skipping",
                p.bench, p.design, p.iterations
            );
            continue;
        };
        let old = rate(base);
        if old <= 0.0 {
            continue;
        }
        let mut cur = rate(row);
        if cur < CHECK_FLOOR * old {
            println!(
                "simbench: {}/{}: {:.0} cyc/s is below {:.0}% of committed {:.0}; re-measuring",
                p.bench,
                p.design,
                cur,
                CHECK_FLOOR * 100.0,
                old,
            );
            let m = measure(p, min_secs * 4.0);
            *row = point_json(p, &m);
            cur = rate(row);
        }
        if cur < CHECK_FLOOR * old {
            failures.push(format!(
                "{}/{} iters={}: {:.0} cyc/s vs committed {:.0} ({:.2}x, floor {:.2}x)",
                p.bench,
                p.design,
                p.iterations,
                cur,
                old,
                cur / old,
                CHECK_FLOOR,
            ));
        } else {
            println!(
                "simbench: {}/{}: {:.2}x vs committed baseline — ok",
                p.bench,
                p.design,
                cur / old,
            );
        }
    }
    // The committed side of the key match: baseline rows no current
    // point covers (e.g. a point set change) are surfaced rather than
    // silently ignored.
    for c in &committed {
        if baseline_for(rows, c).is_none() {
            println!(
                "simbench: committed {}/{} iters={} matched no current point (unchecked)",
                c.get("bench").and_then(Json::as_str).unwrap_or("?"),
                c.get("design").and_then(Json::as_str).unwrap_or("?"),
                c.get("iterations").and_then(Json::as_u64).unwrap_or(0),
            );
        }
    }
    failures
}

/// Host metadata recorded alongside the measurements: worker-thread
/// capacity and when the run happened. Purely
/// descriptive — `--check` matches baseline rows by the `points` keys
/// only, so this block never affects the regression gate.
fn host_json() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let timestamp = bench_timestamp();
    Json::obj(vec![
        ("nproc", Json::U64(nproc)),
        ("timestamp", Json::Str(timestamp)),
    ])
}

fn rate(p: &Json) -> f64 {
    match p.get("cycles_per_sec") {
        Some(Json::F64(v)) => *v,
        Some(Json::U64(v)) => *v as f64,
        _ => 0.0,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let (points, min_secs, out_path) = if quick {
        (quick_points(), 1.0, "target/BENCH_simloop_quick.json")
    } else {
        // Two-second windows: at half a second, turbo/thermal drift
        // within a pair still swings ratios by ±10%, which is larger
        // than the effect being measured.
        (full_points(), 2.0, "BENCH_simloop.json")
    };

    let mut rows = Vec::new();
    for p in &points {
        let m = measure(p, min_secs);
        println!(
            "simbench: {}/{} iters={} — {:.0} cyc/s fastfwd, {:.0} cyc/s no-fastfwd ({:.2}x), {} runs",
            p.bench,
            p.design,
            p.iterations,
            m.ff.cycles_per_sec(),
            m.no_ff.cycles_per_sec(),
            m.speedup,
            m.ff.runs,
        );
        rows.push(point_json(p, &m));
    }

    let failures = if check {
        run_check(&points, &mut rows, min_secs, "BENCH_simloop.json")
    } else {
        Vec::new()
    };

    let gm = geomean_speedup(&rows);
    println!(
        "simbench: geomean speedup {:.2}x over per-cycle stepping ({} points)",
        gm,
        rows.len(),
    );
    let doc = Json::obj(vec![
        ("schema", Json::Str("simbench-v3".to_string())),
        (
            "mode",
            Json::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("geomean_speedup", Json::F64(round2(gm))),
        ("host", host_json()),
        ("points", Json::Arr(rows)),
    ]);
    write_artifact(out_path, &doc);
    println!("simbench: wrote {out_path}");

    if quick && !check {
        print_delta(&doc, "BENCH_simloop.json");
    }
    if !failures.is_empty() {
        eprintln!(
            "simbench: {} point(s) regressed more than {:.0}% vs the committed baseline:",
            failures.len(),
            (1.0 - CHECK_FLOOR) * 100.0,
        );
        for f in &failures {
            eprintln!("simbench:   {f}");
        }
        std::process::exit(1);
    }
}
