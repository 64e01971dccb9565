//! The whole suite: every workload, each in a fresh process, untraced
//! and (with `--trace`) traced, gathered into one result file.

use std::path::{Path, PathBuf};
use std::process::Command;

use hfs_harness::Json;

use crate::catalog::{RUN_SECONDS, WORKLOADS};
use crate::report::Report;
use crate::runner::OUT_DIR;

/// Where a single run leaves its full report for the suite to collect.
fn report_path(workload: &str, trace: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!("report_{workload}_t{}.json", u8::from(trace)))
}

/// Stores `report` where [`main`] will look for it.
pub fn save_report(report: &Report) {
    std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
    std::fs::write(
        report_path(&report.workload, report.trace),
        report.to_json().to_pretty(),
    )
    .expect("write the run's report");
}

/// The host block recorded with every result file. `run.sh` passes the
/// compiler, the commit and the build time, none of which this process
/// can know.
fn host_json() -> Json {
    let env = |k: &str| Json::Str(std::env::var(k).unwrap_or_else(|_| "unknown".to_string()));
    Json::obj(vec![
        (
            "nproc",
            Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpus", Json::Str(crate::runner::allowed_cpus())),
        ("rustc", env("BENCH_RUSTC")),
        ("commit", env("BENCH_COMMIT")),
        ("build_s", env("BENCH_BUILD_S")),
        ("timestamp", Json::Str(hfs_bench::perfbench::iso8601_now())),
    ])
}

struct Options {
    trace: bool,
    seed: u64,
    seconds: f64,
    runs: u64,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        trace: false,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        runs: 1,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        let bad = |what: &str, raw: &str| format!("{what}: cannot parse `{raw}`");
        match a.as_str() {
            // `--trace` alone asks for the traced pass; `--trace 0|1` is
            // accepted too, so the suite and a single run spell alike.
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--seed" => {
                let v = value("--seed")?;
                o.seed = v.parse().map_err(|_| bad("--seed", &v))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                o.seconds = v.parse().map_err(|_| bad("--seconds", &v))?;
            }
            "--runs" => {
                let v = value("--runs")?;
                o.runs = v.parse().map_err(|_| bad("--runs", &v))?;
            }
            "--out" => o.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

/// Runs one workload in a child process and returns its stored report.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let path = report_path(workload, trace);
    let _ = std::fs::remove_file(&path);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .status()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|_| format!("{workload} (trace {trace}) left no report; exit {status}"))?;
    hfs_harness::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

/// `hfsbench [--trace] [--seed N] [--seconds S] [--runs R] [--out FILE]`:
/// returns whether every workload finished with no failed operation.
pub fn main(args: &[String]) -> Result<bool, String> {
    let o = parse(args)?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for r in 0..o.runs {
        for w in WORKLOADS {
            for trace in [false, true] {
                // Per-layer rows have no bound and exact counts need one
                // run: the traced pass runs once, on the first seed.
                if trace && (!o.trace || r > 0) {
                    continue;
                }
                // Successive runs use successive seeds, as the spread
                // measurement asks for.
                let report = child_run(w.name, o.seed + r, o.seconds, trace)?;
                all_ok &= report.get("failed").and_then(Json::as_u64) == Some(0)
                    && report.get("attempted").and_then(Json::as_u64) > Some(0);
                runs.push(report);
            }
        }
    }
    let doc = Json::obj(vec![
        ("schema", Json::Str("hfs-benchmark-v1".to_string())),
        ("host", host_json()),
        ("seed", Json::U64(o.seed)),
        ("seconds", Json::F64(o.seconds)),
        ("runs", Json::Arr(runs)),
    ]);
    let out = o
        .out
        .unwrap_or_else(|| Path::new(OUT_DIR).join("results.json"));
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&out, doc.to_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    if !all_ok {
        println!("FAILED: at least one workload reported failed operations");
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        assert!(parse(&args("--trace")).unwrap().trace);
        assert!(parse(&args("--trace 1 --seed 4")).unwrap().trace);
        assert!(!parse(&args("--trace 0")).unwrap().trace);
        let o = parse(&args(
            "--trace --seed 9 --runs 3 --seconds 2.5 --out x.json",
        ))
        .unwrap();
        assert_eq!((o.seed, o.runs, o.seconds), (9, 3, 2.5));
        assert_eq!(parse(&[]).unwrap().seconds, RUN_SECONDS as f64);
        assert_eq!(o.out, Some(PathBuf::from("x.json")));
        assert!(!parse(&[]).unwrap().trace);
    }

    #[test]
    fn unknown_arguments_are_refused() {
        assert!(parse(&args("--bogus")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--seed x")).is_err());
    }
}
