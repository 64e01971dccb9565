//! `hfsbench` — the repository's one benchmark.
//!
//! ```text
//! hfsbench --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! hfsbench [--trace] [--seed N] [--seconds S] [--runs R] [--out FILE]
//!                                                          every workload, each in a fresh process
//! hfsbench compare A.json B.json                           verdict per workload x metric
//! hfsbench goldens                                         re-render goldens.json
//! hfsbench manifest                                        re-render ../BENCHMARK.json
//! ```
//!
//! `run.sh` builds this binary and forwards its arguments; see
//! `README.md` for the glossary.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod catalog;
mod compare;
mod goldens;
mod inputs;
mod layers;
mod report;
mod runner;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

/// The `HFS_*` settings every run is pinned to; every other `HFS_*`
/// variable is removed, so `HFS_SCHED`, `HFS_NO_FASTFWD`, `HFS_CHECK`,
/// `HFS_METRICS`, `HFS_PROTOCOL` or `HFS_QUICK` in the caller's shell
/// cannot change what is measured.
const PINNED_ENV: [(&str, &str); 3] = [
    ("HFS_JOBS", "1"),
    ("HFS_LOG", "warn"),
    ("HFS_NO_PROGRESS", "1"),
];

/// Pins the environment; returns the variables it removed.
fn pin_environment() -> Vec<String> {
    let mut removed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HFS_"))
        .filter(|k| !PINNED_ENV.iter().any(|(p, _)| p == k))
        .collect();
    removed.sort();
    for k in &removed {
        std::env::remove_var(k);
    }
    for (k, v) in PINNED_ENV {
        std::env::set_var(k, v);
    }
    removed
}

/// The value following `flag`, parsed.
fn value_of<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let raw = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map(Some)
        .map_err(|_| format!("{flag}: cannot parse `{raw}`"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A server configured with process workers re-executes its own
    // binary with `--worker`; here that binary is this one.
    if args.first().is_some_and(|a| a == "--worker") {
        return ExitCode::from(hfs_serve::worker_main() as u8);
    }
    let removed = pin_environment();
    let mut notes = Vec::new();
    if !removed.is_empty() {
        notes.push(format!(
            "removed from the environment: {}",
            removed.join(", ")
        ));
    }
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("goldens") => {
            print!("{}", goldens::record());
            Ok(true)
        }
        Some("manifest") => {
            print!("{}", catalog::manifest());
            Ok(true)
        }
        _ if args.iter().any(|a| a == "--workload") => one_run(&args, notes),
        _ => suite::main(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("hfsbench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// The driver's form: one workload, one process, the result line last.
fn one_run(args: &[String], notes: Vec<String>) -> Result<bool, String> {
    let run = runner::Args {
        workload: value_of(args, "--workload")?.ok_or("--workload needs a value")?,
        seed: value_of(args, "--seed")?.unwrap_or(1),
        seconds: value_of(args, "--seconds")?.unwrap_or(catalog::RUN_SECONDS as f64),
        trace: value_of::<u8>(args, "--trace")?.unwrap_or(0) != 0,
    };
    let mut notes = notes;
    notes.push(format!("running on CPU {}", runner::allowed_cpus()));
    let report = runner::run(&run, notes)?;
    report.print();
    suite::save_report(&report);
    println!("{}", report.result_line());
    Ok(report.tally.failed == 0 && report.tally.attempted > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_environment_is_pinned_and_strays_are_listed() {
        // A stray the simulator never reads, so tests running beside this
        // one are not disturbed.
        std::env::set_var("HFS_BENCH_STRAY", "1");
        let removed = pin_environment();
        assert!(removed.contains(&"HFS_BENCH_STRAY".to_string()));
        assert!(std::env::var_os("HFS_BENCH_STRAY").is_none());
        for (k, v) in PINNED_ENV {
            assert_eq!(std::env::var(k).as_deref(), Ok(v));
            assert!(!removed.contains(&k.to_string()));
        }
    }

    #[test]
    fn flag_values_parse_or_say_why_not() {
        let args: Vec<String> = ["--seed", "7", "--seconds", "x", "--trace"]
            .map(String::from)
            .to_vec();
        assert_eq!(value_of::<u64>(&args, "--seed"), Ok(Some(7)));
        assert_eq!(value_of::<u64>(&args, "--workload"), Ok(None));
        assert!(value_of::<f64>(&args, "--seconds").is_err());
        assert!(value_of::<u8>(&args, "--trace").is_err());
    }
}
