//! The `hfs-client` CLI: submit sweeps to an `hfs-serve` instance.
//!
//! ```text
//! hfs-client submit <spec.json> [--out DIR] [--subscribe LEVEL]
//! hfs-client ping                             # liveness check
//! hfs-client stats [--watch SECS]             # counter snapshot (JSON) or live view
//! hfs-client metrics                          # Prometheus-text exposition dump
//! hfs-client shutdown                         # ask the server to drain
//! ```
//!
//! The server endpoint comes from `HFS_SOCK`/`HFS_ADDR`. A sweep spec
//! is the JSON written by `fig6 --dump-jobs <path>` (or any
//! [`hfs_harness::write_sweep`]): `{"experiment": ..., "jobs": [...]}`,
//! read back with [`hfs_harness::read_sweep`]. The artifact written by
//! `submit` is byte-identical to the offline runner's
//! `results/<experiment>.json`. `stats` prints the counters of the
//! server's `stats` frame as pretty JSON, without the frame's tag.
//!
//! `--subscribe` picks the result traffic for `submit`: `final` (the
//! default) has the server buffer results into chunked frames; `all`
//! has it flush a frame after every result, so progress lines follow
//! the jobs one by one; `none` primes the server's cache without
//! streaming results back (no artifact is written).

use std::path::PathBuf;
use std::process::ExitCode;

use hfs_harness::{env_flag, env_path, from_text, read_sweep, to_text, Sink};
use hfs_serve::{print_update, Client, Subscribe};

fn usage() -> ! {
    eprintln!(
        "usage: hfs-client submit <spec.json> [--out DIR] [--subscribe none|final|all]\n\
         \x20      hfs-client ping | stats [--watch SECS] | metrics | shutdown"
    );
    std::process::exit(2);
}

fn connect() -> Result<Client, ExitCode> {
    Client::from_env().map_err(|e| {
        eprintln!("hfs-client: {e}");
        ExitCode::FAILURE
    })
}

fn submit(spec_path: &str, out_dir: Option<PathBuf>, subscribe: Subscribe) -> ExitCode {
    let text = match std::fs::read_to_string(spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hfs-client: cannot read {spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (experiment, jobs) = match from_text(&text, read_sweep) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hfs-client: {spec_path} is not a sweep spec: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Mirror the offline engine's HFS_METRICS handling so the artifact
    // bytes match whichever path runs the sweep.
    let jobs = if env_flag("HFS_METRICS") {
        jobs.into_iter().map(|j| j.with_metrics(true)).collect()
    } else {
        jobs
    };

    let mut client = match connect() {
        Ok(c) => c,
        Err(code) => return code,
    };
    let on_update = |u: &hfs_serve::JobUpdate| print_update(&experiment, u);
    let batch = match client.submit_batched(&experiment, jobs, subscribe, on_update) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("hfs-client: submit failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if matches!(subscribe, Subscribe::None) {
        // Cache priming: no results streamed back, nothing to write.
        println!("primed {experiment}");
        return ExitCode::SUCCESS;
    }

    let dir = out_dir
        .or_else(|| env_path("HFS_RESULTS_DIR"))
        .unwrap_or_else(|| "results".into());
    match batch.write_artifact(&dir) {
        Ok(path) => println!("{}", path.display()),
        Err(e) => {
            eprintln!("hfs-client: failed to write artifact: {e}");
            return ExitCode::FAILURE;
        }
    }
    if batch.all_ok() {
        ExitCode::SUCCESS
    } else {
        for r in batch.records.iter().filter(|r| !r.outcome.is_ok()) {
            eprintln!("hfs-client: {}/{}: {}", experiment, r.label, r.outcome);
        }
        ExitCode::FAILURE
    }
}

fn stats_once(mut c: Client) -> ExitCode {
    match c.stats() {
        Ok(stats) => {
            let text = to_text(true, |s| {
                s.begin_obj();
                stats.write_fields(s);
                s.end_obj();
            });
            println!("{}", text.trim_end());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hfs-client: stats failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Polls the server every `secs` seconds over one connection, printing
/// a compact one-line live view per snapshot. Ends (successfully) when
/// the server reports that it is draining.
fn stats_watch(mut c: Client, secs: u64) -> ExitCode {
    loop {
        let stats = match c.stats() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("hfs-client: stats failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "queued={} running={} | submitted={} executed={} cache_hits={} \
             deduped={} delivered={} | cancelled={} aborted={} rejected={}{}",
            stats.queued,
            stats.running,
            stats.submitted,
            stats.executed,
            stats.cache_hits,
            stats.deduped,
            stats.delivered,
            stats.cancelled,
            stats.aborted,
            stats.rejected,
            if stats.draining { " [draining]" } else { "" },
        );
        if stats.draining {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("submit") => {
            let spec = args.get(1).cloned().unwrap_or_else(|| usage());
            let mut out_dir = None;
            let mut subscribe = Subscribe::Final;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--out" => {
                        out_dir = Some(PathBuf::from(
                            args.get(i + 1).cloned().unwrap_or_else(|| usage()),
                        ));
                        i += 2;
                    }
                    "--subscribe" => {
                        subscribe = args
                            .get(i + 1)
                            .and_then(|v| Subscribe::parse(v))
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    other => {
                        eprintln!("hfs-client: unknown argument {other:?}");
                        usage();
                    }
                }
            }
            submit(&spec, out_dir, subscribe)
        }
        Some("ping") => match connect() {
            Ok(mut c) => match c.ping() {
                Ok(()) => {
                    println!("pong");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("hfs-client: ping failed: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(code) => code,
        },
        Some("stats") => {
            let mut watch_secs: Option<u64> = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--watch" => {
                        watch_secs = Some(
                            args.get(i + 1)
                                .and_then(|v| v.parse().ok())
                                .filter(|&n| n > 0)
                                .unwrap_or_else(|| usage()),
                        );
                        i += 2;
                    }
                    other => {
                        eprintln!("hfs-client: unknown argument {other:?}");
                        usage();
                    }
                }
            }
            match connect() {
                Ok(c) => match watch_secs {
                    None => stats_once(c),
                    Some(secs) => stats_watch(c, secs),
                },
                Err(code) => code,
            }
        }
        Some("metrics") => match connect() {
            Ok(mut c) => match c.metrics() {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("hfs-client: metrics failed: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(code) => code,
        },
        Some("shutdown") => match connect() {
            Ok(mut c) => match c.shutdown_server() {
                Ok(()) => {
                    println!("shutting down");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("hfs-client: shutdown failed: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(code) => code,
        },
        _ => usage(),
    }
}
