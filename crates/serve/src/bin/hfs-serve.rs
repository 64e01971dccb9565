//! The `hfs-serve` daemon: a design-space exploration server.
//!
//! ```text
//! hfs-serve [--sock PATH | --addr HOST:PORT] [--workers N]
//!           [--queue-limit N]
//! hfs-serve --worker
//! ```
//!
//! Without flags the endpoint comes from `HFS_SOCK`/`HFS_ADDR`. The
//! execution environment (`HFS_JOBS`, `HFS_CACHE_DIR`, `HFS_NO_CACHE`,
//! `HFS_HOT_CACHE_MB`) matches the offline engine.
//! `--queue-limit N` bounds the queued flights before submissions get
//! `busy` (default 1024). `--workers N` runs simulations on `N` *worker
//! processes*: the server re-execs this binary with `--worker` per slot
//! and shards jobs across the children by content key; without it,
//! simulations run on in-process threads (`HFS_JOBS`). `--worker` is
//! that internal child mode — it speaks frames on stdin/stdout and is
//! not meant to be invoked by hand. Operational logging goes through
//! the `hfs-obs` structured logger: `HFS_LOG=error|warn|info|debug`
//! sets the level and `HFS_LOG_FILE` redirects it from stderr. The
//! server runs until a client sends `shutdown` or the process receives
//! SIGTERM/SIGINT, then drains: accepted work finishes, every pending
//! result is delivered, and every worker process is reaped before exit.

use std::path::PathBuf;
use std::process::ExitCode;

use hfs_serve::{signal, worker_main, Endpoint, Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: hfs-serve [--sock PATH | --addr HOST:PORT] [--workers N] \
         [--queue-limit N]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    // Child mode: pure executor on stdin/stdout, no endpoint, no
    // listener. Checked before anything else so a worker can never
    // half-initialize as a server.
    if std::env::args().nth(1).as_deref() == Some("--worker") {
        return ExitCode::from(u8::try_from(worker_main()).unwrap_or(1));
    }
    let mut endpoint: Option<Endpoint> = None;
    let mut config = ServerConfig::from_env();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sock" => {
                let path = args.next().unwrap_or_else(|| usage());
                #[cfg(unix)]
                {
                    endpoint = Some(Endpoint::Unix(PathBuf::from(path)));
                }
                #[cfg(not(unix))]
                {
                    let _ = PathBuf::from(path);
                    eprintln!("hfs-serve: --sock requires Unix-domain sockets; use --addr");
                    return ExitCode::from(2);
                }
            }
            "--addr" => endpoint = Some(Endpoint::Tcp(args.next().unwrap_or_else(|| usage()))),
            "--workers" => {
                config.process_workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--queue-limit" => {
                config.queue_limit = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("hfs-serve: unknown argument {other:?}");
                usage();
            }
        }
    }
    let Some(endpoint) = endpoint.or_else(Endpoint::from_env) else {
        eprintln!("hfs-serve: no endpoint: pass --sock/--addr or set HFS_SOCK/HFS_ADDR");
        return ExitCode::from(2);
    };

    signal::install();
    let server = match Server::bind(&endpoint, &config) {
        Ok(s) => s,
        Err(e) => {
            hfs_obs::error(
                "serve",
                "bind_failed",
                &[
                    ("endpoint", endpoint.to_string().into()),
                    ("error", e.to_string().into()),
                ],
            );
            return ExitCode::FAILURE;
        }
    };
    hfs_obs::info(
        "serve",
        "listening",
        &[
            ("endpoint", server.endpoint().into()),
            (
                "workers",
                if config.process_workers > 0 {
                    format!("{} processes", config.process_workers).into()
                } else {
                    format!("{} threads", config.workers).into()
                },
            ),
            ("queue_limit", config.queue_limit.into()),
            (
                "cache",
                config
                    .cache_dir
                    .as_ref()
                    .map_or("off".to_string(), |d| d.display().to_string())
                    .into(),
            ),
        ],
    );
    match server.run() {
        Ok(stats) => {
            hfs_obs::info(
                "serve",
                "exit_stats",
                &[
                    ("submitted", stats.submitted.into()),
                    ("executed", stats.executed.into()),
                    ("cache_hits", stats.cache_hits.into()),
                    ("deduped", stats.deduped.into()),
                    ("cancelled", stats.cancelled.into()),
                    ("rejected", stats.rejected.into()),
                ],
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            hfs_obs::error("serve", "server_failed", &[("error", e.to_string().into())]);
            ExitCode::FAILURE
        }
    }
}
