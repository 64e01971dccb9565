//! The `hfs-serve` daemon: a design-space exploration server.
//!
//! ```text
//! hfs-serve [--sock PATH | --addr HOST:PORT] [--queue-limit N]
//! ```
//!
//! Without flags the endpoint comes from `HFS_SOCK`/`HFS_ADDR`. The
//! execution environment (`HFS_JOBS` simulation threads, `HFS_CACHE_DIR`,
//! `HFS_NO_CACHE`, `HFS_HOT_CACHE_MB`) matches the offline engine.
//! `--queue-limit N` bounds the queued flights before submissions get
//! `busy` (default 1024). A spec that decodes runs or fails as a job on
//! one of the threads; none can take the process down. Operational
//! logging goes through the `hfs-obs` structured logger:
//! `HFS_LOG=error|warn|info|debug` sets the level and `HFS_LOG_FILE`
//! redirects it from stderr. The server runs until a client sends
//! `shutdown` or the process receives SIGTERM/SIGINT, then drains:
//! accepted work finishes and every pending result is delivered before
//! exit.

use std::path::PathBuf;
use std::process::ExitCode;

use hfs_serve::{signal, Endpoint, Server, ServerConfig};

fn usage() -> ! {
    eprintln!("usage: hfs-serve [--sock PATH | --addr HOST:PORT] [--queue-limit N]");
    std::process::exit(2);
}

fn main() -> ExitCode {
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
            ("workers", format!("{} threads", config.workers).into()),
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
