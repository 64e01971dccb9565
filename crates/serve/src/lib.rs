//! `hfs-serve` — a concurrent design-space exploration service on top
//! of the experiment engine.
//!
//! A long-running server (bin `hfs-serve`) listens on a Unix-domain
//! socket (`HFS_SOCK`; TCP fallback `HFS_ADDR`) and accepts batch
//! submissions of [`hfs_harness::Job`] specs from many clients over a
//! length-prefixed JSON protocol ([`proto`]). The server provides what
//! the offline engine cannot:
//!
//! - **single-flight execution**: identical jobs (by content-derived
//!   [`hfs_harness::Job::key`]) submitted concurrently execute once,
//!   with the result fanned out to every waiter;
//! - **a shared warm cache**: all clients hit one sharded on-disk
//!   result cache ([`hfs_harness::Cache`]);
//! - **admission control**: a bounded flight queue with structured
//!   `busy` rejections instead of unbounded memory growth;
//! - **one executor**: simulations run on in-process worker threads
//!   (`HFS_JOBS`). Every spec that decodes ends as a result — the
//!   simulator refuses any field past the bound of what it allocates,
//!   and a job that panics resolves as `worker_died` — so no submission
//!   can take the server down;
//! - **streaming progress**: per-job result frames as they resolve,
//!   then a batch-completion frame;
//! - **live telemetry**: every dispatcher counter, queue/connection
//!   gauge, and job-lifecycle histogram lives in an `hfs-obs` metric
//!   registry, exposed as Prometheus text via the `metrics` frame
//!   (`hfs-client metrics`); connection and drain events log through
//!   the `hfs-obs` structured logger under `HFS_LOG` control;
//! - **graceful drain**: on a `shutdown` frame or SIGTERM, accepted
//!   work finishes and every pending result is delivered before exit.
//!
//! The companion CLI (bin `hfs-client`) submits sweep specs, streams
//! progress, and writes `results/<experiment>.json` artifacts that are
//! byte-identical to offline runs; `HFS_VIA_SERVER=1` makes the
//! `hfs-bench` figures route through a server the same way.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod net;
pub mod proto;
pub mod server;
pub mod signal;

pub use client::{print_update, Client, ClientError, JobUpdate, SUBMIT_CHUNK, SUBMIT_WINDOW};
pub use net::{Endpoint, Listener, Stream, ENV_ADDR, ENV_SOCK};
pub use proto::{
    ClientFrame, JobRef, JobResult, ProtoError, ServeStats, ServerFrame, Subscribe, MAX_FRAME_BYTES,
};
pub use server::{Server, ServerConfig, DEFAULT_QUEUE_LIMIT};

/// Does nothing and returns exit code 0. Kept for `benchmark/`, whose
/// binary still answers `--worker` with it; no server starts a worker
/// process.
pub fn worker_main() -> i32 {
    0
}
