//! `hfs-harness` — the parallel experiment-execution engine.
//!
//! Every `hfs-bench` experiment routes its simulation runs through this
//! crate instead of calling [`hfs_core::Machine`] directly. The harness
//! provides:
//!
//! - [`Job`]: a benchmark × design-point × machine-config work unit with
//!   a stable, content-derived cache [key](Job::key);
//! - [`Engine`]: a `std::thread` worker pool that executes job batches
//!   in parallel while gathering results in submission order, so output
//!   is byte-identical at any `HFS_JOBS` setting;
//! - [`Cache`]: an on-disk result cache (`results/cache/<key>.json`)
//!   with hand-rolled, std-only JSON serialization, fronted by a
//!   bounded in-memory [`HotCache`] (`HFS_HOT_CACHE_MB`) so warm
//!   lookups skip disk I/O and re-parsing;
//! - robustness: simulator failures become structured [`JobOutcome`]s
//!   (never panics mid-batch), with a per-job simulated-cycle watchdog;
//!   a job runs once — the simulator is deterministic, so a failure
//!   would only recur;
//! - observability: per-job timing and a structured progress stream via
//!   the `hfs-obs` logger (info level; `HFS_LOG=warn` silences it),
//!   one [`Lifecycle`] instrument set per executor, read by
//!   [`Engine::stats`]/[`Engine::summary`] and exposed by
//!   [`Engine::registry`], machine-readable `results/<experiment>.json`
//!   artifacts, and — with `HFS_METRICS=1` / `HFS_TRACE_DIR=<dir>` —
//!   per-run [`hfs_trace::MetricsReport`]s and Chrome trace-event
//!   exports (see [`Engine::from_env`]).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod hotcache;
pub mod job;
mod key;
pub mod ser;
pub mod spec;
pub mod wire;

pub use cache::Cache;
pub use engine::{
    log_job_done, resolve, Batch, Engine, EngineStats, ExecEnv, Lifecycle, Record, Resolved,
};
pub use hfs_sim::{env_flag, env_path, json};
pub use hotcache::{HotCache, HotCacheStats, HotEntry};
pub use job::{
    execute, execute_cancellable, execute_once, execute_once_with, is_cache_key, Job, JobOutcome,
    Mode, DEFAULT_MAX_CYCLES, MODEL_FINGERPRINT,
};
pub use json::{from_text, parse, to_text, DecodeError, Json, ParseError, Sink, Source};
pub use ser::{
    outcome_from_json, outcome_from_text, outcome_to_json, outcome_to_text, read_outcome,
    write_metrics, write_outcome,
};
pub use spec::{
    job_from_json, job_to_json, key_with, locality_key, read_job, read_sweep, sweep_to_json,
    write_job, write_sweep,
};
