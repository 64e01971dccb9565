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
//!   engine counters and lifecycle histograms via
//!   [`Engine::stats`]/[`Engine::summary`]/
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
pub mod json;
mod key;
pub mod ser;
pub mod spec;

pub use cache::Cache;
pub use engine::{resolve, Batch, Engine, EngineStats, ExecEnv, Record, Resolved};
pub use hfs_sim::{env_flag, env_path};
pub use hotcache::{HotCache, HotCacheStats, HotEntry};
pub use job::{
    execute, execute_cancellable, execute_once, execute_once_with, is_cache_key, Job, JobOutcome,
    Mode, CACHE_SCHEMA, DEFAULT_MAX_CYCLES,
};
pub use json::{
    from_text, from_tree, parse, to_text, to_tree, DecodeError, Json, ParseError, Sink, Source,
};
pub use ser::{
    metrics_from_json, metrics_to_json, outcome_from_json, outcome_from_text, outcome_to_json,
    outcome_to_text, read_outcome, run_result_from_json, run_result_to_json, write_outcome,
};
pub use spec::{
    job_from_json, job_to_json, locality_key, machine_config_from_json, machine_config_to_json,
    read_job, sweep_from_json, sweep_to_json, write_job,
};
