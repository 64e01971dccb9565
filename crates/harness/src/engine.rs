//! The parallel experiment-execution engine.
//!
//! An [`Engine`] runs batches of [`Job`]s on a `std::thread` worker pool
//! fed by a shared index queue. Results are gathered into submission
//! order, so experiment output is byte-identical at any worker count;
//! only the (stderr) progress stream interleaves differently.

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use hfs_obs::{Counter, HistogramMetric, Level, Registry};
use hfs_sim::{env_flag, env_path};
use hfs_trace::{chrome_trace_json, MetricsReport, Tracer};

use crate::cache::Cache;
use crate::job::{classify, execute_cancellable, execute_once_with, Job, JobOutcome};
use crate::json::{to_text, Sink};
use crate::ser::write_outcome;

/// Worker-count environment variable (`HFS_JOBS`).
pub const ENV_JOBS: &str = "HFS_JOBS";
/// Cache-directory environment variable (`HFS_CACHE_DIR`).
pub const ENV_CACHE_DIR: &str = "HFS_CACHE_DIR";
/// Set to disable the result cache entirely (`HFS_NO_CACHE=1`).
pub const ENV_NO_CACHE: &str = "HFS_NO_CACHE";
/// Artifact output directory (`HFS_RESULTS_DIR`).
pub const ENV_RESULTS_DIR: &str = "HFS_RESULTS_DIR";
/// Set to attach metrics reports to every job result (`HFS_METRICS=1`).
pub const ENV_METRICS: &str = "HFS_METRICS";
/// Directory for per-job Chrome trace-event exports (`HFS_TRACE_DIR`).
/// Setting it implies `HFS_METRICS=1`.
pub const ENV_TRACE_DIR: &str = "HFS_TRACE_DIR";

/// The execution settings the offline engine and the server share,
/// read from the environment in one place.
#[derive(Debug, Clone)]
pub struct ExecEnv {
    /// `HFS_JOBS` workers (default: available parallelism).
    pub workers: usize,
    /// The result cache in `HFS_CACHE_DIR` (default `results/cache`);
    /// `None` under `HFS_NO_CACHE=1`.
    pub cache_dir: Option<PathBuf>,
}

impl ExecEnv {
    /// Reads the settings.
    pub fn read() -> ExecEnv {
        ExecEnv {
            workers: std::env::var(ENV_JOBS)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
            cache_dir: (!env_flag(ENV_NO_CACHE))
                .then(|| env_path(ENV_CACHE_DIR).unwrap_or_else(|| "results/cache".into())),
        }
    }
}

/// How one job resolved in [`resolve`].
#[derive(Debug, Clone)]
pub struct Resolved {
    /// The outcome, from the cache or from `run`.
    pub outcome: JobOutcome,
    /// Whether the outcome came from the result cache.
    pub cached: bool,
    /// Wall-clock milliseconds the step took (≈0 on a hit).
    pub wall_millis: u64,
}

impl Resolved {
    /// Whether the job ran to a verdict here: neither a cache hit nor
    /// abandoned by its owner. The lifecycle histograms and the
    /// `executed` counters observe exactly these.
    pub fn executed(&self) -> bool {
        !self.cached && !matches!(self.outcome, JobOutcome::Cancelled)
    }

    /// Whether the job hit its cycle budget.
    pub fn timed_out(&self) -> bool {
        matches!(self.outcome, JobOutcome::Timeout { .. })
    }
}

/// The per-job step every executor shares: answer from `cache` if it
/// can, otherwise `run` the job and store the outcome — [`Cache::store`]
/// keeps only successes, so failures, cancellations and panicked jobs
/// are always run again. What differs between executors is `run` alone:
/// a plain or a cancellable simulation, or a traced run.
///
/// A `run` that panics resolves as [`JobOutcome::WorkerDied`], so its
/// waiters still get an answer and the calling thread lives on.
pub fn resolve(cache: Option<&Cache>, key: &str, run: impl FnOnce() -> JobOutcome) -> Resolved {
    let started = Instant::now();
    let (outcome, cached) = match cache.and_then(|c| c.load(key)) {
        Some(hit) => (hit, true),
        None => {
            let outcome = panic::catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("(no message)");
                JobOutcome::WorkerDied(format!("job panicked: {msg}"))
            });
            if let Some(cache) = cache {
                cache.store(key, &outcome);
            }
            (outcome, false)
        }
    };
    Resolved {
        outcome,
        cached,
        wall_millis: started.elapsed().as_millis() as u64,
    }
}

/// Upper bucket (milliseconds) for the lifecycle latency histograms;
/// slower observations land in the overflow bucket and clamp the
/// percentiles to this value.
const LATENCY_HISTOGRAM_MAX_MS: usize = 60_000;

/// The job-lifecycle instruments, registered on an executor's
/// [`Registry`]. The offline [`Engine`] and the server's dispatcher
/// each keep one set and count every resolved job through
/// [`Lifecycle::record`], so both executors observe the same edges by
/// the same rule; every stats view reads these handles. Purely
/// observational: nothing here feeds cache keys or artifacts.
#[derive(Debug)]
pub struct Lifecycle {
    /// Jobs run to a verdict (`hfs_jobs_executed_total`).
    pub executed: Counter,
    /// Jobs answered from a result cache (`hfs_jobs_cache_hits_total`).
    pub cache_hits: Counter,
    /// Executed jobs that hit their cycle budget (`hfs_job_timeouts_total`).
    pub(crate) timeouts: Counter,
    /// Executed jobs whose outcome is not `Ok` (`hfs_jobs_failed_total`).
    pub(crate) failures: Counter,
    /// Cycles simulated by executed jobs that succeeded
    /// (`hfs_sim_cycles_total`).
    pub(crate) sim_cycles: Counter,
    /// Queued → picked up by a worker, per executed job
    /// (`hfs_job_queue_wait_ms`).
    pub(crate) queue_wait_ms: HistogramMetric,
    /// Picked up → resolved, per executed job (`hfs_job_exec_wall_ms`).
    pub(crate) exec_wall_ms: HistogramMetric,
}

impl Lifecycle {
    /// The set, registered on `registry`.
    pub fn new(registry: &Registry) -> Lifecycle {
        Lifecycle {
            executed: registry.counter("hfs_jobs_executed_total"),
            cache_hits: registry.counter("hfs_jobs_cache_hits_total"),
            timeouts: registry.counter("hfs_job_timeouts_total"),
            failures: registry.counter("hfs_jobs_failed_total"),
            sim_cycles: registry.counter("hfs_sim_cycles_total"),
            queue_wait_ms: registry.histogram("hfs_job_queue_wait_ms", LATENCY_HISTOGRAM_MAX_MS),
            exec_wall_ms: registry.histogram("hfs_job_exec_wall_ms", LATENCY_HISTOGRAM_MAX_MS),
        }
    }

    /// Counts one job [`resolve`] answered, `queue_wait_ms` after it was
    /// queued. A cache hit counts as one; an abandoned job counts
    /// nowhere; an executed job counts once in `executed` and once in
    /// each histogram, so `hfs_job_queue_wait_ms_count ==
    /// hfs_jobs_executed_total` holds exactly at quiescence.
    pub fn record(&self, step: &Resolved, queue_wait_ms: u64) {
        if step.cached {
            self.cache_hits.inc();
            return;
        }
        if !step.executed() {
            return;
        }
        self.executed.inc();
        self.queue_wait_ms.observe(queue_wait_ms);
        self.exec_wall_ms.observe(step.wall_millis);
        match step.outcome.ok() {
            Some(r) => self.sim_cycles.add(r.cycles),
            None => self.failures.inc(),
        }
        if step.timed_out() {
            self.timeouts.inc();
        }
    }
}

/// Logs the `job_done` progress record of one resolved job at info
/// level (`HFS_LOG=warn` silences it): `label` loses a leading
/// `<batch>/`, and `wall_ms` is appended when the caller timed the job.
/// The offline engine and `hfs-client` both report progress through
/// this.
pub fn log_job_done(
    component: &str,
    batch: &str,
    label: &str,
    (finished, total): (u64, u64),
    outcome: &JobOutcome,
    cached: bool,
    wall_ms: Option<u64>,
) {
    // A filtered line costs this compare, not the field list.
    if !hfs_obs::logger().enabled(Level::Info) {
        return;
    }
    let label = label
        .strip_prefix(batch)
        .and_then(|rest| rest.strip_prefix('/'))
        .unwrap_or(label);
    let fields = [
        ("finished", finished.into()),
        ("total", total.into()),
        ("batch", batch.into()),
        ("label", label.into()),
        ("status", outcome.status().into()),
        ("outcome", outcome.to_string().into()),
        ("cached", cached.into()),
        ("wall_ms", wall_ms.unwrap_or(0).into()),
    ];
    let n = fields.len() - usize::from(wall_ms.is_none());
    hfs_obs::info(component, "job_done", &fields[..n]);
}

/// A snapshot of an engine's aggregate counters: a view of its
/// [`Lifecycle`] set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Jobs processed: `cache_hits + cache_misses`.
    pub jobs: u64,
    /// Jobs answered from the result cache.
    pub cache_hits: u64,
    /// Jobs actually simulated: the executed count.
    pub cache_misses: u64,
    /// Jobs whose final outcome was not `Ok`.
    pub failures: u64,
    /// Total simulated cycles across executed (non-cached) jobs.
    pub sim_cycles: u64,
    /// Wall-clock milliseconds spent executing jobs, the execution-wall
    /// histogram's exact sum (summed over workers, so this can exceed
    /// elapsed time when running parallel).
    pub exec_millis: u64,
}

/// The parallel experiment-execution engine.
#[derive(Debug)]
pub struct Engine {
    workers: usize,
    cache: Option<Cache>,
    results_dir: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    metrics: bool,
    progress: bool,
    /// Instance-scoped, so parallel tests keep exact counts.
    registry: Registry,
    lifecycle: Lifecycle,
}

impl Engine {
    /// A quiet engine with `workers` threads, no cache, and no artifact
    /// directory — the configuration tests want.
    pub fn new(workers: usize) -> Engine {
        let registry = Registry::new();
        Engine {
            workers: workers.max(1),
            cache: None,
            results_dir: None,
            trace_dir: None,
            metrics: false,
            progress: false,
            lifecycle: Lifecycle::new(&registry),
            registry,
        }
    }

    /// The production configuration, honoring the `HFS_*` environment:
    /// workers and result cache per [`ExecEnv`], artifacts in
    /// `HFS_RESULTS_DIR` (default `results`), and one `job_done` log
    /// line per job at info level. `HFS_METRICS=1` attaches a metrics
    /// report to every result; `HFS_TRACE_DIR=<dir>` additionally
    /// writes a Chrome trace-event JSON per executed job.
    pub fn from_env() -> Engine {
        let env = ExecEnv::read();
        Engine {
            cache: env.cache_dir.map(Cache::new),
            results_dir: Some(env_path(ENV_RESULTS_DIR).unwrap_or_else(|| "results".into())),
            trace_dir: env_path(ENV_TRACE_DIR),
            metrics: env_flag(ENV_METRICS),
            progress: true,
            ..Engine::new(env.workers)
        }
    }

    /// Replaces the cache directory.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Engine {
        self.cache = Some(Cache::new(dir));
        self
    }

    /// Attaches metrics reports to every job this engine runs.
    #[must_use]
    pub fn with_metrics(mut self, on: bool) -> Engine {
        self.metrics = on;
        self
    }

    /// Writes a Chrome trace-event JSON for every *executed* (non-cached)
    /// job into `dir`, named `<batch>__<label>.trace.json`. Implies
    /// metrics.
    #[must_use]
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Engine {
        self.trace_dir = Some(dir.into());
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether job results will carry metrics reports (set explicitly or
    /// implied by a trace directory).
    pub fn metrics_enabled(&self) -> bool {
        self.metrics || self.trace_dir.is_some()
    }

    /// The directory batch artifacts are written to, if any.
    pub fn results_dir(&self) -> Option<&Path> {
        self.results_dir.as_deref()
    }

    /// A snapshot of the aggregate counters, read from the lifecycle
    /// set.
    pub fn stats(&self) -> EngineStats {
        let l = &self.lifecycle;
        let (cache_hits, executed) = (l.cache_hits.get(), l.executed.get());
        EngineStats {
            jobs: cache_hits + executed,
            cache_hits,
            cache_misses: executed,
            failures: l.failures.get(),
            sim_cycles: l.sim_cycles.get(),
            exec_millis: l.exec_wall_ms.summary().sum,
        }
    }

    /// One line summarizing everything this engine has processed.
    pub fn summary(&self) -> String {
        let s = self.stats();
        format!(
            "harness: {} jobs ({} cache hits, {} simulated, {} failed), \
             {} simulated cycles, {:.1}s execute time, {} workers",
            s.jobs,
            s.cache_hits,
            s.cache_misses,
            s.failures,
            s.sim_cycles,
            s.exec_millis as f64 / 1000.0,
            self.workers,
        )
    }

    /// Runs `jobs` to completion on the worker pool and returns their
    /// records in submission order. Every job runs even if others fail —
    /// failures surface in the records (and later via
    /// [`Batch::expect_results`]), so completed work lands in the cache
    /// before anyone panics. If a results directory is configured, the
    /// batch artifact `<dir>/<name>.json` is written before returning.
    pub fn run_batch(&self, name: &str, jobs: Vec<Job>) -> Batch {
        // Metrics-carrying jobs key (and cache) separately from plain
        // ones, so flipping `HFS_METRICS` never corrupts either cache
        // population.
        let jobs: Vec<Job> = if self.metrics_enabled() {
            jobs.into_iter().map(|j| j.with_metrics(true)).collect()
        } else {
            jobs
        };
        let total = jobs.len();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let submitted = Instant::now();
        let slots: Vec<Mutex<Option<Record>>> = (0..total).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(total.max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let record = self.run_one(name, &jobs[i], &done, total, submitted);
                    *slots[i].lock().unwrap() = Some(record);
                });
            }
        });
        let records: Vec<Record> = slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("worker filled every slot"))
            .collect();
        let batch = Batch {
            name: name.to_string(),
            records,
        };
        if let Some(dir) = &self.results_dir {
            if let Err(e) = batch.write_artifact(dir) {
                hfs_obs::error(
                    "harness",
                    "artifact_write_failed",
                    &[("batch", name.into()), ("error", e.to_string().into())],
                );
            }
        }
        batch
    }

    fn run_one(
        &self,
        batch: &str,
        job: &Job,
        done: &AtomicUsize,
        total: usize,
        submitted: Instant,
    ) -> Record {
        let key = job.key();
        // Queue wait: batch submission → this worker picking the job up.
        let queue_wait_ms = submitted.elapsed().as_millis() as u64;
        let step = resolve(self.cache.as_ref(), &key, || match &self.trace_dir {
            Some(dir) => self.execute_traced(batch, job, dir),
            None => execute_cancellable(job, None),
        });
        self.lifecycle.record(&step, queue_wait_ms);
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        if self.progress {
            log_job_done(
                "harness",
                batch,
                &job.label,
                (finished as u64, total as u64),
                &step.outcome,
                step.cached,
                Some(step.wall_millis),
            );
        }
        let Resolved {
            outcome,
            cached,
            wall_millis,
        } = step;
        Record {
            label: job.label.clone(),
            key,
            cached,
            wall_millis,
            outcome,
        }
    }

    /// Runs one job with a recording tracer and exports its event stream
    /// as Chrome trace-event JSON.
    fn execute_traced(&self, batch: &str, job: &Job, dir: &Path) -> JobOutcome {
        let tracer = Tracer::recording();
        let outcome = classify(execute_once_with(job, &tracer));
        let json = chrome_trace_json(&tracer.take_events());
        let path = dir.join(format!(
            "{}__{}.trace.json",
            sanitize_component(batch),
            sanitize_component(&job.label)
        ));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            hfs_obs::error(
                "harness",
                "trace_write_failed",
                &[
                    ("path", path.display().to_string().into()),
                    ("error", e.to_string().into()),
                ],
            );
        }
        outcome
    }

    /// The engine's live metric registry: its [`Lifecycle`] set,
    /// exposable as Prometheus text via [`Registry::render_prometheus`].
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The harness's own execution metrics in the same [`MetricsReport`]
    /// shape the simulator emits, so one toolchain reads both. Includes
    /// the lifecycle telemetry: the timeout counter and queue-wait /
    /// execution-wall histogram summaries.
    pub fn metrics_report(&self) -> MetricsReport {
        let s = self.stats();
        let mut m = MetricsReport::new();
        m.counter("harness.workers", self.workers as u64);
        m.counter("harness.jobs", s.jobs);
        m.counter("harness.cache_hits", s.cache_hits);
        m.counter("harness.cache_misses", s.cache_misses);
        m.counter("harness.failures", s.failures);
        m.counter("harness.sim_cycles", s.sim_cycles);
        m.counter("harness.exec_millis", s.exec_millis);
        m.counter("harness.timeouts", self.lifecycle.timeouts.get());
        m.histograms.push((
            "harness.queue_wait_ms".to_string(),
            self.lifecycle.queue_wait_ms.summary(),
        ));
        m.histograms.push((
            "harness.exec_wall_ms".to_string(),
            self.lifecycle.exec_wall_ms.summary(),
        ));
        m
    }
}

/// Makes a batch name or job label safe as a file-name component.
fn sanitize_component(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// One job's execution record within a batch.
#[derive(Debug, Clone)]
pub struct Record {
    /// The job's display label.
    pub label: String,
    /// Content-derived cache key.
    pub key: String,
    /// Whether the outcome came from the cache.
    pub cached: bool,
    /// Wall-clock milliseconds this job took (≈0 for cache hits).
    pub wall_millis: u64,
    /// The job's outcome.
    pub outcome: JobOutcome,
}

/// The ordered results of one [`Engine::run_batch`] call.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Batch/experiment name (artifact file stem).
    pub name: String,
    /// Per-job records, in submission order.
    pub records: Vec<Record>,
}

impl Batch {
    /// Iterates the outcomes in submission order.
    pub fn outcomes(&self) -> impl Iterator<Item = &JobOutcome> {
        self.records.iter().map(|r| &r.outcome)
    }

    /// Whether every job in the batch succeeded.
    pub fn all_ok(&self) -> bool {
        self.records.iter().all(|r| r.outcome.is_ok())
    }

    /// Whether every outcome was served from the cache.
    pub fn all_cached(&self) -> bool {
        self.records.iter().all(|r| r.cached)
    }

    /// Unwraps every outcome into its [`hfs_core::RunResult`].
    ///
    /// # Panics
    ///
    /// Panics if any job failed, listing *every* failing label and
    /// reason — after the whole batch has executed, so completed work is
    /// already cached and a re-run resumes from the failures alone.
    pub fn expect_results(&self) -> Vec<hfs_core::RunResult> {
        let failures: Vec<String> = self
            .records
            .iter()
            .filter(|r| !r.outcome.is_ok())
            .map(|r| format!("  {}/{}: {}", self.name, r.label, r.outcome))
            .collect();
        assert!(
            failures.is_empty(),
            "{} job(s) failed in batch `{}`:\n{}",
            failures.len(),
            self.name,
            failures.join("\n")
        );
        self.records
            .iter()
            .map(|r| r.outcome.ok().expect("checked above").clone())
            .collect()
    }

    /// The machine-readable batch artifact. Deliberately excludes
    /// wall-clock times and cache flags so the bytes are identical across
    /// runs, worker counts, and warm/cold caches.
    pub fn artifact_json(&self) -> String {
        to_text(true, |s| {
            s.begin_obj();
            s.str_field("experiment", &self.name);
            s.u64_field("schema", u64::from(crate::job::CACHE_SCHEMA));
            s.arr_field("jobs", &self.records, |s, r| {
                s.begin_obj();
                s.str_field("label", &r.label);
                s.str_field("key", &r.key);
                s.key("outcome");
                write_outcome(s, &r.outcome);
                s.end_obj();
            });
            s.end_obj();
        })
    }

    /// Writes the batch artifact as `<dir>/<name>.json`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating the directory or writing.
    pub fn write_artifact(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.artifact_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use hfs_core::kernel::KernelPair;
    use hfs_core::{DesignPoint, MachineConfig};

    fn job(work: u32, iters: u64) -> Job {
        Job::pipeline(
            format!("w{work}-i{iters}"),
            KernelPair::simple("demo", work, iters),
            MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
        )
    }

    #[test]
    fn batch_preserves_submission_order() {
        let engine = Engine::new(4);
        let jobs: Vec<Job> = (1..=6).map(|w| job(w, 20)).collect();
        let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
        let batch = engine.run_batch("order", jobs);
        let got: Vec<String> = batch.records.iter().map(|r| r.label.clone()).collect();
        assert_eq!(got, labels);
        assert!(batch.all_ok());
        assert_eq!(engine.stats().jobs, 6);
        assert_eq!(engine.stats().cache_misses, 6);
    }

    #[test]
    fn a_panicking_job_resolves_as_a_dead_worker() {
        // A literal message panics with a `&str`, a formatted one with a
        // `String`.
        let literal = resolve(None, "0123456789abcdef", || panic!("boom"));
        let what = String::from("boom");
        let formatted = resolve(None, "0123456789abcdef", || panic!("{what}"));
        for step in [literal, formatted] {
            assert!(!step.cached);
            match step.outcome {
                JobOutcome::WorkerDied(msg) => assert_eq!(msg, "job panicked: boom"),
                other => panic!("expected worker_died, got {other}"),
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let batch = Engine::new(2).run_batch("empty", Vec::new());
        assert!(batch.all_ok());
        assert!(batch.expect_results().is_empty());
    }

    #[test]
    fn failures_do_not_stop_the_batch() {
        let engine = Engine::new(2);
        let jobs = vec![
            job(2, 20),
            job(2, 5_000).with_max_cycles(50), // watchdog trips
            job(3, 20),
        ];
        let batch = engine.run_batch("mixed", jobs);
        assert!(!batch.all_ok());
        let statuses: Vec<&str> = batch.outcomes().map(JobOutcome::status).collect();
        assert_eq!(statuses, vec!["ok", "timeout", "ok"]);
        assert_eq!(engine.stats().failures, 1);
    }

    #[test]
    #[should_panic(expected = "failed in batch")]
    fn expect_results_names_the_failure() {
        let batch = Engine::new(1).run_batch("boom", vec![job(2, 5_000).with_max_cycles(50)]);
        let _ = batch.expect_results();
    }

    #[test]
    fn summary_mentions_worker_count() {
        let engine = Engine::new(3);
        assert!(engine.summary().contains("3 workers"));
    }

    #[test]
    fn metrics_engine_attaches_reports() {
        let engine = Engine::new(2).with_metrics(true);
        assert!(engine.metrics_enabled());
        let batch = engine.run_batch("metrics", vec![job(2, 20), job(3, 20)]);
        for r in batch.expect_results() {
            let m = r.metrics.expect("metrics attached");
            assert_eq!(m.get_counter("machine.cycles"), Some(r.cycles));
        }
    }

    #[test]
    fn trace_dir_writes_a_chrome_trace_per_executed_job() {
        let dir = std::env::temp_dir().join(format!("hfs-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Cache-less engine: a warm cache would skip execution and write
        // no traces.
        let engine = Engine::new(2).with_trace_dir(&dir);
        let batch = engine.run_batch("tr", vec![job(2, 20)]);
        assert!(batch.all_ok());
        let trace = dir.join("tr__w2-i20.trace.json");
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        let parsed = crate::json::parse(&text).expect("trace is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        // Traced jobs also carry metrics.
        assert!(batch.records[0].outcome.ok().unwrap().metrics.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_metrics_report_counts_jobs() {
        let engine = Engine::new(1);
        engine.run_batch("m", vec![job(2, 10)]);
        let m = engine.metrics_report();
        assert_eq!(m.get_counter("harness.jobs"), Some(1));
        assert_eq!(m.get_counter("harness.cache_misses"), Some(1));
        assert_eq!(m.get_counter("harness.workers"), Some(1));
    }

    #[test]
    fn sanitize_component_replaces_path_separators() {
        assert_eq!(sanitize_component("fig6/HEAVYWT d=1"), "fig6-HEAVYWT-d-1");
        assert_eq!(sanitize_component("ok-name_1.2"), "ok-name_1.2");
    }
}
