//! The `hfs-serve` server: connection handling, the single-flight
//! dispatcher, admission control, and graceful drain.
//!
//! # Architecture
//!
//! Each accepted connection gets a *reader* thread (parses client
//! frames) and a *writer* thread (drains an `mpsc` channel of server
//! frames), so slow clients never block job execution. Submitted jobs
//! flow into the [`Dispatcher`]: a mutex-guarded queue of *flights*
//! keyed by [`Job::key`]. A submission whose key is already queued or
//! running does not enqueue again — it attaches a waiter to the
//! existing flight (single-flight execution), and the one result fans
//! out to every waiter when the flight resolves.
//!
//! Workers pop flights and put each through the harness's per-job step
//! ([`hfs_harness::resolve`]: the shared result [`Cache`] first, hot
//! layer then disk, otherwise execute and store). Two worker modes share
//! the dispatcher and its one worker loop, differing only in how a job
//! is run: *thread mode* (the default) runs simulations on
//! in-process threads; *process mode* (`--workers N`) re-execs the
//! server binary as `--worker` child processes and proxies jobs to
//! them over pipes using the same length-prefixed JSON frames as the
//! client protocol. In process mode flights are sharded across workers
//! by [`Job::key`], so the single-flight guarantee needs no
//! cross-process locking: one key maps to one worker, and the
//! parent-side dedup map is the only authority.
//! A crashed worker is restarted and its in-flight job re-dispatched
//! (bounded times; then the job resolves as
//! [`JobOutcome::WorkerDied`]).
//!
//! When every waiter of a flight disconnects, its queued entry is
//! discarded (or its running simulation is cancelled via
//! [`CancelToken`] — forwarded as a `cancel` frame in process mode); a
//! cancelled flight that gained new waiters before the worker noticed
//! is transparently re-enqueued with a fresh token.
//!
//! Admission control bounds the flight queue: a submission that would
//! push it past the limit is rejected whole with a `busy` frame —
//! never partially accepted. Submissions whose keys sit in the
//! in-memory hot cache resolve inline during `submit`, consuming no
//! queue slot and no worker round-trip. A `submit_refs` chunk carries
//! keys without specs, so every one of its entries must resolve that
//! way (or from disk, or by joining a flight); otherwise the chunk is
//! refused whole with `refs_miss` and nothing changes.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hfs_harness::{
    execute_cancellable, locality_key, resolve, Cache, ExecEnv, HotCache, HotEntry, Job, JobOutcome,
};
use hfs_obs::{Counter, Gauge, HistogramMetric, Registry};
use hfs_sim::CancelToken;

use crate::net::{Endpoint, Listener};
use crate::proto::{ClientFrame, JobResult, ServeStats, ServerFrame, Subscribe};
use crate::signal;
use crate::worker::{WorkerReply, WorkerRequest};

/// Default bound on queued (not yet running) flights.
pub const DEFAULT_QUEUE_LIMIT: usize = 1024;

/// How many worker deaths one job survives before it resolves as
/// [`JobOutcome::WorkerDied`] instead of being re-dispatched. A job
/// that reliably kills its worker (e.g. by exhausting memory) would
/// otherwise crash-loop the pool forever.
const MAX_WORKER_CRASHES: u32 = 2;

/// Results buffered per `subscribe: final` batch before a
/// [`ServerFrame::BatchResults`] chunk is flushed; `subscribe: all`
/// flushes after every result.
const BATCH_CHUNK: usize = 256;

/// Server tuning knobs. Connection/drain logging is no longer a config
/// flag: it goes through the `hfs-obs` logger, so `HFS_LOG` controls it
/// (accept/close at debug, drain milestones at info, failures at
/// warn/error).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker (simulation) threads when running in thread mode.
    pub workers: usize,
    /// Worker *processes* (`--workers`): when nonzero, the server
    /// re-execs its own binary `--worker` this many times and shards
    /// flights across the children by job key; `0` (the default)
    /// executes on in-process threads.
    pub process_workers: usize,
    /// Binary to re-exec as `--worker` children; `None` uses
    /// `std::env::current_exe()`. Tests point this at a specific built
    /// `hfs-serve`.
    pub worker_bin: Option<PathBuf>,
    /// Maximum queued flights before submissions get `busy`.
    pub queue_limit: usize,
    /// On-disk result cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Hot-cache budget in MiB: `None` honors `HFS_HOT_CACHE_MB`,
    /// `Some(0)` disables the in-memory layer, `Some(n)` forces `n`
    /// MiB.
    pub hot_cache_mb: Option<u64>,
    /// Ignored: a job runs once. Kept for `benchmark/`.
    pub default_retries: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            process_workers: 0,
            worker_bin: None,
            queue_limit: DEFAULT_QUEUE_LIMIT,
            cache_dir: None,
            hot_cache_mb: None,
            default_retries: 0,
        }
    }
}

impl ServerConfig {
    /// The production configuration: workers and result cache
    /// from the same environment as the offline engine
    /// ([`hfs_harness::ExecEnv`]); the hot-cache budget rides on
    /// `HFS_HOT_CACHE_MB` inside the harness cache, and everything else
    /// is the default until a `hfs-serve` flag says otherwise.
    pub fn from_env() -> ServerConfig {
        let env = ExecEnv::read();
        ServerConfig {
            workers: env.workers,
            cache_dir: env.cache_dir,
            ..ServerConfig::default()
        }
    }
}

/// One batch submission's delivery state, shared by its waiters.
struct BatchState {
    experiment: String,
    /// Batch id echoed on every response frame.
    id: u64,
    subscribe: Subscribe,
    remaining: AtomicUsize,
    all_ok: AtomicBool,
    /// Resolved results awaiting a `batch_results` flush.
    buffer: Mutex<Vec<JobResult>>,
    tx: Sender<ServerFrame>,
}

impl BatchState {
    /// Delivers one resolved job to this batch: counts it, streams it
    /// per the subscription level, and emits the final chunk plus the
    /// `done` frame when it is the last one.
    fn deliver(&self, obs: &Telemetry, result: JobResult) {
        obs.delivered.inc();
        if !result.outcome.is_ok() {
            self.all_ok.store(false, Ordering::Relaxed);
        }
        // Everything below happens under the buffer lock, so results
        // reach the writer in order and none can follow `done`.
        let mut buf = self.buffer.lock().unwrap();
        let flush_at = match self.subscribe {
            Subscribe::All => 1,
            _ => BATCH_CHUNK,
        };
        if self.subscribe != Subscribe::None {
            buf.push(result);
        }
        let last = self.remaining.fetch_sub(1, Ordering::AcqRel) == 1;
        if buf.len() >= flush_at || (last && !buf.is_empty()) {
            let _ = self.tx.send(ServerFrame::BatchResults {
                experiment: self.experiment.clone(),
                id: self.id,
                results: std::mem::take(&mut *buf),
            });
        }
        if last {
            let _ = self.tx.send(ServerFrame::Done {
                experiment: self.experiment.clone(),
                ok: self.all_ok.load(Ordering::Relaxed),
                id: self.id,
            });
        }
    }
}

/// One waiter: a (connection, batch, index) triple expecting a result.
struct Waiter {
    conn_id: u64,
    index: usize,
    label: String,
    batch: Arc<BatchState>,
}

/// One deduplicated unit of execution.
struct Flight {
    job: Arc<Job>,
    cancel: CancelToken,
    running: bool,
    waiters: Vec<Waiter>,
    /// When the flight (re-)entered the queue — the lifecycle "queued"
    /// timestamp from which queue wait is measured at worker pickup.
    enqueued_at: Instant,
}

struct DispatchInner {
    /// One queue per shard: a single queue in thread mode, one per
    /// worker process in process mode (shard = key hash % workers), so
    /// a key always executes on the same worker and single-flight
    /// dedup needs no cross-process coordination.
    queues: Vec<VecDeque<String>>,
    flights: HashMap<String, Flight>,
    running: usize,
    draining: bool,
}

impl DispatchInner {
    fn queued_total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn idle(&self) -> bool {
        self.running == 0 && self.queues.iter().all(VecDeque::is_empty)
    }
}

/// Upper bucket (milliseconds) for the dispatcher's latency histograms.
const LATENCY_HISTOGRAM_MAX_MS: usize = 60_000;

/// The dispatcher's telemetry: every counter the `Stats` frame reports
/// lives in one [`Registry`], so the `stats` view and the Prometheus
/// exposition can never disagree. Gauges mirror the queue/flight state
/// maintained under the dispatcher lock; the two histograms record the
/// job lifecycle (queued→executing wait, executing→completed wall) and
/// are observed only on the executed path, so
/// `hfs_job_queue_wait_ms_count == hfs_jobs_executed_total` holds
/// exactly at quiescence.
struct Telemetry {
    registry: Registry,
    submitted: Counter,
    executed: Counter,
    cache_hits: Counter,
    deduped: Counter,
    cancelled: Counter,
    aborted: Counter,
    rejected: Counter,
    delivered: Counter,
    timeouts: Counter,
    worker_restarts: Counter,
    queue_depth: Gauge,
    in_flight: Gauge,
    open_conns: Gauge,
    draining: Gauge,
    queue_wait_ms: HistogramMetric,
    exec_wall_ms: HistogramMetric,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        let registry = Registry::new();
        Telemetry {
            submitted: registry.counter("hfs_jobs_submitted_total"),
            executed: registry.counter("hfs_jobs_executed_total"),
            cache_hits: registry.counter("hfs_jobs_cache_hits_total"),
            deduped: registry.counter("hfs_jobs_deduped_total"),
            cancelled: registry.counter("hfs_jobs_cancelled_total"),
            aborted: registry.counter("hfs_jobs_aborted_total"),
            rejected: registry.counter("hfs_batches_rejected_total"),
            delivered: registry.counter("hfs_jobs_delivered_total"),
            timeouts: registry.counter("hfs_job_timeouts_total"),
            worker_restarts: registry.counter("hfs_worker_restarts_total"),
            queue_depth: registry.gauge("hfs_queue_depth"),
            in_flight: registry.gauge("hfs_jobs_in_flight"),
            open_conns: registry.gauge("hfs_open_connections"),
            draining: registry.gauge("hfs_draining"),
            queue_wait_ms: registry.histogram("hfs_job_queue_wait_ms", LATENCY_HISTOGRAM_MAX_MS),
            exec_wall_ms: registry.histogram("hfs_job_exec_wall_ms", LATENCY_HISTOGRAM_MAX_MS),
            registry,
        }
    }
}

/// One entry of a submission: content key, display label, and — from a
/// `submit_batch` frame — the spec. A `submit_refs` entry carries none:
/// it can only resolve from a cache or by joining a flight.
type Entry = (String, String, Option<Job>);

/// The entries a `submit_batch` frame's jobs become.
fn spec_entries(jobs: Vec<Job>) -> Vec<Entry> {
    jobs.into_iter()
        .map(|j| (j.key(), j.label.clone(), Some(j)))
        .collect()
}

/// A chunk's new flights, given in submission order with their
/// [`locality_key`]s, in the order they queue: grouped by machine config,
/// then by kernel shape, each group where its first flight stands, and
/// in submission order within a group. The first flight stays first.
fn locality_order(fresh: Vec<((u64, u64), String)>) -> impl Iterator<Item = String> {
    let (mut configs, mut groups) = (HashMap::new(), HashMap::new());
    let mut ranked: Vec<_> = fresh
        .into_iter()
        .enumerate()
        .map(|(i, (place, key))| {
            let config = *configs.entry(place.0).or_insert(i);
            (config, *groups.entry(place).or_insert(i), i, key)
        })
        .collect();
    ranked.sort_unstable();
    ranked.into_iter().map(|(.., key)| key)
}

/// The parent side of the worker-process pool: per-worker stdin
/// handles (shared so `drop_conn` can forward cancels while the
/// worker's proxy thread is blocked on its stdout) and per-shard
/// telemetry.
struct ProcPool {
    worker_bin: PathBuf,
    stdins: Vec<Mutex<Option<std::process::ChildStdin>>>,
    shard_depth: Vec<Gauge>,
}

/// A spawned `--worker` child owned by its proxy thread.
struct WorkerChild {
    child: Child,
    stdout: std::process::ChildStdout,
}

fn spawn_worker(bin: &std::path::Path) -> io::Result<(WorkerChild, std::process::ChildStdin)> {
    let mut child = std::process::Command::new(bin)
        .arg("--worker")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        // stderr (and HFS_LOG) is inherited, but the child must not
        // append to the parent's structured log file: two processes
        // sharing one file would interleave their seq counters.
        .env_remove("HFS_LOG_FILE")
        .spawn()?;
    let stdin = child.stdin.take().expect("stdin was piped");
    let stdout = child.stdout.take().expect("stdout was piped");
    Ok((WorkerChild { child, stdout }, stdin))
}

/// The shared execution core behind every connection.
struct Dispatcher {
    inner: Mutex<DispatchInner>,
    work_ready: Condvar,
    drained: Condvar,
    obs: Telemetry,
    cache: Option<Cache>,
    queue_limit: usize,
    /// Queue shards: 1 in thread mode, the worker count in process
    /// mode.
    nshards: usize,
    /// Present only in process mode.
    proc: Option<ProcPool>,
}

impl Dispatcher {
    fn new(config: &ServerConfig) -> Dispatcher {
        let obs = Telemetry::default();
        let hot = match config.hot_cache_mb {
            None => HotCache::from_env(),
            Some(0) => None,
            Some(mb) => Some(Arc::new(HotCache::new(mb << 20))),
        };
        let cache = config
            .cache_dir
            .as_ref()
            .map(|dir| Cache::with_hot(dir, hot));
        if let Some(h) = cache.as_ref().and_then(Cache::hot) {
            h.install_metrics(&obs.registry);
        }
        let nshards = config.process_workers.max(1);
        let proc = (config.process_workers > 0).then(|| ProcPool {
            worker_bin: config.worker_bin.clone().unwrap_or_else(|| {
                std::env::current_exe().unwrap_or_else(|_| PathBuf::from("hfs-serve"))
            }),
            stdins: (0..config.process_workers)
                .map(|_| Mutex::new(None))
                .collect(),
            shard_depth: (0..config.process_workers)
                .map(|i| obs.registry.gauge(&format!("hfs_worker_queue_depth_w{i}")))
                .collect(),
        });
        Dispatcher {
            inner: Mutex::new(DispatchInner {
                queues: (0..nshards).map(|_| VecDeque::new()).collect(),
                flights: HashMap::new(),
                running: 0,
                draining: false,
            }),
            work_ready: Condvar::new(),
            drained: Condvar::new(),
            obs,
            cache,
            queue_limit: config.queue_limit,
            nshards,
            proc,
        }
    }

    /// The shard (queue index / worker process) a key belongs to. Keys
    /// are 16 lowercase hex digits of a content hash, so the leading
    /// digits are uniformly distributed.
    fn shard_of(&self, key: &str) -> usize {
        if self.nshards == 1 {
            return 0;
        }
        let h = u64::from_str_radix(key.get(..8).unwrap_or("0"), 16).unwrap_or(0);
        (h as usize) % self.nshards
    }

    /// Refreshes the queue-depth gauges from the queues' state; call
    /// under the dispatcher lock after any queue mutation.
    fn note_queue_depth(&self, inner: &DispatchInner) {
        self.obs.queue_depth.set(inner.queued_total() as i64);
        if let Some(pool) = &self.proc {
            for (gauge, queue) in pool.shard_depth.iter().zip(&inner.queues) {
                gauge.set(queue.len() as i64);
            }
        }
    }

    fn stats(&self) -> ServeStats {
        let inner = self.inner.lock().unwrap();
        ServeStats {
            submitted: self.obs.submitted.get(),
            executed: self.obs.executed.get(),
            cache_hits: self.obs.cache_hits.get(),
            deduped: self.obs.deduped.get(),
            cancelled: self.obs.cancelled.get(),
            aborted: self.obs.aborted.get(),
            rejected: self.obs.rejected.get(),
            delivered: self.obs.delivered.get(),
            queued: inner.queued_total() as u64,
            running: inner.running as u64,
            draining: inner.draining,
        }
    }

    /// Admits a whole submission or refuses it whole — the one way into
    /// the dispatcher; `Err` is the refusal frame to answer with (`busy`,
    /// `refs_miss` or `shutting_down`). These hold for every entry, spec
    /// or ref:
    ///
    /// - Cache probes run before the dispatcher lock (a ref's probe may
    ///   read the disk; a spec's is memory-only, because a worker can do
    ///   its disk read later).
    /// - A refusal mutates *nothing* — no counter but `rejected`, no
    ///   queue slot, no waiter — so a `refs_miss` re-send starts clean.
    /// - A cache hit counts as one, delivers inline with the cached
    ///   serialization spliced in, and takes no queue slot or worker, so
    ///   a warm re-sweep never trips admission control.
    /// - A key already in flight gains a waiter instead of a flight.
    /// - The chunk's new flights queue behind everything queued before,
    ///   in [`locality_order`]; results carry their index, so the order
    ///   they resolve in is free.
    /// - `accepted` (and, for empty batches, `done`) is sent *under the
    ///   dispatcher lock*, before any worker can pop the new flights, so
    ///   clients see `accepted` before the first result.
    fn submit(
        &self,
        conn_id: u64,
        tx: &Sender<ServerFrame>,
        experiment: &str,
        id: u64,
        subscribe: Subscribe,
        entries: Vec<Entry>,
    ) -> Result<(), ServerFrame> {
        let hits: Vec<Option<Arc<HotEntry>>> = entries
            .iter()
            .map(|(key, _, job)| {
                let cache = self.cache.as_ref()?;
                match job {
                    Some(_) => cache.hot_entry(key),
                    None => cache.load_entry(key),
                }
            })
            .collect();
        // Only a spec that missed the hot cache can become a flight.
        let places: Vec<Option<(u64, u64)>> = entries
            .iter()
            .zip(&hits)
            .map(|((_, _, job), hit)| job.as_ref().filter(|_| hit.is_none()).map(locality_key))
            .collect();
        let mut inner = self.inner.lock().unwrap();
        if inner.draining {
            return Err(ServerFrame::ShuttingDown);
        }
        // Entries nothing answers yet: a spec among them needs a queue
        // slot (one per distinct key); a ref cannot be served at all.
        let mut missing: Vec<u64> = Vec::new();
        let mut new_keys: HashSet<&str> = HashSet::new();
        for (i, ((key, _, job), hit)) in entries.iter().zip(&hits).enumerate() {
            if hit.is_some() || inner.flights.contains_key(key.as_str()) {
                continue;
            }
            match job {
                Some(_) => {
                    new_keys.insert(key);
                }
                // The client must re-send the chunk with full specs.
                None => missing.push(i as u64),
            }
        }
        if !missing.is_empty() {
            return Err(ServerFrame::RefsMiss { id, missing });
        }
        if inner.queued_total() + new_keys.len() > self.queue_limit {
            self.obs.rejected.inc();
            return Err(ServerFrame::Busy {
                queued: inner.queued_total() as u64,
                limit: self.queue_limit as u64,
                id,
            });
        }
        let _ = tx.send(ServerFrame::Accepted {
            experiment: experiment.to_string(),
            total: entries.len() as u64,
            id,
        });
        if entries.is_empty() {
            let _ = tx.send(ServerFrame::Done {
                experiment: experiment.to_string(),
                ok: true,
                id,
            });
            return Ok(());
        }
        let batch = Arc::new(BatchState {
            experiment: experiment.to_string(),
            id,
            subscribe,
            remaining: AtomicUsize::new(entries.len()),
            all_ok: AtomicBool::new(true),
            buffer: Mutex::new(Vec::new()),
            tx: tx.clone(),
        });
        let mut fresh = Vec::new();
        let chunk = entries.into_iter().zip(hits).zip(places);
        for (index, (((key, label, job), hit), place)) in chunk.enumerate() {
            self.obs.submitted.inc();
            if let Some(entry) = hit {
                self.obs.cache_hits.inc();
                // The entry's stored serialization rides along, spliced
                // into the result frame instead of re-encoding.
                let result = JobResult {
                    index: index as u64,
                    label,
                    key,
                    cached: true,
                    outcome: entry.outcome().clone(),
                    encoded: Some(Arc::clone(entry.json_arc())),
                };
                batch.deliver(&self.obs, result);
                continue;
            }
            let waiter = Waiter {
                conn_id,
                index,
                label,
                batch: Arc::clone(&batch),
            };
            if let Some(flight) = inner.flights.get_mut(&key) {
                self.obs.deduped.inc();
                flight.waiters.push(waiter);
            } else {
                inner.flights.insert(
                    key.clone(),
                    Flight {
                        job: Arc::new(job.expect("unresolved refs were refused above")),
                        cancel: CancelToken::new(),
                        running: false,
                        waiters: vec![waiter],
                        enqueued_at: Instant::now(),
                    },
                );
                fresh.push((place.expect("a new flight has a spec"), key));
            }
        }
        for key in locality_order(fresh) {
            let shard = self.shard_of(&key);
            inner.queues[shard].push_back(key);
        }
        self.note_queue_depth(&inner);
        drop(inner);
        self.work_ready.notify_all();
        Ok(())
    }

    /// Blocks until shard `idx` has work (returning its pickup state)
    /// or the drain condition holds (returning `None`, at which point
    /// the caller thread exits).
    fn next_flight(&self, idx: usize) -> Option<(String, Arc<Job>, CancelToken, u64)> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(key) = inner.queues[idx].pop_front() {
                let flight = inner
                    .flights
                    .get_mut(&key)
                    .expect("queued key has a flight");
                flight.running = true;
                let job = Arc::clone(&flight.job);
                let cancel = flight.cancel.clone();
                let queue_wait_ms = flight.enqueued_at.elapsed().as_millis() as u64;
                inner.running += 1;
                self.obs.in_flight.set(inner.running as i64);
                self.note_queue_depth(&inner);
                return Some((key, job, cancel, queue_wait_ms));
            }
            if inner.draining && inner.idle() {
                return None;
            }
            inner = self.work_ready.wait(inner).unwrap();
        }
    }

    /// The worker loop of shard `shard`: pop a flight, put it through the
    /// harness's per-job step, count, deliver. Thread mode and process
    /// mode differ in the `run` closure alone — simulate here, or
    /// round-trip the job through this shard's child process (which the
    /// loop owns, and reaps when the drain ends it).
    fn worker_loop(&self, shard: usize) {
        let mut child: Option<WorkerChild> = None;
        while let Some((key, job, cancel, queue_wait_ms)) = self.next_flight(shard) {
            let step = resolve(self.cache.as_ref(), &key, || match &self.proc {
                Some(pool) => self.run_on_child(pool, &mut child, shard, &key, &job),
                None => execute_cancellable(&job, Some(&cancel)),
            });
            if step.cached {
                self.obs.cache_hits.inc();
            } else if step.executed() {
                // The executed path is the only one that observes the
                // lifecycle histograms, keeping
                // `queue_wait count == executed` an exact invariant.
                self.obs.executed.inc();
                self.obs.queue_wait_ms.observe(queue_wait_ms);
                self.obs.exec_wall_ms.observe(step.wall_millis);
            }
            if step.timed_out() {
                self.obs.timeouts.inc();
            }
            self.complete(&key, step.outcome, step.cached);
        }
        if let Some(pool) = &self.proc {
            self.reap_worker(pool, shard, child);
        }
    }

    /// Executes one job on worker `idx`'s child process, spawning or
    /// respawning it as needed. A child that dies mid-job (crash, OOM
    /// kill, operator `kill -9`) is restarted and the job re-sent, up
    /// to [`MAX_WORKER_CRASHES`] deaths; after that the job resolves as
    /// [`JobOutcome::WorkerDied`] so the batch still completes with a
    /// structured error instead of hanging.
    fn run_on_child(
        &self,
        pool: &ProcPool,
        child: &mut Option<WorkerChild>,
        idx: usize,
        key: &str,
        job: &Job,
    ) -> JobOutcome {
        // Every respawn re-sends the job from scratch, so each attempt
        // gets a fresh progress (cycle-budget) deadline.
        let mut crashes: u32 = 0;
        loop {
            if crashes > MAX_WORKER_CRASHES {
                return JobOutcome::WorkerDied(format!(
                    "worker {idx} died {crashes} times running this job"
                ));
            }
            if child.is_none() {
                // Once drain begins, a dead child is reaped but never
                // respawned: the in-flight job resolves with a
                // structured outcome instead of spinning up a process
                // the shutdown path would immediately have to kill.
                if crashes > 0 && self.inner.lock().unwrap().draining {
                    return JobOutcome::WorkerDied(format!(
                        "worker {idx} died during drain; not respawned"
                    ));
                }
                match spawn_worker(&pool.worker_bin) {
                    Ok((c, stdin)) => {
                        hfs_obs::debug(
                            "serve",
                            "worker_spawned",
                            &[
                                ("worker", u64::from(idx as u32).into()),
                                ("pid", u64::from(c.child.id()).into()),
                            ],
                        );
                        *pool.stdins[idx].lock().unwrap() = Some(stdin);
                        *child = Some(c);
                    }
                    Err(e) => {
                        crashes += 1;
                        self.obs.worker_restarts.inc();
                        hfs_obs::error(
                            "serve",
                            "worker_spawn_failed",
                            &[
                                ("worker", u64::from(idx as u32).into()),
                                ("error", e.to_string().into()),
                            ],
                        );
                        std::thread::sleep(Duration::from_millis(100));
                        continue;
                    }
                }
            }
            let sent = {
                let mut stdin = pool.stdins[idx].lock().unwrap();
                match stdin.as_mut() {
                    Some(s) => crate::proto::write_frame(s, |w| {
                        WorkerRequest::write_run(w, key, job);
                    })
                    .is_ok(),
                    None => false,
                }
            };
            if !sent {
                // The child died while idle; count it and respawn.
                self.note_worker_death(pool, idx, child, &mut crashes, "write failed");
                continue;
            }
            let reply = {
                let c = child.as_mut().expect("child was just ensured");
                WorkerReply::read_from(&mut c.stdout).ok().flatten()
            };
            match reply {
                Some(r) if r.key == key => return r.outcome,
                Some(r) => {
                    // A reply for another key breaks the
                    // one-outstanding protocol; treat the child as
                    // wedged.
                    self.note_worker_death(
                        pool,
                        idx,
                        child,
                        &mut crashes,
                        &format!("protocol error: reply for {:?}", r.key),
                    );
                }
                None => {
                    self.note_worker_death(pool, idx, child, &mut crashes, "died mid-job");
                }
            }
        }
    }

    /// Records one worker-process death: reaps the corpse, clears its
    /// shared stdin slot, and bumps the restart telemetry.
    fn note_worker_death(
        &self,
        pool: &ProcPool,
        idx: usize,
        child: &mut Option<WorkerChild>,
        crashes: &mut u32,
        why: &str,
    ) {
        *pool.stdins[idx].lock().unwrap() = None;
        if let Some(mut c) = child.take() {
            let _ = c.child.kill();
            let _ = c.child.wait();
        }
        *crashes += 1;
        self.obs.worker_restarts.inc();
        hfs_obs::warn(
            "serve",
            "worker_died",
            &[
                ("worker", u64::from(idx as u32).into()),
                ("reason", why.into()),
            ],
        );
    }

    /// Gracefully retires worker `idx`'s child at drain: sends `exit`,
    /// closes its stdin, and reaps it (with a bounded wait, then a
    /// kill) so a drained server leaves no orphan processes behind.
    fn reap_worker(&self, pool: &ProcPool, idx: usize, child: Option<WorkerChild>) {
        let stdin = pool.stdins[idx].lock().unwrap().take();
        if let Some(mut s) = stdin {
            let _ = WorkerRequest::Exit.write_to(&mut s);
            // Dropping the handle closes the pipe: EOF is the backup
            // exit signal if the frame never arrived.
        }
        let Some(mut c) = child else { return };
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match c.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = c.child.kill();
                    let _ = c.child.wait();
                    return;
                }
            }
        }
    }

    /// Resolves a flight: fan the outcome out to every waiter, or
    /// re-enqueue if it was cancelled but picked up new waiters.
    fn complete(&self, key: &str, outcome: JobOutcome, cached: bool) {
        let mut inner = self.inner.lock().unwrap();
        inner.running -= 1;
        self.obs.in_flight.set(inner.running as i64);
        let mut flight = inner
            .flights
            .remove(key)
            .expect("completed key has a flight");
        if matches!(outcome, JobOutcome::Cancelled) && !flight.waiters.is_empty() {
            // Cancellation raced with a fresh submission: the new
            // waiters deserve a real result, so run it again with a
            // token nobody has fired.
            flight.cancel = CancelToken::new();
            flight.running = false;
            flight.enqueued_at = Instant::now();
            let shard = self.shard_of(key);
            inner.flights.insert(key.to_string(), flight);
            inner.queues[shard].push_back(key.to_string());
            self.note_queue_depth(&inner);
            drop(inner);
            self.work_ready.notify_all();
            return;
        }
        // One serialization shared by every waiter that gets a result
        // frame. Failures are rare enough to encode per-waiter.
        let wants_encoded = outcome.is_ok()
            && flight
                .waiters
                .iter()
                .any(|w| w.batch.subscribe != Subscribe::None);
        let encoded: Option<Arc<str>> =
            wants_encoded.then(|| hfs_harness::outcome_to_text(&outcome).into());
        for w in &flight.waiters {
            let result = JobResult {
                index: w.index as u64,
                label: w.label.clone(),
                key: key.to_string(),
                cached,
                outcome: outcome.clone(),
                encoded: encoded.clone(),
            };
            w.batch.deliver(&self.obs, result);
        }
        let drained = inner.draining && inner.idle();
        drop(inner);
        // Wake idle workers so they can observe the drain condition,
        // and the drain waiter itself.
        self.work_ready.notify_all();
        if drained {
            self.drained.notify_all();
        }
    }

    /// Detaches a disconnected client: removes its waiters everywhere,
    /// discards queued flights nobody else wants, and cancels running
    /// ones.
    fn drop_conn(&self, conn_id: u64) {
        let mut inner = self.inner.lock().unwrap();
        let mut dead_queued: HashSet<String> = HashSet::new();
        let mut cancelled: Vec<String> = Vec::new();
        for (key, flight) in &mut inner.flights {
            flight.waiters.retain(|w| w.conn_id != conn_id);
            if flight.waiters.is_empty() {
                if flight.running {
                    flight.cancel.cancel();
                    self.obs.cancelled.inc();
                    cancelled.push(key.clone());
                } else {
                    dead_queued.insert(key.clone());
                }
            }
        }
        for key in &dead_queued {
            inner.flights.remove(key);
            self.obs.aborted.inc();
        }
        // One pass over the queues, however many flights died.
        if !dead_queued.is_empty() {
            for queue in &mut inner.queues {
                queue.retain(|k| !dead_queued.contains(k));
            }
        }
        self.note_queue_depth(&inner);
        let drained = inner.draining && inner.idle();
        drop(inner);
        // Forward cancels into the worker processes — a running flight
        // sits on the child of its key's shard — best-effort: a result
        // that already raced back simply wins.
        if let Some(pool) = &self.proc {
            for key in cancelled {
                if let Some(stdin) = pool.stdins[self.shard_of(&key)].lock().unwrap().as_mut() {
                    let _ = WorkerRequest::Cancel { key }.write_to(stdin);
                }
            }
        }
        if drained {
            self.drained.notify_all();
        }
    }

    fn begin_drain(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.draining = true;
        self.obs.draining.set(1);
        let drained = inner.idle();
        drop(inner);
        self.work_ready.notify_all();
        if drained {
            self.drained.notify_all();
        }
    }

    fn is_draining(&self) -> bool {
        self.inner.lock().unwrap().draining
    }

    /// Blocks until draining has been requested *and* all accepted work
    /// has resolved.
    fn wait_drained(&self) {
        let mut inner = self.inner.lock().unwrap();
        while !(inner.draining && inner.idle()) {
            inner = self.drained.wait(inner).unwrap();
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    dispatcher: Arc<Dispatcher>,
    listener: Listener,
    unix_path: Option<PathBuf>,
    endpoint_desc: String,
    workers: usize,
}

impl Server {
    /// Binds a server to `endpoint` with the given configuration.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(endpoint: &Endpoint, config: &ServerConfig) -> io::Result<Server> {
        let listener = endpoint.bind()?;
        let unix_path = match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(p) => Some(p.clone()),
            #[allow(unreachable_patterns)]
            _ => None,
        };
        Ok(Server {
            dispatcher: Arc::new(Dispatcher::new(config)),
            listener,
            unix_path,
            endpoint_desc: endpoint.to_string(),
            workers: config.workers.max(1),
        })
    }

    /// The bound TCP address when listening on TCP (for port-0 binds in
    /// tests).
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.listener.tcp_addr()
    }

    /// A human-readable description of where the server listens.
    pub fn endpoint(&self) -> &str {
        &self.endpoint_desc
    }

    /// Runs until drained: accepts connections and executes submissions
    /// until a `shutdown` frame arrives or SIGTERM/SIGINT is latched,
    /// then finishes all accepted work, delivers every pending result,
    /// and returns the final counters.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures; per-connection I/O
    /// errors only tear down that connection.
    pub fn run(self) -> io::Result<ServeStats> {
        let Server {
            dispatcher,
            listener,
            unix_path,
            endpoint_desc,
            workers,
        } = self;
        // Process mode: one loop per shard, each proxying to its child.
        // Thread mode: `workers` loops sharing the single shard.
        let loops = match dispatcher.proc {
            Some(_) => dispatcher.nshards,
            None => workers,
        };
        let worker_handles: Vec<_> = (0..loops)
            .map(|i| {
                let d = Arc::clone(&dispatcher);
                std::thread::spawn(move || d.worker_loop(i % d.nshards))
            })
            .collect();

        listener.set_nonblocking(true)?;
        let live_conns = Arc::new(AtomicUsize::new(0));
        let mut next_conn_id: u64 = 0;
        loop {
            if signal::term_requested() || dispatcher.is_draining() {
                dispatcher.begin_drain();
                break;
            }
            match listener.accept() {
                Ok(stream) => {
                    let conn_id = next_conn_id;
                    next_conn_id += 1;
                    hfs_obs::debug("serve", "connection_accepted", &[("conn", conn_id.into())]);
                    let d = Arc::clone(&dispatcher);
                    let conns = Arc::clone(&live_conns);
                    conns.fetch_add(1, Ordering::SeqCst);
                    d.obs.open_conns.inc();
                    std::thread::spawn(move || {
                        handle_conn(&d, stream, conn_id);
                        d.obs.open_conns.dec();
                        conns.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    hfs_obs::error(
                        "serve",
                        "accept_failed",
                        &[
                            ("endpoint", endpoint_desc.as_str().into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }

        // Stop listening first so no connection can arrive after the
        // drain decision, then finish everything already accepted.
        drop(listener);
        if let Some(path) = &unix_path {
            let _ = std::fs::remove_file(path);
        }
        dispatcher.wait_drained();
        for h in worker_handles {
            let _ = h.join();
        }
        // Give connection writer threads a bounded window to flush the
        // final frames to still-attached clients. Connections close as
        // clients read their `done`/`shutting_down` frames; a client
        // that lingers forever only costs this timeout.
        let deadline = Instant::now() + Duration::from_secs(5);
        while live_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        hfs_obs::info(
            "serve",
            "drained",
            &[("endpoint", endpoint_desc.as_str().into())],
        );
        Ok(dispatcher.stats())
    }
}

/// Reader side of one connection; spawns its paired writer thread.
fn handle_conn(dispatcher: &Dispatcher, stream: crate::net::Stream, conn_id: u64) {
    let (tx, rx) = channel::<ServerFrame>();
    let mut write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            hfs_obs::error(
                "serve",
                "stream_clone_failed",
                &[("conn", conn_id.into()), ("error", e.to_string().into())],
            );
            return;
        }
    };
    let writer = std::thread::spawn(move || {
        while let Ok(frame) = rx.recv() {
            if frame.write_to(&mut write_half).is_err() {
                break;
            }
        }
        let _ = write_half.flush();
    });

    let admit = |experiment: &str, id, subscribe, entries| {
        if let Err(refusal) = dispatcher.submit(conn_id, &tx, experiment, id, subscribe, entries) {
            let _ = tx.send(refusal);
        }
    };
    let mut read_half = stream;
    loop {
        match ClientFrame::read_from(&mut read_half) {
            Ok(None) => break,
            Err(e) => {
                hfs_obs::warn(
                    "serve",
                    "connection_error",
                    &[("conn", conn_id.into()), ("error", e.to_string().into())],
                );
                let _ = tx.send(ServerFrame::Error {
                    message: e.to_string(),
                });
                break;
            }
            Ok(Some(ClientFrame::Ping)) => {
                let _ = tx.send(ServerFrame::Pong);
            }
            Ok(Some(ClientFrame::Stats)) => {
                let _ = tx.send(ServerFrame::Stats(dispatcher.stats()));
            }
            Ok(Some(ClientFrame::Metrics)) => {
                let _ = tx.send(ServerFrame::Metrics {
                    text: dispatcher.obs.registry.render_prometheus(),
                });
            }
            Ok(Some(ClientFrame::Shutdown)) => {
                let _ = tx.send(ServerFrame::ShuttingDown);
                dispatcher.begin_drain();
            }
            Ok(Some(ClientFrame::SubmitBatch {
                experiment,
                id,
                subscribe,
                jobs,
            })) => admit(&experiment, id, subscribe, spec_entries(jobs)),
            Ok(Some(ClientFrame::SubmitRefs {
                experiment,
                id,
                subscribe,
                refs,
            })) => {
                let entries = refs.into_iter().map(|r| (r.key, r.label, None)).collect();
                admit(&experiment, id, subscribe, entries);
            }
        }
    }
    dispatcher.drop_conn(conn_id);
    drop(tx);
    // The writer exits once every sender is gone: ours just dropped,
    // and `drop_conn` removed the waiters holding batch clones. It
    // still flushes frames already queued (job results, `done`,
    // `shutting_down`) before exiting.
    let _ = writer.join();
    hfs_obs::debug("serve", "connection_closed", &[("conn", conn_id.into())]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_core::kernel::KernelPair;
    use hfs_core::{DesignPoint, MachineConfig};

    fn job(label: &str, work: u32, iters: u64) -> Job {
        Job::pipeline(
            label,
            KernelPair::simple("demo", work, iters),
            MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
        )
    }

    /// The entries a `submit_refs` frame for `jobs` becomes.
    fn refs(jobs: Vec<Job>) -> Vec<Entry> {
        jobs.into_iter().map(|j| (j.key(), j.label, None)).collect()
    }

    fn dispatcher(workers: usize, queue_limit: usize) -> Arc<Dispatcher> {
        let d = Arc::new(Dispatcher::new(&ServerConfig {
            workers,
            queue_limit,
            cache_dir: None,
            ..ServerConfig::default()
        }));
        for _ in 0..workers {
            let dd = Arc::clone(&d);
            std::thread::spawn(move || dd.worker_loop(0));
        }
        d
    }

    fn drain(d: &Dispatcher) {
        d.begin_drain();
        d.wait_drained();
    }

    /// Reads frames until `dones` batches have finished; returns how
    /// many results arrived and whether every batch reported `ok`.
    fn collect(rx: &std::sync::mpsc::Receiver<ServerFrame>, dones: usize) -> (usize, bool) {
        let (mut results, mut seen, mut all_ok) = (0, 0, true);
        while seen < dones {
            match rx.recv_timeout(Duration::from_secs(60)).unwrap() {
                ServerFrame::BatchResults { results: r, .. } => results += r.len(),
                ServerFrame::Done { ok, .. } => {
                    seen += 1;
                    all_ok &= ok;
                }
                ServerFrame::Accepted { .. } => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
        (results, all_ok)
    }

    fn wait_until_running(d: &Dispatcher) {
        let t0 = Instant::now();
        while d.stats().running == 0 && t0.elapsed() < Duration::from_secs(30) {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn identity_holds(s: &ServeStats) -> bool {
        s.submitted == s.deduped + s.executed + s.cache_hits
    }

    /// The connection that owns [`hold`]'s blocker.
    const HOLDER: u64 = 99;

    /// Occupies a one-worker dispatcher with a job that only
    /// [`release`] ends, so whatever is submitted next stays queued for
    /// as long as the test needs, at any simulator speed.
    fn hold(d: &Dispatcher, tx: &Sender<ServerFrame>) {
        let blocker = spec_entries(vec![job("blk/hold", 2, u64::MAX).with_max_cycles(u64::MAX)]);
        d.submit(HOLDER, tx, "blk", 0, Subscribe::Final, blocker)
            .unwrap();
        wait_until_running(d);
        assert_eq!(d.stats().running, 1, "the blocker runs");
    }

    /// Cancels [`hold`]'s blocker by dropping its connection: it counts
    /// as `submitted` and `cancelled`, delivers nothing and sends no
    /// `done`.
    fn release(d: &Dispatcher) {
        d.drop_conn(HOLDER);
    }

    #[test]
    fn identical_jobs_execute_once() {
        let d = dispatcher(2, 64);
        let (tx, rx) = channel();
        // Two batches of the same job from the same logical client.
        for (id, name) in [(1, "a"), (2, "b")] {
            let jobs = vec![job(&format!("{name}/x"), 2, 40)];
            d.submit(0, &tx, name, id, Subscribe::All, spec_entries(jobs))
                .unwrap();
        }
        assert_eq!(collect(&rx, 2).0, 2, "both waiters got a result");
        let stats = d.stats();
        // Single-flight: two submissions, one execution (timing may
        // let both flights run if the first resolves before the second
        // submit — only possible here because submits are sequential;
        // with the 40-iteration job the first typically still runs.
        // The hard guarantee is executed + deduped == submitted when
        // nothing is cached or cancelled.)
        assert_eq!(stats.submitted, 2);
        assert!(identity_holds(&stats), "{stats:?}");
        drain(&d);
    }

    #[test]
    fn concurrent_identical_batches_dedupe() {
        let d = dispatcher(1, 64);
        let (tx, rx) = channel();
        // One worker, held on a blocker so the queue backs up: submit
        // the same 3 jobs from 4 "clients" while it runs. Dedup is then
        // deterministic for every submission after the first (without
        // the blocker, a fast enough simulator finishes x/a before the
        // later submits land and re-executes it).
        hold(&d, &tx);
        let jobs = || vec![job("x/a", 2, 200), job("x/b", 3, 200), job("x/c", 4, 200)];
        for conn in 0..4 {
            d.submit(
                conn,
                &tx,
                "x",
                2 + conn,
                Subscribe::Final,
                spec_entries(jobs()),
            )
            .unwrap();
        }
        release(&d);
        let (results, all_ok) = collect(&rx, 4);
        assert!(all_ok);
        assert_eq!(results, 12, "every waiter served");
        let stats = d.stats();
        assert_eq!(stats.submitted, 13);
        assert_eq!(stats.delivered, 12);
        assert_eq!(
            (stats.executed, stats.deduped, stats.cancelled),
            (3, 9, 1),
            "only the first batch's 3 jobs execute; {stats:?}"
        );
        drain(&d);
    }

    /// A `submit_refs` chunk whose keys are all in flight joins those
    /// flights; one with a single unknown key is refused whole and
    /// leaves every counter, the queue and the flight table as they
    /// were.
    #[test]
    fn refs_join_flights_or_change_nothing() {
        let d = dispatcher(1, 64);
        let (tx, rx) = channel();
        hold(&d, &tx);
        let queued = || vec![job("x/a", 2, 200), job("x/b", 3, 200)];
        d.submit(0, &tx, "x", 2, Subscribe::Final, spec_entries(queued()))
            .unwrap();

        let waiters = |d: &Dispatcher| -> Vec<(String, usize)> {
            let inner = d.inner.lock().unwrap();
            let mut w: Vec<_> = inner
                .flights
                .iter()
                .map(|(k, f)| (k.clone(), f.waiters.len()))
                .collect();
            w.sort();
            w
        };
        let (stats_before, waiters_before) = (d.stats(), waiters(&d));
        let mut chunk = queued();
        chunk.push(job("x/unknown", 5, 200));
        match d.submit(1, &tx, "x", 3, Subscribe::Final, refs(chunk)) {
            Err(ServerFrame::RefsMiss { id: 3, missing }) => assert_eq!(missing, vec![2]),
            _ => panic!("expected a refs miss"),
        }
        assert_eq!(d.stats(), stats_before, "a refused chunk counts nowhere");
        assert_eq!(waiters(&d), waiters_before, "and joins no flight");

        d.submit(1, &tx, "x", 4, Subscribe::Final, refs(queued()))
            .expect("keys in flight resolve as refs");
        let joined = d.stats();
        assert_eq!(joined.deduped, stats_before.deduped + 2);
        assert_eq!(joined.queued, stats_before.queued, "refs take no slot");

        release(&d);
        let (results, all_ok) = collect(&rx, 2);
        assert!(all_ok);
        assert_eq!(results, 4);
        let s = d.stats();
        assert_eq!(
            (s.submitted, s.executed, s.deduped, s.cancelled),
            (5, 2, 2, 1)
        );
        drain(&d);
    }

    /// A chunk's new flights queue grouped by machine config, then by
    /// kernel shape, each group where its first job stands; a later
    /// chunk queues behind it, and a duplicate or a ref moves nothing.
    #[test]
    fn a_chunk_queues_in_locality_order() {
        let d = dispatcher(1, 64);
        let (tx, rx) = channel();
        hold(&d, &tx);
        let on = |design: DesignPoint, work, i: u64| {
            Job::pipeline(
                format!("o/{design}/{work}/{i}"),
                KernelPair::simple("demo", work, 100 + i),
                MachineConfig::itanium2_cmp(design),
            )
        };
        // A and B share a design and differ in shape; C has A's shape on
        // another design.
        let a = |i| on(DesignPoint::heavywt(), 2, i);
        let b = |i| on(DesignPoint::heavywt(), 3, i);
        let c = |i| on(DesignPoint::syncopti(), 2, i);
        let queued = |d: &Dispatcher| -> Vec<String> {
            d.inner.lock().unwrap().queues[0].iter().cloned().collect()
        };
        let keys = |jobs: &[Job]| -> Vec<String> { jobs.iter().map(Job::key).collect() };

        let first = vec![a(1), b(1), a(2), c(1), b(2), a(3)];
        d.submit(0, &tx, "o", 1, Subscribe::Final, spec_entries(first))
            .unwrap();
        let mut want = keys(&[a(1), a(2), a(3), b(1), b(2), c(1)]);
        assert_eq!(queued(&d), want);

        // `a(2)` joins its queued flight. This chunk leads with B, and
        // A's design comes before C's whatever the shapes.
        let second = vec![b(4), c(2), a(2), a(4)];
        d.submit(0, &tx, "o", 2, Subscribe::Final, spec_entries(second))
            .unwrap();
        want.extend(keys(&[b(4), a(4), c(2)]));
        assert_eq!(queued(&d), want);
        d.submit(1, &tx, "o", 3, Subscribe::Final, refs(vec![c(1), a(1)]))
            .unwrap();
        assert_eq!(queued(&d), want);

        release(&d);
        assert_eq!(collect(&rx, 3), (12, true));
        assert_eq!(d.stats().deduped, 3);
        drain(&d);
    }

    #[test]
    fn admission_control_rejects_whole_batches() {
        let d = dispatcher(1, 2);
        let (tx, rx) = channel();
        // Occupy the worker and fill the queue.
        hold(&d, &tx);
        let fill = vec![job("f/1", 2, 2_000), job("f/2", 3, 2_000)];
        d.submit(0, &tx, "fill", 1, Subscribe::All, spec_entries(fill))
            .unwrap();
        let big = vec![job("b/1", 4, 10), job("b/2", 5, 10), job("b/3", 6, 10)];
        match d.submit(1, &tx, "big", 2, Subscribe::All, spec_entries(big)) {
            Err(ServerFrame::Busy { limit, id: 2, .. }) => assert_eq!(limit, 2),
            _ => panic!("expected busy"),
        }
        assert_eq!(d.stats().rejected, 1);
        // A duplicate of queued work costs no slot and is admitted even
        // at the bound.
        let dup = vec![job("d/2", 3, 2_000)];
        d.submit(1, &tx, "dup", 3, Subscribe::All, spec_entries(dup))
            .expect("duplicate admits without a queue slot");
        assert_eq!(d.stats().deduped, 1);
        release(&d);
        assert_eq!(collect(&rx, 2).0, 3);
        drain(&d);
    }

    #[test]
    fn disconnect_discards_queued_and_cancels_running() {
        let d = dispatcher(1, 64);
        let (tx, rx) = channel();
        // Long-running head job plus queued tail, all owned by conn 7.
        let gone = vec![job("g/head", 2, 2_000_000), job("g/tail", 3, 50)];
        d.submit(7, &tx, "gone", 1, Subscribe::All, spec_entries(gone))
            .unwrap();
        wait_until_running(&d);
        d.drop_conn(7);
        // The tail was discarded, the head cancelled; the dispatcher
        // settles to empty without delivering anything.
        let t0 = Instant::now();
        while (d.stats().running > 0 || d.stats().queued > 0)
            && t0.elapsed() < Duration::from_secs(60)
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        let stats = d.stats();
        assert_eq!(stats.cancelled, 1, "running head got cancelled: {stats:?}");
        assert_eq!(stats.aborted, 1, "queued tail was discarded: {stats:?}");
        assert_eq!(stats.delivered, 0);
        drop(rx);
        // The dispatcher stays healthy: new work from a live conn runs.
        let (tx2, rx2) = channel();
        d.submit(
            8,
            &tx2,
            "after",
            2,
            Subscribe::All,
            spec_entries(vec![job("a/1", 2, 40)]),
        )
        .unwrap();
        assert_eq!(collect(&rx2, 1), (1, true));
        drain(&d);
    }

    #[test]
    fn draining_refuses_new_submissions() {
        let d = dispatcher(1, 64);
        d.begin_drain();
        let (tx, _rx) = channel();
        for entries in [
            spec_entries(vec![job("l/1", 2, 10)]),
            refs(vec![job("l/1", 2, 10)]),
        ] {
            assert!(matches!(
                d.submit(0, &tx, "late", 1, Subscribe::All, entries),
                Err(ServerFrame::ShuttingDown)
            ));
        }
        d.wait_drained();
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let d = dispatcher(1, 64);
        let (tx, rx) = channel();
        d.submit(0, &tx, "empty", 1, Subscribe::All, Vec::new())
            .unwrap();
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            ServerFrame::Accepted {
                total: 0,
                id: 1,
                ..
            }
        ));
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            ServerFrame::Done {
                ok: true,
                id: 1,
                ..
            }
        ));
        drain(&d);
    }
}
