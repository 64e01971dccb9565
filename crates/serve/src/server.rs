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
//! Worker threads pop flights and put each through the harness's
//! per-job step ([`hfs_harness::resolve`]: the shared result [`Cache`]
//! first, hot layer then disk, otherwise simulate and store). Every spec
//! that decodes runs or fails as a job: the simulator validates each
//! field that sizes an allocation, and a run that panics anyway resolves
//! as [`JobOutcome::WorkerDied`], so a worker thread never dies with its
//! job.
//!
//! When every waiter of a flight disconnects, its queued entry is
//! discarded (or its running simulation is cancelled via
//! [`CancelToken`]); a cancelled flight that gained new waiters before
//! the worker noticed is transparently re-enqueued with a fresh token.
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hfs_harness::{
    execute_cancellable, locality_key, resolve, Cache, ExecEnv, HotCache, HotEntry, Job,
    JobOutcome, Lifecycle,
};
use hfs_obs::{Counter, Gauge, Registry};
use hfs_sim::CancelToken;

use crate::net::{Endpoint, Listener};
use crate::proto::{ClientFrame, JobResult, ServeStats, ServerFrame, Subscribe};
use crate::signal;

/// Default bound on queued (not yet running) flights.
pub const DEFAULT_QUEUE_LIMIT: usize = 1024;

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
    /// Worker (simulation) threads.
    pub workers: usize,
    /// Ignored: jobs run on [`ServerConfig::workers`] threads. Kept for
    /// `benchmark/`.
    pub process_workers: usize,
    /// Ignored, like [`ServerConfig::process_workers`].
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
    /// Keys of the flights no worker has picked up yet, in pickup order.
    queue: VecDeque<String>,
    flights: HashMap<String, Flight>,
    running: usize,
    draining: bool,
}

impl DispatchInner {
    fn idle(&self) -> bool {
        self.running == 0 && self.queue.is_empty()
    }
}

/// The dispatcher's telemetry: every counter the `Stats` frame reports
/// lives in one [`Registry`], so the `stats` view and the Prometheus
/// exposition can never disagree. Gauges mirror the queue/flight state
/// maintained under the dispatcher lock. Executed jobs, cache hits and
/// the lifecycle histograms are the harness's [`Lifecycle`] set, counted
/// by the rule the offline engine uses too.
struct Telemetry {
    registry: Registry,
    lifecycle: Lifecycle,
    submitted: Counter,
    deduped: Counter,
    cancelled: Counter,
    aborted: Counter,
    rejected: Counter,
    delivered: Counter,
    queue_depth: Gauge,
    in_flight: Gauge,
    open_conns: Gauge,
    draining: Gauge,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        let registry = Registry::new();
        Telemetry {
            lifecycle: Lifecycle::new(&registry),
            submitted: registry.counter("hfs_jobs_submitted_total"),
            deduped: registry.counter("hfs_jobs_deduped_total"),
            cancelled: registry.counter("hfs_jobs_cancelled_total"),
            aborted: registry.counter("hfs_jobs_aborted_total"),
            rejected: registry.counter("hfs_batches_rejected_total"),
            delivered: registry.counter("hfs_jobs_delivered_total"),
            queue_depth: registry.gauge("hfs_queue_depth"),
            in_flight: registry.gauge("hfs_jobs_in_flight"),
            open_conns: registry.gauge("hfs_open_connections"),
            draining: registry.gauge("hfs_draining"),
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

/// The shared execution core behind every connection.
struct Dispatcher {
    inner: Mutex<DispatchInner>,
    work_ready: Condvar,
    drained: Condvar,
    obs: Telemetry,
    cache: Option<Cache>,
    queue_limit: usize,
    /// How a worker runs a job the cache cannot answer.
    run: fn(&Job, &CancelToken) -> JobOutcome,
}

/// [`Dispatcher::run`]: simulate, until the token fires.
fn simulate(job: &Job, cancel: &CancelToken) -> JobOutcome {
    execute_cancellable(job, Some(cancel))
}

impl Dispatcher {
    fn new(config: &ServerConfig) -> Dispatcher {
        let obs = Telemetry::default();
        let cache = config.cache_dir.as_ref().map(|dir| {
            let hot = match config.hot_cache_mb {
                Some(mb) => HotCache::with_mb(mb, &obs.registry),
                None => HotCache::from_env(&obs.registry),
            };
            Cache::with_hot(dir, hot)
        });
        Dispatcher {
            inner: Mutex::new(DispatchInner {
                queue: VecDeque::new(),
                flights: HashMap::new(),
                running: 0,
                draining: false,
            }),
            work_ready: Condvar::new(),
            drained: Condvar::new(),
            obs,
            cache,
            queue_limit: config.queue_limit,
            run: simulate,
        }
    }

    /// Refreshes the queue-depth gauge; call under the dispatcher lock
    /// after any queue mutation.
    fn note_queue_depth(&self, inner: &DispatchInner) {
        self.obs.queue_depth.set(inner.queue.len() as i64);
    }

    fn stats(&self) -> ServeStats {
        let inner = self.inner.lock().unwrap();
        ServeStats {
            submitted: self.obs.submitted.get(),
            executed: self.obs.lifecycle.executed.get(),
            cache_hits: self.obs.lifecycle.cache_hits.get(),
            deduped: self.obs.deduped.get(),
            cancelled: self.obs.cancelled.get(),
            aborted: self.obs.aborted.get(),
            rejected: self.obs.rejected.get(),
            delivered: self.obs.delivered.get(),
            queued: inner.queue.len() as u64,
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
        if inner.queue.len() + new_keys.len() > self.queue_limit {
            self.obs.rejected.inc();
            return Err(ServerFrame::Busy {
                queued: inner.queue.len() as u64,
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
                self.obs.lifecycle.cache_hits.inc();
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
        inner.queue.extend(locality_order(fresh));
        self.note_queue_depth(&inner);
        drop(inner);
        self.work_ready.notify_all();
        Ok(())
    }

    /// Blocks until there is work (returning its pickup state) or the
    /// drain condition holds (returning `None`, at which point the
    /// caller thread exits).
    fn next_flight(&self) -> Option<(String, Arc<Job>, CancelToken, u64)> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(key) = inner.queue.pop_front() {
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

    /// The worker loop: pop a flight, put it through the harness's
    /// per-job step, count, deliver.
    fn worker_loop(&self) {
        while let Some((key, job, cancel, queue_wait_ms)) = self.next_flight() {
            let step = resolve(self.cache.as_ref(), &key, || (self.run)(&job, &cancel));
            self.obs.lifecycle.record(&step, queue_wait_ms);
            self.complete(&key, step.outcome, step.cached);
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
            inner.flights.insert(key.to_string(), flight);
            inner.queue.push_back(key.to_string());
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
        for (key, flight) in &mut inner.flights {
            flight.waiters.retain(|w| w.conn_id != conn_id);
            if flight.waiters.is_empty() {
                if flight.running {
                    flight.cancel.cancel();
                    self.obs.cancelled.inc();
                } else {
                    dead_queued.insert(key.clone());
                }
            }
        }
        for key in &dead_queued {
            inner.flights.remove(key);
            self.obs.aborted.inc();
        }
        // One pass over the queue, however many flights died.
        if !dead_queued.is_empty() {
            inner.queue.retain(|k| !dead_queued.contains(k));
        }
        self.note_queue_depth(&inner);
        let drained = inner.draining && inner.idle();
        drop(inner);
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
        let worker_handles: Vec<_> = (0..workers)
            .map(|_| {
                let d = Arc::clone(&dispatcher);
                std::thread::spawn(move || d.worker_loop())
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
        let d = Dispatcher::new(&ServerConfig {
            workers,
            queue_limit,
            cache_dir: None,
            ..ServerConfig::default()
        });
        serving(d, workers)
    }

    /// `d` with `workers` worker loops running on it.
    fn serving(d: Dispatcher, workers: usize) -> Arc<Dispatcher> {
        let d = Arc::new(d);
        for _ in 0..workers {
            let dd = Arc::clone(&d);
            std::thread::spawn(move || dd.worker_loop());
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
            d.inner.lock().unwrap().queue.iter().cloned().collect()
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

    /// A job whose run panics resolves as `worker_died` on a live
    /// dispatcher: it is not cached, it runs again when resubmitted, and
    /// the next batch completes.
    #[test]
    fn a_panicking_job_fails_alone_and_is_never_cached() {
        static PANICS: AtomicUsize = AtomicUsize::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!("hfs-serve-panic-{nanos:x}"));
        let mut d = Dispatcher::new(&ServerConfig {
            workers: 1,
            queue_limit: 64,
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        d.run = |job, cancel| {
            if job.label.starts_with("boom") {
                PANICS.fetch_add(1, Ordering::SeqCst);
                panic!("{} blew up", job.label);
            }
            simulate(job, cancel)
        };
        let d = serving(d, 1);
        let (tx, rx) = channel();
        // One batch's (label, status) pairs, in submission order.
        let statuses = |id| {
            let mut results = Vec::new();
            loop {
                match rx.recv_timeout(Duration::from_secs(60)).unwrap() {
                    ServerFrame::BatchResults { results: r, .. } => results.extend(r),
                    ServerFrame::Done { id: done, .. } if done == id => break,
                    _ => {}
                }
            }
            results.sort_by_key(|r| r.index);
            let status = |r: JobResult| (r.label, r.outcome.status());
            results.into_iter().map(status).collect::<Vec<_>>()
        };
        let (boom, fine) = (job("boom/1", 2, 40), job("fine/1", 3, 40));
        let batch = spec_entries(vec![boom.clone(), fine.clone()]);
        d.submit(0, &tx, "p", 1, Subscribe::Final, batch).unwrap();
        let died = ("boom/1".to_string(), "worker_died");
        assert_eq!(statuses(1), [died.clone(), ("fine/1".to_string(), "ok")]);
        let cache = d.cache.as_ref().unwrap();
        assert!(
            cache.load(&boom.key()).is_none(),
            "a dead job is not cached"
        );
        assert!(cache.load(&fine.key()).is_some());

        let again = spec_entries(vec![boom.clone()]);
        d.submit(0, &tx, "p", 2, Subscribe::Final, again).unwrap();
        assert_eq!(statuses(2), [died]);
        assert_eq!(PANICS.load(Ordering::SeqCst), 2, "it ran again");

        let next = spec_entries(vec![job("after/1", 4, 40)]);
        d.submit(0, &tx, "p", 3, Subscribe::Final, next).unwrap();
        assert_eq!(statuses(3), [("after/1".to_string(), "ok")]);
        let s = d.stats();
        assert!(identity_holds(&s), "{s:?}");
        assert_eq!((s.submitted, s.executed), (4, 4));
        drain(&d);
        let _ = std::fs::remove_dir_all(&dir);
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
