//! The two sweep workloads: the seeded grid of distinct tiny jobs, cold
//! through a fresh server and warm through the live server's hot cache.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

use hfs_harness::{Batch, Job, JobOutcome};
use hfs_serve::{Client, Endpoint, ServeStats, Server, ServerConfig, Subscribe};

use crate::inputs::{sweep_jobs, SWEEP_JOBS};
use crate::report::Tally;
use crate::spans::Recorder;
use crate::workloads::{empty_and_settle, same_ok_outcome, Workload};

/// Engine and server worker threads, fixed so that the host's core count
/// cannot change what is measured. One, because `run.sh` keeps the run on
/// one CPU of a host with two shared virtual cores: with a second worker
/// beside the client, the connection and the dispatcher threads, and free
/// to move between the cores, a run measured the scheduler and whatever
/// else the host was doing (ten-run spreads of 7% to 17%, against 2% to 4%
/// on the single-threaded workloads).
pub const WORKERS: usize = 1;

/// Which result cache a sweep server gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caching {
    /// None: every job is executed (`cache_dir: None`).
    Off,
    /// The in-memory hot layer alone. The server only builds a cache
    /// around a directory, so the directory is one that cannot exist (a
    /// path below a regular file): the cache swallows I/O errors by
    /// contract, every disk store and load fails at once, and the hot
    /// layer in front of them works as usual.
    HotOnly,
    /// The disk cache in `dir/cache` behind the hot layer.
    Disk,
}

/// A server running on its own thread, plus the one client connection
/// every sweep uses.
pub struct LiveServer {
    /// The single client connection.
    pub client: Client,
    thread: JoinHandle<std::io::Result<ServeStats>>,
}

impl LiveServer {
    /// Binds a server on a Unix socket under `dir` and connects to it.
    /// `process_workers` of 0 executes on [`WORKERS`] in-process threads;
    /// otherwise that many re-exec'd copies of this binary (`--worker`)
    /// do.
    pub fn start(dir: &Path, process_workers: usize, caching: Caching) -> LiveServer {
        let endpoint = Endpoint::Unix(dir.join("serve.sock"));
        let cache_dir = match caching {
            Caching::Off => None,
            Caching::HotOnly => {
                let blocker = dir.join("no_disk");
                std::fs::write(&blocker, "").expect("write the file that blocks the disk cache");
                Some(blocker.join("cache"))
            }
            Caching::Disk => Some(dir.join("cache")),
        };
        let config = ServerConfig {
            workers: WORKERS,
            process_workers,
            worker_bin: None,
            // The legacy single-frame submit path carries a whole sweep
            // in one submission; admission must clear it.
            queue_limit: SWEEP_JOBS + 1,
            hot_cache_mb: Some(match cache_dir {
                Some(_) => hfs_harness::hotcache::DEFAULT_HOT_CACHE_MB,
                None => 0,
            }),
            cache_dir,
            default_retries: 0,
        };
        let server = Server::bind(&endpoint, &config).expect("bind the sweep server");
        let thread = std::thread::spawn(move || server.run());
        let client = Client::connect(&endpoint).expect("connect to the sweep server");
        LiveServer { client, thread }
    }

    /// Drains and stops the server, returning its final counters.
    pub fn stop(mut self) -> ServeStats {
        self.client
            .shutdown_server()
            .expect("the server acknowledges shutdown");
        drop(self.client);
        self.thread
            .join()
            .expect("server thread")
            .expect("server run")
    }
}

/// The server's bookkeeping identity: every submitted job was deduped
/// onto a flight, executed, or answered from a cache.
pub fn identity_holds(s: &ServeStats) -> bool {
    s.submitted == s.deduped + s.executed + s.cache_hits
}

/// Executes every job directly (`hfs_harness::execute`, no engine, no
/// cache, no server) on [`WORKERS`] threads: the reference the sweeps'
/// outcomes must equal.
pub fn reference_outcomes(jobs: &[Job]) -> Vec<JobOutcome> {
    let next = AtomicUsize::new(0);
    let mut parts: Vec<Vec<(usize, JobOutcome)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        mine.push((i, hfs_harness::execute(job, 0)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference worker"))
            .collect()
    });
    let mut all: Vec<(usize, JobOutcome)> = parts.drain(..).flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, o)| o).collect()
}

/// Counts one operation per job in `want`: it passes if `got` has an
/// `Ok` outcome for it that equals the wanted one.
fn check_outcomes<'a>(
    got: impl Iterator<Item = &'a JobOutcome>,
    want: &[JobOutcome],
    tally: &mut Tally,
) {
    let mut got = got;
    for w in want {
        tally.record(got.next().is_some_and(|o| same_ok_outcome(o, w)));
    }
}

/// State shared by the two sweeps: the seed, the scratch directory,
/// the outcomes of the first batch seen (which every later rep must
/// reproduce and which `finish` checks against the direct reference) and
/// the tally.
struct Sweep {
    seed: u64,
    dir: PathBuf,
    first: Vec<JobOutcome>,
    cycles: u64,
    tally: Tally,
}

impl Sweep {
    fn new(seed: u64, dir: &Path) -> Sweep {
        Sweep {
            seed,
            dir: dir.to_path_buf(),
            first: Vec::new(),
            cycles: 0,
            tally: Tally::default(),
        }
    }

    /// Fresh jobs for one rep. Regenerated every time: a `Job` memoises
    /// its content key, and a client re-running a sweep pays for the
    /// keys again.
    fn jobs(&self) -> Vec<Job> {
        sweep_jobs(self.seed, SWEEP_JOBS)
    }

    fn fresh_dir(&self) {
        empty_and_settle(&self.dir);
    }

    /// Adopts `batch` as the run's first batch.
    fn adopt(&mut self, batch: Batch) {
        self.first = batch.records.into_iter().map(|r| r.outcome).collect();
        self.cycles = self
            .first
            .iter()
            .filter_map(JobOutcome::ok)
            .map(|r| r.cycles)
            .sum();
    }

    /// Checks a timed rep's batch against the first batch. A refused or
    /// failed submission fails every job of the sweep.
    fn check_rep(&mut self, batch: Option<&Batch>, want_cached: bool) {
        match batch {
            Some(b) => {
                check_outcomes(b.outcomes(), &self.first, &mut self.tally);
                if want_cached && !b.all_cached() {
                    // A warm rep that simulated anything measured the
                    // wrong thing, whatever its outcomes.
                    self.tally.record(false);
                }
            }
            None => {
                self.tally.attempted += self.first.len() as u64;
                self.tally.failed += self.first.len() as u64;
            }
        }
    }

    /// The end-of-run check: the first batch against a direct execution
    /// of the same jobs.
    fn finish(&mut self) -> Tally {
        let reference = reference_outcomes(&self.jobs());
        check_outcomes(self.first.iter(), &reference, &mut self.tally);
        self.tally
    }

    fn layer_jobs(&self) -> Vec<Job> {
        sweep_jobs(self.seed, 64)
    }
}

/// `sweep_cold`: a fresh server with no result cache per rep; the timed
/// region is `submit_batched` to the last result.
///
/// No cache, because a cold cache has to be emptied between reps, and on
/// ext4 a file created soon after thousands were deleted costs up to
/// twenty times what it costs a user (inode allocation walks past every
/// inode freed in the last minutes; see the README). With a cache
/// directory the sweep spent half of its worker time in the kernel and
/// slowed from 3 400 to 2 100 jobs/s over an hour of benchmark runs.
pub struct Cold(Sweep);

impl Cold {
    /// The cold sweep for `seed` under `dir`.
    pub fn new(seed: u64, dir: &Path) -> Cold {
        Cold(Sweep::new(seed, dir))
    }

    fn cold_sweep(&mut self, rec: &mut Recorder, op_id: u64) -> (f64, Option<Batch>) {
        let s = &mut self.0;
        s.fresh_dir();
        let jobs = s.jobs();
        rec.enter("bench", "rep", op_id);
        rec.enter("serve", "server_start", op_id);
        let mut server = LiveServer::start(&s.dir, 0, Caching::Off);
        rec.exit();
        rec.enter("serve", "submit_batched", op_id);
        let start = Instant::now();
        let batch = server
            .client
            .submit_batched("sweep", jobs, Subscribe::Final, |_| {});
        let secs = start.elapsed().as_secs_f64();
        rec.exit();
        rec.enter("serve", "drain", op_id);
        let stats = server.stop();
        rec.exit();
        rec.exit();
        // Everything was new to this server: all of it executed.
        s.tally
            .record(identity_holds(&stats) && stats.executed == SWEEP_JOBS as u64);
        (secs, batch.ok())
    }
}

impl Workload for Cold {
    fn teardown(&mut self) {
        self.0.fresh_dir();
    }

    fn setup(&mut self) {
        // The warm-up rep is a whole cold sweep.
        let (_, batch) = self.cold_sweep(&mut Recorder::new(false), 0);
        self.0.adopt(batch.expect("the warm-up sweep was accepted"));
    }

    fn rep(&mut self, rec: &mut Recorder, op_id: u64, out: &mut Vec<(usize, f64)>) {
        let (secs, batch) = self.cold_sweep(rec, op_id);
        out.push((0, secs));
        self.0.check_rep(batch.as_ref(), false);
    }

    fn jobs_per_rep(&self) -> u64 {
        SWEEP_JOBS as u64
    }

    fn cycles_per_rep(&self) -> u64 {
        self.0.cycles
    }

    fn finish(&mut self, _notes: &mut Vec<String>) -> Tally {
        self.0.finish()
    }

    fn layer_jobs(&self) -> Vec<Job> {
        self.0.layer_jobs()
    }
}

/// `sweep_warm`: one priming pass in set-up, then the same sweep
/// resubmitted to the live server — hot-cache hits through `SubmitRefs`.
///
/// The server caches in memory only ([`Caching::HotOnly`]): no timed rep
/// reads the disk tier, and priming it cost the set-up between 0.6 s and
/// 2.5 s depending on how many files the runs before had deleted (see
/// [`Cold`]).
pub struct Warm {
    sweep: Sweep,
    server: Option<LiveServer>,
}

impl Warm {
    /// The warm sweep for `seed` under `dir`.
    pub fn new(seed: u64, dir: &Path) -> Warm {
        Warm {
            sweep: Sweep::new(seed, dir),
            server: None,
        }
    }
}

impl Workload for Warm {
    fn teardown(&mut self) {
        if let Some(old) = self.server.take() {
            old.stop();
        }
        self.sweep.fresh_dir();
    }

    fn setup(&mut self) {
        let mut server = LiveServer::start(&self.sweep.dir, 0, Caching::HotOnly);
        let primed = server
            .client
            .submit_batched("sweep", self.sweep.jobs(), Subscribe::Final, |_| {})
            .expect("the priming sweep was accepted");
        self.sweep.adopt(primed);
        self.server = Some(server);
    }

    fn rep(&mut self, rec: &mut Recorder, op_id: u64, out: &mut Vec<(usize, f64)>) {
        let jobs = self.sweep.jobs();
        let client = &mut self
            .server
            .as_mut()
            .expect("set-up started a server")
            .client;
        rec.enter("bench", "rep", op_id);
        rec.enter("serve", "submit_batched", op_id);
        let start = Instant::now();
        let batch = client.submit_batched("sweep", jobs, Subscribe::Final, |_| {});
        out.push((0, start.elapsed().as_secs_f64()));
        rec.exit();
        rec.exit();
        self.sweep.check_rep(batch.ok().as_ref(), true);
    }

    fn jobs_per_rep(&self) -> u64 {
        SWEEP_JOBS as u64
    }

    fn cycles_per_rep(&self) -> u64 {
        self.sweep.cycles
    }

    fn finish(&mut self, _notes: &mut Vec<String>) -> Tally {
        let stats = self.server.take().expect("a live server").stop();
        // Only the priming pass may have executed anything.
        self.sweep
            .tally
            .record(identity_holds(&stats) && stats.executed == SWEEP_JOBS as u64);
        self.sweep.finish()
    }

    fn layer_jobs(&self) -> Vec<Job> {
        self.sweep.layer_jobs()
    }
}
