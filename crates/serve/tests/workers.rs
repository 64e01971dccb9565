//! End-to-end tests of process-worker mode: a real `hfs-serve` binary
//! re-exec'd as `--worker` children behind a real Unix socket.
//!
//! These tests pin the two guarantees multi-process mode must not
//! weaken: results stay **byte-identical** to offline execution (the
//! simulation itself never moves, only where it runs), and a worker
//! crash mid-batch is **absorbed** — the flight re-dispatches, the
//! batch completes, and the restart shows up in the metrics.

use std::path::PathBuf;
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use hfs_core::kernel::KernelPair;
use hfs_core::{DesignPoint, MachineConfig};
use hfs_harness::{execute, outcome_to_json, Job};
use hfs_serve::{Client, Endpoint, Server, ServerConfig, Subscribe};

/// Distinct-key jobs of tunable cost (`iters` scales simulated work;
/// the cycle budget varies the content key without ever binding).
fn jobs(tag: &'static str, n: usize, iters: u64) -> Vec<Job> {
    (0..n)
        .map(|i| {
            Job::pipeline(
                format!("workers/{tag}/{i}"),
                KernelPair::simple(tag, 2, iters),
                MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
            )
            .with_max_cycles(10_000_000 + i as u64)
        })
        .collect()
}

/// The serialized outcome bytes offline execution produces for `job` —
/// the reference every server-delivered outcome must match exactly.
fn offline_bytes(job: &Job) -> String {
    outcome_to_json(&execute(job, 0)).to_pretty()
}

/// Held by every live [`TestServer`]: `worker_pids` sees the `--worker`
/// children of the whole test process, so two servers alive at once
/// (the harness runs tests on parallel threads) would count each
/// other's workers as orphans.
static ONE_SERVER: Mutex<()> = Mutex::new(());

struct TestServer {
    _alone: MutexGuard<'static, ()>,
    endpoint: Endpoint,
    sock: PathBuf,
    cache: PathBuf,
    handle: Option<std::thread::JoinHandle<std::io::Result<hfs_serve::ServeStats>>>,
}

impl TestServer {
    /// Binds a fresh-cache server with `workers` re-exec'd `--worker`
    /// children (the actual built `hfs-serve` binary).
    fn start(tag: &str, workers: usize) -> TestServer {
        Self::start_with(tag, workers, PathBuf::from(env!("CARGO_BIN_EXE_hfs-serve")))
    }

    /// Like [`TestServer::start`], with an explicit worker binary (for
    /// crash injection).
    fn start_with(tag: &str, workers: usize, worker_bin: PathBuf) -> TestServer {
        // A test that failed holding the lock poisons nothing it guards.
        let alone = ONE_SERVER.lock().unwrap_or_else(PoisonError::into_inner);
        let base = std::env::temp_dir().join(format!("hfs-workers-{}-{tag}", std::process::id()));
        let sock = base.with_extension("sock");
        let cache = base.with_extension("cache");
        let _ = std::fs::remove_file(&sock);
        let _ = std::fs::remove_dir_all(&cache);
        std::fs::create_dir_all(&cache).expect("create cache dir");
        let config = ServerConfig {
            process_workers: workers,
            worker_bin: Some(worker_bin),
            cache_dir: Some(cache.clone()),
            hot_cache_mb: None,
            ..ServerConfig::default()
        };
        let endpoint = Endpoint::Unix(sock.clone());
        let server = Server::bind(&endpoint, &config).expect("bind test server");
        let handle = std::thread::spawn(move || server.run());
        TestServer {
            _alone: alone,
            endpoint,
            sock,
            cache,
            handle: Some(handle),
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.endpoint).expect("connect to test server")
    }

    /// Drains the server and asserts the drain reaped every child: no
    /// orphaned `--worker` process may survive `run()` returning.
    fn shutdown(mut self) {
        self.client().shutdown_server().expect("shutdown frame");
        self.handle
            .take()
            .unwrap()
            .join()
            .expect("server thread")
            .expect("server run");
        assert!(
            worker_pids().is_empty(),
            "drain must reap every --worker child"
        );
        let _ = std::fs::remove_dir_all(&self.cache);
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// Live `--worker` children of this test process, via /proc.
fn worker_pids() -> Vec<u32> {
    let me = std::process::id();
    let mut pids = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return pids;
    };
    for entry in entries.flatten() {
        let Ok(pid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // ppid is the second field after the parenthesized comm.
        let ppid = stat
            .rsplit(')')
            .next()
            .and_then(|rest| rest.split_whitespace().nth(1))
            .and_then(|s| s.parse::<u32>().ok());
        if ppid != Some(me) {
            continue;
        }
        let Ok(cmd) = std::fs::read_to_string(format!("/proc/{pid}/cmdline")) else {
            continue;
        };
        if cmd.split('\0').any(|arg| arg == "--worker") {
            pids.push(pid);
        }
    }
    pids
}

/// The `hfs_worker_restarts_total` counter from a live server.
fn restarts_metric(client: &mut Client) -> u64 {
    client
        .metrics()
        .expect("metrics")
        .lines()
        .find_map(|l| l.strip_prefix("hfs_worker_restarts_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("restart counter exposed")
}

/// Number of regular files anywhere under `dir`.
fn cache_files(dir: &std::path::Path) -> usize {
    let mut count = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                count += 1;
            }
        }
    }
    count
}

#[test]
fn process_workers_match_offline_bytes_cold_and_warm() {
    let server = TestServer::start("bytes", 2);
    let js = jobs("bytes", 12, 40);
    let expected: Vec<String> = js.iter().map(offline_bytes).collect();

    let mut client = server.client();
    // Cold: the batched path probes with `submit_refs`, takes the
    // `refs_miss` fallback, and executes every job on a child process.
    let cold = client
        .submit_batched("workers-bytes", js.clone(), Subscribe::Final, |_| {})
        .expect("cold batch");
    assert_eq!(cold.records.len(), expected.len());
    for (rec, want) in cold.records.iter().zip(&expected) {
        assert!(!rec.cached, "cold run must execute");
        assert_eq!(
            outcome_to_json(&rec.outcome).to_pretty(),
            *want,
            "process-worker outcome must match offline bytes ({})",
            rec.label
        );
    }

    // Warm: the same sweep resolves wholly through `submit_refs`.
    let warm = client
        .submit_batched("workers-bytes", js, Subscribe::Final, |_| {})
        .expect("warm batch");
    for (rec, want) in warm.records.iter().zip(&expected) {
        assert!(rec.cached, "warm run must hit the cache");
        assert_eq!(outcome_to_json(&rec.outcome).to_pretty(), *want);
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.executed, expected.len() as u64, "each job ran once");
    assert!(stats.cache_hits >= expected.len() as u64, "warm pass hit");
    assert_eq!(stats.delivered, stats.submitted, "nothing dropped");
    drop(client);
    server.shutdown();
}

#[test]
fn killed_worker_restarts_and_batch_completes_byte_identically() {
    let server = TestServer::start("crash", 2);
    // Slow enough that the batch is mid-flight when the kill lands:
    // tens of jobs at a few milliseconds each.
    let js = jobs("crash", 24, 8_000);
    let expected: Vec<String> = js.iter().map(offline_bytes).collect();

    let (first_result_tx, first_result_rx) = mpsc::channel();
    let mut client = server.client();
    let submitter = {
        let js = js.clone();
        let mut client = server.client();
        std::thread::spawn(move || {
            client.submit("workers-crash", js, move |_| {
                let _ = first_result_tx.send(());
            })
        })
    };

    first_result_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a first result before the kill");
    let pids = worker_pids();
    assert_eq!(pids.len(), 2, "both --worker children should be live");
    let status = std::process::Command::new("kill")
        .args(["-9", &pids[0].to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -9 must land");

    let batch = submitter
        .join()
        .expect("submitter thread")
        .expect("batch survives a worker crash");
    assert_eq!(batch.records.len(), expected.len());
    for (rec, want) in batch.records.iter().zip(&expected) {
        assert_eq!(
            outcome_to_json(&rec.outcome).to_pretty(),
            *want,
            "post-crash outcome must match offline bytes ({})",
            rec.label
        );
    }

    let restarts = restarts_metric(&mut client);
    assert!(restarts >= 1, "the kill must register as a restart");
    drop(client);
    server.shutdown();
}

/// A worker binary that dies instantly (`/bin/false`): every attempt
/// registers as a crash, the job resolves as a *structured*
/// `worker_died` outcome after the budget is spent, and the failure is
/// never written to the result cache — a later identical submit
/// re-executes instead of being served the stale corpse.
#[test]
fn crashing_worker_yields_structured_outcome_never_cached() {
    let server = TestServer::start_with("false", 1, PathBuf::from("/bin/false"));
    let js = jobs("false", 1, 40);
    let mut client = server.client();

    let first = client
        .submit_batched("workers-false", js.clone(), Subscribe::Final, |_| {})
        .expect("batch completes despite a dead worker binary");
    assert_eq!(first.records.len(), 1);
    assert_eq!(first.records[0].outcome.status(), "worker_died");
    assert!(!first.records[0].cached);
    // The crash budget, MAX_WORKER_CRASHES (2), means three attempts,
    // each counted as a death.
    assert_eq!(restarts_metric(&mut client), 3);
    assert_eq!(
        cache_files(&server.cache),
        0,
        "worker_died must never land in the disk cache"
    );

    // An identical submit re-executes (and fails again) instead of
    // being served the failure as if it were a terminal result.
    let second = client
        .submit_batched("workers-false", js, Subscribe::Final, |_| {})
        .expect("second batch");
    assert_eq!(second.records[0].outcome.status(), "worker_died");
    assert!(!second.records[0].cached, "failures are not served back");
    assert_eq!(restarts_metric(&mut client), 6, "the job ran again");
    drop(client);
    server.shutdown();
}

/// A child SIGKILLed *after graceful drain begins* is reaped without a
/// respawn, and its in-flight job still resolves with a structured
/// outcome so the batch (and the drain) complete.
#[test]
fn kill_during_drain_reaps_without_respawn() {
    let mut server = TestServer::start("drain-kill", 1);
    // Job 0 is fast; job 1 is slow enough to still be mid-flight when
    // the drain begins and the kill lands.
    let mut js = jobs("drain-kill", 1, 40);
    js.push(Job::pipeline(
        "workers/drain-kill/slow".to_string(),
        KernelPair::simple("drain-kill-slow", 2, 6_000_000),
        MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
    ));

    let (first_tx, first_rx) = mpsc::channel();
    let submitter = {
        let js = js.clone();
        let mut client = server.client();
        std::thread::spawn(move || {
            client.submit("workers-drain-kill", js, move |_| {
                let _ = first_tx.send(());
            })
        })
    };
    first_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("fast job resolves; slow job now in flight");
    let pids = worker_pids();
    assert_eq!(pids.len(), 1, "the single --worker child should be live");

    // Begin the drain, give the flag a moment to latch, then SIGKILL
    // the child mid-job.
    let drainer = {
        let mut client = server.client();
        std::thread::spawn(move || client.shutdown_server())
    };
    std::thread::sleep(Duration::from_millis(300));
    let status = std::process::Command::new("kill")
        .args(["-9", &pids[0].to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -9 must land");

    let batch = submitter
        .join()
        .expect("submitter thread")
        .expect("batch completes despite kill during drain");
    drainer
        .join()
        .expect("drainer thread")
        .expect("shutdown ack");
    assert_eq!(batch.records.len(), 2);
    assert_eq!(batch.records[0].outcome.status(), "ok");
    let slow = &batch.records[1];
    assert_eq!(slow.outcome.status(), "worker_died");
    assert!(
        format!("{}", slow.outcome).contains("during drain; not respawned"),
        "the outcome must name the no-respawn drain path: {}",
        slow.outcome
    );

    // The drain must complete with the corpse reaped and no respawn.
    server
        .handle
        .take()
        .unwrap()
        .join()
        .expect("server thread")
        .expect("server run");
    assert!(
        worker_pids().is_empty(),
        "no respawned --worker child may survive the drain"
    );
    let _ = std::fs::remove_dir_all(&server.cache);
    let _ = std::fs::remove_file(&server.sock);
}
