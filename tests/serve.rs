//! End-to-end tests for `hfs-serve`: real sockets, concurrent clients,
//! byte-identical artifacts, single-flight deduplication, and
//! disconnect resilience.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::Duration;

use hfs::core::kernel::KernelPair;
use hfs::core::{DesignPoint, MachineConfig};
use hfs::harness::{outcome_to_json, Engine, Job};
use hfs::serve::{
    Client, ClientFrame, Endpoint, JobRef, ServeStats, Server, ServerConfig, ServerFrame, Subscribe,
};

/// Fresh scratch directory under the system temp dir (std-only; no
/// tempfile crate). Unique per test via pid + counter.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("hfs-serve-test-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A small sweep: one benchmark across three golden designs, scaled to
/// `iterations` so tests stay fast.
fn sweep(experiment: &str, iterations: u64) -> Vec<Job> {
    let designs = [
        DesignPoint::existing(),
        DesignPoint::syncopti_sc_q64(),
        DesignPoint::heavywt(),
    ];
    let b = hfs::workloads::benchmark("fir").expect("fir exists");
    designs
        .iter()
        .map(|&d| {
            let bench = b.with_iterations(iterations);
            Job::pipeline(
                format!("{experiment}/fir/{d}"),
                bench.pair,
                MachineConfig::itanium2_cmp(d),
            )
        })
        .collect()
}

/// `n` distinct tiny jobs (the work per iteration varies the key).
fn distinct_jobs(experiment: &str, n: u32, iterations: u64) -> Vec<Job> {
    (0..n)
        .map(|i| {
            Job::pipeline(
                format!("{experiment}/p{i}"),
                KernelPair::simple("demo", 2 + i, iterations),
                MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
            )
        })
        .collect()
}

/// The server's bookkeeping identity: every submitted job was deduped
/// onto a flight, executed, or answered from a cache.
fn identity_holds(s: &ServeStats) -> bool {
    s.submitted == s.deduped + s.executed + s.cache_hits
}

/// Binds a server on an ephemeral TCP port, runs it on a background
/// thread, and returns the connectable endpoint plus the join handle
/// (which yields the final drained counter snapshot).
fn start_server(config: ServerConfig) -> (Endpoint, thread::JoinHandle<ServeStats>) {
    let server =
        Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), &config).expect("bind server");
    let addr = server.tcp_addr().expect("tcp endpoint has an address");
    let handle = thread::spawn(move || server.run().expect("server run"));
    (Endpoint::Tcp(addr.to_string()), handle)
}

/// Asks the server to drain and returns its final counters.
fn stop(mut client: Client, handle: thread::JoinHandle<ServeStats>) -> ServeStats {
    client.shutdown_server().expect("shutdown ack");
    drop(client);
    handle.join().expect("server thread")
}

/// `clients` connections submit `jobs` at the same instant; returns each
/// one's artifact.
fn submit_concurrently(
    endpoint: &Endpoint,
    name: &str,
    jobs: &[Job],
    clients: usize,
) -> Vec<String> {
    let barrier = Barrier::new(clients);
    thread::scope(|s| {
        let threads: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect(endpoint).expect("connect");
                    barrier.wait();
                    client
                        .submit(name, jobs.to_vec(), |_| {})
                        .expect("submit")
                        .artifact_json()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    })
}

/// A round-trip over a Unix-domain socket (the production/// The same round-trip over a Unix-domain socket (the production
/// transport), including socket-file cleanup after drain.
#[cfg(unix)]
#[test]
fn protocol_round_trip_over_unix_socket() {
    let sock = scratch_dir("unix").join("hfs.sock");
    let endpoint = Endpoint::Unix(sock.clone());
    let server = Server::bind(&endpoint, &ServerConfig::default()).expect("bind unix server");
    let handle = thread::spawn(move || server.run().expect("server run"));

    let mut client = Client::connect(&endpoint).expect("connect over unix socket");
    client.ping().expect("ping");
    let batch = client
        .submit("unix", sweep("unix", 200), |_| {})
        .expect("submit");
    assert_eq!(batch.records.len(), 3);
    stop(client, handle);
    assert!(
        !sock.exists(),
        "server removes its socket file after draining"
    );
}

/// N concurrent clients submitting the same sweep must each get an
/// artifact byte-identical to the offline engine's, while the shared
/// cache plus single-flight keep server-side executions at one per
/// unique job.
#[test]
fn concurrent_clients_get_byte_identical_artifacts() {
    const CLIENTS: usize = 3;
    let jobs = sweep("figX", 500);
    let unique = jobs.len() as u64;

    // Offline golden run: same jobs through the plain engine.
    let offline = Engine::new(2)
        .run_batch("figX", jobs.clone())
        .artifact_json();

    let (endpoint, handle) = start_server(ServerConfig {
        workers: 2,
        cache_dir: Some(scratch_dir("cache")),
        ..ServerConfig::default()
    });
    let artifacts = submit_concurrently(&endpoint, "figX", &jobs, CLIENTS);
    for (i, a) in artifacts.iter().enumerate() {
        assert_eq!(
            a, &offline,
            "client {i}'s artifact must be byte-identical to the offline run"
        );
    }

    let mut client = Client::connect(&endpoint).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.submitted, unique * CLIENTS as u64);
    assert_eq!(stats.delivered, unique * CLIENTS as u64);
    assert!(
        stats.executed <= unique,
        "single-flight + shared cache bound executions to one per unique job: {stats:?}"
    );
    assert_eq!(
        stats.executed + stats.cache_hits + stats.deduped,
        unique * CLIENTS as u64,
        "every delivery is an execution, a cache hit, or a dedup: {stats:?}"
    );
    stop(client, handle);
}

/// With the cache disabled, overlap between identical in-flight batches
/// can only be absorbed by single-flight — prove it with the counters.
#[test]
fn single_flight_dedupes_concurrent_identical_batches() {
    const CLIENTS: usize = 3;
    // One worker and multi-millisecond jobs: by the time the first job
    // finishes, every client's submission has joined the in-flight map.
    let jobs = sweep("dedup", 5_000);
    let unique = jobs.len() as u64;
    let (endpoint, handle) = start_server(ServerConfig {
        workers: 1,
        cache_dir: None,
        ..ServerConfig::default()
    });

    let artifacts = submit_concurrently(&endpoint, "dedup", &jobs, CLIENTS);
    assert!(
        artifacts.windows(2).all(|w| w[0] == w[1]),
        "deduped batches must still deliver identical artifacts"
    );

    let mut client = Client::connect(&endpoint).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.submitted, unique * CLIENTS as u64);
    assert!(stats.deduped > 0, "expected in-flight dedup: {stats:?}");
    assert!(
        stats.executed < stats.submitted,
        "single-flight must execute fewer jobs than were submitted: {stats:?}"
    );
    stop(client, handle);
}

/// A client that disconnects mid-batch must not poison the server or
/// the cache: its queued flights are discarded, its running flight is
/// cancelled (and never cached), and a later client re-running the same
/// sweep still gets the offline-identical artifact.
#[test]
fn disconnect_mid_batch_leaves_cache_consistent() {
    let jobs = sweep("abandon", 5_000);
    let offline = Engine::new(2)
        .run_batch("abandon", jobs.clone())
        .artifact_json();

    let (endpoint, handle) = start_server(ServerConfig {
        workers: 1,
        cache_dir: Some(scratch_dir("abandon-cache")),
        ..ServerConfig::default()
    });

    // Raw protocol client: submit, read the acceptance, vanish.
    {
        let mut stream = endpoint.connect().expect("connect raw");
        ClientFrame::SubmitBatch {
            experiment: "abandon".to_string(),
            id: 1,
            subscribe: Subscribe::All,
            jobs: jobs.clone(),
        }
        .write_to(&mut stream)
        .expect("write submit_batch");
        match ServerFrame::read_from(&mut stream).expect("read accepted") {
            Some(ServerFrame::Accepted { total, id, .. }) => {
                assert_eq!((total, id), (jobs.len() as u64, 1));
            }
            other => panic!("expected accepted, got {other:?}"),
        }
        // Dropping the stream here abandons the batch mid-flight.
    }
    // Give the server a moment to notice the hangup and cancel.
    thread::sleep(Duration::from_millis(50));

    let mut client = Client::connect(&endpoint).expect("reconnect");
    client
        .ping()
        .expect("server still healthy after disconnect");
    let batch = client
        .submit("abandon", jobs, |_| {})
        .expect("resubmit after disconnect");
    assert_eq!(
        batch.artifact_json(),
        offline,
        "post-disconnect rerun must still match the offline artifact"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.delivered, 3,
        "only the surviving client's jobs are delivered: {stats:?}"
    );
    let final_stats = stop(client, handle);
    assert_eq!(final_stats.queued, 0);
    assert_eq!(final_stats.running, 0);
}

/// One sweep, every way through: `Subscribe::All`, `Subscribe::Final`
/// and the offline engine yield the same artifact bytes, and a
/// `Subscribe::None` pass returns nothing but leaves the server able to
/// answer the whole sweep by key.
#[test]
fn every_subscription_level_yields_the_offline_artifact() {
    let jobs = distinct_jobs("levels", 12, 40);
    let n = jobs.len() as u64;
    let offline = Engine::new(2)
        .run_batch("levels", jobs.clone())
        .artifact_json();
    let (endpoint, handle) = start_server(ServerConfig {
        workers: 2,
        cache_dir: Some(scratch_dir("levels-cache")),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&endpoint).expect("connect");
    client.ping().expect("ping");
    let before = client.stats().expect("stats");
    assert_eq!(before.submitted, 0);
    assert!(!before.draining);

    let primed = client
        .submit_batched("levels", jobs.clone(), Subscribe::None, |_| {
            panic!("`none` streams no results")
        })
        .expect("priming pass");
    assert!(primed.records.is_empty(), "`none` returns an empty batch");
    let after_none = client.stats().expect("stats");
    assert_eq!((after_none.submitted, after_none.executed), (n, n));
    assert!(identity_holds(&after_none), "{after_none:?}");

    let mut updates = 0u64;
    for (round, level) in [Subscribe::Final, Subscribe::All].into_iter().enumerate() {
        let batch = client
            .submit_batched("levels", jobs.clone(), level, |u| {
                updates += 1;
                assert!(u.finished >= 1 && u.finished <= u.total);
            })
            .expect("warm pass");
        assert_eq!(
            batch.artifact_json(),
            offline,
            "{level:?} differs from offline"
        );
        assert!(batch.all_cached(), "{level:?} resolved by key");
        let stats = client.stats().expect("stats");
        assert_eq!(stats.executed, n, "nothing re-executed under {level:?}");
        assert_eq!(stats.cache_hits, n * (round as u64 + 1));
        assert!(identity_holds(&stats), "{stats:?}");
    }
    assert_eq!(updates, 2 * n, "one update per job per streamed pass");

    let fin = stop(client, handle);
    assert_eq!((fin.submitted, fin.delivered), (3 * n, 3 * n));
    assert_eq!((fin.queued, fin.running, fin.rejected), (0, 0, 0));
    assert!(identity_holds(&fin), "{fin:?}");
}

/// `Subscribe::All` is per-job streaming: the first update reaches the
/// client while later jobs of the same batch are still queued or
/// running server-side.
#[test]
fn all_streams_results_while_later_jobs_still_run() {
    let mut jobs = distinct_jobs("stream", 1, 40);
    jobs.push(Job::pipeline(
        "stream/slow",
        KernelPair::simple("slow", 2, 400_000),
        MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
    ));
    let (endpoint, handle) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut observer = Client::connect(&endpoint).expect("connect observer");
    let mut client = Client::connect(&endpoint).expect("connect");
    let mut at_first_update = None;
    let batch = client
        .submit("stream", jobs, |u| {
            if u.finished == 1 {
                at_first_update = Some(observer.stats().expect("stats mid-batch"));
            }
        })
        .expect("submit");
    assert!(batch.all_ok());
    let mid = at_first_update.expect("an update for the first job");
    assert_eq!(mid.delivered, 1, "{mid:?}");
    assert_eq!(
        mid.queued + mid.running,
        1,
        "the slow job is still pending: {mid:?}"
    );
    stop(client, handle);
}

/// A chunk larger than the server's queue limit can never be admitted
/// whole; the client cuts it to the limit the `busy` frame reports
/// instead of retrying it until the budget runs out.
#[test]
fn chunks_shrink_to_fit_a_small_queue_limit() {
    let jobs = distinct_jobs("tight", 40, 40);
    let offline = Engine::new(2)
        .run_batch("tight", jobs.clone())
        .artifact_json();
    let (endpoint, handle) = start_server(ServerConfig {
        workers: 2,
        queue_limit: 8,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&endpoint).expect("connect");
    let batch = client
        .submit_batched("tight", jobs, Subscribe::Final, |_| {})
        .expect("a 40-job sweep fits through a queue of 8");
    assert_eq!(batch.artifact_json(), offline);
    let fin = stop(client, handle);
    assert_eq!((fin.submitted, fin.executed), (40, 40));
    assert!(fin.rejected >= 1, "the whole chunk bounced first: {fin:?}");
    assert!(identity_holds(&fin), "{fin:?}");
}

/// A cache key is a file name server-side, so a `submit_refs` frame
/// carrying anything but a well-formed key is answered with `error` —
/// and never reaches the filesystem: a decodable entry placed beside
/// the cache directory stays where it is.
#[test]
fn foreign_ref_keys_are_refused_and_touch_no_file() {
    let root = scratch_dir("victim");
    let cache_dir = root.join("cache");
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");
    let victim = root.join("victim.json");
    let outcome = hfs::harness::execute(&distinct_jobs("victim", 1, 40)[0], 0);
    let body = outcome_to_json(&outcome).to_pretty();
    std::fs::write(&victim, &body).expect("write victim");

    let (endpoint, handle) = start_server(ServerConfig {
        workers: 1,
        cache_dir: Some(cache_dir.clone()),
        ..ServerConfig::default()
    });
    let mut stream = endpoint.connect().expect("connect raw");
    ClientFrame::SubmitRefs {
        experiment: "victim".to_string(),
        id: 1,
        subscribe: Subscribe::Final,
        refs: vec![JobRef {
            key: "../victim".to_string(),
            label: "victim/p0".to_string(),
        }],
    }
    .write_to(&mut stream)
    .expect("write submit_refs");
    match ServerFrame::read_from(&mut stream).expect("read the answer") {
        Some(ServerFrame::Error { message }) => assert!(message.contains("../victim"), "{message}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    drop(stream);
    assert_eq!(
        std::fs::read_to_string(&victim).expect("victim still beside the cache"),
        body
    );
    assert!(!cache_dir.join("victim.json").exists(), "nothing moved in");

    let mut client = Client::connect(&endpoint).expect("connect");
    assert_eq!(client.stats().expect("stats").submitted, 0);
    stop(client, handle);
}
