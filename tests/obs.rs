//! Observability integration tests: logger line-atomicity under
//! contention, metric-registry exactness, exposition golden, and the
//! serve-layer `metrics` frame invariants.
//!
//! Log assertions parse the structured JSON fields (via the harness
//! JSON parser) instead of matching raw stderr substrings — the
//! documented deflake contract for every log-asserting test.

use std::sync::Arc;
use std::thread;

use hfs::harness::{Engine, Json};
use hfs::obs::{BufferSink, Level, Logger, Registry};
use hfs::serve::{Client, Endpoint, Server, ServerConfig};

/// Every line a contended logger emits must parse as standalone JSON
/// with strictly increasing `seq` — proof that concurrent writers
/// never interleave bytes and that sequence assignment happens in sink
/// order.
#[test]
fn log_lines_are_atomic_and_ordered_under_contention() {
    const WRITERS: u64 = 8;
    const LINES: u64 = 50;
    let sink = BufferSink::new();
    let log = Arc::new(Logger::with_sink(Level::Debug, Box::new(sink.clone())));

    thread::scope(|s| {
        for t in 0..WRITERS {
            let log = Arc::clone(&log);
            s.spawn(move || {
                for i in 0..LINES {
                    log.info(
                        "test",
                        "tick",
                        &[
                            ("writer", t.into()),
                            ("i", i.into()),
                            // A hostile payload: quotes, backslashes,
                            // newlines — must stay inside one JSON line.
                            ("payload", "a\"b\\c\nd".into()),
                        ],
                    );
                }
            });
        }
    });

    let contents = sink.contents();
    let lines: Vec<&str> = contents.lines().collect();
    assert_eq!(lines.len(), (WRITERS * LINES) as usize);
    let mut last_seq = 0u64;
    let mut per_writer = vec![0u64; WRITERS as usize];
    for line in lines {
        let v = hfs::harness::parse(line)
            .unwrap_or_else(|e| panic!("log line is not valid JSON ({e}): {line}"));
        let seq = v.get("seq").and_then(Json::as_u64).expect("seq field");
        assert!(seq > last_seq, "seq strictly increases in sink order");
        last_seq = seq;
        assert_eq!(v.get("level").and_then(Json::as_str), Some("info"));
        assert_eq!(v.get("component").and_then(Json::as_str), Some("test"));
        assert_eq!(v.get("event").and_then(Json::as_str), Some("tick"));
        assert_eq!(
            v.get("payload").and_then(Json::as_str),
            Some("a\"b\\c\nd"),
            "escaping round-trips through the parser"
        );
        let w = v.get("writer").and_then(Json::as_u64).expect("writer");
        per_writer[w as usize] += 1;
    }
    assert!(per_writer.iter().all(|&n| n == LINES), "no line lost");
    assert_eq!(log.dropped(), 0);
}

/// Records below the configured level must not reach the sink at all.
#[test]
fn level_filter_silences_lower_severities() {
    let sink = BufferSink::new();
    let log = Logger::with_sink(Level::Error, Box::new(sink.clone()));
    log.info("serve", "connection_accepted", &[("conn", 1u64.into())]);
    log.debug("serve", "connection_closed", &[("conn", 1u64.into())]);
    log.warn("serve", "connection_error", &[]);
    assert!(sink.contents().is_empty(), "HFS_LOG=error silences chatter");
    log.error("serve", "accept_failed", &[]);
    let contents = sink.contents();
    let v = hfs::harness::parse(contents.trim()).expect("valid JSON");
    assert_eq!(v.get("event").and_then(Json::as_str), Some("accept_failed"));
}

/// N threads × M increments through cloned handles must sum exactly —
/// no lost updates, and a re-lookup of the same name shares the
/// instrument.
#[test]
fn registry_concurrent_increments_sum_exactly() {
    const THREADS: u64 = 8;
    const INCS: u64 = 500;
    let reg = Registry::new();
    let gauge = reg.gauge("hfs_jobs_in_flight");
    thread::scope(|s| {
        for _ in 0..THREADS {
            // Each thread looks its handles up independently, the way
            // separate components do in production.
            let c = reg.counter("hfs_jobs_submitted_total");
            let h = reg.histogram("hfs_job_exec_wall_ms", 1000);
            let g = gauge.clone();
            s.spawn(move || {
                for i in 0..INCS {
                    c.inc();
                    g.inc();
                    h.observe(i % 7);
                    g.dec();
                }
            });
        }
    });
    assert_eq!(
        reg.counter("hfs_jobs_submitted_total").get(),
        THREADS * INCS
    );
    assert_eq!(reg.gauge("hfs_jobs_in_flight").get(), 0);
    assert_eq!(
        reg.histogram("hfs_job_exec_wall_ms", 1000).count(),
        THREADS * INCS
    );
}

/// The exposition golden: sorted by name, counters and gauges one
/// sample each, histograms as summaries with three quantiles plus
/// `_sum`/`_count`.
#[test]
fn prometheus_exposition_matches_golden() {
    let reg = Registry::new();
    reg.counter("hfs_jobs_submitted_total").add(6);
    reg.gauge("hfs_queue_depth").set(2);
    let h = reg.histogram("hfs_job_queue_wait_ms", 100);
    for v in [1u64, 2, 3, 4] {
        h.observe(v);
    }
    let expected = "# TYPE hfs_job_queue_wait_ms summary\n\
                    hfs_job_queue_wait_ms{quantile=\"0.5\"} 2\n\
                    hfs_job_queue_wait_ms{quantile=\"0.95\"} 4\n\
                    hfs_job_queue_wait_ms{quantile=\"0.99\"} 4\n\
                    hfs_job_queue_wait_ms_sum 10\n\
                    hfs_job_queue_wait_ms_count 4\n\
                    # TYPE hfs_jobs_submitted_total counter\n\
                    hfs_jobs_submitted_total 6\n\
                    # TYPE hfs_queue_depth gauge\n\
                    hfs_queue_depth 2\n";
    assert_eq!(reg.render_prometheus(), expected);
}

/// Extracts the sample value for an exact metric name (no labels) from
/// Prometheus exposition text.
fn sample(text: &str, name: &str) -> i64 {
    text.lines()
        .find_map(|l| {
            let (n, v) = l.split_once(' ')?;
            (n == name).then(|| v.parse().expect("numeric sample"))
        })
        .unwrap_or_else(|| panic!("metric {name} not found in exposition:\n{text}"))
}

/// The engine's lifecycle histograms: every job contributes a
/// queue-wait observation; only executed (non-cached) jobs contribute
/// an execution-wall observation.
#[test]
fn engine_registry_tracks_job_lifecycle() {
    let designs = [
        hfs::core::DesignPoint::existing(),
        hfs::core::DesignPoint::heavywt(),
    ];
    let b = hfs::workloads::benchmark("fir").expect("fir exists");
    let jobs: Vec<hfs::harness::Job> = designs
        .iter()
        .map(|&d| {
            hfs::harness::Job::pipeline(
                format!("obs/fir/{d}"),
                b.with_iterations(100).pair,
                hfs::core::MachineConfig::itanium2_cmp(d),
            )
        })
        .collect();
    let n = jobs.len() as i64;

    let engine = Engine::new(2);
    let batch = engine.run_batch("obs", jobs);
    assert!(batch.all_ok());

    let text = engine.registry().render_prometheus();
    assert_eq!(sample(&text, "hfs_job_queue_wait_ms_count"), n);
    assert_eq!(
        sample(&text, "hfs_job_exec_wall_ms_count"),
        n,
        "no cache configured: every job executes"
    );
    assert_eq!(sample(&text, "hfs_job_timeouts_total"), 0);
}

/// End-to-end `metrics` frame invariants against a live server: the
/// exposition is well-formed, agrees with the `stats` frame (they read
/// the same registry), and satisfies the lifecycle accounting
/// identities at quiescence.
#[test]
fn metrics_frame_agrees_with_stats_and_lifecycle_invariants() {
    let cache_dir = std::env::temp_dir().join(format!("hfs-obs-test-cache-{}", std::process::id()));
    let config = ServerConfig {
        workers: 2,
        cache_dir: Some(cache_dir.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), &config).expect("bind");
    let addr = server.tcp_addr().expect("tcp addr");
    let handle = thread::spawn(move || server.run().expect("server run"));
    let endpoint = Endpoint::Tcp(addr.to_string());

    let designs = [
        hfs::core::DesignPoint::existing(),
        hfs::core::DesignPoint::syncopti_sc_q64(),
        hfs::core::DesignPoint::heavywt(),
    ];
    let b = hfs::workloads::benchmark("fir").expect("fir exists");
    let jobs: Vec<hfs::harness::Job> = designs
        .iter()
        .map(|&d| {
            hfs::harness::Job::pipeline(
                format!("obsmetrics/fir/{d}"),
                b.with_iterations(200).pair,
                hfs::core::MachineConfig::itanium2_cmp(d),
            )
        })
        .collect();

    let mut client = Client::connect(&endpoint).expect("connect");
    // Two identical submissions on one connection: the first executes
    // every job, the second is served from the shared cache (or deduped
    // if still in flight); the identities below hold either way.
    for round in 0..2 {
        let batch = client
            .submit("obsmetrics", jobs.clone(), |_| {})
            .unwrap_or_else(|e| panic!("submit round {round}: {e}"));
        assert!(batch.all_ok());
    }

    let stats = client.stats().expect("stats");
    let text = client.metrics().expect("metrics");

    // Well-formedness: every non-comment line is `name[{labels}] value`.
    for line in text.lines() {
        assert!(!line.is_empty(), "no blank lines in exposition");
        if line.starts_with('#') {
            continue;
        }
        let (name, value) = line.split_once(' ').expect("sample has one space");
        assert!(!name.is_empty());
        assert!(
            value.parse::<i64>().is_ok() || value.parse::<f64>().is_ok(),
            "sample value is numeric: {line}"
        );
    }

    // Single source of truth: the stats frame and the exposition must
    // agree exactly — both read the same registry.
    assert_eq!(
        sample(&text, "hfs_jobs_submitted_total"),
        stats.submitted as i64
    );
    assert_eq!(
        sample(&text, "hfs_jobs_executed_total"),
        stats.executed as i64
    );
    assert_eq!(
        sample(&text, "hfs_jobs_cache_hits_total"),
        stats.cache_hits as i64
    );
    assert_eq!(
        sample(&text, "hfs_jobs_deduped_total"),
        stats.deduped as i64
    );
    assert_eq!(
        sample(&text, "hfs_jobs_delivered_total"),
        stats.delivered as i64
    );

    // Lifecycle accounting at quiescence.
    let submitted = sample(&text, "hfs_jobs_submitted_total");
    let executed = sample(&text, "hfs_jobs_executed_total");
    let cache_hits = sample(&text, "hfs_jobs_cache_hits_total");
    let deduped = sample(&text, "hfs_jobs_deduped_total");
    assert_eq!(submitted, 6, "two rounds of three jobs");
    assert_eq!(
        submitted,
        deduped + executed + cache_hits,
        "every submission is exactly one of executed/deduped/cache-hit"
    );
    assert_eq!(
        sample(&text, "hfs_job_queue_wait_ms_count"),
        executed,
        "queue-wait is observed exactly once per executed job"
    );
    assert_eq!(
        sample(&text, "hfs_job_exec_wall_ms_count"),
        executed,
        "execution-wall is observed exactly once per executed job"
    );

    // Live gauges at quiescence: nothing queued or running, our one
    // connection still open.
    assert_eq!(sample(&text, "hfs_queue_depth"), 0);
    assert_eq!(sample(&text, "hfs_jobs_in_flight"), 0);
    assert_eq!(sample(&text, "hfs_open_connections"), 1);
    assert_eq!(sample(&text, "hfs_draining"), 0);

    client.shutdown_server().expect("shutdown");
    drop(client);
    let final_stats = handle.join().expect("server thread");
    assert_eq!(final_stats.submitted, 6);
    assert_eq!(final_stats.delivered, 6);
    let _ = std::fs::remove_dir_all(&cache_dir);
}
