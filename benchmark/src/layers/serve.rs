//! `hfs-serve`: frames on in-memory buffers, then a live server — ping,
//! a cold and a warm slice of the sweep on the batched path, the legacy
//! single-frame path, process workers — with the server's own counters
//! and histograms read through `Client::stats`/`metrics`.

use std::hint::black_box;
use std::sync::Arc;

use hfs_harness::Job;
use hfs_serve::{ClientFrame, JobRef, JobResult, ServerFrame, Subscribe};

use crate::inputs::sweep_jobs;
use crate::layers::harness::{SweepSlice, SLICE_JOBS};
use crate::layers::{low_of, ns_per_op, timed, Ctx, Ledger};
use crate::workloads::sweep::{identity_holds, Caching, LiveServer, WORKERS};

/// Jobs in the live-server phases.
const LIVE_JOBS: usize = 1_000;

/// Microseconds to run `f` once, low quantile of nine.
fn low_us(mut f: impl FnMut()) -> f64 {
    low_of(9, || timed(&mut f).0) * 1e6
}

/// The median (`quantile="0.5"`) of summary `name` in Prometheus text.
fn prometheus_p50(text: &str, name: &str) -> Option<f64> {
    let prefix = format!("{name}{{quantile=\"0.5\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .and_then(|v| v.trim().parse().ok())
}

/// Frame encode/decode on in-memory buffers, one client chunk.
fn frames(slice: &SweepSlice, l: &mut Ledger) {
    let SweepSlice {
        jobs,
        keys,
        outcomes,
        texts,
    } = slice;
    let n = SLICE_JOBS as u64;

    let batch = ClientFrame::SubmitBatch {
        experiment: "sweep".to_string(),
        id: 1,
        subscribe: Subscribe::Final,
        jobs: jobs.clone(),
    };
    let refs = ClientFrame::SubmitRefs {
        experiment: "sweep".to_string(),
        id: 1,
        subscribe: Subscribe::Final,
        refs: jobs
            .iter()
            .zip(keys)
            .map(|(j, key)| JobRef {
                key: key.clone(),
                label: j.label.clone(),
            })
            .collect(),
    };
    // The warm path's reply: cached serializations spliced in verbatim.
    let results = ServerFrame::BatchResults {
        experiment: "sweep".to_string(),
        id: 1,
        results: (0..jobs.len())
            .map(|i| JobResult {
                index: i as u64,
                label: jobs[i].label.clone(),
                key: keys[i].clone(),
                cached: true,
                outcome: outcomes[i].clone(),
                encoded: Some(Arc::from(texts[i].as_str())),
            })
            .collect(),
    };

    let mut up = Vec::new();
    let mut down = Vec::new();
    let mut buf = Vec::new();
    let mut encode = |write: &dyn Fn(&mut Vec<u8>)| {
        low_us(|| {
            buf.clear();
            write(&mut buf);
        })
    };
    l.put(
        "serve.frame_encode_us.submit_batch",
        encode(&|b| batch.write_to(b).expect("in-memory write")),
        n,
    );
    l.put(
        "serve.frame_encode_us.submit_refs",
        encode(&|b| refs.write_to(b).expect("in-memory write")),
        n,
    );
    l.put(
        "serve.frame_encode_us.batch_results",
        encode(&|b| results.write_to(b).expect("in-memory write")),
        n,
    );
    batch.write_to(&mut up).expect("in-memory write");
    results.write_to(&mut down).expect("in-memory write");
    l.put(
        "serve.frame_decode_us.submit_batch",
        low_us(|| {
            black_box(ClientFrame::read_from(&mut up.as_slice()).expect("frame decodes"));
        }),
        n,
    );
    l.put(
        "serve.frame_decode_us.batch_results",
        low_us(|| {
            black_box(ServerFrame::read_from(&mut down.as_slice()).expect("frame decodes"));
        }),
        n,
    );
    l.put("serve.wire_bytes_per_job.up", up.len() as f64 / n as f64, n);
    l.put(
        "serve.wire_bytes_per_job.down",
        down.len() as f64 / n as f64,
        n,
    );
}

/// The `serve.*` rows and `obs.exposition_us`.
pub fn measure(ctx: &Ctx, slice: &SweepSlice, l: &mut Ledger) {
    frames(slice, l);
    let jobs = || -> Vec<Job> { sweep_jobs(ctx.seed, LIVE_JOBS) };
    let n = LIVE_JOBS as u64;
    let dir = ctx.dir.join("layer_serve");
    let fresh_dir = || {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the layer server's directory");
    };

    fresh_dir();
    let (start_s, mut server) = timed(|| LiveServer::start(&dir, 0, Caching::Disk));
    l.put("serve.server_start_ms", start_s * 1e3, 1);
    let (ns, pings) = ns_per_op(16, || server.client.ping().expect("pong"));
    l.put("serve.ping_rtt_us", ns / 1e3, pings);

    let submit = |server: &mut LiveServer, jobs: Vec<Job>| {
        server
            .client
            .submit_batched("sweep", jobs, Subscribe::Final, |_| {})
    };
    let (cold_s, cold) = timed(|| submit(&mut server, jobs()));
    let after_cold = server.client.stats().expect("stats");
    let (_, warm) = timed(|| submit(&mut server, jobs()));
    let after_warm = server.client.stats().expect("stats");
    let (legacy_s, legacy) = timed(|| server.client.submit("sweep", jobs(), |_| {}));
    let (expo_s, text) = timed(|| server.client.metrics().expect("metrics"));
    let last = server.client.stats().expect("stats");
    let (drain_s, fin) = timed(|| server.stop());

    let all_ok = |b: &Result<hfs_harness::Batch, hfs_serve::ClientError>| {
        b.as_ref()
            .is_ok_and(|b| b.records.len() == LIVE_JOBS && b.all_ok())
    };
    l.check(all_ok(&cold), "the cold slice did not resolve");
    l.check(
        all_ok(&warm) && warm.as_ref().is_ok_and(hfs_harness::Batch::all_cached),
        "the warm slice was not served from cache",
    );
    l.check(all_ok(&legacy), "the legacy submission did not resolve");
    l.check(
        identity_holds(&after_cold) && identity_holds(&after_warm) && identity_holds(&fin),
        "submitted != deduped + executed + cache_hits",
    );
    l.check(
        after_warm.executed == after_cold.executed && fin.executed == n,
        "a warm phase executed jobs",
    );

    l.put("serve.legacy_submit_jobs_per_s", n as f64 / legacy_s, n);
    l.put(
        "serve.queue_wait_ms_p50",
        prometheus_p50(&text, "hfs_job_queue_wait_ms").unwrap_or(0.0),
        after_cold.executed,
    );
    l.put(
        "serve.refs_hit_ratio",
        (after_warm.cache_hits - after_cold.cache_hits) as f64
            / (after_warm.submitted - after_cold.submitted) as f64,
        n,
    );
    l.put("serve.busy_rejects", last.rejected as f64, last.submitted);
    l.put("serve.submitted", last.submitted as f64, last.submitted);
    l.put("serve.executed", last.executed as f64, last.submitted);
    l.put("serve.deduped", last.deduped as f64, last.submitted);
    l.put("serve.cache_hits", last.cache_hits as f64, last.submitted);
    l.put("serve.drain_ms", drain_s * 1e3, 1);
    l.put("obs.exposition_us", expo_s * 1e6, 1);

    // The same cold slice on worker processes (this binary, re-executed
    // with `--worker`) against as many worker threads, each on a fresh
    // server and cache, alternating; the faster of two passes a side.
    let cold_slice = |process_workers: usize, l: &mut Ledger| {
        fresh_dir();
        let mut server = LiveServer::start(&dir, process_workers, Caching::Disk);
        let (secs, batch) = timed(|| submit(&mut server, jobs()));
        let fin = server.stop();
        l.check(
            all_ok(&batch) && identity_holds(&fin) && fin.executed == n,
            "a cold slice on a fresh server did not resolve",
        );
        secs
    };
    let (mut by_threads, mut by_procs) = (cold_s, f64::INFINITY);
    for _ in 0..2 {
        by_procs = by_procs.min(cold_slice(WORKERS, l));
        by_threads = by_threads.min(cold_slice(0, l));
    }
    l.put(
        "serve.proc_worker_us_per_job",
        (by_procs - by_threads) * 1e6 / n as f64,
        2 * n,
    );
}
