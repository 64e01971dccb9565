//! Determinism of the tracing subsystem: recorded event streams are
//! byte-identical across worker counts and across processes, traced
//! per-cycle core activity reproduces the Figure 7 accounting exactly,
//! and neither the disabled tracer, a recording one nor the checker
//! moves a golden cycle count.

use std::collections::{BTreeMap, BTreeSet};

use hfs::core::{CheckLevel, DesignPoint, Machine, MachineConfig};
use hfs::harness::{execute_once_with, parse, Engine, Job, Json, DEFAULT_MAX_CYCLES};
use hfs::trace::{chrome_trace_json, event_stream_text, CoreActivity, TraceEvent, Tracer};
use hfs::workloads::benchmark;

/// FNV-1a (64-bit), the same hash the harness cache keys use; hand-rolled
/// so the golden value below is reproducible anywhere.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn small_syncopti_job(label: &str) -> Job {
    let b = benchmark("fir").unwrap().with_iterations(50);
    Job::pipeline(
        label,
        b.pair,
        MachineConfig::itanium2_cmp(DesignPoint::syncopti_sc_q64()),
    )
}

fn recorded_text(job: &Job) -> String {
    let tracer = Tracer::recording();
    execute_once_with(job, &tracer).expect("small traced run succeeds");
    event_stream_text(&tracer.take_events())
}

/// The event stream for a fixed small SYNCOPTI pipeline must hash to the
/// same value in every process — this constant was produced by running
/// the test once and baking the value in, so any cross-process
/// non-determinism (map iteration order, address-dependent state) shows
/// up as a hash mismatch here.
const GOLDEN_STREAM_FNV1A: u64 = 11_251_641_512_398_589;

#[test]
fn recorded_stream_matches_the_golden_hash() {
    let text = recorded_text(&small_syncopti_job("det/fir/syncopti"));
    assert!(!text.is_empty(), "stream has events");
    assert_eq!(
        fnv1a(text.as_bytes()),
        GOLDEN_STREAM_FNV1A,
        "recorded event stream drifted from the golden hash; first lines:\n{}",
        text.lines().take(10).collect::<Vec<_>>().join("\n")
    );
}

/// Traced machines fast-forward the same windows as untraced ones, and
/// a refused attempt emits no event, so the only events of a skipped
/// cycle are the stall events the skip path emits for it: the recorded
/// stream must be byte-identical whether or not fast-forwarding is
/// enabled.
#[test]
fn recorded_stream_identical_with_and_without_fastforward() {
    let bench = benchmark("fir").unwrap().with_iterations(50);
    let cfg = MachineConfig::itanium2_cmp(DesignPoint::syncopti_sc_q64());
    let mut streams = Vec::new();
    for ff in [true, false] {
        let tracer = Tracer::recording();
        let mut m = Machine::new_pipeline(&cfg, &bench.pair).expect("machine builds");
        m.set_tracer(tracer.clone());
        m.set_fast_forward(ff);
        m.run(10_000_000).expect("traced run succeeds");
        streams.push(event_stream_text(&tracer.take_events()));
    }
    assert!(!streams[0].is_empty(), "stream has events");
    assert_eq!(
        streams[0], streams[1],
        "fast-forwarding must not change the traced event stream"
    );
}

#[test]
fn recorded_stream_identical_across_repeat_runs() {
    let a = recorded_text(&small_syncopti_job("det/a"));
    let b = recorded_text(&small_syncopti_job("det/b"));
    assert_eq!(a, b, "same job must record the same stream");
}

#[test]
fn trace_files_identical_across_worker_counts() {
    let base = std::env::temp_dir().join(format!("hfs-trace-det-{}", std::process::id()));
    let mut per_worker_bytes = Vec::new();
    for workers in [1usize, 4] {
        let dir = base.join(format!("w{workers}"));
        let engine = Engine::new(workers).with_trace_dir(dir.clone());
        let jobs: Vec<Job> = ["fir", "wc", "mcf"]
            .iter()
            .map(|n| {
                let b = benchmark(n).unwrap().with_iterations(30);
                Job::pipeline(
                    format!("det/{n}"),
                    b.pair,
                    MachineConfig::itanium2_cmp(DesignPoint::syncopti_sc_q64()),
                )
            })
            .collect();
        let batch = engine.run_batch("det", jobs);
        assert!(batch.all_ok(), "all jobs succeed at {workers} workers");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("trace dir exists")
            .map(|e| e.expect("dir entry").path())
            .collect();
        files.sort();
        assert_eq!(files.len(), 3, "one trace per executed job");
        per_worker_bytes.push(
            files
                .iter()
                .map(|p| std::fs::read(p).expect("read trace"))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(
        per_worker_bytes[0], per_worker_bytes[1],
        "trace bytes must not depend on the worker count"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn core_state_events_sum_to_the_figure7_invariant() {
    let job = small_syncopti_job("det/invariant");
    let tracer = Tracer::recording();
    let result = execute_once_with(&job, &tracer).expect("traced run succeeds");
    let mut busy: BTreeMap<u8, u64> = BTreeMap::new();
    let mut stalls: BTreeMap<u8, u64> = BTreeMap::new();
    for e in tracer.take_events() {
        if let TraceEvent::CoreState { core, state, .. } = e {
            match state {
                CoreActivity::Busy => *busy.entry(core.0).or_insert(0) += 1,
                CoreActivity::Stall(_) => *stalls.entry(core.0).or_insert(0) += 1,
            }
        }
    }
    for (i, stats) in result.cores.iter().enumerate() {
        let id = u8::try_from(i).unwrap();
        let b = busy.get(&id).copied().unwrap_or(0);
        let s = stalls.get(&id).copied().unwrap_or(0);
        assert_eq!(b, stats.breakdown.busy(), "core {i}: busy events");
        assert_eq!(s, stats.breakdown.stall_total(), "core {i}: stall events");
        assert_eq!(b + s, stats.cycles, "core {i}: busy + stalls == cycles");
    }
}

/// Six benchmark × design points at 300 iterations on the baseline
/// machine, with the cycle counts they had before the tracing subsystem
/// existed.
fn golden_cycles() -> [(&'static str, DesignPoint, u64); 6] {
    [
        ("fir", DesignPoint::existing(), 5433),
        ("mcf", DesignPoint::existing(), 28349),
        ("fir", DesignPoint::syncopti_sc_q64(), 3819),
        ("mcf", DesignPoint::syncopti_sc_q64(), 14400),
        ("fir", DesignPoint::heavywt(), 3590),
        ("mcf", DesignPoint::heavywt(), 14010),
    ]
}

/// The disabled tracer perturbs no simulation, and neither does the
/// machine checker at its fullest level.
#[test]
fn golden_cycles_hold_unchecked_and_fully_checked() {
    for (bench, design, cycles) in golden_cycles() {
        let b = benchmark(bench).unwrap().with_iterations(300);
        let cfg = MachineConfig::itanium2_cmp(design);
        for level in [CheckLevel::Off, CheckLevel::Full] {
            let mut m = Machine::new_pipeline(&cfg, &b.pair).expect("machine builds");
            m.set_check_level(level);
            let r = m.run(DEFAULT_MAX_CYCLES).expect("golden point runs");
            assert_eq!(r.cycles, cycles, "{bench}/{} at {level:?}", r.design);
            assert_eq!(r.checked, level == CheckLevel::Full);
        }
    }
}

/// FNV-1a of the Chrome export of the traced golden point below: its
/// bytes are pinned, not only its shape.
const GOLDEN_CHROME_FNV1A: u64 = 12_938_183_956_942_693_348;

/// A recorded run of one golden point (fir under HEAVYWT) keeps its
/// cycle count, reports consume-to-use samples, and exports a Chrome
/// document, with the golden bytes, in which every declared track
/// carries events.
#[test]
fn traced_golden_point_keeps_its_cycles_and_exports_every_track() {
    let b = benchmark("fir").unwrap().with_iterations(300);
    let job = Job::pipeline(
        "trace/fir/HEAVYWT",
        b.pair,
        MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
    );
    let tracer = Tracer::recording();
    let r = execute_once_with(&job, &tracer).expect("traced run succeeds");
    assert_eq!(r.cycles, 3590, "traced run matches its untraced golden");
    let metrics = r.metrics.as_ref().expect("traced run carries metrics");
    assert!(metrics.get_counter("trace.produce").unwrap_or(0) > 0);
    let c2u = metrics
        .get_histogram("consume_to_use_cycles")
        .expect("metrics include the consume-to-use histogram");
    assert!(c2u.count > 0, "consume-to-use histogram has samples");

    let json = chrome_trace_json(&tracer.take_events());
    assert!(json.starts_with("{\"traceEvents\":["), "chrome envelope");
    assert_eq!(
        fnv1a(json.as_bytes()),
        GOLDEN_CHROME_FNV1A,
        "the Chrome export drifted from its golden bytes"
    );
    let doc = parse(&json).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("trace has a traceEvents array");
    let mut tracks = BTreeSet::new();
    let mut populated = BTreeSet::new();
    for e in events {
        let tid = e.get("tid").and_then(Json::as_u64).expect("event tid");
        if e.get("ph").and_then(Json::as_str) == Some("M") {
            tracks.insert(tid);
        } else {
            populated.insert(tid);
        }
    }
    assert!(!tracks.is_empty(), "trace declares named tracks");
    assert!(
        tracks.is_subset(&populated),
        "tracks without events: {:?}",
        tracks.difference(&populated).collect::<Vec<_>>()
    );
}
