//! Hand-rolled (de)serialization of run results and job outcomes.
//!
//! Everything a [`RunResult`] carries — per-core stats, the Figure 7
//! stall breakdown, memory-system counters — round-trips through the
//! [`Json`] model so cached results reconstruct bit-identically.

use hfs_core::RunResult;
use hfs_cpu::CoreStats;
use hfs_mem::{BusStats, MemStats};
use hfs_sim::stats::{Breakdown, StallComponent};
use hfs_trace::{HistogramSummary, MetricsReport};

use crate::job::JobOutcome;
use crate::json::Json;

/// A cache/artifact decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "result decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn field(v: &Json, key: &str) -> Result<u64, DecodeError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| DecodeError(format!("missing u64 field `{key}`")))
}

fn breakdown_to_json(b: &Breakdown) -> Json {
    let mut pairs = vec![("busy", Json::U64(b.busy()))];
    for (c, cycles) in b.iter() {
        pairs.push((c.label(), Json::U64(cycles)));
    }
    Json::obj(pairs)
}

fn breakdown_from_json(v: &Json) -> Result<Breakdown, DecodeError> {
    let mut b = Breakdown::new();
    b.charge_busy(field(v, "busy")?);
    for c in StallComponent::ALL {
        b.charge(c, field(v, c.label())?);
    }
    Ok(b)
}

fn core_to_json(c: &CoreStats) -> Json {
    Json::obj(vec![
        ("cycles", Json::U64(c.cycles)),
        ("app_instrs", Json::U64(c.app_instrs)),
        ("comm_instrs", Json::U64(c.comm_instrs)),
        ("ozq_stalls", Json::U64(c.ozq_stalls)),
        ("stream_blocked", Json::U64(c.stream_blocked)),
        ("breakdown", breakdown_to_json(&c.breakdown)),
    ])
}

fn core_from_json(v: &Json) -> Result<CoreStats, DecodeError> {
    Ok(CoreStats {
        cycles: field(v, "cycles")?,
        app_instrs: field(v, "app_instrs")?,
        comm_instrs: field(v, "comm_instrs")?,
        ozq_stalls: field(v, "ozq_stalls")?,
        stream_blocked: field(v, "stream_blocked")?,
        breakdown: breakdown_from_json(
            v.get("breakdown")
                .ok_or_else(|| DecodeError("missing `breakdown`".into()))?,
        )?,
    })
}

fn mem_to_json(m: &MemStats) -> Json {
    Json::obj(vec![
        ("l1_hits", Json::U64(m.l1_hits)),
        ("l1_misses", Json::U64(m.l1_misses)),
        ("l2_accesses", Json::U64(m.l2_accesses)),
        ("l2_port_conflicts", Json::U64(m.l2_port_conflicts)),
        ("dram_accesses", Json::U64(m.dram_accesses)),
        ("forwards", Json::U64(m.forwards)),
        ("updates", Json::U64(m.updates)),
        (
            "bus",
            Json::obj(vec![
                ("addr_phases", Json::U64(m.bus.addr_phases)),
                ("data_transfers", Json::U64(m.bus.data_transfers)),
                ("data_busy_cycles", Json::U64(m.bus.data_busy_cycles)),
                ("ctl_delivered", Json::U64(m.bus.ctl_delivered)),
            ]),
        ),
    ])
}

fn mem_from_json(v: &Json) -> Result<MemStats, DecodeError> {
    let bus = v
        .get("bus")
        .ok_or_else(|| DecodeError("missing `bus`".into()))?;
    Ok(MemStats {
        l1_hits: field(v, "l1_hits")?,
        l1_misses: field(v, "l1_misses")?,
        l2_accesses: field(v, "l2_accesses")?,
        l2_port_conflicts: field(v, "l2_port_conflicts")?,
        dram_accesses: field(v, "dram_accesses")?,
        forwards: field(v, "forwards")?,
        // Absent in blobs cached before the protocol axis existed.
        updates: v.get("updates").and_then(Json::as_u64).unwrap_or(0),
        bus: BusStats {
            addr_phases: field(bus, "addr_phases")?,
            data_transfers: field(bus, "data_transfers")?,
            data_busy_cycles: field(bus, "data_busy_cycles")?,
            ctl_delivered: field(bus, "ctl_delivered")?,
        },
    })
}

fn summary_to_json(s: &HistogramSummary) -> Json {
    Json::obj(vec![
        ("count", Json::U64(s.count)),
        ("sum", Json::U64(s.sum)),
        ("p50", Json::U64(s.p50)),
        ("p95", Json::U64(s.p95)),
        ("p99", Json::U64(s.p99)),
    ])
}

fn summary_from_json(v: &Json) -> Result<HistogramSummary, DecodeError> {
    Ok(HistogramSummary {
        count: field(v, "count")?,
        sum: field(v, "sum")?,
        p50: field(v, "p50")?,
        p95: field(v, "p95")?,
        p99: field(v, "p99")?,
    })
}

/// Serializes a [`MetricsReport`]. Counters and histograms keep their
/// insertion order (the report's serialization contract).
pub fn metrics_to_json(m: &MetricsReport) -> Json {
    Json::obj(vec![
        ("breakdown", breakdown_to_json(&m.breakdown)),
        (
            "counters",
            Json::Obj(
                m.counters
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::U64(*v)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Obj(
                m.histograms
                    .iter()
                    .map(|(n, s)| (n.clone(), summary_to_json(s)))
                    .collect(),
            ),
        ),
    ])
}

/// Reconstructs a [`MetricsReport`] from JSON.
///
/// # Errors
///
/// [`DecodeError`] on missing or mistyped fields.
pub fn metrics_from_json(v: &Json) -> Result<MetricsReport, DecodeError> {
    let mut m = MetricsReport::new();
    m.breakdown = breakdown_from_json(
        v.get("breakdown")
            .ok_or_else(|| DecodeError("missing metrics `breakdown`".into()))?,
    )?;
    match v.get("counters") {
        Some(Json::Obj(pairs)) => {
            for (n, val) in pairs {
                let val = val
                    .as_u64()
                    .ok_or_else(|| DecodeError(format!("counter `{n}` is not a u64")))?;
                m.counter(n.clone(), val);
            }
        }
        _ => return Err(DecodeError("missing metrics `counters` object".into())),
    }
    match v.get("histograms") {
        Some(Json::Obj(pairs)) => {
            for (n, val) in pairs {
                m.histograms.push((n.clone(), summary_from_json(val)?));
            }
        }
        _ => return Err(DecodeError("missing metrics `histograms` object".into())),
    }
    Ok(m)
}

/// Serializes a [`RunResult`] to JSON. The optional `metrics` field is
/// appended last and only when present, so untraced results keep their
/// exact pre-metrics byte layout.
pub fn run_result_to_json(r: &RunResult) -> Json {
    let mut pairs = vec![
        ("design", Json::Str(r.design.clone())),
        ("cycles", Json::U64(r.cycles)),
        ("iterations", Json::U64(r.iterations)),
        (
            "cores",
            Json::Arr(r.cores.iter().map(core_to_json).collect()),
        ),
        ("mem", mem_to_json(&r.mem)),
        (
            "stream_cache",
            match r.stream_cache {
                Some((h, m, d)) => Json::Arr(vec![Json::U64(h), Json::U64(m), Json::U64(d)]),
                None => Json::Null,
            },
        ),
    ];
    if let Some(m) = &r.metrics {
        pairs.push(("metrics", metrics_to_json(m)));
    }
    Json::obj(pairs)
}

/// Reconstructs a [`RunResult`] from JSON.
///
/// # Errors
///
/// [`DecodeError`] on missing or mistyped fields.
pub fn run_result_from_json(v: &Json) -> Result<RunResult, DecodeError> {
    let cores = v
        .get("cores")
        .and_then(Json::as_arr)
        .ok_or_else(|| DecodeError("missing `cores` array".into()))?
        .iter()
        .map(core_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let sc = v
        .get("stream_cache")
        .ok_or_else(|| DecodeError("missing `stream_cache`".into()))?;
    let stream_cache = if sc.is_null() {
        None
    } else {
        let arr = sc
            .as_arr()
            .filter(|a| a.len() == 3)
            .ok_or_else(|| DecodeError("`stream_cache` must be a 3-array".into()))?;
        Some((
            arr[0]
                .as_u64()
                .ok_or_else(|| DecodeError("bad stream_cache hits".into()))?,
            arr[1]
                .as_u64()
                .ok_or_else(|| DecodeError("bad stream_cache misses".into()))?,
            arr[2]
                .as_u64()
                .ok_or_else(|| DecodeError("bad stream_cache drops".into()))?,
        ))
    };
    Ok(RunResult {
        design: v
            .get("design")
            .and_then(Json::as_str)
            .ok_or_else(|| DecodeError("missing `design`".into()))?
            .to_string(),
        cycles: field(v, "cycles")?,
        iterations: field(v, "iterations")?,
        cores,
        mem: mem_from_json(
            v.get("mem")
                .ok_or_else(|| DecodeError("missing `mem`".into()))?,
        )?,
        stream_cache,
        metrics: v
            .get("metrics")
            .map(metrics_from_json)
            .transpose()?
            .map(Box::new),
        // Not serialized: a cache hit reconstructs the numbers, not the
        // fact that some past run was checked. CI re-runs checked
        // configurations with the cache disabled.
        checked: false,
    })
}

/// Serializes a [`JobOutcome`] (the cache/artifact payload).
pub fn outcome_to_json(o: &JobOutcome) -> Json {
    match o {
        JobOutcome::Ok(r) => Json::obj(vec![
            ("status", Json::Str("ok".into())),
            ("result", run_result_to_json(r)),
        ]),
        JobOutcome::SimError(e) => Json::obj(vec![
            ("status", Json::Str("sim_error".into())),
            ("error", Json::Str(e.clone())),
        ]),
        JobOutcome::CheckFailed(e) => Json::obj(vec![
            ("status", Json::Str("check_failed".into())),
            ("error", Json::Str(e.clone())),
        ]),
        JobOutcome::Timeout { max_cycles } => Json::obj(vec![
            ("status", Json::Str("timeout".into())),
            ("max_cycles", Json::U64(*max_cycles)),
        ]),
        JobOutcome::Cancelled => Json::obj(vec![("status", Json::Str("cancelled".into()))]),
        JobOutcome::WorkerDied(e) => Json::obj(vec![
            ("status", Json::Str("worker_died".into())),
            ("error", Json::Str(e.clone())),
        ]),
    }
}

/// Reconstructs a [`JobOutcome`] from JSON.
///
/// # Errors
///
/// [`DecodeError`] on unknown status tags or malformed payloads.
pub fn outcome_from_json(v: &Json) -> Result<JobOutcome, DecodeError> {
    match v.get("status").and_then(Json::as_str) {
        Some("ok") => Ok(JobOutcome::Ok(run_result_from_json(
            v.get("result")
                .ok_or_else(|| DecodeError("missing `result`".into()))?,
        )?)),
        Some("sim_error") => Ok(JobOutcome::SimError(
            v.get("error")
                .and_then(Json::as_str)
                .ok_or_else(|| DecodeError("missing `error`".into()))?
                .to_string(),
        )),
        Some("check_failed") => Ok(JobOutcome::CheckFailed(
            v.get("error")
                .and_then(Json::as_str)
                .ok_or_else(|| DecodeError("missing `error`".into()))?
                .to_string(),
        )),
        Some("timeout") => Ok(JobOutcome::Timeout {
            max_cycles: field(v, "max_cycles")?,
        }),
        Some("cancelled") => Ok(JobOutcome::Cancelled),
        Some("worker_died") => Ok(JobOutcome::WorkerDied(
            v.get("error")
                .and_then(Json::as_str)
                .ok_or_else(|| DecodeError("missing `error`".into()))?
                .to_string(),
        )),
        other => Err(DecodeError(format!("unknown status {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_result() -> RunResult {
        let mut breakdown = Breakdown::new();
        breakdown.charge_busy(70);
        breakdown.charge(StallComponent::Bus, 20);
        breakdown.charge(StallComponent::Mem, 10);
        let core = CoreStats {
            cycles: 100,
            app_instrs: 60,
            comm_instrs: 12,
            breakdown,
            ozq_stalls: 3,
            stream_blocked: 1,
        };
        RunResult {
            design: "HEAVYWT".into(),
            cycles: 100,
            iterations: 10,
            cores: vec![core, core],
            mem: MemStats {
                l1_hits: 50,
                l1_misses: 5,
                l2_accesses: 7,
                l2_port_conflicts: 1,
                dram_accesses: 2,
                bus: BusStats {
                    addr_phases: 4,
                    data_transfers: 3,
                    data_busy_cycles: 9,
                    ctl_delivered: 6,
                },
                forwards: 0,
                updates: 0,
            },
            stream_cache: Some((11, 2, 1)),
            metrics: None,
            checked: false,
        }
    }

    fn sample_metrics() -> MetricsReport {
        let mut m = MetricsReport::new();
        m.breakdown.charge_busy(70);
        m.breakdown.charge(StallComponent::Bus, 30);
        m.counter("mem.l1_hits", 50);
        m.counter("trace.produce", 10);
        let mut h = hfs_sim::stats::Histogram::new(16);
        for v in [3u64, 3, 4, 9] {
            h.record(v);
        }
        m.histogram("consume_to_use_cycles", &h);
        m
    }

    #[test]
    fn metrics_round_trip_preserves_order_and_values() {
        let m = sample_metrics();
        let text = metrics_to_json(&m).to_string();
        let back = metrics_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
        assert_eq!(metrics_to_json(&back).to_string(), text);
        assert_eq!(back.get_counter("trace.produce"), Some(10));
        assert_eq!(back.get_histogram("consume_to_use_cycles").unwrap().p50, 3);
    }

    #[test]
    fn result_with_metrics_round_trips_and_appends_last() {
        let mut r = sample_result();
        r.metrics = Some(Box::new(sample_metrics()));
        let text = run_result_to_json(&r).to_string();
        assert!(text.ends_with("}}}"), "metrics must be the last field");
        let back = run_result_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back.metrics, r.metrics);
        // Untraced results carry no `metrics` key at all.
        let plain = run_result_to_json(&sample_result()).to_string();
        assert!(!plain.contains("\"metrics\""));
        let back = run_result_from_json(&parse(&plain).unwrap()).unwrap();
        assert_eq!(back.metrics, None);
    }

    #[test]
    fn run_result_round_trips() {
        let r = sample_result();
        let json = run_result_to_json(&r);
        let text = json.to_string();
        let back = run_result_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(run_result_to_json(&back).to_string(), text);
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(back.cores.len(), 2);
        assert_eq!(back.cores[0].breakdown, r.cores[0].breakdown);
        assert_eq!(back.mem, r.mem);
        assert_eq!(back.stream_cache, r.stream_cache);
    }

    #[test]
    fn null_stream_cache_round_trips() {
        let mut r = sample_result();
        r.stream_cache = None;
        let text = run_result_to_json(&r).to_string();
        let back = run_result_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back.stream_cache, None);
    }

    #[test]
    fn outcomes_round_trip() {
        for o in [
            JobOutcome::Ok(sample_result()),
            JobOutcome::SimError("deadlock at cycle 5: stuck".into()),
            JobOutcome::CheckFailed("machine-check: [cycle 9] bus.double_grant: x".into()),
            JobOutcome::Timeout { max_cycles: 42 },
            JobOutcome::Cancelled,
            JobOutcome::WorkerDied("worker 1 exited 3 times running this job".into()),
        ] {
            let text = outcome_to_json(&o).to_string();
            let back = outcome_from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(outcome_to_json(&back).to_string(), text);
            assert_eq!(back.status(), o.status());
        }
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        for bad in [
            "{}",
            r#"{"status":"nope"}"#,
            r#"{"status":"ok"}"#,
            r#"{"status":"timeout"}"#,
            r#"{"status":"check_failed"}"#,
            r#"{"status":"worker_died"}"#,
        ] {
            assert!(outcome_from_json(&parse(bad).unwrap()).is_err(), "{bad}");
        }
    }
}
