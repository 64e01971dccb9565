//! Hand-rolled (de)serialization of run results and job outcomes.
//!
//! Everything a [`RunResult`] carries — per-core stats, the Figure 7
//! stall breakdown, memory-system counters — round-trips exactly, so
//! cached results reconstruct bit-identically. Each type is described
//! once, as a `write_*`/`read_*` pair over [`Sink`]/[`Source`]: the
//! cache and the wire run them straight to and from text
//! ([`outcome_to_text`], [`outcome_from_text`], [`write_outcome`],
//! [`read_outcome`]), and the `*_to_json`/`*_from_json` entry points run
//! the same pair to and from a [`Json`] tree for document builders.

use hfs_core::RunResult;
use hfs_cpu::CoreStats;
use hfs_mem::{BusStats, MemStats};
use hfs_sim::stats::{Breakdown, StallComponent};
use hfs_trace::{HistogramSummary, MetricsReport};

use crate::job::JobOutcome;
pub use crate::json::DecodeError;
use crate::json::{from_text, from_tree, to_text, to_tree, Json, Sink, Source};

fn write_breakdown<S: Sink>(s: &mut S, b: &Breakdown) {
    s.begin_obj();
    s.u64_field("busy", b.busy());
    for (c, cycles) in b.iter() {
        s.u64_field(c.label(), cycles);
    }
    s.end_obj();
}

fn read_breakdown<'a, S: Source<'a>>(s: &mut S) -> Result<Breakdown, DecodeError> {
    s.obj(|s, o| {
        let mut b = Breakdown::new();
        b.charge_busy(s.u64_field(o, "busy")?);
        for c in StallComponent::ALL {
            b.charge(c, s.u64_field(o, c.label())?);
        }
        Ok(b)
    })
}

fn write_core<S: Sink>(s: &mut S, c: &CoreStats) {
    s.begin_obj();
    s.u64_field("cycles", c.cycles);
    s.u64_field("app_instrs", c.app_instrs);
    s.u64_field("comm_instrs", c.comm_instrs);
    s.u64_field("ozq_stalls", c.ozq_stalls);
    s.u64_field("stream_blocked", c.stream_blocked);
    s.key("breakdown");
    write_breakdown(s, &c.breakdown);
    s.end_obj();
}

fn read_core<'a, S: Source<'a>>(s: &mut S) -> Result<CoreStats, DecodeError> {
    s.obj(|s, o| {
        Ok(CoreStats {
            cycles: s.u64_field(o, "cycles")?,
            app_instrs: s.u64_field(o, "app_instrs")?,
            comm_instrs: s.u64_field(o, "comm_instrs")?,
            ozq_stalls: s.u64_field(o, "ozq_stalls")?,
            stream_blocked: s.u64_field(o, "stream_blocked")?,
            breakdown: s.field(o, "breakdown", read_breakdown)?,
        })
    })
}

fn write_bus<S: Sink>(s: &mut S, b: &BusStats) {
    s.begin_obj();
    s.u64_field("addr_phases", b.addr_phases);
    s.u64_field("data_transfers", b.data_transfers);
    s.u64_field("data_busy_cycles", b.data_busy_cycles);
    s.u64_field("ctl_delivered", b.ctl_delivered);
    s.end_obj();
}

fn read_bus<'a, S: Source<'a>>(s: &mut S) -> Result<BusStats, DecodeError> {
    s.obj(|s, o| {
        Ok(BusStats {
            addr_phases: s.u64_field(o, "addr_phases")?,
            data_transfers: s.u64_field(o, "data_transfers")?,
            data_busy_cycles: s.u64_field(o, "data_busy_cycles")?,
            ctl_delivered: s.u64_field(o, "ctl_delivered")?,
        })
    })
}

fn write_mem<S: Sink>(s: &mut S, m: &MemStats) {
    s.begin_obj();
    s.u64_field("l1_hits", m.l1_hits);
    s.u64_field("l1_misses", m.l1_misses);
    s.u64_field("l2_accesses", m.l2_accesses);
    s.u64_field("l2_port_conflicts", m.l2_port_conflicts);
    s.u64_field("dram_accesses", m.dram_accesses);
    s.u64_field("forwards", m.forwards);
    s.u64_field("updates", m.updates);
    s.key("bus");
    write_bus(s, &m.bus);
    s.end_obj();
}

fn read_mem<'a, S: Source<'a>>(s: &mut S) -> Result<MemStats, DecodeError> {
    s.obj(|s, o| {
        Ok(MemStats {
            l1_hits: s.u64_field(o, "l1_hits")?,
            l1_misses: s.u64_field(o, "l1_misses")?,
            l2_accesses: s.u64_field(o, "l2_accesses")?,
            l2_port_conflicts: s.u64_field(o, "l2_port_conflicts")?,
            dram_accesses: s.u64_field(o, "dram_accesses")?,
            forwards: s.u64_field(o, "forwards")?,
            // Absent in blobs cached before the protocol axis existed.
            updates: if s.seek(o, "updates")? { s.u64()? } else { 0 },
            bus: s.field(o, "bus", read_bus)?,
        })
    })
}

fn write_summary<S: Sink>(s: &mut S, h: &HistogramSummary) {
    s.begin_obj();
    s.u64_field("count", h.count);
    s.u64_field("sum", h.sum);
    s.u64_field("p50", h.p50);
    s.u64_field("p95", h.p95);
    s.u64_field("p99", h.p99);
    s.end_obj();
}

fn read_summary<'a, S: Source<'a>>(s: &mut S) -> Result<HistogramSummary, DecodeError> {
    s.obj(|s, o| {
        Ok(HistogramSummary {
            count: s.u64_field(o, "count")?,
            sum: s.u64_field(o, "sum")?,
            p50: s.u64_field(o, "p50")?,
            p95: s.u64_field(o, "p95")?,
            p99: s.u64_field(o, "p99")?,
        })
    })
}

/// Counters and histograms keep their insertion order (the report's
/// serialization contract).
fn write_metrics<S: Sink>(s: &mut S, m: &MetricsReport) {
    s.begin_obj();
    s.key("breakdown");
    write_breakdown(s, &m.breakdown);
    s.key("counters");
    s.begin_obj();
    for (name, v) in &m.counters {
        s.u64_field(name, *v);
    }
    s.end_obj();
    s.key("histograms");
    s.begin_obj();
    for (name, h) in &m.histograms {
        s.key(name);
        write_summary(s, h);
    }
    s.end_obj();
    s.end_obj();
}

fn read_metrics<'a, S: Source<'a>>(s: &mut S) -> Result<MetricsReport, DecodeError> {
    s.obj(|s, o| {
        let mut m = MetricsReport::new();
        m.breakdown = s.field(o, "breakdown", read_breakdown)?;
        s.field(o, "counters", |s| {
            s.obj(|s, entries| {
                while let Some(name) = s.next_entry(entries)? {
                    m.counter(name, s.u64()?);
                }
                Ok::<_, DecodeError>(())
            })
        })?;
        s.field(o, "histograms", |s| {
            s.obj(|s, entries| {
                while let Some(name) = s.next_entry(entries)? {
                    m.histograms.push((name.into_owned(), read_summary(s)?));
                }
                Ok::<_, DecodeError>(())
            })
        })?;
        Ok(m)
    })
}

/// The optional `metrics` field is appended last and only when present,
/// so untraced results keep their exact pre-metrics byte layout.
fn write_run_result<S: Sink>(s: &mut S, r: &RunResult) {
    s.begin_obj();
    s.str_field("design", &r.design);
    s.u64_field("cycles", r.cycles);
    s.u64_field("iterations", r.iterations);
    s.arr_field("cores", &r.cores, write_core);
    s.key("mem");
    write_mem(s, &r.mem);
    match r.stream_cache {
        Some((hits, misses, drops)) => s.arr_field("stream_cache", [hits, misses, drops], S::u64),
        None => {
            s.key("stream_cache");
            s.null();
        }
    }
    if let Some(m) = &r.metrics {
        s.key("metrics");
        write_metrics(s, m);
    }
    s.end_obj();
}

fn read_run_result<'a, S: Source<'a>>(s: &mut S) -> Result<RunResult, DecodeError> {
    s.obj(|s, o| {
        Ok(RunResult {
            design: s.str_field(o, "design")?.into_owned(),
            cycles: s.u64_field(o, "cycles")?,
            iterations: s.u64_field(o, "iterations")?,
            cores: s.arr_field(o, "cores", read_core)?,
            mem: s.field(o, "mem", read_mem)?,
            stream_cache: s.field(o, "stream_cache", |s| {
                if s.null()? {
                    return Ok(None);
                }
                match s.items(S::u64)?[..] {
                    [hits, misses, drops] => Ok(Some((hits, misses, drops))),
                    _ => Err(DecodeError::Shape(
                        "`stream_cache` must be a 3-array".into(),
                    )),
                }
            })?,
            metrics: if s.seek(o, "metrics")? {
                Some(Box::new(read_metrics(s)?))
            } else {
                None
            },
            // Not serialized: a cache hit reconstructs the numbers, not
            // the fact that some past run was checked. CI re-runs
            // checked configurations with the cache disabled.
            checked: false,
        })
    })
}

/// Pushes a [`JobOutcome`] (the cache/artifact/wire payload) into `s`.
pub fn write_outcome<S: Sink>(s: &mut S, o: &JobOutcome) {
    s.begin_obj();
    s.str_field("status", o.status());
    match o {
        JobOutcome::Ok(r) => {
            s.key("result");
            write_run_result(s, r);
        }
        JobOutcome::SimError(e) | JobOutcome::CheckFailed(e) | JobOutcome::WorkerDied(e) => {
            s.str_field("error", e);
        }
        JobOutcome::Timeout { max_cycles } => s.u64_field("max_cycles", *max_cycles),
        JobOutcome::Cancelled => {}
    }
    s.end_obj();
}

/// Pulls a [`JobOutcome`] out of `s`.
///
/// # Errors
///
/// [`DecodeError`] on unknown status tags or malformed payloads.
pub fn read_outcome<'a, S: Source<'a>>(s: &mut S) -> Result<JobOutcome, DecodeError> {
    s.obj(|s, o| {
        let status = s.str_field(o, "status")?;
        Ok(match &*status {
            "ok" => JobOutcome::Ok(s.field(o, "result", read_run_result)?),
            "sim_error" | "check_failed" | "worker_died" => {
                let error = s.str_field(o, "error")?.into_owned();
                match &*status {
                    "sim_error" => JobOutcome::SimError(error),
                    "check_failed" => JobOutcome::CheckFailed(error),
                    _ => JobOutcome::WorkerDied(error),
                }
            }
            "timeout" => JobOutcome::Timeout {
                max_cycles: s.u64_field(o, "max_cycles")?,
            },
            "cancelled" => JobOutcome::Cancelled,
            other => return Err(DecodeError::Shape(format!("unknown status {other:?}"))),
        })
    })
}

/// The text the caches store for an outcome and result frames splice:
/// compact, so that what is copied, sent and parsed per warm job holds
/// no indentation. Artifacts re-encode the outcome pretty.
pub fn outcome_to_text(o: &JobOutcome) -> String {
    to_text(false, |w| write_outcome(w, o))
}

/// Decodes an outcome straight from its text, no tree between.
///
/// # Errors
///
/// [`DecodeError`] on malformed JSON or a malformed payload.
pub fn outcome_from_text(text: &str) -> Result<JobOutcome, DecodeError> {
    from_text(text, read_outcome)
}

/// Serializes a [`MetricsReport`].
pub fn metrics_to_json(m: &MetricsReport) -> Json {
    to_tree(|s| write_metrics(s, m))
}

/// Reconstructs a [`MetricsReport`] from JSON.
///
/// # Errors
///
/// [`DecodeError`] on missing or mistyped fields.
pub fn metrics_from_json(v: &Json) -> Result<MetricsReport, DecodeError> {
    from_tree(v, read_metrics)
}

/// Serializes a [`RunResult`] to JSON.
pub fn run_result_to_json(r: &RunResult) -> Json {
    to_tree(|s| write_run_result(s, r))
}

/// Reconstructs a [`RunResult`] from JSON.
///
/// # Errors
///
/// [`DecodeError`] on missing or mistyped fields.
pub fn run_result_from_json(v: &Json) -> Result<RunResult, DecodeError> {
    from_tree(v, read_run_result)
}

/// Serializes a [`JobOutcome`] (the cache/artifact payload).
pub fn outcome_to_json(o: &JobOutcome) -> Json {
    to_tree(|s| write_outcome(s, o))
}

/// Reconstructs a [`JobOutcome`] from JSON.
///
/// # Errors
///
/// [`DecodeError`] on unknown status tags or malformed payloads.
pub fn outcome_from_json(v: &Json) -> Result<JobOutcome, DecodeError> {
    from_tree(v, read_outcome)
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
