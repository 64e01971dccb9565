//! Hand-rolled (de)serialization of run results and job outcomes.
//!
//! Everything a [`RunResult`] carries — per-core stats, the Figure 7
//! stall breakdown, memory-system counters — round-trips exactly, so
//! cached results reconstruct bit-identically. The stats records are
//! one field list each ([`wire!`](crate::wire!)); the breakdown, the
//! run result, the metrics report and the outcome are written by hand
//! (keys that are data, a member present only when set, a tag). All
//! run straight to and from text: the caches store [`outcome_to_text`]
//! and read [`outcome_from_text`], frames push [`write_outcome`] and
//! pull [`read_outcome`], and `all_figures` prints [`write_metrics`].

use hfs_core::RunResult;
use hfs_cpu::CoreStats;
use hfs_mem::{BusStats, MemStats};
use hfs_sim::stats::{Breakdown, StallComponent};
use hfs_trace::{HistogramSummary, MetricsReport};

use crate::job::JobOutcome;
pub use crate::json::DecodeError;
use crate::json::{from_text, parse, to_text, Json, Sink, Source};
use crate::wire::{field, Wire};

impl Wire for Breakdown {
    fn write<S: Sink>(&self, s: &mut S) {
        s.begin_obj();
        s.u64_field("busy", self.busy());
        for (c, cycles) in self.iter() {
            s.u64_field(c.label(), cycles);
        }
        s.end_obj();
    }

    fn read<'a, S: Source<'a>>(s: &mut S) -> Result<Breakdown, DecodeError> {
        s.obj(|s, o| {
            let mut b = Breakdown::new();
            b.charge_busy(s.u64_field(o, "busy")?);
            for c in StallComponent::ALL {
                b.charge(c, s.u64_field(o, c.label())?);
            }
            Ok(b)
        })
    }
}

crate::wire! {
    CoreStats { cycles, app_instrs, comm_instrs, ozq_stalls, stream_blocked, breakdown }
    BusStats { addr_phases, data_transfers, data_busy_cycles, ctl_delivered }
    // `updates` is absent in blobs cached before the protocol axis existed.
    MemStats {
        l1_hits, l1_misses, l2_accesses, l2_port_conflicts, dram_accesses, forwards,
        updates = 0, bus,
    }
    HistogramSummary { count, sum, p50, p95, p99 }
}

/// Pushes a [`MetricsReport`] into `s`. Counters and histograms keep
/// their insertion order (the report's serialization contract).
pub fn write_metrics<S: Sink>(s: &mut S, m: &MetricsReport) {
    s.begin_obj();
    s.key("breakdown");
    m.breakdown.write(s);
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
        h.write(s);
    }
    s.end_obj();
    s.end_obj();
}

fn read_metrics<'a, S: Source<'a>>(s: &mut S) -> Result<MetricsReport, DecodeError> {
    s.obj(|s, o| {
        let mut m = MetricsReport::new();
        m.breakdown = field(s, o, "breakdown", None)?;
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
                    m.histograms
                        .push((name.into_owned(), HistogramSummary::read(s)?));
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
    s.arr_field("cores", &r.cores, |s, c| c.write(s));
    s.key("mem");
    r.mem.write(s);
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
            cores: field(s, o, "cores", None)?,
            mem: field(s, o, "mem", None)?,
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

/// An outcome as a [`Json`] tree, through the text driver. Kept for
/// `benchmark/`, whose codec rows still time it; product code runs
/// [`outcome_to_text`].
pub fn outcome_to_json(o: &JobOutcome) -> Json {
    parse(&outcome_to_text(o)).expect("the text driver writes JSON")
}

/// An outcome back out of a [`Json`] tree, through the text driver.
/// Kept for `benchmark/`, like [`outcome_to_json`].
///
/// # Errors
///
/// As [`outcome_from_text`].
pub fn outcome_from_json(v: &Json) -> Result<JobOutcome, DecodeError> {
    outcome_from_text(&v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_text(m: &MetricsReport) -> String {
        to_text(false, |w| write_metrics(w, m))
    }

    fn result_text(r: &RunResult) -> String {
        to_text(false, |w| write_run_result(w, r))
    }

    fn read_result(text: &str) -> RunResult {
        from_text(text, read_run_result).unwrap()
    }

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
        let text = metrics_text(&m);
        let back = from_text(&text, read_metrics).unwrap();
        assert_eq!(back, m);
        assert_eq!(metrics_text(&back), text);
        assert_eq!(back.get_counter("trace.produce"), Some(10));
        assert_eq!(back.get_histogram("consume_to_use_cycles").unwrap().p50, 3);
    }

    #[test]
    fn result_with_metrics_round_trips_and_appends_last() {
        let mut r = sample_result();
        r.metrics = Some(Box::new(sample_metrics()));
        let text = result_text(&r);
        assert!(text.ends_with("}}}"), "metrics must be the last field");
        assert_eq!(read_result(&text).metrics, r.metrics);
        // Untraced results carry no `metrics` key at all.
        let plain = result_text(&sample_result());
        assert!(!plain.contains("\"metrics\""));
        assert_eq!(read_result(&plain).metrics, None);
    }

    #[test]
    fn run_result_round_trips() {
        let r = sample_result();
        let text = result_text(&r);
        let back = read_result(&text);
        assert_eq!(result_text(&back), text);
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
        assert_eq!(read_result(&result_text(&r)).stream_cache, None);
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
            let text = outcome_to_text(&o);
            let back = outcome_from_text(&text).unwrap();
            assert_eq!(outcome_to_text(&back), text);
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
            assert!(outcome_from_text(bad).is_err(), "{bad}");
        }
    }
}
