//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Every record is written through [`hfs_sim::json::Writer`], one record
//! a line. One match per event decides the track the event lands on and
//! what it writes; the tracks declared up front (`thread_name` metadata)
//! are exactly the ones written to.
//!
//! Track layout (all under `pid` 0):
//!
//! * `tid` 0..N — one track per core, carrying coalesced Busy/Stall
//!   duration spans plus cache-access, produce/consume, sync-wait and
//!   OzQ-recirculation instants;
//! * `tid` 100 — the shared bus: grant instants, data-phase occupancy
//!   spans, and write-forward instants;
//! * `tid` 200+q — one track per queue `q`: produce→consume latency
//!   spans, stream-cache instants, and an occupancy counter series.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};

use hfs_isa::{CoreId, QueueId};
use hfs_sim::json::{to_text, Sink, Writer};

use crate::event::{CoreActivity, TraceEvent};

/// Bus track id.
const BUS_TID: u64 = 100;
/// First queue track id (queue `q` lands on `QUEUE_TID_BASE + q`).
const QUEUE_TID_BASE: u64 = 200;

/// A record's Chrome phase (`ph`), with what it carries after its
/// common fields.
enum Ph<'a> {
    /// A thread-scoped instant.
    Instant,
    /// A duration span of this many cycles.
    Span(u64),
    /// One sample of a counter series.
    Counter(&'a str, u64),
    /// A track's display name (metadata).
    Name(&'a str),
}

/// Writes one record: `name`, `ph`, `pid`, `tid`, `ts`, then what `ph`
/// carries.
fn record(out: &mut String, name: &str, tid: u64, ts: u64, ph: Ph<'_>) {
    let code = match ph {
        Ph::Instant => "i",
        Ph::Span(_) => "X",
        Ph::Counter(..) => "C",
        Ph::Name(_) => "M",
    };
    let mut w = Writer::new(out, false);
    w.begin_obj();
    w.str_field("name", name);
    w.str_field("ph", code);
    w.u64_field("pid", 0);
    w.u64_field("tid", tid);
    w.u64_field("ts", ts);
    match ph {
        Ph::Instant => w.str_field("s", "t"),
        Ph::Span(dur) => w.u64_field("dur", dur),
        Ph::Counter(series, v) => {
            w.key("args");
            w.begin_obj();
            w.u64_field(series, v);
            w.end_obj();
        }
        Ph::Name(track) => {
            w.key("args");
            w.begin_obj();
            w.str_field("name", track);
            w.end_obj();
        }
    }
    w.end_obj();
}

/// The event records written so far, one a line, and their tracks.
#[derive(Default)]
struct Body {
    text: String,
    tids: BTreeSet<u64>,
    /// The record being written's name, formatted once per record.
    name: String,
}

impl Body {
    fn push(&mut self, tid: u64, ts: u64, ph: Ph<'_>, name: fmt::Arguments<'_>) {
        if !self.text.is_empty() {
            self.text.push_str(",\n");
        }
        self.tids.insert(tid);
        self.name.clear();
        let _ = self.name.write_fmt(name);
        record(&mut self.text, &self.name, tid, ts, ph);
    }
}

/// Renders a recorded event stream as a complete Chrome trace-event JSON
/// document (`{"traceEvents":[...]}`).
///
/// Timestamps are simulated cycles (1 "µs" per cycle in the viewer).
/// Per-cycle [`TraceEvent::CoreState`] samples are coalesced into
/// duration spans; [`TraceEvent::Issue`] events are metrics-only and not
/// rendered. Output is byte-deterministic for a given event stream.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut body = Body::default();
    // Per core, the open run of one state: (state, first cycle, last
    // cycle). Per (queue, seq), the open produce, matched on consume.
    let mut runs: BTreeMap<u8, (CoreActivity, u64, u64)> = BTreeMap::new();
    let mut open: BTreeMap<(u16, u64), u64> = BTreeMap::new();
    let span = |body: &mut Body, core: u8, (state, start, end): (CoreActivity, u64, u64)| {
        let (tid, dur) = (u64::from(core), Ph::Span(end - start + 1));
        body.push(tid, start, dur, format_args!("{}", state.label()));
    };
    let core_tid = |c: CoreId| u64::from(c.0);
    let queue_tid = |q: QueueId| QUEUE_TID_BASE + u64::from(q.0);
    for e in events {
        match *e {
            TraceEvent::CoreState { core, at, state } => match runs.get_mut(&core.0) {
                Some((s, _, end)) if *s == state && at == *end + 1 => *end = at,
                _ => {
                    if let Some(done) = runs.insert(core.0, (state, at, at)) {
                        span(&mut body, core.0, done);
                    }
                }
            },
            TraceEvent::Issue { .. } => {}
            TraceEvent::CacheAccess {
                core,
                at,
                level,
                hit,
            } => {
                let outcome = if hit { "hit" } else { "miss" };
                let name = format_args!("{} {outcome}", level.label());
                body.push(core_tid(core), at, Ph::Instant, name);
            }
            TraceEvent::BusGrant {
                core,
                at,
                streaming,
            } => {
                let mode = if streaming { " (stream)" } else { "" };
                let name = format_args!("grant core{}{mode}", core.0);
                body.push(BUS_TID, at, Ph::Instant, name);
            }
            TraceEvent::BusData { at, cycles } => {
                body.push(BUS_TID, at, Ph::Span(cycles.max(1)), format_args!("data"))
            }
            TraceEvent::OzqRecirc { core, at } => {
                body.push(core_tid(core), at, Ph::Instant, format_args!("ozq-recirc"))
            }
            TraceEvent::Produce {
                core,
                queue,
                seq,
                at,
            } => {
                open.insert((queue.0, seq), at);
                let name = format_args!("produce {queue}#{seq}");
                body.push(core_tid(core), at, Ph::Instant, name);
            }
            TraceEvent::Consume {
                core,
                queue,
                seq,
                at,
            } => {
                if let Some(start) = open.remove(&(queue.0, seq)) {
                    let dur = at.saturating_sub(start).max(1);
                    let name = format_args!("{queue}#{seq}");
                    body.push(queue_tid(queue), start, Ph::Span(dur), name);
                }
                let name = format_args!("consume {queue}#{seq}");
                body.push(core_tid(core), at, Ph::Instant, name);
            }
            TraceEvent::QueueDepth { queue, at, depth } => {
                let name = format_args!("{queue} depth");
                body.push(queue_tid(queue), at, Ph::Counter("depth", depth), name);
            }
            TraceEvent::SyncWait { core, queue, at } => body.push(
                core_tid(core),
                at,
                Ph::Instant,
                format_args!("wait {queue}"),
            ),
            TraceEvent::ScFill { queue, at } => {
                body.push(queue_tid(queue), at, Ph::Instant, format_args!("sc-fill"))
            }
            TraceEvent::ScHit { queue, at } => {
                body.push(queue_tid(queue), at, Ph::Instant, format_args!("sc-hit"))
            }
            TraceEvent::Forward { at, line } => body.push(
                BUS_TID,
                at,
                Ph::Instant,
                format_args!("forward line {line}"),
            ),
        }
    }
    for (core, run) in runs {
        span(&mut body, core, run);
    }

    // Track names first, in tid order: cores, the bus, then queues. A
    // compact `Writer` breaks no lines, so the separators between
    // records, one a line, and the document's close are pushed here;
    // each name is followed by a record, as every named track has one.
    let mut doc = to_text(false, |w| {
        w.begin_obj();
        w.key("traceEvents");
        w.begin_arr();
    });
    doc.push('\n');
    for &tid in &body.tids {
        let track = match tid {
            BUS_TID => "bus".to_string(),
            t if t > BUS_TID => format!("q{}", t - QUEUE_TID_BASE),
            t => format!("core{t}"),
        };
        record(&mut doc, "thread_name", tid, 0, Ph::Name(&track));
        doc.push_str(",\n");
    }
    doc.push_str(&body.text);
    doc.push_str("\n]}\n");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_sim::stats::StallComponent;

    #[test]
    fn coalesces_core_state_runs() {
        let events = vec![
            TraceEvent::CoreState {
                core: CoreId(0),
                at: 0,
                state: CoreActivity::Busy,
            },
            TraceEvent::CoreState {
                core: CoreId(0),
                at: 1,
                state: CoreActivity::Busy,
            },
            TraceEvent::CoreState {
                core: CoreId(0),
                at: 2,
                state: CoreActivity::Stall(StallComponent::Bus),
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"name\":\"Busy\""));
        assert!(json.contains("\"dur\":2"));
        assert!(json.contains("\"name\":\"Stall:BUS\""));
        // One metadata + two spans.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn produce_consume_becomes_a_queue_span() {
        let events = vec![
            TraceEvent::Produce {
                core: CoreId(0),
                queue: QueueId(3),
                seq: 5,
                at: 10,
            },
            TraceEvent::Consume {
                core: CoreId(1),
                queue: QueueId(3),
                seq: 5,
                at: 25,
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"name\":\"q3#5\",\"ph\":\"X\""));
        assert!(json.contains("\"tid\":203"));
        assert!(json.contains("\"dur\":15"));
        // Track names for both cores and the queue.
        assert!(json.contains("\"name\":\"core0\""));
        assert!(json.contains("\"name\":\"core1\""));
        assert!(json.contains("\"name\":\"q3\""));
    }

    #[test]
    fn counter_and_bus_events_render() {
        let events = vec![
            TraceEvent::QueueDepth {
                queue: QueueId(0),
                at: 4,
                depth: 7,
            },
            TraceEvent::BusData { at: 6, cycles: 8 },
            TraceEvent::BusGrant {
                core: CoreId(1),
                at: 5,
                streaming: true,
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("{\"depth\":7}"));
        assert!(json.contains("\"name\":\"data\""));
        assert!(json.contains("grant core1 (stream)"));
        assert!(json.contains("\"name\":\"bus\""));
    }

    #[test]
    fn empty_stream_is_valid_document() {
        let json = chrome_trace_json(&[]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
    }
}
