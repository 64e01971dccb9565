//! Cycle-level event tracing and unified metrics for the `hfs` simulator.
//!
//! Every hardware model in the workspace (cores, caches, bus, streaming
//! backends) carries a cloned [`Tracer`] handle and emits typed
//! [`TraceEvent`]s at the moments that matter: issue and stall cycles with
//! [`StallComponent`] attribution, cache hits and misses at each level,
//! bus grants and data-phase occupancy, OzQ recirculations, and — most
//! importantly for the paper's argument — `produce`/`consume` pairs whose
//! matched spans make consume-to-use latency a first-class traced
//! quantity.
//!
//! The disabled path is a branch on a `None`: [`Tracer::disabled`] holds
//! no buffer, and [`Tracer::emit`] takes a closure so the event is never
//! even constructed. Simulated cycle counts are bit-identical with or
//! without tracing.
//!
//! Two consumers sit on top of the event stream:
//!
//! * [`chrome_trace_json`] renders a recorded stream as Chrome
//!   trace-event JSON loadable in Perfetto or `chrome://tracing`, one
//!   track per core, the bus, and each queue;
//! * [`MetricsReport`] is the unified machine-readable summary (named
//!   counters, histogram summaries with p50/p95/p99, and the Figure 7
//!   stall breakdown) embedded in run results and harness artifacts.
//!
//! # Example
//!
//! ```
//! use hfs_isa::{CoreId, QueueId};
//! use hfs_trace::{TraceEvent, Tracer};
//!
//! let t = Tracer::recording();
//! t.emit(|| TraceEvent::Produce { core: CoreId(0), queue: QueueId(3), seq: 0, at: 10 });
//! t.emit(|| TraceEvent::Consume { core: CoreId(1), queue: QueueId(3), seq: 0, at: 14 });
//! assert_eq!(t.take_events().len(), 2);
//! assert_eq!(t.consume_to_use().percentile(50.0), Some(4));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod chrome;
mod event;
mod report;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use hfs_sim::stats::Histogram;

pub use chrome::chrome_trace_json;
pub use event::{CacheLevel, CoreActivity, TraceEvent};
pub use report::{HistogramSummary, MetricsReport};

/// Bucket range (cycles) of the consume-to-use latency histogram.
const CONSUME_TO_USE_BUCKETS: usize = 1024;
/// Bucket range (entries) of the queue-occupancy histogram.
const QUEUE_DEPTH_BUCKETS: usize = 256;

/// The mutable state behind an enabled tracer.
#[derive(Debug)]
struct TraceBuffer {
    /// Whether the raw event stream is kept (recording mode). Metrics-only
    /// tracers digest events into histograms/counts and drop them.
    retain: bool,
    events: Vec<TraceEvent>,
    kind_counts: [u64; TraceEvent::KIND_NAMES.len()],
    /// Outstanding produce timestamps keyed by `(queue, seq)`, matched
    /// against consumes in arrival order. BTreeMap keeps drains (and any
    /// future iteration) deterministic.
    produce_at: BTreeMap<(u16, u64), u64>,
    consume_to_use: Histogram,
    queue_depth: Histogram,
}

impl TraceBuffer {
    fn new(retain: bool) -> Self {
        TraceBuffer {
            retain,
            events: Vec::new(),
            kind_counts: [0; TraceEvent::KIND_NAMES.len()],
            produce_at: BTreeMap::new(),
            consume_to_use: Histogram::new(CONSUME_TO_USE_BUCKETS),
            queue_depth: Histogram::new(QUEUE_DEPTH_BUCKETS),
        }
    }

    fn push(&mut self, event: TraceEvent) {
        self.kind_counts[event.kind_index()] += 1;
        match event {
            TraceEvent::Produce { queue, seq, at, .. } => {
                self.produce_at.insert((queue.0, seq), at);
            }
            TraceEvent::Consume { queue, seq, at, .. } => {
                if let Some(p) = self.produce_at.remove(&(queue.0, seq)) {
                    self.consume_to_use.record(at.saturating_sub(p));
                }
            }
            TraceEvent::QueueDepth { depth, .. } => {
                self.queue_depth.record(depth);
            }
            _ => {}
        }
        if self.retain {
            self.events.push(event);
        }
    }
}

/// A cloneable handle to a per-machine trace sink.
///
/// All clones of one tracer share a single buffer, so the machine can
/// hand a handle to every component it owns. Handles are deliberately
/// *not* `Send`: a machine (and thus its tracer) lives entirely on one
/// harness worker thread.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceBuffer>>>,
}

impl Tracer {
    /// The no-op tracer: [`Tracer::emit`] is a branch on a `None` and the
    /// event closure is never run.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer that retains the full event stream (for export) in
    /// addition to digesting metrics.
    pub fn recording() -> Tracer {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceBuffer::new(true)))),
        }
    }

    /// A tracer that digests events into counts and histograms but drops
    /// the raw stream — bounded memory for arbitrarily long runs.
    pub fn metrics_only() -> Tracer {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceBuffer::new(false)))),
        }
    }

    /// Whether events are being collected at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits an event. The closure defers construction so the disabled
    /// path costs a single branch.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(buf) = &self.inner {
            buf.borrow_mut().push(f());
        }
    }

    /// Takes the recorded event stream, leaving the buffer empty.
    /// Empty for disabled and metrics-only tracers.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(buf) => std::mem::take(&mut buf.borrow_mut().events),
            None => Vec::new(),
        }
    }

    /// Snapshot of the consume-to-use latency histogram (cycles between a
    /// queue element's produce and the consume that uses it).
    pub fn consume_to_use(&self) -> Histogram {
        match &self.inner {
            Some(buf) => buf.borrow().consume_to_use.clone(),
            None => Histogram::new(CONSUME_TO_USE_BUCKETS),
        }
    }

    /// Snapshot of the queue-occupancy histogram (entries outstanding at
    /// each sampled produce).
    pub fn queue_depth(&self) -> Histogram {
        match &self.inner {
            Some(buf) => buf.borrow().queue_depth.clone(),
            None => Histogram::new(QUEUE_DEPTH_BUCKETS),
        }
    }

    /// Per-kind event totals in a fixed order (see
    /// [`TraceEvent::KIND_NAMES`]).
    pub fn event_counts(&self) -> Vec<(&'static str, u64)> {
        match &self.inner {
            Some(buf) => {
                let buf = buf.borrow();
                TraceEvent::KIND_NAMES
                    .iter()
                    .zip(buf.kind_counts.iter())
                    .map(|(&n, &c)| (n, c))
                    .collect()
            }
            None => TraceEvent::KIND_NAMES.iter().map(|&n| (n, 0)).collect(),
        }
    }
}

/// Canonical one-line-per-event text rendering of an event stream, used
/// by determinism tests to hash and compare recorded traces.
pub fn event_stream_text(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.canonical_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_isa::{CoreId, QueueId};
    use hfs_sim::stats::StallComponent;

    #[test]
    fn disabled_tracer_never_runs_the_closure() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(|| panic!("closure must not run on the disabled path"));
        assert!(t.take_events().is_empty());
        assert_eq!(t.consume_to_use().count(), 0);
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::recording();
        let t2 = t.clone();
        t2.emit(|| TraceEvent::Forward { at: 5, line: 9 });
        let events = t.take_events();
        assert_eq!(events.len(), 1);
        assert!(t2.take_events().is_empty(), "take drains the shared buffer");
    }

    #[test]
    fn produce_consume_matching_feeds_latency_histogram() {
        let t = Tracer::recording();
        for (seq, (p, c)) in [(10u64, 13u64), (11, 19), (20, 21)].iter().enumerate() {
            let seq = seq as u64;
            t.emit(|| TraceEvent::Produce {
                core: CoreId(0),
                queue: QueueId(7),
                seq,
                at: *p,
            });
            t.emit(|| TraceEvent::Consume {
                core: CoreId(1),
                queue: QueueId(7),
                seq,
                at: *c,
            });
        }
        let h = t.consume_to_use();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 3 + 8 + 1);
        assert_eq!(h.percentile(50.0), Some(3));
    }

    #[test]
    fn unmatched_consume_records_nothing() {
        let t = Tracer::metrics_only();
        t.emit(|| TraceEvent::Consume {
            core: CoreId(1),
            queue: QueueId(0),
            seq: 42,
            at: 9,
        });
        assert_eq!(t.consume_to_use().count(), 0);
        // metrics-only drops the raw stream but still counts kinds.
        assert!(t.take_events().is_empty());
        let counts = t.event_counts();
        assert_eq!(counts.iter().find(|(n, _)| *n == "consume").unwrap().1, 1);
    }

    #[test]
    fn queue_depth_histogram_samples() {
        let t = Tracer::metrics_only();
        for depth in [1u64, 3, 3] {
            t.emit(|| TraceEvent::QueueDepth {
                queue: QueueId(2),
                at: 0,
                depth,
            });
        }
        let h = t.queue_depth();
        assert_eq!(h.count(), 3);
        assert_eq!(h.bucket(3), 2);
    }

    #[test]
    fn event_counts_order_is_fixed() {
        let t = Tracer::metrics_only();
        let names: Vec<&str> = t.event_counts().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, TraceEvent::KIND_NAMES.to_vec());
    }

    #[test]
    fn canonical_text_is_line_per_event() {
        let events = vec![
            TraceEvent::CoreState {
                core: CoreId(0),
                at: 1,
                state: CoreActivity::Stall(StallComponent::Bus),
            },
            TraceEvent::BusData { at: 2, cycles: 4 },
        ];
        let text = event_stream_text(&events);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("stall:BUS"));
    }
}
