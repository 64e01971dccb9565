//! In-memory span recorder for the traced run.
//!
//! Spans are recorded in the benchmark's own code, around each call into
//! a layer's public functions; nothing inside the program is edited. They
//! stay in memory until the workload ends and are then written out as
//! Chrome trace-event JSON. A layer's self time is its spans' duration
//! minus the part of that interval their child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use hfs_harness::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran (`machine_new`, `fig7`, `submit_batched`, ...).
    pub name: String,
    /// The crate the call went into.
    pub layer: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one job, rep or figure.
    pub op_id: u64,
}

/// Records spans on the (single) driver thread. Disabled, every call is a
/// branch and nothing else, so untraced reps run the same code.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps spans only while `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off between reps (never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Whether spans are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn enter(&mut self, layer: &'static str, name: &str, op_id: u64) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = now;
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: its duration minus the union of the intervals its
/// direct children cover (clipped to the span itself).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self time summed per layer.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0) += t;
    }
    out
}

/// Share of the root spans' time that no child span covers.
pub fn unattributed_frac(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, t) in spans.iter().zip(own) {
        if s.parent.is_none() {
            total += s.end_ns - s.start_ns;
            uncovered += t;
        }
    }
    if total == 0 {
        0.0
    } else {
        uncovered as f64 / total as f64
    }
}

/// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
/// one complete (`"ph":"X"`) event per span, the layer as its category.
pub fn chrome_json(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![("op_id", Json::U64(s.op_id)), ("span", Json::U64(i as u64))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::U64(p as u64)));
            }
            Json::obj(vec![
                ("name", Json::Str(s.name.clone())),
                ("cat", Json::Str(s.layer.to_string())),
                ("ph", Json::Str("X".to_string())),
                ("ts", Json::F64(s.start_ns as f64 / 1e3)),
                ("dur", Json::F64((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(1)),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    Json::obj(vec![("traceEvents", Json::Arr(events))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: layer.to_string(),
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("core", 10, 40, Some(0)),
            // Overlaps the first child: only 40..60 is new cover.
            span("mem", 30, 60, Some(0)),
            // A grandchild never reduces the root directly.
            span("sim", 12, 20, Some(1)),
            // Clipped to the parent's interval.
            span("serve", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 22, 30, 8, 40]);
        let by_layer = layer_self_ns(&spans);
        assert_eq!(by_layer["bench"], 40);
        assert_eq!(by_layer["core"], 22);
        assert!((unattributed_frac(&spans) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut r = Recorder::new(true);
        r.enter("bench", "rep", 7);
        r.enter("core", "run", 7);
        r.exit();
        r.exit();
        r.set_enabled(false);
        r.enter("bench", "rep", 8);
        r.exit();
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_event_per_span() {
        let spans = vec![
            span("bench", 0, 2_000, None),
            span("core", 500, 1_500, Some(0)),
        ];
        let doc = hfs_harness::parse(&chrome_json(&spans)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").and_then(Json::as_str), Some("core"));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(1.0));
    }
}
