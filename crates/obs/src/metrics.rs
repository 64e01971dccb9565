//! The live metric registry and its Prometheus-text exposition.
//!
//! Three instrument kinds, all cheap enough for hot paths:
//!
//! - [`Counter`] — a monotonically increasing `AtomicU64`. Exposed with
//!   the conventional `_total` suffix already part of the name.
//! - [`Gauge`] — a signed `AtomicI64` that can move both ways (queue
//!   depth, in-flight jobs, open connections).
//! - [`HistogramMetric`] — a mutex-guarded [`hfs_sim::stats::Histogram`]
//!   with unit-width buckets, summarized at exposition time through
//!   [`hfs_trace::HistogramSummary`] as a Prometheus `summary` with
//!   p50/p95/p99 quantiles plus `_sum`/`_count`.
//!
//! Handles are `Arc`-backed: registering the same name twice returns a
//! handle to the same underlying instrument, so call sites can hold
//! their own copies without coordination. Names are kept in a sorted
//! map, which makes [`Registry::render_prometheus`] deterministic —
//! the exposition golden in `tests/obs.rs` depends on that.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use hfs_sim::stats::Histogram;
use hfs_trace::HistogramSummary;

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a signed value that moves both directions.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts 1.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Adds `n`, which may be negative. Concurrent adds commute, so a
    /// gauge kept only by adds is exact at quiescence.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram handle recording integer observations (typically
/// milliseconds). Observations above the configured max land in the
/// overflow bucket and clamp percentile reads to the top bucket.
#[derive(Debug, Clone)]
pub struct HistogramMetric(Arc<Mutex<Histogram>>);

impl HistogramMetric {
    fn new(max: usize) -> HistogramMetric {
        HistogramMetric(Arc::new(Mutex::new(Histogram::new(max))))
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.0.lock().unwrap().record(v);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.lock().unwrap().count()
    }

    /// The p50/p95/p99 summary snapshot.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary::of(&self.0.lock().unwrap())
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramMetric),
}

/// A named collection of instruments with deterministic exposition.
///
/// Each serving process owns one (`hfs-serve`'s dispatcher, the
/// harness engine); [`global`] provides a process-wide default for
/// call sites with no registry in scope. Instrument lookups are
/// get-or-create, so components can register the same name
/// independently and share the instrument.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created at zero on first use.
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// The gauge named `name`, created at zero on first use.
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// The histogram named `name`, created on first use with unit-width
    /// buckets `0..max` plus an overflow bucket. `max` is ignored when
    /// the histogram already exists.
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str, max: usize) -> HistogramMetric {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(HistogramMetric::new(max)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Renders every instrument in Prometheus text exposition format,
    /// sorted by name. Counters render as `counter`, gauges as `gauge`,
    /// histograms as `summary` with p50/p95/p99 quantile lines plus
    /// `{name}_sum` and `{name}_count`.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        for (name, metric) in inner.iter() {
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    let s = h.summary();
                    out.push_str(&format!("# TYPE {name} summary\n"));
                    out.push_str(&format!("{name}{{quantile=\"0.5\"}} {}\n", s.p50));
                    out.push_str(&format!("{name}{{quantile=\"0.95\"}} {}\n", s.p95));
                    out.push_str(&format!("{name}{{quantile=\"0.99\"}} {}\n", s.p99));
                    out.push_str(&format!("{name}_sum {}\n", s.sum));
                    out.push_str(&format!("{name}_count {}\n", s.count));
                }
            }
        }
        out
    }
}

/// The process-wide default registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("hfs_jobs_submitted_total");
        c.inc();
        c.add(4);
        // A second lookup shares the instrument.
        assert_eq!(reg.counter("hfs_jobs_submitted_total").get(), 5);

        let g = reg.gauge("hfs_queue_depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.add(-3);
        assert_eq!(g.get(), -2);
        g.set(-2);
        assert_eq!(reg.gauge("hfs_queue_depth").get(), -2);
    }

    #[test]
    fn histogram_summary_percentiles() {
        let reg = Registry::new();
        let h = reg.histogram("hfs_job_exec_wall_ms", 100);
        for v in 1..=100 {
            h.observe(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("hfs_thing");
        reg.gauge("hfs_thing");
    }

    #[test]
    fn exposition_is_sorted_and_well_formed() {
        let reg = Registry::new();
        reg.counter("hfs_b_total").add(2);
        reg.gauge("hfs_a_depth").set(3);
        let h = reg.histogram("hfs_c_ms", 10);
        h.observe(4);
        let text = reg.render_prometheus();
        let expected = "# TYPE hfs_a_depth gauge\n\
                        hfs_a_depth 3\n\
                        # TYPE hfs_b_total counter\n\
                        hfs_b_total 2\n\
                        # TYPE hfs_c_ms summary\n\
                        hfs_c_ms{quantile=\"0.5\"} 4\n\
                        hfs_c_ms{quantile=\"0.95\"} 4\n\
                        hfs_c_ms{quantile=\"0.99\"} 4\n\
                        hfs_c_ms_sum 4\n\
                        hfs_c_ms_count 1\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        let reg = Registry::new();
        let c = reg.counter("hfs_concurrent_total");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}
