//! Statistics: counters, histograms, and the Figure 7 stall breakdown.
//!
//! The paper aggregates non-overlappable stall cycles into six components
//! according to which part of the machine holds the instruction that is
//! blocking forward progress: everything before the L2 (`PreL2`), the L2
//! itself, the shared bus, the L3, main memory, and everything after the L2
//! (`PostL2`: fills and writebacks). [`Breakdown`] reproduces exactly that
//! accounting and is reported by every simulation run.

use std::fmt;
use std::ops::{Add, AddAssign, Index};

/// The machine region charged for a stall cycle, following the paper's
/// Figure 7 component naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StallComponent {
    /// Pipeline stages preceding the L2: front end, scoreboard
    /// dependences, OzQ back-pressure, queue-full/empty dormancy.
    PreL2,
    /// Time spent occupying or waiting for the private L2 cache.
    L2,
    /// Time spent arbitrating for or occupying the shared bus.
    Bus,
    /// Time spent in the shared L3 cache.
    L3,
    /// Time spent in main memory.
    Mem,
    /// Stages following the L2: L1 fill and writeback.
    PostL2,
}

impl StallComponent {
    /// All components, in the paper's plotting order (bottom of the stacked
    /// bar first).
    pub const ALL: [StallComponent; 6] = [
        StallComponent::PreL2,
        StallComponent::L2,
        StallComponent::Bus,
        StallComponent::L3,
        StallComponent::Mem,
        StallComponent::PostL2,
    ];

    /// Short label used in tables ("PreL2", "L2", "BUS", "L3", "MEM",
    /// "PostL2").
    pub fn label(self) -> &'static str {
        match self {
            StallComponent::PreL2 => "PreL2",
            StallComponent::L2 => "L2",
            StallComponent::Bus => "BUS",
            StallComponent::L3 => "L3",
            StallComponent::Mem => "MEM",
            StallComponent::PostL2 => "PostL2",
        }
    }

    fn index(self) -> usize {
        match self {
            StallComponent::PreL2 => 0,
            StallComponent::L2 => 1,
            StallComponent::Bus => 2,
            StallComponent::L3 => 3,
            StallComponent::Mem => 4,
            StallComponent::PostL2 => 5,
        }
    }
}

impl fmt::Display for StallComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-component stall-cycle totals plus busy (committing) cycles.
///
/// The invariant `busy + sum(components) == total cycles` is maintained by
/// the core model and checked by integration tests.
///
/// # Example
///
/// ```
/// use hfs_sim::stats::{Breakdown, StallComponent};
///
/// let mut b = Breakdown::new();
/// b.charge(StallComponent::Bus, 3);
/// b.charge_busy(7);
/// assert_eq!(b[StallComponent::Bus], 3);
/// assert_eq!(b.total(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Breakdown {
    components: [u64; 6],
    busy: u64,
}

impl Breakdown {
    /// Creates an all-zero breakdown.
    pub fn new() -> Self {
        Breakdown::default()
    }

    /// Adds `cycles` of stall attributed to `component`.
    pub fn charge(&mut self, component: StallComponent, cycles: u64) {
        self.components[component.index()] += cycles;
    }

    /// Adds `cycles` of productive (committing) time.
    pub fn charge_busy(&mut self, cycles: u64) {
        self.busy += cycles;
    }

    /// Productive cycles (at least one instruction committed).
    pub fn busy(&self) -> u64 {
        self.busy
    }

    /// Total stall cycles across all components.
    pub fn stall_total(&self) -> u64 {
        self.components.iter().sum()
    }

    /// Total accounted cycles: busy plus all stalls.
    pub fn total(&self) -> u64 {
        self.busy + self.stall_total()
    }

    /// The fraction of accounted time charged to `component`
    /// (0.0 if nothing has been recorded).
    pub fn fraction(&self, component: StallComponent) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self[component] as f64 / total as f64
        }
    }

    /// Iterates `(component, cycles)` pairs in plotting order.
    pub fn iter(&self) -> impl Iterator<Item = (StallComponent, u64)> + '_ {
        StallComponent::ALL.iter().map(move |&c| (c, self[c]))
    }
}

impl Index<StallComponent> for Breakdown {
    type Output = u64;

    fn index(&self, component: StallComponent) -> &u64 {
        &self.components[component.index()]
    }
}

impl Add for Breakdown {
    type Output = Breakdown;

    fn add(self, rhs: Breakdown) -> Breakdown {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, rhs: Breakdown) {
        for i in 0..6 {
            self.components[i] += rhs.components[i];
        }
        self.busy += rhs.busy;
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "busy={}", self.busy)?;
        for (c, v) in self.iter() {
            write!(f, " {}={}", c.label(), v)?;
        }
        Ok(())
    }
}

/// A named count, as a component's `counters()` report lists it. The
/// count itself is kept where it happens, as a plain integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    name: &'static str,
    value: u64,
}

impl Counter {
    /// The count `value` under `name`.
    pub fn new(name: &'static str, value: u64) -> Self {
        Counter { name, value }
    }

    /// The counter's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The count.
    pub fn value(&self) -> u64 {
        self.value
    }
}

/// A fixed-bucket latency histogram for distributions such as
/// consume-to-use delay.
///
/// Buckets are `[0, 1, 2, ..., max-1, >=max]`.
///
/// # Example
///
/// ```
/// use hfs_sim::stats::Histogram;
///
/// let mut h = Histogram::new(4);
/// h.record(0);
/// h.record(2);
/// h.record(99); // lands in the overflow bucket
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket(2), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// Creates a histogram with unit-width buckets `0..max`.
    pub fn new(max: usize) -> Self {
        Histogram {
            buckets: vec![0; max],
            overflow: 0,
            count: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        match self.buckets.get_mut(value as usize) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Samples recorded in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bucket range.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Samples at or beyond the last unit bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The nearest-rank `p`-th percentile (`0.0 < p <= 100.0`) of the
    /// recorded samples, or `None` when the histogram is empty.
    ///
    /// Samples that landed in the overflow bucket are reported as the
    /// first out-of-range value (`buckets.len()`), a lower bound on their
    /// true magnitude.
    ///
    /// # Example
    ///
    /// ```
    /// use hfs_sim::stats::Histogram;
    ///
    /// let mut h = Histogram::new(8);
    /// for v in [1, 2, 2, 3] {
    ///     h.record(v);
    /// }
    /// assert_eq!(h.percentile(50.0), Some(2));
    /// assert_eq!(h.percentile(100.0), Some(3));
    /// ```
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        // Nearest-rank: the smallest value with at least ceil(p/100 * n)
        // samples at or below it. Rank 0 (p == 0) degrades to rank 1.
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (value, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(value as u64);
            }
        }
        Some(self.buckets.len() as u64)
    }
}

/// Geometric mean of a series of positive ratios, as used for the paper's
/// "GeoMean" bars. Returns 0.0 for an empty series.
///
/// # Example
///
/// ```
/// let g = hfs_sim::stats::geomean([1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0f64;
    let mut n = 0usize;
    for v in values {
        debug_assert!(v > 0.0, "geomean over non-positive value {v}");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_charging_and_totals() {
        let mut b = Breakdown::new();
        b.charge(StallComponent::PreL2, 2);
        b.charge(StallComponent::Mem, 5);
        b.charge_busy(3);
        assert_eq!(b[StallComponent::PreL2], 2);
        assert_eq!(b[StallComponent::Mem], 5);
        assert_eq!(b.stall_total(), 7);
        assert_eq!(b.total(), 10);
        assert_eq!(b.busy(), 3);
        assert!((b.fraction(StallComponent::Mem) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn breakdown_addition() {
        let mut a = Breakdown::new();
        a.charge(StallComponent::Bus, 1);
        a.charge_busy(1);
        let mut b = Breakdown::new();
        b.charge(StallComponent::Bus, 2);
        b.charge(StallComponent::L3, 4);
        let c = a + b;
        assert_eq!(c[StallComponent::Bus], 3);
        assert_eq!(c[StallComponent::L3], 4);
        assert_eq!(c.busy(), 1);
    }

    #[test]
    fn breakdown_fraction_empty_is_zero() {
        let b = Breakdown::new();
        assert_eq!(b.fraction(StallComponent::L2), 0.0);
    }

    #[test]
    fn breakdown_iter_order_matches_all() {
        let b = Breakdown::new();
        let order: Vec<_> = b.iter().map(|(c, _)| c).collect();
        assert_eq!(order, StallComponent::ALL.to_vec());
    }

    #[test]
    fn component_labels_are_paper_names() {
        let labels: Vec<_> = StallComponent::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["PreL2", "L2", "BUS", "L3", "MEM", "PostL2"]);
    }

    #[test]
    fn counter_behaviour() {
        let c = Counter::new("x", 5);
        assert_eq!(c.value(), 5);
        assert_eq!(c.name(), "x");
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = Histogram::new(3);
        h.record(0);
        h.record(1);
        h.record(1);
        h.record(10);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.bucket(2), 0);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 12);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty_mean_is_zero() {
        assert_eq!(Histogram::new(1).mean(), 0.0);
    }

    #[test]
    fn percentile_empty_is_none() {
        assert_eq!(Histogram::new(4).percentile(50.0), None);
        assert_eq!(Histogram::new(0).percentile(99.0), None);
    }

    #[test]
    fn percentile_single_sample() {
        let mut h = Histogram::new(10);
        h.record(7);
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(7), "p={p}");
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut h = Histogram::new(100);
        for v in [15, 20, 35, 40, 50] {
            h.record(v);
        }
        // Classic nearest-rank worked example.
        assert_eq!(h.percentile(30.0), Some(20));
        assert_eq!(h.percentile(40.0), Some(20));
        assert_eq!(h.percentile(50.0), Some(35));
        assert_eq!(h.percentile(100.0), Some(50));
    }

    #[test]
    fn percentile_overflow_bucket() {
        let mut h = Histogram::new(4);
        h.record(1);
        h.record(2);
        h.record(1000); // overflow
        h.record(2000); // overflow
        assert_eq!(h.percentile(50.0), Some(2));
        // Overflow samples clamp to the first out-of-range value.
        assert_eq!(h.percentile(99.0), Some(4));
        assert_eq!(h.percentile(100.0), Some(4));
    }

    #[test]
    fn percentile_all_overflow() {
        let mut h = Histogram::new(2);
        h.record(9);
        assert_eq!(h.percentile(50.0), Some(2));
    }

    #[test]
    fn geomean_values() {
        assert_eq!(geomean(std::iter::empty()), 0.0);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([3.0]) - 3.0).abs() < 1e-12);
    }
}
