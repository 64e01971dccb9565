//! Randomized property tests for the simulation kernel primitives,
//! driven by the workspace's deterministic [`Rng64`] (std-only — no
//! external property-testing framework).

use hfs_sim::stats::{geomean, Breakdown, StallComponent};
use hfs_sim::{Cycle, Rng64, TimedQueue};

const CASES: u64 = 64;

/// TimedQueue is a strict FIFO: pop order equals push order no matter
/// what ready stamps the messages carry.
#[test]
fn timed_queue_is_fifo() {
    let mut rng = Rng64::new(0x51_F1F0);
    for _ in 0..CASES {
        let len = 1 + rng.below(49) as usize;
        let stamps: Vec<u64> = (0..len).map(|_| rng.below(1000)).collect();
        let mut q = TimedQueue::new();
        for (i, &s) in stamps.iter().enumerate() {
            q.push(Cycle::new(s), i);
        }
        let mut out = Vec::new();
        let horizon = stamps.iter().copied().max().unwrap_or(0) + 1;
        for t in 0..=horizon {
            while let Some(v) = q.pop_ready(Cycle::new(t)) {
                out.push(v);
            }
        }
        assert_eq!(out, (0..stamps.len()).collect::<Vec<_>>());
        assert!(q.is_empty());
    }
}

/// A message can never be popped before its ready stamp.
#[test]
fn timed_queue_respects_stamps() {
    let mut rng = Rng64::new(0x51_0002);
    for _ in 0..CASES {
        let stamp = rng.range(1, 10_000);
        let mut q = TimedQueue::new();
        q.push(Cycle::new(stamp), ());
        assert!(q.pop_ready(Cycle::new(stamp - 1)).is_none());
        assert!(q.pop_ready(Cycle::new(stamp)).is_some());
    }
}

/// Breakdown totals always equal the sum of parts.
#[test]
fn breakdown_conserves() {
    let mut rng = Rng64::new(0x51_0004);
    for _ in 0..CASES {
        let busy = rng.below(1000);
        let n_charges = rng.below(40) as usize;
        let mut b = Breakdown::new();
        b.charge_busy(busy);
        let mut sum = 0;
        for _ in 0..n_charges {
            let c = StallComponent::ALL[rng.below(6) as usize];
            let n = rng.range(1, 100);
            b.charge(c, n);
            sum += n;
        }
        assert_eq!(b.stall_total(), sum);
        assert_eq!(b.total(), sum + busy);
        let fracs: f64 = StallComponent::ALL.iter().map(|&c| b.fraction(c)).sum();
        if b.total() > 0 {
            assert!((fracs - (sum as f64 / b.total() as f64)).abs() < 1e-9);
        }
    }
}

/// Geomean lies between min and max of its inputs.
#[test]
fn geomean_bounded() {
    let mut rng = Rng64::new(0x51_0005);
    for _ in 0..CASES {
        let len = 1 + rng.below(19) as usize;
        let vals: Vec<f64> = (0..len).map(|_| 0.01 + rng.f64() * 99.99).collect();
        let g = geomean(vals.iter().copied());
        let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().copied().fold(0.0f64, f64::max);
        assert!(g >= lo * 0.999 && g <= hi * 1.001, "{lo} <= {g} <= {hi}");
    }
}
