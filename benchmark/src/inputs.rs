//! Input generation: the fixed simulator points and the seeded sweep.
//!
//! `--seed` drives every random draw through [`hfs_sim::Rng64`]; the
//! programs under test receive only the generated jobs and references.

use hfs_core::kernel::KernelPair;
use hfs_core::{DesignPoint, MachineConfig};
use hfs_harness::Job;
use hfs_mem::Protocol;
use hfs_sim::Rng64;

/// One benchmark × design × protocol configuration of the simulator.
#[derive(Debug, Clone, Copy)]
pub struct SimPoint {
    /// Benchmark name in `hfs_workloads`.
    pub bench: &'static str,
    /// Streaming design point.
    pub design: DesignPoint,
    /// Coherence protocol.
    pub protocol: Protocol,
    /// Outer-loop iterations.
    pub iterations: u64,
}

impl SimPoint {
    const fn new(bench: &'static str, design: DesignPoint, iterations: u64) -> SimPoint {
        SimPoint {
            bench,
            design,
            protocol: Protocol::Msi,
            iterations,
        }
    }

    /// `fir/EXISTING`, `fir/EXISTING/dragon`, ... — also the key of the
    /// point in `goldens.json`.
    pub fn label(&self) -> String {
        match self.protocol {
            Protocol::Msi => format!("{}/{}", self.bench, self.design),
            p => format!("{}/{}/{}", self.bench, self.design, p.label()),
        }
    }

    /// The pipeline job that simulates this point.
    pub fn job(&self) -> Job {
        let b = hfs_workloads::benchmark(self.bench)
            .unwrap_or_else(|| panic!("unknown benchmark `{}`", self.bench))
            .with_iterations(self.iterations);
        let mut cfg = MachineConfig::itanium2_cmp(self.design);
        cfg.mem.protocol = self.protocol;
        Job::pipeline(self.label(), b.pair, cfg)
    }
}

/// `sim_dense`: software-queue points, where ~100% of cycles are
/// processed and all the time is core issue, L2/OzQ/bus ping-pong (and
/// `Upd` traffic on the Dragon point) and run-loop bookkeeping.
pub fn dense_points() -> Vec<SimPoint> {
    vec![
        SimPoint::new("fir", DesignPoint::existing(), 20_000),
        SimPoint::new("mcf", DesignPoint::existing(), 5_000),
        SimPoint::new("wc", DesignPoint::existing(), 20_000),
        SimPoint {
            protocol: Protocol::Dragon,
            ..SimPoint::new("fir", DesignPoint::existing(), 20_000)
        },
    ]
}

/// `sim_stream`: hardware-queue points, where cores sleep on stream
/// operations, the backends and the calendar queue do the work, and a
/// fifth of the cycles can be skipped.
pub fn stream_points() -> Vec<SimPoint> {
    vec![
        SimPoint::new("fir", DesignPoint::syncopti_sc_q64(), 20_000),
        SimPoint::new("fir", DesignPoint::heavywt(), 20_000),
        SimPoint::new("mcf", DesignPoint::syncopti_sc_q64(), 5_000),
        SimPoint::new("mcf", DesignPoint::heavywt(), 5_000),
        SimPoint::new("wc", DesignPoint::heavywt(), 20_000),
    ]
}

/// The six `trace_smoke` golden points (300 iterations each).
pub fn smoke_points() -> Vec<SimPoint> {
    ["fir", "mcf"]
        .into_iter()
        .flat_map(|b| {
            [
                DesignPoint::existing(),
                DesignPoint::syncopti_sc_q64(),
                DesignPoint::heavywt(),
            ]
            .map(|d| SimPoint::new(b, d, 300))
        })
        .collect()
}

/// The five designs a sweep covers.
fn sweep_designs() -> [DesignPoint; 5] {
    [
        DesignPoint::existing(),
        DesignPoint::memopti(),
        DesignPoint::syncopti(),
        DesignPoint::syncopti_sc_q64(),
        DesignPoint::heavywt(),
    ]
}

/// ALU operations per iteration a sweep covers.
const SWEEP_WORK: std::ops::RangeInclusive<u32> = 1..=8;

/// Iteration counts a sweep covers.
const SWEEP_ITERATIONS: std::ops::RangeInclusive<u64> = 20..=80;

/// Jobs in one sweep: every design × work × iteration count once.
pub const SWEEP_JOBS: usize = 5 * 8 * 61;

/// The seeded design-space sweep: the first `n` points of the design ×
/// work × iterations grid in an order drawn from `Rng64(seed)` (the grid
/// repeats if `n` exceeds it), as tiny pipeline jobs with distinct
/// content keys. The cycle budget (far above anything these kernels use)
/// carries the job index, so a repeated point still keys separately, as
/// the points of a real sweep do.
///
/// A whole sweep does the same simulated work on every seed — the seed
/// decides which job follows which, not how much there is to do — so
/// that runs on different seeds measure the same thing.
///
/// Called afresh for every rep: a `Job` memoises its key, and a client
/// re-running a sweep pays for the keys again.
pub fn sweep_jobs(seed: u64, n: usize) -> Vec<Job> {
    let mut grid: Vec<(DesignPoint, u32, u64)> = sweep_designs()
        .into_iter()
        .flat_map(|d| SWEEP_WORK.flat_map(move |w| SWEEP_ITERATIONS.map(move |it| (d, w, it))))
        .collect();
    debug_assert_eq!(grid.len(), SWEEP_JOBS);
    shuffle(&mut grid, &mut Rng64::new(seed).split(0x5eeb));
    (0..n)
        .map(|i| {
            let (design, work, iterations) = grid[i % grid.len()];
            Job::pipeline(
                format!("sweep/p{i}"),
                KernelPair::simple("sweep", work, iterations),
                MachineConfig::itanium2_cmp(design),
            )
            .with_max_cycles(1_000_000 + i as u64)
        })
        .collect()
}

/// Fisher–Yates shuffle driven by `rng` (the per-round point order).
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn spec_text(jobs: &[Job]) -> String {
        hfs_harness::sweep_to_json("sweep", jobs).to_string()
    }

    #[test]
    fn same_seed_gives_byte_identical_sweeps() {
        assert_eq!(
            spec_text(&sweep_jobs(7, 300)),
            spec_text(&sweep_jobs(7, 300))
        );
        assert_ne!(
            spec_text(&sweep_jobs(7, 300)),
            spec_text(&sweep_jobs(8, 300))
        );
    }

    #[test]
    fn sweep_keys_are_distinct_even_past_the_grid() {
        let jobs = sweep_jobs(1, SWEEP_JOBS + 100);
        let keys: HashSet<String> = jobs.iter().map(Job::key).collect();
        assert_eq!(keys.len(), jobs.len());
    }

    #[test]
    fn every_seed_sweeps_the_same_points_in_another_order() {
        let points = |seed| {
            let mut v: Vec<String> = sweep_jobs(seed, SWEEP_JOBS)
                .iter()
                .map(|j| {
                    format!(
                        "{}/{:?}/{}",
                        j.cfg.design, j.pair.producer.steps, j.pair.iterations
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(points(1), points(2));
        assert_eq!(points(1).iter().collect::<HashSet<_>>().len(), SWEEP_JOBS);
    }

    #[test]
    fn point_labels_are_unique_and_name_the_protocol() {
        let mut seen = HashSet::new();
        for p in dense_points().iter().chain(&stream_points()) {
            assert!(seen.insert(p.label()), "duplicate point {}", p.label());
        }
        assert!(seen.contains("fir/EXISTING/dragon"));
        assert_eq!(smoke_points().len(), 6);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..10).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut Rng64::new(3));
        shuffle(&mut b, &mut Rng64::new(3));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<u32>>());
    }
}
