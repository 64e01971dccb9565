//! Figure 6: effect of transit delay on streaming codes.
//!
//! Three HEAVYWT variants differing only in dedicated-interconnect
//! latency and queue size: 1-cycle/32-entry, 10-cycle/32-entry,
//! 10-cycle/64-entry. The paper's findings: transit delay is largely
//! tolerated; `bzip2` slows ~33% at 10 cycles because its outer-loop
//! stream cannot be pipelined; `art`/`equake`/`fir` get slightly *faster*
//! because the pipelined interconnect acts as extra queue storage; a
//! 64-entry queue recovers the losses.

use hfs_core::DesignPoint;
use hfs_harness::Job;
use hfs_sim::stats::geomean;
use hfs_workloads::{all_benchmarks, Benchmark};

use crate::experiments::{grid, grid_jobs};
use crate::runner::design_job;
use crate::table::{f2, TextTable};

/// One benchmark's normalized execution times.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Benchmark name.
    pub bench: String,
    /// 10-cycle transit, 32-entry queue, relative to 1-cycle/32.
    pub t10_q32: f64,
    /// 10-cycle transit, 64-entry queue, relative to 1-cycle/32.
    pub t10_q64: f64,
}

/// Figure 6 results.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Per-benchmark rows in paper order.
    pub rows: Vec<Fig6Row>,
}

/// The three HEAVYWT variants: 1-cycle/32-entry, 10-cycle/32-entry,
/// 10-cycle/64-entry.
fn variants() -> [DesignPoint; 3] {
    [
        DesignPoint::heavywt_with(1, 32),
        DesignPoint::heavywt_with(10, 32),
        DesignPoint::heavywt_with(10, 64),
    ]
}

fn job(b: &Benchmark, &v: &DesignPoint) -> Job {
    design_job("fig6", b, v)
}

/// The figure's job list: three HEAVYWT variants per benchmark, in
/// submission order. Exposed so `fig6 --dump-jobs` can write the sweep
/// spec for `hfs-client submit` without simulating anything.
pub fn jobs() -> Vec<Job> {
    grid_jobs(&all_benchmarks(), &variants(), job)
}

/// Runs the three HEAVYWT variants over all benchmarks (one engine
/// batch: 3 jobs per benchmark, gathered in submission order).
pub fn run() -> Fig6 {
    let benches = all_benchmarks();
    let rows = grid("fig6", &benches, &variants(), job)
        .into_iter()
        .map(|(b, runs)| Fig6Row {
            bench: b.name.to_string(),
            t10_q32: runs[1].cycles as f64 / runs[0].cycles as f64,
            t10_q64: runs[2].cycles as f64 / runs[0].cycles as f64,
        })
        .collect();
    Fig6 { rows }
}

impl Fig6 {
    /// Geomean of the 10-cycle/32-entry bars.
    pub fn geomean_t10_q32(&self) -> f64 {
        geomean(self.rows.iter().map(|r| r.t10_q32))
    }

    /// Geomean of the 10-cycle/64-entry bars.
    pub fn geomean_t10_q64(&self) -> f64 {
        geomean(self.rows.iter().map(|r| r.t10_q64))
    }

    /// Renders the normalized execution-time table.
    pub fn render(&self) -> String {
        self.table().render()
    }

    /// The normalized execution-time table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 6: effect of transit delay (normalized to 1-cycle/32-entry HEAVYWT)",
            &["bench", "1cy/32", "10cy/32", "10cy/64"],
        );
        for r in &self.rows {
            t.row(vec![r.bench.clone(), f2(1.0), f2(r.t10_q32), f2(r.t10_q64)]);
        }
        t.row(vec![
            "GeoMean".to_string(),
            f2(1.0),
            f2(self.geomean_t10_q32()),
            f2(self.geomean_t10_q64()),
        ]);
        t
    }
}
