//! Figure 9: HEAVYWT loop speedup over single-threaded execution.
//!
//! The paper reports a ~29% geomean speedup, establishing that only
//! efficient communication support makes DSWP parallelization profitable
//! at all.

use hfs_core::DesignPoint;
use hfs_harness::Job;
use hfs_sim::stats::geomean;
use hfs_workloads::{all_benchmarks, Benchmark};

use crate::experiments::grid;
use crate::runner::{design_job, single_job};
use crate::table::{f2, TextTable};

/// One benchmark's speedup.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Benchmark name.
    pub bench: String,
    /// Single-threaded (fused) execution cycles.
    pub single_cycles: u64,
    /// HEAVYWT pipeline execution cycles.
    pub heavywt_cycles: u64,
    /// Speedup of the pipeline over single-threaded.
    pub speedup: f64,
}

/// Figure 9 results.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Rows in paper order.
    pub rows: Vec<Fig9Row>,
}

/// Runs HEAVYWT and the fused single-threaded baseline per benchmark in
/// one engine batch (pipeline job then single job, per benchmark).
pub fn run() -> Fig9 {
    let benches = all_benchmarks();
    let cols: [fn(&Benchmark) -> Job; 2] = [
        |b| design_job("fig9", b, DesignPoint::heavywt()),
        |b| single_job("fig9", b),
    ];
    let rows = grid("fig9", &benches, &cols, |b, col| col(b))
        .into_iter()
        .map(|(b, runs)| {
            let (hw, single) = (&runs[0], &runs[1]);
            Fig9Row {
                bench: b.name.to_string(),
                single_cycles: single.cycles,
                heavywt_cycles: hw.cycles,
                speedup: single.cycles as f64 / hw.cycles as f64,
            }
        })
        .collect();
    Fig9 { rows }
}

impl Fig9 {
    /// Geomean speedup over the single-threaded baseline.
    pub fn geomean_speedup(&self) -> f64 {
        geomean(self.rows.iter().map(|r| r.speedup))
    }

    /// Renders the speedup table.
    pub fn render(&self) -> String {
        self.table().render()
    }

    /// The speedup table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 9: HEAVYWT speedup over single-threaded execution",
            &["bench", "single (cycles)", "HEAVYWT (cycles)", "speedup"],
        );
        for r in &self.rows {
            t.row(vec![
                r.bench.clone(),
                r.single_cycles.to_string(),
                r.heavywt_cycles.to_string(),
                f2(r.speedup),
            ]);
        }
        t.row(vec![
            "GeoMean".into(),
            String::new(),
            String::new(),
            f2(self.geomean_speedup()),
        ]);
        t
    }
}
