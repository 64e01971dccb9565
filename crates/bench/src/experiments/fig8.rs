//! Figure 8: dynamic communication-to-application instruction ratios.
//!
//! Measured on HEAVYWT runs (the produce/consume ISA), matching the
//! paper's "codes with produce-consume instructions". The headline
//! characterization: one communication every 5–20 application
//! instructions.

use hfs_core::DesignPoint;
use hfs_workloads::all_benchmarks;

use crate::experiments::grid;
use crate::runner::design_job;
use crate::table::{f2, TextTable};

/// One benchmark's measured ratios.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Benchmark name.
    pub bench: String,
    /// Producer-thread comm:app dynamic instruction ratio.
    pub producer: f64,
    /// Consumer-thread comm:app dynamic instruction ratio.
    pub consumer: f64,
}

/// Figure 8 results.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Rows in paper order.
    pub rows: Vec<Fig8Row>,
}

/// Measures the ratios under HEAVYWT. These jobs share cache keys with
/// Figure 7's HEAVYWT column, so a combined regeneration simulates each
/// run once.
pub fn run() -> Fig8 {
    let benches = all_benchmarks();
    let rows = grid("fig8", &benches, &[DesignPoint::heavywt()], |b, &d| {
        design_job("fig8", b, d)
    })
    .into_iter()
    .map(|(b, runs)| Fig8Row {
        bench: b.name.to_string(),
        producer: runs[0].producer().comm_ratio(),
        consumer: runs[0].consumer().expect("pipeline run").comm_ratio(),
    })
    .collect();
    Fig8 { rows }
}

impl Fig8 {
    /// Renders the ratio table.
    pub fn render(&self) -> String {
        self.table().render()
    }

    /// The ratio table, including the implied "one communication every N
    /// application instructions".
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 8: dynamic comm:app instruction ratio (HEAVYWT)",
            &[
                "bench",
                "producer",
                "consumer",
                "app instrs per comm (P)",
                "(C)",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.bench.clone(),
                f2(r.producer),
                f2(r.consumer),
                f2(1.0 / r.producer.max(1e-9)),
                f2(1.0 / r.consumer.max(1e-9)),
            ]);
        }
        let gp = hfs_sim::stats::geomean(self.rows.iter().map(|r| r.producer));
        let gc = hfs_sim::stats::geomean(self.rows.iter().map(|r| r.consumer));
        t.row(vec![
            "GeoMean".into(),
            f2(gp),
            f2(gc),
            f2(1.0 / gp),
            f2(1.0 / gc),
        ]);
        t
    }
}
