//! Figure 12: the §5 SYNCOPTI optimizations — stream cache (SC) and
//! 64-entry/QLU-16 queues (Q64) — against HEAVYWT.
//!
//! Paper finding: SC+Q64 reaches ~98% of HEAVYWT (a 2x speedup over
//! EXISTING/MEMOPTI) using ~1% of the dedicated storage.

use hfs_core::DesignPoint;

use crate::experiments::fig7::{run_with, DesignSweep};
use crate::table::TextTable;

const TITLE: &str = "Figure 12: SYNCOPTI optimizations";

/// The variant order: HEAVYWT, SC+Q64, SC, Q64, plain SYNCOPTI
/// (matching the paper's bar order 1..5).
pub fn variants() -> [DesignPoint; 5] {
    [
        DesignPoint::heavywt(),
        DesignPoint::syncopti_sc_q64(),
        DesignPoint::syncopti_sc(),
        DesignPoint::syncopti_q64(),
        DesignPoint::syncopti(),
    ]
}

/// Figure 12 results: the [`variants`] swept over every benchmark on the
/// baseline machine.
#[derive(Debug, Clone)]
pub struct Fig12(pub DesignSweep);

/// Runs the five variants over every benchmark as one engine batch.
pub fn run() -> Fig12 {
    Fig12(run_with("fig12", &variants(), |c| c))
}

impl Fig12 {
    /// Geomean execution time of variant `col` normalized to HEAVYWT.
    pub fn geomean(&self, col: usize) -> f64 {
        self.0.geomean(col)
    }

    /// The producer-side breakdown table.
    pub fn producer_table(&self) -> TextTable {
        self.0.producer_table(TITLE)
    }

    /// The consumer-side breakdown table.
    pub fn consumer_table(&self) -> TextTable {
        self.0.consumer_table(TITLE)
    }

    /// Renders producer and consumer breakdown tables plus the headline
    /// SC+Q64-vs-HEAVYWT gap.
    pub fn render(&self) -> String {
        let gap = (self.geomean(1) - 1.0) * 100.0;
        self.0
            .render_geomeans(TITLE, "GeoMean normalized to HEAVYWT:")
            + &format!("\nSC+Q64 is within {gap:.1}% of HEAVYWT (paper: ~2%)\n")
    }
}
