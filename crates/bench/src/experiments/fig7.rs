//! Figure 7: normalized execution times and stall breakdowns for the four
//! design points on the baseline machine.

use hfs_core::{DesignPoint, MachineConfig, RunResult};
use hfs_workloads::all_benchmarks;

use crate::experiments::{breakdown_table, column_geomean, grid};
use crate::runner::pipeline_job;
use crate::table::f2;

/// The design order used by Figures 7/10/11: HEAVYWT, SYNCOPTI,
/// EXISTING, MEMOPTI (execution times are normalized to HEAVYWT).
pub fn designs() -> [DesignPoint; 4] {
    [
        DesignPoint::heavywt(),
        DesignPoint::syncopti(),
        DesignPoint::existing(),
        DesignPoint::memopti(),
    ]
}

/// Figure 7-family results (also used by Figures 10/11 with modified
/// machine configurations).
#[derive(Debug, Clone)]
pub struct DesignSweep {
    /// Design labels in column order.
    pub designs: Vec<String>,
    /// Per-benchmark runs, one per design.
    pub rows: Vec<(String, Vec<RunResult>)>,
}

/// Runs `designs` over every benchmark with a configuration derived from
/// the baseline by `tweak`, as one engine batch named `batch` (Figure 7
/// itself, Figures 10/11 with bus tweaks, Figure 12 with its variants).
pub fn run_with(
    batch: &str,
    designs: &[DesignPoint],
    tweak: impl Fn(MachineConfig) -> MachineConfig,
) -> DesignSweep {
    let benches = all_benchmarks();
    let rows = grid(batch, &benches, designs, |b, &d| {
        pipeline_job(batch, b, tweak(MachineConfig::itanium2_cmp(d)))
    });
    DesignSweep {
        designs: designs.iter().map(DesignPoint::label).collect(),
        rows: rows
            .into_iter()
            .map(|(b, runs)| (b.name.to_string(), runs))
            .collect(),
    }
}

/// Runs Figure 7 on the baseline machine.
pub fn run() -> DesignSweep {
    run_with("fig7", &designs(), |c| c)
}

impl DesignSweep {
    /// Geomean normalized execution time of design column `col` relative
    /// to the first column (HEAVYWT).
    pub fn geomean(&self, col: usize) -> f64 {
        column_geomean(&self.rows, col)
    }

    /// The producer-side breakdown table.
    pub fn producer_table(&self, title: &str) -> crate::table::TextTable {
        breakdown_table(
            &format!("{title} (producer core)"),
            &self.designs,
            &self.rows,
            false,
        )
    }

    /// The consumer-side breakdown table.
    pub fn consumer_table(&self, title: &str) -> crate::table::TextTable {
        breakdown_table(
            &format!("{title} (consumer core)"),
            &self.designs,
            &self.rows,
            true,
        )
    }

    /// Renders producer-side and consumer-side breakdown tables.
    pub fn render(&self, title: &str) -> String {
        self.render_geomeans(title, "GeoMean normalized execution time:") + "\n"
    }

    /// Both breakdown tables, then `label` and each design's geomean, on
    /// a line left open.
    pub(crate) fn render_geomeans(&self, title: &str, label: &str) -> String {
        let mut s = self.producer_table(title).render();
        s.push('\n');
        s.push_str(&self.consumer_table(title).render());
        s.push_str(label);
        for (i, d) in self.designs.iter().enumerate() {
            s.push_str(&format!("  {d}={}", f2(self.geomean(i))));
        }
        s
    }
}
