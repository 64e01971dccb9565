//! CMP scaling: multiple streaming pipelines multiplexed on the shared
//! memory network.
//!
//! The paper argues its dual-core conclusions extend to larger CMPs, and
//! that SYNCOPTI's reuse of the existing memory interconnect is what
//! makes it attractive there — provided the network is provisioned for
//! total bandwidth (§1, §4.2). This experiment runs 1–4 independent
//! producer/consumer pairs (2–8 cores) concurrently and reports each
//! design's contention slowdown relative to its own single-pair run.

use hfs_core::DesignPoint;
use hfs_workloads::benchmark;

use crate::experiments::grid;
use crate::runner::multi_job;
use crate::table::{f2, TextTable};

/// The designs compared in the scaling sweep.
pub fn designs() -> [DesignPoint; 3] {
    [
        DesignPoint::heavywt(),
        DesignPoint::syncopti_sc_q64(),
        DesignPoint::existing(),
    ]
}

/// One design's cycles at each pair count.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Design label.
    pub design: String,
    /// Total cycles with 1, 2, 3, 4 concurrent pipelines.
    pub cycles: [u64; 4],
}

impl ScalingRow {
    /// Contention slowdown at `pairs` pipelines vs one.
    pub fn slowdown(&self, pairs: usize) -> f64 {
        self.cycles[pairs - 1] as f64 / self.cycles[0] as f64
    }
}

/// Runs the sweep on clones of the given benchmark (default: adpcmdec, a
/// bandwidth-sensitive tight loop).
pub fn run_on(bench_name: &str) -> Vec<ScalingRow> {
    let b = benchmark(bench_name).expect("known benchmark");
    grid("scaling", &designs(), &[1, 2, 3, 4], |&design, &pairs| {
        multi_job("scaling", &b, design, pairs)
    })
    .into_iter()
    .map(|(design, runs)| ScalingRow {
        design: design.label(),
        cycles: std::array::from_fn(|i| runs[i].cycles),
    })
    .collect()
}

/// Renders the scaling table.
pub fn render(bench_name: &str, rows: &[ScalingRow]) -> String {
    let mut t = TextTable::new(
        format!("CMP scaling: concurrent {bench_name} pipelines (slowdown vs 1 pair)"),
        &["design", "1 pair", "2 pairs", "3 pairs", "4 pairs"],
    );
    for r in rows {
        t.row(vec![
            r.design.clone(),
            f2(1.0),
            f2(r.slowdown(2)),
            f2(r.slowdown(3)),
            f2(r.slowdown(4)),
        ]);
    }
    t.render()
}

/// Runs and renders the default sweep.
pub fn run() -> String {
    let rows = run_on("adpcmdec");
    render("adpcmdec", &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_relative_to_one_pair() {
        let r = ScalingRow {
            design: "X".into(),
            cycles: [100, 150, 200, 400],
        };
        assert!((r.slowdown(1) - 1.0).abs() < 1e-12);
        assert!((r.slowdown(2) - 1.5).abs() < 1e-12);
        assert!((r.slowdown(4) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn render_contains_design_rows() {
        let rows = vec![ScalingRow {
            design: "HEAVYWT".into(),
            cycles: [10, 10, 11, 12],
        }];
        let s = render("demo", &rows);
        assert!(s.contains("HEAVYWT"));
        assert!(s.contains("demo"));
    }
}
