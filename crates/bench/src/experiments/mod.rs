//! One module per reproduced table/figure, [`FIGURES`] listing them all,
//! and [`grid`], the one shape every simulated sweep has.

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod scaling;
pub mod table1;
pub mod table2;

use std::fs;

use hfs_core::RunResult;
use hfs_cpu::CoreStats;
use hfs_harness::Job;
use hfs_sim::stats::StallComponent;

use crate::runner::{protocol_suffixed, run_batch};
use crate::table::{f2, TextTable};

/// One row of [`FIGURES`].
pub struct Figure {
    /// The figure's name on `all_figures`'s command line, and its text
    /// rendering `<name>.txt`.
    pub name: &'static str,
    /// The stems of its CSV tables, `<stem>.csv`, in the order `run`
    /// returns the tables.
    pub csv: &'static [&'static str],
    /// Runs the experiment: the printed text, and the CSV tables.
    pub run: fn() -> (String, Vec<TextTable>),
}

/// Every table and figure, in regeneration order: `all_figures` runs
/// them all, `all_figures <name>` one row, and `results/` holds exactly
/// their renderings.
pub static FIGURES: [Figure; 12] = [
    Figure {
        name: "table1",
        csv: &["table1"],
        run: || one_table(table1::run()),
    },
    Figure {
        name: "table2",
        csv: &[],
        run: || (table2::run(), Vec::new()),
    },
    Figure {
        name: "fig3",
        csv: &[],
        run: || (fig3::run().render(), Vec::new()),
    },
    Figure {
        name: "fig6",
        csv: &["fig6"],
        run: || one_table(fig6::run().table()),
    },
    Figure {
        name: "fig7",
        csv: &["fig7_producer", "fig7_consumer"],
        run: || breakdowns(&fig7::run(), "Figure 7", "design points, baseline bus"),
    },
    Figure {
        name: "fig8",
        csv: &["fig8"],
        run: || one_table(fig8::run().table()),
    },
    Figure {
        name: "fig9",
        csv: &["fig9"],
        run: || one_table(fig9::run().table()),
    },
    Figure {
        name: "fig10",
        csv: &["fig10_producer", "fig10_consumer"],
        run: || breakdowns(&fig10::run(), "Figure 10", "4-cycle bus"),
    },
    Figure {
        name: "fig11",
        csv: &["fig11_producer", "fig11_consumer"],
        run: || breakdowns(&fig11::run(), "Figure 11", "4-cycle, 128-byte bus"),
    },
    Figure {
        name: "fig12",
        csv: &["fig12_producer", "fig12_consumer"],
        run: || {
            let f = fig12::run();
            (f.render(), vec![f.producer_table(), f.consumer_table()])
        },
    },
    Figure {
        name: "ablation",
        csv: &[],
        run: || (ablation::run_all(), Vec::new()),
    },
    Figure {
        name: "scaling",
        csv: &[],
        run: || (scaling::run(), Vec::new()),
    },
];

/// A figure that is one table: its rendering, and the table itself.
fn one_table(t: TextTable) -> (String, Vec<TextTable>) {
    (t.render(), vec![t])
}

/// A Figure 7-family rendering titled `"<title>: <caption>"`, with its
/// producer and consumer tables.
fn breakdowns(sweep: &fig7::DesignSweep, title: &str, caption: &str) -> (String, Vec<TextTable>) {
    (
        sweep.render(&format!("{title}: {caption}")),
        vec![sweep.producer_table(title), sweep.consumer_table(title)],
    )
}

impl Figure {
    /// The row of [`FIGURES`] called `name`, if there is one.
    pub fn named(name: &str) -> Option<&'static Figure> {
        FIGURES.iter().find(|f| f.name == name)
    }

    /// Runs the figure and prints its text. With `HFS_OUT_DIR` set, the
    /// text is also written there as `<name>.txt` and each table as
    /// `<stem>.csv`; a non-default protocol suffixes the names (see
    /// [`protocol_suffixed`]), keeping the committed MSI goldens intact.
    ///
    /// # Panics
    ///
    /// When the experiment fails (see [`grid`]) or a file cannot be
    /// written.
    pub fn print(&self) {
        let (text, tables) = (self.run)();
        if let Some(dir) = hfs_harness::env_path("HFS_OUT_DIR") {
            fs::create_dir_all(&dir).expect("create HFS_OUT_DIR");
            for (stem, table) in self.csv.iter().zip(&tables) {
                let path = dir.join(format!("{}.csv", protocol_suffixed(stem)));
                fs::write(path, table.to_csv()).expect("write csv");
            }
            let path = dir.join(format!("{}.txt", protocol_suffixed(self.name)));
            fs::write(path, &text).expect("write artifact");
        }
        print!("{text}");
    }
}

/// The jobs of a sweep, row-major: `job(row, col)` for every column of
/// the first row, then of the second, and so on.
pub(crate) fn grid_jobs<R, C>(rows: &[R], cols: &[C], job: impl Fn(&R, &C) -> Job) -> Vec<Job> {
    let job = &job;
    rows.iter()
        .flat_map(|r| cols.iter().map(move |c| job(r, c)))
        .collect()
}

/// Runs a sweep — one job per `(row, column)` — as one engine batch named
/// `batch`, and hands the results back by row, in column order.
///
/// # Panics
///
/// When a job fails (see [`hfs_harness::Batch::expect_results`]).
pub fn grid<'r, R, C>(
    batch: &str,
    rows: &'r [R],
    cols: &[C],
    job: impl Fn(&R, &C) -> Job,
) -> Vec<(&'r R, Vec<RunResult>)> {
    let results = run_batch(batch, grid_jobs(rows, cols, job)).expect_results();
    let mut results = results.into_iter();
    rows.iter()
        .map(|r| (r, results.by_ref().take(cols.len()).collect()))
        .collect()
}

/// Builds a Figure 7-style table: per benchmark and design, execution
/// time normalized to the first design, plus the six stall components of
/// the chosen core as fractions of its own total.
pub(crate) fn breakdown_table(
    title: &str,
    designs: &[String],
    rows: &[(String, Vec<RunResult>)],
    consumer_side: bool,
) -> TextTable {
    let mut headers: Vec<String> = vec!["bench".to_string()];
    for d in designs {
        headers.push(format!("{d} (norm)"));
    }
    headers.push("components of last design: PreL2/L2/BUS/L3/MEM/PostL2".to_string());
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = TextTable::new(title, &hdr_refs);
    for (bench, results) in rows {
        let base = results[0].cycles as f64;
        let mut cells = vec![bench.clone()];
        for r in results {
            cells.push(f2(r.cycles as f64 / base));
        }
        let last = results.last().expect("at least one design");
        let stats = side(last, consumer_side);
        let comps: Vec<String> = StallComponent::ALL
            .iter()
            .map(|&c| f2(stats.breakdown.fraction(c)))
            .collect();
        cells.push(comps.join("/"));
        t.row(cells);
    }
    t
}

pub(crate) fn side(r: &RunResult, consumer: bool) -> &CoreStats {
    if consumer {
        r.consumer().unwrap_or_else(|| r.producer())
    } else {
        r.producer()
    }
}

/// Geometric mean over one design column of `rows`, normalized to the
/// first design.
pub(crate) fn column_geomean(rows: &[(String, Vec<RunResult>)], col: usize) -> f64 {
    hfs_sim::stats::geomean(
        rows.iter()
            .map(|(_, rs)| rs[col].cycles as f64 / rs[0].cycles as f64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_cpu::CoreStats;
    use hfs_mem::MemStats;
    use hfs_sim::stats::Breakdown;

    fn fake_result(cycles: u64) -> RunResult {
        let mut b = Breakdown::new();
        b.charge_busy(cycles / 2);
        b.charge(StallComponent::Bus, cycles - cycles / 2);
        let stats = CoreStats {
            cycles,
            breakdown: b,
            ..Default::default()
        };
        RunResult {
            design: "X".into(),
            cycles,
            cores: vec![stats, stats],
            iterations: 10,
            mem: MemStats::default(),
            stream_cache: None,
            metrics: None,
            checked: false,
        }
    }

    #[test]
    fn column_geomean_normalizes_to_first_column() {
        let rows = vec![
            ("a".to_string(), vec![fake_result(100), fake_result(200)]),
            ("b".to_string(), vec![fake_result(50), fake_result(200)]),
        ];
        // Ratios: 2.0 and 4.0 -> geomean sqrt(8) ~= 2.828.
        let g = column_geomean(&rows, 1);
        assert!((g - (8.0f64).sqrt()).abs() < 1e-9);
        assert!((column_geomean(&rows, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_table_shapes_rows() {
        let rows = vec![("wc".to_string(), vec![fake_result(100), fake_result(150)])];
        let designs = vec!["HW".to_string(), "SW".to_string()];
        let t = breakdown_table("demo", &designs, &rows, false);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("wc"));
        assert!(s.contains("1.50"), "normalized column present:\n{s}");
        // Six component fractions joined with '/'.
        assert!(s.matches('/').count() >= 5);
    }

    #[test]
    fn side_selects_consumer_when_asked() {
        let mut r = fake_result(10);
        r.cores[1].cycles = 99;
        assert_eq!(side(&r, false).cycles, 10);
        assert_eq!(side(&r, true).cycles, 99);
    }
}
