//! `figures_cold`: the exact `all_figures` sequence, in process, through
//! `hfs_bench::runner::engine()` on an emptied cache directory.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use hfs_bench::experiments as ex;
use hfs_bench::runner::engine;
use hfs_harness::Job;

use crate::report::Tally;
use crate::spans::Recorder;
use crate::workloads::{empty_and_settle, Workload};

/// A rendered artifact: file name (as in `results/`) and body.
pub type Artifact = (String, String);

/// What one regeneration produced.
#[derive(Debug, Default)]
pub struct Regeneration {
    /// Every rendered `.txt` and `.csv`.
    pub files: Vec<Artifact>,
    /// Wall time per figure call, milliseconds, in sequence order.
    pub fig_ms: Vec<(&'static str, f64)>,
    /// Figure 7's geomean columns and Figure 12's, for the paper-gap
    /// rows: (SYNCOPTI/HEAVYWT, EXISTING/HEAVYWT, SC+Q64/HEAVYWT).
    pub geomeans: Option<(f64, f64, f64)>,
}

struct Sequence<'a> {
    rec: &'a mut Recorder,
    op_id: u64,
    out: Regeneration,
}

impl Sequence<'_> {
    /// Runs one figure — its experiment, then its rendering — with a span
    /// around each, turning a panic into a reported failure as
    /// `all_figures` does.
    fn figure<T>(
        &mut self,
        name: &'static str,
        run: impl FnOnce() -> T,
        render: impl FnOnce(&T) -> Vec<Artifact>,
    ) -> Option<T> {
        self.rec.enter("bench", name, self.op_id);
        let start = Instant::now();
        self.rec.enter("bench", "run", self.op_id);
        let ran = catch_unwind(AssertUnwindSafe(run));
        self.rec.exit();
        self.rec.enter("bench", "render", self.op_id);
        let rendered = ran.ok().and_then(|v| {
            catch_unwind(AssertUnwindSafe(|| render(&v)))
                .ok()
                .map(|f| (v, f))
        });
        self.rec.exit();
        self.out
            .fig_ms
            .push((name, start.elapsed().as_secs_f64() * 1e3));
        self.rec.exit();
        // A figure that panicked (failed batch, model bug) renders
        // nothing; its files then fail the comparison.
        rendered.map(|(v, files)| {
            self.out.files.extend(files);
            v
        })
    }
}

fn txt(name: &str, body: String) -> Artifact {
    (format!("{name}.txt"), body)
}

fn csv(name: &str, table: &hfs_bench::table::TextTable) -> Artifact {
    (format!("{name}.csv"), table.to_csv())
}

/// Figure calls in one regeneration (two tables, nine figures and
/// `scaling`).
pub const FIGURES: usize = 12;

/// Regenerates every table and figure in `all_figures` order, rendering
/// each `.txt` and `.csv` exactly as the binary writes them under
/// `HFS_OUT_DIR`.
pub fn regenerate(rec: &mut Recorder, op_id: u64) -> Regeneration {
    let mut s = Sequence {
        rec,
        op_id,
        out: Regeneration::default(),
    };
    s.figure("table1", ex::table1::run, |t| {
        vec![csv("table1", t), txt("table1", t.render())]
    });
    s.figure("table2", ex::table2::run, |t| {
        vec![txt("table2", t.clone())]
    });
    s.figure("fig3", ex::fig3::run, |f| vec![txt("fig3", f.render())]);
    s.figure("fig6", ex::fig6::run, |f| {
        vec![csv("fig6", &f.table()), txt("fig6", f.render())]
    });
    let f7 = s.figure("fig7", ex::fig7::run, |f| {
        vec![
            csv("fig7_producer", &f.producer_table("Figure 7")),
            csv("fig7_consumer", &f.consumer_table("Figure 7")),
            txt("fig7", f.render("Figure 7: design points, baseline bus")),
        ]
    });
    s.figure("fig8", ex::fig8::run, |f| {
        vec![csv("fig8", &f.table()), txt("fig8", f.render())]
    });
    s.figure("fig9", ex::fig9::run, |f| {
        vec![csv("fig9", &f.table()), txt("fig9", f.render())]
    });
    s.figure("fig10", ex::fig10::run, |f| {
        vec![
            csv("fig10_producer", &f.producer_table("Figure 10")),
            csv("fig10_consumer", &f.consumer_table("Figure 10")),
            txt("fig10", f.render("Figure 10: 4-cycle bus")),
        ]
    });
    s.figure("fig11", ex::fig11::run, |f| {
        vec![
            csv("fig11_producer", &f.producer_table("Figure 11")),
            csv("fig11_consumer", &f.consumer_table("Figure 11")),
            txt("fig11", f.render("Figure 11: 4-cycle, 128-byte bus")),
        ]
    });
    let f12 = s.figure("fig12", ex::fig12::run, |f| {
        vec![
            csv("fig12_producer", &f.producer_table()),
            csv("fig12_consumer", &f.consumer_table()),
            txt("fig12", f.render()),
        ]
    });
    s.figure("ablation", ex::ablation::run_all, |t| {
        vec![txt("ablation", t.clone())]
    });
    s.figure("scaling", ex::scaling::run, |t| {
        vec![txt("scaling", t.clone())]
    });
    if let (Some(f7), Some(f12)) = (f7, f12) {
        // Figure 7 columns: HEAVYWT, SYNCOPTI, EXISTING, MEMOPTI;
        // Figure 12 columns: HEAVYWT, SC+Q64, ...
        s.out.geomeans = Some((f7.geomean(1), f7.geomean(2), f12.geomean(1)));
    }
    s.out
}

/// Points the process-wide experiment engine at `dir` (cache and batch
/// artifacts) and latches it. The engine reads its environment once, on
/// first use; its in-memory hot layer is switched off so that emptying
/// the cache directory makes the next regeneration genuinely cold.
pub fn init_engine(dir: &Path) -> (PathBuf, PathBuf) {
    let cache = dir.join("figures_cache");
    let results = dir.join("figures_results");
    std::env::set_var("HFS_CACHE_DIR", &cache);
    std::env::set_var("HFS_RESULTS_DIR", &results);
    std::env::set_var("HFS_HOT_CACHE_MB", "0");
    let _ = engine();
    // Later caches in this process (the offline engines) keep the
    // default hot layer.
    std::env::remove_var("HFS_HOT_CACHE_MB");
    (cache, results)
}

/// The committed `results/*.txt` and `results/*.csv`, by file name.
pub fn committed_artifacts() -> Vec<Artifact> {
    let mut out: Vec<Artifact> = std::fs::read_dir("results")
        .expect("the repository's results/ directory")
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.ends_with(".txt") || name.ends_with(".csv")
        })
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read_to_string(e.path()).expect("committed artifact is UTF-8"),
            )
        })
        .collect();
    out.sort();
    out
}

/// Counts one operation per committed artifact: it passes if the
/// regeneration rendered the same bytes.
pub fn check_against(committed: &[Artifact], regen: &Regeneration, tally: &mut Tally) {
    for (name, want) in committed {
        let got = regen.files.iter().find(|(n, _)| n == name);
        tally.record(got.is_some_and(|(_, body)| body == want));
    }
}

/// The `figures_cold` workload.
pub struct FiguresCold {
    dir: PathBuf,
    cache: PathBuf,
    committed: Vec<Artifact>,
    jobs: u64,
    cycles: u64,
    tally: Tally,
}

impl FiguresCold {
    /// A workload keeping its cache and artifacts under `dir`.
    pub fn new(dir: &Path) -> FiguresCold {
        FiguresCold {
            dir: dir.to_path_buf(),
            cache: PathBuf::new(),
            committed: Vec::new(),
            jobs: 0,
            cycles: 0,
            tally: Tally::default(),
        }
    }

    fn cold_regeneration(&mut self, rec: &mut Recorder, op_id: u64) -> Regeneration {
        empty_and_settle(&self.cache);
        let before = engine().stats();
        rec.enter("bench", "regeneration", op_id);
        let regen = regenerate(rec, op_id);
        rec.exit();
        let after = engine().stats();
        self.jobs = after.jobs - before.jobs;
        self.cycles = after.sim_cycles - before.sim_cycles;
        regen
    }
}

impl Workload for FiguresCold {
    fn teardown(&mut self) {
        empty_and_settle(&self.dir);
    }

    fn setup(&mut self) {
        self.cache = init_engine(&self.dir).0;
        self.committed = committed_artifacts();
        // Warm-up: Figure 6 alone spawns the pool and pages in the
        // simulator. A whole regeneration, three set-ups a run, would
        // cost as much as the timed reps; the headline is the fastest
        // sample of each figure and does not see a slow first rep.
        empty_and_settle(&self.cache);
        let _ = catch_unwind(ex::fig6::run);
    }

    /// One part per figure call: a burst of interference then costs the
    /// figures it hit, not the whole regeneration.
    fn parts(&self) -> usize {
        FIGURES
    }

    fn rep(&mut self, rec: &mut Recorder, op_id: u64, out: &mut Vec<(usize, f64)>) {
        let regen = self.cold_regeneration(rec, op_id);
        assert_eq!(regen.fig_ms.len(), FIGURES, "one wall time per figure call");
        out.extend(regen.fig_ms.iter().map(|(_, ms)| ms / 1e3).enumerate());
        let committed = std::mem::take(&mut self.committed);
        check_against(&committed, &regen, &mut self.tally);
        self.committed = committed;
    }

    fn jobs_per_rep(&self) -> u64 {
        self.jobs
    }

    fn cycles_per_rep(&self) -> u64 {
        self.cycles
    }

    fn finish(&mut self, _notes: &mut Vec<String>) -> Tally {
        self.tally
    }

    fn layer_jobs(&self) -> Vec<Job> {
        // The Figure 6 batch: one short HEAVYWT job per benchmark and
        // transit delay — construction-heavy, like most figure jobs.
        let mut jobs = ex::fig6::jobs();
        jobs.truncate(12);
        jobs
    }
}
