//! Regenerates every table and figure in one run: each row of
//! `experiments::FIGURES`, in order.
//!
//! All simulation work routes through the shared `hfs-harness` engine:
//! jobs run in parallel (`HFS_JOBS` workers), completed runs land in the
//! on-disk cache (`HFS_CACHE_DIR`, default `results/cache`), and each
//! experiment's machine-readable artifact is written to
//! `HFS_RESULTS_DIR` (default `results`).
//!
//! Set `HFS_OUT_DIR=<dir>` to additionally write each rendered figure as
//! a `.txt` file and each underlying table as a `.csv`.
//!
//! Observability hooks: `HFS_METRICS=1` attaches a metrics report to
//! every run in the artifacts and writes `harness_metrics.json`;
//! `HFS_TRACE_DIR=<dir>` additionally exports a Chrome trace per
//! executed job. A figure that fails (watchdog timeout, deadlock) is
//! reported and skipped; the run continues, exits nonzero, and an
//! immediate re-run resumes from the cache.

use std::fs;

use hfs_bench::experiments::FIGURES;
use hfs_bench::runner::engine;

fn main() {
    let mut failed = Vec::new();
    for fig in &FIGURES {
        // A failed batch or a model bug panics; the default hook has
        // already printed the payload, so the figure is only reported.
        if std::panic::catch_unwind(|| {
            fig.print();
            println!();
        })
        .is_err()
        {
            hfs_obs::error("bench", "figure_failed", &[("figure", fig.name.into())]);
            failed.push(fig.name);
        }
    }

    // The multi-line cache/pool summary is a human report, not a log
    // line; it still honors the logger's level so `HFS_LOG=warn`
    // silences routine chatter.
    if hfs_obs::logger().enabled(hfs_obs::Level::Info) {
        eprintln!("{}", engine().summary());
    }
    if engine().metrics_enabled() {
        if let Some(dir) = engine().results_dir() {
            fs::create_dir_all(dir).expect("create results dir");
            let report = engine().metrics_report();
            let json = hfs_harness::to_text(true, |s| hfs_harness::write_metrics(s, &report));
            let path = dir.join("harness_metrics.json");
            fs::write(&path, json).expect("write harness metrics");
            hfs_obs::info(
                "bench",
                "metrics_written",
                &[("path", path.display().to_string().into())],
            );
        }
    }
    if !failed.is_empty() {
        hfs_obs::error(
            "bench",
            "figures_failed",
            &[
                ("count", failed.len().into()),
                ("figures", failed.join(",").into()),
            ],
        );
        std::process::exit(1);
    }
}
