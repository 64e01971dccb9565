//! Regenerates every table and figure in one run.
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
//! executed job; `--trace <path>` records a Perfetto-loadable trace of
//! one demo design point. A figure that fails (watchdog timeout,
//! deadlock) is reported and skipped; the run continues, exits nonzero,
//! and an immediate re-run resumes from the cache.

use std::fs;
use std::path::PathBuf;

use hfs_bench::experiments as ex;
use hfs_bench::runner::{engine, protocol_suffixed};
use hfs_bench::table::TextTable;

struct Sink {
    dir: Option<PathBuf>,
}

impl Sink {
    fn new() -> Self {
        let dir = hfs_harness::env_path("HFS_OUT_DIR");
        if let Some(d) = &dir {
            fs::create_dir_all(d).expect("create HFS_OUT_DIR");
        }
        Sink { dir }
    }

    fn text(&self, name: &str, body: &str) {
        print!("{body}");
        println!();
        if let Some(d) = &self.dir {
            // Non-MSI sweeps write `<name>__<protocol>.txt`, keeping the
            // committed MSI goldens untouched.
            let name = protocol_suffixed(name);
            fs::write(d.join(format!("{name}.txt")), body).expect("write artifact");
        }
    }

    fn csv(&self, name: &str, table: &TextTable) {
        if let Some(d) = &self.dir {
            let name = protocol_suffixed(name);
            fs::write(d.join(format!("{name}.csv")), table.to_csv()).expect("write csv");
        }
    }
}

/// Runs one figure, converting a panic (failed batch, model bug) into a
/// reported failure instead of aborting the whole regeneration.
fn figure(name: &str, failed: &mut Vec<String>, f: impl FnOnce() + std::panic::UnwindSafe) {
    if std::panic::catch_unwind(f).is_err() {
        // The panic payload was already printed by the default hook.
        hfs_obs::error("bench", "figure_failed", &[("figure", name.into())]);
        failed.push(name.to_string());
    }
}

fn main() {
    let sink = Sink::new();
    let mut failed = Vec::new();

    figure("table1", &mut failed, || {
        let t1 = ex::table1::run();
        sink.csv("table1", &t1);
        sink.text("table1", &t1.render());
    });

    figure("table2", &mut failed, || {
        sink.text("table2", &ex::table2::run());
    });

    figure("fig3", &mut failed, || {
        sink.text("fig3", &ex::fig3::run().render());
    });

    figure("fig6", &mut failed, || {
        let f6 = ex::fig6::run();
        sink.csv("fig6", &f6.table());
        sink.text("fig6", &f6.render());
    });

    figure("fig7", &mut failed, || {
        let f7 = ex::fig7::run();
        sink.csv("fig7_producer", &f7.producer_table("Figure 7"));
        sink.csv("fig7_consumer", &f7.consumer_table("Figure 7"));
        sink.text("fig7", &f7.render("Figure 7: design points, baseline bus"));
    });

    figure("fig8", &mut failed, || {
        let f8 = ex::fig8::run();
        sink.csv("fig8", &f8.table());
        sink.text("fig8", &f8.render());
    });

    figure("fig9", &mut failed, || {
        let f9 = ex::fig9::run();
        sink.csv("fig9", &f9.table());
        sink.text("fig9", &f9.render());
    });

    figure("fig10", &mut failed, || {
        let f10 = ex::fig10::run();
        sink.csv("fig10_producer", &f10.producer_table("Figure 10"));
        sink.csv("fig10_consumer", &f10.consumer_table("Figure 10"));
        sink.text("fig10", &f10.render("Figure 10: 4-cycle bus"));
    });

    figure("fig11", &mut failed, || {
        let f11 = ex::fig11::run();
        sink.csv("fig11_producer", &f11.producer_table("Figure 11"));
        sink.csv("fig11_consumer", &f11.consumer_table("Figure 11"));
        sink.text("fig11", &f11.render("Figure 11: 4-cycle, 128-byte bus"));
    });

    figure("fig12", &mut failed, || {
        let f12 = ex::fig12::run();
        sink.csv("fig12_producer", &f12.producer_table());
        sink.csv("fig12_consumer", &f12.consumer_table());
        sink.text("fig12", &f12.render());
    });

    figure("ablation", &mut failed, || {
        sink.text("ablation", &ex::ablation::run_all());
    });

    figure("scaling", &mut failed, || {
        sink.text("scaling", &ex::scaling::run());
    });

    // The multi-line cache/pool summary is a human report, not a log
    // line; it still honors the logger's level so `HFS_LOG=warn`
    // silences routine chatter.
    if hfs_obs::logger().enabled(hfs_obs::Level::Info) {
        eprintln!("{}", engine().summary());
    }
    if engine().metrics_enabled() {
        if let Some(dir) = engine().results_dir() {
            fs::create_dir_all(dir).expect("create results dir");
            let json = hfs_harness::metrics_to_json(&engine().metrics_report()).to_pretty();
            let path = dir.join("harness_metrics.json");
            fs::write(&path, json).expect("write harness metrics");
            hfs_obs::info(
                "bench",
                "metrics_written",
                &[("path", path.display().to_string().into())],
            );
        }
    }
    if let Some(p) = hfs_bench::runner::maybe_write_demo_trace() {
        hfs_obs::info(
            "bench",
            "trace_written",
            &[("path", p.display().to_string().into())],
        );
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
