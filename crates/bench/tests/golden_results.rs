//! Guards that drive the built binaries, each in its own process (the
//! engine reads its environment once, on first use).
//!
//! Stale-golden guard: every rendering committed under `results/` must
//! equal what `all_figures` writes today, byte for byte, and
//! `all_figures` must write no rendering that is not committed. The
//! figure list lives in `experiments::FIGURES` alone; no name is
//! repeated here.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use hfs_bench::experiments::FIGURES;
use hfs_bench::runner::QUICK_ITERATIONS;
use hfs_harness::{env_flag, from_text, read_sweep};

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hfs_{tag}_{}", std::process::id()))
}

fn committed_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// File name → bytes of every rendering in `dir`. The engine's own
/// leftovers in `results/` (`*.json` artifacts and `cache/`, both in
/// `.gitignore`) are not renderings.
fn renderings(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|ext| ext != "json"))
        .map(|p| {
            let name = p.file_name().expect("a file has a name");
            let bytes = fs::read(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (name.to_string_lossy().into_owned(), bytes)
        })
        .collect()
}

#[test]
fn committed_results_match_a_fresh_regeneration() {
    if env_flag("HFS_QUICK") {
        eprintln!("skipped: HFS_QUICK caps iteration counts, the goldens are full runs");
        return;
    }
    let tmp = scratch("golden_results");
    let out = tmp.join("out");
    // A non-default protocol or a metrics report would render other
    // numbers under other file names.
    let status = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .env("HFS_NO_CACHE", "1")
        .env("HFS_LOG", "warn")
        .env("HFS_RESULTS_DIR", tmp.join("json"))
        .env("HFS_OUT_DIR", &out)
        .env_remove("HFS_PROTOCOL")
        .env_remove("HFS_VIA_SERVER")
        .env_remove("HFS_METRICS")
        .env_remove("HFS_TRACE_DIR")
        .stdout(Stdio::null())
        .status()
        .expect("run all_figures");
    assert!(status.success(), "all_figures: {status}");

    let fresh = renderings(&out);
    let committed = renderings(&committed_dir());
    assert!(!committed.is_empty(), "results/ holds no rendering");
    let stale: BTreeSet<&String> = fresh
        .keys()
        .chain(committed.keys())
        .filter(|name| fresh.get(*name) != committed.get(*name))
        .collect();
    assert!(
        stale.is_empty(),
        "results/ is stale: {stale:?} differ from (or are missing on one side of) a fresh render in {}",
        out.display()
    );
    let _ = fs::remove_dir_all(&tmp);
}

/// The largest iteration count in `fig6 --dump-jobs` under `HFS_QUICK`
/// set to `quick` (unset for `None`).
fn dumped_iterations(quick: Option<&str>) -> u64 {
    let path = scratch(&format!("quick_{}", quick.unwrap_or("unset"))).with_extension("json");
    let mut fig6 = Command::new(env!("CARGO_BIN_EXE_fig6"));
    fig6.arg("--dump-jobs").arg(&path).stderr(Stdio::null());
    match quick {
        Some(v) => fig6.env("HFS_QUICK", v),
        None => fig6.env_remove("HFS_QUICK"),
    };
    assert!(fig6.status().expect("run fig6").success());
    let text = fs::read_to_string(&path).expect("fig6 wrote its sweep");
    let _ = fs::remove_file(&path);
    let (_, jobs) = from_text(&text, read_sweep).expect("sweep decodes");
    jobs.iter()
        .map(|j| j.pair.iterations)
        .max()
        .expect("a sweep has jobs")
}

#[test]
fn hfs_quick_reads_like_every_other_on_off_variable() {
    let full = dumped_iterations(None);
    assert!(full > QUICK_ITERATIONS, "fig6 runs {full} iterations");
    assert_eq!(dumped_iterations(Some("0")), full, "HFS_QUICK=0 is off");
    assert_eq!(dumped_iterations(Some("")), full, "HFS_QUICK= is off");
    assert_eq!(dumped_iterations(Some("1")), QUICK_ITERATIONS);
}

#[test]
fn an_empty_path_variable_means_its_default() {
    // Run where a stray file would show: an empty working directory.
    let cwd = scratch("empty_paths");
    let _ = fs::remove_dir_all(&cwd);
    fs::create_dir_all(&cwd).expect("create the working directory");
    let status = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .current_dir(&cwd)
        .env("HFS_QUICK", "1")
        .env("HFS_LOG", "warn")
        .env("HFS_CACHE_DIR", "")
        .env("HFS_RESULTS_DIR", "")
        .env("HFS_OUT_DIR", "")
        .env("HFS_TRACE_DIR", "")
        .env_remove("HFS_NO_CACHE")
        .env_remove("HFS_VIA_SERVER")
        .stdout(Stdio::null())
        .status()
        .expect("run all_figures");
    assert!(status.success(), "all_figures: {status}");
    let names = |dir: &Path| -> BTreeSet<String> {
        fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|entry| entry.expect("directory entry").file_name())
            .map(|name| name.to_string_lossy().into_owned())
            .collect()
    };
    // Cache shards, artifacts and renderings all went to the current
    // directory when "" was taken for a path.
    assert_eq!(names(&cwd), BTreeSet::from(["results".to_string()]));
    let results = names(&cwd.join("results"));
    assert!(results.contains("cache") && results.contains("fig9.json"));
    assert!(
        renderings(&cwd.join("results")).is_empty(),
        "HFS_OUT_DIR= writes no rendering"
    );
    let _ = fs::remove_dir_all(&cwd);
}

/// `harness_metrics.json` holds no wall-clock entry: two metrics runs of
/// one figure write it byte for byte alike.
#[test]
fn two_metrics_runs_write_the_same_harness_metrics() {
    let tmp = scratch("harness_metrics");
    let run = |tag: &str| -> Vec<u8> {
        let results = tmp.join(tag);
        let status = Command::new(env!("CARGO_BIN_EXE_all_figures"))
            .arg("fig6")
            .env("HFS_QUICK", "1")
            .env("HFS_NO_CACHE", "1")
            .env("HFS_METRICS", "1")
            .env("HFS_LOG", "warn")
            .env("HFS_RESULTS_DIR", &results)
            .env_remove("HFS_OUT_DIR")
            .env_remove("HFS_TRACE_DIR")
            .env_remove("HFS_VIA_SERVER")
            .stdout(Stdio::null())
            .status()
            .expect("run all_figures");
        assert!(status.success(), "all_figures: {status}");
        let path = results.join("harness_metrics.json");
        fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let first = run("a");
    assert!(String::from_utf8_lossy(&first).contains("\"harness.jobs\""));
    assert_eq!(first, run("b"), "harness_metrics.json differs between runs");
    let _ = fs::remove_dir_all(&tmp);
}

/// `FIGURES` declares exactly the renderings `results/` holds: a figure
/// without a golden, or a golden without a figure, fails.
#[test]
fn the_figure_table_names_every_committed_rendering() {
    let declared: BTreeSet<String> = FIGURES
        .iter()
        .flat_map(|f| {
            let csv = f.csv.iter().map(|stem| format!("{stem}.csv"));
            std::iter::once(format!("{}.txt", f.name)).chain(csv)
        })
        .collect();
    let committed: BTreeSet<String> = renderings(&committed_dir()).into_keys().collect();
    assert_eq!(declared, committed);
}

/// The figures that simulate nothing print their committed rendering,
/// byte for byte, when `all_figures` is asked for them alone.
#[test]
fn static_figures_print_their_goldens() {
    for name in ["table1", "table2", "fig3"] {
        let out = Command::new(env!("CARGO_BIN_EXE_all_figures"))
            .arg(name)
            .env_remove("HFS_OUT_DIR")
            .env_remove("HFS_PROTOCOL")
            .output()
            .unwrap_or_else(|e| panic!("run all_figures {name}: {e}"));
        assert!(out.status.success(), "all_figures {name}: {}", out.status);
        let golden = committed_dir().join(format!("{name}.txt"));
        let want = fs::read(&golden).unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
        assert!(
            out.stdout == want,
            "all_figures {name} prints other bytes than its golden"
        );
    }
}

#[test]
fn an_unknown_figure_name_fails_and_lists_the_valid_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .args(["table1", "fig99"])
        .output()
        .expect("run all_figures");
    assert!(!out.status.success(), "all_figures fig99 succeeded");
    assert!(
        out.stdout.is_empty(),
        "nothing runs before the names are checked"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fig99"), "{err}");
    for f in &FIGURES {
        assert!(err.contains(f.name), "`{}` missing from: {err}", f.name);
    }
}
