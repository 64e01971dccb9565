//! Stale-golden guard: the committed Figure 7 renderings (the stall
//! breakdowns, which depend on every stall-attribution stamp the memory
//! system makes) must equal a fresh regeneration, byte for byte.

use std::fs;
use std::path::Path;

use hfs_bench::experiments::fig7;

#[test]
fn committed_fig7_matches_a_fresh_regeneration() {
    if std::env::var_os("HFS_QUICK").is_some() {
        eprintln!("skipped: HFS_QUICK caps iteration counts, the goldens are full runs");
        return;
    }
    // The engine reads its environment once, on first use; this is the
    // only test in this binary. A non-default protocol would render
    // other numbers under other file names.
    let out = std::env::temp_dir().join(format!("hfs_golden_results_{}", std::process::id()));
    fs::create_dir_all(&out).expect("create the temporary results directory");
    std::env::set_var("HFS_NO_CACHE", "1");
    std::env::set_var("HFS_NO_PROGRESS", "1");
    std::env::set_var("HFS_RESULTS_DIR", &out);
    std::env::remove_var("HFS_PROTOCOL");
    std::env::remove_var("HFS_VIA_SERVER");

    let f7 = fig7::run();
    let rendered = [
        (
            "fig7.txt",
            f7.render("Figure 7: design points, baseline bus"),
        ),
        ("fig7_producer.csv", f7.producer_table("Figure 7").to_csv()),
        ("fig7_consumer.csv", f7.consumer_table("Figure 7").to_csv()),
    ];
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for (name, body) in &rendered {
        fs::write(out.join(name), body).expect("write the regenerated file");
        let golden = fs::read_to_string(committed.join(name))
            .unwrap_or_else(|e| panic!("results/{name}: {e}"));
        assert!(
            *body == golden,
            "results/{name} is stale: a fresh render is in {}",
            out.display()
        );
    }
    let _ = fs::remove_dir_all(&out);
}
