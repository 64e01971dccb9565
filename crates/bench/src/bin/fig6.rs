//! Regenerates Figure 6 (transit-delay sensitivity).
//!
//! Pass `--dump-jobs <path>` to write the figure's sweep spec as JSON
//! (for `hfs-client submit`) instead of simulating.
fn main() {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--dump-jobs" {
            let path = args.next().unwrap_or_else(|| {
                eprintln!("fig6: --dump-jobs requires a path");
                std::process::exit(2);
            });
            let jobs = hfs_bench::experiments::fig6::jobs();
            let spec = hfs_harness::to_text(true, |s| hfs_harness::write_sweep(s, "fig6", &jobs));
            if let Err(e) = std::fs::write(&path, spec) {
                eprintln!("fig6: failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("fig6: wrote {} jobs to {path}", jobs.len());
            return;
        }
    }
    hfs_bench::experiments::Figure::named("fig6")
        .expect("fig6 is a row of FIGURES")
        .print();
}
