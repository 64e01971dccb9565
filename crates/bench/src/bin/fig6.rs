//! Regenerates Figure 6 (transit-delay sensitivity).
//!
//! Pass `--trace <path>` to also record a Chrome trace of the demo
//! HEAVYWT design point, loadable in Perfetto.
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
            let spec = hfs_harness::sweep_to_json("fig6", &jobs).to_pretty();
            if let Err(e) = std::fs::write(&path, spec) {
                eprintln!("fig6: failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("fig6: wrote {} jobs to {path}", jobs.len());
            return;
        }
    }
    print!("{}", hfs_bench::experiments::fig6::run().render());
    if let Some(p) = hfs_bench::runner::maybe_write_demo_trace() {
        eprintln!("fig6: wrote demo trace to {}", p.display());
    }
}
