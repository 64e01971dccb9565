//! Regenerates Figure 9 (speedup over single-threaded).
fn main() {
    hfs_bench::experiments::Figure::named("fig9").print();
}
