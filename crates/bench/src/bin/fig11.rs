//! Regenerates Figure 11 (4-cycle, 128-byte bus).
fn main() {
    hfs_bench::experiments::Figure::named("fig11").print();
}
