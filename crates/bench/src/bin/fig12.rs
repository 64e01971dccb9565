//! Regenerates Figure 12 (SYNCOPTI optimizations).
fn main() {
    hfs_bench::experiments::Figure::named("fig12").print();
}
