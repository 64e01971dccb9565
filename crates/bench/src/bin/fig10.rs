//! Regenerates Figure 10 (4-cycle bus).
fn main() {
    hfs_bench::experiments::Figure::named("fig10").print();
}
