//! Regenerates Figure 3 (analytic model).
fn main() {
    hfs_bench::experiments::Figure::named("fig3").print();
}
