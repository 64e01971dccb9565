//! Regenerates Figure 7 (design-point comparison).
fn main() {
    hfs_bench::experiments::Figure::named("fig7").print();
}
