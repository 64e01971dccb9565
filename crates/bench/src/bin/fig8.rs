//! Regenerates Figure 8 (communication frequency).
fn main() {
    hfs_bench::experiments::Figure::named("fig8").print();
}
