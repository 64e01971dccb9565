//! Regenerates Table 1.
fn main() {
    hfs_bench::experiments::Figure::named("table1").print();
}
