//! Regenerates Table 2.
fn main() {
    hfs_bench::experiments::Figure::named("table2").print();
}
