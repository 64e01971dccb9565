//! CMP scaling sweep: 1-4 concurrent pipelines per design point.
fn main() {
    hfs_bench::experiments::Figure::named("scaling").print();
}
