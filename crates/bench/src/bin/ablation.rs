//! Runs every design-choice ablation sweep.
fn main() {
    hfs_bench::experiments::Figure::named("ablation").print();
}
