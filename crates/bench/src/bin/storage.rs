//! Prints the §6 storage/OS-cost comparison across the design space.
use hfs_bench::table::TextTable;
use hfs_core::storage::{sc_q64_storage_fraction, storage_cost};
use hfs_core::DesignPoint;

fn main() {
    let mut t = TextTable::new(
        "Dedicated storage and OS context cost per design point",
        &[
            "design",
            "added storage (B)",
            "OS context (B)",
            "new interconnect",
        ],
    );
    for d in DesignPoint::paper_points() {
        let c = storage_cost(&d);
        t.row(vec![
            d.label(),
            c.added_storage_bytes.to_string(),
            c.os_context_bytes.to_string(),
            if c.needs_new_interconnect {
                "yes"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "SC+Q64 uses {:.1}% of HEAVYWT's added storage (paper: ~1%)",
        sc_q64_storage_fraction() * 100.0
    );
}
