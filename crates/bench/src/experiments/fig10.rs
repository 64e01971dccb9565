//! Figure 10: sensitivity to a 4-cycle bus (increased wire delay).
//!
//! The paper's §4.5 finding: tight-loop benchmarks (`adpcmdec`, `wc`,
//! `epicdec`) suffer most, and even the memory-intensive `mcf`/`equake`
//! show large BUS components from arbitration backlog, because a 128-byte
//! line takes 8 bus cycles = 32 CPU cycles on the 16-byte bus.

use crate::experiments::fig7::{designs, run_with, DesignSweep};

/// Runs the four designs with a bus clock divider of 4 (HEAVYWT's
/// dedicated interconnect slows to 4 cycles as well, as in the paper).
pub fn run() -> DesignSweep {
    run_with("fig10", &designs(), |c| c.with_bus_divider(4))
}
