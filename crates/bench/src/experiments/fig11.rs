//! Figure 11: the 4-cycle bus widened to 128 bytes.
//!
//! Widening the data path to a full line per bus cycle removes the
//! arbitration backlog of Figure 10, showing that *bandwidth*, not
//! latency, is what high-frequency streaming needs from the interconnect.

use crate::experiments::fig7::{designs, run_with, DesignSweep};

/// Runs the four designs with a 4-cycle, 128-byte bus.
pub fn run() -> DesignSweep {
    run_with("fig11", &designs(), |c| {
        c.with_bus_divider(4).with_bus_width(128)
    })
}
