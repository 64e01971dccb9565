//! `hfs-check`: what the full machine checker costs. It is off in every
//! workload; this row sizes the CI legs that turn it on.

use std::time::Instant;

use hfs_core::{CheckLevel, DesignPoint, Machine, MachineConfig};

use crate::layers::Ledger;

/// The `check.*` row: `Machine::run` with `CheckLevel::Full` ÷ unchecked,
/// on fir under a software-queue and a hardware-queue design.
pub fn measure(l: &mut Ledger) {
    let pair = hfs_workloads::benchmark("fir")
        .expect("fir is a registered benchmark")
        .with_iterations(2_000)
        .pair;
    let (mut checked_s, mut plain_s) = (0.0, 0.0);
    for design in [DesignPoint::existing(), DesignPoint::heavywt()] {
        let cfg = MachineConfig::itanium2_cmp(design);
        let run = |level: Option<CheckLevel>| {
            let mut m = Machine::new_pipeline(&cfg, &pair).expect("fir builds");
            if let Some(level) = level {
                m.set_check_level(level);
            }
            let t = Instant::now();
            let r = m.run(hfs_harness::DEFAULT_MAX_CYCLES).expect("fir runs");
            (t.elapsed().as_secs_f64(), r.cycles, r.checked)
        };
        let (plain, want, _) = run(None);
        let (checked, got, audited) = run(Some(CheckLevel::Full));
        l.check(
            got == want && audited,
            "the checked run was not audited or its cycle count differs",
        );
        plain_s += plain;
        checked_s += checked;
    }
    l.put("check.full_overhead_ratio", checked_s / plain_s, 2);
}
