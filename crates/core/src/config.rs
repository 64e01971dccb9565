//! Whole-machine configuration (Table 2 plus a design point).

use hfs_cpu::CoreConfig;
use hfs_mem::{MemConfig, Protocol};
use hfs_sim::ConfigError;

use crate::design::DesignPoint;

/// Configuration of the simulated CMP: cores, memory hierarchy, streaming
/// design point, and run control.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Memory-hierarchy parameters.
    pub mem: MemConfig,
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// The streaming-support design point under evaluation.
    pub design: DesignPoint,
    /// Seed for workload address randomness (deterministic per seed).
    pub seed: u64,
    /// Abort the run if no core commits for this many cycles.
    pub deadlock_cycles: u64,
}

impl MachineConfig {
    /// The paper's baseline dual-core Itanium 2 CMP running `design`.
    pub fn itanium2_cmp(design: DesignPoint) -> Self {
        MachineConfig {
            mem: MemConfig::itanium2_cmp(),
            core: CoreConfig::itanium2(),
            design,
            seed: 0x5eed,
            deadlock_cycles: 200_000,
        }
    }

    /// A single-core machine for the Figure 9 single-threaded baseline.
    pub fn itanium2_single() -> Self {
        MachineConfig {
            mem: MemConfig::itanium2_single(),
            // The design point is irrelevant without communication.
            ..Self::itanium2_cmp(DesignPoint::heavywt())
        }
    }

    /// Applies the §4.5 slow-bus sensitivity setting (4-cycle bus;
    /// Figure 10). A dedicated interconnect (HEAVYWT's, which REGMAPPED
    /// shares) slows to 4 cycles as well, as in the paper.
    #[must_use]
    pub fn with_bus_divider(mut self, divider: u64) -> Self {
        self.mem.bus.clock_divider = divider;
        if let Some(transit) = self.design.dedicated_transit_mut() {
            *transit = (*transit).max(divider);
        }
        self
    }

    /// Applies the §4.5 wide-bus setting (Figure 11).
    #[must_use]
    pub fn with_bus_width(mut self, width_bytes: u64) -> Self {
        self.mem.bus.width_bytes = width_bytes;
        self
    }

    /// Validates all components together.
    ///
    /// # Errors
    ///
    /// Propagates component validation failures.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.mem.validate()?;
        crate::addr_map::check_line(&self.mem)?;
        self.core.validate()?;
        self.design.validate()
    }

    /// Renders the Table 2 baseline-simulator description for this
    /// configuration.
    pub fn describe(&self) -> String {
        let m = &self.mem;
        let c = &self.core;
        let b = &m.bus;
        // The MSI string is byte-frozen: it appears verbatim in the
        // committed `results/table2.txt` golden.
        let coherence = match m.protocol {
            Protocol::Msi => "snoop-based, write-invalidate (MSI)",
            Protocol::Mesi => "snoop-based, write-invalidate (MESI)",
            Protocol::Dragon => "snoop-based, write-update (Dragon)",
        };
        format!(
            "Core            : {}-issue in-order, {} ALU, {} Memory, {} FP, {} Branch\n\
             L1D Cache       : {} cycle, {} KB, {}-way, {} B lines, write-through\n\
             L2 Cache        : {},{},{} cycles, {} KB, {}-way, {} B lines, write-back\n\
             Max Outstanding : {}\n\
             Shared L3 Cache : {} cycles, {} KB, {}-way, {} B lines, write-back\n\
             Main Memory     : {} cycles\n\
             Coherence       : {coherence}\n\
             L3 Bus          : {}-byte, {}-cycle, {}-stage pipelined, split-transaction,\n\
             \x20                round-robin arbitration\n\
             Design point    : {}",
            c.issue_width,
            c.int_alus,
            c.mem_ports,
            c.fp_units,
            c.branch_units,
            m.l1_latency,
            m.l1d.bytes / 1024,
            m.l1d.ways,
            m.l1d.line_bytes,
            m.l2_latency_min,
            m.l2_latency_min + 2,
            m.l2_latency_min + 4,
            m.l2.bytes / 1024,
            m.l2.ways,
            m.l2.line_bytes,
            m.ozq_entries,
            m.l3_latency,
            m.l3.bytes / 1024,
            m.l3.ways,
            m.l3.line_bytes,
            m.dram_latency,
            b.width_bytes,
            b.clock_divider,
            b.pipeline_stages,
            self.design,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_validate() {
        assert!(MachineConfig::itanium2_cmp(DesignPoint::existing())
            .validate()
            .is_ok());
        assert!(MachineConfig::itanium2_single().validate().is_ok());
    }

    #[test]
    fn describe_names_the_protocol() {
        let mut c = MachineConfig::itanium2_cmp(DesignPoint::existing());
        assert!(c.describe().contains("write-invalidate (MSI)"));
        c.mem.protocol = Protocol::Mesi;
        assert!(c.describe().contains("write-invalidate (MESI)"));
        c.mem.protocol = Protocol::Dragon;
        assert!(c.describe().contains("write-update (Dragon)"));
    }

    #[test]
    fn bus_modifiers_apply() {
        let c = MachineConfig::itanium2_cmp(DesignPoint::heavywt())
            .with_bus_divider(4)
            .with_bus_width(128);
        assert_eq!(c.mem.bus.clock_divider, 4);
        assert_eq!(c.mem.bus.width_bytes, 128);
        assert_eq!(c.design, DesignPoint::heavywt_with_transit(4));
    }

    #[test]
    fn a_slow_bus_slows_every_dedicated_interconnect() {
        use crate::design::Mechanism;
        for d in DesignPoint::paper_points() {
            let slowed = MachineConfig::itanium2_cmp(d).with_bus_divider(4).design;
            match slowed.mechanism() {
                Mechanism::Dedicated(hw) => assert_eq!(hw.transit, 4, "{d}"),
                _ => assert_eq!(slowed, d, "{d} has no interconnect of its own"),
            }
        }
        // Never faster than the design asked for.
        let c = MachineConfig::itanium2_cmp(DesignPoint::heavywt_with_transit(10));
        assert_eq!(
            c.with_bus_divider(4).design,
            DesignPoint::heavywt_with_transit(10)
        );
    }

    #[test]
    fn describe_mentions_key_numbers() {
        let d = MachineConfig::itanium2_cmp(DesignPoint::syncopti()).describe();
        assert!(d.contains("6-issue"));
        assert!(d.contains("256 KB"));
        assert!(d.contains("141 cycles"));
        assert!(d.contains("SYNCOPTI"));
        assert!(d.contains("16-byte"));
    }

    #[test]
    fn single_core_config_has_one_core() {
        assert_eq!(MachineConfig::itanium2_single().mem.cores, 1);
    }
}
