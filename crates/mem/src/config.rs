//! Memory-system configuration (Table 2 of the paper).

pub use hfs_check::Protocol;
use hfs_sim::ConfigError;

use crate::cache::CacheGeometry;

/// Shared-bus parameters.
///
/// The baseline machine uses a "16-byte, 1-cycle, 3-stage pipelined,
/// split-transaction bus with round robin arbitration" (Table 2). The
/// sensitivity studies of §4.5 raise the bus clock divider to 4
/// (Figure 10) and the width to 128 bytes (Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// Data-path width in bytes per bus cycle.
    pub width_bytes: u64,
    /// CPU cycles per bus cycle (1 = bus runs at core frequency).
    pub clock_divider: u64,
    /// Address-phase pipeline depth in bus cycles.
    pub pipeline_stages: u64,
    /// §4.2: make the memory-network arbiter favor application memory
    /// requests over inter-thread operand (streaming) traffic, decided
    /// by the memory area being accessed. Pipelined streaming tolerates
    /// the extra arbitration delay; application requests do not.
    pub favor_app_traffic: bool,
}

impl BusConfig {
    /// The Table 2 baseline: 16-byte wide, core-clocked, 3-stage.
    pub fn baseline() -> Self {
        BusConfig {
            width_bytes: 16,
            clock_divider: 1,
            pipeline_stages: 3,
            favor_app_traffic: false,
        }
    }

    /// Bus cycles needed to move `bytes` across the data path.
    pub fn data_cycles(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.width_bytes).max(1)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Rejects zero widths, dividers, or pipeline depths.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.width_bytes == 0 {
            return Err(ConfigError::new("bus width must be non-zero"));
        }
        if self.clock_divider == 0 {
            return Err(ConfigError::new("bus clock divider must be non-zero"));
        }
        if self.pipeline_stages == 0 {
            return Err(ConfigError::new("bus pipeline depth must be non-zero"));
        }
        Ok(())
    }
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig::baseline()
    }
}

/// Full memory-hierarchy configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// Number of cores (1 for single-threaded runs, 2 for the CMP).
    pub cores: u8,
    /// L1 data cache geometry (16 KB, 4-way, 64 B lines).
    pub l1d: CacheGeometry,
    /// L1D access latency in cycles.
    pub l1_latency: u64,
    /// Private L2 geometry (256 KB, 8-way, 128 B lines).
    pub l2: CacheGeometry,
    /// Minimum L2 access latency; actual latency is `min`, `min+2` or
    /// `min+4` chosen by address bank bits ("5,7,9 cycles" in Table 2).
    pub l2_latency_min: u64,
    /// L2 controller ports: accesses that may begin per CPU cycle.
    pub l2_ports: u32,
    /// OzQ (ordered transaction queue / MSHR) entries; Table 2's
    /// "Maximum Outstanding Loads - 16".
    pub ozq_entries: u32,
    /// Cycles between recirculation attempts for an op that failed to get
    /// an L2 port or is waiting for ownership (EXISTING/MEMOPTI behavior).
    pub recirc_interval: u64,
    /// Shared L3 geometry (1.5 MB, 12-way, 128 B lines).
    pub l3: CacheGeometry,
    /// L3 access latency in cycles ("> 12 cycles").
    pub l3_latency: u64,
    /// Main-memory latency in cycles (141).
    pub dram_latency: u64,
    /// Shared-bus parameters.
    pub bus: BusConfig,
    /// Snoop coherence protocol (MSI baseline, MESI, or Dragon update).
    pub protocol: Protocol,
}

impl MemConfig {
    /// The Table 2 baseline dual-core Itanium 2 CMP memory system.
    pub fn itanium2_cmp() -> Self {
        MemConfig {
            cores: 2,
            l1d: CacheGeometry::new(16 * 1024, 4, 64),
            l1_latency: 1,
            l2: CacheGeometry::new(256 * 1024, 8, 128),
            l2_latency_min: 5,
            l2_ports: 4,
            ozq_entries: 16,
            recirc_interval: 4,
            l3: CacheGeometry::new(1536 * 1024, 12, 128),
            l3_latency: 13,
            dram_latency: 141,
            bus: BusConfig::baseline(),
            protocol: Protocol::Msi,
        }
    }

    /// Same machine with a single core, for the paper's single-threaded
    /// baseline (Figure 9).
    pub fn itanium2_single() -> Self {
        MemConfig {
            cores: 1,
            ..Self::itanium2_cmp()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found (zero cores, invalid cache
    /// geometry, L2 line smaller than L1 line, etc.).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::new("at least one core is required"));
        }
        if self.cores > 8 {
            return Err(ConfigError::new(
                "the shared-bus model supports at most 8 cores",
            ));
        }
        self.l1d.validate()?;
        self.l2.validate()?;
        self.l3.validate()?;
        if self.l2.line_bytes < self.l1d.line_bytes {
            return Err(ConfigError::new(
                "L2 line size must be at least the L1 line size",
            ));
        }
        if self.l3.line_bytes != self.l2.line_bytes {
            return Err(ConfigError::new("L3 and L2 line sizes must match"));
        }
        if self.l2_ports == 0 {
            return Err(ConfigError::new("L2 must have at least one port"));
        }
        if self.ozq_entries == 0 {
            return Err(ConfigError::new("OzQ must have at least one entry"));
        }
        if self.recirc_interval == 0 {
            return Err(ConfigError::new("recirculation interval must be non-zero"));
        }
        self.bus.validate()
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::itanium2_cmp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates() {
        assert!(MemConfig::itanium2_cmp().validate().is_ok());
        assert!(MemConfig::itanium2_single().validate().is_ok());
    }

    #[test]
    fn bus_data_cycles() {
        let b = BusConfig::baseline();
        assert_eq!(b.data_cycles(128), 8);
        assert_eq!(b.data_cycles(16), 1);
        assert_eq!(b.data_cycles(1), 1);
        let wide = BusConfig {
            width_bytes: 128,
            ..b
        };
        assert_eq!(wide.data_cycles(128), 1);
    }

    #[test]
    fn bus_rejects_zeroes() {
        let mut b = BusConfig::baseline();
        b.width_bytes = 0;
        assert!(b.validate().is_err());
        let mut b = BusConfig::baseline();
        b.clock_divider = 0;
        assert!(b.validate().is_err());
        let mut b = BusConfig::baseline();
        b.pipeline_stages = 0;
        assert!(b.validate().is_err());
    }

    #[test]
    fn config_rejects_bad_shapes() {
        let mut c = MemConfig::itanium2_cmp();
        c.cores = 0;
        assert!(c.validate().is_err());

        let mut c = MemConfig::itanium2_cmp();
        c.l2 = CacheGeometry::new(256 * 1024, 8, 32); // smaller than L1 line
        assert!(c.validate().is_err());

        let mut c = MemConfig::itanium2_cmp();
        c.l3 = CacheGeometry::new(1536 * 1024, 12, 64); // mismatched lines
        assert!(c.validate().is_err());

        let mut c = MemConfig::itanium2_cmp();
        c.ozq_entries = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn protocol_labels_round_trip() {
        for p in Protocol::ALL {
            assert_eq!(Protocol::parse(p.label()), Some(p));
            assert_eq!(Protocol::parse(&p.label().to_uppercase()), Some(p));
        }
        assert_eq!(Protocol::parse("mosi"), None);
        assert_eq!(Protocol::default(), Protocol::Msi);
    }

    #[test]
    fn l2_bank_latencies_cover_5_7_9() {
        // The configured minimum plus the L2's bank offset: time a load
        // hit on six consecutive lines.
        use crate::l2::{EntryKind, L2Ctl};
        use hfs_isa::{Addr, CoreId};
        use hfs_sim::Cycle;
        let c = MemConfig::itanium2_cmp();
        let hit_latency = |n: u64| {
            let mut l2 = L2Ctl::new(
                CoreId(0),
                c.l2,
                c.l2_latency_min,
                c.l2_ports,
                c.ozq_entries,
                c.recirc_interval,
            )
            .unwrap();
            let addr = Addr::new(n * c.l2.line_bytes);
            l2.fill(l2.line_of(addr), crate::LineState::Shared, Cycle::new(0));
            l2.allocate(addr, EntryKind::Load, false, false, Cycle::new(0));
            let mut out = Vec::new();
            (0..16)
                .find(|&t| {
                    l2.tick(Cycle::new(t), &mut out);
                    !out.is_empty()
                })
                .expect("the load hits")
        };
        let lats: std::collections::HashSet<u64> = (0..6).map(hit_latency).collect();
        assert_eq!(lats, [5, 7, 9].into_iter().collect());
    }
}
