//! The design space of §3–§4: four streaming-support design points.
//!
//! This is the one file that names a [`DesignPoint`] variant. Every
//! design-dependent fact another layer needs — queue memory layout,
//! backend mechanism, forwarding, wire form, bounds — is a method here.

use std::fmt;

use hfs_isa::{program::QueueMemLayout, QueueId};
use hfs_sim::ConfigError;

use crate::addr_map;

// Upper bounds on what a backend allocates from, loops over or adds to a
// cycle count: a spec from the wire must fail validation, not exhaust
// memory. Each is at least 8x the largest value any committed experiment,
// test or example uses (depth 64, transit 20, 4 ports, latency 12,
// spill 8). Memory-backed depth is bounded by a queue's span instead.
const MAX_QUEUE_DEPTH: u32 = 1024;
const MAX_TRANSIT: u64 = 256;
const MAX_SA_OPS_PER_CYCLE: u32 = 64;
const MAX_SA_LATENCY: u64 = 256;
pub(crate) const MAX_SPILL_OPS: u32 = 256;

/// Software-queue parameters (EXISTING/MEMOPTI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftwareConfig {
    /// Queue layout unit: slots per 128-byte cache line (Figure 5).
    /// 8 co-locates eight 8-byte datum + 8-byte flag pairs per line
    /// (dense, subject to false sharing); 1 pads each slot to a full
    /// line (no false sharing, wasted cache). The paper evaluated both
    /// and found QLU 8 uniformly better (§4.3).
    pub qlu: u32,
}

impl Default for SoftwareConfig {
    fn default() -> Self {
        SoftwareConfig { qlu: 8 }
    }
}

/// Register-mapped queue parameters (§3.1.3, iWarp/Raw style).
///
/// Communication rides existing instructions (a reserved register range
/// addresses the queues), so produce/consume cost no issue slots or
/// memory ports — but the split register space raises pressure, adding
/// spill/fill code for loops with many live values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegMappedConfig {
    /// Queue depth in entries.
    pub queue_depth: u32,
    /// Dedicated-interconnect transit in cycles.
    pub transit: u64,
    /// Backing-store operations per cycle.
    pub sa_ops_per_cycle: u32,
    /// Spill/fill pairs added per loop iteration by the reduced
    /// architectural register space (0 = enough registers remain).
    pub spill_ops: u32,
}

impl Default for RegMappedConfig {
    fn default() -> Self {
        RegMappedConfig {
            queue_depth: 32,
            transit: 1,
            sa_ops_per_cycle: 4,
            spill_ops: 0,
        }
    }
}

/// SYNCOPTI parameters (§4.2 and the §5 optimizations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncOptiConfig {
    /// Queue depth in entries (32 baseline; 64 for the Q64 optimization).
    pub queue_depth: u32,
    /// Queue layout unit: entries per 128-byte cache line (8 baseline;
    /// 16 for Q64's denser packing of 8-byte items).
    pub qlu: u32,
    /// Whether the 1 KB fully-associative stream cache is present (SC).
    pub stream_cache: bool,
}

impl Default for SyncOptiConfig {
    fn default() -> Self {
        SyncOptiConfig {
            queue_depth: 32,
            qlu: 8,
            stream_cache: false,
        }
    }
}

/// HEAVYWT parameters (§4.1): the synchronization-array design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyWtConfig {
    /// Queue depth in entries (32 baseline; 64 in Figure 6's third bar).
    pub queue_depth: u32,
    /// End-to-end latency of the dedicated pipelined interconnect in
    /// cycles (1 baseline; 10 in Figure 6; 4 in Figure 10).
    pub transit: u64,
    /// Synchronization-array operations serviced per cycle (4 in §4.3).
    pub sa_ops_per_cycle: u32,
    /// Consume-to-use latency of the backing store in cycles: 1 for the
    /// distributed store at the consumer core; larger for a centralized
    /// store physically farther from the cores (§3.5.2).
    pub sa_latency: u64,
}

impl HeavyWtConfig {
    /// Validates the parameters: each must be between 1 and its bound.
    ///
    /// # Errors
    ///
    /// Names the first parameter out of range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let within = |what: &str, v: u64, max: u64| {
            if v == 0 || v > max {
                let bounds = format!("{what} must be between 1 and {max}");
                return Err(ConfigError::new(bounds));
            }
            Ok(())
        };
        within(
            "queue depth",
            self.queue_depth.into(),
            MAX_QUEUE_DEPTH.into(),
        )?;
        within("transit delay in cycles", self.transit, MAX_TRANSIT)?;
        within(
            "synchronization-array ports",
            self.sa_ops_per_cycle.into(),
            MAX_SA_OPS_PER_CYCLE.into(),
        )?;
        within(
            "backing-store latency in cycles",
            self.sa_latency,
            MAX_SA_LATENCY,
        )
    }
}

impl Default for HeavyWtConfig {
    fn default() -> Self {
        HeavyWtConfig {
            queue_depth: 32,
            transit: 1,
            sa_ops_per_cycle: 4,
            sa_latency: 1,
        }
    }
}

/// One point in the streaming-support design space.
///
/// # Example
///
/// ```
/// use hfs_core::DesignPoint;
///
/// let d = DesignPoint::syncopti_sc_q64();
/// assert_eq!(d.label(), "SYNCOPTI+SC+Q64");
/// assert_eq!(d.queue_depth(), 64);
/// assert!(!d.is_software());
/// assert!(d.write_forwards());
/// assert!(d.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignPoint {
    /// Conventional shared-memory software queues (baseline commercial
    /// CMP).
    Existing(SoftwareConfig),
    /// Software queues plus L2 write-forwarding.
    MemOpti(SoftwareConfig),
    /// Produce/consume instructions with occupancy-counter
    /// synchronization over the existing memory system.
    SyncOpti(SyncOptiConfig),
    /// Dedicated synchronization-array backing store and interconnect.
    HeavyWt(HeavyWtConfig),
    /// Register-mapped queues over dedicated hardware (§3.1.3).
    RegMapped(RegMappedConfig),
}

/// What carries a design's produce/consume: the three backends, with the
/// parameters each is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mechanism {
    /// Load/store sequences on flagged slots in shared memory.
    Software(SoftwareConfig),
    /// Produce/consume instructions over the memory system.
    SyncOpti(SyncOptiConfig),
    /// Produce/consume on a dedicated store and interconnect.
    Dedicated(HeavyWtConfig),
}

impl DesignPoint {
    /// The points the paper names, in its order: the four of §4, the §5
    /// SYNCOPTI optimizations, and §3.1.3's register-mapped variant.
    pub fn paper_points() -> [DesignPoint; 8] {
        [
            Self::existing(),
            Self::memopti(),
            Self::syncopti(),
            Self::syncopti_sc(),
            Self::syncopti_q64(),
            Self::syncopti_sc_q64(),
            Self::heavywt(),
            Self::regmapped(0),
        ]
    }

    /// The EXISTING baseline (QLU 8).
    pub fn existing() -> Self {
        DesignPoint::Existing(SoftwareConfig::default())
    }

    /// EXISTING with an explicit queue layout unit (Figure 5 sweep).
    pub fn existing_with_qlu(qlu: u32) -> Self {
        DesignPoint::Existing(SoftwareConfig { qlu })
    }

    /// The MEMOPTI write-forwarding variant (QLU 8).
    pub fn memopti() -> Self {
        DesignPoint::MemOpti(SoftwareConfig::default())
    }

    /// MEMOPTI with an explicit queue layout unit.
    pub fn memopti_with_qlu(qlu: u32) -> Self {
        DesignPoint::MemOpti(SoftwareConfig { qlu })
    }

    /// Register-mapped queues with a given spill/fill burden.
    pub fn regmapped(spill_ops: u32) -> Self {
        DesignPoint::RegMapped(RegMappedConfig {
            spill_ops,
            ..RegMappedConfig::default()
        })
    }

    /// HEAVYWT with a *centralized* dedicated store: same hardware, but
    /// the single shared structure sits farther from the cores, raising
    /// the consume-to-use latency (§3.5.2).
    pub fn heavywt_centralized(sa_latency: u64) -> Self {
        DesignPoint::HeavyWt(HeavyWtConfig {
            sa_latency,
            ..HeavyWtConfig::default()
        })
    }

    /// Baseline SYNCOPTI (32-entry queues, QLU 8, no stream cache).
    pub fn syncopti() -> Self {
        DesignPoint::SyncOpti(SyncOptiConfig::default())
    }

    /// SYNCOPTI with 64-entry queues and QLU 16 (the Q64 optimization).
    pub fn syncopti_q64() -> Self {
        DesignPoint::SyncOpti(SyncOptiConfig {
            queue_depth: 64,
            qlu: 16,
            ..SyncOptiConfig::default()
        })
    }

    /// SYNCOPTI with the 1 KB stream cache (SC).
    pub fn syncopti_sc() -> Self {
        DesignPoint::SyncOpti(SyncOptiConfig {
            stream_cache: true,
            ..SyncOptiConfig::default()
        })
    }

    /// SYNCOPTI with both optimizations (SC+Q64) — the paper's proposed
    /// design, within 2% of HEAVYWT.
    pub fn syncopti_sc_q64() -> Self {
        DesignPoint::SyncOpti(SyncOptiConfig {
            queue_depth: 64,
            qlu: 16,
            stream_cache: true,
        })
    }

    /// Baseline HEAVYWT (1-cycle dedicated interconnect, 32 entries).
    pub fn heavywt() -> Self {
        DesignPoint::HeavyWt(HeavyWtConfig::default())
    }

    /// HEAVYWT with a given interconnect transit delay (Figure 6).
    pub fn heavywt_with_transit(transit: u64) -> Self {
        DesignPoint::HeavyWt(HeavyWtConfig {
            transit,
            ..HeavyWtConfig::default()
        })
    }

    /// HEAVYWT with a given transit delay and queue depth (Figure 6's
    /// rightmost bars use 10 cycles / 64 entries).
    pub fn heavywt_with(transit: u64, queue_depth: u32) -> Self {
        DesignPoint::HeavyWt(HeavyWtConfig {
            transit,
            queue_depth,
            ..HeavyWtConfig::default()
        })
    }

    /// The backend mechanism and its parameters. REGMAPPED runs on
    /// HEAVYWT's hardware, its store distributed at the consumer core.
    pub(crate) fn mechanism(&self) -> Mechanism {
        match *self {
            DesignPoint::Existing(c) | DesignPoint::MemOpti(c) => Mechanism::Software(c),
            DesignPoint::SyncOpti(c) => Mechanism::SyncOpti(c),
            DesignPoint::HeavyWt(c) => Mechanism::Dedicated(c),
            DesignPoint::RegMapped(c) => Mechanism::Dedicated(HeavyWtConfig {
                queue_depth: c.queue_depth,
                transit: c.transit,
                sa_ops_per_cycle: c.sa_ops_per_cycle,
                sa_latency: 1,
            }),
        }
    }

    /// The transit delay of the dedicated interconnect, for designs that
    /// have one (see [`DesignPoint::mechanism`]).
    pub(crate) fn dedicated_transit_mut(&mut self) -> Option<&mut u64> {
        match self {
            DesignPoint::HeavyWt(c) => Some(&mut c.transit),
            DesignPoint::RegMapped(c) => Some(&mut c.transit),
            _ => None,
        }
    }

    /// Queue depth in entries for this design.
    pub fn queue_depth(&self) -> u32 {
        match self.mechanism() {
            Mechanism::Software(_) => 32, // §4.3; not a parameter
            Mechanism::SyncOpti(c) => c.queue_depth,
            Mechanism::Dedicated(c) => c.queue_depth,
        }
    }

    /// Shared-memory layout of `q` (Figure 5), or `None` for designs with
    /// a dedicated backing store. The design chooses the QLU and whether
    /// flags live in memory; the address map lays the slots out.
    pub fn queue_mem_info(&self, q: QueueId) -> Option<QueueMemLayout> {
        let (qlu, flags) = match self.mechanism() {
            Mechanism::Software(c) => (c.qlu, true),
            Mechanism::SyncOpti(c) => (c.qlu, false),
            Mechanism::Dedicated(_) => return None,
        };
        Some(addr_map::queue_layout(q, self.queue_depth(), qlu, flags))
    }

    /// Whether communication lowers to software spin sequences (shared
    /// memory queues) rather than produce/consume instructions.
    pub fn is_software(&self) -> bool {
        matches!(self.mechanism(), Mechanism::Software(_))
    }

    /// Whether produce/consume ride existing instructions for free
    /// (register-mapped queues).
    pub fn is_register_mapped(&self) -> bool {
        matches!(self, DesignPoint::RegMapped(_))
    }

    /// Whether the design write-forwards filled streaming lines.
    pub fn write_forwards(&self) -> bool {
        matches!(self, DesignPoint::MemOpti(_) | DesignPoint::SyncOpti(_))
    }

    /// Spill/fill pairs the design's register pressure adds per loop
    /// iteration (non-zero only for register-mapped queues).
    pub fn spill_ops(&self) -> u32 {
        match self {
            DesignPoint::RegMapped(c) => c.spill_ops,
            _ => 0,
        }
    }

    /// Short display label matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            DesignPoint::Existing(c) if c.qlu == 8 => "EXISTING".to_string(),
            DesignPoint::Existing(c) => format!("EXISTING(QLU{})", c.qlu),
            DesignPoint::MemOpti(c) if c.qlu == 8 => "MEMOPTI".to_string(),
            DesignPoint::MemOpti(c) => format!("MEMOPTI(QLU{})", c.qlu),
            DesignPoint::RegMapped(c) if c.spill_ops == 0 => "REGMAPPED".to_string(),
            DesignPoint::RegMapped(c) => format!("REGMAPPED(spill{})", c.spill_ops),
            DesignPoint::SyncOpti(c) => {
                let mut s = "SYNCOPTI".to_string();
                if c.stream_cache {
                    s.push_str("+SC");
                }
                if c.queue_depth != 32 {
                    s.push_str(&format!("+Q{}", c.queue_depth));
                }
                s
            }
            DesignPoint::HeavyWt(c) => {
                if c.transit == 1 && c.queue_depth == 32 && c.sa_latency == 1 {
                    "HEAVYWT".to_string()
                } else if c.sa_latency != 1 {
                    format!("HEAVYWT(central,l={})", c.sa_latency)
                } else {
                    format!("HEAVYWT(t={},d={})", c.transit, c.queue_depth)
                }
            }
        }
    }

    /// The `kind` string that opens this design's wire form.
    pub fn wire_kind(&self) -> &'static str {
        match self {
            DesignPoint::Existing(_) => "existing",
            DesignPoint::MemOpti(_) => "memopti",
            DesignPoint::SyncOpti(_) => "syncopti",
            DesignPoint::HeavyWt(_) => "heavywt",
            DesignPoint::RegMapped(_) => "regmapped",
        }
    }

    /// The paper's point of wire kind `kind`: the value a decoder starts
    /// from and [`DesignPoint::map_wire_fields`] overwrites.
    pub fn of_wire_kind(kind: &str) -> Option<Self> {
        Self::paper_points()
            .into_iter()
            .find(|d| d.wire_kind() == kind)
    }

    /// Passes each field of this design's wire form through `f`, in wire
    /// order, as `f(name, max, value)`, and keeps what `f` returns: an
    /// encoder writes `value` and returns it, a decoder returns what it
    /// read. Every field is an unsigned integer no larger than `max`; a
    /// field whose `max` is 1 is a flag, which the wire carries as a
    /// boolean.
    ///
    /// # Errors
    ///
    /// The first error `f` returns.
    ///
    /// # Panics
    ///
    /// If `f` returns a value above the `max` it was given.
    pub fn map_wire_fields<E>(
        mut self,
        mut f: impl FnMut(&'static str, u64, u64) -> Result<u64, E>,
    ) -> Result<Self, E> {
        const U32: u64 = u32::MAX as u64;
        let narrow =
            |v: u64| u32::try_from(v).expect("the field visitor keeps a value within its max");
        match &mut self {
            DesignPoint::Existing(c) | DesignPoint::MemOpti(c) => {
                c.qlu = narrow(f("qlu", U32, c.qlu.into())?);
            }
            DesignPoint::SyncOpti(c) => {
                c.queue_depth = narrow(f("queue_depth", U32, c.queue_depth.into())?);
                c.qlu = narrow(f("qlu", U32, c.qlu.into())?);
                c.stream_cache = f("stream_cache", 1, c.stream_cache.into())? != 0;
            }
            DesignPoint::HeavyWt(c) => {
                c.queue_depth = narrow(f("queue_depth", U32, c.queue_depth.into())?);
                c.transit = f("transit", u64::MAX, c.transit)?;
                c.sa_ops_per_cycle = narrow(f("sa_ops_per_cycle", U32, c.sa_ops_per_cycle.into())?);
                c.sa_latency = f("sa_latency", u64::MAX, c.sa_latency)?;
            }
            DesignPoint::RegMapped(c) => {
                c.queue_depth = narrow(f("queue_depth", U32, c.queue_depth.into())?);
                c.transit = f("transit", u64::MAX, c.transit)?;
                c.sa_ops_per_cycle = narrow(f("sa_ops_per_cycle", U32, c.sa_ops_per_cycle.into())?);
                c.spill_ops = narrow(f("spill_ops", U32, c.spill_ops.into())?);
            }
        }
        Ok(self)
    }

    /// Validates the design parameters.
    ///
    /// # Errors
    ///
    /// Rejects zero depths, QLUs that do not divide the queue depth or
    /// do not tile a 128-byte line of 8-byte entries, zero-rate hardware, and
    /// any parameter above its bound (a queue that outgrows its span of
    /// backing store included).
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self.mechanism() {
            Mechanism::Software(c) => {
                if ![1, 2, 4, 8].contains(&c.qlu) {
                    return Err(ConfigError::new(
                        "software QLU must be 1, 2, 4 or 8 (16-byte data+flag slots                          on 128-byte lines)",
                    ));
                }
            }
            Mechanism::SyncOpti(c) => {
                if c.queue_depth == 0 {
                    return Err(ConfigError::new("queue depth must be non-zero"));
                }
                if c.qlu == 0 || c.qlu > 16 {
                    return Err(ConfigError::new(
                        "QLU must be between 1 and 16 (8-byte entries on 128-byte lines)",
                    ));
                }
                if c.queue_depth % c.qlu != 0 {
                    return Err(ConfigError::new("QLU must divide the queue depth"));
                }
            }
            Mechanism::Dedicated(c) => c.validate()?,
        }
        if self.spill_ops() > MAX_SPILL_OPS {
            return Err(ConfigError::new(format!(
                "at most {MAX_SPILL_OPS} spill/fill pairs per iteration"
            )));
        }
        self.queue_mem_info(QueueId(0)).map_or(Ok(()), |l| {
            addr_map::check_tiling(&l).and_then(|()| addr_map::check_span(&l))
        })
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(DesignPoint::existing().label(), "EXISTING");
        assert_eq!(DesignPoint::memopti().label(), "MEMOPTI");
        assert_eq!(DesignPoint::syncopti().label(), "SYNCOPTI");
        assert_eq!(DesignPoint::syncopti_sc().label(), "SYNCOPTI+SC");
        assert_eq!(DesignPoint::syncopti_q64().label(), "SYNCOPTI+Q64");
        assert_eq!(DesignPoint::syncopti_sc_q64().label(), "SYNCOPTI+SC+Q64");
        assert_eq!(DesignPoint::heavywt().label(), "HEAVYWT");
        assert_eq!(
            DesignPoint::heavywt_with(10, 64).label(),
            "HEAVYWT(t=10,d=64)"
        );
    }

    #[test]
    fn defaults_validate() {
        for d in [
            DesignPoint::existing(),
            DesignPoint::memopti(),
            DesignPoint::syncopti(),
            DesignPoint::syncopti_sc_q64(),
            DesignPoint::heavywt(),
            DesignPoint::heavywt_with_transit(10),
        ] {
            assert!(d.validate().is_ok(), "{d} should validate");
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let d = DesignPoint::SyncOpti(SyncOptiConfig {
            qlu: 3,
            ..Default::default()
        });
        assert!(d.validate().is_err(), "qlu 3 does not divide 32");
        let d = DesignPoint::SyncOpti(SyncOptiConfig {
            qlu: 0,
            ..Default::default()
        });
        assert!(d.validate().is_err());
        let d = DesignPoint::HeavyWt(HeavyWtConfig {
            transit: 0,
            ..Default::default()
        });
        assert!(d.validate().is_err());
    }

    #[test]
    fn classification_helpers() {
        assert!(DesignPoint::existing().is_software());
        assert!(DesignPoint::memopti().is_software());
        assert!(!DesignPoint::syncopti().is_software());
        assert!(!DesignPoint::heavywt().is_software());
        assert!(!DesignPoint::existing().write_forwards());
        assert!(DesignPoint::memopti().write_forwards());
        assert!(DesignPoint::syncopti().write_forwards());
        assert!(!DesignPoint::heavywt().write_forwards());
    }

    /// One row per fact another layer asks of a design, one column per
    /// paper point: a changed answer fails by name.
    #[test]
    fn design_table() {
        type Row = (&'static str, fn(&DesignPoint) -> String, [&'static str; 8]);
        let rows: [Row; 10] = [
            (
                "label",
                DesignPoint::label,
                [
                    "EXISTING",
                    "MEMOPTI",
                    "SYNCOPTI",
                    "SYNCOPTI+SC",
                    "SYNCOPTI+Q64",
                    "SYNCOPTI+SC+Q64",
                    "HEAVYWT",
                    "REGMAPPED",
                ],
            ),
            (
                "validates",
                |d| d.validate().is_ok().to_string(),
                ["true"; 8],
            ),
            (
                "wire kind",
                |d| d.wire_kind().to_string(),
                [
                    "existing",
                    "memopti",
                    "syncopti",
                    "syncopti",
                    "syncopti",
                    "syncopti",
                    "heavywt",
                    "regmapped",
                ],
            ),
            (
                "wire fields, which decode to the design they encode",
                |d| {
                    let mut sent = Vec::new();
                    let same = d.map_wire_fields(|name, max, v| {
                        assert!(v <= max, "{d}: {name}");
                        sent.push((name, v));
                        Ok::<_, ()>(v)
                    });
                    assert_eq!(same, Ok(*d));
                    let mut wire = sent.iter();
                    let back = DesignPoint::of_wire_kind(d.wire_kind())
                        .unwrap()
                        .map_wire_fields(|name, _, _| {
                            let &(sent_name, v) = wire.next().unwrap();
                            assert_eq!(name, sent_name, "{d}");
                            Ok::<_, ()>(v)
                        });
                    assert_eq!(back, Ok(*d));
                    let names: Vec<_> = sent.iter().map(|(name, _)| *name).collect();
                    names.join(" ")
                },
                [
                    "qlu",
                    "qlu",
                    "queue_depth qlu stream_cache",
                    "queue_depth qlu stream_cache",
                    "queue_depth qlu stream_cache",
                    "queue_depth qlu stream_cache",
                    "queue_depth transit sa_ops_per_cycle sa_latency",
                    "queue_depth transit sa_ops_per_cycle spill_ops",
                ],
            ),
            (
                "mechanism",
                |d| {
                    match d.mechanism() {
                        Mechanism::Software(_) => "software",
                        Mechanism::SyncOpti(_) => "syncopti",
                        Mechanism::Dedicated(_) => "dedicated",
                    }
                    .to_string()
                },
                [
                    "software",
                    "software",
                    "syncopti",
                    "syncopti",
                    "syncopti",
                    "syncopti",
                    "dedicated",
                    "dedicated",
                ],
            ),
            (
                "queue depth",
                |d| d.queue_depth().to_string(),
                ["32", "32", "32", "32", "64", "64", "32", "32"],
            ),
            (
                "memory layout: depth x stride, flag offset",
                |d| {
                    d.queue_mem_info(QueueId(0)).map_or("none".into(), |i| {
                        assert_eq!(i.base, addr_map::queue_base(QueueId(0)));
                        assert_eq!(u64::from(i.qlu) * i.stride, addr_map::LINE_BYTES, "{d}");
                        format!("{}x{} {:?}", i.depth, i.stride, i.flag_offset)
                    })
                },
                [
                    "32x16 Some(8)",
                    "32x16 Some(8)",
                    "32x16 None",
                    "32x16 None",
                    "64x8 None",
                    "64x8 None",
                    "none",
                    "none",
                ],
            ),
            (
                "write-forwards filled lines",
                |d| d.write_forwards().to_string(),
                [
                    "false", "true", "true", "true", "true", "true", "false", "false",
                ],
            ),
            (
                "dedicated hardware: depth, transit, ports, latency",
                |d| match d.mechanism() {
                    Mechanism::Dedicated(c) => format!(
                        "{} {} {} {}",
                        c.queue_depth, c.transit, c.sa_ops_per_cycle, c.sa_latency
                    ),
                    _ => "none".into(),
                },
                [
                    "none", "none", "none", "none", "none", "none", "32 1 4 1", "32 1 4 1",
                ],
            ),
            (
                "queue operations ride existing instructions",
                |d| d.is_register_mapped().to_string(),
                [
                    "false", "false", "false", "false", "false", "false", "false", "true",
                ],
            ),
        ];
        for (fact, answer, expected) in rows {
            let got = DesignPoint::paper_points().map(|d| answer(&d));
            assert_eq!(got, expected.map(String::from), "{fact}");
        }
    }

    /// Each bound admits its maximum and refuses one more (huge values,
    /// end to end: `tests/design_space.rs`).
    #[test]
    fn bounds_are_exact_and_leave_headroom() {
        let hw = |queue_depth, transit, sa_ops_per_cycle, sa_latency| {
            DesignPoint::HeavyWt(HeavyWtConfig {
                queue_depth,
                transit,
                sa_ops_per_cycle,
                sa_latency,
            })
        };
        let (d, t, p, l) = (
            MAX_QUEUE_DEPTH,
            MAX_TRANSIT,
            MAX_SA_OPS_PER_CYCLE,
            MAX_SA_LATENCY,
        );
        assert!(hw(d, t, p, l).validate().is_ok());
        for over in [
            hw(d + 1, t, p, l),
            hw(d, t + 1, p, l),
            hw(d, t, p + 1, l),
            hw(d, t, p, l + 1),
        ] {
            assert!(over.validate().is_err(), "{over:?}");
        }
        assert!(DesignPoint::regmapped(MAX_SPILL_OPS).validate().is_ok());
        assert!(DesignPoint::regmapped(MAX_SPILL_OPS + 1)
            .validate()
            .is_err());
        // 1024 8-byte slots fill the 8 KiB span; one more line outgrows it.
        let syncopti = |queue_depth| {
            DesignPoint::SyncOpti(SyncOptiConfig {
                queue_depth,
                qlu: 16,
                stream_cache: false,
            })
        };
        assert!(syncopti(1024).validate().is_ok());
        assert!(syncopti(1024 + 16).validate().is_err());
        // 8x headroom over every committed experiment, test and example.
        for d in [
            DesignPoint::heavywt_with(8 * 20, 8 * 64),
            DesignPoint::heavywt_centralized(8 * 12),
            DesignPoint::regmapped(8 * 8),
        ] {
            assert!(d.validate().is_ok(), "{d}");
        }
    }

    #[test]
    fn queue_depths() {
        assert_eq!(DesignPoint::existing().queue_depth(), 32);
        assert_eq!(DesignPoint::syncopti_q64().queue_depth(), 64);
        assert_eq!(DesignPoint::heavywt_with(10, 64).queue_depth(), 64);
    }
}
