//! Byte addresses, memory regions, and address-generation patterns.

use std::fmt;
use std::ops::Add;
use std::sync::Arc;

use crate::ids::{QueueId, RegionId};

/// A physical byte address in the simulated machine.
///
/// # Example
///
/// ```
/// use hfs_isa::Addr;
///
/// let a = Addr::new(0x1000);
/// assert_eq!(a.line(128), 0x20);
/// assert_eq!((a + 8).as_u64(), 0x1008);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte offset.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// The raw byte address.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Cache line number for the given line size in bytes.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `line_bytes` is a power of two.
    #[inline]
    pub fn line(self, line_bytes: u64) -> u64 {
        debug_assert!(line_bytes.is_power_of_two());
        self.0 >> line_bytes.trailing_zeros()
    }
}

impl Add<u64> for Addr {
    type Output = Addr;

    #[inline]
    fn add(self, rhs: u64) -> Addr {
        Addr(self.0 + rhs)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A named, sized memory region declared by a program. The machine's
/// loader assigns a base address to each region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Identifier referenced by [`AddrPattern`]s.
    pub id: RegionId,
    /// Human-readable name, for diagnostics.
    pub name: Arc<str>,
    /// Region size in bytes.
    pub bytes: u64,
}

impl Region {
    /// Creates a region description.
    pub fn new(id: RegionId, name: impl Into<Arc<str>>, bytes: u64) -> Self {
        let name = name.into();
        Region { id, name, bytes }
    }
}

/// How a load or store template generates its dynamic addresses.
///
/// Pattern state (stream cursors, RNG) lives in the sequencer, keyed by the
/// instruction template's position, so two instances of the same pattern
/// advance independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrPattern {
    /// A fixed offset within a region (scalar/global access).
    Fixed {
        /// Region accessed.
        region: RegionId,
        /// Byte offset within the region.
        offset: u64,
    },
    /// A sequential walk: advances by `stride` bytes per execution and
    /// wraps at the region size. Models array streaming with spatial
    /// locality.
    Stream {
        /// Region walked.
        region: RegionId,
        /// Byte stride per dynamic execution.
        stride: u64,
    },
    /// A uniform-random access within the region. Models pointer chasing
    /// over a working set larger than the caches (mcf, equake).
    Random {
        /// Region accessed; its size sets the working-set size.
        region: RegionId,
    },
    /// The data word of the current slot of a software-queue (the slot the
    /// executing thread's local head/tail index designates).
    QueueData {
        /// Queue accessed.
        q: QueueId,
    },
    /// The full/empty flag byte of the current slot of a software queue.
    QueueFlag {
        /// Queue accessed.
        q: QueueId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_arithmetic() {
        let a = Addr::new(0x100);
        assert_eq!((a + 0x28).as_u64(), 0x128);
        assert_eq!(a.line(64), 4);
    }

    #[test]
    fn addr_display_is_hex() {
        assert_eq!(Addr::new(255).to_string(), "0xff");
    }

    #[test]
    fn region_fields() {
        let r = Region::new(RegionId(1), "heap", 4096);
        assert_eq!(r.id, RegionId(1));
        assert_eq!(&*r.name, "heap");
        assert_eq!(r.bytes, 4096);
    }

    #[test]
    fn patterns_are_copy_eq() {
        let p = AddrPattern::Stream {
            region: RegionId(0),
            stride: 8,
        };
        let q = p;
        assert_eq!(p, q);
    }
}
