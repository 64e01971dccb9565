//! Typed identifiers used throughout the simulator.

use std::fmt;

/// Identifies one processor core (and its single hardware thread) in the
/// CMP. The paper's evaluation uses a dual-core machine; larger ids are
/// permitted by the type but validated by machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CoreId(pub u8);

impl CoreId {
    /// Zero-based index, usable for array indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Identifies one inter-thread stream queue. The evaluated machines
/// provide 64 architectural queues (§4.3); ids beyond the configured count
/// are rejected at machine construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct QueueId(pub u16);

impl QueueId {
    /// Zero-based index, usable for array indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for QueueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// An architectural register name. Registers carry timing dependences
/// only; see the crate-level documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Reg(pub u8);

impl Reg {
    /// Number of architectural registers modeled per core.
    pub const COUNT: usize = 128;

    /// Zero-based index, usable for array indexing.
    ///
    /// # Panics
    ///
    /// Debug-asserts the register is within [`Reg::COUNT`].
    #[inline]
    pub fn index(self) -> usize {
        debug_assert!((self.0 as usize) < Reg::COUNT);
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifies a named memory region (array, heap arena, …) declared by a
/// program. The machine assigns each region a base address at load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RegionId(pub u16);

impl RegionId {
    /// Zero-based index, usable for array indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(CoreId(1).to_string(), "core1");
        assert_eq!(QueueId(7).to_string(), "q7");
        assert_eq!(Reg(3).to_string(), "r3");
        assert_eq!(RegionId(2).to_string(), "region2");
    }

    #[test]
    fn indices() {
        assert_eq!(CoreId(1).index(), 1);
        assert_eq!(QueueId(63).index(), 63);
        assert_eq!(Reg(5).index(), 5);
        assert_eq!(RegionId(9).index(), 9);
    }

    #[test]
    fn ordering_is_derived() {
        assert!(CoreId(0) < CoreId(1));
        assert!(QueueId(1) < QueueId(2));
    }
}
