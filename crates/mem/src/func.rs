//! Sparse functional memory backing the timing model with values.

use hfs_isa::Addr;
use hfs_sim::FnvMap;

/// A sparse, word-granular (8-byte) functional memory.
///
/// Uninitialized words read as zero. Addresses are rounded down to their
/// containing 8-byte word, matching the simulator's 64-bit data model.
///
/// # Example
///
/// ```
/// use hfs_mem::FuncMem;
/// use hfs_isa::Addr;
///
/// let mut m = FuncMem::new();
/// assert_eq!(m.read(Addr::new(0x100)), 0);
/// m.write(Addr::new(0x100), 7);
/// assert_eq!(m.read(Addr::new(0x104)), 7); // same word
/// ```
#[derive(Debug, Clone, Default)]
pub struct FuncMem {
    words: FnvMap<u64>,
}

impl FuncMem {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        FuncMem::default()
    }

    fn word(addr: Addr) -> u64 {
        addr.as_u64() & !7
    }

    /// Reads the 64-bit word containing `addr`.
    pub fn read(&self, addr: Addr) -> u64 {
        self.words.get(Self::word(addr)).copied().unwrap_or(0)
    }

    /// Writes the 64-bit word containing `addr`.
    pub fn write(&mut self, addr: Addr, value: u64) {
        self.words.insert(Self::word(addr), value);
    }

    /// Iterates over every `(word address, value)` pair ever written, in
    /// arbitrary order — used to seed the machine checker's golden copy.
    pub fn iter_words(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.words.iter().map(|(a, &v)| (a, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let m = FuncMem::new();
        assert_eq!(m.read(Addr::new(0)), 0);
        assert_eq!(m.read(Addr::new(0xdead_beef)), 0);
    }

    #[test]
    fn write_then_read() {
        let mut m = FuncMem::new();
        m.write(Addr::new(64), 99);
        assert_eq!(m.read(Addr::new(64)), 99);
    }

    #[test]
    fn subword_addresses_alias() {
        let mut m = FuncMem::new();
        m.write(Addr::new(0x1003), 5);
        assert_eq!(m.read(Addr::new(0x1000)), 5);
        assert_eq!(m.read(Addr::new(0x1007)), 5);
        assert_eq!(m.read(Addr::new(0x1008)), 0);
    }

    #[test]
    fn overwrite_replaces() {
        let mut m = FuncMem::new();
        m.write(Addr::new(8), 1);
        m.write(Addr::new(8), 2);
        assert_eq!(m.read(Addr::new(8)), 2);
    }
}
