//! Set-associative cache arrays with LRU replacement and coherence line
//! states shared by every protocol (MSI, MESI, Dragon).

use hfs_sim::ConfigError;

/// The most lines (sets x ways) one cache may hold, at any level: a
/// spec from the wire must fail validation, not exhaust memory. 8x the
/// largest committed cache (the 1.5 MB L3's 12 288 lines).
pub const MAX_CACHE_LINES: u64 = 1 << 17;

/// The longest cache line, 8x the committed 128 bytes: a line moves over
/// the bus in `line_bytes / width` bus cycles.
pub const MAX_LINE_BYTES: u64 = 1024;

/// Geometry of a set-associative cache.
///
/// # Example
///
/// ```
/// use hfs_mem::CacheGeometry;
///
/// let l2 = CacheGeometry::new(256 * 1024, 8, 128);
/// assert_eq!(l2.sets(), 256);
/// assert!(l2.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// Creates a geometry description.
    pub const fn new(bytes: u64, ways: u32, line_bytes: u64) -> Self {
        CacheGeometry {
            bytes,
            ways,
            line_bytes,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.bytes / (u64::from(self.ways) * self.line_bytes)
    }

    /// Validates that the geometry describes a realizable cache.
    ///
    /// # Errors
    ///
    /// Rejects zero sizes, non-power-of-two line sizes, capacities that
    /// do not divide evenly into sets, and lines or line counts above
    /// [`MAX_LINE_BYTES`] and [`MAX_CACHE_LINES`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.bytes == 0 || self.ways == 0 || self.line_bytes == 0 {
            return Err(ConfigError::new("cache dimensions must be non-zero"));
        }
        if !self.line_bytes.is_power_of_two() || self.line_bytes > MAX_LINE_BYTES {
            return Err(ConfigError::new(format!(
                "cache line size must be a power of two of at most {MAX_LINE_BYTES} bytes"
            )));
        }
        let row = u64::from(self.ways) * self.line_bytes;
        if !self.bytes.is_multiple_of(row) || self.bytes / row == 0 {
            return Err(ConfigError::new(
                "cache capacity must be a positive multiple of ways x line size",
            ));
        }
        if self.bytes / self.line_bytes > MAX_CACHE_LINES {
            return Err(ConfigError::new(format!(
                "a cache holds at most {MAX_CACHE_LINES} lines"
            )));
        }
        Ok(())
    }
}

/// Coherence state of a cached line.
///
/// One unified state space covers all three protocols: MSI uses only
/// `Modified`/`Shared`, MESI adds `Exclusive`, and Dragon maps its four
/// states as EM→`Modified`, EC→`Exclusive`, SC→`Shared`,
/// SM→`SharedModified`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Modified (Dragon EM): this cache owns the only, dirty copy.
    Modified,
    /// Exclusive (Dragon EC): the only copy, still clean. MESI/Dragon
    /// only; a store upgrades it to Modified with no bus transaction.
    Exclusive,
    /// Shared (Dragon SC): clean, possibly replicated.
    Shared,
    /// Shared-Modified (Dragon SM): dirty but replicated; this cache is
    /// the owner responsible for writeback and for supplying readers.
    SharedModified,
}

impl LineState {
    /// Whether eviction of a line in this state requires a writeback.
    pub fn dirty(self) -> bool {
        matches!(self, LineState::Modified | LineState::SharedModified)
    }
}

/// One resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way {
    /// Line number (`addr / line_bytes`).
    line: u64,
    state: LineState,
    /// LRU stamp: larger = more recently used.
    lru: u64,
}

/// The outcome of inserting a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The evicted line number.
    pub line: u64,
    /// Its state at eviction (dirty victims require writeback).
    pub state: LineState,
}

/// A set-associative tag array with LRU replacement.
///
/// Stores *presence and state only*; data values live in the simulator's
/// functional memory. All methods take line numbers (see
/// [`hfs_isa::Addr::line`]).
#[derive(Debug, Clone)]
pub struct CacheArray {
    geom: CacheGeometry,
    sets: Vec<Vec<Way>>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl CacheArray {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheGeometry::validate`] failures.
    pub fn new(geom: CacheGeometry) -> Result<Self, ConfigError> {
        geom.validate()?;
        let sets = (0..geom.sets()).map(|_| Vec::new()).collect();
        Ok(CacheArray {
            geom,
            sets,
            stamp: 0,
            hits: 0,
            misses: 0,
        })
    }

    fn set_index(&self, line: u64) -> usize {
        let sets = self.sets.len() as u64;
        if sets.is_power_of_two() {
            (line & (sets - 1)) as usize
        } else {
            (line % sets) as usize
        }
    }

    /// Looks up `line`, updating LRU and hit/miss statistics.
    pub fn access(&mut self, line: u64) -> Option<LineState> {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_index(line);
        match self.sets[set].iter_mut().find(|w| w.line == line) {
            Some(w) => {
                w.lru = stamp;
                self.hits += 1;
                Some(w.state)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Replays `n` back-to-back lookups of `line` in bulk, advancing
    /// the LRU stamp and hit/miss statistics exactly as `n` calls to
    /// [`CacheArray::access`] would. Used by fast-forward to account
    /// repeated probes from a structurally blocked pipeline without
    /// simulating each cycle.
    pub fn replay_accesses(&mut self, line: u64, n: u64) {
        self.stamp += n;
        let stamp = self.stamp;
        let set = self.set_index(line);
        match self.sets[set].iter_mut().find(|w| w.line == line) {
            Some(w) => {
                w.lru = stamp;
                self.hits += n;
            }
            None => self.misses += n,
        }
    }

    /// Looks up `line` without touching LRU or statistics.
    pub fn probe(&self, line: u64) -> Option<LineState> {
        let set = self.set_index(line);
        self.sets[set]
            .iter()
            .find(|w| w.line == line)
            .map(|w| w.state)
    }

    /// Installs `line` in `state`, evicting the LRU way if the set is
    /// full. Returns the victim, if any. Installing an already-present
    /// line updates its state in place and returns `None`.
    pub fn install(&mut self, line: u64, state: LineState) -> Option<Victim> {
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = self.geom.ways as usize;
        let set = self.set_index(line);
        let set_ways = &mut self.sets[set];
        if let Some(w) = set_ways.iter_mut().find(|w| w.line == line) {
            w.state = state;
            w.lru = stamp;
            return None;
        }
        let victim = if set_ways.len() >= ways {
            let (idx, _) = set_ways
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .expect("non-empty set");
            let v = set_ways.swap_remove(idx);
            Some(Victim {
                line: v.line,
                state: v.state,
            })
        } else {
            None
        };
        set_ways.push(Way {
            line,
            state,
            lru: stamp,
        });
        victim
    }

    /// Changes the state of a resident line; no-op if absent.
    pub fn set_state(&mut self, line: u64, state: LineState) {
        let set = self.set_index(line);
        if let Some(w) = self.sets[set].iter_mut().find(|w| w.line == line) {
            w.state = state;
        }
    }

    /// Removes `line`, returning its state if it was resident.
    pub fn invalidate(&mut self, line: u64) -> Option<LineState> {
        let set = self.set_index(line);
        let ways = &mut self.sets[set];
        ways.iter()
            .position(|w| w.line == line)
            .map(|i| ways.swap_remove(i).state)
    }

    /// Number of resident lines.
    pub fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Lookup hits recorded by [`CacheArray::access`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses recorded by [`CacheArray::access`].
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray {
        // 2 sets, 2 ways, 64B lines.
        CacheArray::new(CacheGeometry::new(256, 2, 64)).unwrap()
    }

    #[test]
    fn geometry_sets() {
        assert_eq!(CacheGeometry::new(16 * 1024, 4, 64).sets(), 64);
        assert_eq!(CacheGeometry::new(1536 * 1024, 12, 128).sets(), 1024);
    }

    #[test]
    fn geometry_rejects_invalid() {
        assert!(CacheGeometry::new(0, 1, 64).validate().is_err());
        assert!(CacheGeometry::new(256, 0, 64).validate().is_err());
        assert!(CacheGeometry::new(256, 2, 48).validate().is_err());
        assert!(CacheGeometry::new(100, 2, 64).validate().is_err());
    }

    #[test]
    fn hit_after_install() {
        let mut c = tiny();
        assert_eq!(c.access(4), None);
        assert!(c.install(4, LineState::Shared).is_none());
        assert_eq!(c.access(4), Some(LineState::Shared));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        c.install(0, LineState::Shared);
        c.install(2, LineState::Modified);
        c.access(0); // 0 now MRU; 2 is LRU
        let v = c.install(4, LineState::Shared).expect("eviction");
        assert_eq!(v.line, 2);
        assert_eq!(v.state, LineState::Modified);
        assert!(c.probe(0).is_some());
        assert!(c.probe(2).is_none());
    }

    #[test]
    fn install_existing_updates_state() {
        let mut c = tiny();
        c.install(6, LineState::Shared);
        assert!(c.install(6, LineState::Modified).is_none());
        assert_eq!(c.probe(6), Some(LineState::Modified));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.install(8, LineState::Modified);
        assert_eq!(c.invalidate(8), Some(LineState::Modified));
        assert_eq!(c.invalidate(8), None);
        assert_eq!(c.probe(8), None);
    }

    #[test]
    fn set_state_changes_resident_only() {
        let mut c = tiny();
        c.set_state(10, LineState::Modified); // absent: no-op
        assert_eq!(c.probe(10), None);
        c.install(10, LineState::Shared);
        c.set_state(10, LineState::Modified);
        assert_eq!(c.probe(10), Some(LineState::Modified));
    }

    #[test]
    fn probe_does_not_affect_lru() {
        let mut c = tiny();
        c.install(0, LineState::Shared);
        c.install(2, LineState::Shared);
        // Probing 0 must NOT refresh it; 0 stays LRU and gets evicted.
        c.probe(0);
        let v = c.install(4, LineState::Shared).unwrap();
        assert_eq!(v.line, 0);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        c.install(0, LineState::Shared); // set 0
        c.install(1, LineState::Shared); // set 1
        c.install(2, LineState::Shared); // set 0
        c.install(3, LineState::Shared); // set 1
        assert_eq!(c.resident(), 4);
    }
}
