//! The simulated time base.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in CPU clock cycles.
///
/// `Cycle` is a transparent newtype over `u64` ([C-NEWTYPE]) so that
/// simulated time cannot be confused with ordinary counters. Arithmetic is
/// saturating-free and panics on overflow in debug builds, exactly like the
/// underlying integer type.
///
/// # Example
///
/// ```
/// use hfs_sim::Cycle;
///
/// let start = Cycle::new(100);
/// let end = start + 41;
/// assert_eq!(end.as_u64(), 141);
/// assert_eq!(end - start, 41);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// The zero cycle, the instant simulation begins.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle from a raw count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the cycle immediately after this one.
    #[inline]
    #[must_use]
    pub const fn next(self) -> Self {
        Cycle(self.0 + 1)
    }

    /// Saturating subtraction: the number of cycles elapsed since
    /// `earlier`, or zero if `earlier` is in the future.
    #[inline]
    #[must_use]
    pub const fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Returns the later of two cycles.
    #[inline]
    #[must_use]
    pub fn max(self, other: Cycle) -> Cycle {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

/// The fold every `next_event` bound is built with (DESIGN §6c): `best`
/// becomes the earlier of itself and the wake-up `t`, which is never
/// taken to be earlier than `now + 1`.
#[inline]
pub fn fold_bound(best: &mut Option<Cycle>, now: Cycle, t: Cycle) {
    let t = t.max(now.next());
    *best = Some(best.map_or(t, |b| b.min(t)));
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;

    /// Number of cycles between two points in time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl From<u64> for Cycle {
    fn from(raw: u64) -> Self {
        Cycle(raw)
    }
}

impl From<Cycle> for u64 {
    fn from(c: Cycle) -> u64 {
        c.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(Cycle::ZERO.as_u64(), 0);
        assert_eq!(Cycle::new(7).as_u64(), 7);
        assert_eq!(Cycle::from(9u64), Cycle::new(9));
        assert_eq!(u64::from(Cycle::new(9)), 9);
    }

    #[test]
    fn arithmetic() {
        let c = Cycle::new(10);
        assert_eq!((c + 5).as_u64(), 15);
        assert_eq!(c.next().as_u64(), 11);
        assert_eq!(Cycle::new(15) - c, 5);
        let mut m = c;
        m += 3;
        assert_eq!(m.as_u64(), 13);
    }

    #[test]
    fn ordering_and_max() {
        assert!(Cycle::new(1) < Cycle::new(2));
        assert_eq!(Cycle::new(1).max(Cycle::new(2)), Cycle::new(2));
        assert_eq!(Cycle::new(5).max(Cycle::new(2)), Cycle::new(5));
    }

    #[test]
    fn bound_folds_to_the_earliest_offer_and_never_below_now_plus_one() {
        let now = Cycle::new(10);
        let mut best = None;
        for t in [40, 25, 30] {
            fold_bound(&mut best, now, Cycle::new(t));
        }
        assert_eq!(best, Some(Cycle::new(25)));
        // A stale or same-cycle stamp is clamped to the floor.
        fold_bound(&mut best, now, Cycle::new(3));
        assert_eq!(best, Some(Cycle::new(11)));
        let mut best = None;
        fold_bound(&mut best, now, now);
        assert_eq!(best, Some(Cycle::new(11)));
    }

    #[test]
    fn saturating_since() {
        assert_eq!(Cycle::new(10).saturating_since(Cycle::new(4)), 6);
        assert_eq!(Cycle::new(4).saturating_since(Cycle::new(10)), 0);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Cycle::new(3).to_string(), "cycle 3");
    }
}
