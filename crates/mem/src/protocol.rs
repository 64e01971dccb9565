//! Where MSI, MESI and Dragon differ — the only file in this crate that
//! compares a [`Protocol`].
//!
//! Each function is one decision the L2 controller (`l2.rs`) or the
//! coherence glue (`system.rs`) takes; the actions a decision leads to
//! (snoop-invalidate, supply, fill, grant) live there, written once.
//! What no protocol changes is not here: an ownership fill (`RdX`) and a
//! granted upgrade install Modified, a cache-to-cache read fill installs
//! Shared, and a store that finds its line Modified or Exclusive
//! performs with no bus transaction.

use crate::cache::LineState;
use crate::config::Protocol;

/// The bus request an L2 makes for a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineOp {
    /// Read for sharing.
    Rd,
    /// Read for ownership: every other copy is invalidated.
    RdX,
    /// Upgrade S -> M without data.
    Upgr,
    /// Dragon bus-update: broadcast a written word to every sharer of
    /// the line. Like an upgrade it is a pure address/snoop-phase
    /// transaction — the word payload rides the snoop response, so no
    /// data-channel transfer follows.
    Upd,
}

/// The request an access becomes: `exclusive` for a store,
/// `have_shared` when the requester holds a copy it may not write.
/// Dragon never invalidates: a store to a shared line broadcasts an
/// update instead of upgrading, and a write miss fetches with a plain
/// read — the store then updates (or upgrades silently from EC) once
/// the fill lands.
pub(crate) fn line_request(p: Protocol, exclusive: bool, have_shared: bool) -> LineOp {
    match (exclusive, have_shared, p) {
        (false, _, _) | (true, false, Protocol::Dragon) => LineOp::Rd,
        (true, true, Protocol::Dragon) => LineOp::Upd,
        (true, true, _) => LineOp::Upgr,
        (true, false, _) => LineOp::RdX,
    }
}

/// The state a read fill installs when no cache supplied the line.
/// MESI/Dragon: a fill no other L2 holds installs Exclusive (E / EC),
/// enabling the silent first-write upgrade. MSI always fills Shared.
pub(crate) fn read_fill(p: Protocol, other_holder: bool) -> LineState {
    if p != Protocol::Msi && !other_holder {
        LineState::Exclusive
    } else {
        LineState::Shared
    }
}

/// Whether a store waiting on a line performs against the state a fill
/// or grant just left it in: Modified everywhere, plus Exclusive under
/// MESI/Dragon (silent upgrade on resolution) and SharedModified under
/// Dragon (a granted bus-update). Otherwise the store re-arbitrates to
/// request ownership (or an update).
pub(crate) fn writable(p: Protocol, state: Option<LineState>) -> bool {
    match state {
        Some(LineState::Modified) => true,
        Some(LineState::Exclusive) => p != Protocol::Msi,
        Some(LineState::SharedModified) => p == Protocol::Dragon,
        Some(LineState::Shared) | None => false,
    }
}

/// What a read snoop leaves a copy in, and whether this cache supplies
/// the line. A dirty owner must supply: under MSI/MESI it downgrades to
/// Shared, under Dragon it keeps ownership as SharedModified. An
/// Exclusive-clean copy downgrades to Shared without supplying (the L3
/// shadow serves).
pub(crate) fn snoop_read(p: Protocol, state: LineState) -> (LineState, bool) {
    match state {
        LineState::Modified if p == Protocol::Dragon => (LineState::SharedModified, true),
        LineState::Modified => (LineState::Shared, true),
        LineState::SharedModified => (LineState::SharedModified, true),
        LineState::Exclusive | LineState::Shared => (LineState::Shared, false),
    }
}

/// What a Dragon bus-update leaves every snooped copy in: it absorbs the
/// new word and continues as a clean sharer (a previous SM owner hands
/// ownership to the updater).
pub(crate) fn snoop_update() -> LineState {
    LineState::Shared
}

/// What a granted Dragon bus-update leaves the writer in: with sharers
/// left it continues as the SM owner; with none the line is now
/// exclusively its own (EM).
pub(crate) fn after_update(any_sharer: bool) -> LineState {
    if any_sharer {
        LineState::SharedModified
    } else {
        LineState::Modified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_check::{invariant_table, CheckLevel, Checker};
    use hfs_sim::Cycle;
    use std::collections::BTreeSet;
    use LineState::{Exclusive, Modified, Shared, SharedModified};

    /// One line in three caches.
    type Census = [Option<LineState>; 3];

    /// The transactions `system.rs` builds from the decisions above, on
    /// an untimed three-cache model. `trail` collects the census after
    /// every bus transaction and silent transition — the points at which
    /// `MemSystem` audits the line.
    struct Model {
        p: Protocol,
        trail: Vec<Census>,
        invalidations: u32,
    }

    impl Model {
        fn others(c: usize) -> impl Iterator<Item = usize> {
            (0..3).filter(move |&o| o != c)
        }

        /// `Rd` by `c`: caches are snooped until one supplies; a supplied
        /// fill installs Shared, an L3 fill what the census allows.
        fn bus_rd(&mut self, s: &mut Census, c: usize) {
            let other_holder = Self::others(c).any(|o| s[o].is_some());
            let mut supplied = false;
            for o in Self::others(c) {
                if let (false, Some(state)) = (supplied, s[o]) {
                    let (next, supplies) = snoop_read(self.p, state);
                    s[o] = Some(next);
                    supplied = supplies;
                }
            }
            s[c] = Some(if supplied {
                Shared
            } else {
                read_fill(self.p, other_holder)
            });
            self.trail.push(*s);
        }

        /// `RdX` and `Upgr` by `c`: every other copy goes, `c` owns.
        fn bus_invalidate(&mut self, s: &mut Census, c: usize) {
            for o in Self::others(c) {
                self.invalidations += u32::from(s[o].take().is_some());
            }
            s[c] = Some(Modified);
            self.trail.push(*s);
        }

        fn load(&mut self, s: &mut Census, c: usize) {
            if s[c].is_none() {
                assert_eq!(line_request(self.p, false, false), LineOp::Rd);
                self.bus_rd(s, c);
            }
        }

        fn store(&mut self, s: &mut Census, c: usize) {
            loop {
                // A store that finds Modified or Exclusive performs.
                if let Some(Modified | Exclusive) = s[c] {
                    s[c] = Some(Modified);
                    self.trail.push(*s);
                    return;
                }
                match line_request(self.p, true, s[c].is_some()) {
                    LineOp::Rd => self.bus_rd(s, c),
                    LineOp::RdX => self.bus_invalidate(s, c),
                    LineOp::Upgr => {
                        assert_eq!(s[c], Some(Shared), "only a Shared copy upgrades");
                        self.bus_invalidate(s, c);
                    }
                    LineOp::Upd => {
                        let mut sharers = false;
                        for o in Self::others(c) {
                            if s[o].is_some() {
                                s[o] = Some(snoop_update());
                                sharers = true;
                            }
                        }
                        s[c] = Some(after_update(sharers));
                        self.trail.push(*s);
                    }
                }
                // The waiting store resolves against what the fill or
                // grant left, or goes round again (a Dragon write miss
                // that filled Shared still owes its update).
                if writable(self.p, s[c]) {
                    if s[c] == Some(Exclusive) {
                        s[c] = Some(Modified);
                        self.trail.push(*s);
                    }
                    return;
                }
            }
        }
    }

    /// Every census reachable from an empty line under loads, stores and
    /// evictions by any cache, intermediate ones included.
    fn reachable(p: Protocol) -> (BTreeSet<[u8; 3]>, Vec<Census>, u32) {
        let key = |s: &Census| s.map(|c| c.map_or(0, |st| 1 + st as u8));
        let mut model = Model {
            p,
            trail: Vec::new(),
            invalidations: 0,
        };
        let mut seen = BTreeSet::from([key(&[None; 3])]);
        let mut states = vec![[None; 3]];
        let mut next = 0;
        while next < states.len() {
            let from = states[next];
            next += 1;
            for c in 0..3 {
                for event in 0..3 {
                    let mut s = from;
                    match event {
                        0 => model.load(&mut s, c),
                        1 => model.store(&mut s, c),
                        _ => s[c] = None,
                    }
                    model.trail.push(s);
                    for t in std::mem::take(&mut model.trail) {
                        if seen.insert(key(&t)) {
                            states.push(t);
                        }
                    }
                }
            }
        }
        (seen, states, model.invalidations)
    }

    #[test]
    fn every_reachable_census_is_legal_and_native_to_its_protocol() {
        for p in Protocol::ALL {
            let (seen, states, invalidations) = reachable(p);
            assert_eq!(seen.len(), states.len());
            assert!(states.len() > 10, "{p}: the closure went nowhere");
            let checker = Checker::with_level(CheckLevel::Basic);
            checker.set_protocol(p);
            assert_eq!(invariant_table(p).protocol, p);
            for s in &states {
                let count = |st| s.iter().filter(|&&c| c == Some(st)).count() as u32;
                checker.coherence_states(
                    Cycle::ZERO,
                    0,
                    count(Modified),
                    count(Exclusive),
                    count(Shared),
                    count(SharedModified),
                );
                assert_eq!(
                    checker.violation_count(),
                    0,
                    "{p}: {s:?}: {:?}",
                    checker.violations()
                );
                let foreign: &[LineState] = match p {
                    Protocol::Msi => &[Exclusive, SharedModified],
                    Protocol::Mesi => &[SharedModified],
                    Protocol::Dragon => &[],
                };
                for &st in foreign {
                    assert_eq!(count(st), 0, "{p} reached {st:?}: {s:?}");
                }
            }
            if p == Protocol::Dragon {
                assert_eq!(invalidations, 0, "Dragon never invalidates");
                assert!(seen.contains(&[1 + SharedModified as u8, 1 + Shared as u8, 0]));
            } else {
                assert!(invalidations > 0, "{p} invalidates");
            }
        }
    }

    /// One row per comparison that used to sit inline in `system.rs` and
    /// `l2.rs`: the MSI / MESI / Dragon answers, by name.
    #[test]
    fn decision_table() {
        type Row = (&'static str, fn(Protocol) -> String, [&'static str; 3]);
        let rows: [Row; 7] = [
            (
                "a store to a shared line requests",
                |p| format!("{:?}", line_request(p, true, true)),
                ["Upgr", "Upgr", "Upd"],
            ),
            (
                "a write miss requests",
                |p| format!("{:?}", line_request(p, true, false)),
                ["RdX", "RdX", "Rd"],
            ),
            (
                "a read fill no other L2 holds installs",
                |p| format!("{:?}", read_fill(p, false)),
                ["Shared", "Exclusive", "Exclusive"],
            ),
            (
                "a read fill beside a sharer installs (GrantExclusiveWithSharers arms where it differs from the row above)",
                |p| format!("{:?}", read_fill(p, true)),
                ["Shared", "Shared", "Shared"],
            ),
            (
                "a waiting store performs against Exclusive",
                |p| format!("{:?}", writable(p, Some(Exclusive))),
                ["false", "true", "true"],
            ),
            (
                "a waiting store performs against SharedModified",
                |p| format!("{:?}", writable(p, Some(SharedModified))),
                ["false", "false", "true"],
            ),
            (
                "a read snoop leaves a Modified owner, who supplies",
                |p| format!("{:?}", snoop_read(p, Modified)),
                [
                    "(Shared, true)",
                    "(Shared, true)",
                    "(SharedModified, true)",
                ],
            ),
        ];
        for (name, decide, want) in rows {
            let got = Protocol::ALL.map(decide);
            assert_eq!(got, want, "{name}: MSI / MESI / Dragon");
        }
        // What every protocol answers alike.
        for p in Protocol::ALL {
            for have_shared in [false, true] {
                assert_eq!(line_request(p, false, have_shared), LineOp::Rd);
            }
            assert!(writable(p, Some(Modified)));
            assert!(!writable(p, Some(Shared)) && !writable(p, None));
            assert_eq!(snoop_read(p, Exclusive), (Shared, false));
            assert_eq!(snoop_read(p, Shared), (Shared, false));
            assert_eq!(snoop_read(p, SharedModified), (SharedModified, true));
        }
        assert_eq!(after_update(true), SharedModified);
        assert_eq!(after_update(false), Modified);
    }
}
