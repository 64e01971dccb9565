//! Cycle-level machine checking for the `hfs` simulator.
//!
//! The simulator's headline numbers only mean something if the snoop
//! coherence protocol, the split-transaction bus, and the queue backends
//! are *correct*. This crate is the opt-in referee: a [`Checker`] handle
//! is threaded through the whole machine in the same carried-handle style
//! as `hfs_trace::Tracer`, and every component reports the events the
//! invariants need. Violations are recorded (never panicked) so the
//! machine loop can terminate the run with a structured error naming the
//! offending cycle.
//!
//! Four invariant families are enforced:
//!
//! * **coherence** — protocol-specific census and staleness rules
//!   selected by [`Protocol`] (see [`invariant_table`]): MSI/MESI
//!   forbid replicated Modified owners and hits on snoop-invalidated
//!   lines, MESI additionally forbids an Exclusive copy coexisting with
//!   any other copy, and Dragon — which never invalidates — requires
//!   every bus-update to reach every sharer
//!   (`dragon.update_delivered`) and every L2 hit to observe the latest
//!   broadcast version (`dragon.sharer_stale_word`);
//! * **bus** — at most one grant per arbitration slot, every accepted
//!   split-transaction request answered by exactly one response within
//!   [`REQUEST_AGE_BOUND`] cycles, and bounded round-robin wait
//!   ([`BUS_WAIT_BOUND`] slots) for any agent with a queued request;
//! * **resource conservation** — OzQ occupancy ≤ capacity with
//!   inserts = removals + resident, synchronization-array
//!   `injected == delivered + in-network` with per-queue occupancy ≤
//!   depth and no dropped consumer wake-ups, every accepted
//!   write-forward reported once as done or dropped, and stream-cache
//!   entries whose line was delivered and that are value-coherent with
//!   memory;
//! * **differential data** ([`CheckLevel::Full`]) — every committed
//!   load/store is replayed against a second golden memory, so a
//!   timing-model bug that corrupts a value is caught at the offending
//!   cycle instead of as a wrong figure, and a SYNCOPTI consume released
//!   before its slot's store performed is caught at its release.
//!
//! The checker is *observation-only*: with no [`Mutation`] armed it never
//! changes simulated state, so cycle counts are bit-identical with
//! checking on or off. Mutations are the exception by design — they are
//! test-only deliberate bugs used by the fault-injection suite to prove
//! the checker is not vacuous.
//!
//! # Example
//!
//! ```
//! use hfs_check::{CheckLevel, Checker};
//! use hfs_sim::Cycle;
//!
//! let c = Checker::with_level(CheckLevel::Basic);
//! c.on_bus_slot(Cycle::new(8));
//! c.on_grant(Cycle::new(8), 0);
//! c.on_grant(Cycle::new(8), 1); // second grant in the same slot
//! assert_eq!(c.violations().len(), 1);
//! assert_eq!(c.violations()[0].rule, "bus.double_grant");
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

use hfs_isa::{CoreId, QueueId};
use hfs_sim::Cycle;

/// Violations recorded past this cap are counted but not stored.
const MAX_VIOLATIONS: usize = 32;

/// Largest CMP the checker sizes its per-core tables for (matches the
/// machine model's 8-core bus).
const MAX_CORES: usize = 8;

/// Maximum consecutive arbitration slots an agent with a queued address
/// request may go ungranted before the round-robin is declared unfair.
/// Generous: with 8 agents and two-pass app-priority arbitration, a legal
/// head-of-queue wait is a few tens of slots.
pub const BUS_WAIT_BOUND: u64 = 4096;

/// Maximum age in cycles of an accepted-but-unanswered split-transaction
/// request. A legal worst case (L3 + DRAM + bus queueing) is a few
/// hundred cycles; well below the machine's deadlock window so a dropped
/// response is attributed to the bus, not reported as a generic deadlock.
pub const REQUEST_AGE_BOUND: u64 = 20_000;

/// Snoop coherence protocol run by the private L2s, and with it the
/// invariant table the checker enforces.
///
/// Defined here because the memory crate depends on this one; it is
/// re-exported as `hfs_mem::Protocol`. The paper's baseline is
/// write-invalidate MSI; the other two points probe how much of the
/// EXISTING↔SYNCOPTI gap is an artifact of the protocol rather than of
/// software queueing itself:
///
/// * `Mesi` adds the Exclusive state: a read miss that no other L2 can
///   answer fills Exclusive, and the first store to an Exclusive line
///   upgrades to Modified silently, with no bus transaction.
/// * `Dragon` is the classic 4-state update protocol (SC/SM/EC/EM):
///   stores to shared lines broadcast a bus-update that patches every
///   sharer's copy in place instead of invalidating it, so
///   producer→consumer lines never ping-pong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Protocol {
    /// 3-state write-invalidate (the paper's baseline).
    #[default]
    Msi,
    /// 4-state write-invalidate with exclusive-clean fills.
    Mesi,
    /// 4-state write-update (SC/SM/EC/EM; no invalidations ever).
    Dragon,
}

impl Protocol {
    /// Every supported protocol, in sweep order.
    pub const ALL: [Protocol; 3] = [Protocol::Msi, Protocol::Mesi, Protocol::Dragon];

    /// Lower-case config/spec label (`msi`, `mesi`, `dragon`).
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Msi => "msi",
            Protocol::Mesi => "mesi",
            Protocol::Dragon => "dragon",
        }
    }

    /// Parses a case-insensitive label.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|p| p.label().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Rule families shared by every protocol: the bus, resource
/// conservation, and differential-data invariants are
/// protocol-independent.
const SHARED_RULES: &[&str] = &[
    "bus.double_grant",
    "bus.starvation",
    "bus.orphan_response",
    "bus.lost_response",
    "ozq.overflow",
    "ozq.conservation",
    "sa.conservation",
    "sa.queue_overflow",
    "sa.dropped_wake",
    "fwd.conservation",
    "sc.unreachable",
    "sc.not_forwarded",
    "sc.stale_value",
    "data.load_mismatch",
    "so.release_before_store",
];

/// The complete set of rules the checker may emit for one protocol.
///
/// The fault-injection suite uses these tables two ways: every seeded
/// mutation must be caught by a rule *in the armed protocol's table*
/// (a violation outside the table means the census logic ran the wrong
/// protocol), and every protocol-specific rule is exercised by at least
/// one mutation so no table row is vacuous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvariantTable {
    /// The protocol this table applies to.
    pub protocol: Protocol,
    /// Protocol-specific coherence rules.
    pub coherence: &'static [&'static str],
}

impl InvariantTable {
    /// Whether `rule` belongs to this protocol's table: one of its
    /// coherence rules or one of the protocol-independent rules.
    pub fn contains(&self, rule: &str) -> bool {
        self.coherence.contains(&rule) || SHARED_RULES.contains(&rule)
    }
}

static MSI_TABLE: InvariantTable = InvariantTable {
    protocol: Protocol::Msi,
    coherence: &[
        "msi.multiple_modified",
        "msi.shared_with_modified",
        "msi.hit_after_invalidate",
        "msi.foreign_state",
    ],
};

static MESI_TABLE: InvariantTable = InvariantTable {
    protocol: Protocol::Mesi,
    coherence: &[
        "mesi.multiple_modified",
        "mesi.shared_with_modified",
        "mesi.exclusive_with_sharers",
        "mesi.hit_after_invalidate",
        "mesi.foreign_state",
    ],
};

static DRAGON_TABLE: InvariantTable = InvariantTable {
    protocol: Protocol::Dragon,
    coherence: &[
        "dragon.multiple_owners",
        "dragon.exclusive_with_sharers",
        "dragon.update_delivered",
        "dragon.sharer_stale_word",
        "dragon.invalidate_in_update_protocol",
    ],
};

/// The invariant table the checker enforces for `protocol`.
pub fn invariant_table(protocol: Protocol) -> &'static InvariantTable {
    match protocol {
        Protocol::Msi => &MSI_TABLE,
        Protocol::Mesi => &MESI_TABLE,
        Protocol::Dragon => &DRAGON_TABLE,
    }
}

/// How much checking the machine performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckLevel {
    /// No checking; every hook is a branch on a `None`.
    #[default]
    Off,
    /// Structural invariants: MSI, bus, resource conservation.
    Basic,
    /// [`CheckLevel::Basic`] plus the differential data check against a
    /// golden memory.
    Full,
}

impl CheckLevel {
    /// Reads the `HFS_CHECK` environment variable: unset, empty, or `0`
    /// is [`CheckLevel::Off`]; `basic` is [`CheckLevel::Basic`]; any
    /// other value (conventionally `1` or `full`) is
    /// [`CheckLevel::Full`].
    pub fn from_env() -> CheckLevel {
        match std::env::var("HFS_CHECK") {
            Err(_) => CheckLevel::Off,
            Ok(v) if v.is_empty() || v == "0" => CheckLevel::Off,
            Ok(v) if v.eq_ignore_ascii_case("basic") => CheckLevel::Basic,
            Ok(_) => CheckLevel::Full,
        }
    }
}

/// A deliberate, test-only fault seeded into the machine to prove the
/// checker detects it. The fault-injection suite arms each mutation in
/// turn and asserts the corresponding invariant fires — a vacuous
/// checker fails CI.
///
/// Mutations only take effect when armed on an enabled checker; an
/// unarmed machine behaves identically with checking on or off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Skip one snoop invalidation on an RdX, leaving a stale Shared
    /// copy coexisting with the new Modified owner.
    SkipSnoopInvalidate,
    /// Grant two address transactions in one arbitration slot.
    DoubleGrantBus,
    /// Permanently skip bus agent 1 in round-robin arbitration.
    StarveBusAgent,
    /// Drop one fill response on the bus data channel.
    DropBusResponse,
    /// Account an OzQ insert without actually occupying the slot.
    LeakOzqSlot,
    /// Lose one in-network item inside the synchronization array.
    SyncArrayLoseItem,
    /// Skip one cycle's consumer wake-ups at the synchronization array
    /// while data is deliverable.
    DropConsumerWake,
    /// Corrupt one value as it fills the stream cache.
    CorruptForwardValue,
    /// Fill the stream cache once with a slot whose consume has already
    /// issued, an entry no consume can take.
    FillConsumedSlot,
    /// Lose one completed write-forward's `ForwardDone` report, so the
    /// consumer never learns its line arrived.
    SwallowForwardDone,
    /// Deliver one load completion with a corrupted value.
    CorruptLoadValue,
    /// Perform one store with a corrupted value (the architectural
    /// event still reports the original).
    CorruptStoreValue,
    /// Install one MESI/Dragon read fill as Exclusive even though
    /// another L2 still holds the line.
    GrantExclusiveWithSharers,
    /// Skip applying one Dragon bus-update at a sharer's L2 while still
    /// counting that sharer — the delivery census comes up short.
    SkipDragonUpdate,
    /// Hide one sharer from a Dragon bus-update entirely (neither
    /// counted nor updated), leaving its copy silently stale.
    HideDragonSharer,
    /// Release one waiting SYNCOPTI consume whose store has not
    /// performed.
    ReleaseBeforeStore,
}

impl Mutation {
    /// Every mutation, in a fixed order, for exhaustive fault-injection
    /// sweeps.
    pub const ALL: [Mutation; 16] = [
        Mutation::SkipSnoopInvalidate,
        Mutation::DoubleGrantBus,
        Mutation::StarveBusAgent,
        Mutation::DropBusResponse,
        Mutation::LeakOzqSlot,
        Mutation::SyncArrayLoseItem,
        Mutation::DropConsumerWake,
        Mutation::CorruptForwardValue,
        Mutation::FillConsumedSlot,
        Mutation::SwallowForwardDone,
        Mutation::CorruptLoadValue,
        Mutation::CorruptStoreValue,
        Mutation::GrantExclusiveWithSharers,
        Mutation::SkipDragonUpdate,
        Mutation::HideDragonSharer,
        Mutation::ReleaseBeforeStore,
    ];
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Cycle the violation was detected at.
    pub at: u64,
    /// Stable dotted rule name, e.g. `msi.multiple_modified`.
    pub rule: &'static str,
    /// Human-readable specifics (line, core, values involved).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[cycle {}] {}: {}", self.at, self.rule, self.detail)
    }
}

/// The mutable state behind an enabled checker.
#[derive(Debug)]
struct CheckState {
    level: CheckLevel,
    /// Which protocol's invariant table applies.
    protocol: Protocol,
    violations: Vec<Violation>,
    /// Violations recorded past [`MAX_VIOLATIONS`].
    dropped: u64,
    /// Golden word-granular memory for the differential data check.
    golden: HashMap<u64, u64>,
    /// `(core, line)` pairs snoop-invalidated and not refilled since.
    invalidated: HashSet<(u8, u64)>,
    /// Dragon: broadcast version per line, bumped on every bus-update.
    line_version: HashMap<u64, u64>,
    /// Dragon: last broadcast version each `(core, line)` copy has
    /// observed, set at fill and at update delivery.
    holder_version: HashMap<(u8, u64), u64>,
    /// Cycle of the current bus arbitration slot.
    slot_at: u64,
    /// Address grants issued in the current slot.
    slot_grants: u32,
    /// Consecutive ungranted slots per agent with a queued request.
    waiting_slots: [u64; MAX_CORES],
    /// Accepted address requests awaiting their data response:
    /// `(line, core, accepted_at)`.
    outstanding: Vec<(u64, u8, u64)>,
    /// OzQ inserts per core since attach.
    ozq_inserted: [u64; MAX_CORES],
    /// OzQ entry removals per core since attach.
    ozq_removed: [u64; MAX_CORES],
    /// Write-forwards per `[from][to]` pair: `(accepted, reported done
    /// or dropped)`.
    forwards: [[(u64, u64); MAX_CORES]; MAX_CORES],
    /// Armed fault, if any.
    mutation: Option<Mutation>,
    /// One-shot mutations that already fired.
    fired: bool,
}

impl CheckState {
    fn new(level: CheckLevel) -> Self {
        CheckState {
            level,
            protocol: Protocol::Msi,
            violations: Vec::new(),
            dropped: 0,
            golden: HashMap::new(),
            invalidated: HashSet::new(),
            line_version: HashMap::new(),
            holder_version: HashMap::new(),
            slot_at: u64::MAX,
            slot_grants: 0,
            waiting_slots: [0; MAX_CORES],
            outstanding: Vec::new(),
            ozq_inserted: [0; MAX_CORES],
            ozq_removed: [0; MAX_CORES],
            forwards: [[(0, 0); MAX_CORES]; MAX_CORES],
            mutation: None,
            fired: false,
        }
    }

    fn violate(&mut self, at: Cycle, rule: &'static str, detail: String) {
        if self.violations.len() >= MAX_VIOLATIONS {
            self.dropped += 1;
            return;
        }
        self.violations.push(Violation {
            at: at.as_u64(),
            rule,
            detail,
        });
    }
}

/// The `(accepted, resolved)` forward counts of one core pair, if both
/// cores are within the checker's tables.
fn forward_pair(s: &mut CheckState, from: CoreId, to: CoreId) -> Option<&mut (u64, u64)> {
    s.forwards.get_mut(from.index())?.get_mut(to.index())
}

/// A cloneable handle to a per-machine check sink, in the same
/// carried-handle style as `hfs_trace::Tracer`: all clones share one
/// state, the disabled path is a branch on a `None`, and handles are
/// deliberately not `Send` (a machine lives on one worker thread).
#[derive(Clone, Debug, Default)]
pub struct Checker {
    inner: Option<Rc<RefCell<CheckState>>>,
}

impl Checker {
    /// The no-op checker: every hook is a branch on a `None`.
    pub fn disabled() -> Checker {
        Checker { inner: None }
    }

    /// A checker at the given level ([`CheckLevel::Off`] yields the
    /// disabled checker).
    pub fn with_level(level: CheckLevel) -> Checker {
        match level {
            CheckLevel::Off => Checker::disabled(),
            l => Checker {
                inner: Some(Rc::new(RefCell::new(CheckState::new(l)))),
            },
        }
    }

    /// A checker configured from the `HFS_CHECK` environment variable
    /// (see [`CheckLevel::from_env`]).
    pub fn from_env() -> Checker {
        Checker::with_level(CheckLevel::from_env())
    }

    /// Whether any checking is active.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether the differential data check is active.
    pub fn is_full(&self) -> bool {
        self.level() == CheckLevel::Full
    }

    /// The active check level.
    pub fn level(&self) -> CheckLevel {
        match &self.inner {
            Some(s) => s.borrow().level,
            None => CheckLevel::Off,
        }
    }

    /// Snapshot of the recorded violations.
    pub fn violations(&self) -> Vec<Violation> {
        match &self.inner {
            Some(s) => s.borrow().violations.clone(),
            None => Vec::new(),
        }
    }

    /// Total violations detected, including any dropped past the
    /// storage cap.
    pub fn violation_count(&self) -> u64 {
        match &self.inner {
            Some(s) => {
                let s = s.borrow();
                s.violations.len() as u64 + s.dropped
            }
            None => 0,
        }
    }

    /// The first violation rendered as a one-line report, if any — what
    /// the machine loop turns into its verification error.
    pub fn first_violation(&self) -> Option<String> {
        let s = self.inner.as_ref()?;
        let s = s.borrow();
        let first = s.violations.first()?;
        let more = s.violations.len() as u64 + s.dropped - 1;
        Some(if more == 0 {
            format!("machine-check: {first}")
        } else {
            format!("machine-check: {first} (+{more} more)")
        })
    }

    /// Records a violation directly — the escape hatch for component
    /// checks with no dedicated hook.
    pub fn report(&self, at: Cycle, rule: &'static str, f: impl FnOnce() -> String) {
        if let Some(s) = &self.inner {
            s.borrow_mut().violate(at, rule, f());
        }
    }

    // ----- fault injection ---------------------------------------------

    /// Arms a test-only mutation. Requires an enabled checker (the
    /// fault-injection suite always checks while injecting).
    pub fn set_mutation(&self, m: Mutation) {
        if let Some(s) = &self.inner {
            s.borrow_mut().mutation = Some(m);
        }
    }

    /// Whether `m` is armed and has not fired yet; marks it fired.
    /// Components call this at the exact site the fault applies, so each
    /// one-shot mutation perturbs the machine exactly once.
    pub fn fire_once(&self, m: Mutation) -> bool {
        match &self.inner {
            Some(s) => {
                let mut s = s.borrow_mut();
                if s.mutation == Some(m) && !s.fired {
                    s.fired = true;
                    true
                } else {
                    false
                }
            }
            None => false,
        }
    }

    /// Whether `m` is armed, without consuming it — for persistent
    /// faults like [`Mutation::StarveBusAgent`].
    pub fn mutation_active(&self, m: Mutation) -> bool {
        match &self.inner {
            Some(s) => s.borrow().mutation == Some(m),
            None => false,
        }
    }

    // ----- (a) coherence (per-protocol) --------------------------------

    /// Selects which protocol's invariant table this checker enforces.
    /// Call when attaching the checker to a machine; defaults to MSI.
    pub fn set_protocol(&self, protocol: Protocol) {
        if let Some(s) = &self.inner {
            s.borrow_mut().protocol = protocol;
        }
    }

    /// The protocol whose invariant table is being enforced.
    pub fn protocol(&self) -> Protocol {
        match &self.inner {
            Some(s) => s.borrow().protocol,
            None => Protocol::Msi,
        }
    }

    /// Reports the cross-L2 state census for `line` after a coherence
    /// event: each argument is the number of private L2s holding the
    /// line in that state (for Dragon read `modified` as EM, `exclusive`
    /// as EC, `shared` as SC and `shared_modified` as SM). The rules
    /// applied come from the active protocol's [`invariant_table`].
    pub fn coherence_states(
        &self,
        at: Cycle,
        line: u64,
        modified: u32,
        exclusive: u32,
        shared: u32,
        shared_modified: u32,
    ) {
        let Some(s) = &self.inner else { return };
        let mut s = s.borrow_mut();
        let total = modified + exclusive + shared + shared_modified;
        match s.protocol {
            Protocol::Msi => {
                if modified > 1 {
                    s.violate(
                        at,
                        "msi.multiple_modified",
                        format!("line {line:#x} has {modified} Modified owners"),
                    );
                }
                if modified >= 1 && shared >= 1 {
                    s.violate(
                        at,
                        "msi.shared_with_modified",
                        format!(
                            "line {line:#x} is Modified in one L2 and Shared in {shared} other(s)"
                        ),
                    );
                }
                if exclusive + shared_modified > 0 {
                    s.violate(
                        at,
                        "msi.foreign_state",
                        format!(
                            "line {line:#x} holds MESI/Dragon states under MSI \
                             ({exclusive} Exclusive, {shared_modified} SharedModified)"
                        ),
                    );
                }
            }
            Protocol::Mesi => {
                if modified > 1 {
                    s.violate(
                        at,
                        "mesi.multiple_modified",
                        format!("line {line:#x} has {modified} Modified owners"),
                    );
                }
                if modified >= 1 && shared >= 1 {
                    s.violate(
                        at,
                        "mesi.shared_with_modified",
                        format!(
                            "line {line:#x} is Modified in one L2 and Shared in {shared} other(s)"
                        ),
                    );
                }
                if exclusive >= 1 && total > 1 {
                    s.violate(
                        at,
                        "mesi.exclusive_with_sharers",
                        format!(
                            "line {line:#x} is Exclusive in one L2 but {} cop(ies) exist",
                            total
                        ),
                    );
                }
                if shared_modified > 0 {
                    s.violate(
                        at,
                        "mesi.foreign_state",
                        format!(
                            "line {line:#x} holds {shared_modified} SharedModified cop(ies) under MESI"
                        ),
                    );
                }
            }
            Protocol::Dragon => {
                let owners = modified + shared_modified;
                if owners > 1 {
                    s.violate(
                        at,
                        "dragon.multiple_owners",
                        format!("line {line:#x} has {owners} dirty owners (EM/SM)"),
                    );
                }
                if (modified >= 1 || exclusive >= 1) && total > 1 {
                    s.violate(
                        at,
                        "dragon.exclusive_with_sharers",
                        format!(
                            "line {line:#x} is exclusive (EM/EC) in one L2 but {total} cop(ies) exist"
                        ),
                    );
                }
            }
        }
    }

    /// Records that `core`'s L2 copy of `line` was snoop-invalidated.
    /// Under Dragon this is itself a violation: an update protocol never
    /// invalidates.
    pub fn on_invalidate(&self, at: Cycle, core: CoreId, line: u64) {
        if let Some(s) = &self.inner {
            let mut s = s.borrow_mut();
            if s.protocol == Protocol::Dragon {
                s.violate(
                    at,
                    "dragon.invalidate_in_update_protocol",
                    format!(
                        "core {} had line {line:#x} snoop-invalidated under Dragon",
                        core.0
                    ),
                );
            }
            s.invalidated.insert((core.0, line));
        }
    }

    /// Records that `core`'s L2 (re)gained a valid copy of `line`. A
    /// fresh fill carries the line's current data, so it also observes
    /// the latest Dragon broadcast version.
    pub fn on_line_filled(&self, core: CoreId, line: u64) {
        if let Some(s) = &self.inner {
            let mut s = s.borrow_mut();
            s.invalidated.remove(&(core.0, line));
            let v = s.line_version.get(&line).copied().unwrap_or(0);
            s.holder_version.insert((core.0, line), v);
        }
    }

    /// Registers one granted Dragon bus-update for `line` issued by
    /// `from`: `holders` other L2s held the line and `updated` of them
    /// applied the new word. Bumps the line's broadcast version; the
    /// writer itself is current by construction.
    pub fn on_bus_update(&self, at: Cycle, from: CoreId, line: u64, holders: u32, updated: u32) {
        let Some(s) = &self.inner else { return };
        let mut s = s.borrow_mut();
        let v = s.line_version.entry(line).or_insert(0);
        *v += 1;
        let v = *v;
        s.holder_version.insert((from.0, line), v);
        if updated < holders {
            s.violate(
                at,
                "dragon.update_delivered",
                format!(
                    "bus-update of line {line:#x} by core {} reached {updated} of {holders} sharer(s)",
                    from.0
                ),
            );
        }
    }

    /// Records that `core`'s copy of `line` applied the current
    /// bus-update broadcast.
    pub fn on_update_applied(&self, core: CoreId, line: u64) {
        if let Some(s) = &self.inner {
            let mut s = s.borrow_mut();
            let v = s.line_version.get(&line).copied().unwrap_or(0);
            s.holder_version.insert((core.0, line), v);
        }
    }

    /// Reports an L2 access that hit in `core`'s array. Under MSI/MESI a
    /// hit on a line the checker saw invalidated (and never refilled) is
    /// a stale-data bug; under Dragon a hit on a copy that missed a
    /// bus-update broadcast is one.
    pub fn on_l2_hit(&self, at: Cycle, core: CoreId, line: u64) {
        let Some(s) = &self.inner else { return };
        let mut s = s.borrow_mut();
        match s.protocol {
            Protocol::Dragon => {
                let current = s.line_version.get(&line).copied().unwrap_or(0);
                let seen = s
                    .holder_version
                    .get(&(core.0, line))
                    .copied()
                    .unwrap_or(current);
                if seen < current {
                    s.violate(
                        at,
                        "dragon.sharer_stale_word",
                        format!(
                            "core {} hit line {line:#x} at broadcast version {seen}, bus is at {current}",
                            core.0
                        ),
                    );
                    // Report each missed broadcast once, not per hit.
                    s.holder_version.insert((core.0, line), current);
                }
            }
            p => {
                if s.invalidated.contains(&(core.0, line)) {
                    let rule = match p {
                        Protocol::Mesi => "mesi.hit_after_invalidate",
                        _ => "msi.hit_after_invalidate",
                    };
                    s.violate(
                        at,
                        rule,
                        format!("core {} hit line {line:#x} after snoop-invalidate", core.0),
                    );
                }
            }
        }
    }

    // ----- (b) bus ------------------------------------------------------

    /// Opens a new arbitration slot at `at`.
    pub fn on_bus_slot(&self, at: Cycle) {
        if let Some(s) = &self.inner {
            let mut s = s.borrow_mut();
            s.slot_at = at.as_u64();
            s.slot_grants = 0;
        }
    }

    /// Reports an address-phase grant to `agent` in the current slot.
    pub fn on_grant(&self, at: Cycle, agent: u8) {
        let Some(s) = &self.inner else { return };
        let mut s = s.borrow_mut();
        s.slot_grants += 1;
        if (agent as usize) < MAX_CORES {
            s.waiting_slots[agent as usize] = 0;
        }
        if s.slot_grants > 1 {
            let (n, slot) = (s.slot_grants, s.slot_at);
            s.violate(
                at,
                "bus.double_grant",
                format!("{n} grants in the arbitration slot at cycle {slot}"),
            );
        }
    }

    /// Reports that `agent` ended an arbitration slot with a queued
    /// address request and no grant.
    pub fn on_agent_waiting(&self, at: Cycle, agent: u8) {
        let Some(s) = &self.inner else { return };
        let mut s = s.borrow_mut();
        let Some(w) = s.waiting_slots.get_mut(agent as usize) else {
            return;
        };
        *w += 1;
        if *w > BUS_WAIT_BOUND {
            *w = 0;
            s.violate(
                at,
                "bus.starvation",
                format!("agent {agent} waited more than {BUS_WAIT_BOUND} arbitration slots"),
            );
        }
    }

    /// Registers an accepted split-transaction request (`core` asked for
    /// `line`); it must be answered by exactly one response.
    pub fn on_addr_request(&self, at: Cycle, core: CoreId, line: u64) {
        if let Some(s) = &self.inner {
            s.borrow_mut().outstanding.push((line, core.0, at.as_u64()));
        }
    }

    /// Matches a data response (a line fill for `core`) against its
    /// outstanding request; an unmatched response is a protocol bug.
    pub fn on_addr_response(&self, at: Cycle, core: CoreId, line: u64) {
        let Some(s) = &self.inner else { return };
        let mut s = s.borrow_mut();
        match s
            .outstanding
            .iter()
            .position(|&(l, c, _)| l == line && c == core.0)
        {
            Some(i) => {
                s.outstanding.remove(i);
            }
            None => s.violate(
                at,
                "bus.orphan_response",
                format!(
                    "fill of line {line:#x} for core {} matches no request",
                    core.0
                ),
            ),
        }
    }

    /// Ages the outstanding-request table; a request unanswered for more
    /// than [`REQUEST_AGE_BOUND`] cycles means its response was lost.
    pub fn audit_outstanding(&self, at: Cycle) {
        let Some(s) = &self.inner else { return };
        let mut s = s.borrow_mut();
        let now = at.as_u64();
        while let Some(i) = s
            .outstanding
            .iter()
            .position(|&(_, _, since)| now.saturating_sub(since) > REQUEST_AGE_BOUND)
        {
            let (line, core, since) = s.outstanding.remove(i);
            s.violate(
                at,
                "bus.lost_response",
                format!("core {core} request for line {line:#x} (cycle {since}) never answered"),
            );
        }
    }

    // ----- (c) resource conservation -----------------------------------

    /// Accounts one OzQ entry allocation on `core`.
    pub fn on_ozq_insert(&self, core: CoreId) {
        if let Some(s) = &self.inner {
            if let Some(n) = s.borrow_mut().ozq_inserted.get_mut(core.0 as usize) {
                *n += 1;
            }
        }
    }

    /// Accounts `n` OzQ entry removals (completion or cancellation) on
    /// `core`.
    pub fn on_ozq_removed(&self, core: CoreId, n: u64) {
        if let Some(s) = &self.inner {
            if let Some(t) = s.borrow_mut().ozq_removed.get_mut(core.0 as usize) {
                *t += n;
            }
        }
    }

    /// Audits one core's OzQ: occupancy must not exceed capacity, and
    /// inserts must equal removals plus resident entries.
    pub fn ozq_audit(&self, at: Cycle, core: CoreId, occupancy: usize, capacity: usize) {
        let Some(s) = &self.inner else { return };
        let mut s = s.borrow_mut();
        if occupancy > capacity {
            s.violate(
                at,
                "ozq.overflow",
                format!("core {} OzQ holds {occupancy}/{capacity} entries", core.0),
            );
        }
        let idx = core.0 as usize;
        if idx < MAX_CORES {
            let (ins, rem) = (s.ozq_inserted[idx], s.ozq_removed[idx]);
            if ins != rem + occupancy as u64 {
                s.violate(
                    at,
                    "ozq.conservation",
                    format!(
                        "core {}: {ins} inserts != {rem} removals + {occupancy} resident",
                        core.0
                    ),
                );
            }
        }
    }

    /// Audits the synchronization array's global conservation law:
    /// everything injected is either delivered or still in the network.
    pub fn sync_array_audit(&self, at: Cycle, injected: u64, delivered: u64, in_network: u64) {
        let Some(s) = &self.inner else { return };
        if injected != delivered + in_network {
            s.borrow_mut().violate(
                at,
                "sa.conservation",
                format!("injected {injected} != delivered {delivered} + in-network {in_network}"),
            );
        }
    }

    /// Audits one synchronization-array ring: occupancy ≤ depth.
    pub fn sync_array_queue(&self, at: Cycle, q: QueueId, occupancy: usize, depth: usize) {
        let Some(s) = &self.inner else { return };
        if occupancy > depth {
            s.borrow_mut().violate(
                at,
                "sa.queue_overflow",
                format!("queue {} holds {occupancy}/{depth} entries", q.0),
            );
        }
    }

    /// Audits wake liveness after the synchronization array's wake pass:
    /// a consumer still parked on `q` while its ring has data and consume
    /// budget remains means a wake-up was dropped.
    pub fn sync_array_wake(&self, at: Cycle, q: QueueId, occupancy: usize, budget_left: u64) {
        let Some(s) = &self.inner else { return };
        if occupancy > 0 && budget_left > 0 {
            s.borrow_mut().violate(
                at,
                "sa.dropped_wake",
                format!(
                    "queue {}: consumer parked with {occupancy} deliverable item(s) and budget left",
                    q.0
                ),
            );
        }
    }

    /// Accounts one write-forward the memory system accepted.
    pub fn on_forward_issued(&self, from: CoreId, to: CoreId) {
        if let Some(s) = &self.inner {
            if let Some(pair) = forward_pair(&mut s.borrow_mut(), from, to) {
                pair.0 += 1;
            }
        }
    }

    /// Accounts one write-forward reported as done or dropped.
    pub fn on_forward_resolved(&self, from: CoreId, to: CoreId) {
        if let Some(s) = &self.inner {
            if let Some(pair) = forward_pair(&mut s.borrow_mut(), from, to) {
                pair.1 += 1;
            }
        }
    }

    /// Audits write-forward conservation once the machine is quiescent:
    /// for every producer→consumer pair, the forwards accepted equal
    /// those reported done plus those reported dropped. A forward that
    /// ends without a report leaves the consumer's line unresolved.
    pub fn audit_forwards(&self, at: Cycle) {
        let Some(s) = &self.inner else { return };
        let mut s = s.borrow_mut();
        for from in 0..MAX_CORES {
            for to in 0..MAX_CORES {
                let (issued, resolved) = s.forwards[from][to];
                if issued != resolved {
                    s.violate(
                        at,
                        "fwd.conservation",
                        format!(
                            "core {from} -> core {to}: {issued} forwards issued, \
                             {resolved} reported done or dropped"
                        ),
                    );
                }
            }
        }
    }

    /// Audits one stream-cache entry: its slot must not lie below
    /// `issued`, the consumer's issue position (a consume that has issued
    /// never takes it), its line must have been delivered by a
    /// write-forward, and its value must match memory (`expected`).
    pub fn stream_cache_entry(
        &self,
        at: Cycle,
        q: QueueId,
        (slot, issued): (u64, u64),
        value: u64,
        expected: u64,
        delivered: bool,
    ) {
        let Some(s) = &self.inner else { return };
        let mut s = s.borrow_mut();
        if slot < issued {
            s.violate(
                at,
                "sc.unreachable",
                format!(
                    "queue {} slot {slot} cached but the consumer issues at slot {issued}",
                    q.0
                ),
            );
        }
        if !delivered {
            s.violate(
                at,
                "sc.not_forwarded",
                format!(
                    "queue {} slot {slot} cached but its line was never delivered",
                    q.0
                ),
            );
        }
        if value != expected {
            s.violate(
                at,
                "sc.stale_value",
                format!(
                    "queue {} slot {slot}: cached {value:#x}, memory has {expected:#x}",
                    q.0
                ),
            );
        }
    }

    // ----- (d) differential data ---------------------------------------

    /// Seeds the golden memory from the functional memory's current
    /// words; call once when attaching the checker to a machine.
    pub fn seed_golden(&self, words: impl Iterator<Item = (u64, u64)>) {
        if let Some(s) = &self.inner {
            let mut s = s.borrow_mut();
            if s.level == CheckLevel::Full {
                s.golden.extend(words);
            }
        }
    }

    /// Replays a committed store against the golden memory.
    pub fn on_store(&self, _at: Cycle, addr: u64, value: u64) {
        if let Some(s) = &self.inner {
            let mut s = s.borrow_mut();
            if s.level == CheckLevel::Full {
                s.golden.insert(addr & !7, value);
            }
        }
    }

    /// A SYNCOPTI consume of `slot` on `q` was released: the slot word at
    /// `addr` must already hold the slot's sequence number, its own
    /// store having performed.
    pub fn on_consume_released(&self, at: Cycle, q: QueueId, slot: u64, addr: u64) {
        let Some(s) = &self.inner else { return };
        let mut s = s.borrow_mut();
        let held = s.golden.get(&(addr & !7)).copied();
        if s.level == CheckLevel::Full && held != Some(slot) {
            let held = held.map_or("nothing".into(), |v| v.to_string());
            let detail = format!("queue {} slot {slot} released, its word holds {held}", q.0);
            s.violate(at, "so.release_before_store", detail);
        }
    }

    /// Checks a committed load's delivered value against the golden
    /// memory.
    pub fn on_load(&self, at: Cycle, addr: u64, value: u64) {
        let Some(s) = &self.inner else { return };
        let mut s = s.borrow_mut();
        if s.level != CheckLevel::Full {
            return;
        }
        let expected = s.golden.get(&(addr & !7)).copied().unwrap_or(0);
        if value != expected {
            s.violate(
                at,
                "data.load_mismatch",
                format!("load {addr:#x} returned {value:#x}, golden has {expected:#x}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(c: u64) -> Cycle {
        Cycle::new(c)
    }

    #[test]
    fn disabled_checker_records_nothing() {
        let c = Checker::disabled();
        assert!(!c.is_enabled());
        c.on_grant(at(0), 0);
        c.on_grant(at(0), 1);
        c.on_load(at(0), 8, 42);
        assert_eq!(c.violation_count(), 0);
        assert!(c.first_violation().is_none());
        assert!(!c.fire_once(Mutation::LeakOzqSlot));
    }

    #[test]
    fn clones_share_state() {
        let c = Checker::with_level(CheckLevel::Basic);
        let c2 = c.clone();
        c2.report(at(7), "test.rule", || "shared".into());
        assert_eq!(c.violations().len(), 1);
        assert!(c.first_violation().unwrap().contains("test.rule"));
    }

    #[test]
    fn double_grant_detected() {
        let c = Checker::with_level(CheckLevel::Basic);
        c.on_bus_slot(at(4));
        c.on_grant(at(4), 0);
        assert_eq!(c.violation_count(), 0);
        c.on_grant(at(4), 2);
        assert_eq!(c.violations()[0].rule, "bus.double_grant");
        // A fresh slot resets the count.
        c.on_bus_slot(at(8));
        c.on_grant(at(8), 1);
        assert_eq!(c.violation_count(), 1);
    }

    #[test]
    fn starvation_bound_fires() {
        let c = Checker::with_level(CheckLevel::Basic);
        for i in 0..=BUS_WAIT_BOUND {
            c.on_agent_waiting(at(i), 3);
        }
        assert_eq!(c.violations()[0].rule, "bus.starvation");
        // A grant resets the counter.
        let c = Checker::with_level(CheckLevel::Basic);
        for i in 0..BUS_WAIT_BOUND {
            c.on_agent_waiting(at(i), 3);
        }
        c.on_grant(at(9_999), 3);
        c.on_agent_waiting(at(10_000), 3);
        assert_eq!(c.violation_count(), 0);
    }

    #[test]
    fn request_response_matching() {
        let c = Checker::with_level(CheckLevel::Basic);
        c.on_addr_request(at(10), CoreId(0), 0x40);
        c.on_addr_response(at(200), CoreId(0), 0x40);
        assert_eq!(c.violation_count(), 0);
        c.on_addr_response(at(201), CoreId(0), 0x40);
        assert_eq!(c.violations()[0].rule, "bus.orphan_response");
    }

    #[test]
    fn lost_response_ages_out() {
        let c = Checker::with_level(CheckLevel::Basic);
        c.on_addr_request(at(10), CoreId(1), 0x80);
        c.audit_outstanding(at(10 + REQUEST_AGE_BOUND));
        assert_eq!(c.violation_count(), 0);
        c.audit_outstanding(at(11 + REQUEST_AGE_BOUND));
        assert_eq!(c.violations()[0].rule, "bus.lost_response");
        // Consumed: a second audit does not re-report.
        c.audit_outstanding(at(12 + REQUEST_AGE_BOUND));
        assert_eq!(c.violation_count(), 1);
    }

    #[test]
    fn msi_census_rules() {
        let c = Checker::with_level(CheckLevel::Basic);
        c.coherence_states(at(5), 0x100, 1, 0, 0, 0);
        c.coherence_states(at(5), 0x100, 0, 0, 3, 0);
        assert_eq!(c.violation_count(), 0);
        c.coherence_states(at(6), 0x100, 2, 0, 0, 0);
        c.coherence_states(at(7), 0x100, 1, 0, 1, 0);
        c.coherence_states(at(8), 0x100, 0, 1, 0, 0);
        let v = c.violations();
        assert_eq!(v[0].rule, "msi.multiple_modified");
        assert_eq!(v[1].rule, "msi.shared_with_modified");
        assert_eq!(v[2].rule, "msi.foreign_state");
    }

    #[test]
    fn mesi_census_rules() {
        let c = Checker::with_level(CheckLevel::Basic);
        c.set_protocol(Protocol::Mesi);
        assert_eq!(c.protocol(), Protocol::Mesi);
        c.coherence_states(at(5), 0x100, 0, 1, 0, 0); // lone Exclusive: fine
        c.coherence_states(at(5), 0x100, 1, 0, 0, 0);
        c.coherence_states(at(5), 0x100, 0, 0, 2, 0);
        assert_eq!(c.violation_count(), 0);
        c.coherence_states(at(6), 0x100, 0, 1, 1, 0);
        assert_eq!(c.violations()[0].rule, "mesi.exclusive_with_sharers");
        c.coherence_states(at(7), 0x100, 2, 0, 0, 0);
        c.coherence_states(at(8), 0x100, 1, 0, 1, 0);
        c.coherence_states(at(9), 0x100, 0, 0, 0, 1);
        let rules: Vec<&str> = c.violations().iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"mesi.multiple_modified"));
        assert!(rules.contains(&"mesi.shared_with_modified"));
        assert!(rules.contains(&"mesi.foreign_state"));
    }

    #[test]
    fn dragon_census_rules() {
        let c = Checker::with_level(CheckLevel::Basic);
        c.set_protocol(Protocol::Dragon);
        c.coherence_states(at(5), 0x100, 0, 0, 2, 1); // SM owner + SC sharers
        c.coherence_states(at(5), 0x100, 1, 0, 0, 0); // lone EM
        c.coherence_states(at(5), 0x100, 0, 1, 0, 0); // lone EC
        assert_eq!(c.violation_count(), 0);
        c.coherence_states(at(6), 0x100, 1, 0, 0, 1); // EM + SM: two owners
        assert_eq!(c.violations()[0].rule, "dragon.multiple_owners");
        c.coherence_states(at(7), 0x100, 0, 1, 1, 0); // EC + SC
        let rules: Vec<&str> = c.violations().iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"dragon.exclusive_with_sharers"));
    }

    #[test]
    fn dragon_forbids_invalidate() {
        let c = Checker::with_level(CheckLevel::Basic);
        c.set_protocol(Protocol::Dragon);
        c.on_invalidate(at(10), CoreId(1), 0x40);
        assert_eq!(
            c.violations()[0].rule,
            "dragon.invalidate_in_update_protocol"
        );
    }

    #[test]
    fn dragon_update_delivery_census() {
        let c = Checker::with_level(CheckLevel::Basic);
        c.set_protocol(Protocol::Dragon);
        c.on_bus_update(at(10), CoreId(0), 0x40, 2, 2);
        assert_eq!(c.violation_count(), 0);
        c.on_bus_update(at(20), CoreId(0), 0x40, 2, 1);
        assert_eq!(c.violations()[0].rule, "dragon.update_delivered");
    }

    #[test]
    fn dragon_stale_sharer_word() {
        let c = Checker::with_level(CheckLevel::Basic);
        c.set_protocol(Protocol::Dragon);
        c.on_line_filled(CoreId(1), 0x40);
        c.on_l2_hit(at(5), CoreId(1), 0x40);
        assert_eq!(c.violation_count(), 0);
        // Core 0 broadcasts an update; core 1 applies it: still clean.
        c.on_bus_update(at(10), CoreId(0), 0x40, 1, 1);
        c.on_update_applied(CoreId(1), 0x40);
        c.on_l2_hit(at(11), CoreId(1), 0x40);
        assert_eq!(c.violation_count(), 0);
        // A second broadcast silently misses core 1 (counts made to
        // agree, as a hidden-sharer bug would): the next hit is stale.
        c.on_bus_update(at(20), CoreId(0), 0x40, 0, 0);
        c.on_l2_hit(at(21), CoreId(1), 0x40);
        assert_eq!(c.violations()[0].rule, "dragon.sharer_stale_word");
        // Reported once, and a refill clears the staleness.
        c.on_l2_hit(at(22), CoreId(1), 0x40);
        assert_eq!(c.violation_count(), 1);
        c.on_bus_update(at(30), CoreId(0), 0x40, 0, 0);
        c.on_line_filled(CoreId(1), 0x40);
        c.on_l2_hit(at(31), CoreId(1), 0x40);
        assert_eq!(c.violation_count(), 1);
    }

    #[test]
    fn invariant_tables_are_consistent() {
        for p in Protocol::ALL {
            let t = invariant_table(p);
            assert_eq!(t.protocol, p);
            assert!(t.contains("bus.double_grant"));
            assert!(t.contains("data.load_mismatch"));
            assert!(!t.contains("nonsense.rule"));
            for rule in t.coherence {
                assert!(
                    rule.starts_with(p.label()),
                    "{rule} not namespaced under {}",
                    p.label()
                );
            }
        }
        assert!(invariant_table(Protocol::Dragon).contains("dragon.update_delivered"));
        assert!(!invariant_table(Protocol::Dragon).contains("msi.hit_after_invalidate"));
        assert!(!invariant_table(Protocol::Msi).contains("mesi.exclusive_with_sharers"));
    }

    #[test]
    fn hit_after_invalidate_requires_no_refill() {
        let c = Checker::with_level(CheckLevel::Basic);
        c.on_invalidate(at(10), CoreId(2), 0x40);
        c.on_line_filled(CoreId(2), 0x40);
        c.on_l2_hit(at(30), CoreId(2), 0x40);
        assert_eq!(c.violation_count(), 0);
        c.on_invalidate(at(40), CoreId(2), 0x40);
        c.on_l2_hit(at(41), CoreId(2), 0x40);
        assert_eq!(c.violations()[0].rule, "msi.hit_after_invalidate");
    }

    #[test]
    fn ozq_conservation() {
        let c = Checker::with_level(CheckLevel::Basic);
        c.on_ozq_insert(CoreId(0));
        c.on_ozq_insert(CoreId(0));
        c.on_ozq_removed(CoreId(0), 1);
        c.ozq_audit(at(9), CoreId(0), 1, 16);
        assert_eq!(c.violation_count(), 0);
        c.ozq_audit(at(10), CoreId(0), 0, 16);
        assert_eq!(c.violations()[0].rule, "ozq.conservation");
        c.ozq_audit(at(11), CoreId(0), 17, 16);
        assert!(c.violations().iter().any(|v| v.rule == "ozq.overflow"));
    }

    #[test]
    fn sync_array_rules() {
        let c = Checker::with_level(CheckLevel::Basic);
        c.sync_array_audit(at(3), 10, 6, 4);
        c.sync_array_queue(at(3), QueueId(0), 4, 32);
        c.sync_array_wake(at(3), QueueId(0), 0, 4);
        c.sync_array_wake(at(3), QueueId(0), 2, 0);
        assert_eq!(c.violation_count(), 0);
        c.sync_array_audit(at(4), 10, 6, 3);
        c.sync_array_queue(at(4), QueueId(1), 33, 32);
        c.sync_array_wake(at(4), QueueId(1), 1, 4);
        let rules: Vec<&str> = c.violations().iter().map(|v| v.rule).collect();
        assert_eq!(
            rules,
            vec!["sa.conservation", "sa.queue_overflow", "sa.dropped_wake"]
        );
    }

    #[test]
    fn stream_cache_rules() {
        let c = Checker::with_level(CheckLevel::Basic);
        c.stream_cache_entry(at(2), QueueId(0), (5, 5), 42, 42, true);
        assert_eq!(c.violation_count(), 0);
        c.stream_cache_entry(at(3), QueueId(0), (5, 6), 42, 42, true);
        c.stream_cache_entry(at(3), QueueId(0), (9, 0), 42, 42, false);
        c.stream_cache_entry(at(4), QueueId(0), (5, 0), 42, 43, true);
        let rules: Vec<&str> = c.violations().iter().map(|v| v.rule).collect();
        assert_eq!(
            rules,
            vec!["sc.unreachable", "sc.not_forwarded", "sc.stale_value"]
        );
    }

    #[test]
    fn forward_conservation_rule() {
        let c = Checker::with_level(CheckLevel::Basic);
        let (p, q) = (CoreId(0), CoreId(1));
        c.on_forward_issued(p, q);
        c.on_forward_issued(p, q);
        c.on_forward_resolved(p, q);
        c.on_forward_resolved(p, q);
        c.audit_forwards(at(5));
        assert_eq!(c.violation_count(), 0);
        c.on_forward_issued(p, q);
        c.audit_forwards(at(6));
        let v = c.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "fwd.conservation");
        assert!(
            v[0].detail.contains("3 forwards issued, 2 reported"),
            "{}",
            v[0]
        );
    }

    #[test]
    fn differential_data_check() {
        let c = Checker::with_level(CheckLevel::Full);
        assert!(c.is_full());
        c.seed_golden([(0x100, 7)].into_iter());
        c.on_load(at(1), 0x100, 7);
        c.on_load(at(2), 0x104, 7); // same word (addr & !7)
        c.on_store(at(3), 0x200, 9);
        c.on_load(at(4), 0x200, 9);
        c.on_load(at(5), 0x300, 0); // untouched words read as zero
        assert_eq!(c.violation_count(), 0);
        c.on_load(at(6), 0x200, 8);
        assert_eq!(c.violations()[0].rule, "data.load_mismatch");
    }

    #[test]
    fn basic_level_skips_differential() {
        let c = Checker::with_level(CheckLevel::Basic);
        c.on_store(at(1), 0x8, 5);
        c.on_load(at(2), 0x8, 999);
        assert_eq!(c.violation_count(), 0);
    }

    #[test]
    fn mutations_fire_once() {
        let c = Checker::with_level(CheckLevel::Basic);
        assert!(!c.fire_once(Mutation::DropBusResponse));
        c.set_mutation(Mutation::DropBusResponse);
        assert!(!c.fire_once(Mutation::LeakOzqSlot));
        assert!(c.fire_once(Mutation::DropBusResponse));
        assert!(!c.fire_once(Mutation::DropBusResponse));
        assert!(c.mutation_active(Mutation::DropBusResponse));
        assert!(!c.mutation_active(Mutation::StarveBusAgent));
    }

    #[test]
    fn violation_cap_counts_overflow() {
        let c = Checker::with_level(CheckLevel::Basic);
        for i in 0..(MAX_VIOLATIONS as u64 + 5) {
            c.report(at(i), "test.flood", String::new);
        }
        assert_eq!(c.violations().len(), MAX_VIOLATIONS);
        assert_eq!(c.violation_count(), MAX_VIOLATIONS as u64 + 5);
        assert!(c.first_violation().unwrap().contains("more"));
    }

    #[test]
    fn level_from_env_values() {
        // Only exercises the parser, not the process environment.
        assert_eq!(CheckLevel::default(), CheckLevel::Off);
    }
}
