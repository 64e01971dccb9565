//! The private L2 controller with its ordered transaction queue (OzQ).
//!
//! The Itanium 2's L2 controller holds outstanding transactions in an
//! ordered queue whose entries double as MSHRs (the paper's footnote 1).
//! Operations that cannot complete *recirculate*: they re-arbitrate for an
//! L2 port every few cycles, consuming port bandwidth — the behavior that
//! explains why MEMOPTI can lose to EXISTING (§4.4). Gated streaming
//! operations (SYNCOPTI produce/consume) instead wait *dormant* in their
//! slot, consuming no ports, until the occupancy logic releases them.

use hfs_check::{Checker, Mutation};
use hfs_isa::{Addr, CoreId};
use hfs_sim::{ConfigError, Cycle};
use hfs_trace::{TraceEvent, Tracer};

use crate::cache::{CacheArray, CacheGeometry, LineState};
use crate::config::Protocol;
use crate::msg::OpLocation;
use crate::protocol;

/// Sentinel wake time for "no timed work pending".
pub(crate) const NEVER: Cycle = Cycle::new(u64::MAX);

/// What an OzQ entry is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Gated: waiting for a streaming-synchronization release.
    Dormant,
    /// Waiting to win an L2 port at or after `retry_at`.
    WaitPort { retry_at: Cycle },
    /// Accessing the L2 pipe; resolves at `done_at`.
    InPipe { done_at: Cycle },
    /// Waiting for a line fill / ownership grant for `line`.
    WaitLine { line: u64 },
    /// A forward entry waiting for its bus data transfer to finish.
    ForwardInFlight,
    /// Completed; slot reclaimed at end of tick.
    Done,
}

/// The kind of work an entry carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EntryKind {
    /// A demand load.
    Load,
    /// A store carrying its value. A `release` store may not begin its
    /// L2 access until every earlier memory operation from this core has
    /// performed (Itanium `st.rel` semantics).
    Store { value: u64, release: bool },
    /// A write-forward push of a full streaming line to another core.
    Forward { to: CoreId },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OzqEntry {
    id: u64,
    addr: Addr,
    kind: EntryKind,
    background: bool,
    /// Entered the queue dormant (a streaming operation, which bypasses
    /// the L1 on the way back too).
    gated: bool,
    state: EntryState,
}

/// Where an outstanding line request currently is (updated by the system
/// as bus/L3/DRAM stages progress); used for stall attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineStage {
    /// Needs (re-)issuing to the bus at or after the given cycle.
    WantIssue { retry_at: Cycle, exclusive: bool },
    /// Address phase issued / in flight on the bus.
    OnBus,
    /// Being serviced by the L3.
    InL3,
    /// Being serviced by DRAM.
    InDram,
    /// Data transfer on its way back.
    Incoming,
}

/// Actions the L2 asks the system to carry out this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum L2Outcome {
    /// A load hit; sample the functional value and schedule completion.
    LoadHit {
        /// Entry id.
        id: u64,
        /// Load address.
        addr: Addr,
        /// Background flag.
        background: bool,
        /// The load was submitted gated.
        gated: bool,
    },
    /// A store performed (line held in Modified).
    StorePerform {
        /// Entry id.
        id: u64,
        /// Store address.
        addr: Addr,
        /// Value to write to functional memory.
        value: u64,
        /// Background flag.
        background: bool,
    },
    /// Issue a bus request for a line.
    NeedLine {
        /// Line number.
        line: u64,
        /// True for RdX/Upgr (ownership), false for Rd.
        exclusive: bool,
        /// True when we hold the line Shared (upgrade suffices).
        have_shared: bool,
    },
    /// A forward entry read its line and wants the bus data channel.
    ForwardReady {
        /// Entry id.
        id: u64,
        /// Line to push.
        line: u64,
        /// Destination core.
        to: CoreId,
    },
    /// A forward entry found its line gone; it is abandoned.
    ForwardAbort {
        /// Line it was to push.
        line: u64,
        /// Destination core.
        to: CoreId,
    },
}

/// A line evicted by a fill, to be handled by the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct L2Victim {
    pub line: u64,
    pub dirty: bool,
}

/// An operation satisfied at fill time (MSHR refill semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResolvedWaiter {
    pub id: u64,
    pub addr: Addr,
    pub kind: EntryKind,
    pub background: bool,
    /// The operation was submitted gated.
    pub gated: bool,
}

#[derive(Debug)]
pub(crate) struct L2Ctl {
    core: CoreId,
    array: CacheArray,
    line_bytes: u64,
    /// Coherence protocol, passed to the [`protocol`] decisions: how
    /// waiting stores resolve and which states snoops leave behind.
    protocol: Protocol,
    latency_min: u64,
    ports: u32,
    capacity: u32,
    recirc: u64,
    entries: Vec<OzqEntry>,
    next_id: u64,
    /// Outstanding line requests and their stages, in no particular
    /// order. Every one has an entry waiting on it, so the OzQ capacity
    /// bounds the table and a scan beats hashing.
    pending_lines: Vec<(u64, LineStage)>,
    /// How many of `pending_lines` are in the `WantIssue` stage (NACK
    /// backoff running). Almost always zero, which is what lets
    /// [`L2Ctl::tick`] skip the reissue scan.
    want_issue: usize,
    /// Reused each tick for expired NACK backoffs (no per-cycle alloc).
    reissue_scratch: Vec<(u64, bool)>,
    /// The controller's one bound: a conservative earliest cycle at
    /// which [`L2Ctl::tick`] can change anything (pipe resolution due,
    /// port arbitration, NACK reissue). Ratcheted down by every
    /// transition into a timed state, recomputed by each tick that walks
    /// the OzQ; [`NEVER`] when no timed work exists. A release store
    /// held back behind older entries does not count — its timer has
    /// long expired, yet it cannot act until an older entry leaves the
    /// queue, which lowers this again. Ticks before it return without
    /// scanning the OzQ, and it is what the memory system folds into its
    /// own stamp.
    work_at: Cycle,
    /// Bumped by every change that can move the [`L2Ctl::location`] of
    /// an entry: an allocation or removal, a change of an entry's state
    /// kind, and every `set_pending` call. A new retry stamp inside
    /// `WaitPort`, an exclusive escalation, snoops and array changes
    /// leave it alone. While it stands still every location stands
    /// still, so a core may keep the stall component it last derived.
    moves: u64,
    // Statistics.
    pipe_accesses: u64,
    port_conflicts: u64,
    tracer: Tracer,
    checker: Checker,
}

impl L2Ctl {
    pub(crate) fn new(
        core: CoreId,
        geom: CacheGeometry,
        latency_min: u64,
        ports: u32,
        capacity: u32,
        recirc: u64,
    ) -> Result<Self, ConfigError> {
        Ok(L2Ctl {
            core,
            line_bytes: geom.line_bytes,
            array: CacheArray::new(geom)?,
            protocol: Default::default(),
            latency_min,
            ports,
            capacity,
            recirc,
            entries: Vec::new(),
            next_id: 0,
            pending_lines: Vec::new(),
            want_issue: 0,
            reissue_scratch: Vec::new(),
            work_at: NEVER,
            moves: 0,
            pipe_accesses: 0,
            port_conflicts: 0,
            tracer: Tracer::disabled(),
            checker: Checker::disabled(),
        })
    }

    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    pub(crate) fn set_checker(&mut self, checker: Checker) {
        self.checker = checker;
    }

    pub(crate) fn set_protocol(&mut self, protocol: Protocol) {
        self.protocol = protocol;
    }

    pub(crate) fn line_of(&self, addr: Addr) -> u64 {
        addr.line(self.line_bytes)
    }

    /// Records a transition into a timed state so the next [`L2Ctl::tick`]
    /// at or after `t` runs the full scan.
    fn note_wake(&mut self, t: Cycle) {
        self.work_at = self.work_at.min(t);
    }

    /// The move count (see the field): unchanged since a
    /// [`L2Ctl::location`] query means that query's answer still holds.
    pub(crate) fn moves(&self) -> u64 {
        self.moves
    }

    /// Free OzQ slots.
    pub(crate) fn free_slots(&self) -> u32 {
        self.capacity - self.entries.len() as u32
    }

    /// Entries currently in flight.
    pub(crate) fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Total OzQ slots (for the machine checker's occupancy audit).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Position of entry `id`. Ids are allocated in increasing order and
    /// removal keeps the queue's order, so `entries` is sorted by id; the
    /// operations asked about are mostly a core's oldest, near the front.
    fn position(&self, id: u64) -> Option<usize> {
        let i = self.entries.iter().position(|e| e.id >= id)?;
        (self.entries[i].id == id).then_some(i)
    }

    /// The pending stage of `line`, if a request for it is outstanding.
    fn pending(&self, line: u64) -> Option<LineStage> {
        let (_, stage) = self.pending_lines.iter().find(|(l, _)| *l == line)?;
        Some(*stage)
    }

    /// Sets (or with `None` clears) the pending stage of `line`, keeping
    /// `want_issue` the number of lines in the `WantIssue` stage.
    fn set_pending(&mut self, line: u64, stage: Option<LineStage>) {
        self.moves += 1;
        let backing_off = |s: &LineStage| usize::from(matches!(s, LineStage::WantIssue { .. }));
        let at = self.pending_lines.iter().position(|(l, _)| *l == line);
        match (at, stage) {
            (Some(i), Some(s)) => {
                let old = std::mem::replace(&mut self.pending_lines[i].1, s);
                self.want_issue -= backing_off(&old);
            }
            (Some(i), None) => {
                let (_, old) = self.pending_lines.swap_remove(i);
                self.want_issue -= backing_off(&old);
            }
            (None, Some(s)) => self.pending_lines.push((line, s)),
            (None, None) => {}
        }
        self.want_issue += stage.as_ref().map_or(0, backing_off);
    }

    /// Allocates an entry. Caller must have checked [`L2Ctl::free_slots`].
    pub(crate) fn allocate(
        &mut self,
        addr: Addr,
        kind: EntryKind,
        background: bool,
        gated: bool,
        now: Cycle,
    ) -> u64 {
        debug_assert!(self.free_slots() > 0, "OzQ overflow");
        self.moves += 1;
        let id = self.next_id;
        self.next_id += 1;
        let state = if gated {
            EntryState::Dormant
        } else {
            self.note_wake(now);
            EntryState::WaitPort { retry_at: now }
        };
        self.checker.on_ozq_insert(self.core);
        // Fault injection: account the insert but never occupy the slot —
        // the conservation audit must flag the phantom entry.
        if self.checker.fire_once(Mutation::LeakOzqSlot) {
            return id;
        }
        self.entries.push(OzqEntry {
            id,
            addr,
            kind,
            background,
            gated,
            state,
        });
        id
    }

    /// Releases a gated (dormant) entry so it arbitrates for a port.
    /// Returns false if the entry no longer exists.
    pub(crate) fn release(&mut self, id: u64, now: Cycle) -> bool {
        let Some(i) = self.position(id) else {
            return false;
        };
        if self.entries[i].state == EntryState::Dormant {
            self.entries[i].state = EntryState::WaitPort { retry_at: now };
            self.moves += 1;
            self.note_wake(now);
        }
        true
    }

    /// Stall-attribution location of entry `id`.
    pub(crate) fn location(&self, id: u64) -> Option<OpLocation> {
        let e = &self.entries[self.position(id)?];
        Some(match e.state {
            EntryState::Dormant => OpLocation::Dormant,
            EntryState::WaitPort { .. } => OpLocation::WaitPort,
            EntryState::InPipe { .. } => OpLocation::InL2,
            EntryState::ForwardInFlight => OpLocation::OnBus,
            EntryState::Done => OpLocation::Filling,
            EntryState::WaitLine { line } => match self.pending(line) {
                Some(LineStage::WantIssue { .. }) | Some(LineStage::OnBus) => OpLocation::OnBus,
                Some(LineStage::InL3) => OpLocation::InL3,
                Some(LineStage::InDram) => OpLocation::InDram,
                Some(LineStage::Incoming) => OpLocation::OnBus,
                None => OpLocation::WaitPort,
            },
        })
    }

    /// Advances one cycle: grants ports, resolves pipe accesses, and
    /// re-issues NACKed line requests. Outcomes for the system are
    /// appended to the caller-owned `out` buffer.
    pub(crate) fn tick(&mut self, now: Cycle, out: &mut Vec<L2Outcome>) {
        // Quiet tick: nothing is due — no pipe access resolves, no entry
        // can arbitrate, no reissue timer expired — so the full scan below
        // would be a no-op. Entries in untimed states (dormant, waiting
        // on a line or the bus, held behind older entries) advance only
        // via external calls, which ratchet `work_at` back down.
        if self.work_at > now {
            return;
        }

        // 1. One walk in queue order: resolve the pipe accesses that
        // finish this cycle, grant up to `ports` pipe starts to waiting
        // entries, and collect the next wake time. Resolving creates no
        // `WaitPort` state and granting reads nothing else, so one pass
        // decides exactly what a resolve pass followed by a grant pass
        // would.
        let mut granted = 0u32;
        // An earlier load or store is still queued (forwards do not
        // order release stores).
        let mut seen_non_forward = false;
        let mut any_done = false;
        let mut any_held = false;
        // Next due time of everything but the held-back release stores.
        let mut work = NEVER;
        for i in 0..self.entries.len() {
            let e = self.entries[i];
            // A release store is held back (without consuming ports)
            // until it is the oldest memory operation remaining from
            // this core.
            let held = seen_non_forward && matches!(e.kind, EntryKind::Store { release: true, .. });
            seen_non_forward |= !matches!(e.kind, EntryKind::Forward { .. });
            let state = match e.state {
                EntryState::InPipe { done_at } if done_at <= now => self.resolve_pipe(e, now, out),
                EntryState::WaitPort { retry_at } if retry_at <= now && held => {
                    any_held = true;
                    continue;
                }
                EntryState::WaitPort { retry_at } if retry_at <= now => {
                    if granted >= self.ports {
                        // Beaten in arbitration: recirculate after the
                        // interval.
                        self.port_conflicts += 1;
                        self.tracer.emit(|| TraceEvent::OzqRecirc {
                            core: self.core,
                            at: now.as_u64(),
                        });
                        EntryState::WaitPort {
                            retry_at: now + self.recirc,
                        }
                    } else {
                        let lat = self.latency_min + 2 * (self.line_of(e.addr) % 3);
                        self.pipe_accesses += 1;
                        granted += 1;
                        EntryState::InPipe { done_at: now + lat }
                    }
                }
                unchanged => unchanged,
            };
            // A new retry stamp inside `WaitPort` moves no location.
            if std::mem::discriminant(&state) != std::mem::discriminant(&e.state) {
                self.moves += 1;
            }
            self.entries[i].state = state;
            match state {
                EntryState::WaitPort { retry_at } => work = work.min(retry_at),
                EntryState::InPipe { done_at } => work = work.min(done_at),
                EntryState::Done => any_done = true,
                EntryState::Dormant | EntryState::WaitLine { .. } | EntryState::ForwardInFlight => {
                }
            }
        }

        // 2. Re-issue line requests whose NACK backoff expired. Sorted by
        // line number so the reissue order is a function of simulation
        // state, not of the list's order.
        if self.want_issue > 0 {
            let mut reissue = std::mem::take(&mut self.reissue_scratch);
            reissue.clear();
            for &(line, stage) in &self.pending_lines {
                if let LineStage::WantIssue {
                    retry_at,
                    exclusive,
                } = stage
                {
                    if retry_at <= now {
                        reissue.push((line, exclusive));
                    } else {
                        work = work.min(retry_at);
                    }
                }
            }
            reissue.sort_unstable_by_key(|&(line, _)| line);
            for &(line, exclusive) in &reissue {
                let have_shared = matches!(
                    self.array.probe(line),
                    Some(LineState::Shared) | Some(LineState::SharedModified)
                );
                self.set_pending(line, Some(LineStage::OnBus));
                out.push(L2Outcome::NeedLine {
                    line,
                    exclusive,
                    have_shared,
                });
            }
            self.reissue_scratch = reissue;
        }

        // 3. Reclaim finished slots. A held-back release store may find
        // itself the oldest once they are gone.
        if any_done {
            self.reclaim_done();
            if any_held {
                work = work.min(now.next());
            }
        }
        self.work_at = work;
    }

    /// The L2 pipe access of `e` finishes: looks the line up and returns
    /// the entry's next state, pushing what the system must do to `out`.
    fn resolve_pipe(&mut self, e: OzqEntry, now: Cycle, out: &mut Vec<L2Outcome>) -> EntryState {
        let OzqEntry {
            id,
            addr,
            kind,
            background,
            gated,
            ..
        } = e;
        let line = self.line_of(addr);
        let present = self.array.access(line);
        match kind {
            EntryKind::Forward { to } => match present {
                // A forward needs a dirty copy to push (Modified, or the
                // Dragon SM owner).
                Some(s) if s.dirty() => {
                    out.push(L2Outcome::ForwardReady { id, line, to });
                    EntryState::ForwardInFlight
                }
                _ => {
                    out.push(L2Outcome::ForwardAbort { line, to });
                    EntryState::Done
                }
            },
            EntryKind::Load => match present {
                Some(_) => {
                    out.push(L2Outcome::LoadHit {
                        id,
                        addr,
                        background,
                        gated,
                    });
                    EntryState::Done
                }
                None => {
                    self.want_line(line, false, false, now, out);
                    EntryState::WaitLine { line }
                }
            },
            EntryKind::Store { value, .. } => {
                // Modified performs; Exclusive upgrades silently first
                // (MESI E→M, Dragon EC→EM: the only copy, no bus
                // transaction).
                if present == Some(LineState::Exclusive) {
                    self.array.set_state(line, LineState::Modified);
                }
                match present {
                    Some(LineState::Modified) | Some(LineState::Exclusive) => {
                        out.push(L2Outcome::StorePerform {
                            id,
                            addr,
                            value,
                            background,
                        });
                        EntryState::Done
                    }
                    // Shared copies: MSI/MESI request an ownership
                    // upgrade, Dragon a bus-update broadcast (the system
                    // maps exclusive+have_shared to Upd).
                    Some(LineState::Shared) | Some(LineState::SharedModified) | None => {
                        self.want_line(line, true, present.is_some(), now, out);
                        EntryState::WaitLine { line }
                    }
                }
            }
        }
    }

    /// Drops the `Done` entries, in order, and tells the checker.
    fn reclaim_done(&mut self) {
        let before = self.entries.len();
        self.entries.retain(|e| e.state != EntryState::Done);
        self.note_removed(before);
    }

    /// The controller's bound (see the field), unclamped: it may lie in
    /// the past. Entries driven purely by external events — dormant
    /// gated operations, line waiters, forwards on the bus — contribute
    /// nothing; their wake-ups show up through the bus/L3 bounds instead.
    pub(crate) fn work_at(&self) -> Cycle {
        self.work_at
    }

    fn want_line(
        &mut self,
        line: u64,
        exclusive: bool,
        have_shared: bool,
        _now: Cycle,
        out: &mut Vec<L2Outcome>,
    ) {
        match self.pending_lines.iter_mut().find(|(l, _)| *l == line) {
            Some((_, stage)) => {
                // Escalate a pending shared request to exclusive if a
                // store arrived behind a load (handled at refetch: the
                // store will re-discover state). Keep the stronger need.
                if exclusive {
                    if let LineStage::WantIssue {
                        exclusive: ex @ false,
                        ..
                    } = stage
                    {
                        *ex = true;
                    }
                }
            }
            None => {
                self.set_pending(line, Some(LineStage::OnBus));
                out.push(L2Outcome::NeedLine {
                    line,
                    exclusive,
                    have_shared,
                });
            }
        }
    }

    /// The bus NACKed our request for `line` (another transaction on the
    /// line is in flight); back off and retry.
    pub(crate) fn nack_line(&mut self, line: u64, retry_at: Cycle, exclusive: bool) {
        self.note_wake(retry_at);
        self.set_pending(
            line,
            Some(LineStage::WantIssue {
                retry_at,
                exclusive,
            }),
        );
    }

    /// Progress notifications from the system for stall attribution.
    pub(crate) fn line_stage(&mut self, line: u64, stage: LineStage) {
        if self.pending(line).is_some() {
            self.set_pending(line, Some(stage));
        }
    }

    /// Installs a filled line. Returns the victim, if the fill evicted
    /// one. Waiting entries are *not* woken here — call
    /// [`L2Ctl::drain_line_waiters`] right after, so the fill satisfies
    /// them atomically (MSHR semantics) before another core's snoop can
    /// steal the line back; without this, two cores ping-ponging a line
    /// can livelock, each stealing it before the other's waiting access
    /// finishes its pipe pass.
    pub(crate) fn fill(&mut self, line: u64, state: LineState, _now: Cycle) -> Option<L2Victim> {
        self.set_pending(line, None);
        self.array.install(line, state).map(|v| L2Victim {
            line: v.line,
            dirty: v.state.dirty(),
        })
    }

    /// Resolves entries waiting on `line` after a fill or upgrade/update
    /// grant: loads always complete; stores complete only when the line
    /// is [`protocol::writable`], and otherwise re-arbitrate to request
    /// ownership (or an update). Appends the resolved operations to
    /// `out` in OzQ (program) order.
    pub(crate) fn drain_line_waiters(
        &mut self,
        line: u64,
        now: Cycle,
        out: &mut Vec<ResolvedWaiter>,
    ) {
        let writable = protocol::writable(self.protocol, self.array.probe(line));
        let mut upgrade_exclusive = false;
        let mut requeued = false;
        let resolved = out.len();
        for e in &mut self.entries {
            if e.state != (EntryState::WaitLine { line }) {
                continue;
            }
            let resolve = match e.kind {
                EntryKind::Load => true,
                EntryKind::Store { .. } => {
                    upgrade_exclusive |= writable;
                    writable
                }
                EntryKind::Forward { .. } => false,
            };
            if resolve {
                e.state = EntryState::Done;
                out.push(ResolvedWaiter {
                    id: e.id,
                    addr: e.addr,
                    kind: e.kind,
                    background: e.background,
                    gated: e.gated,
                });
            } else {
                // Re-arbitrate (e.g. a store that only got a Shared copy
                // and must upgrade).
                e.state = EntryState::WaitPort { retry_at: now };
                requeued = true;
            }
        }
        if upgrade_exclusive && self.array.probe(line) == Some(LineState::Exclusive) {
            // A store resolved against an Exclusive fill: the silent
            // upgrade happens at resolution (MESI E→M, Dragon EC→EM).
            self.array.set_state(line, LineState::Modified);
        }
        let any_resolved = out.len() > resolved;
        if any_resolved {
            self.reclaim_done();
        }
        // An entry re-arbitrates, or a held-back release store may now be
        // the oldest.
        if requeued || any_resolved {
            self.moves += 1;
            self.note_wake(now);
        }
    }

    /// Snoop for a read: our copy moves to the state
    /// [`protocol::snoop_read`] names. Returns true when we supply.
    pub(crate) fn snoop_rd(&mut self, line: u64) -> bool {
        let Some(state) = self.array.probe(line) else {
            return false;
        };
        let (next, supplies) = protocol::snoop_read(self.protocol, state);
        if next != state {
            self.array.set_state(line, next);
        }
        supplies
    }

    /// Snoop for an exclusive read / upgrade: invalidate our copy,
    /// returning the state it was in. Never called under Dragon.
    pub(crate) fn snoop_inv(&mut self, line: u64) -> Option<LineState> {
        self.array.invalidate(line)
    }

    /// Dragon: a bus-update broadcast for `line` reached this L2; a copy
    /// we hold moves to [`protocol::snoop_update`]. Returns true when we
    /// held the line.
    pub(crate) fn snoop_upd(&mut self, line: u64) -> bool {
        self.array.set_state(line, protocol::snoop_update());
        self.array.probe(line).is_some()
    }

    /// A forward data transfer finished: drop the line here (ownership
    /// moved to the destination) and complete the forward entry.
    pub(crate) fn forward_complete(&mut self, id: u64, line: u64) {
        self.array.invalidate(line);
        self.drop_forward(id);
    }

    /// Retires forward entry `id` without touching the array: the push
    /// was abandoned after its pipe pass (the destination is already
    /// fetching the line by demand).
    pub(crate) fn drop_forward(&mut self, id: u64) {
        let before = self.entries.len();
        self.entries.retain(|e| e.id != id);
        self.note_removed(before);
    }

    /// Reports entry reclamations to the checker's OzQ conservation
    /// accounting.
    fn note_removed(&mut self, before: usize) {
        let n = before - self.entries.len();
        if n > 0 {
            self.moves += 1;
            self.checker.on_ozq_removed(self.core, n as u64);
        }
    }

    /// Direct state lookup (no LRU effect), for the system's decisions.
    pub(crate) fn probe(&self, line: u64) -> Option<LineState> {
        self.array.probe(line)
    }

    /// Promotes a resident Shared line to Modified after an upgrade
    /// grant. Call [`L2Ctl::drain_line_waiters`] afterwards to resolve the
    /// waiting stores atomically.
    pub(crate) fn grant_upgrade(&mut self, line: u64, _now: Cycle) {
        self.set_pending(line, None);
        self.array.set_state(line, LineState::Modified);
    }

    /// Dragon: our bus-update for `line` was granted and delivered; the
    /// line moves to [`protocol::after_update`]. Call
    /// [`L2Ctl::drain_line_waiters`] afterwards to resolve the waiting
    /// stores atomically.
    pub(crate) fn grant_update(&mut self, line: u64, any_sharer: bool, _now: Cycle) {
        self.set_pending(line, None);
        self.array
            .set_state(line, protocol::after_update(any_sharer));
    }

    /// Renders entry states for deadlock diagnostics.
    pub(crate) fn debug_entries(&self) -> String {
        let mut s = String::new();
        for e in &self.entries {
            s.push_str(&format!(
                "[id={} addr={:#x} kind={:?} state={:?}] ",
                e.id,
                e.addr.as_u64(),
                e.kind,
                e.state
            ));
        }
        s.push_str(&format!("pending_lines={:?}", self.pending_lines));
        s
    }

    /// Total pipe accesses granted (port bandwidth consumed).
    pub(crate) fn pipe_accesses(&self) -> u64 {
        self.pipe_accesses
    }

    /// Times an entry lost port arbitration and recirculated.
    pub(crate) fn port_conflicts(&self) -> u64 {
        self.port_conflicts
    }

    /// Tag-array lookup hits (for aggregated L2 counters).
    pub(crate) fn array_hits(&self) -> u64 {
        self.array.hits()
    }

    /// Tag-array lookup misses (for aggregated L2 counters).
    pub(crate) fn array_misses(&self) -> u64 {
        self.array.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_sim::Rng64;

    impl L2Ctl {
        /// [`L2Ctl::work_at`] as the bound after `now` that fast-forward
        /// folds, `None` when every entry is externally driven (or there
        /// are none).
        pub(crate) fn next_event(&self, now: Cycle) -> Option<Cycle> {
            // A tick before `work_at` is a proven no-op, so the cycles up
            // to it can be skipped as well as ticked through. A held-back
            // release store's expired timer is not an event: whatever
            // frees the store is some other component's bound.
            (self.work_at != NEVER).then(|| self.work_at.max(now.next()))
        }
    }

    fn l2() -> L2Ctl {
        L2Ctl::new(
            CoreId(0),
            CacheGeometry::new(256 * 1024, 8, 128),
            5,
            2,
            16,
            4,
        )
        .unwrap()
    }

    fn drain(c: &mut L2Ctl, line: u64, now: u64) -> Vec<ResolvedWaiter> {
        let mut out = Vec::new();
        c.drain_line_waiters(line, Cycle::new(now), &mut out);
        out
    }

    fn drive(c: &mut L2Ctl, from: u64, to: u64) -> Vec<(u64, L2Outcome)> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        for t in from..to {
            c.tick(Cycle::new(t), &mut buf);
            for o in buf.drain(..) {
                out.push((t, o));
            }
        }
        out
    }

    #[test]
    fn load_miss_requests_line_then_hits_after_fill() {
        let mut c = l2();
        let addr = Addr::new(0x1000);
        let line = c.line_of(addr);
        c.allocate(addr, EntryKind::Load, false, false, Cycle::new(0));
        let out = drive(&mut c, 0, 12);
        assert!(out.iter().any(|(_, o)| matches!(
            o,
            L2Outcome::NeedLine {
                exclusive: false,
                ..
            }
        )));
        // Fill arrives; MSHR semantics satisfy the waiting load at once.
        assert!(c.fill(line, LineState::Shared, Cycle::new(20)).is_none());
        let waiters = drain(&mut c, line, 20);
        assert_eq!(waiters.len(), 1);
        assert_eq!(waiters[0].kind, EntryKind::Load);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn store_to_shared_needs_upgrade() {
        let mut c = l2();
        let addr = Addr::new(0x2000);
        let line = c.line_of(addr);
        c.fill(line, LineState::Shared, Cycle::new(0));
        c.allocate(
            addr,
            EntryKind::Store {
                value: 7,
                release: false,
            },
            false,
            false,
            Cycle::new(0),
        );
        let out = drive(&mut c, 0, 12);
        assert!(out.iter().any(|(_, o)| matches!(
            o,
            L2Outcome::NeedLine {
                exclusive: true,
                have_shared: true,
                ..
            }
        )));
        c.grant_upgrade(line, Cycle::new(15));
        let waiters = drain(&mut c, line, 15);
        assert_eq!(waiters.len(), 1);
        assert!(matches!(waiters[0].kind, EntryKind::Store { value: 7, .. }));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn store_hit_modified_performs_in_bank_latency() {
        let mut c = l2();
        let addr = Addr::new(0x3000);
        let line = c.line_of(addr);
        c.fill(line, LineState::Modified, Cycle::new(0));
        c.allocate(
            addr,
            EntryKind::Store {
                value: 1,
                release: false,
            },
            false,
            false,
            Cycle::new(0),
        );
        let out = drive(&mut c, 0, 12);
        let (t, _) = out
            .iter()
            .find(|(_, o)| matches!(o, L2Outcome::StorePerform { .. }))
            .expect("store performed");
        // Bank latency is 5/7/9.
        assert!(*t >= 5 && *t <= 9, "perform at {t}");
    }

    #[test]
    fn ports_limit_pipe_starts() {
        let mut c = l2();
        let line = c.line_of(Addr::new(0));
        c.fill(line, LineState::Shared, Cycle::new(0));
        // Four loads to the same (present) line; only 2 ports.
        for _ in 0..4 {
            c.allocate(Addr::new(0), EntryKind::Load, false, false, Cycle::new(0));
        }
        c.tick(Cycle::new(0), &mut Vec::new());
        assert_eq!(c.pipe_accesses(), 2);
        assert_eq!(c.port_conflicts(), 2);
    }

    #[test]
    fn mshr_merges_requests_to_same_line() {
        let mut c = l2();
        for i in 0..2 {
            c.allocate(
                Addr::new(0x4000 + i * 8),
                EntryKind::Load,
                false,
                false,
                Cycle::new(0),
            );
        }
        let out = drive(&mut c, 0, 12);
        let needs = out
            .iter()
            .filter(|(_, o)| matches!(o, L2Outcome::NeedLine { .. }))
            .count();
        assert_eq!(needs, 1, "one bus request per line");
        // Fill satisfies both merged loads.
        let line = c.line_of(Addr::new(0x4000));
        c.fill(line, LineState::Shared, Cycle::new(20));
        let waiters = drain(&mut c, line, 20);
        assert_eq!(waiters.len(), 2);
        assert!(waiters.iter().all(|w| w.kind == EntryKind::Load));
    }

    #[test]
    fn dormant_entry_takes_no_ports_until_release() {
        let mut c = l2();
        let line = c.line_of(Addr::new(0));
        c.fill(line, LineState::Modified, Cycle::new(0));
        let id = c.allocate(
            Addr::new(0),
            EntryKind::Store {
                value: 9,
                release: false,
            },
            false,
            true,
            Cycle::new(0),
        );
        let out = drive(&mut c, 0, 10);
        assert!(out.is_empty());
        assert_eq!(c.pipe_accesses(), 0);
        assert_eq!(c.location(id), Some(OpLocation::Dormant));
        assert!(c.release(id, Cycle::new(10)));
        let out = drive(&mut c, 10, 25);
        assert!(out
            .iter()
            .any(|(_, o)| matches!(o, L2Outcome::StorePerform { value: 9, .. })));
    }

    #[test]
    fn snoop_rd_downgrades_modified() {
        let mut c = l2();
        c.fill(3, LineState::Modified, Cycle::new(0));
        assert!(c.snoop_rd(3));
        assert_eq!(c.probe(3), Some(LineState::Shared));
        assert!(!c.snoop_rd(3)); // already shared: no supply
    }

    #[test]
    fn snoop_inv_reports_states() {
        let mut c = l2();
        c.fill(5, LineState::Modified, Cycle::new(0));
        assert_eq!(c.snoop_inv(5), Some(LineState::Modified));
        assert_eq!(c.snoop_inv(5), None);
        c.fill(6, LineState::Shared, Cycle::new(0));
        assert_eq!(c.snoop_inv(6), Some(LineState::Shared));
    }

    #[test]
    fn forward_entry_pushes_modified_line() {
        let mut c = l2();
        let addr = Addr::new(0x5000);
        let line = c.line_of(addr);
        c.fill(line, LineState::Modified, Cycle::new(0));
        let id = c.allocate(
            addr,
            EntryKind::Forward { to: CoreId(1) },
            false,
            false,
            Cycle::new(0),
        );
        let out = drive(&mut c, 0, 12);
        assert!(out
            .iter()
            .any(|(_, o)| matches!(o, L2Outcome::ForwardReady { to: CoreId(1), .. })));
        c.forward_complete(id, line);
        assert_eq!(c.probe(line), None);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn forward_aborts_when_line_gone() {
        let mut c = l2();
        c.allocate(
            Addr::new(0x6000),
            EntryKind::Forward { to: CoreId(1) },
            false,
            false,
            Cycle::new(0),
        );
        let out = drive(&mut c, 0, 12);
        assert!(out
            .iter()
            .any(|(_, o)| matches!(o, L2Outcome::ForwardAbort { .. })));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn nack_backs_off_and_reissues() {
        let mut c = l2();
        c.allocate(
            Addr::new(0x7000),
            EntryKind::Load,
            false,
            false,
            Cycle::new(0),
        );
        let out = drive(&mut c, 0, 12);
        assert_eq!(
            out.iter()
                .filter(|(_, o)| matches!(o, L2Outcome::NeedLine { .. }))
                .count(),
            1
        );
        let line = c.line_of(Addr::new(0x7000));
        c.nack_line(line, Cycle::new(30), false);
        let out = drive(&mut c, 12, 40);
        let reissues: Vec<u64> = out
            .iter()
            .filter(|(_, o)| matches!(o, L2Outcome::NeedLine { .. }))
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(reissues, vec![30]);
    }

    #[test]
    fn fill_evicts_and_reports_dirty_victim() {
        let mut c = L2Ctl::new(
            CoreId(0),
            CacheGeometry::new(256, 2, 128), // 1 set, 2 ways
            5,
            2,
            16,
            4,
        )
        .unwrap();
        c.fill(1, LineState::Modified, Cycle::new(0));
        c.fill(2, LineState::Shared, Cycle::new(0));
        let v = c.fill(3, LineState::Shared, Cycle::new(0)).expect("victim");
        assert_eq!(v.line, 1);
        assert!(v.dirty);
    }

    #[test]
    fn free_slots_and_occupancy() {
        let mut c = l2();
        assert_eq!(c.free_slots(), 16);
        c.allocate(Addr::new(0), EntryKind::Load, false, false, Cycle::new(0));
        assert_eq!(c.free_slots(), 15);
        assert_eq!(c.occupancy(), 1);
    }

    fn store(release: bool) -> EntryKind {
        EntryKind::Store { value: 1, release }
    }

    /// Ids of the entries that are accessing the pipe.
    fn in_pipe(c: &L2Ctl) -> Vec<u64> {
        let piped = |e: &&OzqEntry| matches!(e.state, EntryState::InPipe { .. });
        c.entries.iter().filter(piped).map(|e| e.id).collect()
    }

    #[test]
    fn grants_go_in_queue_order_and_losers_recirculate() {
        let mut c = l2();
        c.fill(0, LineState::Shared, Cycle::new(0));
        let ids: Vec<u64> = (0..4)
            .map(|_| c.allocate(Addr::new(0), EntryKind::Load, false, false, Cycle::new(0)))
            .collect();
        c.tick(Cycle::new(0), &mut Vec::new());
        // The two oldest win the two ports, as in `ports_limit_pipe_starts`.
        assert_eq!(in_pipe(&c), ids[..2]);
        assert_eq!((c.pipe_accesses(), c.port_conflicts()), (2, 2));
        // The losers come back after the recirculation interval (4).
        drive(&mut c, 1, 4);
        assert_eq!(c.port_conflicts(), 2);
        c.tick(Cycle::new(4), &mut Vec::new());
        assert_eq!(in_pipe(&c), ids);
        assert_eq!((c.pipe_accesses(), c.port_conflicts()), (4, 2));
    }

    #[test]
    fn release_store_waits_for_older_accesses_but_not_for_forwards() {
        let at = Cycle::new;
        for older in [EntryKind::Load, store(false), store(true)] {
            let mut c = l2();
            // The older access misses and waits for its line.
            let first = c.allocate(Addr::new(0x8000), older, false, false, at(0));
            let rel = c.allocate(Addr::new(0x9000), store(true), false, false, at(0));
            let out = drive(&mut c, 0, 40);
            assert_eq!(in_pipe(&c), Vec::<u64>::new());
            assert_eq!(c.pipe_accesses(), 1, "only {older:?} accessed the pipe");
            assert_eq!(c.port_conflicts(), 0, "a held store loses no arbitration");
            assert_eq!(out.len(), 1, "one line request: {out:?}");
            assert_eq!(c.location(rel), Some(OpLocation::WaitPort));
            // Held, its expired timer is not an event: nothing here can
            // act until the line arrives, which is the bus's to announce.
            assert_eq!(c.next_event(at(40)), None);
            // The older access completes and leaves; the release store
            // is due at once, and goes next.
            let line = c.line_of(Addr::new(0x8000));
            c.fill(line, LineState::Modified, at(40));
            assert_eq!(c.next_event(at(40)), None, "a fill alone frees nothing");
            assert_eq!(drain(&mut c, line, 40)[0].id, first);
            assert_eq!(c.next_event(at(40)), Some(at(41)));
            c.tick(at(40), &mut Vec::new());
            assert_eq!(in_pipe(&c), vec![rel]);
        }
        // The older access hits, and leaves when the tick that resolves
        // it reclaims its slot.
        let mut c = l2();
        c.fill(0, LineState::Shared, at(0));
        let load = c.allocate(Addr::new(0), EntryKind::Load, false, false, at(0));
        let rel = c.allocate(Addr::new(0x9000), store(true), false, false, at(0));
        c.tick(at(0), &mut Vec::new());
        assert_eq!(in_pipe(&c), vec![load]);
        let done = c.next_event(at(0)).expect("the load is in the pipe");
        assert!(done > at(1), "held, the store leaves the bound to the load");
        let out = drive(&mut c, 1, done.as_u64() + 1);
        assert!(matches!(out[..], [(_, L2Outcome::LoadHit { .. })]));
        assert_eq!((c.occupancy(), in_pipe(&c)), (1, vec![]));
        assert_eq!(c.next_event(done), Some(done.next()));
        c.tick(done.next(), &mut Vec::new());
        assert_eq!(in_pipe(&c), vec![rel]);
        // Behind forwards only, it is not held at all.
        let mut c = l2();
        let push = EntryKind::Forward { to: CoreId(1) };
        let fwd = c.allocate(Addr::new(0x8000), push, true, false, at(0));
        let rel = c.allocate(Addr::new(0x9000), store(true), false, false, at(0));
        c.tick(at(0), &mut Vec::new());
        assert_eq!(in_pipe(&c), vec![fwd, rel]);
    }

    /// Whether entry `i` of `c` is a release store behind an older load
    /// or store.
    fn held(c: &L2Ctl, i: usize) -> bool {
        let orders = |e: &OzqEntry| !matches!(e.kind, EntryKind::Forward { .. });
        matches!(c.entries[i].kind, EntryKind::Store { release: true, .. })
            && c.entries[..i].iter().any(orders)
    }

    /// Whether a held-back release store of `c` has its timer expired.
    fn held_expired(c: &L2Ctl, now: Cycle) -> bool {
        let expired =
            |e: &OzqEntry| matches!(e.state, EntryState::WaitPort { retry_at } if retry_at <= now);
        (0..c.entries.len()).any(|i| held(c, i) && expired(&c.entries[i]))
    }

    /// The earliest cycle the timers of `c`'s current state let a tick
    /// change anything: held-back release stores cannot act.
    fn brute_force_work(c: &L2Ctl) -> Cycle {
        let entries = c
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.state {
                EntryState::WaitPort { retry_at } if !held(c, i) => Some(retry_at),
                EntryState::InPipe { done_at } => Some(done_at),
                _ => None,
            });
        let lines = c.pending_lines.iter().filter_map(|(_, s)| match s {
            LineStage::WantIssue { retry_at, .. } => Some(*retry_at),
            _ => None,
        });
        entries.chain(lines).min().unwrap_or(NEVER)
    }

    /// Every live entry's location, in queue order.
    fn locations(c: &L2Ctl) -> Vec<(u64, Option<OpLocation>)> {
        c.entries.iter().map(|e| (e.id, c.location(e.id))).collect()
    }

    /// The move-count contract: while `moves` stands still, no entry
    /// arrives, leaves or changes location. `last` is the previous check.
    fn check_moves(c: &L2Ctl, last: &mut (u64, Vec<(u64, Option<OpLocation>)>), t: u64) {
        let now = (c.moves, locations(c));
        if now.0 == last.0 {
            assert_eq!(
                now.1, last.1,
                "cycle {t}: a location moved, the count did not"
            );
        }
        *last = now;
    }

    fn backing_off(c: &L2Ctl) -> usize {
        let nacked = |(_, s): &&(u64, LineStage)| matches!(s, LineStage::WantIssue { .. });
        c.pending_lines.iter().filter(nacked).count()
    }

    /// Drives two controllers with one seeded script of allocations,
    /// releases, NACKs, stage updates, fills, grants, forward completions
    /// and snoops — the calls the system makes, in the order it may make
    /// them. `fast` is the controller as built; `slow` has `work_at`
    /// pulled back to `now` before every tick, so it walks the OzQ on
    /// every cycle. Both must agree on everything, every cycle: a tick
    /// before `work_at` changes nothing. Before and after each tick, the
    /// locations only move when the move count does.
    fn run_script(protocol: Protocol, seed: u64) -> (u64, u64) {
        let mut rng = Rng64::new(seed);
        let build = || {
            let mut c =
                L2Ctl::new(CoreId(0), CacheGeometry::new(2048, 2, 128), 5, 2, 8, 4).unwrap();
            c.set_protocol(protocol);
            c
        };
        let (mut fast, mut slow) = (build(), build());
        // Line requests and forwards the "system" owes an answer to.
        let mut reqs: Vec<(u64, bool, bool)> = Vec::new();
        let mut forwards: Vec<(u64, u64)> = Vec::new();
        let mut gated: Vec<u64> = Vec::new();
        let (mut held_skips, mut reissue_waits) = (0u64, 0u64);
        let (mut out_fast, mut out_slow) = (Vec::new(), Vec::new());
        let mut last_moves = (fast.moves, Vec::new());
        for t in 0..6_000u64 {
            let now = Cycle::new(t);
            // Every call goes to both controllers.
            macro_rules! both {
                ($c:ident => $call:expr) => {{
                    let a = {
                        let $c = &mut fast;
                        $call
                    };
                    let b = {
                        let $c = &mut slow;
                        $call
                    };
                    assert_eq!(a, b, "cycle {t}");
                    a
                }};
            }
            let drain_both = |fast: &mut L2Ctl, slow: &mut L2Ctl, line: u64| {
                assert_eq!(drain(fast, line, t), drain(slow, line, t), "cycle {t}");
            };
            if fast.free_slots() > 0 && rng.below(2) == 0 {
                let addr = Addr::new(rng.below(24) * 128 + 8 * rng.below(16));
                let kind = match rng.below(8) {
                    0..=2 => EntryKind::Load,
                    3..=6 => store(rng.below(3) == 0),
                    _ => EntryKind::Forward { to: CoreId(1) },
                };
                let gate = rng.below(6) == 0;
                let id = both!(c => c.allocate(addr, kind, false, gate, now));
                if gate {
                    gated.push(id);
                }
            }
            if !gated.is_empty() && rng.below(4) == 0 {
                let id = gated.swap_remove(rng.below(gated.len() as u64) as usize);
                both!(c => c.release(id, now));
            }
            if !reqs.is_empty() && rng.below(3) == 0 {
                let at = rng.below(reqs.len() as u64) as usize;
                let (line, exclusive, have_shared) = reqs[at];
                match rng.below(4) {
                    0 => {
                        let retry_at = now + (1 + rng.below(12));
                        both!(c => c.nack_line(line, retry_at, exclusive));
                        reqs.swap_remove(at);
                    }
                    1 => {
                        let stage = [LineStage::InL3, LineStage::InDram, LineStage::Incoming]
                            [rng.below(3) as usize];
                        both!(c => c.line_stage(line, stage));
                    }
                    _ => {
                        reqs.swap_remove(at);
                        let ours = fast.probe(line);
                        if exclusive && have_shared {
                            // Upgrade (bus-update under Dragon), unless the
                            // copy vanished meanwhile.
                            let any_sharer = rng.bool();
                            match (protocol, ours) {
                                (Protocol::Dragon, Some(LineState::Shared))
                                | (Protocol::Dragon, Some(LineState::SharedModified)) => {
                                    both!(c => c.grant_update(line, any_sharer, now));
                                    drain_both(&mut fast, &mut slow, line);
                                }
                                (Protocol::Msi | Protocol::Mesi, Some(LineState::Shared)) => {
                                    both!(c => c.grant_upgrade(line, now));
                                    drain_both(&mut fast, &mut slow, line);
                                }
                                _ => both!(c => c.nack_line(line, now, true)),
                            }
                        } else {
                            let state = if exclusive && protocol != Protocol::Dragon {
                                LineState::Modified
                            } else if protocol != Protocol::Msi && rng.bool() {
                                LineState::Exclusive
                            } else {
                                LineState::Shared
                            };
                            both!(c => c.fill(line, state, now));
                            drain_both(&mut fast, &mut slow, line);
                        }
                    }
                }
            }
            if !forwards.is_empty() && rng.below(4) == 0 {
                let (id, line) = forwards.swap_remove(rng.below(forwards.len() as u64) as usize);
                both!(c => c.forward_complete(id, line));
            }
            if rng.below(8) == 0 {
                let line = rng.below(24);
                match (protocol, rng.bool()) {
                    (_, true) => drop(both!(c => c.snoop_rd(line))),
                    (Protocol::Dragon, false) => drop(both!(c => c.snoop_upd(line))),
                    (_, false) => drop(both!(c => c.snoop_inv(line))),
                }
            }

            check_moves(&fast, &mut last_moves, t);
            let walks = fast.work_at <= now;
            held_skips += u64::from(!walks && held_expired(&fast, now));
            slow.work_at = slow.work_at.min(now);
            out_fast.clear();
            out_slow.clear();
            fast.tick(now, &mut out_fast);
            slow.tick(now, &mut out_slow);
            check_moves(&fast, &mut last_moves, t);
            assert_eq!(out_fast, out_slow, "cycle {t}");
            assert_eq!(fast.entries, slow.entries, "cycle {t}");
            let sorted = |c: &L2Ctl| {
                let mut lines = c.pending_lines.clone();
                lines.sort_unstable_by_key(|&(line, _)| line);
                lines
            };
            assert_eq!(sorted(&fast), sorted(&slow), "cycle {t}");
            assert_eq!(fast.pipe_accesses(), slow.pipe_accesses(), "cycle {t}");
            assert_eq!(fast.port_conflicts(), slow.port_conflicts(), "cycle {t}");

            // The bookkeeping against brute-force scans of the state.
            // The bound is never late; a tick that walked leaves it exact,
            // or at the next cycle when it reclaimed a slot a held store
            // may have been waiting for.
            let (next, exact) = (now.next(), brute_force_work(&fast));
            assert!(fast.work_at.max(next) <= exact.max(next), "cycle {t}");
            assert!(slow.work_at == exact || slow.work_at == next, "cycle {t}");
            if walks {
                assert_eq!(fast.work_at, slow.work_at, "cycle {t}");
            }
            assert_eq!(fast.want_issue, backing_off(&fast), "cycle {t}");
            reissue_waits += u64::from(fast.want_issue > 0);
            assert!(fast.entries.windows(2).all(|w| w[0].id < w[1].id));

            for o in &out_fast {
                match *o {
                    L2Outcome::NeedLine {
                        line,
                        exclusive,
                        have_shared,
                    } => reqs.push((line, exclusive, have_shared)),
                    L2Outcome::ForwardReady { id, line, .. } => forwards.push((id, line)),
                    _ => {}
                }
            }
        }
        (held_skips, reissue_waits)
    }

    #[test]
    fn bookkeeping_matches_brute_force_and_skipped_ticks_change_nothing() {
        for protocol in Protocol::ALL {
            let (mut held_skips, mut reissue_waits) = (0, 0);
            for seed in 0..4 {
                let (h, r) = run_script(protocol, 0x12c0 + seed);
                held_skips += h;
                reissue_waits += r;
            }
            // The script must reach what it is there to check.
            assert!(
                held_skips > 100,
                "{protocol:?}: {held_skips} held-store skips"
            );
            assert!(
                reissue_waits > 100,
                "{protocol:?}: {reissue_waits} backoff cycles"
            );
        }
    }
}
