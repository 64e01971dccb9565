//! Fault injection: the machine checker must catch every seeded bug,
//! under every coherence protocol.
//!
//! Each [`Mutation`] arms one deliberate, test-only fault at a specific
//! site inside the machine (a skipped snoop invalidation, a dropped bus
//! response, a leaked OzQ slot, ...). This suite runs each mutation on a
//! design point that exercises the faulted component and asserts the run
//! terminates with a verification error naming the expected invariant —
//! a checker that misses any seeded bug is vacuous and fails CI.
//!
//! The sweep runs once per protocol (MSI, MESI, Dragon): a mutation is
//! armed under a protocol only if its site executes there (Dragon never
//! issues invalidations, MSI never grants Exclusive), and the rule that
//! catches it must belong to that protocol's [`invariant_table`] — this
//! is what self-validates the per-protocol tables.
//!
//! The sweep iterates [`Mutation::ALL`] and the expectation table is an
//! exhaustive `match`, so adding a mutation without a detection test is
//! a compile error here.

use hfs::check::invariant_table;
use hfs::core::kernel::KernelPair;
use hfs::core::{CheckLevel, DesignPoint, Machine, MachineConfig, Mutation, SimError};
use hfs::mem::Protocol;

/// Which design point exercises the mutation's site under protocol `p`,
/// and the dotted rule (or `proto.` prefix) the resulting violation must
/// carry. `None` means the mutation's site never executes under `p`
/// (arming it there would be a guaranteed silent survivor by
/// construction), so it is excluded from that protocol's sweep.
fn expectation(p: Protocol, m: Mutation) -> Option<(DesignPoint, &'static str)> {
    // Census/staleness violations carry the active protocol's prefix.
    let coherence = match p {
        Protocol::Msi => "msi.",
        Protocol::Mesi => "mesi.",
        Protocol::Dragon => "dragon.",
    };
    Some(match m {
        // Coherence and bus faults live in the shared-memory path, which
        // software queues exercise hardest (flag-line ping-pong).
        Mutation::SkipSnoopInvalidate => match p {
            // Dragon issues no RdX/Upgr, so the invalidation site is
            // never reached in an update-based run.
            Protocol::Dragon => return None,
            _ => (DesignPoint::existing(), coherence),
        },
        Mutation::DoubleGrantBus => (DesignPoint::existing(), "bus.double_grant"),
        Mutation::StarveBusAgent => (DesignPoint::existing(), "bus.starvation"),
        Mutation::DropBusResponse => (DesignPoint::existing(), "bus.lost_response"),
        Mutation::LeakOzqSlot => (DesignPoint::existing(), "ozq."),
        // Synchronization-array faults need the dedicated backing store.
        Mutation::SyncArrayLoseItem => (DesignPoint::heavywt(), "sa.conservation"),
        Mutation::DropConsumerWake => (DesignPoint::heavywt(), "sa.dropped_wake"),
        // The stream cache only exists on the SC variants.
        Mutation::CorruptForwardValue => (DesignPoint::syncopti_sc_q64(), "sc.stale_value"),
        Mutation::FillConsumedSlot => (DesignPoint::syncopti_sc_q64(), "sc.unreachable"),
        // A swallowed push report leaves the forward count short at
        // quiescence on any write-forwarding design.
        Mutation::SwallowForwardDone => (DesignPoint::syncopti(), "fwd.conservation"),
        // A consume released before its store pulls the slot's old word.
        Mutation::ReleaseBeforeStore => (DesignPoint::syncopti(), "so.release_before_store"),
        // Differential data checks catch value corruption on any design.
        Mutation::CorruptLoadValue => (DesignPoint::existing(), "data.load_mismatch"),
        Mutation::CorruptStoreValue => (DesignPoint::existing(), "data.load_mismatch"),
        // Exclusive-clean fills exist only on MESI/Dragon; the faulted
        // grant site is gated off entirely under MSI.
        Mutation::GrantExclusiveWithSharers => match p {
            Protocol::Msi => return None,
            _ => (DesignPoint::existing(), coherence),
        },
        // Bus-update faults need an update-based protocol to issue
        // BusUpd transactions at all.
        Mutation::SkipDragonUpdate => match p {
            Protocol::Dragon => (DesignPoint::existing(), "dragon.update_delivered"),
            _ => return None,
        },
        Mutation::HideDragonSharer => match p {
            Protocol::Dragon => (DesignPoint::existing(), "dragon."),
            _ => return None,
        },
    })
}

fn run_with_fault(p: Protocol, m: Mutation) -> Result<(), String> {
    let (design, _) = expectation(p, m).expect("mutation applicable under protocol");
    // A double grant needs two agents queued in the same arbitration
    // slot; one pipeline's traffic is too sparse under MESI (the silent
    // E->M upgrade removes enough address phases to ruin the overlap),
    // so that fault runs with two producer/consumer pairs.
    let pipes = if m == Mutation::DoubleGrantBus { 2 } else { 1 };
    let pairs: Vec<KernelPair> = (0..pipes)
        .map(|_| KernelPair::simple("faults", 4, 300))
        .collect();
    let mut cfg = MachineConfig::itanium2_cmp(design);
    cfg.mem.protocol = p;
    let mut machine = Machine::new_multi_pipeline(&cfg, &pairs).expect("machine builds");
    machine.set_check_level(CheckLevel::Full);
    machine.checker().set_mutation(m);
    match machine.run(20_000_000) {
        Ok(_) => Ok(()),
        Err(SimError::Verification(msg)) => Err(msg),
        Err(other) => Err(format!("non-verification failure: {other}")),
    }
}

/// Every applicable seeded mutation must be detected under `p`, the
/// violation must name the invariant guarding that site, and the firing
/// rule must belong to `p`'s invariant table — zero silent survivors.
fn sweep(p: Protocol) {
    let mut survivors = Vec::new();
    let mut armed = 0;
    for m in Mutation::ALL {
        let Some((_, rule)) = expectation(p, m) else {
            continue;
        };
        armed += 1;
        match run_with_fault(p, m) {
            Ok(()) => survivors.push(format!("{m:?}: ran to completion undetected")),
            Err(msg) if msg.contains(rule) => {
                // Recover the full dotted rule name from the report and
                // check it against the protocol's table.
                let start = msg.find(rule).unwrap();
                let fired: String = msg[start..]
                    .chars()
                    .take_while(|c| *c != ':' && !c.is_whitespace())
                    .collect();
                assert!(
                    invariant_table(p).contains(&fired),
                    "{m:?} under {p}: rule `{fired}` fired but is not in the {p} invariant table"
                );
            }
            Err(msg) => survivors.push(format!("{m:?}: expected `{rule}`, got `{msg}`")),
        }
    }
    // Each protocol must exercise the bulk of the mutation set; a table
    // that silently skips most faults is vacuous.
    assert!(armed >= 10, "{p}: only {armed} mutations armed");
    assert!(
        survivors.is_empty(),
        "mutations survived the {p} checker:\n  {}",
        survivors.join("\n  ")
    );
}

#[test]
fn every_seeded_mutation_is_detected_msi() {
    sweep(Protocol::Msi);
}

#[test]
fn every_seeded_mutation_is_detected_mesi() {
    sweep(Protocol::Mesi);
}

#[test]
fn every_seeded_mutation_is_detected_dragon() {
    sweep(Protocol::Dragon);
}

/// An armed mutation on a *disabled* checker must do nothing: mutations
/// are carried by the checker handle itself, so an unchecked machine can
/// never be perturbed by fault-injection plumbing.
#[test]
fn disarmed_machine_is_unperturbed() {
    let pair = KernelPair::simple("faults", 4, 100);
    let cfg = MachineConfig::itanium2_cmp(DesignPoint::existing());
    let mut machine = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
    machine.set_check_level(CheckLevel::Off);
    // set_mutation on a disabled checker is a no-op by construction.
    machine.checker().set_mutation(Mutation::DropBusResponse);
    let r = machine.run(20_000_000).expect("run completes");
    assert!(!r.checked);
    assert_eq!(r.iterations, 100);
}

/// The verification error fires *during* the run, at the offending
/// cycle's poll — not after timing out. A dropped bus response stalls
/// the machine forever; the checker must report it as a lost response
/// (after `REQUEST_AGE_BOUND` cycles), well before the deadlock window
/// or the caller's cycle budget.
#[test]
fn checker_terminates_run_instead_of_timing_out() {
    let msg = match run_with_fault(Protocol::Msi, Mutation::DropBusResponse) {
        Err(m) => m,
        Ok(()) => panic!("dropped response went undetected"),
    };
    assert!(
        msg.contains("bus.lost_response"),
        "expected a lost-response report, got: {msg}"
    );
    assert!(
        msg.contains("never answered"),
        "report should carry the request detail: {msg}"
    );
}
