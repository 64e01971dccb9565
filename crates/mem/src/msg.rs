//! Tokens, completions, events, and locations exposed to the machine model.

use hfs_isa::{Addr, CoreId};
use hfs_sim::stats::StallComponent;
use hfs_sim::Cycle;

/// Identifies one in-flight memory operation submitted to [`crate::MemSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemToken {
    core: CoreId,
    id: u64,
}

impl MemToken {
    pub(crate) fn new(core: CoreId, id: u64) -> Self {
        MemToken { core, id }
    }

    /// The core that submitted the operation.
    pub fn core(self) -> CoreId {
        self.core
    }

    pub(crate) fn id(self) -> u64 {
        self.id
    }
}

/// Why a submission was refused this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// All OzQ (outstanding-transaction) entries are occupied.
    OzqFull,
}

/// Where an in-flight operation currently is, for the paper's Figure 7
/// stall attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpLocation {
    /// Gated (dormant) awaiting a synchronization release.
    Dormant,
    /// Waiting for an L2 port or recirculating.
    WaitPort,
    /// In the L2 pipeline.
    InL2,
    /// Line request on the shared bus (arbitration or transfer).
    OnBus,
    /// Line request being serviced by the L3.
    InL3,
    /// Line request being serviced by main memory.
    InDram,
    /// Data returned; L1 fill / completion in progress.
    Filling,
}

impl OpLocation {
    /// The breakdown component this location charges.
    pub fn component(self) -> StallComponent {
        match self {
            OpLocation::Dormant => StallComponent::PreL2,
            OpLocation::WaitPort | OpLocation::InL2 => StallComponent::L2,
            OpLocation::OnBus => StallComponent::Bus,
            OpLocation::InL3 => StallComponent::L3,
            OpLocation::InDram => StallComponent::Mem,
            OpLocation::Filling => StallComponent::PostL2,
        }
    }
}

/// A finished memory operation, delivered to the submitting core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The operation's token.
    pub token: MemToken,
    /// Loaded value (`None` for stores).
    pub value: Option<u64>,
    /// Cycle at which the result is architecturally available.
    pub at: Cycle,
    /// Whether the op was submitted as background (no register waits).
    pub background: bool,
}

/// A small streaming-protocol control message carried on the shared bus
/// (occupancy updates, bulk ACKs). The payload is opaque to this crate;
/// `hfs-core` defines the encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtlPayload {
    /// Message kind discriminator.
    pub kind: u16,
    /// First operand (typically a queue id).
    pub a: u32,
    /// Second operand (typically a count).
    pub b: u64,
}

/// Events reported by the memory system to the machine model each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEvent {
    /// A store performed (became globally visible) at the L2.
    StorePerformed {
        /// Core that stored.
        core: CoreId,
        /// Store address.
        addr: Addr,
        /// Value written.
        value: u64,
    },
    /// A line was installed in a core's L2 (demand fill or forward).
    LineFilled {
        /// Receiving core.
        core: CoreId,
        /// Base address of the line.
        line_addr: Addr,
        /// True when the fill came from a write-forward push.
        forwarded: bool,
    },
    /// A write-forward push completed end to end.
    ForwardDone {
        /// Producing (sending) core.
        from: CoreId,
        /// Consuming (receiving) core.
        to: CoreId,
        /// Base address of the forwarded line.
        line_addr: Addr,
    },
    /// A write-forward push was dropped before it reached the bus: the
    /// producer's copy was no longer dirty, or the destination was
    /// already fetching the line on demand. Every push
    /// [`crate::MemSystem::forward_line`] accepts ends in exactly one
    /// `ForwardDone` or `ForwardDropped`.
    ForwardDropped {
        /// Producing (sending) core.
        from: CoreId,
        /// Consuming (receiving) core.
        to: CoreId,
        /// Base address of the line.
        line_addr: Addr,
    },
    /// A control message was delivered.
    CtlDelivered {
        /// Sender.
        from: CoreId,
        /// Receiver.
        to: CoreId,
        /// Opaque payload.
        payload: CtlPayload,
    },
    /// A line left a core's L2 (replacement or coherence invalidation).
    LineEvicted {
        /// Core that lost the line.
        core: CoreId,
        /// Base address of the line.
        line_addr: Addr,
        /// Whether the line was dirty (writeback issued).
        dirty: bool,
    },
    /// A Dragon bus-update broadcast completed: every sharer's copy of
    /// the line absorbed the written word in place (update-based
    /// protocols only).
    UpdateDelivered {
        /// The writing core.
        from: CoreId,
        /// Base address of the updated line.
        line_addr: Addr,
        /// How many other L2s applied the update.
        sharers: u8,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_components_match_paper_regions() {
        assert_eq!(OpLocation::Dormant.component(), StallComponent::PreL2);
        assert_eq!(OpLocation::WaitPort.component(), StallComponent::L2);
        assert_eq!(OpLocation::InL2.component(), StallComponent::L2);
        assert_eq!(OpLocation::OnBus.component(), StallComponent::Bus);
        assert_eq!(OpLocation::InL3.component(), StallComponent::L3);
        assert_eq!(OpLocation::InDram.component(), StallComponent::Mem);
        assert_eq!(OpLocation::Filling.component(), StallComponent::PostL2);
    }

    #[test]
    fn token_accessors() {
        let t = MemToken::new(CoreId(1), 42);
        assert_eq!(t.core(), CoreId(1));
        assert_eq!(t.id(), 42);
    }
}
