//! The stream port: how `produce`/`consume` instructions reach the
//! design-specific streaming hardware.

use hfs_isa::{CoreId, QueueId};
use hfs_sim::stats::StallComponent;
use hfs_sim::Cycle;

/// Identifies one in-flight produce/consume accepted by a stream port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamToken(pub u64);

/// The result of offering a produce/consume to the streaming hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamSubmit {
    /// The operation completed with a fixed latency; the consumed value
    /// (if any) is available at `at`.
    Done {
        /// Completion cycle.
        at: Cycle,
        /// Consumed value (None for produce).
        value: Option<u64>,
    },
    /// Accepted; completion arrives later via [`StreamPort::poll`].
    Pending(StreamToken),
    /// The hardware cannot accept the operation this cycle (structural
    /// back-pressure); the core retries and the cycle charges PreL2.
    Blocked,
}

/// A deferred stream-operation completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCompletion {
    /// Token returned by the earlier submission.
    pub token: StreamToken,
    /// Consumed value (None for produce).
    pub value: Option<u64>,
    /// Cycle the result is architecturally available.
    pub at: Cycle,
}

/// Design-specific streaming hardware as seen by a core.
///
/// `hfs-core` implements this for each design point: HEAVYWT routes to the
/// synchronization array over the dedicated interconnect; SYNCOPTI renames
/// to stream addresses, checks occupancy counters, and issues gated memory
/// operations; software-queue designs never see these calls, because their
/// communication is ordinary loads and stores.
pub trait StreamPort {
    /// Offers a produce of `value` on `q` from `core`. Backends that
    /// back queues with memory use `mem` to submit gated operations.
    fn try_produce(
        &mut self,
        mem: &mut hfs_mem::MemSystem,
        core: CoreId,
        q: QueueId,
        value: u64,
        now: Cycle,
    ) -> StreamSubmit;

    /// Offers a consume on `q` from `core`.
    fn try_consume(
        &mut self,
        mem: &mut hfs_mem::MemSystem,
        core: CoreId,
        q: QueueId,
        now: Cycle,
    ) -> StreamSubmit;

    /// Drains completions for operations previously accepted as pending,
    /// appending them to the caller-owned `out` buffer (not cleared) so
    /// the per-cycle poll allocates nothing
    /// (`tests/cost.rs::a_run_allocates_the_same_at_any_length`).
    fn poll(&mut self, core: CoreId, now: Cycle, out: &mut Vec<StreamCompletion>);

    /// Stall component charged while `token` is outstanding; a backend
    /// whose operation waits in `mem` reads its location there.
    fn location(&self, mem: &hfs_mem::MemSystem, token: StreamToken) -> StallComponent;

    /// Receives background memory completions (the core routes every
    /// completion whose `background` flag is set here). Streaming
    /// backends submit their gated queue accesses as background
    /// operations so the results come back to them rather than to a
    /// register. The default implementation drops them.
    fn on_mem_completion(&mut self, completion: hfs_mem::Completion) {
        let _ = completion;
    }
}

/// A stream port that refuses every operation; used for single-threaded
/// runs and programs without queue instructions.
///
/// # Panics
///
/// [`StreamPort::try_produce`] and [`StreamPort::try_consume`] panic:
/// reaching them means a program with produce/consume instructions was run
/// on a machine without streaming hardware.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullStreamPort;

impl StreamPort for NullStreamPort {
    fn try_produce(
        &mut self,
        _mem: &mut hfs_mem::MemSystem,
        core: CoreId,
        q: QueueId,
        _value: u64,
        _now: Cycle,
    ) -> StreamSubmit {
        panic!("{core} executed produce on {q} but no streaming hardware is configured");
    }

    fn try_consume(
        &mut self,
        _mem: &mut hfs_mem::MemSystem,
        core: CoreId,
        q: QueueId,
        _now: Cycle,
    ) -> StreamSubmit {
        panic!("{core} executed consume on {q} but no streaming hardware is configured");
    }

    fn poll(&mut self, _core: CoreId, _now: Cycle, _out: &mut Vec<StreamCompletion>) {}

    fn location(&self, _mem: &hfs_mem::MemSystem, _token: StreamToken) -> StallComponent {
        StallComponent::PreL2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_port_polls_empty() {
        let mut p = NullStreamPort;
        let mut out = Vec::new();
        p.poll(CoreId(0), Cycle::ZERO, &mut out);
        assert!(out.is_empty());
        let mem = hfs_mem::MemSystem::new(hfs_mem::MemConfig::itanium2_single()).unwrap();
        assert_eq!(p.location(&mem, StreamToken(0)), StallComponent::PreL2);
    }

    #[test]
    #[should_panic(expected = "no streaming hardware")]
    fn null_port_rejects_produce() {
        let mut p = NullStreamPort;
        let mut mem = hfs_mem::MemSystem::new(hfs_mem::MemConfig::itanium2_single()).unwrap();
        let _ = p.try_produce(&mut mem, CoreId(0), QueueId(0), 1, Cycle::ZERO);
    }
}
