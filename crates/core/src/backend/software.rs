//! Software queues (EXISTING / MEMOPTI).

use std::collections::VecDeque;

use hfs_isa::program::QueueMemLayout;
use hfs_isa::{Addr, QueueId};
use hfs_mem::{MemEvent, MemSystem};
use hfs_sim::{Cycle, DenseMap};
use hfs_trace::TraceEvent;

use super::Shared;
use crate::addr_map::queue_of_addr;
use crate::design::DesignPoint;
use crate::ledger::{push_lines, LineLedger};

/// Backend for software-queue designs. Under MEMOPTI the
/// producer's L2 pushes a queue line to the consumer once every slot on it
/// has been produced (its flag set), per §3.5.1's locality-preserving
/// write-forward policy (N = QLU).
#[derive(Debug)]
pub(super) struct SoftwareBackend {
    queues: Vec<QueueId>,
    /// Per queue, the ledger that counts flag-set stores (MEMOPTI only);
    /// nothing here reads a line's state past its trigger edge.
    ledgers: DenseMap<LineLedger>,
    /// Lines at their trigger edge, across queues in trigger order.
    pub(super) queued: VecDeque<Addr>,
    /// Slot geometry (Figure 5), the same for every queue of a design;
    /// only `base` is per queue, and offsets are all this backend reads.
    pub(super) layout: QueueMemLayout,
}

impl SoftwareBackend {
    pub(super) fn new(design: &DesignPoint, queues: &[QueueId]) -> Self {
        let mut ledgers = DenseMap::new();
        if design.write_forwards() {
            for &q in queues {
                let layout = design
                    .queue_mem_info(q)
                    .expect("software queues live in memory");
                ledgers.insert(q.index(), LineLedger::new(&layout));
            }
        }
        SoftwareBackend {
            queues: queues.to_vec(),
            ledgers,
            queued: VecDeque::new(),
            layout: design
                .queue_mem_info(QueueId(0))
                .expect("software queues live in memory"),
        }
    }

    /// The queue, slot and word (flag or datum) a store to `addr` hits.
    pub(super) fn classify(&self, addr: Addr) -> Option<(QueueId, u64, bool)> {
        let (q, off) = queue_of_addr(addr, &self.queues)?;
        let (slot, is_flag) = self.layout.slot_of_offset(off);
        Some((q, slot, is_flag))
    }

    pub(super) fn process(
        &mut self,
        s: &mut Shared,
        mem: &mut MemSystem,
        events: &[MemEvent],
        now: Cycle,
    ) {
        for ev in events {
            if let MemEvent::StorePerformed { core, addr, value } = *ev {
                let Some((q, slot, is_flag)) = self.classify(addr) else {
                    continue;
                };
                if core == s.producer && !is_flag {
                    // A data store: verify it lands on the right slot
                    // (data stores may perform out of program order; the
                    // release flag store enforces publication order).
                    s.check
                        .on_produce_slot(q, slot, value, self.layout.depth.into());
                    // Data values carry their absolute sequence number, so
                    // they double as the trace's produce/consume match key.
                    s.tracer.emit(|| TraceEvent::Produce {
                        core,
                        queue: q,
                        seq: value,
                        at: now.as_u64(),
                    });
                } else if core == s.consumer && is_flag && value == 0 {
                    // Flag cleared: one slot consumed. The consumed value
                    // itself flows through a load the backend cannot see;
                    // conservation is still checked via counts.
                    let seen = s.check.consumed(q);
                    s.consumed(q, seen, seen, now, None);
                } else if core == s.producer && is_flag && value != 0 {
                    if let Some(ledger) = self.ledgers.get_mut(q.index()) {
                        self.queued.extend(ledger.on_store(addr));
                    }
                }
            }
        }
        push_lines(&mut self.queued, mem, s.producer, s.consumer, now);
    }
}
