//! The machine's address map (DESIGN.md §5, decision 10): where a
//! thread's data, a queue's slots and a line live. No other module of
//! this crate places an address; a queue's slots are [`QueueMemLayout`]'s.

use std::collections::HashMap;
use std::ops::Range;

pub use hfs_isa::program::LINE_BYTES;
use hfs_isa::{program::QueueMemLayout, Addr, ProgramBuilder, QueueId, RegionId};
use hfs_mem::MemConfig;
use hfs_sim::ConfigError;

use crate::kernel::KRegion;
use crate::lower::Role;

/// Base address of the shared queue backing store.
pub const QUEUE_BASE: u64 = 0x4000_0000;
/// Bytes reserved per queue in the backing store (keeps queues on
/// distinct pages so they never falsely share lines).
pub(crate) const QUEUE_SPAN: u64 = 8192;
/// Architectural queues provided by the machine (§4.3: 64 queues).
pub const ARCH_QUEUES: u64 = 64;
const PRODUCER_WORK_BASE: u64 = 0x1000_0000;
const CONSUMER_WORK_BASE: u64 = 0x2000_0000;
/// The private data of one thread of one pipeline.
const WINDOW_BYTES: u64 = 64 << 20;
/// From a window to its spill slot: past every window and the queue store,
/// and a multiple of 3 x 128 KiB beyond the slot's first place (128 MiB
/// in), so the slot keeps its cache sets and L2 bank.
const SPILL_OFFSET: u64 = 0x3800_0000;
/// Size of a spill slot.
pub(crate) const SPILL_BYTES: u64 = 1024;

/// Base address of queue `q`'s backing store.
pub(crate) fn queue_base(q: QueueId) -> Addr {
    Addr::new(QUEUE_BASE + u64::from(q.0) * QUEUE_SPAN)
}

/// The queue among `queues` whose span holds `addr`, and the offset into it.
pub(crate) fn queue_of_addr(addr: Addr, queues: &[QueueId]) -> Option<(QueueId, u64)> {
    let a = addr.as_u64().checked_sub(QUEUE_BASE)?;
    let q = QueueId(u16::try_from(a / QUEUE_SPAN).ok()?);
    queues.contains(&q).then_some((q, a % QUEUE_SPAN))
}

/// The addresses the memory system treats as streaming: every queue's span.
pub(crate) const STREAMING: Range<u64> = QUEUE_BASE..QUEUE_BASE + ARCH_QUEUES * QUEUE_SPAN;

/// Figure 5's layout of queue `q`: `depth` slots, `qlu` to a line, each an
/// 8-byte datum followed, where `flags` live in memory, by an 8-byte flag.
pub(crate) fn queue_layout(q: QueueId, depth: u32, qlu: u32, flags: bool) -> QueueMemLayout {
    QueueMemLayout {
        base: queue_base(q),
        depth,
        qlu,
        stride: LINE_BYTES / u64::from(qlu),
        flag_offset: flags.then_some(8),
    }
}

/// Refuses a layout whose slots would run into the next queue's span.
pub(crate) fn check_span(layout: &QueueMemLayout) -> Result<(), ConfigError> {
    if u64::from(layout.depth) * layout.stride > QUEUE_SPAN {
        return Err(ConfigError::new(format!(
            "queue depth x slot stride must fit the {QUEUE_SPAN}-byte queue span"
        )));
    }
    Ok(())
}

/// Refuses a layout whose slots do not tile a line: the forward trigger
/// counts `qlu` stores to a line, so a line must hold exactly `qlu`
/// slots, none straddling the next.
pub(crate) fn check_tiling(layout: &QueueMemLayout) -> Result<(), ConfigError> {
    if u64::from(layout.qlu) * layout.stride != LINE_BYTES {
        return Err(ConfigError::new(format!(
            "QLU must tile a {LINE_BYTES}-byte line: 1, 2, 4, 8 or 16"
        )));
    }
    Ok(())
}

/// Refuses L2 (so L3) lines other than the one queue slots are laid out on.
pub(crate) fn check_line(mem: &MemConfig) -> Result<(), ConfigError> {
    if mem.l2.line_bytes != LINE_BYTES {
        return Err(ConfigError::new(format!(
            "L2 and L3 lines must be {LINE_BYTES} bytes"
        )));
    }
    Ok(())
}

/// One thread's window of private data.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window(u64);

impl Window {
    /// The window of the `role` thread of pipeline `pipeline`.
    pub(crate) fn of(role: Role, pipeline: u32) -> Self {
        let base = match role {
            Role::Producer => PRODUCER_WORK_BASE,
            Role::Consumer => CONSUMER_WORK_BASE,
        };
        Window(base + u64::from(pipeline) * WINDOW_BYTES)
    }

    /// Declares `regions` on `b` and places them in order, page-aligned
    /// with a free page between, recording each base in `bases`. Refuses
    /// regions that end past the window, in other threads' data.
    pub(crate) fn place(
        self,
        b: &mut ProgramBuilder,
        regions: &[KRegion],
        bases: &mut HashMap<RegionId, Addr>,
    ) -> Result<Vec<RegionId>, ConfigError> {
        let mut next = self.0;
        let mut ids = Vec::with_capacity(regions.len());
        for r in regions {
            if next + r.bytes > self.0 + WINDOW_BYTES {
                return Err(ConfigError::new(
                    "a thread's regions must fit its 64 MiB window",
                ));
            }
            let id = b.declare_region(r.name.clone(), r.bytes);
            bases.insert(id, Addr::new(next));
            next += r.bytes.div_ceil(4096) * 4096 + 4096;
            ids.push(id);
        }
        Ok(ids)
    }

    /// This thread's slot of [`SPILL_BYTES`] for register spills, out of others' reach.
    pub(crate) fn spill_slot(self) -> Addr {
        Addr::new(self.0 + SPILL_OFFSET)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::MAX_REGION_BYTES;

    fn region(bytes: u64) -> KRegion {
        KRegion {
            name: "r".into(),
            bytes,
        }
    }

    /// For every pipeline and role, the placed regions (a full window)
    /// and the spill slot are disjoint from every other thread's and from
    /// the queue store, which the streaming range covers exactly.
    #[test]
    fn every_thread_addresses_its_own_window() {
        let store = queue_base(QueueId(0)).as_u64()
            ..queue_base(QueueId(ARCH_QUEUES as u16 - 1)).as_u64() + QUEUE_SPAN;
        assert_eq!(STREAMING, store);
        let mut threads: Vec<Vec<Range<u64>>> = Vec::new();
        for pipeline in 0..4 {
            for role in [Role::Producer, Role::Consumer] {
                let w = Window::of(role, pipeline);
                let (mut b, mut bases) = (ProgramBuilder::new(1), HashMap::new());
                // A page apart, these two fill the window to its last byte.
                let full = [region(WINDOW_BYTES - 8192), region(4096)];
                let ids = w.place(&mut b, &full, &mut bases).unwrap();
                let mut spans: Vec<Range<u64>> = ids
                    .iter()
                    .zip(&full)
                    .map(|(id, r)| bases[id].as_u64()..bases[id].as_u64() + r.bytes)
                    .collect();
                assert_eq!(spans[1].end, w.0 + WINDOW_BYTES);
                let spill = w.spill_slot().as_u64();
                spans.push(spill..spill + SPILL_BYTES);
                threads.push(spans);
            }
        }
        let overlap = |a: &Range<u64>, b: &Range<u64>| a.start < b.end && b.start < a.end;
        for (i, mine) in threads.iter().enumerate() {
            for span in mine {
                assert!(!overlap(span, &store), "{span:x?}");
                for theirs in threads.iter().skip(i + 1).flatten() {
                    assert!(!overlap(span, theirs), "{span:x?} {theirs:x?}");
                }
            }
        }
    }

    #[test]
    fn regions_past_the_window_are_refused() {
        let w = Window::of(Role::Producer, 3);
        let (mut b, mut bases) = (ProgramBuilder::new(1), HashMap::new());
        let largest = [region(MAX_REGION_BYTES)];
        assert!(w.place(&mut b, &largest, &mut bases).is_ok());
        let two = [region(MAX_REGION_BYTES), region(8)];
        assert!(w.place(&mut b, &two, &mut bases).is_err());
    }

    #[test]
    fn queue_of_addr_maps_ranges() {
        let queues = [QueueId(0), QueueId(2)];
        let base = queue_base(QueueId(0));
        assert_eq!(queue_of_addr(base, &queues), Some((QueueId(0), 0)));
        assert_eq!(queue_of_addr(base + 24, &queues), Some((QueueId(0), 24)));
        // Queue 1 is not in the set.
        assert_eq!(queue_of_addr(queue_base(QueueId(1)), &queues), None);
        // Below the queue region entirely.
        assert_eq!(queue_of_addr(Addr::new(0x1000), &queues), None);
    }
}
