//! Loop-nest programs: the static representation executed by a thread.

use hfs_sim::ConfigError;

use crate::addr::{Addr, Region};
use crate::ids::{QueueId, RegionId};
use crate::instr::InstrTemplate;

/// A stream queue the thread touches and, where the program addresses
/// its slots itself, their memory layout (Figure 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuePlan {
    /// The queue.
    pub q: QueueId,
    /// Memory layout, for programs that address the queue's slots
    /// themselves. `None` where `produce` / `consume` leave addressing to
    /// the streaming hardware.
    pub layout: Option<QueueMemLayout>,
}

/// The line queue slots are packed onto (Table 2's L2/L3 line).
pub const LINE_BYTES: u64 = 128;

/// Shared-memory layout of a queue (Figure 5 of the paper): `depth` slots
/// of `stride` bytes from `base`, `qlu` of them to a line. This is the one
/// place a slot becomes an address, an offset a slot, and an address a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueMemLayout {
    /// Base address of slot 0.
    pub base: Addr,
    /// Queue depth in slots.
    pub depth: u32,
    /// Queue layout unit: slots per line.
    pub qlu: u32,
    /// Byte distance between consecutive slots.
    pub stride: u64,
    /// Offset of a slot's full/empty flag from its datum, when the design
    /// keeps flags in memory (software queues). `None` for SYNCOPTI-style
    /// counter-synchronized designs.
    pub flag_offset: Option<u64>,
}

impl QueueMemLayout {
    /// Address of the datum of `slot` (`slot < depth`).
    pub fn data_addr(&self, slot: u32) -> Addr {
        self.base + u64::from(slot) * self.stride
    }

    /// Address of the datum the `seq`-th item since the start lands in.
    #[inline]
    pub fn slot_addr(&self, seq: u64) -> Addr {
        self.base + (seq % u64::from(self.depth)) * self.stride
    }

    /// Address of the flag of `slot`.
    ///
    /// # Panics
    ///
    /// Panics if this layout has no in-memory flags.
    pub fn flag_addr(&self, slot: u32) -> Addr {
        let off = self
            .flag_offset
            .expect("flag_addr on a layout without in-memory flags");
        self.data_addr(slot) + off
    }

    /// The slot that byte `off` of the queue's backing store belongs to,
    /// and whether `off` is that slot's flag rather than its datum.
    #[inline]
    pub fn slot_of_offset(&self, off: u64) -> (u64, bool) {
        let (slot, word) = (off / self.stride, off % self.stride);
        (slot, self.flag_offset == Some(word))
    }

    /// The line holding the slot word at `addr`.
    #[inline]
    pub fn line_of(&self, addr: Addr) -> Addr {
        Addr::new(addr.as_u64() & !(LINE_BYTES - 1))
    }
}

/// One step of a loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Execute a single instruction.
    Instr(InstrTemplate),
    /// Spin-synchronize on the current slot's full/empty flag of a
    /// software queue: repeatedly `load flag; branch` until the flag reads
    /// `until_full`. Used only by shared-memory software-queue designs.
    Spin {
        /// Queue whose current slot's flag is polled.
        q: QueueId,
        /// Exit the spin when the flag equals this (consumer waits for
        /// full=1; producer waits for full=0).
        until_full: bool,
    },
    /// Advance the thread's local head/tail index for `q` by one slot,
    /// wrapping at the queue depth. Costs one ALU instruction.
    AdvanceQueue(QueueId),
    /// A counted inner loop.
    Loop {
        /// Body steps.
        body: Vec<Step>,
        /// Trip count per entry to the loop.
        count: u64,
    },
}

/// A complete single-thread program: region declarations, queue plans, and
/// an outer loop body executed `iterations` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Memory regions the program references.
    pub regions: Vec<Region>,
    /// Queues the program touches, with their layouts.
    pub queues: Vec<QueuePlan>,
    /// Outer-loop body.
    pub body: Vec<Step>,
    /// Outer-loop trip count.
    pub iterations: u64,
}

impl Program {
    /// Validates internal consistency: queue references resolve, regions
    /// are unique and non-empty, trip counts are non-zero.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first inconsistency found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.iterations == 0 {
            return Err(ConfigError::new("program iteration count must be non-zero"));
        }
        let mut seen = std::collections::HashSet::new();
        for r in &self.regions {
            if r.bytes == 0 {
                return Err(ConfigError::new(format!("region {} is empty", r.name)));
            }
            if !seen.insert(r.id) {
                return Err(ConfigError::new(format!(
                    "region id {} declared twice",
                    r.id
                )));
            }
        }
        let mut qseen = std::collections::HashSet::new();
        for qp in &self.queues {
            if qp.layout.is_some_and(|l| l.depth == 0) {
                return Err(ConfigError::new(format!("queue {} has zero depth", qp.q)));
            }
            if !qseen.insert(qp.q) {
                return Err(ConfigError::new(format!("queue {} planned twice", qp.q)));
            }
        }
        self.validate_steps(&self.body, 0)
    }

    fn validate_steps(&self, steps: &[Step], depth: usize) -> Result<(), ConfigError> {
        if depth > 4 {
            return Err(ConfigError::new("loop nests deeper than 4 are unsupported"));
        }
        for s in steps {
            match s {
                Step::Spin { q, .. } | Step::AdvanceQueue(q) => self.addressed(*q)?,
                Step::Instr(t) => self.validate_instr(t)?,
                Step::Loop { body, count } => {
                    if *count == 0 {
                        return Err(ConfigError::new("inner loop trip count must be non-zero"));
                    }
                    self.validate_steps(body, depth + 1)?;
                }
            }
        }
        Ok(())
    }

    fn validate_instr(&self, t: &InstrTemplate) -> Result<(), ConfigError> {
        use crate::addr::AddrPattern;
        use crate::instr::Op;
        let pattern = match &t.op {
            Op::Load(p) | Op::Store(p, _) | Op::StoreRelease(p, _) => Some(*p),
            Op::Produce(q) | Op::Consume(q) => {
                self.queue_plan(*q).ok_or_else(|| {
                    ConfigError::new(format!("instruction references unplanned queue {q}"))
                })?;
                None
            }
            Op::IntAlu | Op::FpAlu | Op::Branch => None,
        };
        match pattern {
            Some(AddrPattern::Stream { region, .. }) | Some(AddrPattern::Random { region }) => {
                self.region(region).ok_or_else(|| {
                    ConfigError::new(format!("instruction references undeclared {region}"))
                })?;
            }
            Some(AddrPattern::QueueData { q }) | Some(AddrPattern::QueueFlag { q }) => {
                self.addressed(q)?
            }
            None => {}
        }
        Ok(())
    }

    /// Checks that the program may address `q`'s slots: `q` is planned
    /// with a memory layout.
    fn addressed(&self, q: QueueId) -> Result<(), ConfigError> {
        let why = match self.queue_plan(q).map(|p| p.layout.is_some()) {
            Some(true) => return Ok(()),
            Some(false) => format!("queue-memory access to {q}, which has no memory layout"),
            None => format!("program references unplanned queue {q}"),
        };
        Err(ConfigError::new(why))
    }

    /// Looks up the plan for a queue.
    pub fn queue_plan(&self, q: QueueId) -> Option<&QueuePlan> {
        self.queues.iter().find(|p| p.q == q)
    }

    /// Looks up a region declaration.
    pub fn region(&self, id: RegionId) -> Option<&Region> {
        self.regions.iter().find(|r| r.id == id)
    }

    /// Counts static instructions in one outer-loop iteration, treating a
    /// spin as its best-case two instructions (one flag load, one branch)
    /// and expanding inner loops by their trip counts.
    pub fn static_instrs_per_iteration(&self) -> u64 {
        fn count(steps: &[Step]) -> u64 {
            steps
                .iter()
                .map(|s| match s {
                    Step::Instr(_) => 1,
                    Step::Spin { .. } => 2,
                    Step::AdvanceQueue(_) => 1,
                    Step::Loop { body, count: c } => c * count(body),
                })
                .sum()
        }
        count(&self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrPattern;
    use crate::ids::Reg;
    use crate::instr::{InstrKind, Op};

    fn simple_program() -> Program {
        Program {
            regions: vec![Region::new(RegionId(0), "a", 1024)],
            queues: vec![QueuePlan {
                q: QueueId(0),
                layout: Some(QueueMemLayout {
                    base: Addr::new(0x1000),
                    depth: 32,
                    qlu: 8,
                    stride: 16,
                    flag_offset: Some(8),
                }),
            }],
            body: vec![
                Step::Instr(InstrTemplate::new(Op::IntAlu, InstrKind::App).dest(Reg(1))),
                Step::Spin {
                    q: QueueId(0),
                    until_full: false,
                },
                Step::Instr(InstrTemplate::new(
                    Op::Store(
                        AddrPattern::QueueData { q: QueueId(0) },
                        crate::instr::StoreValue::QueuePayload(QueueId(0)),
                    ),
                    InstrKind::Comm,
                )),
                Step::AdvanceQueue(QueueId(0)),
            ],
            iterations: 10,
        }
    }

    #[test]
    fn validate_ok() {
        assert!(simple_program().validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_iterations() {
        let mut p = simple_program();
        p.iterations = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_duplicate_region() {
        let mut p = simple_program();
        p.regions.push(Region::new(RegionId(0), "dup", 8));
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_unplanned_queue() {
        let mut p = simple_program();
        p.body.push(Step::AdvanceQueue(QueueId(9)));
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_queue_mem_access_without_layout() {
        let mut p = simple_program();
        p.queues[0].layout = None;
        assert!(p.validate().is_err());
        // A spin or slot advance alone addresses the queue too.
        p.body.retain(|s| !matches!(s, Step::Instr(_)));
        p.body.truncate(1);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_checks_release_store_targets() {
        let mut p = simple_program();
        p.body.push(Step::Instr(InstrTemplate::new(
            Op::StoreRelease(
                AddrPattern::QueueFlag { q: QueueId(9) },
                crate::instr::StoreValue::Flag(true),
            ),
            InstrKind::Comm,
        )));
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_empty_region() {
        let mut p = simple_program();
        p.regions[0].bytes = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn layout_addresses() {
        let l = QueueMemLayout {
            base: Addr::new(0x2000),
            depth: 32,
            qlu: 8,
            stride: 16,
            flag_offset: Some(8),
        };
        assert_eq!(l.data_addr(0), Addr::new(0x2000));
        assert_eq!(l.data_addr(3), Addr::new(0x2030));
        assert_eq!(l.slot_addr(35), Addr::new(0x2030));
        assert_eq!(l.flag_addr(3), Addr::new(0x2038));
        assert_eq!(l.slot_of_offset(0x38), (3, true));
        assert_eq!(l.line_of(Addr::new(0x20f8)), Addr::new(0x2080));
    }

    #[test]
    fn static_instr_count_expands_loops() {
        let mut p = simple_program();
        // body currently: 1 instr + spin(2) + store(1) + advance(1) = 5
        assert_eq!(p.static_instrs_per_iteration(), 5);
        p.body.push(Step::Loop {
            body: vec![Step::Instr(InstrTemplate::new(Op::IntAlu, InstrKind::App))],
            count: 4,
        });
        assert_eq!(p.static_instrs_per_iteration(), 9);
    }

    #[test]
    fn lookup_helpers() {
        let p = simple_program();
        assert!(p.queue_plan(QueueId(0)).is_some());
        assert!(p.queue_plan(QueueId(5)).is_none());
        assert!(p.region(RegionId(0)).is_some());
        assert!(p.region(RegionId(7)).is_none());
    }
}
