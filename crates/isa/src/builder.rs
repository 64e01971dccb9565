//! Ergonomic construction of [`Program`]s.

use std::sync::Arc;

use crate::addr::AddrPattern;
use crate::ids::{QueueId, Reg, RegionId};
use crate::instr::{InstrKind, InstrTemplate, Op, StoreValue};
use crate::program::{Program, QueuePlan, Step};
use crate::Region;

/// Builds loop-kernel [`Program`]s step by step.
///
/// Register names for destination operands are allocated round-robin from
/// a pool, so consecutive work instructions are independent unless a chain
/// is requested explicitly with [`ProgramBuilder::alu_chain`].
///
/// # Example
///
/// ```
/// use hfs_isa::ProgramBuilder;
///
/// let prog = ProgramBuilder::new(100)
///     .alu_work(3)
///     .fp_work(1)
///     .branch()
///     .build();
/// assert_eq!(prog.iterations, 100);
/// assert_eq!(prog.static_instrs_per_iteration(), 5);
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    regions: Vec<Region>,
    queues: Vec<QueuePlan>,
    body: Vec<Step>,
    iterations: u64,
    next_region: u16,
    next_reg: u8,
}

/// Registers `0..=REG_POOL_LAST` are handed out for scratch destinations.
const REG_POOL_LAST: u8 = 99;

impl ProgramBuilder {
    /// Starts a program whose outer loop runs `iterations` times.
    pub fn new(iterations: u64) -> Self {
        ProgramBuilder {
            regions: Vec::new(),
            queues: Vec::new(),
            body: Vec::new(),
            iterations,
            next_region: 0,
            next_reg: 0,
        }
    }

    fn alloc_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg = if self.next_reg >= REG_POOL_LAST {
            0
        } else {
            self.next_reg + 1
        };
        r
    }

    /// Declares a memory region and returns its id.
    pub fn declare_region(&mut self, name: impl Into<Arc<str>>, bytes: u64) -> RegionId {
        let id = RegionId(self.next_region);
        self.next_region += 1;
        self.regions.push(Region::new(id, name, bytes));
        id
    }

    /// Registers a queue plan.
    pub fn plan_queue(&mut self, plan: QueuePlan) -> &mut Self {
        self.queues.push(plan);
        self
    }

    /// Appends a raw step.
    pub fn step(&mut self, s: Step) -> &mut Self {
        self.body.push(s);
        self
    }

    /// Appends a raw instruction template.
    pub fn instr(&mut self, t: InstrTemplate) -> &mut Self {
        self.body.push(Step::Instr(t));
        self
    }

    /// Appends `n` independent integer ALU application instructions.
    pub fn alu_work(&mut self, n: u64) -> &mut Self {
        for _ in 0..n {
            let d = self.alloc_reg();
            self.body.push(Step::Instr(
                InstrTemplate::new(Op::IntAlu, InstrKind::App).dest(d),
            ));
        }
        self
    }

    /// Appends a chain of `n` *dependent* integer ALU instructions
    /// (each reads the previous one's destination), modeling dependence
    /// height within the loop body.
    pub fn alu_chain(&mut self, n: u64) -> &mut Self {
        let mut prev: Option<Reg> = None;
        for _ in 0..n {
            let d = self.alloc_reg();
            let t = InstrTemplate::new(Op::IntAlu, InstrKind::App)
                .dest(d)
                .srcs(prev, None);
            self.body.push(Step::Instr(t));
            prev = Some(d);
        }
        self
    }

    /// Appends `n` independent floating-point application instructions.
    pub fn fp_work(&mut self, n: u64) -> &mut Self {
        for _ in 0..n {
            let d = self.alloc_reg();
            self.body.push(Step::Instr(
                InstrTemplate::new(Op::FpAlu, InstrKind::App).dest(d),
            ));
        }
        self
    }

    /// Appends an application branch (the loop back-edge or an internal
    /// conditional; the sequencer treats it as straight-line).
    pub fn branch(&mut self) -> &mut Self {
        self.body
            .push(Step::Instr(InstrTemplate::new(Op::Branch, InstrKind::App)));
        self
    }

    /// Appends an application load walking `region` sequentially with the
    /// given byte stride.
    pub fn load_stream(&mut self, region: RegionId, stride: u64) -> &mut Self {
        let d = self.alloc_reg();
        self.body.push(Step::Instr(
            InstrTemplate::new(
                Op::Load(AddrPattern::Stream { region, stride }),
                InstrKind::App,
            )
            .dest(d),
        ));
        self
    }

    /// Appends an application load at a uniform-random 8-byte-aligned
    /// offset within `region` (models a large working set).
    pub fn load_random(&mut self, region: RegionId) -> &mut Self {
        let d = self.alloc_reg();
        self.body.push(Step::Instr(
            InstrTemplate::new(Op::Load(AddrPattern::Random { region }), InstrKind::App).dest(d),
        ));
        self
    }

    /// Appends an application store walking `region` sequentially.
    pub fn store_stream(&mut self, region: RegionId, stride: u64) -> &mut Self {
        self.body.push(Step::Instr(InstrTemplate::new(
            Op::Store(AddrPattern::Stream { region, stride }, StoreValue::Opaque),
            InstrKind::App,
        )));
        self
    }

    /// Appends an application store at a random offset within `region`.
    pub fn store_random(&mut self, region: RegionId) -> &mut Self {
        self.body.push(Step::Instr(InstrTemplate::new(
            Op::Store(AddrPattern::Random { region }, StoreValue::Opaque),
            InstrKind::App,
        )));
        self
    }

    /// Appends an ISA `produce` instruction on `q` (the queue must be
    /// planned with [`ProgramBuilder::plan_queue`]).
    pub fn produce(&mut self, q: QueueId) -> &mut Self {
        self.body.push(Step::Instr(InstrTemplate::new(
            Op::Produce(q),
            InstrKind::Comm,
        )));
        self
    }

    /// Appends an ISA `consume` instruction on `q`, writing a fresh
    /// destination register.
    pub fn consume(&mut self, q: QueueId) -> &mut Self {
        let _ = self.consume_into(q);
        self
    }

    /// Appends an ISA `consume` on `q` and returns the destination
    /// register, so later work can be made data-dependent on the consumed
    /// value (consume-to-use latency, §4.4).
    pub fn consume_into(&mut self, q: QueueId) -> Reg {
        let d = self.alloc_reg();
        self.body.push(Step::Instr(
            InstrTemplate::new(Op::Consume(q), InstrKind::Comm).dest(d),
        ));
        d
    }

    /// Like [`ProgramBuilder::alu_chain`], but link *i* additionally
    /// reads `seeds[i]` (typically consumed values' registers), so the
    /// chain exposes the consume-to-use latency of every seed.
    pub fn alu_chain_from(&mut self, n: u64, seeds: &[Reg]) -> &mut Self {
        let mut prev = None;
        for i in 0..n {
            let d = self.alloc_reg();
            let t = InstrTemplate::new(Op::IntAlu, InstrKind::App)
                .dest(d)
                .srcs(prev, seeds.get(i as usize).copied());
            self.body.push(Step::Instr(t));
            prev = Some(d);
        }
        self
    }

    /// A chain of `n` dependent floating-point instructions, link *i*
    /// additionally reading `seeds[i]`.
    pub fn fp_chain_from(&mut self, n: u64, seeds: &[Reg]) -> &mut Self {
        let mut prev = None;
        for i in 0..n {
            let d = self.alloc_reg();
            let t = InstrTemplate::new(Op::FpAlu, InstrKind::App)
                .dest(d)
                .srcs(prev, seeds.get(i as usize).copied());
            self.body.push(Step::Instr(t));
            prev = Some(d);
        }
        self
    }

    /// Appends a spin-synchronization step on `q`'s current slot flag.
    pub fn spin(&mut self, q: QueueId, until_full: bool) -> &mut Self {
        self.body.push(Step::Spin { q, until_full });
        self
    }

    /// Appends a local queue-index advance for `q`.
    pub fn advance_queue(&mut self, q: QueueId) -> &mut Self {
        self.body.push(Step::AdvanceQueue(q));
        self
    }

    /// Appends a release store (`st.rel`) of the current slot's flag for
    /// `q` with value `full`. Release stores order after all earlier
    /// memory operations in the memory system without blocking issue.
    pub fn release_store_flag(&mut self, q: QueueId, full: bool) -> &mut Self {
        self.body.push(Step::Instr(InstrTemplate::new(
            Op::StoreRelease(AddrPattern::QueueFlag { q }, StoreValue::Flag(full)),
            InstrKind::Comm,
        )));
        self
    }

    /// Allocates and returns a scratch register from the pool, for
    /// callers assembling raw instruction templates that must share the
    /// builder's register allocation.
    pub fn data_reg(&mut self) -> Reg {
        self.alloc_reg()
    }

    /// Builds an inner counted loop; `f` populates the loop body on a
    /// child builder that shares this builder's register allocator state.
    pub fn inner_loop(&mut self, count: u64, f: impl FnOnce(&mut ProgramBuilder)) -> &mut Self {
        let mut child = ProgramBuilder {
            regions: Vec::new(),
            queues: Vec::new(),
            body: Vec::new(),
            iterations: 1,
            next_region: self.next_region,
            next_reg: self.next_reg,
        };
        f(&mut child);
        assert!(
            child.regions.is_empty() && child.queues.is_empty(),
            "declare regions and queues on the outer builder, not inside a loop"
        );
        self.next_reg = child.next_reg;
        self.body.push(Step::Loop {
            body: child.body,
            count,
        });
        self
    }

    /// Finishes the program.
    pub fn build(&self) -> Program {
        Program {
            regions: self.regions.clone(),
            queues: self.queues.clone(),
            body: self.body.clone(),
            iterations: self.iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::QueueMemLayout;
    use crate::Addr;

    #[test]
    fn builds_validating_program() {
        let mut b = ProgramBuilder::new(10);
        let r = b.declare_region("data", 4096);
        b.alu_work(2).load_stream(r, 8).branch();
        let p = b.build();
        assert!(p.validate().is_ok());
        assert_eq!(p.static_instrs_per_iteration(), 4);
    }

    #[test]
    fn inner_loop_nests() {
        let mut b = ProgramBuilder::new(5);
        b.alu_work(1);
        b.inner_loop(3, |ib| {
            ib.alu_work(2);
        });
        let p = b.build();
        assert!(p.validate().is_ok());
        assert_eq!(p.static_instrs_per_iteration(), 1 + 3 * 2);
    }

    #[test]
    fn queue_ops_require_plan() {
        let mut b = ProgramBuilder::new(1);
        b.produce(QueueId(0));
        assert!(b.build().validate().is_err());
        b.plan_queue(QueuePlan {
            q: QueueId(0),
            layout: None,
        });
        assert!(b.build().validate().is_ok());
    }

    #[test]
    fn software_queue_steps_validate_with_layout() {
        let mut b = ProgramBuilder::new(2);
        b.plan_queue(QueuePlan {
            q: QueueId(1),
            layout: Some(QueueMemLayout {
                base: Addr::new(0x4000),
                depth: 8,
                qlu: 8,
                stride: 16,
                flag_offset: Some(8),
            }),
        });
        b.spin(QueueId(1), true).advance_queue(QueueId(1));
        assert!(b.build().validate().is_ok());
    }

    #[test]
    fn alu_chain_has_dependences() {
        let mut b = ProgramBuilder::new(1);
        b.alu_chain(3);
        let p = b.build();
        let mut prev_dest = None;
        for s in &p.body {
            if let Step::Instr(t) = s {
                if let Some(pd) = prev_dest {
                    assert_eq!(t.srcs[0], Some(pd));
                }
                prev_dest = t.dest;
            }
        }
    }

    #[test]
    fn reg_pool_wraps_without_touching_spin_reg() {
        let mut b = ProgramBuilder::new(1);
        b.alu_work(300);
        let p = b.build();
        for s in &p.body {
            if let Step::Instr(t) = s {
                assert!(t.dest.unwrap().0 <= REG_POOL_LAST);
            }
        }
    }
}
