//! Lowering: abstract kernels → design-specific ISA programs.
//!
//! The same [`KernelPair`] lowers differently per design point:
//!
//! * software designs (EXISTING/MEMOPTI) expand each communication into
//!   the 10-instruction load/store sequence of §4.3 — 6 synchronization
//!   instructions (flag address computation, spin load + branch, fence,
//!   flag store, occupancy arithmetic), 1 data-transfer instruction, and
//!   3 stream-address-update instructions — with a dependence height of
//!   about 4;
//! * produce/consume designs (SYNCOPTI/HEAVYWT) lower each communication
//!   to a single ISA instruction (§3.1.2).
//!
//! Lowering also fixes the machine's address map: thread-private work
//! regions and each queue's span of the shared backing store. How a
//! design lays a queue out within its span (Figure 5) is the design's to
//! say: [`DesignPoint::queue_mem_info`].

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use hfs_isa::program::QueueMemLayout;
use hfs_isa::{
    Addr, AddrPattern, InstrKind, InstrTemplate, Op, Program, ProgramBuilder, QueueId, QueuePlan,
    QueueRole, RegionId, StoreValue,
};
use hfs_sim::ConfigError;

use crate::design::DesignPoint;
use crate::kernel::{KStep, KernelPair};

/// Base address of producer-thread work regions.
pub const PRODUCER_WORK_BASE: u64 = 0x1000_0000;
/// Base address of consumer-thread work regions.
pub const CONSUMER_WORK_BASE: u64 = 0x2000_0000;
/// Base address of the shared queue backing store.
pub const QUEUE_BASE: u64 = 0x4000_0000;
/// Bytes reserved per queue in the backing store (keeps queues on
/// distinct pages so they never falsely share lines).
pub const QUEUE_SPAN: u64 = 8192;
/// Architectural queues provided by the machine (§4.3: 64 queues).
pub const ARCH_QUEUES: u64 = 64;
/// Cache line size of the backing store (Table 2's L2/L3 lines).
pub const LINE_BYTES: u64 = 128;

/// Which thread of the pipeline is being lowered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The upstream thread.
    Producer,
    /// The downstream thread.
    Consumer,
}

/// Shared-memory geometry of one queue under a design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueMemInfo {
    /// Queue depth in entries.
    pub depth: u32,
    /// Entries per cache line.
    pub qlu: u32,
    /// Byte distance between slots.
    pub stride: u64,
    /// Offset of a slot's full/empty flag from its datum, for designs
    /// that synchronize through flags in memory (software queues).
    pub flag_offset: Option<u64>,
    /// Base address of slot 0.
    pub base: Addr,
}

impl QueueMemInfo {
    /// Address of the data word of `slot` (not wrapped).
    pub fn slot_addr(&self, slot: u64) -> Addr {
        self.base + (slot % u64::from(self.depth)) * self.stride
    }

    /// Line base address containing `slot`.
    pub fn line_of_slot(&self, slot: u64) -> Addr {
        self.slot_addr(slot).line_base(LINE_BYTES)
    }

    /// Total backing bytes for the queue.
    pub fn bytes(&self) -> u64 {
        u64::from(self.depth) * self.stride
    }

    /// The slot that byte `off` of the queue's backing store belongs to,
    /// and whether `off` is that slot's flag rather than its datum.
    pub(crate) fn slot_of_offset(&self, off: u64) -> (u64, bool) {
        (
            off / self.stride,
            self.flag_offset == Some(off % self.stride),
        )
    }
}

/// Base address of queue `q`'s backing store.
pub fn queue_base(q: QueueId) -> Addr {
    Addr::new(QUEUE_BASE + u64::from(q.0) * QUEUE_SPAN)
}

/// A lowered program plus the region base addresses its sequencer needs.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The ISA program for one thread.
    pub program: Program,
    /// Region base addresses (thread-private work regions).
    pub region_bases: HashMap<RegionId, Addr>,
}

/// Lowers one side of `pair` for `design`.
///
/// # Errors
///
/// Propagates kernel validation failures and design validation failures.
pub fn lower(pair: &KernelPair, design: &DesignPoint, role: Role) -> Result<Lowered, ConfigError> {
    lower_at(pair, design, role, 0)
}

/// Like [`lower`], but offsets the thread's work regions by
/// `pair_index` x 64 MiB so the threads of independent pipelines on a
/// larger CMP never alias each other's private data.
pub fn lower_at(
    pair: &KernelPair,
    design: &DesignPoint,
    role: Role,
    pair_index: u32,
) -> Result<Lowered, ConfigError> {
    pair.validate()?;
    design.validate()?;
    let kernel = match role {
        Role::Producer => &pair.producer,
        Role::Consumer => &pair.consumer,
    };
    let work_base = match role {
        Role::Producer => PRODUCER_WORK_BASE,
        Role::Consumer => CONSUMER_WORK_BASE,
    } + u64::from(pair_index) * 0x0400_0000;
    let mut b = ProgramBuilder::new(pair.iterations);
    let mut bases = HashMap::new();
    let mut region_ids = Vec::new();
    let mut next = work_base;
    for r in &kernel.regions {
        let id = b.declare_region(r.name.clone(), r.bytes);
        bases.insert(id, Addr::new(next));
        // Page-align successive regions.
        next += r.bytes.div_ceil(4096) * 4096 + 4096;
        region_ids.push(id);
    }
    // Plan every queue this thread touches.
    let (prods, cons) = kernel.queue_uses();
    for (qs, qrole) in [(prods, QueueRole::Produce), (cons, QueueRole::Consume)] {
        for q in qs {
            // The sequencer generates queue addresses only where flags
            // live in memory; a produce/consume instruction leaves
            // addressing to the backend.
            let layout = design
                .queue_mem_info(q)
                .filter(|info| info.flag_offset.is_some())
                .map(|info| QueueMemLayout {
                    base: info.base,
                    slot_stride: info.stride,
                    flag_offset: info.flag_offset,
                });
            b.plan_queue(QueuePlan {
                q,
                role: qrole,
                depth: design.queue_depth(),
                layout,
            });
        }
    }
    lower_steps(&mut b, &kernel.steps, design.is_software(), &region_ids);
    // Register-mapped queues split the register space; loops with many
    // live values pay spill/fill pairs every iteration (§3.1.3).
    let spills = design.spill_ops();
    if spills > 0 {
        // One shared name: lowering allocates nothing for it.
        static SPILL_NAME: OnceLock<Arc<str>> = OnceLock::new();
        let name = SPILL_NAME.get_or_init(|| "regmapped_spill".into());
        let spill_region = b.declare_region(Arc::clone(name), 1024);
        bases.insert(spill_region, Addr::new(work_base + 0x0800_0000));
        for _ in 0..spills {
            b.store_stream(spill_region, 8);
            b.load_stream(spill_region, 8);
        }
    }
    let program = b.build();
    program.validate()?;
    Ok(Lowered {
        program,
        region_bases: bases,
    })
}

/// Lowers the pair into a single fused single-threaded program (the
/// paper's Figure 9 baseline): per iteration, the producer's work followed
/// by the consumer's work, with all communication removed.
///
/// # Errors
///
/// Propagates kernel validation failures.
pub fn lower_fused(pair: &KernelPair) -> Result<Lowered, ConfigError> {
    pair.validate()?;
    let mut b = ProgramBuilder::new(pair.iterations);
    let mut bases = HashMap::new();
    let mut prod_ids = Vec::new();
    let mut next = PRODUCER_WORK_BASE;
    for r in &pair.producer.regions {
        let id = b.declare_region(r.name.clone(), r.bytes);
        bases.insert(id, Addr::new(next));
        next += r.bytes.div_ceil(4096) * 4096 + 4096;
        prod_ids.push(id);
    }
    let mut cons_ids = Vec::new();
    let mut next = CONSUMER_WORK_BASE;
    for r in &pair.consumer.regions {
        let id = b.declare_region(r.name.clone(), r.bytes);
        bases.insert(id, Addr::new(next));
        next += r.bytes.div_ceil(4096) * 4096 + 4096;
        cons_ids.push(id);
    }
    let stripped_p = strip_comm(&pair.producer.steps);
    let stripped_c = strip_comm(&pair.consumer.steps);
    // No communication step remains for `software` to choose a lowering of.
    lower_steps(&mut b, &stripped_p, false, &prod_ids);
    lower_steps(&mut b, &stripped_c, false, &cons_ids);
    let program = b.build();
    program.validate()?;
    Ok(Lowered {
        program,
        region_bases: bases,
    })
}

fn strip_comm(steps: &[KStep]) -> Vec<KStep> {
    steps
        .iter()
        .filter_map(|s| match s {
            KStep::Produce(_) | KStep::Consume(_) => None,
            KStep::Loop(body, n) => Some(KStep::Loop(strip_comm(body), *n)),
            other => Some(other.clone()),
        })
        .collect()
}

/// Lowers `steps`; `software` picks the §4.3 load/store sequences over
/// the produce/consume instructions for each communication.
fn lower_steps(b: &mut ProgramBuilder, steps: &[KStep], software: bool, region_ids: &[RegionId]) {
    // Destination registers of consumes not yet used by a chain; the
    // next dependent chain reads them (one per link), modeling the
    // consume-to-use dependence that real DSWP consumers have (§4.4).
    let mut consumed: Vec<hfs_isa::Reg> = Vec::new();
    for s in steps {
        match s {
            KStep::Alu(n) => {
                b.alu_work(u64::from(*n));
            }
            KStep::AluChain(n) => {
                let seeds = std::mem::take(&mut consumed);
                b.alu_chain_from(u64::from(*n), &seeds);
            }
            KStep::FpChain(n) => {
                let seeds = std::mem::take(&mut consumed);
                b.fp_chain_from(u64::from(*n), &seeds);
            }
            KStep::Fp(n) => {
                b.fp_work(u64::from(*n));
            }
            KStep::Branch => {
                b.branch();
            }
            KStep::LoadStream { region, stride } => {
                b.load_stream(region_ids[*region], *stride);
            }
            KStep::LoadRandom { region } => {
                b.load_random(region_ids[*region]);
            }
            KStep::StoreStream { region, stride } => {
                b.store_stream(region_ids[*region], *stride);
            }
            KStep::StoreRandom { region } => {
                b.store_random(region_ids[*region]);
            }
            KStep::Produce(q) => lower_produce(b, *q, software),
            KStep::Consume(q) => {
                consumed.extend(lower_consume(b, *q, software));
            }
            KStep::Loop(body, n) => {
                // Queue plans and regions stay on the parent builder; the
                // child builder only collects body steps.
                let ids: Vec<RegionId> = region_ids.to_vec();
                let body = body.clone();
                b.inner_loop(*n, move |ib| {
                    lower_steps(ib, &body, software, &ids);
                });
            }
        }
    }
}

/// The software produce sequence of §4.3: 10 instructions — 6 for
/// synchronization, 1 for data transfer, 3 for the stream-address update.
fn lower_produce(b: &mut ProgramBuilder, q: QueueId, software: bool) {
    if !software {
        b.produce(q);
        return;
    }
    // sync (6): flag-address ALU x2, spin load + branch, occupancy ALU,
    // release flag store (st.rel orders it after the data store without
    // blocking issue).
    b.instr(InstrTemplate::new(Op::IntAlu, InstrKind::Comm)); // flag addr
    b.instr(InstrTemplate::new(Op::IntAlu, InstrKind::Comm)); // flag mask
    b.spin(q, false); // wait until the slot is empty (2 instrs per attempt)
                      // data (1):
    b.instr(InstrTemplate::new(
        Op::Store(AddrPattern::QueueData { q }, StoreValue::QueuePayload(q)),
        InstrKind::Comm,
    ));
    b.release_store_flag(q, true);
    b.instr(InstrTemplate::new(Op::IntAlu, InstrKind::Comm)); // occupancy math
                                                              // stream-address update (3):
    b.instr(InstrTemplate::new(Op::IntAlu, InstrKind::Comm)); // tail + 1
    b.instr(InstrTemplate::new(Op::IntAlu, InstrKind::Comm)); // mod depth
    b.advance_queue(q);
}

/// The software consume sequence, mirroring [`lower_produce`]. Returns
/// the register holding the consumed datum, if the design exposes one.
fn lower_consume(b: &mut ProgramBuilder, q: QueueId, software: bool) -> Option<hfs_isa::Reg> {
    if !software {
        return Some(b.consume_into(q));
    }
    b.instr(InstrTemplate::new(Op::IntAlu, InstrKind::Comm)); // flag addr
    b.instr(InstrTemplate::new(Op::IntAlu, InstrKind::Comm)); // flag mask
    b.spin(q, true); // wait until the slot is full
                     // data (1): the load's destination carries the consumed value.
    let dest = b.data_reg();
    b.instr(InstrTemplate::new(Op::Load(AddrPattern::QueueData { q }), InstrKind::Comm).dest(dest));
    // st.rel: the flag clear may not perform before the data load.
    b.release_store_flag(q, false);
    b.instr(InstrTemplate::new(Op::IntAlu, InstrKind::Comm));
    b.instr(InstrTemplate::new(Op::IntAlu, InstrKind::Comm));
    b.advance_queue(q);
    Some(dest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;

    #[test]
    fn software_produce_costs_ten_instructions() {
        let pair = KernelPair::simple("t", 2, 10);
        let low = lower(&pair, &DesignPoint::existing(), Role::Producer).unwrap();
        // Body: 2 app ALU + 10-instruction produce + 1 branch = 13
        // (the spin counts 2 in the best case).
        assert_eq!(low.program.static_instrs_per_iteration(), 13);
    }

    #[test]
    fn isa_produce_costs_one_instruction() {
        let pair = KernelPair::simple("t", 2, 10);
        for d in [DesignPoint::syncopti(), DesignPoint::heavywt()] {
            let low = lower(&pair, &d, Role::Producer).unwrap();
            assert_eq!(low.program.static_instrs_per_iteration(), 4);
        }
    }

    #[test]
    fn software_layout_places_eight_slots_per_line() {
        let info = DesignPoint::existing().queue_mem_info(QueueId(2)).unwrap();
        assert_eq!(info.qlu, 8);
        assert_eq!(info.stride, 16);
        assert_eq!(info.base, Addr::new(QUEUE_BASE + 2 * QUEUE_SPAN));
        // 8 slots x 16 B = one 128 B line.
        assert_eq!(info.line_of_slot(0), info.line_of_slot(7));
        assert_ne!(info.line_of_slot(7), info.line_of_slot(8));
    }

    #[test]
    fn syncopti_q64_layout_packs_sixteen_per_line() {
        let info = DesignPoint::syncopti_q64()
            .queue_mem_info(QueueId(0))
            .unwrap();
        assert_eq!(info.qlu, 16);
        assert_eq!(info.stride, 8);
        assert_eq!(info.depth, 64);
        assert_eq!(info.bytes(), 512);
        assert_eq!(info.line_of_slot(0), info.line_of_slot(15));
        assert_ne!(info.line_of_slot(15), info.line_of_slot(16));
    }

    #[test]
    fn heavywt_has_no_memory_layout() {
        assert!(DesignPoint::heavywt().queue_mem_info(QueueId(0)).is_none());
    }

    #[test]
    fn fused_program_has_no_queue_ops() {
        let pair = KernelPair::simple("t", 3, 10);
        let low = lower_fused(&pair).unwrap();
        assert!(low.program.queues.is_empty());
        // 3 + branch from producer, consume stripped, 3 + branch consumer.
        assert_eq!(low.program.static_instrs_per_iteration(), 8);
    }

    #[test]
    fn consumer_role_lowers_consumer_kernel() {
        let pair = KernelPair::simple("t", 5, 10);
        let low = lower(&pair, &DesignPoint::heavywt(), Role::Consumer).unwrap();
        // consume(1) + 5 ALU + branch = 7.
        assert_eq!(low.program.static_instrs_per_iteration(), 7);
        let plan = low.program.queue_plan(QueueId(0)).unwrap();
        assert_eq!(plan.role, QueueRole::Consume);
    }

    #[test]
    fn regions_get_distinct_page_aligned_bases() {
        let q = QueueId(0);
        let mut producer = Kernel::new(vec![KStep::Produce(q), KStep::Branch]);
        let a = producer.add_region("a", 100);
        let b2 = producer.add_region("b", 10_000);
        producer.steps.insert(
            0,
            KStep::LoadStream {
                region: a,
                stride: 8,
            },
        );
        producer.steps.insert(1, KStep::LoadRandom { region: b2 });
        let pair = KernelPair {
            name: "r".into(),
            producer,
            consumer: Kernel::new(vec![KStep::Consume(q)]),
            iterations: 5,
        };
        let low = lower(&pair, &DesignPoint::existing(), Role::Producer).unwrap();
        let bases: Vec<u64> = low.region_bases.values().map(|a| a.as_u64()).collect();
        assert_eq!(bases.len(), 2);
        assert_ne!(bases[0], bases[1]);
        for b in bases {
            assert_eq!(b % 4096, 0);
        }
    }

    #[test]
    fn nested_loops_lower_recursively() {
        let q = QueueId(0);
        let pair = KernelPair {
            name: "nest".into(),
            producer: Kernel::new(vec![KStep::Loop(vec![KStep::Alu(2), KStep::Produce(q)], 3)]),
            consumer: Kernel::new(vec![KStep::Loop(vec![KStep::Consume(q)], 3)]),
            iterations: 2,
        };
        let low = lower(&pair, &DesignPoint::heavywt(), Role::Producer).unwrap();
        // Inner: (2 ALU + produce) x 3 = 9 per outer iteration.
        assert_eq!(low.program.static_instrs_per_iteration(), 9);
    }

    #[test]
    fn lowering_invalid_pair_fails() {
        let mut pair = KernelPair::simple("t", 1, 10);
        pair.iterations = 0;
        assert!(lower(&pair, &DesignPoint::existing(), Role::Producer).is_err());
    }
}
