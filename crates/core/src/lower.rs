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
//! Where each thread's regions and each queue's slots live is the
//! address map's to say ([`crate::addr_map`]).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use hfs_isa::{
    Addr, AddrPattern, InstrKind, InstrTemplate, Op, Program, ProgramBuilder, QueueId, QueuePlan,
    RegionId, StoreValue,
};
use hfs_sim::ConfigError;

use crate::addr_map::{Window, SPILL_BYTES};
pub use crate::addr_map::{ARCH_QUEUES, LINE_BYTES, QUEUE_BASE};
use crate::design::DesignPoint;
use crate::kernel::{KStep, KernelPair};

/// Which thread of the pipeline is being lowered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The upstream thread.
    Producer,
    /// The downstream thread.
    Consumer,
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

/// Like [`lower`], but for the pipeline `pair_index` of a larger CMP,
/// whose threads' work regions lie in windows of their own.
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
    let window = Window::of(role, pair_index);
    let mut b = ProgramBuilder::new(pair.iterations);
    let mut bases = HashMap::new();
    let region_ids = window.place(&mut b, &kernel.regions, &mut bases)?;
    // Plan every queue this thread touches. The sequencer addresses a
    // queue's slots only where flags live in memory; a produce/consume
    // instruction leaves addressing to the backend.
    let (prods, cons) = kernel.queue_uses();
    for q in prods.into_iter().chain(cons) {
        let layout = design.queue_mem_info(q).filter(|l| l.flag_offset.is_some());
        b.plan_queue(QueuePlan { q, layout });
    }
    lower_steps(&mut b, &kernel.steps, design.is_software(), &region_ids);
    // Register-mapped queues split the register space; loops with many
    // live values pay spill/fill pairs every iteration (§3.1.3).
    let spills = design.spill_ops();
    if spills > 0 {
        // One shared name: lowering allocates nothing for it.
        static SPILL_NAME: OnceLock<Arc<str>> = OnceLock::new();
        let name = SPILL_NAME.get_or_init(|| "regmapped_spill".into());
        let spill_region = b.declare_region(Arc::clone(name), SPILL_BYTES);
        bases.insert(spill_region, window.spill_slot());
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
    for (role, kernel) in [
        (Role::Producer, &pair.producer),
        (Role::Consumer, &pair.consumer),
    ] {
        let ids = Window::of(role, 0).place(&mut b, &kernel.regions, &mut bases)?;
        // No communication step remains for `software` to choose a lowering of.
        lower_steps(&mut b, &strip_comm(&kernel.steps), false, &ids);
    }
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
        assert!(low.program.queue_plan(QueueId(0)).is_some());
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
