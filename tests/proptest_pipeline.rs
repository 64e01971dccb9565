//! Randomized end-to-end tests: randomly shaped pipelines must run to
//! completion with verified FIFO queue semantics on every design.
//! Driven by the workspace's deterministic [`Rng64`] (std-only).

use hfs::core::kernel::{KStep, Kernel, KernelPair};
use hfs::core::{DesignPoint, Machine, MachineConfig};
use hfs::isa::QueueId;
use hfs::sim::Rng64;

const CASES: u64 = 12;

/// Builds a random but valid two-thread pipeline.
fn arb_pair(rng: &mut Rng64) -> KernelPair {
    let pwork = rng.range(1, 6) as u32; // producer ALU work
    let cchain = rng.range(1, 6) as u32; // consumer chain length
    let nq = rng.range(1, 3) as usize; // number of queues
    let iters = rng.range(10, 40); // iterations
    let fp = rng.below(3) as u32; // extra FP work

    let queues: Vec<QueueId> = (0..nq as u16).map(QueueId).collect();
    let mut psteps = vec![KStep::Alu(pwork)];
    if fp > 0 {
        psteps.push(KStep::Fp(fp));
    }
    for &q in &queues {
        psteps.push(KStep::Produce(q));
    }
    psteps.push(KStep::Branch);
    let mut csteps: Vec<KStep> = queues.iter().map(|&q| KStep::Consume(q)).collect();
    csteps.push(KStep::AluChain(cchain));
    csteps.push(KStep::Branch);
    KernelPair {
        name: "prop".into(),
        producer: Kernel::new(psteps),
        consumer: Kernel::new(csteps),
        iterations: iters,
    }
}

/// Every random pipeline completes on every design, with the queue
/// checker (produce/consume FIFO + conservation) passing and the
/// stall breakdown accounting for every cycle.
#[test]
fn random_pipelines_complete_and_verify() {
    let mut rng = Rng64::new(0xE2E_0001);
    for _ in 0..CASES {
        let pair = arb_pair(&mut rng);
        assert!(pair.validate().is_ok());
        for design in DesignPoint::paper_points() {
            let cfg = MachineConfig::itanium2_cmp(design);
            let r = Machine::new_pipeline(&cfg, &pair)
                .and_then(|mut m| m.run(20_000_000))
                .unwrap_or_else(|e| panic!("{design:?}: {e}"));
            assert_eq!(r.iterations, pair.iterations);
            for core in &r.cores {
                assert_eq!(core.breakdown.total(), core.cycles);
            }
        }
    }
}

/// The fused single-threaded lowering of any random pipeline also
/// completes, and executes at least the communication-free
/// instruction count.
#[test]
fn random_pipelines_fuse_and_complete() {
    let mut rng = Rng64::new(0xE2E_0002);
    for _ in 0..CASES {
        let pair = arb_pair(&mut rng);
        let cfg = MachineConfig::itanium2_single();
        let r = Machine::new_single(&cfg, &pair)
            .and_then(|mut m| m.run(20_000_000))
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.iterations, pair.iterations);
        assert!(r.cores[0].comm_instrs == 0, "fused code has no comm ops");
    }
}

/// HEAVYWT never loses to the software-queue baseline on these
/// communication-bound pipelines.
#[test]
fn heavywt_never_slower_than_existing() {
    let mut rng = Rng64::new(0xE2E_0003);
    for _ in 0..CASES {
        let pair = arb_pair(&mut rng);
        let run = |d: DesignPoint| {
            Machine::new_pipeline(&MachineConfig::itanium2_cmp(d), &pair)
                .unwrap()
                .run(20_000_000)
                .unwrap()
                .cycles
        };
        let hw = run(DesignPoint::heavywt());
        let ex = run(DesignPoint::existing());
        assert!(hw <= ex, "HEAVYWT {hw} vs EXISTING {ex}");
    }
}
