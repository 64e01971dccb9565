//! Fast-forward equivalence: skipping dead cycles must be invisible in
//! every architectural statistic, and the strided deadlock detector must
//! declare at the same cycle per-cycle simulation would.

use hfs::core::kernel::{KStep, Kernel, KernelPair};
use hfs::core::{CheckLevel, DesignPoint, Machine, MachineConfig, RunResult, SimError};
use hfs::isa::QueueId;
use hfs::sim::Rng64;
use hfs::trace::Tracer;

const CASES: u64 = 8;

/// Builds a random but valid two-thread pipeline (the same shape space
/// as `proptest_pipeline`, different seed stream).
fn arb_pair(rng: &mut Rng64) -> KernelPair {
    let pwork = rng.range(1, 6) as u32;
    let cchain = rng.range(1, 6) as u32;
    let nq = rng.range(1, 3) as usize;
    let iters = rng.range(10, 40);
    let fp = rng.below(3) as u32;

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
        name: "ff-prop".into(),
        producer: Kernel::new(psteps),
        consumer: Kernel::new(csteps),
        iterations: iters,
    }
}

fn designs() -> impl Iterator<Item = DesignPoint> {
    // Centralized store: long consume-to-use latency keeps the
    // producer blocked on a full queue for whole windows.
    DesignPoint::paper_points()
        .into_iter()
        .chain([DesignPoint::heavywt_centralized(12)])
}

fn run_with_ff(cfg: &MachineConfig, pair: &KernelPair, ff: bool) -> RunResult {
    let mut m = Machine::new_pipeline(cfg, pair).expect("machine builds");
    m.set_fast_forward(ff);
    m.run(20_000_000).expect("run completes")
}

fn assert_identical(fast: &RunResult, slow: &RunResult, label: &str) {
    assert_eq!(fast.cycles, slow.cycles, "{label}: cycles");
    assert_eq!(fast.cores, slow.cores, "{label}: core stats");
    assert_eq!(fast.mem, slow.mem, "{label}: mem stats");
    assert_eq!(fast.stream_cache, slow.stream_cache, "{label}: SC");
    assert_eq!(fast.iterations, slow.iterations, "{label}: iters");
}

/// Fast-forwarded runs must be bit-identical to per-cycle simulation:
/// same total cycles, same per-core statistics (including the stall
/// breakdown and the blocked-attempt counters the skip path replays in
/// bulk), same memory-system counters, same stream-cache counters.
#[test]
fn fastforward_matches_percycle_on_random_configs() {
    let mut rng = Rng64::new(0xFF_0001);
    for case in 0..CASES {
        let pair = arb_pair(&mut rng);
        assert!(pair.validate().is_ok());
        for design in designs() {
            let cfg = MachineConfig::itanium2_cmp(design);
            let fast = run_with_ff(&cfg, &pair, true);
            let slow = run_with_ff(&cfg, &pair, false);
            assert_identical(&fast, &slow, &format!("case {case}, {}", fast.design));
        }
    }
}

/// The single-core fused baseline fast-forwards too.
#[test]
fn fastforward_matches_percycle_on_single_core_machines() {
    let mut rng = Rng64::new(0xFF_0003);
    let pair = arb_pair(&mut rng);
    let cfg = MachineConfig::itanium2_cmp(DesignPoint::existing());
    let run = |ff| {
        let mut m = Machine::new_single(&cfg, &pair).expect("machine builds");
        m.set_fast_forward(ff);
        m.run(20_000_000).expect("run completes")
    };
    assert_identical(&run(true), &run(false), "single-core");
}

/// A producer blocked on a full queue for whole windows (centralized
/// store, long consume-to-use latency): hundreds of iterations with
/// sustained queue-full phases, which the short random pipelines above
/// never reach. A sync-array port budget left stale across a skipped
/// window once showed up here, in `stream_blocked`.
#[test]
fn heavywt_centralized_long_blocked_phases_stay_identical() {
    let bench = hfs::workloads::all_benchmarks()
        .into_iter()
        .find(|b| b.name == "wc")
        .expect("wc registered");
    let mut pair = bench.pair.clone();
    pair.iterations = 300;
    let cfg = MachineConfig::itanium2_cmp(DesignPoint::heavywt_centralized(12));
    let fast = run_with_ff(&cfg, &pair, true);
    let slow = run_with_ff(&cfg, &pair, false);
    assert_identical(&fast, &slow, "wc/centralized");
}

/// A metrics-only tracer is safe to fast-forward: its fixed-order event
/// totals and order-insensitive histograms must match the per-cycle run
/// exactly. (Exported event *streams* are compared byte for byte by the
/// trace determinism suite.)
#[test]
fn metrics_only_tracer_is_identical_with_and_without_fastforward() {
    let mut rng = Rng64::new(0xFF_0004);
    let pair = arb_pair(&mut rng);
    for design in designs() {
        let cfg = MachineConfig::itanium2_cmp(design);
        let run = |ff: bool| {
            let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
            m.set_fast_forward(ff);
            m.set_tracer(Tracer::metrics_only());
            let r = m.run(20_000_000).expect("run completes");
            let t = m.tracer().clone();
            (r, t.event_counts(), t.consume_to_use(), t.queue_depth())
        };
        let (fast, counts_f, use_f, depth_f) = run(true);
        let (slow, counts_s, use_s, depth_s) = run(false);
        let label = format!("metrics {}", fast.design);
        assert_identical(&fast, &slow, &label);
        assert_eq!(fast.metrics, slow.metrics, "{label}: metrics report");
        assert_eq!(counts_f, counts_s, "{label}: event counts");
        assert_eq!(
            (use_f.count(), use_f.sum()),
            (use_s.count(), use_s.sum()),
            "{label}: consume-to-use histogram"
        );
        assert_eq!(
            (depth_f.count(), depth_f.sum()),
            (depth_s.count(), depth_s.sum()),
            "{label}: queue-depth histogram"
        );
    }
}

/// `run_sampled` lands on the same grid with the same iteration counts
/// whether or not dead cycles are skipped — and with the grid in the way
/// some still are.
#[test]
fn sampling_grid_survives_fastforward() {
    let mut rng = Rng64::new(0xFF_0005);
    let pair = arb_pair(&mut rng);
    let cfg = MachineConfig::itanium2_cmp(DesignPoint::syncopti_sc_q64());
    let run = |ff| {
        let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
        m.set_fast_forward(ff);
        let out = m.run_sampled(20_000_000, Some(64)).expect("run completes");
        (out, m.fast_forward_stats())
    };
    let ((fast, samples_f), stats) = run(true);
    let ((slow, samples_s), walked) = run(false);
    assert_identical(&fast, &slow, "sampled");
    assert_eq!(samples_f, samples_s, "sample streams must be identical");
    assert!(
        samples_f.len() as u64 > fast.cycles / 64,
        "one sample a step"
    );
    assert!(stats.skipped_cycles > 0, "the grid is no bar to skipping");
    assert!(stats.skipped_cycles < fast.cycles, "{stats:?}");
    assert_eq!(walked.skipped_cycles, 0, "the per-cycle walk skips nothing");
}

/// Cold design sweeps are many short software-queue jobs, whose held-back
/// release stores once pinned the next cycle for as long as they waited
/// (13% of such a job was skipped then). One job of that shape: a
/// quarter of its cycles must be skipped, at a result equal field by
/// field to the per-cycle walk.
#[test]
fn short_software_queue_jobs_skip_a_quarter_of_their_cycles() {
    let pair = KernelPair::simple("sweep", 4, 50);
    for design in [DesignPoint::existing(), DesignPoint::memopti()] {
        let cfg = MachineConfig::itanium2_cmp(design);
        let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
        m.set_fast_forward(true);
        let fast = m.run(20_000_000).expect("run completes");
        let stats = m.fast_forward_stats();
        let slow = run_with_ff(&cfg, &pair, false);
        let label = format!("sweep {}", fast.design);
        assert_eq!(fast.design, slow.design, "{label}: design");
        assert_identical(&fast, &slow, &label);
        assert_eq!(fast.metrics, slow.metrics, "{label}: metrics");
        assert_eq!(fast.checked, slow.checked, "{label}: checked");
        assert!(
            stats.skipped_cycles * 4 >= fast.cycles,
            "{label}: skipped {} of {} cycles",
            stats.skipped_cycles,
            fast.cycles
        );
        assert_eq!(m.sched_stats().cycles_skipped, stats.skipped_cycles);
    }
}

/// The machine checker composes with fast-forward: enabling it forces
/// per-cycle simulation (every invariant is re-audited each cycle), yet
/// the architectural results must still match an unchecked run exactly —
/// with `set_fast_forward(true)` or `false` alike. This is the
/// FF-on == FF-off equivalence guarantee under `HFS_CHECK=1`.
#[test]
fn checker_preserves_results_and_pins_percycle() {
    let mut rng = Rng64::new(0xFF_0002);
    let pair = arb_pair(&mut rng);
    for design in designs() {
        let cfg = MachineConfig::itanium2_cmp(design);
        let baseline = run_with_ff(&cfg, &pair, true);
        let label = format!("checked {}", baseline.design);
        assert!(!baseline.checked, "{label}: baseline is unchecked");
        for ff in [true, false] {
            let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
            m.set_fast_forward(ff);
            m.set_check_level(CheckLevel::Full);
            let r = m.run(20_000_000).expect("checked run completes");
            assert!(r.checked, "{label}: run reports itself checked");
            assert_eq!(r.cycles, baseline.cycles, "{label}: cycles (ff={ff})");
            assert_eq!(r.cores, baseline.cores, "{label}: core stats (ff={ff})");
            assert_eq!(r.mem, baseline.mem, "{label}: mem stats (ff={ff})");
            assert_eq!(
                r.stream_cache, baseline.stream_cache,
                "{label}: SC (ff={ff})"
            );
        }
    }
}

/// A dense pair: independent ALU work every cycle on both cores, so the
/// jump target almost never clears the next cycle. Under the
/// EXISTING design this is the pathological case for fast-forward —
/// bound computations are pure overhead.
fn dense_pair() -> KernelPair {
    let q = QueueId(0);
    KernelPair {
        name: "ff-dense".into(),
        producer: Kernel::new(vec![KStep::Alu(4), KStep::Produce(q), KStep::Branch]),
        consumer: Kernel::new(vec![KStep::Consume(q), KStep::AluChain(4), KStep::Branch]),
        iterations: 4000,
    }
}

/// A sparse pair: a serial FP producer leaves multi-cycle gaps where no
/// core can retire anything, so fast-forward jumps pay for themselves.
fn sparse_pair() -> KernelPair {
    let q = QueueId(0);
    KernelPair {
        name: "ff-sparse".into(),
        producer: Kernel::new(vec![KStep::Fp(8), KStep::Produce(q), KStep::Branch]),
        consumer: Kernel::new(vec![KStep::Consume(q), KStep::AluChain(2), KStep::Branch]),
        iterations: 12_000,
    }
}

/// A dense workload keeps fast-forward on to the end of the run — there
/// is no low-skip latch — and its results stay bit-identical to a plain
/// per-cycle run.
#[test]
fn dense_workloads_fast_forward_to_the_end() {
    let pair = dense_pair();
    let cfg = MachineConfig::itanium2_cmp(DesignPoint::existing());
    let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
    m.set_fast_forward(true);
    let fast = m.run(20_000_000).expect("run completes");
    let stats = m.fast_forward_stats();
    assert!(!stats.auto_disabled, "{stats:?}");
    assert!(m.fast_forward_enabled(), "nothing turns fast-forward off");

    let slow = run_with_ff(&cfg, &pair, false);
    assert_eq!(fast.cycles, slow.cycles, "dense: cycles");
    assert_eq!(fast.cores, slow.cores, "dense: core stats");
    assert_eq!(fast.mem, slow.mem, "dense: mem stats");
    assert_eq!(fast.stream_cache, slow.stream_cache, "dense: SC");
}

/// A skip-heavy workload keeps fast-forward enabled across a long run
/// and skips at least twice the cycles it computes bounds for.
#[test]
fn auto_disable_spares_skip_heavy_workloads() {
    let pair = sparse_pair();
    let cfg = MachineConfig::itanium2_cmp(DesignPoint::syncopti_sc_q64());
    let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
    m.set_fast_forward(true);
    let r = m.run(20_000_000).expect("run completes");
    let stats = m.fast_forward_stats();
    assert!(
        r.cycles > 4 * 4096,
        "test must run long: {} cycles",
        r.cycles
    );
    assert!(
        !stats.auto_disabled,
        "auto_disabled is always false: {stats:?}"
    );
    assert!(m.fast_forward_enabled());
    assert!(
        stats.skipped_cycles >= 2 * stats.bound_computations,
        "skips should be twice the folds: {stats:?}"
    );
}

/// A pipeline that genuinely deadlocks under HEAVYWT: the producer must
/// emit more items into `q0` than the queue, network, and consumer's
/// instruction window can absorb before it ever produces `q1`, while
/// the consumer's oldest in-flight consume waits on `q1`. Per-queue
/// produce/consume counts still balance, so the pair validates.
fn deadlocking_pair() -> KernelPair {
    let q0 = QueueId(0);
    let q1 = QueueId(1);
    KernelPair {
        name: "circular-wait".into(),
        producer: Kernel::new(vec![
            KStep::Loop(vec![KStep::Produce(q0)], 200),
            KStep::Produce(q1),
            KStep::Branch,
        ]),
        consumer: Kernel::new(vec![
            KStep::Consume(q1),
            KStep::Loop(vec![KStep::Consume(q0)], 200),
            KStep::Branch,
        ]),
        iterations: 4,
    }
}

fn declared_cycle(deadlock_cycles: u64, ff: bool) -> u64 {
    // The consumer's instruction window lets consumes *behind* the
    // blocked q1 consume still issue, complete, and ACK, so the
    // producer can push roughly window + queue-depth items of q0
    // before back-pressure freezes it; 200 is far beyond that.
    let mut cfg = MachineConfig::itanium2_cmp(DesignPoint::heavywt_with(2, 4));
    cfg.deadlock_cycles = deadlock_cycles;
    let pair = deadlocking_pair();
    assert!(pair.validate().is_ok(), "balanced counts must validate");
    let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
    m.set_fast_forward(ff);
    match m.run(10_000_000) {
        Err(SimError::Deadlock { cycle, .. }) => cycle,
        other => panic!("expected deadlock, got {other:?}"),
    }
}

/// The deadlock detector only *sweeps* every `DEADLOCK_STRIDE` cycles,
/// but the declared cycle is computed from progress timestamps, so it
/// must shift by exactly one when the window grows by one — per-cycle
/// declaration semantics, immune to the sweep quantization.
#[test]
fn strided_deadlock_declares_at_the_exact_cycle() {
    let base = declared_cycle(1000, true);
    let plus_one = declared_cycle(1001, true);
    assert_eq!(
        plus_one,
        base + 1,
        "declared cycle must track the window exactly, not the sweep grid"
    );
}

/// Fast-forward must not change when a deadlock is declared: the skip
/// target never jumps past a sweep that could declare.
#[test]
fn deadlock_cycle_identical_with_and_without_fastforward() {
    for window in [777, 1000, 4096] {
        assert_eq!(
            declared_cycle(window, true),
            declared_cycle(window, false),
            "window {window}"
        );
    }
}
