//! End-to-end integration: every design point runs every benchmark to
//! completion with verified queue semantics and consistent accounting.

use hfs::core::kernel::KernelPair;
use hfs::core::{DesignPoint, HeavyWtConfig, Machine, MachineConfig, SimError, SyncOptiConfig};
use hfs::harness::{execute, Job, JobOutcome};
use hfs::workloads::all_benchmarks;

const ITERS: u64 = 200;
const BUDGET: u64 = 50_000_000;

fn all_designs() -> impl Iterator<Item = DesignPoint> {
    DesignPoint::paper_points()
        .into_iter()
        .chain([DesignPoint::heavywt_with_transit(10)])
}

#[test]
fn every_design_runs_every_benchmark() {
    for bench in all_benchmarks() {
        let b = bench.with_iterations(ITERS);
        for design in all_designs() {
            let cfg = MachineConfig::itanium2_cmp(design);
            let result = Machine::new_pipeline(&cfg, &b.pair)
                .and_then(|mut m| m.run(BUDGET))
                .unwrap_or_else(|e| panic!("{} under {design:?}: {e}", b.name));
            assert_eq!(result.iterations, ITERS, "{} {design:?}", b.name);
            // The breakdown accounts for every cycle on every core.
            for (i, core) in result.cores.iter().enumerate() {
                assert_eq!(
                    core.breakdown.total(),
                    core.cycles,
                    "{} {design:?} core{i} breakdown mismatch",
                    b.name
                );
            }
        }
    }
}

#[test]
fn software_designs_execute_ten_instruction_sequences() {
    let b = hfs::workloads::benchmark("adpcmdec")
        .unwrap()
        .with_iterations(ITERS);
    let cfg = MachineConfig::itanium2_cmp(DesignPoint::existing());
    let r = Machine::new_pipeline(&cfg, &b.pair)
        .unwrap()
        .run(BUDGET)
        .unwrap();
    // One produce per iteration, ~10 comm instructions each (spins may
    // add more attempts, never fewer).
    assert!(
        r.producer().comm_instrs >= ITERS * 9,
        "comm instrs {} too low for software queues",
        r.producer().comm_instrs
    );
    // ISA designs use a single produce instruction plus nothing else.
    let cfg = MachineConfig::itanium2_cmp(DesignPoint::heavywt());
    let r2 = Machine::new_pipeline(&cfg, &b.pair)
        .unwrap()
        .run(BUDGET)
        .unwrap();
    assert!(r2.producer().comm_instrs <= ITERS + 2);
    assert!(r.producer().comm_instrs > 5 * r2.producer().comm_instrs);
}

#[test]
fn write_forwarding_happens_only_where_designed() {
    let b = hfs::workloads::benchmark("fir")
        .unwrap()
        .with_iterations(ITERS);
    let forwards = |d: DesignPoint| {
        let cfg = MachineConfig::itanium2_cmp(d);
        Machine::new_pipeline(&cfg, &b.pair)
            .unwrap()
            .run(BUDGET)
            .unwrap()
            .mem
            .forwards
    };
    assert_eq!(forwards(DesignPoint::existing()), 0);
    assert!(forwards(DesignPoint::memopti()) > 0);
    assert!(forwards(DesignPoint::syncopti()) > 0);
    assert_eq!(forwards(DesignPoint::heavywt()), 0);
}

#[test]
fn stream_cache_hits_only_with_sc_designs() {
    let b = hfs::workloads::benchmark("fir")
        .unwrap()
        .with_iterations(ITERS);
    let sc = |d: DesignPoint| {
        let cfg = MachineConfig::itanium2_cmp(d);
        Machine::new_pipeline(&cfg, &b.pair)
            .unwrap()
            .run(BUDGET)
            .unwrap()
            .stream_cache
    };
    assert!(sc(DesignPoint::syncopti()).is_none());
    let (hits, _, _) = sc(DesignPoint::syncopti_sc_q64()).expect("SC present");
    assert!(hits > 0, "stream cache never hit");
}

#[test]
fn single_threaded_fusion_runs_all_benchmarks() {
    for bench in all_benchmarks() {
        let b = bench.with_iterations(100);
        let cfg = MachineConfig::itanium2_single();
        let r = Machine::new_single(&cfg, &b.pair)
            .and_then(|mut m| m.run(BUDGET))
            .unwrap_or_else(|e| panic!("{} fused: {e}", b.name));
        assert_eq!(r.iterations, 100);
        assert_eq!(r.cores.len(), 1);
    }
}

/// A well-formed spec whose design asks for more than a backend will
/// allocate, loop over or address fails the job: it never reaches the
/// allocator, and never aborts the process that decoded it.
#[test]
fn an_oversized_design_fails_the_job_not_the_process() {
    let pair = KernelPair::simple("oversized", 3, 50);
    for design in [
        DesignPoint::heavywt_with_transit(1 << 40),
        DesignPoint::heavywt_with(1, u32::MAX),
        DesignPoint::heavywt_centralized(1 << 40),
        DesignPoint::HeavyWt(HeavyWtConfig {
            sa_ops_per_cycle: u32::MAX,
            ..HeavyWtConfig::default()
        }),
        DesignPoint::regmapped(u32::MAX),
        // One queue's slots would run into the next queue's.
        DesignPoint::SyncOpti(SyncOptiConfig {
            queue_depth: 2048,
            qlu: 16,
            stream_cache: false,
        }),
    ] {
        let cfg = MachineConfig::itanium2_cmp(design);
        assert!(
            matches!(Machine::new_pipeline(&cfg, &pair), Err(SimError::Config(_))),
            "{design:?}"
        );
        let outcome = execute(&Job::pipeline("oversized", pair.clone(), cfg), 0);
        assert!(
            matches!(outcome, JobOutcome::SimError(_)),
            "{design:?}: {outcome:?}"
        );
    }
}
