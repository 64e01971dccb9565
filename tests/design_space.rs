//! End-to-end integration: every design point runs every benchmark to
//! completion with verified queue semantics and consistent accounting.

use hfs::core::kernel::{KStep, KernelPair, MAX_BODY_STEPS, MAX_REGIONS, MAX_REGION_BYTES};
use hfs::core::lower::ARCH_QUEUES;
use hfs::core::{DesignPoint, HeavyWtConfig, Machine, MachineConfig, SimError, SyncOptiConfig};
use hfs::cpu::{MAX_ISSUE_WIDTH, MAX_WINDOW};
use hfs::harness::{execute, from_text, read_job, to_text, write_job, Job, JobOutcome};
use hfs::isa::QueueId;
use hfs::mem::config::{MAX_BUS_CYCLES, MAX_L2_PORTS, MAX_LATENCY, MAX_OZQ_ENTRIES};
use hfs::mem::{CacheGeometry, MAX_CACHE_LINES, MAX_LINE_BYTES};
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

/// A well-formed spec that asks for more than the machine will allocate,
/// loop over or address fails the job: it never reaches the allocator,
/// and never aborts the process that decoded it. Every bound admits its
/// maximum and refuses one more; the other cases are huge, and the
/// first two of them abort a process that does not check (a 5 GiB
/// body, a 24 GiB L2 tag array).
#[test]
fn an_oversized_design_fails_the_job_not_the_process() {
    type Edit = fn(&mut MachineConfig, &mut KernelPair, u64);
    let edited = |edit: Edit, v| {
        let mut cfg = MachineConfig::itanium2_cmp(DesignPoint::heavywt());
        // 3 ALU operations, a produce and a branch: 14 steps.
        let mut pair = KernelPair::simple("oversized", 3, 50);
        edit(&mut cfg, &mut pair, v);
        (cfg, pair)
    };
    let bounded: [(Edit, u64); 14] = [
        (
            |c, _, v| c.mem.l3 = CacheGeometry::new(v * 128, 1, 128),
            MAX_CACHE_LINES,
        ),
        (|c, _, v| c.mem.l2_ports = v as u32, MAX_L2_PORTS.into()),
        (
            |c, _, v| c.mem.ozq_entries = v as u32,
            MAX_OZQ_ENTRIES.into(),
        ),
        (|c, _, v| c.mem.dram_latency = v, MAX_LATENCY),
        (|c, _, v| c.mem.recirc_interval = v, MAX_LATENCY),
        (|c, _, v| c.mem.bus.clock_divider = v, MAX_BUS_CYCLES),
        (|c, _, v| c.mem.bus.pipeline_stages = v, MAX_BUS_CYCLES),
        (
            |c, _, v| c.core.issue_width = v as u32,
            MAX_ISSUE_WIDTH.into(),
        ),
        (|c, _, v| c.core.fp_units = v as u32, MAX_ISSUE_WIDTH.into()),
        (|c, _, v| c.core.window = v as u32, MAX_WINDOW.into()),
        (
            |_, p, v| p.producer.steps[0] = KStep::Alu(v as u32 - 11),
            MAX_BODY_STEPS,
        ),
        (
            |_, p, v| {
                for _ in 0..v {
                    p.producer.add_region("r", 64);
                }
            },
            MAX_REGIONS as u64,
        ),
        (
            |_, p, v| {
                p.producer.add_region("r", v);
            },
            MAX_REGION_BYTES,
        ),
        (
            |_, p, v| {
                let region = p.producer.add_region("r", 64);
                let load = KStep::LoadStream { region, stride: v };
                p.producer.steps.push(load);
            },
            MAX_REGION_BYTES,
        ),
    ];
    let mut over = Vec::new();
    for (edit, max) in bounded {
        let (cfg, pair) = edited(edit, max);
        assert!(cfg.validate().and(pair.validate()).is_ok(), "{max}");
        over.push(edited(edit, max + 1));
    }
    let huge: [Edit; 8] = [
        |_, p, _| p.producer.steps[0] = KStep::Alu(u32::MAX),
        |c, _, _| c.mem.l2 = CacheGeometry::new(1 << 40, 8, 128),
        // Valid caches, but queue slots are laid out on 128-byte lines.
        |c, _, _| {
            c.mem.l2 = CacheGeometry::new(256 * 1024, 8, 64);
            c.mem.l3 = CacheGeometry::new(1536 * 1024, 12, 64);
        },
        // Past its window a thread's data runs into other threads' and,
        // from the thirteenth region on, into the queue store.
        |_, p, _| {
            for _ in 0..13 {
                p.producer.add_region("r", MAX_REGION_BYTES);
            }
        },
        |c, _, _| c.mem.l1d = CacheGeometry::new(MAX_LINE_BYTES * 8, 4, MAX_LINE_BYTES * 2),
        |_, p, _| p.producer.steps.push(KStep::LoadRandom { region: 0 }),
        // A produce no consumer matches would fail anyway; the queue id
        // is refused first.
        |_, p, _| p.producer.steps[1] = KStep::Produce(QueueId(ARCH_QUEUES as u16)),
        // 2^40 x 2^40 produces per iteration overflow.
        |_, p, _| {
            let inner = KStep::Loop(vec![KStep::Produce(QueueId(0))], 1 << 40);
            p.producer.steps[1] = KStep::Loop(vec![inner], 1 << 40);
        },
    ];
    over.extend(huge.map(|edit| edited(edit, 0)));
    let designs = [
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
    ];
    // QLUs that divide the depth but not the 128-byte line: slots would
    // straddle lines the forward trigger counts QLU stores to.
    let untiled = [(48, 3), (40, 5), (48, 6), (56, 7), (48, 12)].map(|(queue_depth, qlu)| {
        DesignPoint::SyncOpti(SyncOptiConfig {
            queue_depth,
            qlu,
            stream_cache: qlu % 2 == 1,
        })
    });
    over.extend(
        designs
            .into_iter()
            .chain(untiled)
            .map(|d| (MachineConfig::itanium2_cmp(d), edited(|_, _, _| {}, 0).1)),
    );

    for (cfg, pair) in over {
        let what = format!("{:?} {:?}", cfg, pair.producer);
        assert!(
            matches!(Machine::new_pipeline(&cfg, &pair), Err(SimError::Config(_))),
            "{what}"
        );
        // What a server decodes from the wire.
        let job = Job::pipeline("oversized", pair, cfg);
        let spec = to_text(false, |w| write_job(w, &job));
        let job = from_text(&spec, read_job).expect("a well-formed spec decodes");
        let outcome = execute(&job, 0);
        assert!(
            matches!(outcome, JobOutcome::SimError(_)),
            "{what}: {outcome:?}"
        );
    }
}

/// bzip2's producer makes all 32 of an iteration's q0 items before the
/// q1 item its consumer waits for first. With 16-entry queues q0 fills,
/// the producer blocks on it, and the consumer never gets q1. The
/// deadlock is the kernel's own, not a design's: SYNCOPTI with and
/// without the stream cache and HEAVYWT all reach it at that depth, and
/// no design reaches it at bzip2's 32 (`every_design_runs_every_benchmark`).
/// A design deadlocks only where HEAVYWT at the same depth does.
#[test]
fn bzip2_deadlocks_wherever_its_inner_loop_overfills_q0() {
    let b = hfs::workloads::benchmark("bzip2")
        .expect("bzip2 is registered")
        .with_iterations(300);
    let run = |design| {
        Machine::new_pipeline(&MachineConfig::itanium2_cmp(design), &b.pair)
            .and_then(|mut m| m.run(BUDGET))
    };
    let syncopti_16 = |stream_cache| {
        DesignPoint::SyncOpti(SyncOptiConfig {
            queue_depth: 16,
            qlu: 8,
            stream_cache,
        })
    };
    for design in [
        syncopti_16(false),
        syncopti_16(true),
        DesignPoint::heavywt_with(1, 16),
    ] {
        let r = run(design);
        assert!(
            matches!(r, Err(SimError::Deadlock { .. })),
            "{design}: {r:?}"
        );
    }
    let r = run(DesignPoint::heavywt()).expect("HEAVYWT at depth 32 completes");
    assert_eq!(r.cycles, 24_847);
}
