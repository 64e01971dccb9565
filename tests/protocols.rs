//! Coherence-protocol axis: MSI, MESI and Dragon must all be
//! deterministic, checker-clean, and behaviorally distinct in the ways
//! the protocols promise (silent E->M upgrades, bus updates instead of
//! invalidations).

use hfs::core::kernel::{KStep, Kernel, KernelPair};
use hfs::core::{CheckLevel, DesignPoint, Machine, MachineConfig};
use hfs::harness::{execute_once, Engine, Job};
use hfs::isa::QueueId;
use hfs::mem::Protocol;
use hfs::sim::{env_flag, Rng64};
use hfs::trace::Tracer;
use hfs::workloads::all_benchmarks;

const CASES: u64 = 6;

/// Builds a random but valid two-thread pipeline.
fn arb_pair(rng: &mut Rng64) -> KernelPair {
    let pwork = rng.range(1, 6) as u32;
    let cchain = rng.range(1, 6) as u32;
    let nq = rng.range(1, 3) as usize;
    let iters = rng.range(10, 40);

    let queues: Vec<QueueId> = (0..nq as u16).map(QueueId).collect();
    let mut psteps = vec![KStep::Alu(pwork)];
    for &q in &queues {
        psteps.push(KStep::Produce(q));
    }
    psteps.push(KStep::Branch);
    let mut csteps: Vec<KStep> = queues.iter().map(|&q| KStep::Consume(q)).collect();
    csteps.push(KStep::AluChain(cchain));
    csteps.push(KStep::Branch);
    KernelPair {
        name: "proto".into(),
        producer: Kernel::new(psteps),
        consumer: Kernel::new(csteps),
        iterations: iters,
    }
}

fn designs() -> [DesignPoint; 2] {
    [DesignPoint::existing(), DesignPoint::syncopti()]
}

/// The worker count is pure mechanics: the same protocol-crossed job
/// list must serialize to byte-identical artifacts on a 1-worker and a
/// 4-worker engine, for every protocol.
#[test]
fn one_vs_four_workers_byte_identical_across_protocols() {
    let build_jobs = || {
        let mut rng = Rng64::new(0x9307_0001);
        let mut jobs = Vec::new();
        for i in 0..CASES {
            let pair = arb_pair(&mut rng);
            for p in Protocol::ALL {
                for d in designs() {
                    let mut cfg = MachineConfig::itanium2_cmp(d);
                    cfg.mem.protocol = p;
                    jobs.push(Job::pipeline(
                        format!("proto/{i}/{p}/{}", d.label()),
                        pair.clone(),
                        cfg,
                    ));
                }
            }
        }
        jobs
    };
    let serial = Engine::new(1)
        .run_batch("protocols", build_jobs())
        .artifact_json();
    let parallel = Engine::new(4)
        .run_batch("protocols", build_jobs())
        .artifact_json();
    assert_eq!(serial, parallel, "worker count changed serialized outcomes");
}

/// Every random pipeline completes under the full cycle-level checker
/// on every protocol x design cross — no census violation, no stale
/// sharer, no spurious invalidation report.
#[test]
fn full_checker_clean_under_every_protocol() {
    let mut rng = Rng64::new(0x9307_0002);
    for _ in 0..CASES {
        let pair = arb_pair(&mut rng);
        for p in Protocol::ALL {
            for d in [
                DesignPoint::existing(),
                DesignPoint::syncopti(),
                DesignPoint::syncopti_sc_q64(),
            ] {
                let mut cfg = MachineConfig::itanium2_cmp(d);
                cfg.mem.protocol = p;
                let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
                m.set_check_level(CheckLevel::Full);
                let r = m
                    .run(20_000_000)
                    .unwrap_or_else(|e| panic!("{p} / {}: {e}", d.label()));
                assert!(r.checked);
                assert_eq!(r.iterations, pair.iterations);
            }
        }
    }
}

/// Protocol fingerprints on a flag-polling software queue: only Dragon
/// performs bus updates; MSI and MESI stay purely invalidate-based.
#[test]
fn only_dragon_issues_bus_updates() {
    let pair = KernelPair::simple("proto-fp", 4, 200);
    for p in Protocol::ALL {
        let mut cfg = MachineConfig::itanium2_cmp(DesignPoint::existing());
        cfg.mem.protocol = p;
        let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
        m.set_check_level(CheckLevel::Full);
        m.set_tracer(Tracer::metrics_only());
        let r = m.run(20_000_000).unwrap_or_else(|e| panic!("{p}: {e}"));
        if p == Protocol::Dragon {
            assert!(r.mem.updates > 0, "Dragon run performed no bus updates");
        } else {
            assert_eq!(r.mem.updates, 0, "{p} must never issue bus updates");
        }
        // The metrics report shows the same traffic.
        let report = r.metrics.expect("a metrics tracer was attached");
        let reported = report.counters.iter().find(|(n, _)| n == "mem.updates");
        assert_eq!(reported, Some(&("mem.updates".to_string(), r.mem.updates)));
    }
}

/// MSI results are byte-stable against the protocol refactor by
/// construction: a run with the default configuration must not change
/// when the (default) protocol field is spelled out explicitly.
#[test]
fn default_protocol_is_msi_and_matches_explicit_msi() {
    let pair = KernelPair::simple("proto-default", 4, 100);
    let run = |cfg: MachineConfig| {
        Machine::new_pipeline(&cfg, &pair)
            .unwrap()
            .run(20_000_000)
            .unwrap()
            .cycles
    };
    let default_cfg = MachineConfig::itanium2_cmp(DesignPoint::existing());
    assert_eq!(default_cfg.mem.protocol, Protocol::Msi);
    let mut explicit = MachineConfig::itanium2_cmp(DesignPoint::existing());
    explicit.mem.protocol = Protocol::Msi;
    assert_eq!(run(default_cfg), run(explicit));
}

/// EXPERIMENTS.md's "Coherence protocols" table, row for row and column
/// for column: full-scale Figure 7 cycles of EXISTING (MSI), SYNCOPTI
/// (MSI), EXISTING (MESI), EXISTING (Dragon), SYNCOPTI (Dragon). The
/// table leaves SYNCOPTI (MESI) out because it equals the MSI column on
/// every benchmark; the test holds it to that. `scripts/ci.sh` diffs
/// these rows against the document's.
const FIG7_CYCLES: [(&str, [u64; 5]); 9] = [
    ("art", [34805, 32909, 34805, 37296, 32896]),
    ("equake", [90941, 35662, 90941, 81399, 35534]),
    ("mcf", [66791, 33109, 66791, 67571, 32761]),
    ("bzip2", [105237, 55234, 105234, 72929, 53627]),
    ("adpcmdec", [37150, 27295, 37150, 35491, 27295]),
    ("epicdec", [33492, 24102, 33492, 31862, 24099]),
    ("wc", [58326, 26447, 58326, 69351, 27246]),
    ("fir", [42555, 37207, 42555, 34609, 37207]),
    ("fft2", [45255, 34090, 45255, 44635, 34092]),
];

/// The goldens under `results/` are MSI only; this pins MESI and Dragon
/// (and the two MSI columns beside them) to the cycle counts
/// EXPERIMENTS.md reports, through the jobs Figure 7 builds.
#[test]
fn fig7_cycles_match_the_experiments_table_under_every_protocol() {
    if env_flag("HFS_QUICK") {
        eprintln!("skipped: HFS_QUICK caps iteration counts, the table is full runs");
        return;
    }
    let benches = all_benchmarks();
    assert_eq!(benches.len(), FIG7_CYCLES.len());
    for (b, (name, want)) in benches.iter().zip(FIG7_CYCLES) {
        assert_eq!(b.name, name, "table rows follow the registry's order");
        let cycles = |d: DesignPoint, p: Protocol| {
            let mut cfg = MachineConfig::itanium2_cmp(d);
            cfg.mem.protocol = p;
            let label = format!("fig7/{name}/{}", d.label());
            execute_once(&Job::pipeline(label, b.pair.clone(), cfg))
                .unwrap_or_else(|e| panic!("{name} / {p} / {}: {e}", d.label()))
                .cycles
        };
        let (ex, sy) = (DesignPoint::existing(), DesignPoint::syncopti());
        let got = [
            cycles(ex, Protocol::Msi),
            cycles(sy, Protocol::Msi),
            cycles(ex, Protocol::Mesi),
            cycles(ex, Protocol::Dragon),
            cycles(sy, Protocol::Dragon),
        ];
        assert_eq!(
            got, want,
            "{name}: EX msi, SY msi, EX mesi, EX dragon, SY dragon"
        );
        assert_eq!(
            cycles(sy, Protocol::Mesi),
            want[1],
            "{name}: SY mesi = SY msi"
        );
    }
}
