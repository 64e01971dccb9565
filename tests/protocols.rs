//! Coherence-protocol axis: MSI, MESI and Dragon must all be
//! deterministic, checker-clean, and behaviorally distinct in the ways
//! the protocols promise (silent E->M upgrades, bus updates instead of
//! invalidations).

use hfs::core::kernel::{KStep, Kernel, KernelPair};
use hfs::core::{CheckLevel, DesignPoint, Machine, MachineConfig};
use hfs::harness::{Engine, Job};
use hfs::isa::QueueId;
use hfs::mem::Protocol;
use hfs::sim::Rng64;
use hfs::trace::Tracer;

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
