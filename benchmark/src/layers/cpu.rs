//! `hfs-cpu`: `Core::tick` in a hand-rolled single-core loop, and the
//! simulated issue statistics of the workload's points.

use std::time::{Duration, Instant};

use hfs_core::lower::lower_fused;
use hfs_core::{Machine, MachineConfig, RunResult};
use hfs_cpu::{Core, NullStreamPort};
use hfs_isa::{CoreId, Sequencer};
use hfs_mem::MemSystem;
use hfs_sim::stats::StallComponent;
use hfs_sim::Cycle;

use crate::layers::Ledger;

/// What the hand-rolled loop saw.
struct Walk {
    cycles: u64,
    ticks: u64,
    idle_ticks: u64,
    instrs: u64,
    tick_time: Duration,
}

/// The fused single-threaded version of `bench`, walked cycle by cycle
/// exactly as `Machine::new_single(..).run()` walks it — memory system,
/// then the core — with a bracket around `Core::tick`.
fn walk(bench: &str, iterations: u64) -> (Walk, u64) {
    let pair = hfs_workloads::benchmark(bench)
        .unwrap_or_else(|| panic!("unknown benchmark `{bench}`"))
        .with_iterations(iterations)
        .pair;
    let mut cfg = MachineConfig::itanium2_single();
    cfg.mem.cores = 1;
    let want = Machine::new_single(&cfg, &pair)
        .and_then(|mut m| m.run(hfs_harness::DEFAULT_MAX_CYCLES))
        .unwrap_or_else(|e| panic!("{bench} single-threaded: {e}"))
        .cycles;

    let fused = lower_fused(&pair).expect("the pair fuses");
    let mut seq = Sequencer::new(&fused.program, &fused.region_bases, cfg.seed)
        .expect("the fused program is valid");
    let mut core = Core::new(CoreId(0), cfg.core).expect("valid core configuration");
    let mut mem = MemSystem::new(cfg.mem.clone()).expect("valid memory configuration");
    let mut port = NullStreamPort;
    let (mut events, mut stray) = (Vec::new(), Vec::new());
    let mut w = Walk {
        cycles: 0,
        ticks: 0,
        idle_ticks: 0,
        instrs: 0,
        tick_time: Duration::ZERO,
    };
    let mut now = Cycle::ZERO;
    loop {
        mem.tick(now);
        mem.take_events(&mut events);
        let done = core.finished(&seq);
        if done {
            stray.clear();
            mem.drain_completions_into(core.id(), now, &mut stray);
        } else {
            let before = core.stats().total_instrs();
            let t = Instant::now();
            core.tick(now, &mut seq, &mut mem, &mut port);
            w.tick_time += t.elapsed();
            w.ticks += 1;
            w.idle_ticks += u64::from(core.stats().total_instrs() == before);
        }
        if done && mem.is_idle() {
            break;
        }
        now = now.next();
    }
    w.cycles = now.as_u64();
    w.instrs = core.stats().total_instrs();
    (w, want)
}

/// The `cpu.*` rows. `results` are the workload's layer jobs as the
/// `core` rows ran them.
pub fn measure(results: &[RunResult], bracket_ns: f64, l: &mut Ledger) {
    let (mut ticks, mut idle, mut instrs, mut nanos) = (0u64, 0u64, 0u64, 0.0f64);
    for (bench, iterations) in [("fir", 5_000), ("mcf", 1_500)] {
        let (w, want) = walk(bench, iterations);
        l.check(
            w.cycles == want,
            "the single-core loop's cycle count differs from Machine::new_single",
        );
        ticks += w.ticks;
        idle += w.idle_ticks;
        instrs += w.instrs;
        nanos += w.tick_time.as_nanos() as f64;
    }
    l.put(
        "cpu.tick_ns_per_cycle",
        nanos / ticks as f64 - bracket_ns,
        ticks,
    );
    l.put("cpu.instrs_per_tick", instrs as f64 / ticks as f64, ticks);
    l.put("cpu.blocked_frac", idle as f64 / ticks as f64, ticks);

    // Simulated issue statistics of the first core of each point.
    let firsts = || results.iter().map(|r| &r.cores[0]);
    let cycles: u64 = firsts().map(|c| c.cycles).sum();
    let committed: u64 = firsts().map(|c| c.total_instrs()).sum();
    let total: u64 = firsts().map(|c| c.breakdown.total()).sum();
    l.put("cpu.ipc", committed as f64 / cycles as f64, cycles);
    for (comp, name) in StallComponent::ALL.into_iter().zip([
        "cpu.stall_frac.prel2",
        "cpu.stall_frac.l2",
        "cpu.stall_frac.bus",
        "cpu.stall_frac.l3",
        "cpu.stall_frac.mem",
        "cpu.stall_frac.postl2",
    ]) {
        let stalled: u64 = firsts().map(|c| c.breakdown[comp]).sum();
        l.put(name, stalled as f64 / total as f64, total);
    }
}
