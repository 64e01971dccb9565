//! `hfs-bench`: where a cold regeneration's time goes figure by figure,
//! its rendering floor, and the model's known error beside the paper.

use std::time::Instant;

use hfs_bench::runner::engine;

use crate::layers::{Ctx, Ledger};
use crate::spans::Recorder;
use crate::workloads::empty_and_settle;
use crate::workloads::figures::{check_against, committed_artifacts, init_engine, regenerate};

/// The figure calls that have a `bench.fig_wall_ms.*` row.
const FIGURES: [&str; 11] = [
    "table1", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "ablation",
    "scaling",
];

/// The `bench.*` rows: one cold regeneration with a span per figure
/// call, then the same sequence on the cache it left behind.
pub fn measure(ctx: &Ctx, l: &mut Ledger) {
    let (cache, _) = init_engine(&ctx.dir);
    empty_and_settle(&cache);
    let before = engine().stats();
    let start = Instant::now();
    let cold = regenerate(&mut Recorder::new(false), 0);
    let cold_s = start.elapsed().as_secs_f64();
    let after = engine().stats();
    let start = Instant::now();
    let warm = regenerate(&mut Recorder::new(false), 0);
    let warm_s = start.elapsed().as_secs_f64();

    let committed = committed_artifacts();
    check_against(&committed, &cold, &mut l.tally);
    check_against(&committed, &warm, &mut l.tally);

    for name in FIGURES {
        let ms = cold
            .fig_ms
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, ms)| *ms);
        l.put(&format!("bench.fig_wall_ms.{name}"), ms, 1);
    }
    l.put("bench.render_ms", warm_s * 1e3, 1);
    let jobs = after.jobs - before.jobs;
    let cycles = after.sim_cycles - before.sim_cycles;
    l.put("bench.jobs", jobs as f64, jobs);
    l.put("bench.sim_cycles_total", cycles as f64, jobs);
    l.put(
        "bench.ns_per_cycle_blended",
        cold_s * 1e9 / cycles as f64,
        jobs,
    );

    // Our geomeans; the paper's headline values (EXPERIMENTS.md) are
    // ~0.31, ~0.02 and ~2.0x.
    let (syncopti, existing, scq64) = cold.geomeans.unwrap_or((0.0, 0.0, 0.0));
    l.put("bench.paper_gap.syncopti_vs_heavywt", syncopti - 1.0, 9);
    l.put("bench.paper_gap.scq64_vs_heavywt", scq64 - 1.0, 9);
    l.put("bench.paper_gap.scq64_vs_existing", existing / scq64, 9);
    l.notes.push(format!(
        "paper gap: SYNCOPTI vs HEAVYWT {:.0}% (paper ~31%), SC+Q64 vs HEAVYWT {:.0}% (paper ~2%), SC+Q64 over EXISTING {:.2}x (paper ~2.0x)",
        (syncopti - 1.0) * 100.0,
        (scq64 - 1.0) * 100.0,
        existing / scq64
    ));
    l.put(
        "bench.span_overhead_frac",
        ctx.span_overhead_frac,
        ctx.traced_reps,
    );
    l.put(
        "bench.unattributed_frac",
        ctx.unattributed_frac,
        ctx.traced_reps,
    );
}
