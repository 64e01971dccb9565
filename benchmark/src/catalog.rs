//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics. `BENCHMARK.json` lists the same names (a test keeps the two
//! in step) and later issues cite them.

/// One workload and the reason it exists.
pub struct WorkloadDef {
    /// `--workload` name.
    pub name: &'static str,
    /// Why it was chosen (one line).
    pub why: &'static str,
}

/// The five workloads. All are closed-loop with one driver thread; the
/// sweeps use one client connection; engine and server worker threads
/// are fixed at one, and `run.sh` keeps the whole run on one CPU.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "sim_dense",
        why: "software-queue points process ~100% of cycles: cpu issue, mem L2/OzQ/bus ping-pong and run-loop bookkeeping; harness and serve idle",
    },
    WorkloadDef {
        name: "sim_stream",
        why: "hardware-queue points: cores sleep on stream ops, core backends and the sim calendar queue work, ~20% of cycles are skippable",
    },
    WorkloadDef {
        name: "figures_cold",
        why: "the exact all_figures sequence on an emptied cache: ~280 short jobs, every design, 8-core scaling machines, engine pool, cache writes, rendering",
    },
    WorkloadDef {
        name: "sweep_cold",
        why: "2440 distinct tiny jobs (5 designs x 8 work x 61 lengths) through a fresh uncached server: decode, lower, construct, simulate, serialise, frames; nothing reused",
    },
    WorkloadDef {
        name: "sweep_warm",
        why: "the same sweep resubmitted to the live server: simulation bypassed, so key, hot-cache get, frames and wire do all the work",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end: the share of the parent's median by which it may
    /// worsen. Per-layer metrics have no bound (0).
    pub bound: f64,
    /// An exact simulated or protocol count that must repeat bit for bit
    /// on the same seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

/// The end-to-end metrics; every workload reports every one of them.
///
/// Every bound is the largest the benchmark contract allows: the driver
/// refuses a benchmark whose ten-run spread exceeds a bound, and asks for
/// spreads below a third of it. On the authoring host (two shared virtual
/// cores) the spread of ten runs on ten seeds lay between 3.4% and 7.6%
/// on the rates (README, "Measured").
///
/// `jobs_per_s` and `sim_cycles_per_s` are both derived from the
/// fastest rep ([`crate::stats::HEADLINE_Q`]). Which of the two is the
/// headline depends on the workload: simulated cycles per host second on
/// the `sim_*` workloads and on `figures_cold`, jobs per host second on
/// the sweeps.
pub const END_TO_END: &[MetricDef] = &[
    e2e("jobs_per_s", "1/s", Better::Higher, 0.25),
    e2e("sim_cycles_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn time(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        better: Better::Higher,
        ..time(name, unit)
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        better,
        exact: true,
        ..time(name, unit)
    }
}

use Better::{Higher, Lower};

/// The per-layer ledger; the traced run of every workload reports every
/// row. Layer prefixes are crate names.
pub const PER_LAYER: &[MetricDef] = &[
    // sim
    time("sim.calq_ns_per_op", "ns"),
    time("sim.calq_overflow_ns_per_op", "ns"),
    time("sim.fnvmap_ns_per_op", "ns"),
    // isa
    time("isa.seq_ns_per_instr", "ns"),
    exact("isa.seq_instrs", "count", Lower),
    // cpu
    time("cpu.tick_ns_per_cycle", "ns"),
    exact("cpu.instrs_per_tick", "ratio", Higher),
    exact("cpu.blocked_frac", "frac", Lower),
    exact("cpu.ipc", "ratio", Higher),
    exact("cpu.stall_frac.prel2", "frac", Lower),
    exact("cpu.stall_frac.l2", "frac", Lower),
    exact("cpu.stall_frac.bus", "frac", Lower),
    exact("cpu.stall_frac.l3", "frac", Lower),
    exact("cpu.stall_frac.mem", "frac", Lower),
    exact("cpu.stall_frac.postl2", "frac", Lower),
    // mem
    time("mem.replay_ns_per_ref.msi", "ns"),
    time("mem.replay_ns_per_ref.mesi", "ns"),
    time("mem.replay_ns_per_ref.dragon", "ns"),
    time("mem.replay_private_ns_per_ref", "ns"),
    time("mem.tick_ns_per_cycle", "ns"),
    time("mem.submit_ns", "ns"),
    time("mem.drain_ns", "ns"),
    time("mem.next_event_ns", "ns"),
    exact("mem.refs", "count", Higher),
    exact("mem.sim_cycles_per_ref", "ratio", Lower),
    exact("mem.l2_miss_ratio", "ratio", Lower),
    exact("mem.bus_txns_per_ref", "ratio", Lower),
    exact("mem.invalidations", "count", Lower),
    exact("mem.updates", "count", Lower),
    exact("mem.writebacks", "count", Lower),
    exact("mem.reject_ratio", "ratio", Lower),
    // core
    time("core.lower_us", "us"),
    time("core.machine_new_us", "us"),
    time("core.run_ns_per_cycle.percycle", "ns"),
    time("core.run_ns_per_cycle.poll", "ns"),
    time("core.run_ns_per_cycle.event", "ns"),
    time("core.sched_overhead_ratio", "ratio"),
    exact("core.skipped_cycle_frac", "frac", Higher),
    exact("core.bound_computations_per_kcycle", "ratio", Lower),
    exact("core.ff_auto_disabled", "count", Lower),
    exact("core.model_cycles", "count", Lower),
    time("core.multi4_ns_per_cycle", "ns"),
    // check
    time("check.full_overhead_ratio", "ratio"),
    // trace
    time("trace.metrics_overhead_ratio", "ratio"),
    time("trace.recording_overhead_ratio", "ratio"),
    time("trace.chrome_export_ms", "ms"),
    // workloads
    time("workloads.registry_us", "us"),
    // harness
    time("harness.key_ns", "ns"),
    time("harness.spec_encode_us", "us"),
    time("harness.spec_decode_us", "us"),
    time("harness.outcome_encode_us", "us"),
    time("harness.outcome_decode_us", "us"),
    rate("harness.json_parse_mb_per_s", "MB/s"),
    rate("harness.json_write_mb_per_s", "MB/s"),
    time("harness.disk_store_us", "us"),
    time("harness.disk_load_us", "us"),
    time("harness.hot_get_ns", "ns"),
    time("harness.hot_insert_ns", "ns"),
    exact("harness.hot_hit_ratio", "ratio", Higher),
    time("harness.engine_us_per_job_warm", "us"),
    rate("harness.engine_parallel_eff", "ratio"),
    time("harness.queue_wait_ms_p50", "ms"),
    exact("harness.cache_hit_ratio", "ratio", Higher),
    time("harness.artifact_write_ms", "ms"),
    // serve
    time("serve.frame_encode_us.submit_batch", "us"),
    time("serve.frame_encode_us.submit_refs", "us"),
    time("serve.frame_encode_us.batch_results", "us"),
    time("serve.frame_decode_us.submit_batch", "us"),
    time("serve.frame_decode_us.batch_results", "us"),
    exact("serve.wire_bytes_per_job.up", "B", Lower),
    exact("serve.wire_bytes_per_job.down", "B", Lower),
    time("serve.ping_rtt_us", "us"),
    rate("serve.legacy_submit_jobs_per_s", "1/s"),
    time("serve.proc_worker_us_per_job", "us"),
    time("serve.queue_wait_ms_p50", "ms"),
    exact("serve.refs_hit_ratio", "ratio", Higher),
    exact("serve.busy_rejects", "count", Lower),
    exact("serve.submitted", "count", Lower),
    exact("serve.executed", "count", Lower),
    exact("serve.deduped", "count", Higher),
    exact("serve.cache_hits", "count", Higher),
    time("serve.server_start_ms", "ms"),
    time("serve.drain_ms", "ms"),
    // obs
    time("obs.log_ns_per_line", "ns"),
    time("obs.log_disabled_ns", "ns"),
    time("obs.counter_inc_ns", "ns"),
    time("obs.exposition_us", "us"),
    // bench
    time("bench.fig_wall_ms.table1", "ms"),
    time("bench.fig_wall_ms.fig3", "ms"),
    time("bench.fig_wall_ms.fig6", "ms"),
    time("bench.fig_wall_ms.fig7", "ms"),
    time("bench.fig_wall_ms.fig8", "ms"),
    time("bench.fig_wall_ms.fig9", "ms"),
    time("bench.fig_wall_ms.fig10", "ms"),
    time("bench.fig_wall_ms.fig11", "ms"),
    time("bench.fig_wall_ms.fig12", "ms"),
    time("bench.fig_wall_ms.ablation", "ms"),
    time("bench.fig_wall_ms.scaling", "ms"),
    time("bench.render_ms", "ms"),
    exact("bench.jobs", "count", Lower),
    exact("bench.sim_cycles_total", "count", Lower),
    time("bench.ns_per_cycle_blended", "ns"),
    exact("bench.paper_gap.syncopti_vs_heavywt", "ratio", Lower),
    exact("bench.paper_gap.scq64_vs_heavywt", "ratio", Lower),
    exact("bench.paper_gap.scq64_vs_existing", "ratio", Higher),
    time("bench.span_overhead_frac", "frac"),
    time("bench.unattributed_frac", "frac"),
];

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Renders `BENCHMARK.json` from the tables above (`hfsbench manifest`).
pub fn manifest() -> String {
    use hfs_harness::Json;
    let s = |v: &str| Json::Str(v.to_string());
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj(vec![("name", s(w.name)), ("why", s(w.why))]))
        .collect();
    let row = |m: &MetricDef, bounded: bool| {
        let mut pairs = vec![
            ("name", s(m.name)),
            ("unit", s(m.unit)),
            ("better", s(m.better.as_str())),
        ];
        if bounded {
            pairs.push(("bound", Json::F64(m.bound)));
        }
        Json::obj(pairs)
    };
    Json::obj(vec![
        ("command", Json::Arr(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::U64(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| row(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| row(m, false)).collect()),
        ),
    ])
    .to_pretty()
}

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_harness::Json;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = HashSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = hfs_harness::parse(&text).expect("BENCHMARK.json parses");
        let Json::Obj(pairs) = &doc else {
            panic!("object expected")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let arr = |k: &str| doc.get(k).and_then(Json::as_arr).unwrap().to_vec();
        let s = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = arr("workloads")
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, want);

        let e2e: Vec<(String, String, String, f64)> = arr("end_to_end")
            .iter()
            .map(|m| {
                (
                    s(m, "name"),
                    s(m, "unit"),
                    s(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<(String, String, String)> = arr("per_layer")
            .iter()
            .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(layers, want);
    }
}
