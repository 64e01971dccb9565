//! Recorded simulated counts for every simulator point.
//!
//! `goldens.json` holds the cycle count and per-core committed
//! instructions of the six `trace_smoke` points and of every point the
//! `sim_*` workloads run, as simulated at the commit that added the
//! benchmark. A difference is *model drift*: it is printed with every
//! run, so a simulator-speed change that moves a simulated count cannot
//! pass unnoticed. It is not counted as a failed operation — failures
//! are judged against the per-cycle reference walk of the same commit,
//! which a deliberate model fix keeps satisfying (a later change may not
//! edit the benchmark, so a recorded count that could fail the run would
//! block every such fix).

use std::collections::BTreeMap;

use hfs_core::RunResult;
use hfs_harness::Json;

use crate::inputs::{self, SimPoint};

const GOLDENS: &str = include_str!("../goldens.json");

/// The recorded counts of one point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions per core.
    pub instrs: Vec<u64>,
}

impl Golden {
    fn of(r: &RunResult) -> Golden {
        Golden {
            cycles: r.cycles,
            instrs: r.cores.iter().map(|c| c.total_instrs()).collect(),
        }
    }
}

fn key(p: &SimPoint) -> String {
    format!("{}@{}", p.label(), p.iterations)
}

fn load() -> BTreeMap<String, Golden> {
    let doc = hfs_harness::parse(GOLDENS).expect("goldens.json parses");
    let Some(Json::Obj(points)) = doc.get("points") else {
        panic!("goldens.json has no `points` object");
    };
    points
        .iter()
        .map(|(k, v)| {
            let cycles = v.get("cycles").and_then(Json::as_u64).expect("cycles");
            let instrs = v
                .get("instrs")
                .and_then(Json::as_arr)
                .expect("instrs")
                .iter()
                .map(|i| i.as_u64().expect("instruction count"))
                .collect();
            (k.clone(), Golden { cycles, instrs })
        })
        .collect()
}

/// Describes how `result` differs from the recorded counts of `point`,
/// if it does (or if the point was never recorded).
pub fn drift(point: &SimPoint, result: &RunResult) -> Option<String> {
    let k = key(point);
    let got = Golden::of(result);
    match load().get(&k) {
        Some(want) if *want == got => None,
        Some(want) => Some(format!(
            "model drift on {k}: recorded {} cycles {:?} instrs, simulated {} cycles {:?} instrs",
            want.cycles, want.instrs, got.cycles, got.instrs
        )),
        None => Some(format!("{k} has no recorded golden")),
    }
}

/// Simulates every point and renders `goldens.json` (`hfsbench goldens`).
pub fn record() -> String {
    let mut points = inputs::smoke_points();
    points.extend(inputs::dense_points());
    points.extend(inputs::stream_points());
    let rows = points
        .iter()
        .map(|p| {
            let r = hfs_harness::execute_once(&p.job())
                .unwrap_or_else(|e| panic!("{}: {e}", p.label()));
            let g = Golden::of(&r);
            (
                key(p),
                Json::obj(vec![
                    ("cycles", Json::U64(g.cycles)),
                    (
                        "instrs",
                        Json::Arr(g.instrs.into_iter().map(Json::U64).collect()),
                    ),
                ]),
            )
        })
        .collect();
    Json::obj(vec![("points", Json::Obj(rows))]).to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The six `trace_smoke` goldens, as committed in
    /// `crates/bench/src/bin/trace_smoke.rs`.
    #[test]
    fn smoke_goldens_match_trace_smoke() {
        let want = [5433u64, 4059, 3590, 28349, 14400, 14010];
        let g = load();
        for (p, cycles) in inputs::smoke_points().iter().zip(want) {
            assert_eq!(g[&key(p)].cycles, cycles, "{}", p.label());
        }
    }

    #[test]
    fn every_workload_point_is_recorded_and_reproduces() {
        let g = load();
        for p in inputs::dense_points()
            .iter()
            .chain(&inputs::stream_points())
        {
            assert!(g.contains_key(&key(p)), "{}", p.label());
        }
        // One cheap point end to end: the recorded counts are what the
        // simulator produces today.
        let p = &inputs::smoke_points()[2];
        let r = hfs_harness::execute_once(&p.job()).unwrap();
        assert_eq!(drift(p, &r), None);
    }
}
