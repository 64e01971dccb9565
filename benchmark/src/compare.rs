//! `hfsbench compare A.json B.json`: per workload × end-to-end metric,
//! both medians, their ratio with its base, the bound, and a verdict.

use std::collections::BTreeMap;

use hfs_harness::Json;

use crate::catalog::{self, Better};
use crate::stats::{quantile, quartile_spread};

/// What a pair of measurements shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the pair cannot show a change of that size either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Median of A's runs.
    pub a: f64,
    /// Median of B's runs.
    pub b: f64,
    /// `b / a`.
    pub ratio: f64,
    /// The wider of the two sides' quartile spreads (0 with one run).
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges B's runs against A's for a metric that improves `better`-wards
/// and may worsen by `bound` (a share of A's median).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Row {
    let (ma, mb) = (quantile(a, 0.5), quantile(b, 0.5));
    let spread = quartile_spread(a).max(quartile_spread(b));
    let worse_by = match better {
        Better::Higher => (ma - mb) / ma,
        Better::Lower => (mb - ma) / ma,
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Row {
        a: ma,
        b: mb,
        ratio: mb / ma,
        spread,
        verdict,
    }
}

/// What `compare` needs from one result file.
#[derive(Debug, Default, PartialEq)]
struct ResultSet {
    /// End-to-end values per (workload, metric), one per untraced run.
    e2e: BTreeMap<(String, String), Vec<f64>>,
    /// Exact counts per (workload, seed, metric) from traced runs.
    exact: BTreeMap<(String, u64, String), f64>,
    /// (attempted, failed) summed per workload.
    ops: BTreeMap<String, (u64, u64)>,
}

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = hfs_harness::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no `runs` array"))?;
    let mut set = ResultSet::default();
    for run in runs {
        let field = |k: &str| {
            run.get(k)
                .ok_or_else(|| format!("{path}: run without `{k}`"))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_u64().unwrap_or(0);
        let traced = field("trace")? == &Json::Bool(true);
        let ops = set.ops.entry(workload.clone()).or_default();
        ops.0 += field("attempted")?.as_u64().unwrap_or(0);
        ops.1 += field("failed")?.as_u64().unwrap_or(0);
        for m in field("metrics")?.as_arr().unwrap_or(&[]) {
            let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let Some(value) = m.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let Some(def) = catalog::find(name) else {
                continue;
            };
            if !traced {
                set.e2e
                    .entry((workload.clone(), name.to_string()))
                    .or_default()
                    .push(value);
            } else if def.exact {
                set.exact
                    .insert((workload.clone(), seed, name.to_string()), value);
            }
        }
    }
    Ok(set)
}

/// `compare A.json B.json`: prints every pairing and returns whether
/// none is `worse`, no exact count differs, and both sides failed the
/// same share of operations.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare A.json B.json".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut pass = true;

    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>9} {:>6} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "B/A", "bound", "spread"
    );
    for ((workload, metric), av) in &a.e2e {
        let Some(bv) = b.e2e.get(&(workload.clone(), metric.clone())) else {
            println!("{workload:<20} {metric:<18} missing from {b_path}");
            pass = false;
            continue;
        };
        let def = catalog::find(metric).expect("loaded through the catalog");
        let row = judge(av, bv, def.better, def.bound);
        println!(
            "{workload:<20} {metric:<18} {:>14.4} {:>14.4} {:>8.4}x {:>5.0}% {:>6.1}%  {} (base A, n={}/{})",
            row.a,
            row.b,
            row.ratio,
            def.bound * 100.0,
            row.spread * 100.0,
            row.verdict.as_str(),
            av.len(),
            bv.len(),
        );
        pass &= row.verdict != Verdict::Worse;
    }

    let mut differing = 0usize;
    let mut compared = 0usize;
    for (key, av) in &a.exact {
        if let Some(bv) = b.exact.get(key) {
            compared += 1;
            if av != bv {
                differing += 1;
                println!(
                    "exact count differs: {} seed {} {}: A={av} B={bv}",
                    key.0, key.1, key.2
                );
            }
        }
    }
    println!("exact counts: {compared} compared, {differing} differ");
    pass &= differing == 0;

    for (workload, (att_a, fail_a)) in &a.ops {
        let (att_b, fail_b) = b.ops.get(workload).copied().unwrap_or((0, 0));
        let frac = |f: u64, n: u64| if n == 0 { 1.0 } else { f as f64 / n as f64 };
        let (fa, fb) = (frac(*fail_a, *att_a), frac(fail_b, att_b));
        let same = fa == fb;
        println!(
            "{workload:<20} fail_frac          A={fa} B={fb}  {}",
            if same { "ok" } else { "differs" }
        );
        pass &= same;
    }
    println!(
        "{}",
        if pass {
            "compare: pass"
        } else {
            "compare: FAIL"
        }
    );
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_the_bound_is_ok_in_either_direction() {
        let r = judge(&[100.0], &[95.0], Better::Higher, 0.10);
        assert_eq!(r.verdict, Verdict::Ok);
        assert!((r.ratio - 0.95).abs() < 1e-12);
        assert_eq!(
            judge(&[2.0], &[2.1], Better::Lower, 0.10).verdict,
            Verdict::Ok
        );
        // An improvement of any size is ok.
        assert_eq!(
            judge(&[100.0], &[300.0], Better::Higher, 0.10).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&[2.0], &[0.5], Better::Lower, 0.10).verdict,
            Verdict::Ok
        );
    }

    #[test]
    fn beyond_the_bound_is_worse_by_direction() {
        assert_eq!(
            judge(&[100.0], &[85.0], Better::Higher, 0.10).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&[2.0], &[2.5], Better::Lower, 0.10).verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 70.0, 100.0];
        let steady = [100.0; 8];
        let r = judge(&noisy, &steady, Better::Higher, 0.10);
        assert!(r.spread > 0.10);
        assert_eq!(r.verdict, Verdict::Unresolved);
        // Even a clear loss is only "unresolved" under that spread.
        let r = judge(&noisy, &[50.0; 8], Better::Higher, 0.10);
        assert_eq!(r.verdict, Verdict::Unresolved);
        // A tight pair of sets resolves.
        let tight = [99.0, 100.0, 101.0, 100.0, 100.5, 99.5, 100.0, 100.0];
        assert_eq!(
            judge(&tight, &steady, Better::Higher, 0.10).verdict,
            Verdict::Ok
        );
    }
}
