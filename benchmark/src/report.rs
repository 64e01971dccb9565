//! What one run reports: metrics by name and unit, the operation tally,
//! and the JSON forms (the driver's result line and the result files
//! `compare` reads).

use hfs_harness::Json;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from the catalog (or a `<metric>.p50`-style companion).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Timing samples (or operations) behind the value.
    pub n: u64,
}

impl Metric {
    /// A metric with its sample count.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: u64) -> Metric {
        Metric {
            name: name.into(),
            // JSON has no NaN or infinity; a degenerate ratio reads as 0.
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            n,
        }
    }
}

/// Operations attempted and failed. An operation is one job (one figure
/// file in `figures_cold`); it fails if it errors, is refused, or its
/// output fails the correctness check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Folds another tally in.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Everything one `--workload` run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Operation tally.
    pub tally: Tally,
    /// The catalog metrics: end-to-end when untraced, per-layer when
    /// traced.
    pub metrics: Vec<Metric>,
    /// Companions printed beside them (`.p50`, `.p90`, `.n`, drift
    /// notes as counts); never compared.
    pub extras: Vec<Metric>,
    /// Free-form remarks (removed environment variables, golden drift).
    pub notes: Vec<String>,
}

impl Report {
    /// `failed / attempted`.
    pub fn fail_frac(&self) -> f64 {
        if self.tally.attempted == 0 {
            1.0
        } else {
            self.tally.failed as f64 / self.tally.attempted as f64
        }
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::F64(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            (
                "correct",
                Json::Bool(self.tally.failed == 0 && self.tally.attempted > 0),
            ),
            ("attempted", Json::U64(self.tally.attempted)),
            ("failed", Json::U64(self.tally.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// The full report, as stored in result files.
    pub fn to_json(&self) -> Json {
        fn rows(ms: &[Metric]) -> Json {
            Json::Arr(
                ms.iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::Str(m.name.clone())),
                            ("value", Json::F64(m.value)),
                            ("unit", Json::Str(m.unit.to_string())),
                            ("n", Json::U64(m.n)),
                        ])
                    })
                    .collect(),
            )
        }
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::U64(self.seed)),
            ("seconds", Json::F64(self.seconds)),
            ("trace", Json::Bool(self.trace)),
            ("attempted", Json::U64(self.tally.attempted)),
            ("failed", Json::U64(self.tally.failed)),
            ("fail_frac", Json::F64(self.fail_frac())),
            ("metrics", rows(&self.metrics)),
            ("extras", rows(&self.extras)),
            (
                "notes",
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    /// Prints every metric by name, value, unit and sample count.
    pub fn print(&self) {
        println!(
            "== {} seed={} seconds={} trace={} ==",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace)
        );
        for m in self.metrics.iter().chain(&self.extras) {
            println!("{:<44} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.n);
        }
        println!(
            "{:<44} {:>16.6} {:<6} n={} ({} failed)",
            "fail_frac",
            self.fail_frac(),
            "frac",
            self.tally.attempted,
            self.tally.failed
        );
        for n in &self.notes {
            println!("note: {n}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        Report {
            workload: "w".into(),
            seed: 1,
            seconds: 2.0,
            trace: false,
            tally: Tally {
                attempted: 10,
                failed: 0,
            },
            metrics: vec![Metric::new("setup_s", 0.5, "s", 3)],
            extras: vec![Metric::new("jobs_per_s.p50", f64::NAN, "1/s", 4)],
            notes: vec![],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let doc = hfs_harness::parse(&report().result_line()).unwrap();
        let Json::Obj(pairs) = &doc else {
            panic!("object expected")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.5));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn failures_and_empty_runs_are_not_correct() {
        let mut r = report();
        r.tally.failed = 1;
        assert!(r.result_line().contains("\"correct\":false"));
        r.tally = Tally::default();
        assert!(r.result_line().contains("\"correct\":false"));
        assert_eq!(r.fail_frac(), 1.0);
    }

    #[test]
    fn non_finite_values_read_as_zero() {
        assert_eq!(report().extras[0].value, 0.0);
    }
}
