//! Plumbing for the wall-clock perf benchmark `simbench` (and the
//! iso-8601 clock `benchmark/` stamps its reports with).
//!
//! `simbench` commits `BENCH_simloop.json` at the repo root recording
//! its measurements, re-runs in `--quick` mode against `target/`, and
//! gates CI with `--check` against the committed baseline: the
//! timestamp override, the clock, the regression floor, and the
//! committed-artifact loader live here.

use hfs_harness::Json;

/// Environment variable letting the CI driver pin the artifact's
/// `host.timestamp` (any string, conventionally iso-8601); unset, the
/// wall clock is used.
pub const ENV_BENCH_TIMESTAMP: &str = "HFS_BENCH_TIMESTAMP";

/// Throughput floor relative to the committed baseline: below
/// `cur >= CHECK_FLOOR * old`, a point counts as a regression under
/// `--check`.
pub const CHECK_FLOOR: f64 = 0.9;

/// An iso-8601 UTC timestamp (`YYYY-MM-DDThh:mm:ssZ`) hand-rolled from
/// `SystemTime` (std-only; no chrono). Uses Howard Hinnant's
/// civil-from-days algorithm for the date part.
pub fn iso8601_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (hh, mm, ss) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}Z")
}

/// The artifact timestamp: [`ENV_BENCH_TIMESTAMP`] when set (so CI
/// drivers can pin it), else [`iso8601_now`].
pub fn bench_timestamp() -> String {
    std::env::var(ENV_BENCH_TIMESTAMP)
        .ok()
        .filter(|v| !v.is_empty())
        .unwrap_or_else(iso8601_now)
}

/// Rounds to two decimal places for artifact-friendly ratios.
pub fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Loads a committed benchmark artifact's `points` array, if present
/// and valid.
pub fn load_committed_points(committed_path: &str) -> Option<Vec<Json>> {
    let text = std::fs::read_to_string(committed_path).ok()?;
    let doc = hfs_harness::parse(&text).ok()?;
    Some(doc.get("points").and_then(Json::as_arr)?.to_vec())
}

/// Writes a benchmark artifact, creating the parent directory and
/// round-tripping the text through the harness parser as a self-check.
///
/// # Panics
///
/// Panics when the artifact is not well-formed JSON or cannot be
/// written — a benchmark that cannot record its results has failed.
pub fn write_artifact(out_path: &str, doc: &Json) {
    let text = doc.to_pretty();
    hfs_harness::parse(&text).expect("benchmark artifact is well-formed JSON");
    if let Some(parent) = std::path::Path::new(out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(out_path, &text).expect("write benchmark artifact");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_are_iso8601_shaped() {
        let t = iso8601_now();
        assert_eq!(t.len(), 20, "{t}");
        assert_eq!(&t[4..5], "-");
        assert_eq!(&t[10..11], "T");
        assert!(t.ends_with('Z'));
    }

    #[test]
    fn round2_keeps_two_decimals() {
        assert_eq!(round2(4.75159), 4.75);
        assert_eq!(round2(1.339), 1.34);
        assert_eq!(round2(2.0), 2.0);
    }

    #[test]
    fn missing_committed_artifact_is_none() {
        assert!(load_committed_points("target/definitely-not-here.json").is_none());
    }
}
