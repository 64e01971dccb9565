//! Order statistics over timing samples.
//!
//! Interference on a shared host only ever adds time, so every timing
//! headline is taken from the low end of the reps ([`HEADLINE_Q`]); the
//! median, the 90th percentile and the sample count are reported beside
//! it.

/// The quantile of the rep times every timing headline is computed from:
/// the fastest sample of each timed part.
///
/// On the authoring host interference comes in episodes of seconds to
/// tens of seconds that slow everything by 5% to 80%, with quiet stretches
/// between them; a twenty-second run nearly always holds a quiet stretch,
/// and only the fastest samples come from it. Over twelve consecutive
/// twenty-second `sim_stream` runs (70 reps each) the quartile spread of
/// the headline was 1.3% taken from the minimum, 2.4% from the 2nd
/// percentile, 3.7% from the 10th and 3.3% from the median; on
/// `sweep_cold` (20 reps) 4.1%, 4.1%, 4.3% and 4.8%. A sample cannot read
/// faster than the work took, so the minimum has no outliers to fear; the
/// only bias is that a run fitting in more reps draws it from more
/// samples, which at these counts moves it by a fraction of a percent.
pub const HEADLINE_Q: f64 = 0.0;

/// The `q`-quantile (`0.0..=1.0`) of `samples`, linearly interpolated
/// between the two nearest order statistics (position `q * (n - 1)`).
///
/// # Panics
///
/// Panics on an empty slice or a non-finite sample: a benchmark with no
/// samples has nothing to report.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Run-to-run spread as the driver measures it: the distance between the
/// first and third quartiles as a share of the median, with the quartiles
/// Python's `statistics.quantiles(values, n=4)` gives (the "exclusive"
/// method). Fewer than two runs have no spread (0).
pub fn quartile_spread(runs: &[f64]) -> f64 {
    if runs.len() < 2 {
        return 0.0;
    }
    let mut v = runs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("run values are finite"));
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(3) - cut(1)) / cut(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert!((quartile_spread(&[12.0, 10.0]) - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        // position 0.25 * 3 = 0.75 -> between 1.0 and 2.0
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_panics() {
        quantile(&[], 0.5);
    }
}
