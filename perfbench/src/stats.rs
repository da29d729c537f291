//! Summary statistics: nearest-rank percentiles, the reportable-tail rule
//! and the geometric mean.

/// Candidate tail percentiles in per mille, highest first.
const TAILS: [usize; 3] = [999, 990, 900];

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile of [`TAILS`] with at least [`TAIL_SAMPLES`]
/// samples beyond it, for `n` samples; `None` when even p90 lacks them.
pub fn reportable_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .find(|&&per_mille| n - (per_mille * n).div_ceil(1000) >= TAIL_SAMPLES)
        .map(|&per_mille| per_mille as f64 / 10.0)
}

/// Nearest-rank percentile `p` (0–100, in steps of 0.1) of an ascending
/// slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // Integer arithmetic in per mille, so that p90 of 100 samples is
    // exactly rank 90 whatever the rounding of `p / 100`.
    let rank = ((p * 10.0).round() as usize * sorted.len()).div_ceil(1000);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample vector ascending (the samples are finite timings).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Geometric mean of positive ratios (1.0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(reportable_tail(99), None);
        assert_eq!(reportable_tail(100), Some(90.0));
        assert_eq!(reportable_tail(999), Some(90.0));
        assert_eq!(reportable_tail(1000), Some(99.0));
        assert_eq!(reportable_tail(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[0.7]) - 0.7).abs() < 1e-15);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
