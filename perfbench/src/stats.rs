//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it. Every
/// reported percentile is therefore a value that was actually measured.
/// An empty slice yields `0.0`.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// The median: the mean of the two middle samples for an even count.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The geometric mean of positive samples (`0.0` when empty; zeros are
/// floored at the smallest positive double so an exact answer counts).
#[must_use]
pub fn geometric_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let logs: f64 = samples.iter().map(|&x| x.max(f64::MIN_POSITIVE).ln()).sum();
    (logs / samples.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // order of the input does not matter
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.99), 99.0);
    }

    #[test]
    fn percentile_of_small_samples_picks_a_measured_value() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.99), 3.0);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // ten samples: p99 is the largest, p90 the ninth
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.90), 9.0);
    }

    #[test]
    fn geometric_mean_of_known_inputs() {
        assert!((geometric_mean(&[1e-4, 1e-6]) - 1e-5).abs() < 1e-18);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
