//! Order statistics for the report: medians and the tail-percentile rule.

/// Number of samples that must lie strictly beyond a reported tail.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail of a sample: the highest percentile that still has
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile `value` is (nearest rank: `100 · rank / n`).
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Sample count.
    pub samples: usize,
}

/// Picks the tail of `samples`: with `n` samples sorted ascending, the
/// sample of rank `n − 10` (1-based) is the highest one with ten samples
/// beyond it, and it is the `100 · (n − 10) / n`-th percentile. `None`
/// when there are too few samples for any rank to have ten beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail { percentile: 100.0 * rank as f64 / n as f64, value: sorted[rank - 1], samples: n })
}

/// `numerator / denominator`, or 0 when the denominator is 0 (a layer the
/// workload never reaches reports 0, never NaN).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=48).rev().map(f64::from).collect();
        let t = tail(&samples).expect("48 samples have a tail");
        assert_eq!(t.value, 38.0);
        assert_eq!(samples.iter().filter(|&&s| s > t.value).count(), TAIL_BEYOND);
        assert!((t.percentile - 100.0 * 38.0 / 48.0).abs() < 1e-12);
    }

    #[test]
    fn tail_rises_with_sample_count() {
        let small: Vec<f64> = (0..20).map(f64::from).collect();
        let large: Vec<f64> = (0..1000).map(f64::from).collect();
        let (s, l) = (tail(&small).unwrap(), tail(&large).unwrap());
        assert_eq!(s.percentile, 50.0);
        assert_eq!(l.percentile, 99.0);
        assert_eq!(l.value, 989.0);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert!(tail(&[1.0; 10]).is_none());
        let t = tail(&[1.0; 11]).expect("11 samples suffice");
        assert_eq!((t.samples, t.value), (11, 1.0));
    }

    #[test]
    fn ratio_of_an_unreached_layer_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
