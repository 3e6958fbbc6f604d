//! The one percentile definition the benchmark uses: the runtime's exact
//! nearest-rank quantile over raw samples. Histogram quantiles snap to
//! bucket bounds and can exceed the maximum, so nothing here reads them.

/// The nearest-rank `q`-quantile of raw samples (0 for an empty set: a
/// layer the workload never exercised).
pub use stencil_runtime::metrics::exact_quantile_ms as percentile;

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_small_sets() {
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 0.05), 15.0);
        assert_eq!(percentile(&s, 0.30), 20.0);
        assert_eq!(percentile(&s, 0.40), 20.0);
        assert_eq!(percentile(&s, 0.50), 35.0);
        assert_eq!(percentile(&s, 1.00), 50.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // The order of the input does not matter.
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 0.75), 3.0);
    }

    #[test]
    fn p99_rank_leaves_ten_samples_beyond_it_in_a_thousand() {
        let s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p99 = percentile(&s, 0.99);
        assert_eq!(p99, 990.0);
        assert_eq!(s.iter().filter(|&&v| v > p99).count(), 10);
    }

    #[test]
    fn quantiles_are_ordered_samples_bounded_by_the_max() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for n in 1..200 {
            let s: Vec<f64> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 10_000) as f64 / 7.0
                })
                .collect();
            let max = s.iter().cloned().fold(f64::MIN, f64::max);
            let (p50, p99) = (percentile(&s, 0.5), percentile(&s, 0.99));
            assert!(p50 <= p99 && p99 <= max, "n={n}: {p50} {p99} {max}");
            assert!(s.contains(&p50) && s.contains(&p99), "values are samples");
        }
    }
}
