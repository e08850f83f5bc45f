//! Exact order statistics over raw samples.
//!
//! Percentiles use the nearest-rank definition on the whole sample, never
//! a histogram: the program's own log-linear histogram steps about 4 % per
//! bucket, which is wider than the changes this benchmark must resolve.

/// 1-based nearest rank of the `pct`-th percentile in a sample of `n`:
/// the smallest rank `r` with `100 · r ≥ pct · n`.
pub fn rank(n: usize, pct: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((1..=100).contains(&pct), "percentile {pct} outside 1..=100");
    (pct * n).div_ceil(100)
}

/// Number of samples that lie beyond the `pct`-th percentile of `n`.
pub fn beyond(n: usize, pct: usize) -> usize {
    n - rank(n, pct)
}

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer make it an estimate of the maximum.
pub const MIN_BEYOND: usize = 10;

/// Whether a sample of `n` supports the `pct`-th percentile.
pub fn supported(n: usize, pct: usize) -> bool {
    beyond(n, pct) >= MIN_BEYOND
}

/// The `pct`-th percentile of an ascending sample.
pub fn percentile<T: Copy>(sorted: &[T], pct: usize) -> T {
    sorted[rank(sorted.len(), pct) - 1]
}

/// Sorts a sample ascending (total order on floats: NaN sorts last).
pub fn sorted_f64(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of an unsorted sample of per-list or per-op figures: the
/// middle value, or the mean of the two middle values of an even count, so
/// that with two ops both count.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted_f64(values.to_vec());
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if !n.is_multiple_of(2) {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Independent definition: the smallest sample value `x` such that at
    /// least `pct` percent of the sample is `<= x`.
    fn oracle(values: &[u64], pct: usize) -> u64 {
        let n = values.len();
        let mut candidates = values.to_vec();
        candidates.sort_unstable();
        candidates.dedup();
        candidates
            .into_iter()
            .find(|&x| 100 * values.iter().filter(|&&v| v <= x).count() >= pct * n)
            .expect("the maximum always qualifies")
    }

    #[test]
    fn percentiles_match_a_sorted_vector_oracle() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for n in [1, 2, 3, 7, 10, 99, 100, 101, 999, 1000, 1001, 4096] {
            let values: Vec<u64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (state >> 33) % 500 // many ties on purpose
                })
                .collect();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for pct in [1, 25, 50, 75, 90, 99, 100] {
                assert_eq!(
                    percentile(&sorted, pct),
                    oracle(&values, pct),
                    "n={n} p{pct}"
                );
            }
        }
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(beyond(1000, 99), 10);
        assert!(supported(1000, 99));
        assert_eq!(beyond(999, 99), 9);
        assert!(!supported(999, 99));
        assert!(supported(20, 50));
        assert!(!supported(19, 50));
        // The rule holds for every size from 1000 up.
        assert!((1000..5000).all(|n| supported(n, 99)));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
