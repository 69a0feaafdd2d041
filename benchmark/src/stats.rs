//! Order statistics over integer samples (nanoseconds, counts) and the
//! per-repetition median the reported metrics are built from.

/// Nearest-rank percentile `num/den` of an ascending slice: the smallest
/// sample with at least that share of the samples at or below it. Integer
/// arithmetic only, so equal inputs give equal outputs on every machine.
///
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], num: u64, den: u64) -> u64 {
    debug_assert!(num <= den && den > 0);
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    // ceil(n * num / den), at least rank 1.
    let rank = (n * num).div_ceil(den).max(1);
    sorted[(rank - 1) as usize]
}

/// Sorts `samples` in place and returns its `(p50, p90, p99, max)`.
pub fn summary(samples: &mut [u64]) -> (u64, u64, u64, u64) {
    samples.sort_unstable();
    (
        percentile(samples, 50, 100),
        percentile(samples, 90, 100),
        percentile(samples, 99, 100),
        samples.last().copied().unwrap_or(0),
    )
}

/// Median of the per-repetition values of one metric (mean of the two
/// middle values for an even count). 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&s, 50, 100), 5);
        assert_eq!(percentile(&s, 90, 100), 9);
        assert_eq!(percentile(&s, 99, 100), 10);
        assert_eq!(percentile(&s, 100, 100), 10);
        assert_eq!(percentile(&s, 0, 100), 1);
        assert_eq!(percentile(&s, 1, 100), 1);
    }

    #[test]
    fn single_sample_and_empty() {
        assert_eq!(percentile(&[7], 50, 100), 7);
        assert_eq!(percentile(&[7], 99, 100), 7);
        assert_eq!(percentile(&[], 50, 100), 0);
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let s = [3, 3, 4, 8, 100, 1000, 1001];
        let mut last = 0;
        for p in 0..=100 {
            let v = percentile(&s, p, 100);
            assert!(v >= last);
            last = v;
        }
        assert_eq!(last, 1001);
    }

    #[test]
    fn summary_sorts_first() {
        let mut s = vec![9, 1, 5, 3, 7];
        assert_eq!(summary(&mut s), (5, 9, 9, 9));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
