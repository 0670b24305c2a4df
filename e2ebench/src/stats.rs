//! Order statistics over raw samples.

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. `p` in (0, 100]; an empty set gives 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and returns its `p`-th percentile.
pub fn percentile_of(samples: &mut [u64], p: f64) -> u64 {
    samples.sort_unstable();
    percentile(samples, p)
}

/// Median of floats (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_one_to_hundred() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.5), 1);
    }

    #[test]
    fn unsorted_input_and_ties() {
        let mut v = vec![5, 1, 4, 2, 3];
        assert_eq!(percentile_of(&mut v, 50.0), 3);
        let mut ties = vec![7; 1000];
        ties[999] = 1_000_000;
        assert_eq!(percentile_of(&mut ties, 99.0), 7);
        assert_eq!(percentile_of(&mut ties, 99.95), 1_000_000);
    }

    #[test]
    fn two_point_distribution_tail() {
        // 98% fast, 2% slow: p98 is fast, p99 is slow.
        let mut v: Vec<u64> = (0..10_000)
            .map(|i| if i % 50 == 0 { 900 } else { 100 })
            .collect();
        assert_eq!(percentile_of(&mut v, 50.0), 100);
        assert_eq!(percentile_of(&mut v, 98.0), 100);
        assert_eq!(percentile_of(&mut v, 99.0), 900);
    }

    #[test]
    fn exponential_median_matches_ln2() {
        // Inverse-CDF samples of Exp(mean 1000): the median is 1000·ln 2.
        let n = 100_001;
        let mut v: Vec<u64> = (1..=n)
            .map(|i| (-(1.0 - i as f64 / (n + 1) as f64).ln() * 1000.0).round() as u64)
            .collect();
        let p50 = percentile_of(&mut v, 50.0) as f64;
        assert!(
            (p50 - 1000.0 * std::f64::consts::LN_2).abs() <= 1.0,
            "{p50}"
        );
        let p99 = percentile_of(&mut v, 99.0) as f64;
        assert!((p99 - 1000.0 * 100f64.ln()).abs() <= 2.0, "{p99}");
    }

    #[test]
    fn empty_and_median() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
