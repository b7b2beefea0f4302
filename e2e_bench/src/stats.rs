//! Order statistics for the benchmark's timings.
//!
//! Percentiles are nearest-rank over the sorted samples. A percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! p90 needs at least 100 samples. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
//! spreads printed by compare mode match the ones a Python script computes
//! from the same result files.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Samples lying strictly beyond the nearest-rank percentile `per_mille`
/// (900 is p90) of `n` samples.
pub fn samples_beyond(n: usize, per_mille: usize) -> usize {
    n - rank(n, per_mille)
}

/// True when `n` samples support the percentile `per_mille`.
pub fn reportable(n: usize, per_mille: usize) -> bool {
    n > 0 && samples_beyond(n, per_mille) >= MIN_BEYOND
}

/// The highest of p50, p90, p99 and p99.9 that `n` samples support, in
/// per-mille, or `None` when even the median has too few samples beyond it.
pub fn highest_reportable(n: usize) -> Option<usize> {
    [999, 990, 900, 500]
        .into_iter()
        .find(|&per_mille| reportable(n, per_mille))
}

/// One-based nearest rank of `per_mille` in `n` samples, computed in
/// integers so that p90 of 100 samples is exactly rank 90.
fn rank(n: usize, per_mille: usize) -> usize {
    assert!(per_mille <= 1000, "percentile above 100%");
    (per_mille * n).div_ceil(1000).max(1).min(n)
}

/// Nearest-rank percentile of samples already sorted ascending.
pub fn percentile(sorted: &[f64], per_mille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// The samples sorted ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them. One sample yields that
/// sample three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let s = sorted(values);
    if s.len() == 1 {
        return (s[0], s[0], s[0]);
    }
    let n = s.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_of_even_count_is_the_middle_mean() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
