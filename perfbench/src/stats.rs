//! Order statistics over timing samples.

/// Nearest-rank percentile (`q` in `[0, 1]`) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median (mean of the two middle samples for an even count); 0 when empty.
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
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles by the exclusive method (Python's
/// `statistics.quantiles(values, n=4)`), so recorded spreads match the
/// ones computed over whole runs. With fewer than two samples both
/// quartiles are that sample (or 0).
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n < 2 {
        let v = samples.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Python: j = i·(n+1) // 4 clamped to [1, n−1], delta = i·(n+1) − 4j
    // (not clamped, so the ends extrapolate), value interpolated over 4.
    let at = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - 4.0 * j as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Operations per second over one group of per-operation wall times
/// (ms); `None` for an empty group.
pub fn per_second(ms: &[f64]) -> Option<f64> {
    let total: f64 = ms.iter().sum();
    (!ms.is_empty() && total > 0.0).then(|| ms.len() as f64 * 1e3 / total)
}

/// Operations per second over all of `ms`: their count over their summed
/// wall time; 0 when empty.
pub fn rate(ms: &[f64]) -> f64 {
    per_second(ms).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }
}
