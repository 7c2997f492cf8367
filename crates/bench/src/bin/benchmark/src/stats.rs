//! Order statistics over timing samples.

/// Sorts samples ascending. Timings are finite by construction.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    samples
}

/// Nearest-rank percentile of ascending `sorted` samples, `p` in `[0, 1]`;
/// 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps a product such as `0.999 * 10_000` from rounding one up.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Median; the mean of the two middle values for an even count.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten
/// samples beyond it, with its label; falls back to the median when even
/// p90 does not (fewer than 100 samples).
pub fn tail(sorted: &[f64]) -> (&'static str, f64) {
    for (label, p) in [
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p95", 0.95),
        ("p90", 0.90),
    ] {
        if sorted.len() >= rank(p, sorted.len()) + 10 {
            return (label, percentile(sorted, p));
        }
    }
    ("p50", percentile(sorted, 0.5))
}

/// First and third quartile by the exclusive method — the same values
/// Python's `statistics.quantiles(values, n=4)` returns, which is what the
/// driver computes the spread from.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values.to_vec());
    let n = v.len();
    let at = |k: usize| {
        // Position k/4 of n+1, clamped to the sample range.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j.min(n - 1)] - v[j - 1])
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        assert_eq!(tail(&ramp(1000)), ("p99", 990.0));
        // One sample fewer and p99 (rank 990 of 999) keeps only 9 beyond.
        assert_eq!(tail(&ramp(999)).0, "p95");
        assert_eq!(tail(&ramp(10_000)), ("p99.9", 9990.0));
        assert_eq!(tail(&ramp(100)), ("p90", 90.0));
        assert_eq!(tail(&ramp(99)).0, "p50");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }
}
