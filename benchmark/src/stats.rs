//! Order statistics for timing samples: the median, nearest-rank
//! percentiles, the tail-percentile rule, and the quartile spread the
//! benchmark's steadiness is judged by.

/// Sorts ascending; timing samples are never NaN.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// Median of unsorted samples (mean of the two middle values for an
/// even count). `NaN` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest rank (1-based) of the `p`-th percentile among `n` samples,
/// in whole numbers: `p` is taken to the hundredth of a percent, so
/// `p·n/100` never lands a rounding error above an exact rank.
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000).clamp(1, n)
}

/// Nearest-rank percentile of **sorted** samples, `p` in (0, 100].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The percentiles the tail rule chooses among.
const TAIL_LADDER: [f64; 6] = [75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// A reported tail: the percentile, its value, and how many samples lie
/// beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
}

/// The tail-percentile rule: with more than 100 samples, the highest
/// ladder percentile that still has at least ten samples beyond it.
/// Fewer samples support no tail claim and yield `None`.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    if sorted.len() <= 100 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&p| (p, rank(sorted.len(), p)))
        .find(|&(_, rank)| sorted.len() - rank >= 10)
        .map(|(p, rank)| Tail {
            percentile: p,
            value: sorted[rank - 1],
            beyond: sorted.len() - rank,
        })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the rule the benchmark's
/// run-to-run spread is judged by. Needs at least two values.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(v.len() >= 2, "quartiles need at least two values");
    let s = sorted(v.to_vec());
    let n = s.len();
    let at = |q: usize| {
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median; `None` with
/// fewer than two values or a zero median.
pub fn spread(v: &[f64]) -> Option<f64> {
    if v.len() < 2 {
        return None;
    }
    let (q1, q3) = quartiles(v);
    let m = median(v);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 1.0);
    }

    #[test]
    fn tail_needs_more_than_100_samples() {
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&s), None);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 101 samples: p90 leaves 10 beyond (rank 91), p95 only 5.
        let s: Vec<f64> = (0..101).map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!((t.percentile, t.beyond), (90.0, 10));
        assert_eq!(t.value, 90.0);
        // 1000 samples: p99 leaves exactly 10; p99.9 leaves 1.
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.0, 10));
        // 3600 samples (phase A at 300 req/s for 12 s): p99 leaves 36,
        // p99.9 leaves 3.
        let s: Vec<f64> = (0..3600).map(f64::from).collect();
        assert_eq!(tail(&s).unwrap().percentile, 99.0);
        // 10_000 samples: p99.9 leaves exactly 10.
        let s: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail(&s).unwrap().percentile, 99.9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        let (q1, q3) = quartiles(&[5.0, 1.0, 3.0]);
        assert_eq!((q1, q3), (1.0, 5.0));
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[1.0]), None);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
