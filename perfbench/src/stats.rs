//! Order statistics used by every report: medians, quartiles computed
//! exactly like Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), nearest-rank latency percentiles, and the tail
//! rule "the highest percentile with at least ten samples beyond it".

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, highest first. The median is
/// the floor: below forty samples no tail is resolvable.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); NaN when
/// `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does by default. A single value
/// is its own quartiles; NaN when `values` is empty.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => return (f64::NAN, f64::NAN),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the spread figure
/// bounds are set against.
#[must_use]
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Nearest-rank percentile: the smallest sample with at least `p` % of
/// the samples at or below it. NaN when `values` is empty.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The percentile a tail can be reported at with `n` samples: `wanted`
/// when at least [`TAIL_MIN_BEYOND`] samples lie beyond it, otherwise
/// the highest rung of [`TAIL_LADDER`] below `wanted` that has them,
/// and the median when none does.
#[must_use]
pub fn tail_percentile(n: usize, wanted: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= wanted)
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Largest over smallest value (1 for a single value).
#[must_use]
pub fn max_min_ratio(values: &[f64]) -> f64 {
    let v = sorted(values);
    match (v.first(), v.last()) {
        (Some(lo), Some(hi)) => hi / lo,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 8.0, 4.0, 2.0, 1.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn relative_iqr_is_scale_free() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let w: Vec<f64> = v.iter().map(|x| x * 1000.0).collect();
        assert!((relative_iqr(&v) - relative_iqr(&w)).abs() < 1e-12);
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 99.0), 1);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(1000, 99.0), 99.0);
        // 999 samples: p99 leaves 9, so the rule falls back to p95.
        assert_eq!(tail_percentile(999, 99.0), 95.0);
        // 100 samples: p90 is the highest rung with 10 beyond.
        assert_eq!(tail_percentile(100, 99.0), 90.0);
        assert_eq!(tail_percentile(100, 90.0), 90.0);
        // 40 samples: p75 leaves 10.
        assert_eq!(tail_percentile(40, 99.0), 75.0);
        // Fewer than forty samples: no tail, the median is reported.
        assert_eq!(tail_percentile(39, 99.0), 50.0);
        assert_eq!(tail_percentile(8, 75.0), 50.0);
        // Never above the percentile asked for.
        assert_eq!(tail_percentile(100_000, 90.0), 90.0);
    }

    #[test]
    fn max_min_ratio_of_samples() {
        assert_eq!(max_min_ratio(&[2.0, 4.0, 3.0]), 2.0);
        assert_eq!(max_min_ratio(&[5.0]), 1.0);
    }
}
