//! Order statistics for timings: a median, and the highest percentile
//! that still has at least ten samples beyond it.

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_TAIL_SAMPLES: f64 = 10.0;

/// The tail percentiles tried, highest first.
const TAIL_LADDER: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

/// The `p`-th percentile (0–100) of an ascending slice, linearly
/// interpolated between neighbouring ranks. `None` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = (p / 100.0).clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// `true` when `n` samples leave at least ten beyond percentile `p`
/// (with a rounding allowance: `100.0 - 99.9` is not exactly `0.1`).
pub fn tail_supported(n: usize, p: f64) -> bool {
    n as f64 * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES - 1e-6
}

/// The highest ladder percentile `n` samples support, if any.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| tail_supported(n, p))
}

/// A timing distribution reduced to what the benchmark prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count, printed beside every timing.
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)` of the highest supported tail percentile.
    pub tail: Option<(f64, f64)>,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n={} p50={:.3}", self.n, self.p50)?;
        match self.tail {
            Some((p, value)) => write!(f, " p{p}={value:.3}"),
            None => write!(f, " (too few samples for a tail percentile)"),
        }
    }
}

/// Sorts `samples` and summarises them. `None` for no samples.
pub fn summarize(samples: &mut [f64]) -> Option<Summary> {
    samples.sort_by(f64::total_cmp);
    let p50 = percentile_sorted(samples, 50.0)?;
    let tail = highest_tail(samples.len())
        .and_then(|p| percentile_sorted(samples, p).map(|value| (p, value)));
    Some(Summary {
        n: samples.len(),
        p50,
        tail,
    })
}

/// Percentile `p` of `samples` when they support it (ten samples
/// beyond), else `None`; sorts in place.
pub fn supported_percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if !tail_supported(samples.len(), p) {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    percentile_sorted(samples, p)
}

/// Median of the values; 0 when there are none.
pub fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = values.into_iter().collect();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, 50.0).unwrap_or(0.0)
}

/// First quartile, median and third quartile by the exclusive method
/// (what Python's `statistics.quantiles(values, n=4)` returns), so
/// `check` judges spreads exactly as the PR driver does. `None` below
/// two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Python clamps the rank, not the weight, so the outer cuts of a
    // very short list extrapolate; keep that.
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let idx = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (idx * 4) as f64;
        (sorted[idx - 1] * (4.0 - delta) + sorted[idx] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&xs, 0.0), Some(10.0));
        assert_eq!(percentile_sorted(&xs, 50.0), Some(25.0));
        assert_eq!(percentile_sorted(&xs, 100.0), Some(40.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
        assert_eq!(percentile_sorted(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!tail_supported(999, 99.0));
        assert!(tail_supported(1000, 99.0));
        assert!(tail_supported(10_000, 99.9));
        assert!(!tail_supported(9_999, 99.9));
        assert_eq!(highest_tail(99), None);
        assert_eq!(highest_tail(100), Some(90.0));
        assert_eq!(highest_tail(2_048), Some(99.0));
        assert_eq!(highest_tail(30_000), Some(99.9));
        assert_eq!(highest_tail(100_000), Some(99.99));
    }

    #[test]
    fn summary_reports_count_median_and_supported_tail() {
        let mut xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&mut xs).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);
        let (p, v) = s.tail.unwrap();
        assert_eq!(p, 99.0);
        assert!((v - 990.01).abs() < 1e-9, "p99 {v}");
        assert_eq!(summarize(&mut []), None);
        let mut few = [3.0, 1.0, 2.0];
        let s = summarize(&mut few).unwrap();
        assert_eq!((s.n, s.p50, s.tail), (3, 2.0, None));
    }

    #[test]
    fn unsupported_percentile_is_refused() {
        let mut xs: Vec<f64> = (0..500).map(f64::from).collect();
        assert_eq!(supported_percentile(&mut xs, 99.0), None);
        assert!(supported_percentile(&mut xs, 90.0).is_some());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(med([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(med([]), 0.0);
    }
}
