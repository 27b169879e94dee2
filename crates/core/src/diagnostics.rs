//! Convergence diagnostics for per-step cost series.
//!
//! §6.3 quantifies learning behaviour by when the per-step operation
//! cost "converges to almost stable cost" — Megh in ~100 steps,
//! THR-MMT in ~300–600, MadVM in 200–700. This module implements that
//! measurement: a rolling-window stability detector plus the
//! variance-after-convergence statistic the paper uses to argue Megh's
//! robustness.

use megh_linalg::{mean, std_dev};
use serde::{Deserialize, Serialize};

/// Result of convergence analysis on a per-step cost series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Convergence {
    /// First step from which the series is judged stable, if any.
    pub converged_at: Option<usize>,
    /// Mean of the series after the convergence point (whole series
    /// when no convergence was found).
    pub stable_mean: f64,
    /// Standard deviation after the convergence point.
    pub stable_std: f64,
}

/// Detects when a cost series settles.
///
/// The series is scanned with a rolling window of `window` steps; the
/// first window whose mean stays within `tolerance` (relative) of the
/// mean of *every* subsequent window marks convergence. This matches
/// the paper's reading of Figures 2(a)–5(a): after the convergence
/// point the per-step cost no longer drifts, only fluctuates.
///
/// Returns `converged_at = None` when the series never settles or is
/// shorter than two windows.
///
/// # Panics
///
/// Panics if `window == 0` or `tolerance < 0`.
///
/// # Examples
///
/// ```
/// use megh_core::diagnostics::detect_convergence;
///
/// // A series that decays then stabilises at 1.0.
/// let series: Vec<f64> = (0..200)
///     .map(|t| 1.0 + 4.0 * (-(t as f64) / 20.0).exp())
///     .collect();
/// let c = detect_convergence(&series, 20, 0.05);
/// assert!(c.converged_at.is_some());
/// assert!((c.stable_mean - 1.0).abs() < 0.2);
/// ```
pub fn detect_convergence(series: &[f64], window: usize, tolerance: f64) -> Convergence {
    assert!(window > 0, "window must be positive");
    assert!(tolerance >= 0.0, "tolerance must be non-negative");
    if series.len() < 2 * window {
        return Convergence {
            converged_at: None,
            stable_mean: mean(series),
            stable_std: std_dev(series),
        };
    }
    let window_means: Vec<f64> = series.windows(window).step_by(window).map(mean).collect();
    // Find the first window whose mean all later windows stay close to.
    let mut converged_window = None;
    'outer: for (i, &m) in window_means.iter().enumerate() {
        let scale = m.abs().max(1e-12);
        for &later in &window_means[i + 1..] {
            if (later - m).abs() / scale > tolerance {
                continue 'outer;
            }
        }
        // Require at least one later window to confirm stability.
        if i + 1 < window_means.len() {
            converged_window = Some(i);
        }
        break;
    }
    match converged_window {
        Some(i) => {
            let at = i * window;
            Convergence {
                converged_at: Some(at),
                stable_mean: mean(&series[at..]),
                stable_std: std_dev(&series[at..]),
            }
        }
        None => Convergence {
            converged_at: None,
            stable_mean: mean(series),
            stable_std: std_dev(series),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_converges_immediately() {
        let series = vec![2.0; 100];
        let c = detect_convergence(&series, 10, 0.05);
        assert_eq!(c.converged_at, Some(0));
        assert_eq!(c.stable_mean, 2.0);
        assert_eq!(c.stable_std, 0.0);
    }

    #[test]
    fn decaying_series_converges_after_transient() {
        let series: Vec<f64> = (0..300)
            .map(|t| 1.0 + 10.0 * (-(t as f64) / 15.0).exp())
            .collect();
        let c = detect_convergence(&series, 20, 0.05);
        let at = c.converged_at.expect("must converge");
        assert!(at >= 20, "transient must not count as stable");
        assert!(at <= 160, "converged too late: {at}");
    }

    #[test]
    fn drifting_series_never_converges() {
        let series: Vec<f64> = (0..300).map(|t| t as f64).collect();
        let c = detect_convergence(&series, 20, 0.05);
        assert_eq!(c.converged_at, None);
    }

    #[test]
    fn short_series_is_inconclusive() {
        let c = detect_convergence(&[1.0, 1.0, 1.0], 10, 0.05);
        assert_eq!(c.converged_at, None);
        assert_eq!(c.stable_mean, 1.0);
    }

    #[test]
    fn noise_within_tolerance_still_converges() {
        let series: Vec<f64> = (0..200)
            .map(|t| 5.0 + 0.1 * ((t * 7919) % 13) as f64 / 13.0)
            .collect();
        let c = detect_convergence(&series, 20, 0.05);
        assert!(c.converged_at.is_some());
        assert!(c.stable_std < 0.1);
    }

    #[test]
    fn late_spike_prevents_early_convergence_claim() {
        let mut series = vec![1.0; 240];
        for v in &mut series[140..160] {
            *v = 3.0;
        }
        let c = detect_convergence(&series, 20, 0.05);
        // The first stable-forever window starts right after the spike.
        assert_eq!(c.converged_at, Some(160));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_is_rejected() {
        detect_convergence(&[1.0], 0, 0.1);
    }
}
