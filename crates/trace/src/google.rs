//! Synthetic Google-Cluster-like workload generator.
//!
//! The Google Cluster trace (§6.2, Figure 1(b)) differs sharply from
//! PlanetLab: VMs execute *tasks* with widely varying start times and
//! durations — spanning roughly 10¹ to 10⁶ seconds with no standard
//! parametric fit — and obfuscated, generally low resource usage. Each of
//! the paper's 2000 VMs runs an individual task to completion and then
//! switches to another.
//!
//! The generator mirrors that structure: per VM, a renewal process of
//! tasks whose durations are drawn log-uniformly over `[10¹, 10⁶]`
//! seconds (matching the figure's support and its non-parametric spread),
//! separated by short idle gaps, with per-task utilization drawn from a
//! low-mean log-normal. Task start times are staggered by a random
//! initial offset.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::source::{GoogleSource, TraceSource};
use crate::{WorkloadTrace, STEPS_PER_DAY};

/// Configuration for the Google-Cluster-like generator: the fleet size
/// and the seed. The task law is fixed to the paper's calibration.
///
/// # Examples
///
/// ```
/// use megh_trace::GoogleConfig;
///
/// let trace = GoogleConfig::new(100, 7).generate(1);
/// assert_eq!(trace.n_vms(), 100);
/// assert!(trace.overall_mean() < 15.0); // low, obfuscated usage
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GoogleConfig {
    /// Number of VM workload rows to generate.
    pub n_vms: usize,
    /// RNG seed; equal seeds give byte-identical traces.
    pub seed: u64,
}

impl GoogleConfig {
    /// Shortest task duration in seconds: Figure 1(b)'s support starts
    /// near 10¹ s.
    pub const MIN_TASK_SECONDS: f64 = 10.0;
    /// Longest task duration in seconds: Figure 1(b)'s support ends near
    /// 10⁶ s.
    pub const MAX_TASK_SECONDS: f64 = 1e6;

    /// Creates a configuration for `n_vms` rows drawn from `seed`.
    pub fn new(n_vms: usize, seed: u64) -> Self {
        Self { n_vms, seed }
    }

    /// A lazy streaming source of `n_steps` columns; the preferred entry
    /// point. Memory is `O(n_vms)` regardless of `n_steps`.
    pub fn source(&self, n_steps: usize) -> GoogleSource {
        GoogleSource::new(self.clone(), n_steps)
    }

    /// Generates a trace spanning `days` simulated days.
    ///
    /// Thin materializing wrapper over [`source`](Self::source) +
    /// [`TraceSource::take_steps`]; prefer the streaming API for long
    /// traces.
    pub fn generate(&self, days: usize) -> WorkloadTrace {
        self.generate_steps(days * STEPS_PER_DAY)
    }

    /// Generates a trace with an explicit number of 5-minute steps.
    ///
    /// Thin materializing wrapper over [`source`](Self::source) +
    /// [`TraceSource::take_steps`]; task durations can be recovered with
    /// [`GoogleConfig::sample_task_durations`] for Figure 1(b).
    pub fn generate_steps(&self, n_steps: usize) -> WorkloadTrace {
        self.source(n_steps).take_steps(n_steps)
    }

    /// Samples `n` task durations (seconds) from the duration law.
    ///
    /// Used by the Figure 1(b) experiment to draw the duration histogram
    /// without reverse-engineering it from the utilization rows.
    pub fn sample_task_durations(&self, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0x9e37_79b9));
        (0..n).map(|_| sample_duration(&mut rng)).collect()
    }
}

/// Draws one task duration in seconds (log-uniform over the support).
pub(crate) fn sample_duration<R: Rng>(rng: &mut R) -> f64 {
    let lo = GoogleConfig::MIN_TASK_SECONDS.max(1.0).ln();
    let hi = GoogleConfig::MAX_TASK_SECONDS
        .max(GoogleConfig::MIN_TASK_SECONDS + 1.0)
        .ln();
    rng.gen_range(lo..hi).exp()
}

/// Geometric sample: number of failures before the first success.
pub(crate) fn sample_geometric<R: Rng>(rng: &mut R, p: f64) -> usize {
    let p = p.clamp(1e-9, 1.0);
    let u: f64 = rng.gen_range(0.0..1.0);
    (u.ln() / (1.0 - p).max(1e-12).ln()).floor().max(0.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_under_seed() {
        let a = GoogleConfig::new(10, 5).generate_steps(200);
        let b = GoogleConfig::new(10, 5).generate_steps(200);
        assert_eq!(a, b);
    }

    #[test]
    fn shape_matches_request() {
        let t = GoogleConfig::new(9, 1).generate(1);
        assert_eq!(t.n_vms(), 9);
        assert_eq!(t.n_steps(), STEPS_PER_DAY);
    }

    #[test]
    fn usage_is_low_on_average() {
        // Google tasks are low-utilization: Figures 3(c)/5(c) hinge on it.
        let t = GoogleConfig::new(300, 3).generate(2);
        let mean = t.overall_mean();
        assert!(mean < 15.0, "mean = {mean}");
        assert!(mean > 1.0, "mean = {mean} — VMs should not be fully idle");
    }

    #[test]
    fn durations_span_many_decades() {
        let durations = GoogleConfig::new(1, 9).sample_task_durations(5000);
        let min = durations.iter().cloned().fold(f64::MAX, f64::min);
        let max = durations.iter().cloned().fold(f64::MIN, f64::max);
        assert!(min < 100.0, "min duration = {min}");
        assert!(max > 1e5, "max duration = {max}");
    }

    #[test]
    fn durations_are_log_uniform_not_clustered() {
        // Roughly equal mass per decade over [10¹, 10⁶): 5 decades.
        let durations = GoogleConfig::new(1, 10).sample_task_durations(50_000);
        let mut per_decade = [0usize; 5];
        for d in &durations {
            let idx = (d.log10().floor() as usize).clamp(1, 5) - 1;
            per_decade[idx] += 1;
        }
        for (i, &count) in per_decade.iter().enumerate() {
            let frac = count as f64 / durations.len() as f64;
            assert!(
                (frac - 0.2).abs() < 0.05,
                "decade {i} holds fraction {frac}"
            );
        }
    }

    #[test]
    fn rows_contain_idle_periods() {
        // Unlike PlanetLab, Google VMs have genuine idle stretches.
        let t = GoogleConfig::new(100, 21).generate(1);
        let zeros: usize = (0..t.n_vms())
            .flat_map(|v| t.vm_row(v).to_vec())
            .filter(|&u| u == 0.0)
            .count();
        assert!(zeros > 0, "expected some idle (zero-utilization) samples");
    }

    #[test]
    fn utilization_always_in_range() {
        let t = GoogleConfig::new(40, 23).generate_steps(400);
        for vm in 0..t.n_vms() {
            for &u in t.vm_row(vm) {
                assert!((0.0..=100.0).contains(&u));
            }
        }
    }

    #[test]
    fn geometric_sampler_is_nonnegative_and_finite() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let g = sample_geometric(&mut rng, 0.3);
            assert!(g < 10_000);
        }
    }
}
