//! A strongly diurnal "enterprise" workload generator (extension).
//!
//! The PlanetLab and Google generators reproduce the paper's traces;
//! this third family models the textbook enterprise pattern the paper's
//! §7 periodicity discussion presupposes: interactive services whose
//! load follows the working day — a pronounced daytime plateau, a deep
//! nightly trough, a weekend dip — plus per-VM phase jitter and AR(1)
//! noise. It is the substrate on which a periodicity-aware scheduler
//! ([`megh-core`'s `PeriodicMeghAgent`]) has something to learn — the
//! PlanetLab family's bursts are aperiodic by design — though none has
//! yet shown an advantage on it beyond seed noise (EXPERIMENTS.md).

use serde::{Deserialize, Serialize};

use crate::source::{DiurnalSource, TraceSource};
use crate::{WorkloadTrace, STEPS_PER_DAY};

/// Configuration for the diurnal enterprise generator.
///
/// # Examples
///
/// ```
/// use megh_trace::DiurnalConfig;
///
/// let trace = DiurnalConfig::new(30, 7).generate(2);
/// assert_eq!(trace.n_vms(), 30);
/// assert_eq!(trace.n_steps(), 2 * 288);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiurnalConfig {
    /// Number of VM workload rows to generate.
    pub n_vms: usize,
    /// RNG seed; equal seeds give byte-identical traces.
    pub seed: u64,
    /// Trough (overnight) utilization in percent.
    pub night_level: f64,
    /// Plateau (working-hours) utilization in percent, before jitter.
    pub day_level: f64,
    /// Weekend scaling of the daytime plateau (0–1).
    pub weekend_factor: f64,
    /// Standard deviation of the AR(1) noise, in percent points.
    pub noise_sigma: f64,
}

impl DiurnalConfig {
    /// Creates a configuration with representative enterprise levels.
    pub fn new(n_vms: usize, seed: u64) -> Self {
        Self {
            n_vms,
            seed,
            night_level: 6.0,
            day_level: 45.0,
            weekend_factor: 0.35,
            noise_sigma: 2.0,
        }
    }

    /// The deterministic diurnal profile (percent) at a step, before
    /// per-VM scaling and noise. Days are 288 steps; days 5 and 6 of
    /// each week are the weekend.
    pub fn profile(&self, step: usize) -> f64 {
        let day = step / STEPS_PER_DAY;
        let phase = (step % STEPS_PER_DAY) as f64 / STEPS_PER_DAY as f64;
        // Smooth double-sigmoid plateau: ramps up ~08:00, down ~20:00.
        let up = sigmoid((phase - 8.0 / 24.0) * 40.0);
        let down = sigmoid((phase - 20.0 / 24.0) * 40.0);
        let plateau = up - down;
        let weekend = if day % 7 >= 5 {
            self.weekend_factor
        } else {
            1.0
        };
        self.night_level + (self.day_level * weekend - self.night_level) * plateau.max(0.0)
    }

    /// A lazy streaming source of `n_steps` columns; the preferred entry
    /// point. Memory is `O(n_vms)` regardless of `n_steps`.
    pub fn source(&self, n_steps: usize) -> DiurnalSource {
        DiurnalSource::new(self.clone(), n_steps)
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
    /// [`TraceSource::take_steps`]; prefer the streaming API for long
    /// traces.
    pub fn generate_steps(&self, n_steps: usize) -> WorkloadTrace {
        self.source(n_steps).take_steps(n_steps)
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_and_shape() {
        let a = DiurnalConfig::new(8, 3).generate(1);
        let b = DiurnalConfig::new(8, 3).generate(1);
        assert_eq!(a, b);
        assert_eq!(a.n_vms(), 8);
        assert_eq!(a.n_steps(), STEPS_PER_DAY);
    }

    #[test]
    fn profile_has_day_night_structure() {
        let cfg = DiurnalConfig::new(1, 1);
        let midnight = cfg.profile(0);
        let noon = cfg.profile(STEPS_PER_DAY / 2);
        assert!(noon > 4.0 * midnight, "noon {noon} vs midnight {midnight}");
        assert!((midnight - cfg.night_level).abs() < 1.0);
        assert!((noon - cfg.day_level).abs() < 2.0);
    }

    #[test]
    fn weekends_are_quieter() {
        let cfg = DiurnalConfig::new(1, 1);
        let weekday_noon = cfg.profile(STEPS_PER_DAY / 2);
        let saturday_noon = cfg.profile(5 * STEPS_PER_DAY + STEPS_PER_DAY / 2);
        assert!(saturday_noon < 0.5 * weekday_noon);
    }

    #[test]
    fn generated_load_is_periodic() {
        // Autocorrelation check: across-VM mean at the same time of day
        // on two weekdays must be far closer than day vs night.
        let trace = DiurnalConfig::new(40, 7).generate(3);
        let mean_at = |step: usize| {
            (0..trace.n_vms())
                .map(|v| trace.utilization(v, step))
                .sum::<f64>()
                / trace.n_vms() as f64
        };
        let noon_d1 = mean_at(STEPS_PER_DAY / 2);
        let noon_d2 = mean_at(STEPS_PER_DAY + STEPS_PER_DAY / 2);
        let night_d1 = mean_at(10);
        assert!((noon_d1 - noon_d2).abs() < 8.0, "{noon_d1} vs {noon_d2}");
        assert!(noon_d1 - night_d1 > 15.0, "day {noon_d1} night {night_d1}");
    }

    #[test]
    fn utilization_always_in_range() {
        let trace = DiurnalConfig::new(20, 11).generate_steps(600);
        for vm in 0..trace.n_vms() {
            for &u in trace.vm_row(vm) {
                assert!((0.0..=100.0).contains(&u));
            }
        }
    }
}
