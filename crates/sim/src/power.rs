//! Host power models from the SPECpower_ssj2008 benchmark (Table 1).

use megh_linalg::PiecewiseLinear;
use serde::{Deserialize, Serialize};

/// Table 1 of the paper: HP ProLiant ML110 G4, Watts at 0–100 % load.
pub const HP_PROLIANT_G4_WATTS: [f64; 11] = [
    86.0, 89.4, 92.6, 96.0, 99.5, 102.0, 106.0, 108.0, 112.0, 114.0, 117.0,
];

/// Table 1 of the paper: HP ProLiant ML110 G5, Watts at 0–100 % load.
pub const HP_PROLIANT_G5_WATTS: [f64; 11] = [
    93.7, 97.0, 101.0, 105.0, 110.0, 116.0, 121.0, 125.0, 129.0, 133.0, 135.0,
];

/// A host power model: Watts as a function of CPU utilization.
///
/// Utilization is a fraction in `[0, 1]`; values above 1 (overload) clamp
/// to the 100 % figure, matching CloudSim's `PowerModelSpecPower`. A host
/// that is asleep (no VMs, switched off by the consolidation logic) draws
/// zero power — the simulator handles that state, not this model.
///
/// # Examples
///
/// ```
/// use megh_sim::PowerModel;
///
/// let g4 = PowerModel::hp_proliant_g4();
/// assert_eq!(g4.watts_at(0.0), 86.0);
/// assert_eq!(g4.watts_at(1.0), 117.0);
/// assert_eq!(g4.watts_at(0.5), 102.0);
/// assert!(g4.watts_at(0.05) > 86.0 && g4.watts_at(0.05) < 89.4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    name: String,
    curve: PiecewiseLinear,
}

impl PowerModel {
    /// Builds a power model from Watts tabulated at 0 %, 10 %, …, 100 %.
    ///
    /// # Errors
    ///
    /// Returns `None` if any tabulated value is non-finite or negative.
    pub fn from_table(name: impl Into<String>, watts: &[f64; 11]) -> Option<Self> {
        if watts.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return None;
        }
        let knots = watts
            .iter()
            .enumerate()
            .map(|(i, &w)| (i as f64 / 10.0, w))
            .collect();
        Some(Self {
            name: name.into(),
            curve: PiecewiseLinear::new(knots)?,
        })
    }

    /// The HP ProLiant ML110 G4 model (Table 1, first row).
    #[expect(
        clippy::expect_used,
        reason = "infallible: the Table 1 constants are finite and non-negative"
    )]
    pub fn hp_proliant_g4() -> Self {
        Self::from_table("HP ProLiant ML110 G4", &HP_PROLIANT_G4_WATTS)
            .expect("table 1 constants are valid")
    }

    /// The HP ProLiant ML110 G5 model (Table 1, second row).
    #[expect(
        clippy::expect_used,
        reason = "infallible: the Table 1 constants are finite and non-negative"
    )]
    pub fn hp_proliant_g5() -> Self {
        Self::from_table("HP ProLiant ML110 G5", &HP_PROLIANT_G5_WATTS)
            .expect("table 1 constants are valid")
    }

    /// Instantaneous draw in Watts at `utilization` (fraction; clamped to
    /// `[0, 1]`).
    pub fn watts_at(&self, utilization: f64) -> f64 {
        self.curve.eval(utilization.clamp(0.0, 1.0))
    }

    /// Energy in Joules consumed over `seconds` at constant `utilization`.
    pub fn energy_joules(&self, utilization: f64, seconds: f64) -> f64 {
        self.watts_at(utilization) * seconds.max(0.0)
    }

    /// Human-readable model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Idle draw in Watts (utilization 0).
    pub fn idle_watts(&self) -> f64 {
        self.watts_at(0.0)
    }

    /// Peak draw in Watts (utilization 1).
    pub fn peak_watts(&self) -> f64 {
        self.watts_at(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_are_reproduced_exactly() {
        let g4 = PowerModel::hp_proliant_g4();
        let g5 = PowerModel::hp_proliant_g5();
        for (i, (&w4, &w5)) in HP_PROLIANT_G4_WATTS
            .iter()
            .zip(&HP_PROLIANT_G5_WATTS)
            .enumerate()
        {
            let u = i as f64 / 10.0;
            assert_eq!(g4.watts_at(u), w4, "G4 at {u}");
            assert_eq!(g5.watts_at(u), w5, "G5 at {u}");
        }
    }

    #[test]
    fn interpolation_between_table_points() {
        let g4 = PowerModel::hp_proliant_g4();
        // Halfway between 40 % (99.5 W) and 50 % (102 W).
        assert!((g4.watts_at(0.45) - 100.75).abs() < 1e-9);
    }

    #[test]
    fn overload_clamps_to_peak() {
        let g5 = PowerModel::hp_proliant_g5();
        assert_eq!(g5.watts_at(1.4), 135.0);
        assert_eq!(g5.watts_at(-0.2), 93.7);
    }

    #[test]
    fn power_is_monotone_in_utilization() {
        let g4 = PowerModel::hp_proliant_g4();
        let mut prev = 0.0;
        for i in 0..=100 {
            let w = g4.watts_at(i as f64 / 100.0);
            assert!(w >= prev);
            prev = w;
        }
    }

    #[test]
    fn energy_scales_with_time() {
        let g4 = PowerModel::hp_proliant_g4();
        assert_eq!(g4.energy_joules(0.0, 300.0), 86.0 * 300.0);
        assert_eq!(g4.energy_joules(0.5, 0.0), 0.0);
        assert_eq!(g4.energy_joules(0.5, -5.0), 0.0);
    }

    #[test]
    fn g5_idles_higher_but_also_peaks_higher() {
        // The G4/G5 asymmetry is what PABFD and Megh can exploit.
        let g4 = PowerModel::hp_proliant_g4();
        let g5 = PowerModel::hp_proliant_g5();
        assert!(g5.idle_watts() > g4.idle_watts());
        assert!(g5.peak_watts() > g4.peak_watts());
    }

    #[test]
    fn invalid_tables_are_rejected() {
        let mut bad = HP_PROLIANT_G4_WATTS;
        bad[3] = f64::NAN;
        assert!(PowerModel::from_table("bad", &bad).is_none());
        let mut neg = HP_PROLIANT_G4_WATTS;
        neg[0] = -1.0;
        assert!(PowerModel::from_table("neg", &neg).is_none());
    }
}
