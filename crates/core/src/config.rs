//! Megh hyper-parameters.

use serde::{Deserialize, Serialize};

/// All tunables of the Megh agent.
///
/// Defaults follow §6.1: `γ = 0.5` ("50:50 importance of both new and old
/// information"), `Temp₀ = 3`, `ε = 0.01`, and `δ = d` for the
/// `B₀ = (1/δ)·I` initialisation. §6.5's sensitivity analysis varies
/// `Temp₀` and `ε`; the Figure 8 experiment does the same through this
/// struct.
///
/// # Examples
///
/// ```
/// use megh_core::MeghConfig;
///
/// let cfg = MeghConfig::paper_defaults(100, 50);
/// assert_eq!(cfg.gamma, 0.5);
/// assert_eq!(cfg.temp0, 3.0);
/// assert_eq!(cfg.epsilon, 0.01);
/// assert_eq!(cfg.delta, 5000.0); // δ = d = N × M
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeghConfig {
    /// Number of VMs `N` the agent will manage.
    pub n_vms: usize,
    /// Number of hosts `M`.
    pub n_hosts: usize,
    /// Discount factor `γ ∈ [0, 1)` of the infinite-horizon MDP (§4).
    pub gamma: f64,
    /// Initial Boltzmann temperature `Temp₀` (Algorithm 2).
    pub temp0: f64,
    /// Temperature decay exponent `ε`: `Temp ← Temp·e^{−ε}` per step.
    pub epsilon: f64,
    /// Initialisation scale: `B₀ = (1/δ)·I` (§5, "we have considered δ
    /// as d").
    pub delta: f64,
    /// Actions sampled per observation step. The paper's Algorithm 1
    /// takes one action per iteration; raising this lets Megh request
    /// several migrations per interval. §6.1's 2 % cap on Megh is
    /// `⌈0.02 N⌉` here (the `2% actions` ablation arm).
    pub actions_per_step: usize,
    /// RNG seed for exploration; equal seeds reproduce runs exactly.
    pub seed: u64,
    /// Optional action-space feasibility mask (ablation): when `true`,
    /// a sampled action may target a *sleeping* host only if the VM's
    /// current host is overloaded (one reading of §3.1's "migrate … to
    /// another PM with potential capacity"). The mask lowers Megh's
    /// energy (fewer hosts wake) at the price of more overload SLA, and
    /// is `false` by default — the paper's Algorithm 1 samples the
    /// unrestricted `N × M` action space.
    pub mask_sleeping_targets: bool,
}

impl MeghConfig {
    /// The §6.1 experimental defaults for an `N × M` data center.
    pub fn paper_defaults(n_vms: usize, n_hosts: usize) -> Self {
        let d = (n_vms * n_hosts).max(1) as f64;
        Self {
            n_vms,
            n_hosts,
            gamma: 0.5,
            temp0: 3.0,
            epsilon: 0.01,
            delta: d,
            actions_per_step: 1,
            seed: 0x4d45_4748, // "MEGH"
            mask_sleeping_targets: false,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !(0.0..1.0).contains(&self.gamma) {
            return Err("gamma must be in [0, 1)");
        }
        if self.temp0 <= 0.0 {
            return Err("temp0 must be positive");
        }
        if self.epsilon < 0.0 {
            return Err("epsilon must be non-negative");
        }
        if self.delta <= 0.0 {
            return Err("delta must be positive");
        }
        if self.actions_per_step == 0 {
            return Err("actions_per_step must be at least 1");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_6_1() {
        let cfg = MeghConfig::paper_defaults(10, 5);
        assert_eq!(cfg.gamma, 0.5);
        assert_eq!(cfg.temp0, 3.0);
        assert_eq!(cfg.epsilon, 0.01);
        assert_eq!(cfg.delta, 50.0);
        assert_eq!(cfg.actions_per_step, 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn empty_space_keeps_delta_positive() {
        let cfg = MeghConfig::paper_defaults(0, 0);
        assert!(cfg.delta > 0.0);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        let mut cfg = MeghConfig::paper_defaults(2, 2);
        cfg.gamma = 1.0;
        assert!(cfg.validate().is_err());

        let mut cfg = MeghConfig::paper_defaults(2, 2);
        cfg.temp0 = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = MeghConfig::paper_defaults(2, 2);
        cfg.epsilon = -0.1;
        assert!(cfg.validate().is_err());

        let mut cfg = MeghConfig::paper_defaults(2, 2);
        cfg.delta = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = MeghConfig::paper_defaults(2, 2);
        cfg.actions_per_step = 0;
        assert!(cfg.validate().is_err());
    }
}
