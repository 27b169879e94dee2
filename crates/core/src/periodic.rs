//! Periodicity-aware Megh — the paper's §7 future-work direction.
//!
//! "We are currently investigating the opportunity to take advantage of
//! additional knowledge about the workload, such as periodicity …"
//!
//! Cloud workloads are strongly diurnal (our PlanetLab generator
//! modulates burst onset with a 24-hour cycle, as the real CoMoN data
//! does). The plain Megh agent learns a single `θ` shared by every time
//! of day, so a migration that is good at the nightly trough and bad at
//! the daily peak averages out. [`PeriodicMeghAgent`] conditions on the
//! *phase of the day* with a bank of `P` plain [`MeghAgent`]s over the
//! full fleet, one per phase: the step's phase picks the agent that
//! decides and that learns from the step's cost. The phases share
//! nothing — each has its own `B`, `z`, `θ`, exploration RNG and
//! Boltzmann temperature, which anneals on that phase's steps only (a
//! `P`-phase agent cools `P` times slower in wall-clock steps) — so one
//! phase is exactly plain Megh, and §5.2's per-step cost is unchanged.
//!
//! No phase count is distinguishable from plain Megh on the diurnal
//! workload over 12 seeds (EXPERIMENTS.md); the direction stays parked.

use megh_sim::{DataCenterView, MigrationRequest, Scheduler, StepFeedback};

use crate::hier::shard_seed;
use crate::{MeghAgent, MeghConfig};

/// Megh with one independent learner per phase of the day.
///
/// # Examples
///
/// ```
/// use megh_core::{MeghConfig, PeriodicMeghAgent};
///
/// let agent = PeriodicMeghAgent::new(MeghConfig::paper_defaults(10, 4), 4);
/// assert_eq!(agent.n_phases(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct PeriodicMeghAgent {
    /// One full-fleet agent per phase.
    agents: Vec<MeghAgent>,
    steps_per_period: usize,
    /// Phase that decided last step (receives the next observed cost).
    last_phase: usize,
    /// `Megh-P<n_phases>`, so sweeps over phase counts stay tellable apart.
    name: String,
}

impl PeriodicMeghAgent {
    /// Creates an agent with `n_phases` equal phases per 24-hour period
    /// (288 five-minute steps).
    ///
    /// # Panics
    ///
    /// Panics if `n_phases == 0` or the configuration is invalid.
    pub fn new(config: MeghConfig, n_phases: usize) -> Self {
        Self::with_period(config, n_phases, 288)
    }

    /// Creates an agent with an explicit period length in steps.
    ///
    /// # Panics
    ///
    /// Panics if `n_phases == 0`, `steps_per_period == 0`, or the
    /// configuration is invalid.
    pub fn with_period(config: MeghConfig, n_phases: usize, steps_per_period: usize) -> Self {
        assert!(n_phases > 0, "n_phases must be positive");
        assert!(steps_per_period > 0, "steps_per_period must be positive");
        // Phase 0 keeps the configured seed, so one phase is plain Megh.
        let agents = (0..n_phases)
            .map(|p| {
                let seed = if p == 0 {
                    config.seed
                } else {
                    shard_seed(config.seed, p)
                };
                MeghAgent::new(MeghConfig { seed, ..config })
            })
            .collect();
        Self {
            agents,
            steps_per_period,
            last_phase: 0,
            name: format!("Megh-P{n_phases}"),
        }
    }

    /// Number of phases the day is split into.
    pub fn n_phases(&self) -> usize {
        self.agents.len()
    }

    /// The phase index for a step.
    pub fn phase_of(&self, step: usize) -> usize {
        (step % self.steps_per_period) * self.n_phases() / self.steps_per_period
    }

    /// Explicit non-zeros of the learned operators, summed over phases.
    pub fn qtable_nnz(&self) -> usize {
        self.agents.iter().map(MeghAgent::qtable_nnz).sum()
    }
}

impl Scheduler for PeriodicMeghAgent {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
        self.last_phase = self.phase_of(view.step());
        self.agents[self.last_phase].decide(view)
    }

    fn observe(&mut self, feedback: &StepFeedback) {
        self.agents[self.last_phase].observe(feedback);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megh_sim::{DataCenterConfig, Simulation};
    use megh_trace::PlanetLabConfig;

    #[test]
    fn phase_indexing_covers_the_day() {
        let agent = PeriodicMeghAgent::new(MeghConfig::paper_defaults(4, 2), 4);
        assert_eq!(agent.phase_of(0), 0);
        assert_eq!(agent.phase_of(71), 0);
        assert_eq!(agent.phase_of(72), 1);
        assert_eq!(agent.phase_of(287), 3);
        assert_eq!(agent.phase_of(288), 0); // wraps daily
    }

    #[test]
    fn custom_period_is_respected() {
        let agent = PeriodicMeghAgent::with_period(MeghConfig::paper_defaults(4, 2), 2, 10);
        assert_eq!(agent.phase_of(4), 0);
        assert_eq!(agent.phase_of(5), 1);
        assert_eq!(agent.phase_of(10), 0);
    }

    #[test]
    fn runs_end_to_end_and_learns_per_phase() {
        let (hosts, vms) = (4, 8);
        let trace = PlanetLabConfig::new(vms, 31).generate_steps(120);
        let config = DataCenterConfig::paper_planetlab(hosts, vms);
        let sim = Simulation::new(config, trace).unwrap();
        let mut agent =
            PeriodicMeghAgent::with_period(MeghConfig::paper_defaults(vms, hosts), 4, 40);
        let outcome = sim.run(&mut agent);
        assert_eq!(outcome.records().len(), 120);
        assert!(agent.qtable_nnz() > 0);
    }

    #[test]
    fn is_deterministic_under_seed() {
        let (hosts, vms) = (3, 6);
        let trace = PlanetLabConfig::new(vms, 33).generate_steps(60);
        let config = DataCenterConfig::paper_planetlab(hosts, vms);
        let sim = Simulation::new(config, trace).unwrap();
        let mk = || PeriodicMeghAgent::new(MeghConfig::paper_defaults(vms, hosts), 4);
        let a = sim.run(mk());
        let b = sim.run(mk());
        assert_eq!(a.final_placement(), b.final_placement());
    }

    #[test]
    #[should_panic(expected = "n_phases must be positive")]
    fn zero_phases_is_rejected() {
        let _ = PeriodicMeghAgent::new(MeghConfig::paper_defaults(2, 2), 0);
    }

    #[test]
    fn single_phase_is_plain_megh() {
        let (hosts, vms) = (4, 8);
        let trace = PlanetLabConfig::new(vms, 31).generate_steps(120);
        let config = DataCenterConfig::paper_planetlab(hosts, vms);
        let sim = Simulation::new(config, trace).unwrap();
        let cfg = MeghConfig::paper_defaults(vms, hosts);
        let periodic = sim.run(PeriodicMeghAgent::new(cfg.clone(), 1));
        let plain = sim.run(MeghAgent::new(cfg));
        // Everything after the leading `scheduler=<name>;` field.
        let run = |fp: String| fp.split_once(';').map(|(_, rest)| rest.to_owned());
        assert_eq!(run(periodic.fingerprint()), run(plain.fingerprint()));
        assert!(periodic.fingerprint().starts_with("scheduler=Megh-P1;"));
    }
}
