//! The scheduler interface: what Megh and every baseline implement.

use serde::{Deserialize, Serialize};

use crate::{DataCenterView, PmId, VmId};

/// A request to live-migrate one VM to a destination host.
///
/// The pair `(vm, target)` is exactly the paper's action `(j, k)` (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MigrationRequest {
    /// The VM to migrate.
    pub vm: VmId,
    /// The destination host.
    pub target: PmId,
}

impl MigrationRequest {
    /// Creates a migration request.
    pub fn new(vm: VmId, target: PmId) -> Self {
        Self { vm, target }
    }
}

/// Feedback the engine hands back after applying a step's decisions.
///
/// RL schedulers (Megh, MadVM, Q-learning) learn from `total_cost_usd`,
/// the paper's per-stage cost `C(s_{t-1}, s_t) = ΔC_p + ΔC_v` (Eq. 6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepFeedback {
    /// The step whose interval this feedback covers.
    pub step: usize,
    /// Energy cost `ΔC_p` over the interval, USD.
    pub energy_cost_usd: f64,
    /// SLA-violation cost `ΔC_v` over the interval, USD.
    pub sla_cost_usd: f64,
    /// Total per-stage cost, USD.
    pub total_cost_usd: f64,
    /// The migrations the engine actually applied (after validation). May
    /// be fewer than the scheduler requested.
    pub applied: Vec<MigrationRequest>,
}

/// A live-migration scheduler: decides which VMs move where each step.
///
/// The engine calls [`Scheduler::decide`] with a read-only
/// [`DataCenterView`], applies the validated requests, accounts
/// costs for the interval, and reports them via [`Scheduler::observe`].
///
/// Determinism contract: given the same view sequence and the same
/// internal seed, a scheduler must produce the same decisions, so that
/// experiments are reproducible.
pub trait Scheduler {
    /// Short stable name used in reports ("Megh", "THR-MMT", …).
    fn name(&self) -> &str;

    /// Chooses migrations for the current step.
    fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest>;

    /// Receives the realised cost of the last interval. Default: ignore
    /// (pure heuristics like the MMT family are cost-oblivious).
    fn observe(&mut self, feedback: &StepFeedback) {
        let _ = feedback;
    }
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
        (**self).decide(view)
    }

    fn observe(&mut self, feedback: &StepFeedback) {
        (**self).observe(feedback)
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
        (**self).decide(view)
    }

    fn observe(&mut self, feedback: &StepFeedback) {
        (**self).observe(feedback)
    }
}

/// A scheduler that never migrates anything.
///
/// Useful as an experimental floor (pure static placement) and in tests.
///
/// # Examples
///
/// ```
/// use megh_sim::{NoOpScheduler, Scheduler};
///
/// let mut s = NoOpScheduler::default();
/// assert_eq!(s.name(), "NoOp");
/// ```
#[derive(Debug, Clone, Default)]
pub struct NoOpScheduler;

impl Scheduler for NoOpScheduler {
    fn name(&self) -> &str {
        "NoOp"
    }

    fn decide(&mut self, _view: &DataCenterView) -> Vec<MigrationRequest> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_request_identity() {
        let a = MigrationRequest::new(VmId(1), PmId(2));
        let b = MigrationRequest {
            vm: VmId(1),
            target: PmId(2),
        };
        assert_eq!(a, b);
    }

    #[test]
    fn noop_never_migrates() {
        let mut s = NoOpScheduler;
        let view = crate::view::tests::toy_view();
        assert!(s.decide(&view).is_empty());
        // observe must be callable and harmless.
        s.observe(&StepFeedback {
            step: 0,
            energy_cost_usd: 1.0,
            sla_cost_usd: 0.0,
            total_cost_usd: 1.0,
            applied: vec![],
        });
    }
}
