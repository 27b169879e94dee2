//! Tabular Q-learning — the paper's classical offline-trained comparator.
//!
//! §2.2: "Q-learning is an offline algorithm. We have to go through
//! computationally expensive training periods of a few hundred iterations
//! before using it in an online setup." This implementation makes that
//! dependence explicit: the agent learns a tabular Q-function over a
//! coarse global state (buckets of the overloaded-host fraction and the
//! active-host fraction) and three macro-actions, under ε-greedy
//! exploration during [`QLearningScheduler::train`], and is then frozen
//! (ε = 0) for evaluation. Deployed without training, it acts on an
//! uninformed table — exactly the failure mode the paper criticises.

use std::collections::BTreeSet;

use megh_sim::{DataCenterView, MigrationRequest, PmId, Scheduler, Simulation, StepFeedback, VmId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{power_aware_best_fit, select_minimum_migration_time, total_f64};

/// Buckets per state dimension.
const BUCKETS: usize = 5;
/// Macro-actions: do nothing / relieve hottest host / consolidate coldest.
const ACTIONS: usize = 3;

/// Learning rate α.
const ALPHA: f64 = 0.1;
/// Discount factor γ.
const GAMMA: f64 = 0.5;
/// Exploration probability during training.
const TRAIN_EPSILON: f64 = 0.2;

/// A tabular Q-learning migration scheduler.
///
/// # Examples
///
/// ```
/// use megh_baselines::QLearningScheduler;
/// use megh_sim::Scheduler;
///
/// let s = QLearningScheduler::new(17);
/// assert_eq!(s.name(), "Q-learning");
/// assert!(!s.is_trained());
/// ```
#[derive(Debug, Clone)]
pub struct QLearningScheduler {
    q: Vec<[f64; ACTIONS]>,
    rng: StdRng,
    exploring: bool,
    trained: bool,
    last: Option<(usize, usize)>,
    pending_reward: Option<f64>,
}

impl QLearningScheduler {
    /// Creates an untrained agent whose exploration draws from `seed`.
    pub fn new(seed: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed);
        Self {
            q: vec![[0.0; ACTIONS]; BUCKETS * BUCKETS],
            rng,
            exploring: false,
            trained: false,
            last: None,
            pending_reward: None,
        }
    }

    /// Whether [`QLearningScheduler::train`] has been run.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Offline training: runs `episodes` passes of the training
    /// simulation with ε-greedy exploration, updating the Q-table from
    /// the realised costs. This is the "computationally expensive
    /// training period" Megh does not need.
    pub fn train(&mut self, sim: &Simulation, episodes: usize) {
        self.exploring = true;
        for _ in 0..episodes {
            self.last = None;
            self.pending_reward = None;
            sim.run(&mut *self);
        }
        self.exploring = false;
        self.trained = true;
        self.last = None;
        self.pending_reward = None;
    }

    fn state_of(view: &DataCenterView) -> usize {
        let hosts = view.n_hosts().max(1) as f64;
        let overloaded = view.hosts().filter(|&h| view.is_overloaded(h)).count() as f64;
        let active = view.active_hosts() as f64;
        let b =
            |fraction: f64| ((fraction.clamp(0.0, 1.0) * BUCKETS as f64) as usize).min(BUCKETS - 1);
        b(overloaded / hosts) * BUCKETS + b(active / hosts)
    }

    fn choose_action(&mut self, state: usize) -> usize {
        if self.exploring && self.rng.gen_bool(TRAIN_EPSILON) {
            return self.rng.gen_range(0..ACTIONS);
        }
        let row = &self.q[state];
        // Maximise reward = minimise cost (reward is −cost).
        (0..ACTIONS)
            .max_by(|&a, &b| total_f64(row[a], row[b]))
            .unwrap_or(0)
    }

    fn apply_update(&mut self, next_state: usize) {
        if let (Some((s, a)), Some(reward)) = (self.last, self.pending_reward.take()) {
            let max_next = self.q[next_state]
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            let target = reward + GAMMA * max_next;
            self.q[s][a] += ALPHA * (target - self.q[s][a]);
        }
    }

    /// Macro-action 1: relieve the most overloaded host MMT-style.
    fn relieve(&self, view: &DataCenterView) -> Vec<MigrationRequest> {
        let hottest = view
            .hosts()
            .filter(|&h| view.is_overloaded(h))
            .max_by(|&a, &b| {
                total_f64(view.host_utilization(a), view.host_utilization(b)).then(a.0.cmp(&b.0))
            });
        let Some(host) = hottest else {
            return Vec::new();
        };
        let Some(vm) = select_minimum_migration_time(view, host) else {
            return Vec::new();
        };
        let placements = power_aware_best_fit(view, &[vm], &BTreeSet::from([host]));
        placements
            .into_iter()
            .map(|(vm, target)| MigrationRequest::new(vm, target))
            .collect()
    }

    /// Macro-action 2: evacuate the least-utilized active host.
    fn consolidate(&self, view: &DataCenterView) -> Vec<MigrationRequest> {
        let coldest = view
            .hosts()
            .filter(|&h| !view.is_asleep(h) && !view.is_overloaded(h))
            .min_by(|&a, &b| {
                total_f64(view.host_utilization(a), view.host_utilization(b)).then(a.0.cmp(&b.0))
            });
        let Some(host) = coldest else {
            return Vec::new();
        };
        let vms: Vec<VmId> = view.vms_on(host);
        let mut excluded: BTreeSet<PmId> = BTreeSet::from([host]);
        for h in view.hosts() {
            if view.is_asleep(h) || view.is_overloaded(h) {
                excluded.insert(h);
            }
        }
        let placements = power_aware_best_fit(view, &vms, &excluded);
        if placements.len() == vms.len() {
            placements
                .into_iter()
                .map(|(vm, target)| MigrationRequest::new(vm, target))
                .collect()
        } else {
            Vec::new()
        }
    }
}

impl Scheduler for QLearningScheduler {
    fn name(&self) -> &str {
        "Q-learning"
    }

    fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
        let state = Self::state_of(view);
        self.apply_update(state);
        let action = self.choose_action(state);
        self.last = Some((state, action));
        match action {
            1 => self.relieve(view),
            2 => self.consolidate(view),
            _ => Vec::new(),
        }
    }

    fn observe(&mut self, feedback: &StepFeedback) {
        self.pending_reward = Some(-feedback.total_cost_usd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megh_sim::DataCenterConfig;
    use megh_trace::PlanetLabConfig;

    fn mini_sim() -> Simulation {
        let trace = PlanetLabConfig::new(8, 5).generate_steps(40);
        Simulation::new(DataCenterConfig::paper_planetlab(4, 8), trace).unwrap()
    }

    #[test]
    fn untrained_agent_runs() {
        let sim = mini_sim();
        let outcome = sim.run(QLearningScheduler::new(17));
        assert_eq!(outcome.records().len(), 40);
    }

    #[test]
    fn training_fills_the_table_and_freezes() {
        let sim = mini_sim();
        let mut agent = QLearningScheduler::new(17);
        agent.train(&sim, 3);
        assert!(agent.is_trained());
        let nonzero = agent
            .q
            .iter()
            .flat_map(|row| row.iter())
            .filter(|&&v| v != 0.0)
            .count();
        assert!(nonzero > 0, "training must write Q-values");
        // Frozen evaluation still runs deterministically.
        let a = sim.run(&mut agent.clone());
        let b = sim.run(&mut agent.clone());
        assert_eq!(a.report().total_migrations, b.report().total_migrations);
    }

    #[test]
    fn trained_is_no_worse_than_untrained_on_training_workload() {
        let sim = mini_sim();
        let untrained_cost = sim.run(QLearningScheduler::new(17)).report().total_cost_usd;
        let mut agent = QLearningScheduler::new(17);
        agent.train(&sim, 5);
        let trained_cost = sim.run(agent).report().total_cost_usd;
        // Q-learning trains on the reward it optimizes: allow slack but
        // catch gross regressions.
        assert!(
            trained_cost <= untrained_cost * 1.25,
            "trained {trained_cost} vs untrained {untrained_cost}"
        );
    }

    #[test]
    fn state_bucketing_is_in_range() {
        let sim = mini_sim();
        struct Probe;
        impl Scheduler for Probe {
            fn name(&self) -> &str {
                "Probe"
            }
            fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
                let s = QLearningScheduler::state_of(view);
                assert!(s < BUCKETS * BUCKETS);
                Vec::new()
            }
        }
        sim.run(Probe);
    }
}
