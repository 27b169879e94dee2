//! MadVM: dynamic VM management via an approximate MDP (Han et al.,
//! INFOCOM 2016) — the RL comparator of §6.3.
//!
//! Re-implemented from its description in the Megh paper and the source
//! publication: MadVM keeps, *per VM*, a discretized-utilization MDP with
//! frequentist transition estimates learned online, and on every step
//! runs a value-iteration sweep for each VM to estimate its expected
//! discounted future demand ("MadVM tries to simultaneously optimize the
//! utility functions of each of the VMs. Simultaneous optimization
//! requires bookkeeping of transition functions and evaluation of key
//! states for each of them"). Migration decisions then move the
//! highest-future-demand VMs off (expected-)overloaded hosts and gather
//! VMs from expected-underloaded hosts.
//!
//! The per-step `O(N · L² · iterations)` value-iteration cost is the
//! point: it is why MadVM's execution time is orders of magnitude above
//! Megh's (Figures 4(d), 5(d)) and why it "fails to scale-up for the
//! complete PlanetLab or Google Cluster".

use std::collections::BTreeSet;

use megh_sim::{DataCenterView, MigrationRequest, PmId, Scheduler, VmId};

use crate::total_f64;

/// Number of discretized utilization levels `L`.
const N_LEVELS: usize = 20;
/// Discount factor (the paper sets 0.5 for both Megh and MadVM, §6.1).
const GAMMA: f64 = 0.5;
/// Value-iteration convergence threshold.
const VI_EPSILON: f64 = 1e-9;
/// Hard cap on value-iteration sweeps per VM per step.
const MAX_VI_ITERATIONS: usize = 500;
/// Expected-utilization fraction below which a host is a consolidation
/// source.
const UNDERLOAD_THRESHOLD: f64 = 0.2;

/// The MadVM scheduler. [`Default`] is its constructor: a scheduler with
/// no learned transitions.
///
/// # Examples
///
/// ```
/// use megh_baselines::MadVmScheduler;
/// use megh_sim::Scheduler;
///
/// let s = MadVmScheduler::default();
/// assert_eq!(s.name(), "MadVM");
/// ```
#[derive(Debug, Clone, Default)]
pub struct MadVmScheduler {
    /// `counts[vm][l][l']`: observed transitions level `l` → `l'`.
    counts: Vec<Vec<Vec<f64>>>,
    prev_level: Vec<Option<usize>>,
    /// Expected next utilization per VM, refreshed each step.
    expected_util: Vec<f64>,
    /// Discounted future-demand value per VM, refreshed each step.
    vm_value: Vec<f64>,
}

impl MadVmScheduler {
    /// Discretization level for a utilization fraction in `[0, 1]`.
    fn level(util_fraction: f64) -> usize {
        let l = (util_fraction.clamp(0.0, 1.0) * N_LEVELS as f64) as usize;
        l.min(N_LEVELS - 1)
    }

    /// Midpoint utilization of a level.
    fn level_mid(level: usize) -> f64 {
        (level as f64 + 0.5) / N_LEVELS as f64
    }

    fn ensure_capacity(&mut self, n_vms: usize) {
        while self.counts.len() < n_vms {
            self.counts.push(vec![vec![0.0; N_LEVELS]; N_LEVELS]);
            self.prev_level.push(None);
            self.expected_util.push(0.0);
            self.vm_value.push(0.0);
        }
    }

    /// One frequentist transition update + value-iteration sweep per VM.
    fn learn_and_evaluate(&mut self, view: &DataCenterView) {
        for vm in view.vms() {
            let j = vm.0;
            let util = view.vm_utilization_percent(vm) / 100.0;
            let cur = Self::level(util);
            if let Some(prev) = self.prev_level[j] {
                self.counts[j][prev][cur] += 1.0;
            }
            self.prev_level[j] = Some(cur);

            // Transition probabilities (uniform prior on unseen rows).
            let mut p = vec![vec![1.0 / N_LEVELS as f64; N_LEVELS]; N_LEVELS];
            for (l, row) in self.counts[j].iter().enumerate() {
                let total: f64 = row.iter().sum();
                if total > 0.0 {
                    for (l2, &c) in row.iter().enumerate() {
                        p[l][l2] = c / total;
                    }
                }
            }

            // Value iteration: V(l) = mid(l) + γ Σ P(l'|l) V(l').
            // This per-VM sweep is MadVM's deliberate computational load.
            let mut v = vec![0.0f64; N_LEVELS];
            for _ in 0..MAX_VI_ITERATIONS {
                let mut max_delta = 0.0f64;
                let mut next = vec![0.0f64; N_LEVELS];
                for l in 0..N_LEVELS {
                    let future: f64 = (0..N_LEVELS).map(|l2| p[l][l2] * v[l2]).sum();
                    next[l] = Self::level_mid(l) + GAMMA * future;
                    max_delta = max_delta.max((next[l] - v[l]).abs());
                }
                v = next;
                if max_delta < VI_EPSILON {
                    break;
                }
            }
            self.vm_value[j] = v[cur];
            self.expected_util[j] = (0..N_LEVELS)
                .map(|l2| p[cur][l2] * Self::level_mid(l2))
                .sum();
        }
    }

    /// Expected MIPS demand of a VM next step.
    fn expected_demand(&self, view: &DataCenterView, vm: VmId) -> f64 {
        self.expected_util[vm.0] * view.vm_mips(vm)
    }

    /// Chooses a destination for `vm`.
    ///
    /// Capacity feasibility is checked against the *live* expected
    /// loads (`live_used`, which includes this step's earlier
    /// decisions), but the power score ranks hosts by the *stale*
    /// per-VM snapshot (`scored_used`): each VM optimizes its own
    /// utility against the state it observed, which is the
    /// per-VM-simultaneous-optimization structure the paper criticises
    /// in MadVM. With `scored_used == live_used` this degenerates to
    /// fully coordinated placement.
    fn best_destination(
        &self,
        view: &DataCenterView,
        vm: VmId,
        scored_used: &[f64],
        live_used: &[f64],
        excluded: &BTreeSet<PmId>,
    ) -> Option<PmId> {
        let demand = self.expected_demand(view, vm);
        let mut best: Option<(PmId, f64)> = None;
        for host in view.hosts() {
            if excluded.contains(&host) || host == view.host_of(vm) || view.is_down(host) {
                continue;
            }
            let cap = view.host_mips(host);
            if cap <= 0.0 {
                continue;
            }
            if (live_used[host.0] + demand) / cap > view.beta_overload() {
                continue;
            }
            let before = scored_used[host.0] / cap;
            let after = before + demand / cap;
            let increase = view.host_power_watts(host, after) - view.host_power_watts(host, before);
            let wake = if view.is_asleep(host) {
                view.host_power_watts(host, 0.0)
            } else {
                0.0
            };
            let score = increase + wake;
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((host, score));
            }
        }
        best.map(|(h, _)| h)
    }
}

impl Scheduler for MadVmScheduler {
    fn name(&self) -> &str {
        "MadVM"
    }

    fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
        self.ensure_capacity(view.n_vms());
        self.learn_and_evaluate(view);

        // Expected per-host load under the learned dynamics.
        let mut expected_used = vec![0.0f64; view.n_hosts()];
        for vm in view.vms() {
            expected_used[view.host_of(vm).0] += self.expected_demand(view, vm);
        }

        let overloaded: BTreeSet<PmId> = view
            .hosts()
            .filter(|&h| {
                let cap = view.host_mips(h);
                view.is_down(h)
                    || (cap > 0.0
                        && (expected_used[h.0] / cap > view.beta_overload()
                            || view.is_overloaded(h)))
            })
            .collect();

        let mut requests = Vec::new();

        // Relieve (expected-)overloaded hosts: evict the VMs with the
        // largest discounted future demand first.
        //
        // Faithful to the paper's criticism of MadVM: each VM optimizes
        // its *own* utility against the same stale load snapshot
        // ("MadVM tries to simultaneously maximize the expected
        // cumulative rewards of each of the VMs"). Concurrent evictions
        // therefore pile onto the same attractive destination, which is
        // a real source of MadVM's extra migrations and slower
        // convergence relative to Megh (Figures 4(b), 5(b)).
        let snapshot = expected_used.clone();
        // BTreeSet iterates in host-id order, so eviction order — and with
        // it the whole decision — is a pure function of the view.
        for &host in &overloaded {
            let cap = view.host_mips(host);
            if cap <= 0.0 {
                continue;
            }
            let mut vms = view.vms_on(host);
            vms.sort_by(|&a, &b| {
                total_f64(self.vm_value[b.0], self.vm_value[a.0]).then(a.0.cmp(&b.0))
            });
            let mut drained = 0.0;
            let drain_target = if view.is_down(host) {
                -1.0 // a down host must be fully evacuated
            } else {
                view.beta_overload()
            };
            for vm in vms {
                if (snapshot[host.0] - drained) / cap <= drain_target {
                    break;
                }
                if let Some(target) =
                    self.best_destination(view, vm, &snapshot, &expected_used, &overloaded)
                {
                    let demand = self.expected_demand(view, vm);
                    drained += demand;
                    expected_used[host.0] -= demand;
                    expected_used[target.0] += demand;
                    requests.push(MigrationRequest::new(vm, target));
                }
            }
        }

        // Consolidate expected-underloaded hosts.
        let moving: BTreeSet<VmId> = requests.iter().map(|r| r.vm).collect();
        let mut sources: Vec<PmId> = view
            .hosts()
            .filter(|&h| {
                let cap = view.host_mips(h);
                !view.is_asleep(h)
                    && cap > 0.0
                    && !overloaded.contains(&h)
                    && expected_used[h.0] / cap < UNDERLOAD_THRESHOLD
                    && view.vms_on(h).iter().all(|vm| !moving.contains(vm))
            })
            .collect();
        sources.sort_by(|&a, &b| {
            let ua = expected_used[a.0] / view.host_mips(a).max(1e-9);
            let ub = expected_used[b.0] / view.host_mips(b).max(1e-9);
            total_f64(ua, ub).then(a.0.cmp(&b.0))
        });
        let mut evacuating: BTreeSet<PmId> = BTreeSet::new();
        for host in sources {
            let vms = view.vms_on(host);
            let mut excluded: BTreeSet<PmId> = overloaded.clone();
            excluded.insert(host);
            excluded.extend(evacuating.iter().copied());
            for h in view.hosts() {
                if view.is_asleep(h) {
                    excluded.insert(h);
                }
            }
            let mut staged = Vec::new();
            let mut trial_used = expected_used.clone();
            let mut ok = true;
            for &vm in &vms {
                match self.best_destination(view, vm, &trial_used, &trial_used.clone(), &excluded) {
                    Some(target) => {
                        let demand = self.expected_demand(view, vm);
                        trial_used[view.host_of(vm).0] -= demand;
                        trial_used[target.0] += demand;
                        staged.push(MigrationRequest::new(vm, target));
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok && !staged.is_empty() {
                expected_used = trial_used;
                evacuating.insert(host);
                requests.extend(staged);
            }
        }

        requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megh_sim::{DataCenterConfig, InitialPlacement, Simulation, VmSpec};
    use megh_trace::{PlanetLabConfig, WorkloadTrace};

    #[test]
    fn runs_end_to_end() {
        let trace = PlanetLabConfig::new(8, 3).generate_steps(30);
        let sim = Simulation::new(DataCenterConfig::paper_planetlab(4, 8), trace).unwrap();
        let outcome = sim.run(MadVmScheduler::default());
        assert_eq!(outcome.records().len(), 30);
        assert!(outcome.report().total_cost_usd > 0.0);
    }

    #[test]
    fn relieves_persistent_overload() {
        let mut config = DataCenterConfig::paper_planetlab(3, 2);
        config.vms = vec![
            VmSpec::new(2500.0, 1024.0, 100.0),
            VmSpec::new(2500.0, 512.0, 100.0),
        ];
        config.initial_placement = InitialPlacement::Explicit(vec![0, 0]);
        let trace = WorkloadTrace::from_rows(300, vec![vec![100.0; 8]; 2]).unwrap();
        let sim = Simulation::new(config, trace).unwrap();
        let outcome = sim.run(MadVmScheduler::default());
        assert!(outcome.report().total_migrations >= 1);
        assert_eq!(outcome.records().last().unwrap().overloaded_hosts, 0);
    }

    #[test]
    fn consolidates_underloaded_hosts() {
        let mut config = DataCenterConfig::paper_planetlab(4, 4);
        config.vms = vec![VmSpec::new(500.0, 512.0, 100.0); 4];
        let trace = WorkloadTrace::from_rows(300, vec![vec![5.0; 10]; 4]).unwrap();
        let sim = Simulation::new(config, trace).unwrap();
        let outcome = sim.run(MadVmScheduler::default());
        let last = outcome.records().last().unwrap().active_hosts;
        assert!(last <= 2, "expected consolidation, got {last} active hosts");
    }

    #[test]
    fn level_discretization_is_sound() {
        let level = MadVmScheduler::level;
        assert_eq!(level(0.0), 0);
        assert_eq!(level(0.025), 0);
        assert_eq!(level(0.975), 19);
        assert_eq!(level(1.0), 19);
        assert_eq!(level(2.0), 19); // overload clamps
        assert!((MadVmScheduler::level_mid(0) - 0.025).abs() < 1e-12);
        assert!((MadVmScheduler::level_mid(19) - 0.975).abs() < 1e-12);
    }

    #[test]
    fn transition_learning_predicts_flat_workload() {
        let mut config = DataCenterConfig::paper_planetlab(2, 1);
        config.vms = vec![VmSpec::new(1000.0, 512.0, 100.0)];
        let trace = WorkloadTrace::from_rows(300, vec![vec![47.5; 20]]).unwrap();
        let sim = Simulation::new(config, trace).unwrap();
        let mut scheduler = MadVmScheduler::default();
        sim.run(&mut scheduler);
        // Level of 0.475 with L=20 is 9, midpoint 0.475: after 20 flat
        // observations the expectation must be pinned there.
        assert!((scheduler.expected_util[0] - 0.475).abs() < 1e-6);
    }

    #[test]
    fn is_deterministic() {
        let trace = PlanetLabConfig::new(6, 4).generate_steps(20);
        let sim = Simulation::new(DataCenterConfig::paper_planetlab(3, 6), trace).unwrap();
        let a = sim.run(MadVmScheduler::default());
        let b = sim.run(MadVmScheduler::default());
        assert_eq!(a.final_placement(), b.final_placement());
        assert_eq!(a.report().total_migrations, b.report().total_migrations);
    }
}
