//! Hierarchical (sharded) Megh: two-level placement for fleets far
//! beyond the flat `d = N × M` basis.
//!
//! The flat agent's projected dimension grows as the *product* of fleet
//! sizes — 10 000 hosts × 13 200 VMs is a 132-million-dimensional basis
//! whose Sherman–Morrison state no single operator should carry. The
//! scalable-RL literature (see PAPERS.md) decomposes the decision
//! instead: pick a **cluster** first with a cheap global policy, then
//! pick a **host inside that cluster** with a full RL agent whose state
//! is small. [`HierMegh`] realises that split:
//!
//! * Hosts and VMs are statically partitioned into `n_shards`
//!   contiguous shards; shard `c` owns `N_c × M_c ≈ (N/S) × (M/S)`
//!   action pairs, so per-shard LSPI state is bounded by the shard
//!   size, not the fleet size.
//! * A **coordinator** scores every shard from O(1) cached aggregates —
//!   utilization, awake-host fraction, and the shard agent's recent
//!   evaluation residual — and routes the step's decision budget to the
//!   shard that needs attention most. Aggregates refresh lazily (a
//!   rotating handful of shards per decide) so a decide never scans the
//!   whole fleet; a deterministic round-robin interleave guarantees
//!   every shard keeps receiving traffic.
//! * Each shard runs the full Megh actor–critic of `agent.rs` over its
//!   local basis, with its own [`SparseLspi`], Boltzmann policy, and
//!   exploration RNG, and its own learning-paused (frozen) state.
//! * [`PeriodicMeghAgent`](crate::PeriodicMeghAgent)-style phase
//!   windows drive **auto-freeze**: a shard whose Q-table stopped
//!   growing over a phase window freezes — learning and annealing
//!   pause, the critic only previews — and a frozen shard whose preview
//!   residual drifts past its baseline thaws back to learning.
//!
//! A VM's *home* shard is fixed; the local action space covers exactly
//! the home shard's hosts, so every emitted [`MigrationRequest`]
//! targets an in-shard (hence in-range) host. A VM that starts outside
//! its home shard is simply pulled in by its shard's first migration
//! decisions.

// This module is on the Megh decision hot path: steady-state calls must
// not allocate. Enforced by `cargo run -p lint`.
// lint: deny_alloc
#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)
)]

use std::num::NonZeroUsize;

use rand::rngs::StdRng;
use rand::SeedableRng;

use megh_sim::{DataCenterView, MigrationRequest, PmId, Scheduler, StepFeedback, VmId};

use crate::{ActionSpace, BoltzmannPolicy, MeghConfig, SparseLspi};

/// Configuration of the hierarchical scheduler.
///
/// `base` carries the *global* dimensions and the RL parameters every
/// shard inherits (γ, Temp₀, ε, actions-per-step, masking, seed); each
/// shard derives its own δ from its local dimension, following the
/// paper's "δ as d" convention.
///
/// # Examples
///
/// ```
/// use megh_core::{HierConfig, HierMegh};
///
/// let cfg = HierConfig::paper_defaults(24, 12, 3);
/// let agent = HierMegh::new(cfg);
/// assert_eq!(agent.n_shards(), 3);
/// assert_eq!(agent.shard_hosts(0), 0..4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HierConfig {
    /// Global dimensions plus the shared RL parameters.
    pub base: MeghConfig,
    /// Number of shards the fleet is split into (`1 ..= n_hosts`).
    pub n_shards: usize,
    /// Phase windows per period for the auto-freeze detector.
    pub n_phases: usize,
    /// Steps per period (288 five-minute steps = 24 h, as in
    /// `PeriodicMeghAgent`).
    pub steps_per_period: usize,
    /// A shard freezes when its Q-table grew by at most this fraction
    /// over a completed phase window.
    pub freeze_growth_limit: f64,
    /// A frozen shard thaws when its evaluation residual exceeds this
    /// multiple of the residual observed in its first frozen window.
    pub thaw_drift: f64,
    /// Shards whose cached aggregates refresh per decide (rotating).
    pub refresh_per_decide: usize,
    /// Every `round_robin_every`-th decide bypasses the scores and
    /// picks the next shard in order, so every shard keeps learning
    /// (and frozen shards keep accumulating previews). `0` disables.
    pub round_robin_every: usize,
}

impl HierConfig {
    /// Paper-style defaults for a fleet of `n_vms` VMs on `n_hosts`
    /// hosts split into `n_shards` shards.
    pub fn paper_defaults(n_vms: usize, n_hosts: usize, n_shards: usize) -> Self {
        Self {
            base: MeghConfig::paper_defaults(n_vms, n_hosts),
            n_shards,
            n_phases: 4,
            steps_per_period: 288,
            freeze_growth_limit: 0.02,
            thaw_drift: 4.0,
            refresh_per_decide: 4,
            round_robin_every: 4,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), &'static str> {
        self.divisors().map(|_| ())
    }

    /// Validates, and hands back the two counts the shard and phase
    /// arithmetic divides by in a type that cannot be zero.
    fn divisors(&self) -> Result<Divisors, &'static str> {
        self.base.validate()?;
        let n_shards = NonZeroUsize::new(self.n_shards).ok_or("n_shards must be at least 1")?;
        if self.n_shards > self.base.n_hosts.max(1) {
            return Err("n_shards must not exceed n_hosts");
        }
        if self.n_phases == 0 {
            return Err("n_phases must be at least 1");
        }
        let steps_per_period = NonZeroUsize::new(self.steps_per_period)
            .ok_or("steps_per_period must be at least 1")?;
        // NaN fails both comparisons, so it is rejected as well.
        if self.freeze_growth_limit < 0.0 || !self.freeze_growth_limit.is_finite() {
            return Err("freeze_growth_limit must be non-negative");
        }
        if self.thaw_drift < 1.0 || !self.thaw_drift.is_finite() {
            return Err("thaw_drift must be at least 1");
        }
        Ok(Divisors {
            n_shards,
            steps_per_period,
        })
    }
}

/// `HierConfig::{n_shards, steps_per_period}` as validated once by
/// [`HierMegh::new`]: every `/` and `%` below takes its divisor from here.
#[derive(Debug, Clone, Copy)]
struct Divisors {
    n_shards: NonZeroUsize,
    steps_per_period: NonZeroUsize,
}

/// The contiguous slice `[s·total/n, (s+1)·total/n)` of a resource
/// split into `n` shards.
fn split_range(total: usize, s: usize, n: NonZeroUsize) -> std::ops::Range<usize> {
    (s * total / n)..((s + 1) * total / n)
}

/// The shard owning element `index` of a resource of `total` elements
/// split by [`split_range`] (its arithmetic inverse); 0 when `total == 0`.
fn shard_of(index: usize, total: usize, n: NonZeroUsize) -> usize {
    // `(index + 1) · n ≥ 1`, so the subtraction never saturates.
    NonZeroUsize::new(total).map_or(0, |total| ((index + 1) * n.get()).saturating_sub(1) / total)
}

/// SplitMix64 finalizer: derives independent per-shard exploration
/// seeds from `(base seed, shard index)`.
fn shard_seed(seed: u64, shard: usize) -> u64 {
    let mut z = seed
        .wrapping_add((shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One cluster's local Megh actor–critic plus its freeze bookkeeping.
#[derive(Debug, Clone)]
struct Shard {
    /// First global VM id owned by this shard.
    vm_lo: usize,
    /// First global host id owned by this shard.
    host_lo: usize,
    space: ActionSpace,
    lspi: SparseLspi,
    policy: BoltzmannPolicy,
    rng: StdRng,
    pending: Vec<usize>,
    vm_taken: Vec<bool>,
    last_cost: Option<f64>,
    /// `true` while the critic applies updates; `false` while frozen.
    learning: bool,
    /// Phase window the shard last acted in.
    last_phase: usize,
    /// Q-table size at the start of the current phase window.
    phase_nnz: usize,
    /// Residual of the first completed frozen window, the thaw baseline.
    frozen_baseline: Option<f64>,
    eval_residual_abs: f64,
    eval_previews: usize,
}

impl Shard {
    fn new(cfg: &HierConfig, s: usize, n_shards: NonZeroUsize) -> Self {
        let vms = split_range(cfg.base.n_vms, s, n_shards);
        let hosts = split_range(cfg.base.n_hosts, s, n_shards);
        let space = ActionSpace::new(vms.len(), hosts.len());
        // Paper convention, per shard: δ_c = d_c.
        let delta = space.dim().max(1) as f64;
        let n_vms = vms.len();
        Self {
            vm_lo: vms.start,
            host_lo: hosts.start,
            space,
            lspi: SparseLspi::new(space.dim(), delta, cfg.base.gamma),
            policy: BoltzmannPolicy::new(cfg.base.temp0, cfg.base.epsilon),
            rng: StdRng::seed_from_u64(shard_seed(cfg.base.seed, s)),
            // One-time construction; both grow once and are then reused.
            pending: Vec::new(),          // lint: allow(alloc)
            vm_taken: vec![false; n_vms], // lint: allow(alloc)
            last_cost: None,
            learning: true,
            last_phase: 0,
            phase_nnz: 0,
            frozen_baseline: None,
            eval_residual_abs: 0.0,
            eval_previews: 0,
        }
    }

    fn eval_residual_mean(&self) -> Option<f64> {
        (self.eval_previews > 0).then(|| self.eval_residual_abs / self.eval_previews as f64)
    }

    fn freeze(&mut self) {
        self.learning = false;
        self.frozen_baseline = None;
        self.eval_residual_abs = 0.0;
        self.eval_previews = 0;
    }

    fn thaw(&mut self) {
        self.learning = true;
    }

    /// Critic pass over the previous action(s) of this shard: update
    /// while learning, preview (accumulating the drift residual) while
    /// frozen. Mirrors `MeghAgent::learn_pending`.
    fn learn_pending(&mut self) {
        if let Some(cost) = self.last_cost.take() {
            for &a_prev in &self.pending {
                let a_next = self.policy.greedy(&self.lspi, &mut self.rng);
                if self.learning {
                    self.lspi.update(a_prev, a_next, cost);
                } else if let Some(coeff) = self.lspi.preview_update(a_prev, a_next, cost) {
                    self.eval_residual_abs += coeff.abs();
                    self.eval_previews += 1;
                }
            }
        }
        self.pending.clear();
    }

    /// Phase-boundary bookkeeping: freeze a shard whose Q-table went
    /// quiet over the completed window, thaw a frozen shard whose
    /// preview residual drifted past its baseline.
    fn tick_phase(&mut self, phase: usize, cfg: &HierConfig) {
        if phase == self.last_phase {
            return;
        }
        self.last_phase = phase;
        if self.learning {
            let nnz = self.lspi.explicit_nnz();
            let grown = nnz.saturating_sub(self.phase_nnz);
            let stable = nnz > 0 && (grown as f64) <= cfg.freeze_growth_limit * nnz as f64;
            self.phase_nnz = nnz;
            if stable {
                self.freeze();
            }
        } else {
            if let Some(residual) = self.eval_residual_mean() {
                match self.frozen_baseline {
                    None => self.frozen_baseline = Some(residual),
                    Some(baseline) => {
                        if residual > cfg.thaw_drift * baseline + f64::EPSILON {
                            self.thaw();
                            self.phase_nnz = self.lspi.explicit_nnz();
                        }
                    }
                }
            }
            self.eval_residual_abs = 0.0;
            self.eval_previews = 0;
        }
    }

    /// The shard-local Megh decide: sample actions over the `N_c × M_c`
    /// basis, map them to global ids, and emit migrations into `out`.
    fn decide_local(
        &mut self,
        view: &DataCenterView,
        cfg: &HierConfig,
        steps_per_period: NonZeroUsize,
        out: &mut Vec<MigrationRequest>,
    ) {
        if self.space.dim() == 0 {
            return;
        }
        self.learn_pending();
        self.tick_phase(phase_of(view.step(), cfg.n_phases, steps_per_period), cfg);
        if self.learning {
            self.policy.decay();
        }
        self.vm_taken.iter_mut().for_each(|t| *t = false);
        let (space, vm_lo, host_lo) = (self.space, self.vm_lo, self.host_lo);
        for _ in 0..cfg.base.actions_per_step {
            let sampled = if cfg.base.mask_sleeping_targets {
                self.policy.sample_masked(&self.lspi, &mut self.rng, |a| {
                    let action = space.decode(a);
                    let target = PmId(host_lo + action.target.0);
                    let source = view.host_of(VmId(vm_lo + action.vm.0));
                    target == source || !view.is_asleep(target) || view.is_overloaded(source)
                })
            } else {
                self.policy.sample(&self.lspi, &mut self.rng)
            };
            let Some(a) = sampled else {
                break;
            };
            let action = self.space.decode(a);
            let vm_idx = action.vm.0;
            // Contract: decode() yields in-space actions, and vm_taken
            // is sized to the shard's VM count at construction.
            debug_assert!(vm_idx < self.vm_taken.len());
            let Some(taken) = self.vm_taken.get_mut(vm_idx) else {
                continue;
            };
            if std::mem::replace(taken, true) {
                continue; // one decision per VM per step
            }
            self.pending.push(a);
            let vm = VmId(self.vm_lo + vm_idx);
            let target = PmId(self.host_lo + action.target.0);
            if view.host_of(vm) != target {
                out.push(MigrationRequest::new(vm, target));
            }
        }
    }
}

/// The phase index for a step (identical to `PeriodicMeghAgent`).
fn phase_of(step: usize, n_phases: usize, period: NonZeroUsize) -> usize {
    (step % period) * n_phases / period
}

/// Cached O(1) coordinator aggregates of one shard.
#[derive(Debug, Clone, Copy)]
struct ShardAgg {
    /// Demand / capacity over the shard's hosts.
    utilization: f64,
    /// Fraction of the shard's hosts that are awake (running VMs).
    awake_frac: f64,
}

/// The two-level scheduler: coordinator over per-shard Megh agents.
///
/// # Examples
///
/// ```
/// use megh_core::{HierConfig, HierMegh};
/// use megh_sim::{DataCenterConfig, Simulation};
/// use megh_trace::PlanetLabConfig;
///
/// let trace = PlanetLabConfig::new(12, 7).generate_steps(40);
/// let config = DataCenterConfig::paper_planetlab(6, 12);
/// let agent = HierMegh::new(HierConfig::paper_defaults(12, 6, 2));
/// let outcome = Simulation::new(config, trace)?.run(agent);
/// assert_eq!(outcome.records().len(), 40);
/// # Ok::<(), megh_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HierMegh {
    config: HierConfig,
    divisors: Divisors,
    shards: Vec<Shard>,
    agg: Vec<ShardAgg>,
    /// Next shard whose aggregates the rotating refresh touches.
    refresh_cursor: usize,
    /// Next shard the round-robin interleave hands the budget to.
    rr_cursor: usize,
    /// Shard that acted last step (receives the next observed cost).
    last_shard: Option<usize>,
    decides: usize,
}

impl HierMegh {
    /// Creates the hierarchical scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`HierConfig::validate`].
    pub fn new(config: HierConfig) -> Self {
        let divisors = match config.divisors() {
            Ok(divisors) => divisors,
            // Documented contract, asserted by tests. lint: allow(panic)
            Err(msg) => panic!("invalid hierarchical Megh configuration: {msg}"),
        };
        // One-time construction of the shard fleet.
        let shards: Vec<Shard> = (0..config.n_shards)
            .map(|s| Shard::new(&config, s, divisors.n_shards))
            .collect(); // lint: allow(alloc)
                        // Optimistic defaults until the rotating refresh reaches a
                        // shard: fully awake, idle.
        let agg = vec![ // lint: allow(alloc)
            ShardAgg {
                utilization: 0.0,
                awake_frac: 1.0,
            };
            config.n_shards
        ];
        Self {
            config,
            divisors,
            shards,
            agg,
            refresh_cursor: 0,
            rr_cursor: 0,
            last_shard: None,
            decides: 0,
        }
    }

    /// Convenience constructor from a flat config plus a shard count.
    ///
    /// # Panics
    ///
    /// Panics if the resulting configuration is invalid.
    pub fn sharded(base: MeghConfig, n_shards: usize) -> Self {
        let mut config = HierConfig::paper_defaults(base.n_vms, base.n_hosts, n_shards);
        config.base = base;
        Self::new(config)
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &HierConfig {
        &self.config
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The contiguous global host range owned by shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn shard_hosts(&self, s: usize) -> std::ops::Range<usize> {
        assert!(s < self.n_shards(), "shard index out of range");
        split_range(self.config.base.n_hosts, s, self.divisors.n_shards)
    }

    /// The contiguous global VM range owned by shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn shard_vms(&self, s: usize) -> std::ops::Range<usize> {
        assert!(s < self.n_shards(), "shard index out of range");
        split_range(self.config.base.n_vms, s, self.divisors.n_shards)
    }

    /// The shard owning global host `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn shard_of_host(&self, host: usize) -> usize {
        let n_hosts = self.config.base.n_hosts;
        assert!(host < n_hosts, "host index out of range");
        shard_of(host, n_hosts, self.divisors.n_shards)
    }

    /// The shard owning global VM `vm`.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn shard_of_vm(&self, vm: usize) -> usize {
        let n_vms = self.config.base.n_vms;
        assert!(vm < n_vms, "vm index out of range");
        shard_of(vm, n_vms, self.divisors.n_shards)
    }

    /// Total explicit non-zeros across all shard operators (the
    /// hierarchical counterpart of Figure 7's Q-table size).
    pub fn qtable_nnz(&self) -> usize {
        self.shards.iter().map(|s| s.lspi.explicit_nnz()).sum()
    }

    /// The largest single-shard Q-table — the "per-shard memory stays
    /// bounded" metric of the scalability sweep.
    pub fn max_shard_qtable_nnz(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lspi.explicit_nnz())
            .max()
            .unwrap_or(0)
    }

    /// Number of shards whose learning is currently paused (frozen).
    pub fn frozen_shards(&self) -> usize {
        self.shards.iter().filter(|s| !s.learning).count()
    }

    /// Read access to shard `s`'s LSPI state (tests, benches).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn shard_lspi(&self, s: usize) -> &SparseLspi {
        match self.shards.get(s) {
            Some(shard) => &shard.lspi,
            // Documented contract. lint: allow(panic)
            None => panic!("shard index out of range"),
        }
    }

    /// Pauses learning on every shard (evaluation mode: critic previews).
    pub fn freeze_all(&mut self) {
        for shard in &mut self.shards {
            shard.freeze();
        }
    }

    /// Thaws every shard back to learning.
    pub fn thaw_all(&mut self) {
        for shard in &mut self.shards {
            shard.thaw();
        }
    }

    /// Decides taken so far.
    pub fn steps(&self) -> usize {
        self.decides
    }

    /// Recomputes shard `s`'s cached aggregates from the view — the
    /// only coordinator work that touches per-host state, `O(M_c)` for
    /// one shard and rotated across decides.
    fn refresh_agg(&mut self, s: usize, view: &DataCenterView) {
        // Contract: one ShardAgg per shard, refreshed by shard index.
        debug_assert!(s < self.agg.len());
        let hosts = split_range(self.config.base.n_hosts, s, self.divisors.n_shards);
        let n = hosts.len();
        if n == 0 {
            return;
        }
        let mut used = 0.0;
        let mut cap = 0.0;
        let mut awake = 0usize;
        for h in hosts {
            let pm = PmId(h);
            used += view.host_used_mips(pm);
            cap += view.host_mips(pm);
            if !view.is_asleep(pm) {
                awake += 1;
            }
        }
        if let Some(agg) = self.agg.get_mut(s) {
            *agg = ShardAgg {
                utilization: if cap > 0.0 { used / cap } else { 0.0 },
                awake_frac: awake as f64 / n as f64,
            };
        }
    }

    /// The coordinator score of one shard, from cached aggregates plus
    /// the shard agent's O(1) drift diagnostic. Higher = more in need
    /// of the decision budget: busy shards (migration pressure),
    /// un-consolidated shards (many awake hosts), and frozen shards
    /// whose policy is drifting. The weights are heuristic; correctness
    /// never depends on them (any shard the score neglects is still
    /// reached by the round-robin interleave).
    fn score(agg: &ShardAgg, shard: &Shard) -> f64 {
        let drift = match shard.eval_residual_mean() {
            Some(r) => r / (1.0 + r),
            None => 0.0,
        };
        agg.utilization + 0.5 * agg.awake_frac + 0.5 * drift
    }
}

impl Scheduler for HierMegh {
    fn name(&self) -> &str {
        "Megh-H"
    }

    // lint: depth_budget(12)
    fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
        assert_eq!(
            (view.n_vms(), view.n_hosts()),
            (self.config.base.n_vms, self.config.base.n_hosts),
            "view dimensions do not match the hierarchical Megh configuration"
        );
        // An empty Vec never touches the heap.
        let mut requests = Vec::new(); // lint: allow(alloc)
        if self.config.base.n_vms == 0 {
            return requests;
        }

        // Lazy aggregate refresh: a rotating handful of shards per
        // decide keeps coordinator cost O(refresh · M_c + S), never a
        // full-fleet scan.
        let s_count = self.divisors.n_shards;
        debug_assert_eq!(s_count.get(), self.shards.len());
        for _ in 0..self.config.refresh_per_decide.min(s_count.get()) {
            let s = self.refresh_cursor;
            self.refresh_agg(s, view);
            self.refresh_cursor = (self.refresh_cursor + 1) % s_count;
        }

        // Level 1: pick the cluster. A deterministic round-robin
        // interleave guarantees starvation-freedom regardless of the
        // score weights.
        let round_robin = self.config.round_robin_every > 0
            && self.decides.is_multiple_of(self.config.round_robin_every);
        let chosen = if round_robin {
            let s = self.rr_cursor;
            self.rr_cursor = (self.rr_cursor + 1) % s_count;
            s
        } else {
            // Contract: agg and shards are parallel per-shard arrays.
            debug_assert_eq!(self.agg.len(), self.shards.len());
            let mut best = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for (s, (agg, shard)) in self.agg.iter().zip(&self.shards).enumerate() {
                let score = Self::score(agg, shard);
                if score.total_cmp(&best_score) == std::cmp::Ordering::Greater {
                    best = s;
                    best_score = score;
                }
            }
            best
        };
        self.decides += 1;

        // Level 2: the chosen cluster's local Megh picks VM and host.
        debug_assert!(chosen < self.shards.len());
        if let Some(shard) = self.shards.get_mut(chosen) {
            let period = self.divisors.steps_per_period;
            shard.decide_local(view, &self.config, period, &mut requests);
        }
        self.last_shard = Some(chosen);
        requests
    }

    // lint: depth_budget(2)
    fn observe(&mut self, feedback: &StepFeedback) {
        // Route the observed cost to the shard whose action caused it.
        if let Some(s) = self.last_shard {
            debug_assert!(s < self.shards.len());
            if let Some(shard) = self.shards.get_mut(s) {
                shard.last_cost = Some(feedback.total_cost_usd);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megh_sim::{DataCenterConfig, Simulation};
    use megh_trace::PlanetLabConfig;

    fn mini_sim(n_hosts: usize, n_vms: usize, steps: usize) -> Simulation {
        let trace = PlanetLabConfig::new(n_vms, 99).generate_steps(steps);
        Simulation::new(DataCenterConfig::paper_planetlab(n_hosts, n_vms), trace).unwrap()
    }

    #[test]
    fn partition_covers_fleet_without_overlap() {
        let agent = HierMegh::new(HierConfig::paper_defaults(23, 10, 3));
        let mut hosts_seen = 0;
        let mut vms_seen = 0;
        for s in 0..agent.n_shards() {
            let hosts = agent.shard_hosts(s);
            let vms = agent.shard_vms(s);
            assert_eq!(hosts.start, hosts_seen, "host ranges must be contiguous");
            assert_eq!(vms.start, vms_seen, "vm ranges must be contiguous");
            hosts_seen = hosts.end;
            vms_seen = vms.end;
            for h in hosts {
                assert_eq!(agent.shard_of_host(h), s);
            }
            for v in vms {
                assert_eq!(agent.shard_of_vm(v), s);
            }
        }
        assert_eq!(hosts_seen, 10);
        assert_eq!(vms_seen, 23);
    }

    #[test]
    fn runs_end_to_end_and_learns_per_shard() {
        let sim = mini_sim(6, 12, 120);
        let mut agent = HierMegh::new(HierConfig::paper_defaults(12, 6, 3));
        let outcome = sim.run(&mut agent);
        assert_eq!(outcome.records().len(), 120);
        assert!(agent.qtable_nnz() > 0, "no shard learned anything");
        assert!(agent.max_shard_qtable_nnz() <= agent.qtable_nnz());
        assert_eq!(agent.steps(), 120);
    }

    #[test]
    fn is_deterministic_under_seed() {
        let sim = mini_sim(4, 8, 60);
        let mk = || HierMegh::new(HierConfig::paper_defaults(8, 4, 2));
        let a = sim.run(mk());
        let b = sim.run(mk());
        let costs_a: Vec<f64> = a.records().iter().map(|r| r.total_cost_usd).collect();
        let costs_b: Vec<f64> = b.records().iter().map(|r| r.total_cost_usd).collect();
        assert_eq!(costs_a, costs_b);
        assert_eq!(a.final_placement(), b.final_placement());
    }

    #[test]
    fn requests_stay_inside_the_vm_home_shard() {
        // Wrap the agent so every emitted request is checked against
        // the static partition: the target host must belong to the
        // moved VM's home shard (hence always in range).
        struct Checker {
            inner: HierMegh,
        }
        impl Scheduler for Checker {
            fn name(&self) -> &str {
                "checker"
            }
            fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
                let requests = self.inner.decide(view);
                for r in &requests {
                    let home = self.inner.shard_of_vm(r.vm.0);
                    assert!(
                        self.inner.shard_hosts(home).contains(&r.target.0),
                        "vm {} (shard {home}) targeted out-of-shard host {}",
                        r.vm.0,
                        r.target.0
                    );
                }
                requests
            }
            fn observe(&mut self, feedback: &StepFeedback) {
                self.inner.observe(feedback);
            }
        }
        let sim = mini_sim(6, 13, 100);
        let mut checker = Checker {
            inner: HierMegh::new(HierConfig::paper_defaults(13, 6, 3)),
        };
        let outcome = sim.run(&mut checker);
        assert!(outcome.report().total_migrations > 0, "nothing migrated");
    }

    #[test]
    fn stable_shards_auto_freeze() {
        // Short phases so several windows complete; a learned fleet
        // goes quiet and freezes.
        let mut cfg = HierConfig::paper_defaults(8, 4, 2);
        cfg.steps_per_period = 40;
        cfg.n_phases = 4;
        let sim = mini_sim(4, 8, 400);
        let mut agent = HierMegh::new(cfg);
        sim.run(&mut agent);
        assert!(
            agent.frozen_shards() > 0,
            "no shard froze after 400 quiet steps"
        );
    }

    #[test]
    fn freeze_all_round_trips_q_values_bitwise() {
        let sim = mini_sim(4, 8, 80);
        let mut agent = HierMegh::new(HierConfig::paper_defaults(8, 4, 2));
        sim.run(&mut agent);
        let before: Vec<Vec<f64>> = (0..agent.n_shards())
            .map(|s| {
                (0..agent.shard_lspi(s).dim())
                    .map(|a| agent.shard_lspi(s).q(a))
                    .collect()
            })
            .collect();
        agent.freeze_all();
        assert_eq!(agent.frozen_shards(), 2);
        agent.thaw_all();
        assert_eq!(agent.frozen_shards(), 0);
        for (s, shard_before) in before.iter().enumerate() {
            for (a, &want) in shard_before.iter().enumerate() {
                assert_eq!(agent.shard_lspi(s).q(a), want, "shard {s} action {a}");
            }
        }
    }

    #[test]
    fn empty_fleet_is_handled() {
        let trace = megh_trace::WorkloadTrace::from_rows(300, vec![]).unwrap();
        let sim = Simulation::new(DataCenterConfig::paper_planetlab(2, 0), trace).unwrap();
        let outcome = sim.run(HierMegh::new(HierConfig::paper_defaults(0, 2, 2)));
        assert_eq!(outcome.report().total_migrations, 0);
    }

    #[test]
    #[should_panic(expected = "n_shards must not exceed n_hosts")]
    fn too_many_shards_is_rejected() {
        let _ = HierMegh::new(HierConfig::paper_defaults(8, 4, 5));
    }

    #[test]
    #[should_panic(expected = "view dimensions")]
    fn dimension_mismatch_panics() {
        let sim = mini_sim(3, 6, 5);
        sim.run(HierMegh::new(HierConfig::paper_defaults(4, 3, 2)));
    }

    #[test]
    fn single_shard_covers_whole_fleet() {
        let agent = HierMegh::new(HierConfig::paper_defaults(6, 3, 1));
        assert_eq!(agent.shard_hosts(0), 0..3);
        assert_eq!(agent.shard_vms(0), 0..6);
        assert_eq!(agent.shard_lspi(0).dim(), 18);
    }

    #[test]
    fn shard_seeds_differ() {
        let mut seen = std::collections::BTreeSet::new();
        for s in 0..64 {
            assert!(seen.insert(shard_seed(7, s)), "seed collision at {s}");
        }
    }
}
