//! Hierarchical (sharded) Megh: two-level placement for fleets far
//! beyond the flat `d = N × M` basis.
//!
//! The flat agent's projected dimension grows as the *product* of fleet
//! sizes — 10 000 hosts × 13 200 VMs is a 132-million-dimensional basis
//! whose Sherman–Morrison state no single operator should carry. The
//! scalable-RL literature (see PAPERS.md) decomposes the decision
//! instead: pick a **cluster** first, then pick a **host inside that
//! cluster** with a full RL agent whose state is small. [`HierMegh`]
//! realises that split:
//!
//! * Hosts and VMs are statically partitioned into `n_shards`
//!   contiguous shards; shard `c` owns `N_c × M_c ≈ (N/S) × (M/S)`
//!   action pairs, so per-shard LSPI state is bounded by the shard
//!   size, not the fleet size.
//! * The **coordinator** is a counter: decide `t` goes to shard
//!   `t mod S`, so every shard gets the same share of the decision
//!   budget and the coordinator never reads the view. Picking shards by
//!   a score (utilization, awake hosts, critic drift) instead costs
//!   1.4–2.2× the total USD at every fleet size measured (DESIGN §16).
//! * Each shard is a plain [`MeghAgent`] over its local `N_c × M_c`
//!   basis — its own `SparseLspi`, Boltzmann policy, exploration RNG and
//!   frozen flag — acting through the shard's VM and host offsets.
//! * Phase windows — four equal slices of each 24-hour period — drive
//!   **auto-freeze**: a shard whose Q-table grew by at most 2 % over a
//!   completed window freezes for good. From then on it acts from its
//!   fixed `θ` at its fixed temperature and runs no critic.
//!
//! A VM's *home* shard is fixed; the local action space covers exactly
//! the home shard's hosts, so every emitted [`MigrationRequest`]
//! targets an in-shard (hence in-range) host. A VM that starts outside
//! its home shard is simply pulled in by its shard's first migration
//! decisions.

// This module is on the Megh decision hot path. What it allocates is
// counted, not vouched: over days 3–4 of the 50 × 66 run in
// `tests/no_alloc.rs`, two shards hold `observe` at 0 and `decide` at
// no more than 8 allocations per call (2.7 on average: the returned
// `Vec`, non-empty on 95 % of steps, plus the acting shard's Q-table
// growth).
#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)
)]

use std::num::NonZeroUsize;

use megh_sim::{DataCenterView, MigrationRequest, Scheduler, StepFeedback};

use crate::{MeghAgent, MeghConfig, SparseLspi};

/// Phase windows per 24-hour period of the auto-freeze detector.
const N_PHASES: usize = 4;

/// Steps per period: 288 five-minute steps are 24 hours. (288 is not
/// zero, so the `None` arm is never taken.)
const STEPS_PER_PERIOD: NonZeroUsize = match NonZeroUsize::new(288) {
    Some(steps) => steps,
    None => NonZeroUsize::MIN,
};

/// A shard freezes when its Q-table grew by at most this fraction over
/// a completed phase window.
const FREEZE_GROWTH_LIMIT: f64 = 0.02;

/// Validates `base` and the shard count, and hands the count back in a
/// type that cannot be zero.
fn shard_count(base: &MeghConfig, n_shards: usize) -> Result<NonZeroUsize, &'static str> {
    base.validate()?;
    let count = NonZeroUsize::new(n_shards).ok_or("n_shards must be at least 1")?;
    if n_shards > base.n_hosts.max(1) {
        return Err("n_shards must not exceed n_hosts");
    }
    Ok(count)
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

/// SplitMix64 finalizer: derives each shard's independent exploration
/// seed from `(base seed, shard index)`.
pub(crate) fn shard_seed(seed: u64, shard: usize) -> u64 {
    let mut z = seed
        .wrapping_add((shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One cluster: a plain [`MeghAgent`] over the shard's local basis, its
/// offsets into the fleet, and its freeze detector.
#[derive(Debug, Clone)]
struct Shard {
    agent: MeghAgent,
    /// First global VM id owned by this shard.
    vm_lo: usize,
    /// First global host id owned by this shard.
    host_lo: usize,
    /// Phase window the shard last acted in.
    last_phase: usize,
    /// Q-table size at the start of the current phase window.
    phase_nnz: usize,
}

impl Shard {
    fn new(base: &MeghConfig, s: usize, n_shards: NonZeroUsize) -> Self {
        let vms = split_range(base.n_vms, s, n_shards);
        let hosts = split_range(base.n_hosts, s, n_shards);
        let local = MeghConfig {
            n_vms: vms.len(),
            n_hosts: hosts.len(),
            // Paper convention, per shard: δ_c = d_c.
            delta: (vms.len() * hosts.len()).max(1) as f64,
            seed: shard_seed(base.seed, s),
            ..*base
        };
        Self {
            agent: MeghAgent::new(local),
            vm_lo: vms.start,
            host_lo: hosts.start,
            last_phase: 0,
            phase_nnz: 0,
        }
    }

    /// Phase-boundary bookkeeping: freeze a shard whose Q-table went
    /// quiet over the completed window. A frozen shard stays frozen.
    fn tick_phase(&mut self, phase: usize) {
        if self.agent.is_frozen() || phase == self.last_phase {
            return;
        }
        self.last_phase = phase;
        let nnz = self.agent.qtable_nnz();
        let grown = nnz.saturating_sub(self.phase_nnz);
        self.phase_nnz = nnz;
        if nnz > 0 && (grown as f64) <= FREEZE_GROWTH_LIMIT * nnz as f64 {
            self.agent.freeze();
        }
    }

    /// One Megh step over the shard's `N_c × M_c` basis, emitting
    /// migrations in global ids into `out`.
    fn decide_local(&mut self, view: &DataCenterView, out: &mut Vec<MigrationRequest>) {
        if self.agent.lspi().dim() == 0 {
            return;
        }
        self.agent.learn_pending();
        self.tick_phase(phase_of(view.step()));
        self.agent.act_into(view, self.vm_lo, self.host_lo, out);
    }
}

/// The phase window a step falls in: [`N_PHASES`] equal slices of each
/// [`STEPS_PER_PERIOD`]-step period.
fn phase_of(step: usize) -> usize {
    (step % STEPS_PER_PERIOD) * N_PHASES / STEPS_PER_PERIOD
}

/// The two-level scheduler: a counter over per-shard Megh agents.
///
/// # Examples
///
/// ```
/// use megh_core::{HierMegh, MeghConfig};
/// use megh_sim::{DataCenterConfig, Simulation};
/// use megh_trace::PlanetLabConfig;
///
/// let trace = PlanetLabConfig::new(12, 7).generate_steps(40);
/// let config = DataCenterConfig::paper_planetlab(6, 12);
/// let agent = HierMegh::sharded(MeghConfig::paper_defaults(12, 6), 2);
/// let outcome = Simulation::new(config, trace)?.run(agent);
/// assert_eq!(outcome.records().len(), 40);
/// # Ok::<(), megh_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HierMegh {
    n_vms: usize,
    n_hosts: usize,
    /// Every `/` and `%` on shard indices divides by this.
    n_shards: NonZeroUsize,
    /// `Megh-H<n_shards>`, so sweeps over shard counts stay tellable apart.
    name: String,
    shards: Vec<Shard>,
    /// Shard that acted last step (receives the next observed cost).
    last_shard: Option<usize>,
    decides: usize,
}

impl HierMegh {
    /// Splits a fleet of `base.n_vms` VMs on `base.n_hosts` hosts into
    /// `n_shards` shards.
    ///
    /// `base` carries the *global* dimensions and the RL parameters
    /// every shard inherits (γ, Temp₀, ε, actions-per-step, masking,
    /// seed); each shard derives its own δ from its local dimension,
    /// following the paper's "δ as d" convention.
    ///
    /// # Panics
    ///
    /// Panics if `base` fails [`MeghConfig::validate`], or if
    /// `n_shards` is 0 or exceeds `base.n_hosts` (1 is always allowed).
    ///
    /// # Examples
    ///
    /// ```
    /// use megh_core::{HierMegh, MeghConfig};
    ///
    /// let agent = HierMegh::sharded(MeghConfig::paper_defaults(24, 12), 3);
    /// assert_eq!(agent.n_shards(), 3);
    /// assert_eq!(agent.shard_hosts(0), 0..4);
    /// ```
    pub fn sharded(base: MeghConfig, n_shards: usize) -> Self {
        let n_shards = match shard_count(&base, n_shards) {
            Ok(n_shards) => n_shards,
            #[expect(clippy::panic, reason = "documented contract, asserted by tests")]
            Err(msg) => panic!("invalid hierarchical Megh configuration: {msg}"),
        };
        // One-time construction of the shard fleet.
        let shards = (0..n_shards.get())
            .map(|s| Shard::new(&base, s, n_shards))
            .collect();
        Self {
            n_vms: base.n_vms,
            n_hosts: base.n_hosts,
            n_shards,
            name: format!("Megh-H{n_shards}"),
            shards,
            last_shard: None,
            decides: 0,
        }
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
        split_range(self.n_hosts, s, self.n_shards)
    }

    /// The contiguous global VM range owned by shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn shard_vms(&self, s: usize) -> std::ops::Range<usize> {
        assert!(s < self.n_shards(), "shard index out of range");
        split_range(self.n_vms, s, self.n_shards)
    }

    /// The shard owning global host `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn shard_of_host(&self, host: usize) -> usize {
        assert!(host < self.n_hosts, "host index out of range");
        shard_of(host, self.n_hosts, self.n_shards)
    }

    /// The shard owning global VM `vm`.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn shard_of_vm(&self, vm: usize) -> usize {
        assert!(vm < self.n_vms, "vm index out of range");
        shard_of(vm, self.n_vms, self.n_shards)
    }

    /// Total explicit non-zeros across all shard operators (the
    /// hierarchical counterpart of Figure 7's Q-table size).
    pub fn qtable_nnz(&self) -> usize {
        self.shards.iter().map(|s| s.agent.qtable_nnz()).sum()
    }

    /// The largest single-shard Q-table — the "per-shard memory stays
    /// bounded" metric of the scalability sweep.
    pub fn max_shard_qtable_nnz(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.agent.qtable_nnz())
            .max()
            .unwrap_or(0)
    }

    /// Number of frozen shards; it never decreases.
    pub fn frozen_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.agent.is_frozen()).count()
    }

    /// Read access to shard `s`'s LSPI state (tests, benches).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn shard_lspi(&self, s: usize) -> &SparseLspi {
        match self.shards.get(s) {
            Some(shard) => shard.agent.lspi(),
            #[expect(clippy::panic, reason = "documented contract")]
            None => panic!("shard index out of range"),
        }
    }

    /// Decides taken so far.
    pub fn steps(&self) -> usize {
        self.decides
    }
}

impl Scheduler for HierMegh {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
        assert_eq!(
            (view.n_vms(), view.n_hosts()),
            (self.n_vms, self.n_hosts),
            "view dimensions do not match the hierarchical Megh configuration"
        );
        // An empty Vec never touches the heap, but 549 of 576 decides on
        // the run `tests/no_alloc.rs` counts return a migration.
        let mut requests = Vec::new();
        if self.n_vms == 0 {
            return requests;
        }

        // Level 1: the clusters take turns.
        debug_assert_eq!(self.n_shards.get(), self.shards.len());
        let chosen = self.decides % self.n_shards;
        self.decides += 1;

        // Level 2: the chosen cluster's Megh agent picks VM and host.
        if let Some(shard) = self.shards.get_mut(chosen) {
            shard.decide_local(view, &mut requests);
        }
        self.last_shard = Some(chosen);
        requests
    }

    fn observe(&mut self, feedback: &StepFeedback) {
        // Route the observed cost to the shard whose action caused it.
        if let Some(shard) = self.last_shard.and_then(|s| self.shards.get_mut(s)) {
            MeghAgent::observe(&mut shard.agent, feedback);
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

    fn hier(n_vms: usize, n_hosts: usize, n_shards: usize) -> HierMegh {
        HierMegh::sharded(MeghConfig::paper_defaults(n_vms, n_hosts), n_shards)
    }

    #[test]
    fn partition_covers_fleet_without_overlap() {
        let agent = hier(23, 10, 3);
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
        let mut agent = hier(12, 6, 3);
        let outcome = sim.run(&mut agent);
        assert_eq!(outcome.records().len(), 120);
        assert!(agent.qtable_nnz() > 0, "no shard learned anything");
        assert!(agent.max_shard_qtable_nnz() <= agent.qtable_nnz());
        assert_eq!(agent.steps(), 120);
    }

    #[test]
    fn hier_counter_gives_every_shard_its_turn() {
        let sim = mini_sim(6, 12, 60);
        let mut agent = hier(12, 6, 3);
        sim.run(&mut agent);
        // 20 decides per shard, the first with nothing to learn from.
        for s in 0..agent.n_shards() {
            let lspi = agent.shard_lspi(s);
            assert_eq!(lspi.updates() + lspi.skipped_singular(), 19, "shard {s}");
        }
    }

    #[test]
    fn hier_counter_matches_the_parent_with_scoring_off() {
        // The constant was recorded on the last tree that had the score
        // coordinator, with its two knobs set so that every decide went
        // round-robin and no aggregate was refreshed: shards built from
        // `MeghAgent` reproduce that tree's hand-rolled shards bit for
        // bit. The run exercises the sleeping-target mask through the
        // shard's id offsets, and two of its three shards freeze.
        let mut base = MeghConfig::paper_defaults(13, 6);
        base.mask_sleeping_targets = true;
        base.actions_per_step = 2;
        let mut agent = HierMegh::sharded(base, 3);
        let fingerprint = mini_sim(6, 13, 300).run(&mut agent).fingerprint();
        // FNV-1a after the `scheduler=<name>;` field: the recorded run's
        // name had no shard count in it.
        let (_, run) = fingerprint.split_once(';').unwrap();
        assert_eq!(crate::fnv1a64(run.as_bytes()), 0x7ca8_626f_c23d_6c15);
        assert_eq!(agent.frozen_shards(), 2);
    }

    #[test]
    fn is_deterministic_under_seed() {
        let sim = mini_sim(4, 8, 60);
        let mk = || hier(8, 4, 2);
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
            inner: hier(13, 6, 3),
        };
        let outcome = sim.run(&mut checker);
        assert!(outcome.report().total_migrations > 0, "nothing migrated");
    }

    #[test]
    fn stable_shards_auto_freeze() {
        // Checks after every decide that no shard unfreezes, and that a
        // frozen shard's critic and temperature never move again.
        struct Watch {
            inner: HierMegh,
            /// Per shard: `(updates, temperature)` when it was first seen
            /// frozen.
            frozen_at: Vec<Option<(usize, f64)>>,
            frozen: usize,
        }
        impl Scheduler for Watch {
            fn name(&self) -> &str {
                "watch"
            }
            fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
                let requests = self.inner.decide(view);
                let frozen = self.inner.frozen_shards();
                assert!(
                    frozen >= self.frozen,
                    "a shard unfroze at step {}",
                    view.step()
                );
                self.frozen = frozen;
                for (shard, seen) in self.inner.shards.iter().zip(&mut self.frozen_at) {
                    let now = (shard.agent.lspi().updates(), shard.agent.temperature());
                    match seen {
                        Some(then) => assert_eq!(*then, now, "a frozen shard moved"),
                        None if shard.agent.is_frozen() => *seen = Some(now),
                        None => {}
                    }
                }
                requests
            }
            fn observe(&mut self, feedback: &StepFeedback) {
                self.inner.observe(feedback);
            }
        }
        let mut watch = Watch {
            inner: hier(8, 4, 2),
            frozen_at: vec![None; 2],
            frozen: 0,
        };
        let outcome = mini_sim(4, 8, 4 * 288).run(&mut watch);
        assert!(outcome.report().total_migrations > 0, "nothing migrated");
        assert_eq!(watch.frozen, 2, "a shard never froze over four quiet days");
    }

    #[test]
    fn empty_fleet_is_handled() {
        let trace = megh_trace::WorkloadTrace::from_rows(300, vec![]).unwrap();
        let sim = Simulation::new(DataCenterConfig::paper_planetlab(2, 0), trace).unwrap();
        let outcome = sim.run(hier(0, 2, 2));
        assert_eq!(outcome.report().total_migrations, 0);
    }

    #[test]
    #[should_panic(expected = "n_shards must not exceed n_hosts")]
    fn too_many_shards_is_rejected() {
        let _ = hier(8, 4, 5);
    }

    #[test]
    #[should_panic(expected = "view dimensions")]
    fn dimension_mismatch_panics() {
        let sim = mini_sim(3, 6, 5);
        sim.run(hier(4, 3, 2));
    }

    #[test]
    fn single_shard_covers_whole_fleet() {
        let agent = hier(6, 3, 1);
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
