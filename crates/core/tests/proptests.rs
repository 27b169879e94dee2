//! Property-based tests of Megh's learning machinery: the incremental
//! sparse-LSPI state must track its dense oracle, the Boltzmann
//! policy must be a valid distribution over the action space, and its
//! frozen table must draw exactly what it draws.

use megh_core::{
    ActionSpace, BoltzmannPolicy, BoltzmannTable, HierConfig, HierMegh, MeghAgent, MeghConfig,
    SparseLspi,
};
use megh_sim::{DataCenterConfig, InitialPlacement, PmId, Simulation, VmId};
use megh_trace::WorkloadTrace;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental θ update must agree with recomputing θ = B·z
    /// from scratch after any sequence of updates.
    #[test]
    fn incremental_theta_matches_oracle(
        steps in prop::collection::vec((0..12usize, 0..12usize, 0.0..5.0f64), 1..25),
        gamma in 0.0..0.95f64,
    ) {
        let mut lspi = SparseLspi::new(12, 12.0, gamma);
        for (a, a_next, cost) in steps {
            lspi.update(a, a_next, cost);
            let oracle = lspi.recompute_theta();
            for idx in 0..12 {
                prop_assert!(
                    (lspi.q(idx) - oracle.get(idx)).abs() < 1e-7,
                    "theta[{idx}] drifted: {} vs {}",
                    lspi.q(idx),
                    oracle.get(idx)
                );
            }
        }
    }

    /// Q-table fill-in is bounded: each update touches O(1) basis
    /// indices, so explicit non-zeros grow at most quadratically in the
    /// number of *distinct* actions, never like d².
    #[test]
    fn qtable_fill_in_is_bounded_by_distinct_actions(
        steps in prop::collection::vec((0..30usize, 0..30usize, 0.1..2.0f64), 1..40),
    ) {
        let mut lspi = SparseLspi::new(900, 900.0, 0.5);
        let mut distinct = std::collections::BTreeSet::new();
        for (a, a_next, cost) in steps {
            lspi.update(a, a_next, cost);
            distinct.insert(a);
            distinct.insert(a_next);
            let bound = (2 * distinct.len()).pow(2);
            prop_assert!(
                lspi.explicit_nnz() <= bound,
                "nnz {} exceeds distinct-action bound {bound}",
                lspi.explicit_nnz()
            );
        }
    }

    /// Boltzmann sampling always returns a valid in-range action, for
    /// any temperature and any learned state.
    #[test]
    fn sampling_is_always_in_range(
        steps in prop::collection::vec((0..10usize, 0..10usize, -2.0..4.0f64), 0..15),
        temp0 in 0.01..20.0f64,
        seed in 0..1000u64,
    ) {
        let mut lspi = SparseLspi::new(10, 10.0, 0.5);
        for (a, a_next, cost) in steps {
            lspi.update(a, a_next, cost);
        }
        let policy = BoltzmannPolicy::new(temp0, 0.01);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let a = policy.sample(&lspi, &mut rng).expect("non-empty space");
            prop_assert!(a < 10);
            let g = policy.greedy(&lspi, &mut rng);
            prop_assert!(g < 10);
        }
    }

    /// The greedy action's Q value is never above any other action's.
    #[test]
    fn greedy_attains_the_minimum(
        steps in prop::collection::vec((0..8usize, 0..8usize, -3.0..3.0f64), 1..20),
    ) {
        let mut lspi = SparseLspi::new(8, 8.0, 0.5);
        for (a, a_next, cost) in steps {
            lspi.update(a, a_next, cost);
        }
        let policy = BoltzmannPolicy::new(1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let g = policy.greedy(&lspi, &mut rng);
        let min_q = (0..8).map(|a| lspi.q(a)).fold(f64::INFINITY, f64::min);
        prop_assert!(lspi.q(g) <= min_q + 1e-9);
    }

    /// Action index encoding is a bijection for arbitrary dimensions.
    #[test]
    fn action_space_roundtrip(n_vms in 1..20usize, n_hosts in 1..20usize) {
        let space = ActionSpace::new(n_vms, n_hosts);
        for a in 0..space.dim() {
            let action = space.decode(a);
            prop_assert_eq!(space.index(action.vm, action.target), a);
        }
    }

    /// Two-level containment: for any fleet shape, shard count, and
    /// trace, every migration the hierarchical scheduler emits stays
    /// inside the moved VM's home shard — which makes an out-of-range
    /// host index structurally impossible, not just unobserved.
    #[test]
    fn hier_placement_never_leaves_the_home_shard(
        n_hosts in 2..9usize,
        extra_vms in 0..10usize,
        shard_req in 1..6usize,
        trace_seed in 0..100usize,
    ) {
        let n_vms = n_hosts + extra_vms;
        let n_shards = shard_req.min(n_hosts);
        let rows: Vec<Vec<f64>> = (0..n_vms)
            .map(|v| (0..60).map(|t| ((v * 31 + t * 11 + trace_seed) % 95) as f64).collect())
            .collect();
        let trace = WorkloadTrace::from_rows(300, rows).unwrap();
        let mut config = DataCenterConfig::paper_planetlab(n_hosts, n_vms);
        config.initial_placement = InitialPlacement::RoundRobin;
        let sim = Simulation::new(config, trace).unwrap();

        struct Check(HierMegh);
        impl megh_sim::Scheduler for Check {
            fn name(&self) -> &str {
                "check"
            }
            fn decide(&mut self, view: &megh_sim::DataCenterView) -> Vec<megh_sim::MigrationRequest> {
                let requests = self.0.decide(view);
                for r in &requests {
                    assert!(r.vm < VmId(view.n_vms()), "vm index out of range");
                    assert!(r.target < PmId(view.n_hosts()), "host index out of range");
                    let home = self.0.shard_of_vm(r.vm.0);
                    assert!(
                        self.0.shard_hosts(home).contains(&r.target.0),
                        "vm {} (shard {home}) targeted out-of-shard host {}",
                        r.vm.0,
                        r.target.0
                    );
                }
                requests
            }
            fn observe(&mut self, feedback: &megh_sim::StepFeedback) {
                self.0.observe(feedback);
            }
        }
        sim.run(Check(HierMegh::new(HierConfig::paper_defaults(n_vms, n_hosts, n_shards))));
    }

    /// Freezing (pausing learning on) every shard and thawing back is
    /// invisible to the value function: every per-shard Q entry
    /// round-trips bit for bit, for any fleet shape and seed.
    #[test]
    fn hier_freeze_thaw_round_trips_q_bitwise(
        n_hosts in 2..7usize,
        extra_vms in 0..8usize,
        shard_req in 1..4usize,
        seed in 0..50u64,
    ) {
        let n_vms = n_hosts + extra_vms;
        let n_shards = shard_req.min(n_hosts);
        let rows: Vec<Vec<f64>> = (0..n_vms)
            .map(|v| (0..80).map(|t| ((v * 17 + t * 13 + seed as usize) % 90) as f64).collect())
            .collect();
        let trace = WorkloadTrace::from_rows(300, rows).unwrap();
        let sim = Simulation::new(DataCenterConfig::paper_planetlab(n_hosts, n_vms), trace).unwrap();
        let mut cfg = HierConfig::paper_defaults(n_vms, n_hosts, n_shards);
        cfg.base.seed = seed;
        let mut agent = HierMegh::new(cfg);
        sim.run(&mut agent);

        let q_bits = |agent: &HierMegh| -> Vec<Vec<u64>> {
            (0..agent.n_shards())
                .map(|s| {
                    let lspi = agent.shard_lspi(s);
                    (0..lspi.dim()).map(|a| lspi.q(a).to_bits()).collect()
                })
                .collect()
        };
        let before = q_bits(&agent);
        agent.freeze_all();
        prop_assert_eq!(agent.frozen_shards(), agent.n_shards());
        prop_assert_eq!(&before, &q_bits(&agent), "freeze changed a Q value");
        agent.thaw_all();
        prop_assert_eq!(agent.frozen_shards(), 0);
        prop_assert_eq!(&before, &q_bits(&agent), "thaw changed a Q value");
    }

    /// The agent is a total function of (config, trace): same inputs,
    /// byte-identical migration decisions.
    #[test]
    fn agent_determinism(seed in 0..50u64, trace_seed in 0..50u64) {
        let (hosts, vms) = (3, 5);
        let rows: Vec<Vec<f64>> = (0..vms)
            .map(|v| (0..20).map(|t| ((v * 13 + t * 7 + trace_seed as usize) % 90) as f64).collect())
            .collect();
        let trace = WorkloadTrace::from_rows(300, rows).unwrap();
        let mut config = DataCenterConfig::paper_planetlab(hosts, vms);
        config.initial_placement = InitialPlacement::RoundRobin;
        let sim = Simulation::new(config, trace).unwrap();
        let mk = || {
            let mut c = MeghConfig::paper_defaults(vms, hosts);
            c.seed = seed;
            MeghAgent::new(c)
        };
        let a = sim.run(mk());
        let b = sim.run(mk());
        prop_assert_eq!(a.final_placement(), b.final_placement());
        prop_assert_eq!(a.report().total_migrations, b.report().total_migrations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A `BoltzmannTable` built once draws what `BoltzmannPolicy::sample`
    /// draws on the same state, draw for draw, and leaves the RNG in the
    /// same state after each draw. The temperature runs from `temp0` to
    /// the floor (40 decays at ε = 0.5 pass it); θ is empty, partial or
    /// saturated, with negative costs; `d` includes 0 and 1; a saturated
    /// θ whose entries are all positive has a non-finite total at a low
    /// temperature (`exp(minQ/Temp)` overflows and meets a zero class of
    /// size 0), so the greedy fallback is drawn through too.
    #[test]
    fn boltzmann_table_draws_like_sample(
        dim in 0..7usize,
        steps in prop::collection::vec((0..7usize, 0..7usize, -3.0..4.0f64), 0..12),
        saturate in 0..2usize,
        decays in 0..45usize,
        seed in 0..1000u64,
    ) {
        let mut lspi = SparseLspi::new(dim, 8.0, 0.5);
        if dim > 0 {
            for (a, a_next, cost) in steps {
                lspi.update(a % dim, a_next % dim, cost);
            }
            if saturate == 1 {
                for a in 0..dim {
                    lspi.update(a, (a + 1) % dim, 0.5 + a as f64);
                }
            }
        }
        let mut policy = BoltzmannPolicy::new(3.0, 0.5);
        for _ in 0..decays {
            policy.decay();
        }
        let table = BoltzmannTable::new(&lspi, &policy);
        let mut by_table = StdRng::seed_from_u64(seed);
        let mut by_policy = StdRng::seed_from_u64(seed);
        for draw in 0..64 {
            let got = table.sample(&mut by_table);
            let want = policy.sample(&lspi, &mut by_policy);
            prop_assert_eq!(got, want, "draw {draw}: table {got:?}, sample {want:?}");
            prop_assert!(by_table == by_policy, "draw {draw}: the RNG states diverged");
        }
    }
}

/// The edge states the property above reaches by chance, each built
/// on purpose and checked to be what it claims: an empty space, one
/// action, an annealed state whose explicit weights all underflow to
/// 0.0, a saturated θ, and a saturated all-positive θ at the floor
/// temperature, whose total mass is not finite.
#[test]
fn boltzmann_table_draws_like_sample_on_edge_states() {
    let annealed = |p: &mut BoltzmannPolicy| {
        for _ in 0..60 {
            p.decay();
        }
    };
    let mut cases = Vec::new();

    cases.push((
        "empty space",
        SparseLspi::new(0, 1.0, 0.5),
        BoltzmannPolicy::new(3.0, 0.0),
    ));
    let mut one = SparseLspi::new(1, 1.0, 0.5);
    one.update(0, 0, 0.7);
    cases.push(("d = 1", one, BoltzmannPolicy::new(3.0, 0.0)));

    let mut cold = SparseLspi::new(12, 12.0, 0.5);
    for a in [1, 4, 9] {
        cold.update(a, a, 0.3);
    }
    let mut policy = BoltzmannPolicy::new(3.0, 0.5);
    annealed(&mut policy);
    let inv_t = 1.0 / policy.temperature();
    assert_eq!(cold.min_q(), 0.0);
    assert!(cold.theta_entries().all(|(_, q)| (-q * inv_t).exp() == 0.0));
    cases.push(("annealed, every explicit weight 0.0", cold, policy));

    let mut full = SparseLspi::new(4, 4.0, 0.5);
    for (a, cost) in [(0, -1.0), (1, 0.5), (2, 2.0), (3, 0.25)] {
        full.update(a, (a + 1) % 4, cost);
    }
    assert_eq!(full.theta_nnz(), 4, "θ must be saturated");
    cases.push(("saturated", full.clone(), BoltzmannPolicy::new(1.0, 0.0)));

    let mut positive = SparseLspi::new(3, 3.0, 0.5);
    for a in 0..3 {
        positive.update(a, (a + 1) % 3, 1.0 + a as f64);
    }
    assert_eq!(positive.theta_nnz(), 3, "θ must be saturated");
    let mut policy = BoltzmannPolicy::new(3.0, 0.5);
    annealed(&mut policy);
    assert!(positive.min_q() > 0.0);
    assert!((positive.min_q() / policy.temperature())
        .exp()
        .is_infinite());
    cases.push(("saturated, non-finite total", positive, policy));

    for (name, lspi, policy) in cases {
        let table = BoltzmannTable::new(&lspi, &policy);
        let mut by_table = StdRng::seed_from_u64(17);
        let mut by_policy = StdRng::seed_from_u64(17);
        for draw in 0..200 {
            let got = table.sample(&mut by_table);
            assert_eq!(
                got,
                policy.sample(&lspi, &mut by_policy),
                "{name}, draw {draw}"
            );
            assert!(
                by_table == by_policy,
                "{name}, draw {draw}: the RNG states diverged"
            );
        }
    }
}

/// Masked sampling respects arbitrary predicates.
#[test]
fn masked_sampling_respects_predicate() {
    let lspi = SparseLspi::new(20, 20.0, 0.5);
    let policy = BoltzmannPolicy::new(3.0, 0.0);
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..100 {
        if let Some(a) = policy.sample_masked(&lspi, &mut rng, |a| a % 2 == 0) {
            assert_eq!(a % 2, 0, "mask violated: {a}");
        }
    }
}

/// The agent's requests always reference valid VMs and hosts.
#[test]
fn agent_requests_are_well_formed() {
    let (hosts, vms) = (4, 7);
    let rows = vec![vec![30.0; 40]; vms];
    let trace = WorkloadTrace::from_rows(300, rows).unwrap();
    let config = DataCenterConfig::paper_planetlab(hosts, vms);
    let sim = Simulation::new(config, trace).unwrap();

    struct Check(MeghAgent);
    impl megh_sim::Scheduler for Check {
        fn name(&self) -> &str {
            "Check"
        }
        fn decide(&mut self, view: &megh_sim::DataCenterView) -> Vec<megh_sim::MigrationRequest> {
            let requests = self.0.decide(view);
            for r in &requests {
                assert!(r.vm < VmId(view.n_vms()));
                assert!(r.target < PmId(view.n_hosts()));
                assert_ne!(view.host_of(r.vm), r.target, "self-migration emitted");
            }
            requests
        }
        fn observe(&mut self, feedback: &megh_sim::StepFeedback) {
            self.0.observe(feedback);
        }
    }
    sim.run(Check(MeghAgent::new(MeghConfig::paper_defaults(
        vms, hosts,
    ))));
}
