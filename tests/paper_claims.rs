//! Shape-level assertions of the paper's headline claims, at scales
//! small enough for CI. These are the §6 results the benchmark harness
//! reproduces in full; here we pin the *directions* so regressions in
//! any crate surface immediately.

use megh::baselines::{MadVmConfig, MadVmScheduler, MmtFlavor, MmtScheduler};
use megh::core::{MeghAgent, MeghConfig};
use megh::sim::{DataCenterConfig, InitialPlacement, Simulation};
use megh::trace::{GoogleConfig, PlanetLabConfig};

fn planetlab_sim(hosts: usize, vms: usize, steps: usize, seed: u64) -> Simulation {
    let trace = PlanetLabConfig::new(vms, seed).generate_steps(steps);
    let mut config = DataCenterConfig::paper_planetlab(hosts, vms);
    config.initial_placement = InitialPlacement::DemandPacked;
    Simulation::new(config, trace).expect("consistent setup")
}

/// Tables 2–3: Megh issues orders of magnitude fewer migrations than
/// the MMT heuristics.
#[test]
fn megh_migrates_far_less_than_mmt() {
    let (hosts, vms, steps) = (40, 52, 300);
    let sim = planetlab_sim(hosts, vms, steps, 42);
    let thr = sim.run(MmtScheduler::new(MmtFlavor::Thr)).report();
    let megh = sim
        .run(MeghAgent::new(MeghConfig::paper_defaults(vms, hosts)))
        .report();
    assert!(
        thr.total_migrations as f64 >= 3.0 * megh.total_migrations as f64,
        "THR {} vs Megh {}",
        thr.total_migrations,
        megh.total_migrations
    );
    // Megh issues at most ~one action per step.
    assert!(megh.total_migrations <= steps);
}

/// Tables 2–3 + Figure 6: Megh's decisions are faster than THR-MMT's.
#[test]
fn megh_decides_faster_than_thr_mmt() {
    let (hosts, vms, steps) = (100, 130, 60);
    let sim = planetlab_sim(hosts, vms, steps, 43);
    let thr = sim.run(MmtScheduler::new(MmtFlavor::Thr)).report();
    let megh = sim
        .run(MeghAgent::new(MeghConfig::paper_defaults(vms, hosts)))
        .report();
    assert!(
        megh.mean_decision_ms < thr.mean_decision_ms,
        "Megh {} ms vs THR {} ms",
        megh.mean_decision_ms,
        thr.mean_decision_ms
    );
}

/// Figures 4(d)/5(d): MadVM's per-step execution time dwarfs Megh's.
#[test]
fn madvm_is_orders_of_magnitude_slower_than_megh() {
    let (hosts, vms, steps) = (50, 75, 40);
    let sim = planetlab_sim(hosts, vms, steps, 44);
    let madvm = sim
        .run(MadVmScheduler::new(MadVmConfig::default()))
        .report();
    let megh = sim
        .run(MeghAgent::new(MeghConfig::paper_defaults(vms, hosts)))
        .report();
    assert!(
        madvm.mean_decision_ms > 10.0 * megh.mean_decision_ms,
        "MadVM {} ms vs Megh {} ms",
        madvm.mean_decision_ms,
        megh.mean_decision_ms
    );
}

/// Tables 2–3 / Figures 2(a)–3(a): Megh's cumulative operation cost
/// beats THR-MMT's, and its per-step cost series has lower variance
/// ("not only converges faster … but also has less variance").
#[test]
fn megh_beats_thr_mmt_on_cost_and_variance() {
    let (hosts, vms, steps) = (40, 52, 500);
    let sim = planetlab_sim(hosts, vms, steps, 45);
    let thr = sim.run(MmtScheduler::new(MmtFlavor::Thr));
    let megh = sim.run(MeghAgent::new(MeghConfig::paper_defaults(vms, hosts)));
    assert!(
        megh.report().total_cost_usd < thr.report().total_cost_usd,
        "Megh {:.2} vs THR {:.2}",
        megh.report().total_cost_usd,
        thr.report().total_cost_usd
    );
    let variance = |o: &megh::sim::SimulationOutcome| {
        let costs: Vec<f64> = o.records().iter().map(|r| r.total_cost_usd).collect();
        let m = costs.iter().sum::<f64>() / costs.len() as f64;
        costs.iter().map(|c| (c - m).powi(2)).sum::<f64>() / costs.len() as f64
    };
    assert!(
        variance(&megh) < variance(&thr),
        "Megh var {:.6} vs THR var {:.6}",
        variance(&megh),
        variance(&thr)
    );
}

/// Table 3 / Figure 3(c): on the Google workload Megh keeps *more*
/// hosts active than consolidating THR-MMT — §6.3's counter-intuitive
/// observation.
#[test]
fn google_workload_rewards_spreading() {
    let (hosts, vms, steps) = (30, 90, 300);
    let trace = GoogleConfig::new(vms, 46).generate_steps(steps);
    let mut config = DataCenterConfig::paper_google(hosts, vms);
    config.initial_placement = InitialPlacement::DemandPacked;
    let sim = Simulation::new(config, trace).unwrap();
    let thr = sim.run(MmtScheduler::new(MmtFlavor::Thr)).report();
    let megh = sim
        .run(MeghAgent::new(MeghConfig::paper_defaults(vms, hosts)))
        .report();
    assert!(
        megh.mean_active_hosts > thr.mean_active_hosts,
        "Megh {} vs THR {}",
        megh.mean_active_hosts,
        thr.mean_active_hosts
    );
}

/// Figure 7: Megh's Q-table grows roughly linearly with time, and
/// shifts up with the fleet. With the §6.1 budget of ⌈0.02 N⌉ actions
/// per step (one action up to N = 50, two at N = 100), the larger fleet
/// learns from more actions per step.
#[test]
fn qtable_growth_is_linear_in_time() {
    let mut final_nnz = Vec::new();
    for n in [20, 50, 100] {
        let sim = planetlab_sim(n, n, 400, 47);
        let config = MeghConfig {
            actions_per_step: (n * 2).div_ceil(100),
            ..MeghConfig::paper_defaults(n, n)
        };
        // nnz at half and at full horizon, from two runs (the agent is
        // deterministic under its seed).
        let mut half_agent = MeghAgent::new(config.clone());
        sim.run_steps(&mut half_agent, 200);
        let mut agent = MeghAgent::new(config);
        sim.run(&mut agent);
        let half = half_agent.qtable_nnz() as f64;
        let full = agent.qtable_nnz() as f64;
        let ratio = full / half.max(1.0);
        assert!(
            (1.5..=2.5).contains(&ratio),
            "N = M = {n}: expected ~2x growth, got {half} -> {full} (ratio {ratio:.2})"
        );
        final_nnz.push(agent.qtable_nnz());
    }
    assert!(
        final_nnz[2] > final_nnz[1],
        "N = M = 100 must end above N = M = 50: {final_nnz:?}"
    );
}

/// The paper's premise: the MMT family's churn is real — it migrates a
/// significant fraction of VMs per step under bursty load.
#[test]
fn mmt_churn_is_reproduced() {
    let (hosts, vms, steps) = (40, 52, 300);
    let sim = planetlab_sim(hosts, vms, steps, 48);
    let thr = sim.run(MmtScheduler::new(MmtFlavor::Thr)).report();
    let per_step = thr.total_migrations as f64 / steps as f64;
    assert!(
        per_step > 1.0,
        "THR-MMT should churn multiple migrations per step, got {per_step:.2}"
    );
}

/// Sanity on the §6.1 constants used across the harness.
#[test]
fn paper_constants_are_the_defaults() {
    let cfg = MeghConfig::paper_defaults(10, 10);
    assert_eq!(cfg.gamma, 0.5);
    assert_eq!(cfg.temp0, 3.0);
    assert_eq!(cfg.epsilon, 0.01);
    let dc = DataCenterConfig::paper_planetlab(4, 4);
    assert_eq!(dc.cost.beta_overload, 0.70);
    assert_eq!(dc.cost.alpha_migration, 0.30);
    assert_eq!(dc.cost.usd_per_kwh, 0.18675);
    assert_eq!(dc.cost.vm_hourly_fee_usd, 1.2);
}
