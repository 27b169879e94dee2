//! Cross-crate integration tests: every scheduler, both workload
//! families, through the public facade API.

use megh::baselines::{MadVmScheduler, MmtFlavor, MmtScheduler, QLearningScheduler};
use megh::core::{MeghAgent, MeghConfig};
use megh::sim::{
    DataCenterConfig, InitialPlacement, NoOpScheduler, Scheduler, Simulation, SimulationOutcome,
};
use megh::trace::{GoogleConfig, PlanetLabConfig, WorkloadTrace};

fn planetlab_sim(hosts: usize, vms: usize, steps: usize, seed: u64) -> Simulation {
    let trace = PlanetLabConfig::new(vms, seed).generate_steps(steps);
    let mut config = DataCenterConfig::paper_planetlab(hosts, vms);
    config.initial_placement = InitialPlacement::DemandPacked;
    Simulation::new(config, trace).expect("consistent setup")
}

fn google_sim(hosts: usize, vms: usize, steps: usize, seed: u64) -> Simulation {
    let trace = GoogleConfig::new(vms, seed).generate_steps(steps);
    let mut config = DataCenterConfig::paper_google(hosts, vms);
    config.initial_placement = InitialPlacement::DemandPacked;
    Simulation::new(config, trace).expect("consistent setup")
}

fn check_outcome_invariants(outcome: &SimulationOutcome, steps: usize, hosts: usize) {
    assert_eq!(outcome.records().len(), steps);
    let report = outcome.report();
    // Cost decomposition is exact.
    assert!((report.total_cost_usd - report.energy_cost_usd - report.sla_cost_usd).abs() < 1e-9);
    // Energy is strictly positive whenever any VM exists.
    assert!(report.energy_cost_usd > 0.0);
    // Cumulative migrations is non-decreasing and consistent.
    let mut prev = 0;
    for r in outcome.records() {
        assert!(r.cumulative_migrations >= prev);
        assert_eq!(r.cumulative_migrations - prev, r.migrations);
        prev = r.cumulative_migrations;
        assert!(r.active_hosts <= hosts);
        assert!(r.total_cost_usd >= 0.0);
    }
    // Downtime never exceeds requested time.
    for (d, r) in outcome
        .vm_downtime_seconds()
        .iter()
        .zip(outcome.vm_requested_seconds())
    {
        assert!(*d >= 0.0 && d <= r);
    }
}

#[test]
fn every_scheduler_runs_on_planetlab() {
    let (hosts, vms, steps) = (10, 16, 40);
    let sim = planetlab_sim(hosts, vms, steps, 7);
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(NoOpScheduler),
        Box::new(MmtScheduler::new(MmtFlavor::Thr)),
        Box::new(MmtScheduler::new(MmtFlavor::Iqr)),
        Box::new(MmtScheduler::new(MmtFlavor::Mad)),
        Box::new(MmtScheduler::new(MmtFlavor::Lr)),
        Box::new(MmtScheduler::new(MmtFlavor::Lrr)),
        Box::new(MadVmScheduler::default()),
        Box::new(QLearningScheduler::new(17)),
        Box::new(MeghAgent::new(MeghConfig::paper_defaults(vms, hosts))),
    ];
    for mut s in schedulers {
        let outcome = sim.run(&mut *s);
        check_outcome_invariants(&outcome, steps, hosts);
    }
}

#[test]
fn every_scheduler_runs_on_google() {
    let (hosts, vms, steps) = (8, 20, 40);
    let sim = google_sim(hosts, vms, steps, 9);
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(NoOpScheduler),
        Box::new(MmtScheduler::new(MmtFlavor::Thr)),
        Box::new(MadVmScheduler::default()),
        Box::new(MeghAgent::new(MeghConfig::paper_defaults(vms, hosts))),
    ];
    for mut s in schedulers {
        let outcome = sim.run(&mut *s);
        check_outcome_invariants(&outcome, steps, hosts);
    }
}

#[test]
fn runs_are_deterministic_across_all_schedulers() {
    let (hosts, vms, steps) = (6, 10, 30);
    let sim = planetlab_sim(hosts, vms, steps, 11);
    let run_pair = |mk: &dyn Fn() -> Box<dyn Scheduler>| {
        let a = sim.run(&mut *mk());
        let b = sim.run(&mut *mk());
        assert_eq!(
            a.final_placement(),
            b.final_placement(),
            "{}",
            a.scheduler()
        );
        assert_eq!(
            a.report().total_migrations,
            b.report().total_migrations,
            "{}",
            a.scheduler()
        );
        let costs_a: Vec<f64> = a.records().iter().map(|r| r.total_cost_usd).collect();
        let costs_b: Vec<f64> = b.records().iter().map(|r| r.total_cost_usd).collect();
        assert_eq!(costs_a, costs_b, "{}", a.scheduler());
    };
    run_pair(&|| Box::new(MmtScheduler::new(MmtFlavor::Lrr)));
    run_pair(&|| Box::new(MadVmScheduler::default()));
    run_pair(&|| Box::new(MeghAgent::new(MeghConfig::paper_defaults(vms, hosts))));
}

#[test]
fn vm_count_is_conserved_across_migrations() {
    let (hosts, vms, steps) = (6, 12, 50);
    let sim = planetlab_sim(hosts, vms, steps, 13);
    for outcome in [
        sim.run(MmtScheduler::new(MmtFlavor::Thr)),
        sim.run(MeghAgent::new(MeghConfig::paper_defaults(vms, hosts))),
    ] {
        assert_eq!(outcome.final_placement().len(), vms);
        for &h in outcome.final_placement() {
            assert!(h < hosts);
        }
    }
}

#[test]
fn trace_roundtrip_feeds_simulation() {
    // Save a trace to CSV, reload it, and verify the simulation outcome
    // is identical — the external-data path works end to end.
    let trace = PlanetLabConfig::new(6, 21).generate_steps(20);
    let path = std::env::temp_dir().join(format!("megh-e2e-{}.csv", std::process::id()));
    megh::trace::save_csv(&trace, &path).expect("save");
    let reloaded = megh::trace::load_csv(&path).expect("load");
    std::fs::remove_file(&path).ok();

    let config = DataCenterConfig::paper_planetlab(4, 6);
    let a = Simulation::new(config.clone(), trace)
        .unwrap()
        .run(NoOpScheduler);
    let b = Simulation::new(config, reloaded)
        .unwrap()
        .run(NoOpScheduler);
    assert!((a.report().total_cost_usd - b.report().total_cost_usd).abs() < 1e-3);
}

#[test]
fn explicit_placement_survives_validation_and_runs() {
    let trace = WorkloadTrace::from_rows(300, vec![vec![10.0; 5]; 3]).unwrap();
    let mut config = DataCenterConfig::paper_planetlab(3, 3);
    config.initial_placement = InitialPlacement::Explicit(vec![2, 2, 2]);
    let sim = Simulation::new(config, trace).unwrap();
    assert_eq!(sim.initial_placement(), &[2, 2, 2]);
    let outcome = sim.run(NoOpScheduler);
    assert_eq!(outcome.records()[0].active_hosts, 1);
}
