//! Failure injection and pathological-input tests: the simulator and
//! schedulers must either reject bad setups with typed errors or
//! degrade gracefully, never panic or produce nonsense accounting.

use megh::baselines::{MadVmScheduler, MmtFlavor, MmtScheduler};
use megh::core::{MeghAgent, MeghConfig};
use megh::sim::{
    DataCenterConfig, InitialPlacement, NoOpScheduler, Scheduler, SimError, Simulation, VmSpec,
};
use megh::trace::WorkloadTrace;

fn flat(n_vms: usize, steps: usize, util: f64) -> WorkloadTrace {
    WorkloadTrace::from_rows(300, vec![vec![util; steps]; n_vms]).unwrap()
}

#[test]
fn zero_capacity_host_is_rejected() {
    let mut config = DataCenterConfig::paper_planetlab(2, 2);
    config.pms[0].mips = 0.0;
    assert_eq!(
        Simulation::new(config, flat(2, 3, 10.0)).unwrap_err(),
        SimError::InvalidHost(0)
    );
}

#[test]
fn hosts_without_vms_cost_nothing() {
    let config = DataCenterConfig::paper_planetlab(5, 0);
    let trace = WorkloadTrace::from_rows(300, vec![]).unwrap();
    let outcome = Simulation::new(config, trace).unwrap().run(NoOpScheduler);
    assert_eq!(outcome.report().total_cost_usd, 0.0);
    // A trace with no VMs has no steps at all.
    assert!(outcome.records().is_empty());
}

#[test]
fn vms_without_hosts_are_rejected() {
    let mut config = DataCenterConfig::paper_planetlab(0, 2);
    config.pms.clear();
    assert_eq!(
        Simulation::new(config, flat(2, 3, 10.0)).unwrap_err(),
        SimError::NoHosts
    );
}

#[test]
fn explicit_placement_out_of_range_is_rejected() {
    let mut config = DataCenterConfig::paper_planetlab(2, 2);
    config.initial_placement = InitialPlacement::Explicit(vec![0, 5]);
    assert_eq!(
        Simulation::new(config, flat(2, 3, 10.0)).unwrap_err(),
        SimError::PlacementHostOutOfRange {
            vm: 1,
            host: 5,
            n_hosts: 2
        }
    );
}

#[test]
fn explicit_placement_with_wrong_length_is_rejected() {
    let mut config = DataCenterConfig::paper_planetlab(2, 3);
    config.initial_placement = InitialPlacement::Explicit(vec![0, 1]);
    assert_eq!(
        Simulation::new(config, flat(3, 3, 10.0)).unwrap_err(),
        SimError::PlacementLengthMismatch {
            n_vms: 3,
            listed: 2
        }
    );
}

#[test]
fn all_zero_workload_is_stable_for_all_schedulers() {
    let (hosts, vms) = (4, 6);
    let mut config = DataCenterConfig::paper_planetlab(hosts, vms);
    config.initial_placement = InitialPlacement::DemandPacked;
    let sim = Simulation::new(config, flat(vms, 30, 0.0)).unwrap();
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(MmtScheduler::new(MmtFlavor::Thr)),
        Box::new(MadVmScheduler::default()),
        Box::new(MeghAgent::new(MeghConfig::paper_defaults(vms, hosts))),
    ];
    for mut s in schedulers {
        let outcome = sim.run(&mut *s);
        let report = outcome.report();
        // Idle VMs never cause capacity-deficit downtime; the only SLA
        // exposure is the §3.3 live-migration downtime itself ("each
        // migration may cause some SLA violation"), bounded by the
        // migration count.
        let max_tm = 2560.0 * 8.0 / 1000.0; // largest VM over 1 Gbps
        let downtime_bound = report.total_migrations as f64 * 0.1 * max_tm + 1e-9;
        let total_downtime: f64 = outcome.vm_downtime_seconds().iter().sum();
        assert!(
            total_downtime <= downtime_bound,
            "{}: downtime {total_downtime} exceeds migration-only bound {downtime_bound}",
            report.scheduler
        );
        assert!(
            report.energy_cost_usd > 0.0,
            "{}: awake hosts draw idle power",
            report.scheduler
        );
    }
}

#[test]
fn saturated_workload_is_survivable() {
    // Every VM at 100 % forever on an under-provisioned data center:
    // accounting must stay finite and bounded.
    let (hosts, vms) = (2, 8);
    let mut config = DataCenterConfig::paper_planetlab(hosts, vms);
    config.vms = vec![VmSpec::new(2500.0, 1024.0, 100.0); vms];
    config.initial_placement = InitialPlacement::RoundRobin;
    let sim = Simulation::new(config, flat(vms, 30, 100.0)).unwrap();
    for outcome in [
        sim.run(MmtScheduler::new(MmtFlavor::Thr)),
        sim.run(MeghAgent::new(MeghConfig::paper_defaults(vms, hosts))),
    ] {
        let report = outcome.report();
        assert!(report.total_cost_usd.is_finite());
        assert!(report.sla_cost_usd > 0.0, "permanent overload must cost");
        for (d, r) in outcome
            .vm_downtime_seconds()
            .iter()
            .zip(outcome.vm_requested_seconds())
        {
            assert!(d <= r, "downtime cannot exceed requested time");
        }
    }
}

#[test]
fn single_vm_single_host_degenerate_case() {
    let mut config = DataCenterConfig::paper_planetlab(1, 1);
    config.vms = vec![VmSpec::new(1000.0, 512.0, 100.0)];
    let sim = Simulation::new(config, flat(1, 10, 50.0)).unwrap();
    for outcome in [
        sim.run(MmtScheduler::new(MmtFlavor::Thr)),
        sim.run(MeghAgent::new(MeghConfig::paper_defaults(1, 1))),
    ] {
        // Nowhere to migrate: zero migrations, sane costs.
        assert_eq!(outcome.report().total_migrations, 0);
        assert!(outcome.report().total_cost_usd > 0.0);
    }
}

#[test]
fn malicious_scheduler_cannot_corrupt_state() {
    /// Emits garbage requests: out-of-range VMs and hosts, duplicates,
    /// self-migrations — all must be ignored.
    struct Chaos;
    impl Scheduler for Chaos {
        fn name(&self) -> &str {
            "Chaos"
        }
        fn decide(&mut self, view: &megh::sim::DataCenterView) -> Vec<megh::sim::MigrationRequest> {
            use megh::sim::{MigrationRequest, PmId, VmId};
            vec![
                MigrationRequest::new(VmId(usize::MAX), PmId(0)),
                MigrationRequest::new(VmId(0), PmId(usize::MAX)),
                MigrationRequest::new(VmId(0), view.host_of(VmId(0))),
                MigrationRequest::new(VmId(0), PmId(1)),
                MigrationRequest::new(VmId(0), PmId(2)),
            ]
        }
    }
    let config = DataCenterConfig::paper_planetlab(3, 2);
    let sim = Simulation::new(config, flat(2, 5, 10.0)).unwrap();
    let outcome = sim.run(Chaos);
    // Only the first valid, non-duplicate request per VM per step lands.
    assert_eq!(outcome.records()[0].migrations, 1);
    for &h in outcome.final_placement() {
        assert!(h < 3);
    }
}

#[test]
fn host_outage_is_evacuated_by_mmt() {
    use megh::sim::HostOutage;
    let (hosts, vms) = (4, 6);
    let mut config = DataCenterConfig::paper_planetlab(hosts, vms);
    config.vms = vec![VmSpec::new(500.0, 512.0, 100.0); vms];
    config.initial_placement = InitialPlacement::Explicit(vec![0; vms]);
    config.outages = vec![HostOutage {
        host: 0,
        from_step: 2,
        until_step: 30,
    }];
    let sim = Simulation::new(config, flat(vms, 30, 20.0)).unwrap();
    let outcome = sim.run(MmtScheduler::new(MmtFlavor::Thr));
    // Every VM must have left host 0 once the outage began.
    assert!(
        outcome.final_placement().iter().all(|&h| h != 0),
        "VMs remain on the down host: {:?}",
        outcome.final_placement()
    );
    // The event log records the outage and the evacuation migrations.
    let step2 = &outcome.events()[2];
    assert_eq!(step2.hosts_down, vec![0]);
    assert!(
        !step2.migrations.is_empty(),
        "evacuation must start at the outage"
    );
    // Downtime accrued only briefly (one detection interval at most).
    let max_downtime = outcome
        .vm_downtime_seconds()
        .iter()
        .cloned()
        .fold(0.0, f64::max);
    assert!(
        max_downtime <= 2.0 * 300.0 + 60.0,
        "max downtime {max_downtime}"
    );
    // The down host draws no energy during the outage.
    let host0_joules = outcome.host_energy_joules()[0];
    // Host 0 was up for steps 0–1 only (≈ 2 intervals of ≤ 117 W).
    assert!(host0_joules <= 2.0 * 300.0 * 117.0 + 1.0);
}

#[test]
fn outage_without_scheduler_reaction_costs_downtime() {
    use megh::sim::HostOutage;
    let mut config = DataCenterConfig::paper_planetlab(2, 2);
    config.vms = vec![VmSpec::new(500.0, 512.0, 100.0); 2];
    config.initial_placement = InitialPlacement::Explicit(vec![0, 0]);
    config.outages = vec![HostOutage {
        host: 0,
        from_step: 0,
        until_step: 10,
    }];
    let sim = Simulation::new(config, flat(2, 10, 20.0)).unwrap();
    let outcome = sim.run(NoOpScheduler);
    // Full downtime for the whole outage.
    for &d in outcome.vm_downtime_seconds() {
        assert!((d - 10.0 * 300.0).abs() < 1e-6, "downtime {d}");
    }
    assert!(outcome.report().sla_cost_usd > 0.0);
    assert_eq!(outcome.report().total_migrations, 0);
}

#[test]
fn invalid_outage_is_rejected() {
    use megh::sim::HostOutage;
    let mut config = DataCenterConfig::paper_planetlab(2, 2);
    config.outages = vec![HostOutage {
        host: 9,
        from_step: 0,
        until_step: 5,
    }];
    assert!(matches!(
        Simulation::new(config, flat(2, 5, 10.0)).unwrap_err(),
        SimError::InvalidParameter(_)
    ));
    let mut config = DataCenterConfig::paper_planetlab(2, 2);
    config.outages = vec![HostOutage {
        host: 0,
        from_step: 5,
        until_step: 5,
    }];
    assert!(Simulation::new(config, flat(2, 5, 10.0)).is_err());
}

#[test]
fn megh_handles_trace_shorter_than_temperature_decay() {
    // 3 steps only: the agent must not assume a long horizon.
    let (hosts, vms) = (3, 4);
    let config = DataCenterConfig::paper_planetlab(hosts, vms);
    let sim = Simulation::new(config, flat(vms, 3, 20.0)).unwrap();
    let mut agent = MeghAgent::new(MeghConfig::paper_defaults(vms, hosts));
    let outcome = sim.run(&mut agent);
    assert_eq!(outcome.records().len(), 3);
    assert_eq!(agent.steps(), 3);
}
