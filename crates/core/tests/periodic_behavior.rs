//! Behavioural tests of the periodicity-aware Megh variant: the phases
//! must be genuinely independent, and phase conditioning must not be
//! catastrophic on a periodic workload.

use megh_core::{MeghConfig, PeriodicMeghAgent};
use megh_sim::{DataCenterConfig, InitialPlacement, Simulation, VmSpec};
use megh_trace::{DiurnalConfig, WorkloadTrace};

/// Phases never interact: an agent that only ever acts in phase 0
/// learns exactly what a one-phase agent learns, and nothing else.
#[test]
fn phases_are_independent_blocks() {
    let (hosts, vms) = (3, 4);
    let trace = WorkloadTrace::from_rows(300, vec![vec![20.0; 50]; vms]).unwrap();
    let config = DataCenterConfig::paper_planetlab(hosts, vms);
    let sim = Simulation::new(config, trace).unwrap();
    // Period longer than the trace: every step is phase 0.
    let mut agent = PeriodicMeghAgent::with_period(MeghConfig::paper_defaults(vms, hosts), 4, 4000);
    let mut single =
        PeriodicMeghAgent::with_period(MeghConfig::paper_defaults(vms, hosts), 1, 4000);
    let confined = sim.run(&mut agent);
    let plain = sim.run(&mut single);
    assert!(agent.qtable_nnz() > 0, "phase 0 must have learned");
    assert_eq!(agent.qtable_nnz(), single.qtable_nnz());
    assert_eq!(confined.final_placement(), plain.final_placement());
}

/// On a strongly diurnal workload the phase-conditioned agent must not
/// be worse than plain Megh by more than noise, and the periodic trace
/// must actually alternate load regimes across phases.
#[test]
fn diurnal_workload_distinguishes_phases() {
    let (hosts, vms) = (10, 14);
    let trace = DiurnalConfig::new(vms, 5).generate(2);
    // Verify the premise: mean demand in opposite phases differs a lot.
    let mean_range = |lo: usize, hi: usize| {
        let mut sum = 0.0;
        let mut count = 0;
        for vm in 0..trace.n_vms() {
            for step in lo..hi {
                sum += trace.utilization(vm, step);
                count += 1;
            }
        }
        sum / count as f64
    };
    let night = mean_range(0, 48);
    let day = mean_range(120, 192);
    assert!(
        day > 2.0 * night,
        "diurnal premise failed: day {day} night {night}"
    );

    let mut config = DataCenterConfig::paper_planetlab(hosts, vms);
    config.vms = vec![VmSpec::new(1500.0, 1024.0, 100.0); vms];
    config.initial_placement = InitialPlacement::DemandPacked;
    let sim = Simulation::new(config, trace).unwrap();
    let plain = sim
        .run(megh_core::MeghAgent::new(MeghConfig::paper_defaults(
            vms, hosts,
        )))
        .report();
    let periodic = sim
        .run(PeriodicMeghAgent::new(
            MeghConfig::paper_defaults(vms, hosts),
            4,
        ))
        .report();
    assert!(
        periodic.total_cost_usd <= plain.total_cost_usd * 1.5,
        "phase conditioning catastrophically worse: {} vs {}",
        periodic.total_cost_usd,
        plain.total_cost_usd
    );
}
