//! Property-based tests of the simulator's accounting invariants.

use megh_sim::{
    CostParams, DataCenterConfig, InitialPlacement, MigrationRequest, NoOpScheduler, PmId,
    PowerModel, Scheduler, Simulation, SlaBand, VmId, VmSpec,
};
use megh_trace::WorkloadTrace;
use proptest::prelude::*;

/// A scheduler that replays a scripted list of (possibly invalid)
/// migration requests, one batch per step.
struct Scripted {
    script: Vec<Vec<MigrationRequest>>,
    step: usize,
}

impl Scheduler for Scripted {
    fn name(&self) -> &str {
        "Scripted"
    }
    fn decide(&mut self, _view: &megh_sim::DataCenterView) -> Vec<MigrationRequest> {
        let batch = self.script.get(self.step).cloned().unwrap_or_default();
        self.step += 1;
        batch
    }
}

fn trace_strategy(n_vms: usize, steps: usize) -> impl Strategy<Value = WorkloadTrace> {
    prop::collection::vec(prop::collection::vec(0.0..=100.0f64, steps), n_vms)
        .prop_map(|rows| WorkloadTrace::from_rows(300, rows).expect("valid rows"))
}

fn requests_strategy(
    n_vms: usize,
    n_hosts: usize,
    steps: usize,
) -> impl Strategy<Value = Vec<Vec<MigrationRequest>>> {
    prop::collection::vec(
        prop::collection::vec(
            // Deliberately allow out-of-range ids: the engine must
            // discard them.
            (0..n_vms * 2, 0..n_hosts * 2)
                .prop_map(|(vm, host)| MigrationRequest::new(VmId(vm), PmId(host))),
            0..5,
        ),
        steps,
    )
}

fn small_config(n_hosts: usize, n_vms: usize) -> DataCenterConfig {
    let mut config = DataCenterConfig::paper_planetlab(n_hosts, n_vms);
    config.vms = vec![VmSpec::new(1000.0, 1024.0, 100.0); n_vms];
    config.initial_placement = InitialPlacement::RoundRobin;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever a scheduler requests, accounting stays coherent:
    /// costs decompose exactly, downtime never exceeds requested time,
    /// placement stays in range, migration counts match records.
    #[test]
    fn accounting_invariants_hold_under_arbitrary_requests(
        trace in trace_strategy(4, 12),
        script in requests_strategy(4, 3, 12),
    ) {
        let config = small_config(3, 4);
        let sim = Simulation::new(config, trace).expect("valid");
        let outcome = sim.run(Scripted { script, step: 0 });
        let report = outcome.report();
        prop_assert!((report.total_cost_usd
            - report.energy_cost_usd
            - report.sla_cost_usd).abs() < 1e-9);
        prop_assert!(report.energy_cost_usd >= 0.0);
        prop_assert!(report.sla_cost_usd >= 0.0);
        for &h in outcome.final_placement() {
            prop_assert!(h < 3);
        }
        let mut cumulative = 0;
        for r in outcome.records() {
            cumulative += r.migrations;
            prop_assert_eq!(r.cumulative_migrations, cumulative);
            prop_assert!(r.active_hosts <= 3);
            prop_assert!(r.overloaded_hosts <= 3);
        }
        for (d, rq) in outcome.vm_downtime_seconds().iter().zip(outcome.vm_requested_seconds()) {
            prop_assert!(*d >= 0.0);
            prop_assert!(d <= rq);
        }
    }

    /// Energy accounting: each active host contributes between its idle
    /// and peak draw; sleeping hosts contribute nothing.
    #[test]
    fn per_step_energy_is_bounded_by_power_envelope(
        trace in trace_strategy(4, 8),
    ) {
        let config = small_config(2, 4);
        let cost = CostParams::paper_defaults();
        let idle = PowerModel::hp_proliant_g4().idle_watts()
            .min(PowerModel::hp_proliant_g5().idle_watts());
        let peak = PowerModel::hp_proliant_g4().peak_watts()
            .max(PowerModel::hp_proliant_g5().peak_watts());
        let sim = Simulation::new(config, trace).expect("valid");
        let outcome = sim.run(NoOpScheduler);
        for r in outcome.records() {
            let lo = cost.energy_cost_usd(idle * 300.0 * r.active_hosts as f64);
            let hi = cost.energy_cost_usd(peak * 300.0 * r.active_hosts as f64);
            prop_assert!(r.energy_cost_usd >= lo - 1e-9, "below idle floor");
            prop_assert!(r.energy_cost_usd <= hi + 1e-9, "above peak ceiling");
        }
    }

    /// The SLA band function is monotone in the downtime fraction and
    /// its cost rate is monotone in the band.
    #[test]
    fn sla_band_is_monotone(a in 0.0..0.01f64, b in 0.0..0.01f64) {
        let cost = CostParams::paper_defaults();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let band_rank = |band: SlaBand| match band {
            SlaBand::None => 0,
            SlaBand::Minor => 1,
            SlaBand::Major => 2,
        };
        prop_assert!(band_rank(cost.sla_band(lo)) <= band_rank(cost.sla_band(hi)));
        prop_assert!(
            cost.sla_cost_usd(cost.sla_band(lo), 300.0)
                <= cost.sla_cost_usd(cost.sla_band(hi), 300.0) + 1e-12
        );
    }

    /// A NoOp run's total cost is invariant to the scheduler's identity
    /// and scales monotonically with trace utilization.
    #[test]
    fn uniform_utilization_scales_cost_monotonically(u in 0.0..=50.0f64) {
        let config = small_config(2, 4);
        let low = WorkloadTrace::from_rows(300, vec![vec![u; 6]; 4]).unwrap();
        let high = WorkloadTrace::from_rows(300, vec![vec![(u + 30.0).min(100.0); 6]; 4]).unwrap();
        let cost_low = Simulation::new(config.clone(), low)
            .unwrap()
            .run(NoOpScheduler)
            .report()
            .energy_cost_usd;
        let cost_high = Simulation::new(config, high)
            .unwrap()
            .run(NoOpScheduler)
            .report()
            .energy_cost_usd;
        prop_assert!(cost_high >= cost_low - 1e-12);
    }

    /// Initial placements are always complete and in range, for every
    /// policy.
    #[test]
    fn initial_placements_are_valid(
        trace in trace_strategy(6, 2),
        policy_idx in 0..3usize,
    ) {
        let mut config = small_config(3, 6);
        config.initial_placement = match policy_idx {
            0 => InitialPlacement::RoundRobin,
            1 => InitialPlacement::RandomUniform { seed: 11 },
            _ => InitialPlacement::DemandPacked,
        };
        let sim = Simulation::new(config, trace).expect("valid");
        prop_assert_eq!(sim.initial_placement().len(), 6);
        for &h in sim.initial_placement() {
            prop_assert!(h < 3);
        }
    }
}
