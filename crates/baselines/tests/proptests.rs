//! Property-based tests for the baseline schedulers: detectors,
//! placement, and the full MMT loop under arbitrary workloads.

use megh_baselines::{MadVmScheduler, MmtFlavor, MmtScheduler, OverloadDetector};
use megh_sim::{DataCenterConfig, InitialPlacement, Scheduler, Simulation, VmSpec};
use megh_trace::WorkloadTrace;
use proptest::prelude::*;

fn history_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0..=1.5f64, 1..15)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No detector panics on arbitrary (possibly >1) utilization
    /// histories, and THR's verdict depends only on the last sample.
    #[test]
    fn detectors_are_total(history in history_strategy()) {
        for d in [
            OverloadDetector::thr(0.8),
            OverloadDetector::iqr_default(),
            OverloadDetector::mad_default(),
            OverloadDetector::lr_default(),
            OverloadDetector::lrr_default(),
        ] {
            let _ = d.is_overloaded(&history);
        }
        let thr = OverloadDetector::thr(0.8);
        let last = *history.last().unwrap();
        prop_assert_eq!(thr.is_overloaded(&history), last > 0.8);
    }

    /// A saturated current reading must trip every detector (the hard
    /// backstop): a host at ≥ 100 % is overloaded no matter what the
    /// statistics say.
    #[test]
    fn saturation_trips_every_detector(mut history in history_strategy()) {
        *history.last_mut().unwrap() = 1.2;
        for d in [
            OverloadDetector::thr(0.8),
            OverloadDetector::iqr_default(),
            OverloadDetector::mad_default(),
            OverloadDetector::lr_default(),
            OverloadDetector::lrr_default(),
        ] {
            prop_assert!(
                d.is_overloaded(&history),
                "{d:?} ignored a saturated host"
            );
        }
    }

    /// Raising the static threshold never *adds* overload verdicts.
    #[test]
    fn thr_is_monotone_in_threshold(history in history_strategy(), t1 in 0.1..1.0f64, t2 in 0.1..1.0f64) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let fired_hi = OverloadDetector::thr(hi).is_overloaded(&history);
        let fired_lo = OverloadDetector::thr(lo).is_overloaded(&history);
        prop_assert!(!fired_hi || fired_lo, "higher threshold fired when lower did not");
    }

    /// The full MMT loop never emits self-migrations or out-of-range
    /// targets, and every emitted VM id exists.
    #[test]
    fn mmt_requests_are_well_formed(
        rows in prop::collection::vec(prop::collection::vec(0.0..=100.0f64, 10), 6),
        flavor_idx in 0..5usize,
    ) {
        let trace = WorkloadTrace::from_rows(300, rows).unwrap();
        let mut config = DataCenterConfig::paper_planetlab(4, 6);
        config.vms = vec![VmSpec::new(1200.0, 1024.0, 100.0); 6];
        config.initial_placement = InitialPlacement::RoundRobin;
        let sim = Simulation::new(config, trace).unwrap();

        struct Check(MmtScheduler);
        impl Scheduler for Check {
            fn name(&self) -> &str {
                "Check"
            }
            fn decide(&mut self, view: &megh_sim::DataCenterView) -> Vec<megh_sim::MigrationRequest> {
                let requests = self.0.decide(view);
                let mut seen = std::collections::BTreeSet::new();
                for r in &requests {
                    assert!(r.vm.0 < view.n_vms());
                    assert!(r.target.0 < view.n_hosts());
                    assert_ne!(view.host_of(r.vm), r.target, "self-migration");
                    assert!(seen.insert(r.vm), "duplicate decision for {}", r.vm);
                }
                requests
            }
        }
        let flavor = MmtFlavor::ALL[flavor_idx];
        sim.run(Check(MmtScheduler::new(flavor)));
    }

    /// MadVM's decisions are equally well-formed under arbitrary load.
    #[test]
    fn madvm_requests_are_well_formed(
        rows in prop::collection::vec(prop::collection::vec(0.0..=100.0f64, 8), 5),
    ) {
        let trace = WorkloadTrace::from_rows(300, rows).unwrap();
        let mut config = DataCenterConfig::paper_planetlab(3, 5);
        config.vms = vec![VmSpec::new(1200.0, 1024.0, 100.0); 5];
        let sim = Simulation::new(config, trace).unwrap();

        struct Check(MadVmScheduler);
        impl Scheduler for Check {
            fn name(&self) -> &str {
                "Check"
            }
            fn decide(&mut self, view: &megh_sim::DataCenterView) -> Vec<megh_sim::MigrationRequest> {
                let requests = self.0.decide(view);
                for r in &requests {
                    assert!(r.vm.0 < view.n_vms());
                    assert!(r.target.0 < view.n_hosts());
                    assert_ne!(view.host_of(r.vm), r.target, "self-migration");
                }
                requests
            }
        }
        sim.run(Check(MadVmScheduler::default()));
    }

    /// Underload consolidation is all-or-nothing per host: after one
    /// MMT step from an idle spread state, every source host it touched
    /// is fully emptied (no half-evacuations that strand a host awake).
    #[test]
    fn consolidation_is_all_or_nothing(util in 0.0..8.0f64) {
        let n = 6;
        let trace = WorkloadTrace::from_rows(300, vec![vec![util; 2]; n]).unwrap();
        let mut config = DataCenterConfig::paper_planetlab(6, n);
        config.vms = vec![VmSpec::new(500.0, 512.0, 100.0); n];
        config.initial_placement = InitialPlacement::RoundRobin;
        let sim = Simulation::new(config, trace).unwrap();

        struct Capture {
            inner: MmtScheduler,
            moved_from: std::collections::BTreeMap<usize, usize>,
            host_counts: Vec<usize>,
            captured: bool,
        }
        impl Scheduler for Capture {
            fn name(&self) -> &str {
                "Capture"
            }
            fn decide(&mut self, view: &megh_sim::DataCenterView) -> Vec<megh_sim::MigrationRequest> {
                let requests = self.inner.decide(view);
                if !self.captured {
                    self.captured = true;
                    for h in view.hosts() {
                        self.host_counts.push(view.vms_on(h).len());
                    }
                    for r in &requests {
                        *self.moved_from.entry(view.host_of(r.vm).0).or_insert(0) += 1;
                    }
                }
                requests
            }
        }
        let mut capture = Capture {
            inner: MmtScheduler::new(MmtFlavor::Thr),
            moved_from: Default::default(),
            host_counts: Vec::new(),
            captured: false,
        };
        sim.run_steps(&mut capture, 1);
        for (&host, &moved) in &capture.moved_from {
            prop_assert_eq!(
                moved,
                capture.host_counts[host],
                "host {} lost {} of {} VMs — a stranded half-evacuation",
                host,
                moved,
                capture.host_counts[host]
            );
        }
    }
}
