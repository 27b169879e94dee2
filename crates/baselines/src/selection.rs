//! VM-selection policies: which VM leaves an overloaded host.

use megh_sim::{migration_seconds, DataCenterView, PmId, VmId};
use rand::Rng;

use crate::total_f64;
use serde::{Deserialize, Serialize};

/// Named VM-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectionPolicy {
    /// Minimum Migration Time: the VM whose RAM copies fastest over the
    /// host's bandwidth (Beloglazov's MMT, used by all five Table 2/3
    /// heuristics).
    MinimumMigrationTime,
    /// Uniform random choice — the ablation control.
    Random,
}

/// Picks the VM with the minimum migration time
/// ([`migration_seconds`] of its RAM over the host's bandwidth) from
/// `host`, breaking ties toward the lower VM id.
///
/// Returns `None` when the host runs no VMs.
///
/// # Examples
///
/// ```
/// use megh_baselines::select_minimum_migration_time;
/// # use megh_sim::{DataCenterConfig, NoOpScheduler, Simulation, PmId};
/// # use megh_trace::PlanetLabConfig;
/// # // Views are produced by the engine; here we only show the call shape.
/// ```
pub fn select_minimum_migration_time(view: &DataCenterView, host: PmId) -> Option<VmId> {
    let bw = view.host_bw_mbps(host);
    let tm = |vm: VmId| migration_seconds(view.vm_ram_mb(vm), bw);
    view.vms_on(host)
        .into_iter()
        .min_by(|&a, &b| total_f64(tm(a), tm(b)).then(a.0.cmp(&b.0)))
}

/// Picks a uniformly random VM from `host` (ablation control).
///
/// Returns `None` when the host runs no VMs.
pub fn select_random<R: Rng>(view: &DataCenterView, host: PmId, rng: &mut R) -> Option<VmId> {
    let vms = view.vms_on(host);
    if vms.is_empty() {
        None
    } else {
        Some(vms[rng.gen_range(0..vms.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megh_sim::{DataCenterConfig, Scheduler, Simulation, VmSpec};
    use megh_trace::WorkloadTrace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs a one-step simulation whose scheduler captures the view.
    fn capture_view(config: DataCenterConfig, trace: WorkloadTrace) -> DataCenterView {
        struct Capture(Option<DataCenterView>);
        impl Scheduler for &mut Capture {
            fn name(&self) -> &str {
                "Capture"
            }
            fn decide(&mut self, view: &DataCenterView) -> Vec<megh_sim::MigrationRequest> {
                self.0 = Some(view.clone());
                Vec::new()
            }
        }
        let mut capture = Capture(None);
        Simulation::new(config, trace)
            .unwrap()
            .run_steps(&mut capture, 1);
        capture.0.expect("one step ran")
    }

    fn three_vm_setup() -> DataCenterView {
        let mut config = DataCenterConfig::paper_planetlab(2, 3);
        // Distinct RAM sizes: VM1 has the smallest → fastest to migrate.
        config.vms = vec![
            VmSpec::new(1000.0, 2048.0, 100.0),
            VmSpec::new(1000.0, 512.0, 100.0),
            VmSpec::new(1000.0, 1024.0, 100.0),
        ];
        // All VMs on host 0.
        config.initial_placement = megh_sim::InitialPlacement::Explicit(vec![0, 0, 0]);
        let trace = WorkloadTrace::from_rows(300, vec![vec![10.0]; 3]).unwrap();
        capture_view(config, trace)
    }

    #[test]
    fn mmt_picks_smallest_ram() {
        let view = three_vm_setup();
        let host = view.host_of(VmId(1));
        assert_eq!(select_minimum_migration_time(&view, host), Some(VmId(1)));
    }

    #[test]
    fn empty_host_selects_nothing() {
        let view = three_vm_setup();
        // Host 1 has no VMs (the explicit placement put all three on host 0).
        assert!(view.is_asleep(PmId(1)));
        assert_eq!(select_minimum_migration_time(&view, PmId(1)), None);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(select_random(&view, PmId(1), &mut rng), None);
    }

    #[test]
    fn random_selection_is_from_the_host() {
        let view = three_vm_setup();
        let host = view.host_of(VmId(0));
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let vm = select_random(&view, host, &mut rng).unwrap();
            assert_eq!(view.host_of(vm), host);
        }
    }
}
