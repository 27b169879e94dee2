//! The read-only data-center snapshot handed to schedulers each step.

use serde::{Deserialize, Serialize};

use crate::PowerModel;

/// Identifier of a physical machine (host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PmId(pub usize);

/// Identifier of a virtual machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VmId(pub usize);

impl std::fmt::Display for PmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pm{}", self.0)
    }
}

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// An immutable snapshot of the data center at one observation step.
///
/// This is the §3.1 "global manager" interface: the VMMs report each VM's
/// demand and each host's recent utilization, and the scheduler decides
/// which VMs to migrate where. Everything a scheduler may legitimately
/// observe is here; schedulers cannot mutate the simulation directly.
#[derive(Debug, Clone)]
pub struct DataCenterView {
    pub(crate) step: usize,
    pub(crate) step_seconds: u64,
    pub(crate) vm_mips: Vec<f64>,
    pub(crate) vm_ram_mb: Vec<f64>,
    pub(crate) vm_util_percent: Vec<f64>,
    pub(crate) vm_demand_mips: Vec<f64>,
    pub(crate) placement: Vec<usize>,
    pub(crate) host_mips: Vec<f64>,
    pub(crate) host_bw_mbps: Vec<f64>,
    pub(crate) host_used_mips: Vec<f64>,
    pub(crate) host_vms: Vec<Vec<usize>>,
    pub(crate) host_history: Vec<Vec<f64>>,
    pub(crate) host_power: std::sync::Arc<Vec<PowerModel>>,
    pub(crate) host_down: Vec<bool>,
    pub(crate) beta_overload: f64,
}

impl DataCenterView {
    /// The observation step index (0-based).
    pub fn step(&self) -> usize {
        self.step
    }

    /// Seconds between observations (the paper's τ = 300 s).
    pub fn step_seconds(&self) -> u64 {
        self.step_seconds
    }

    /// Number of VMs.
    pub fn n_vms(&self) -> usize {
        self.vm_mips.len()
    }

    /// Number of hosts.
    pub fn n_hosts(&self) -> usize {
        self.host_mips.len()
    }

    /// The host currently running `vm`.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn host_of(&self, vm: VmId) -> PmId {
        PmId(self.placement[vm.0])
    }

    /// VMs currently placed on `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn vms_on(&self, host: PmId) -> Vec<VmId> {
        self.host_vms[host.0].iter().map(|&v| VmId(v)).collect()
    }

    /// Requested CPU capacity of `vm` in MIPS.
    pub fn vm_mips(&self, vm: VmId) -> f64 {
        self.vm_mips[vm.0]
    }

    /// RAM of `vm` in MB (determines migration time).
    pub fn vm_ram_mb(&self, vm: VmId) -> f64 {
        self.vm_ram_mb[vm.0]
    }

    /// Current utilization of `vm` as a percentage of its requested MIPS.
    pub fn vm_utilization_percent(&self, vm: VmId) -> f64 {
        self.vm_util_percent[vm.0]
    }

    /// Current CPU demand of `vm` in MIPS.
    pub fn vm_demand_mips(&self, vm: VmId) -> f64 {
        self.vm_demand_mips[vm.0]
    }

    /// Total CPU capacity of `host` in MIPS.
    pub fn host_mips(&self, host: PmId) -> f64 {
        self.host_mips[host.0]
    }

    /// Network bandwidth of `host` in Mbps.
    pub fn host_bw_mbps(&self, host: PmId) -> f64 {
        self.host_bw_mbps[host.0]
    }

    /// MIPS currently demanded from `host` by its VMs.
    pub fn host_used_mips(&self, host: PmId) -> f64 {
        self.host_used_mips[host.0]
    }

    /// Utilization of `host` as a fraction of capacity (may exceed 1 when
    /// the host is overloaded).
    pub fn host_utilization(&self, host: PmId) -> f64 {
        let cap = self.host_mips[host.0];
        if cap <= 0.0 {
            return 0.0;
        }
        self.host_used_mips[host.0] / cap
    }

    /// Whether `host` is above the β overload threshold.
    pub fn is_overloaded(&self, host: PmId) -> bool {
        self.host_utilization(host) > self.beta_overload
    }

    /// Whether `host` currently runs no VMs (and is therefore asleep).
    pub fn is_asleep(&self, host: PmId) -> bool {
        self.host_vms[host.0].is_empty()
    }

    /// Whether `host` is down this step (scheduled outage). A down host
    /// serves nothing: resident VMs accrue full downtime until they are
    /// migrated away, and no placement policy should target it.
    pub fn is_down(&self, host: PmId) -> bool {
        self.host_down[host.0]
    }

    /// Number of hosts with at least one VM.
    pub fn active_hosts(&self) -> usize {
        self.host_vms.iter().filter(|v| !v.is_empty()).count()
    }

    /// The β overload threshold as a fraction.
    pub fn beta_overload(&self) -> f64 {
        self.beta_overload
    }

    /// Recent utilization history of `host` (oldest first, ending with
    /// the current observation). Adaptive MMT detectors consume this.
    pub fn host_history(&self, host: PmId) -> &[f64] {
        &self.host_history[host.0]
    }

    /// Whether moving `vm` to `host` keeps the host's *demand* at or
    /// below the β threshold — the "potential capacity" test of §3.1.
    ///
    /// Returns `false` for the VM's current host (a self-migration).
    pub fn fits_after_migration(&self, vm: VmId, host: PmId) -> bool {
        if self.placement[vm.0] == host.0 || self.host_down[host.0] {
            return false;
        }
        let cap = self.host_mips[host.0];
        if cap <= 0.0 {
            return false;
        }
        let used = self.host_used_mips[host.0] + self.vm_demand_mips[vm.0];
        used / cap <= self.beta_overload
    }

    /// Power draw of `host` in Watts at a hypothetical `utilization`
    /// fraction. Power-aware placement (PABFD) uses this to rank
    /// destinations by marginal power increase.
    pub fn host_power_watts(&self, host: PmId, utilization: f64) -> f64 {
        self.host_power[host.0].watts_at(utilization)
    }

    /// Iterator over all host ids.
    pub fn hosts(&self) -> impl Iterator<Item = PmId> {
        (0..self.n_hosts()).map(PmId)
    }

    /// Iterator over all VM ids.
    pub fn vms(&self) -> impl Iterator<Item = VmId> {
        (0..self.n_vms()).map(VmId)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn toy_view() -> DataCenterView {
        DataCenterView {
            step: 3,
            step_seconds: 300,
            vm_mips: vec![1000.0, 2000.0, 500.0],
            vm_ram_mb: vec![1024.0, 2048.0, 512.0],
            vm_util_percent: vec![50.0, 25.0, 100.0],
            vm_demand_mips: vec![500.0, 500.0, 500.0],
            placement: vec![0, 0, 1],
            host_mips: vec![2000.0, 4000.0, 1000.0],
            host_bw_mbps: vec![1000.0, 1000.0, 1000.0],
            host_used_mips: vec![1000.0, 500.0, 0.0],
            host_vms: vec![vec![0, 1], vec![2], vec![]],
            host_history: vec![vec![0.4, 0.5], vec![0.1, 0.125], vec![0.0, 0.0]],
            host_power: std::sync::Arc::new(vec![
                PowerModel::hp_proliant_g4(),
                PowerModel::hp_proliant_g5(),
                PowerModel::hp_proliant_g4(),
            ]),
            host_down: vec![false; 3],
            beta_overload: 0.7,
        }
    }

    #[test]
    fn basic_accessors() {
        let v = toy_view();
        assert_eq!(v.n_vms(), 3);
        assert_eq!(v.n_hosts(), 3);
        assert_eq!(v.step(), 3);
        assert_eq!(v.host_of(VmId(2)), PmId(1));
        assert_eq!(v.vms_on(PmId(0)), vec![VmId(0), VmId(1)]);
        assert_eq!(v.vm_demand_mips(VmId(0)), 500.0);
        assert_eq!(v.host_utilization(PmId(0)), 0.5);
    }

    #[test]
    fn overload_and_sleep_states() {
        let mut v = toy_view();
        assert!(!v.is_overloaded(PmId(0)));
        v.host_used_mips[0] = 1500.0;
        assert!(v.is_overloaded(PmId(0)));
        assert!(v.is_asleep(PmId(2)));
        assert!(!v.is_asleep(PmId(0)));
        assert_eq!(v.active_hosts(), 2);
    }

    #[test]
    fn fits_after_migration_checks_capacity_and_self() {
        let v = toy_view();
        // Moving vm0 (500 MIPS demand) to host1: (500+500)/4000 = 0.25 ≤ 0.7.
        assert!(v.fits_after_migration(VmId(0), PmId(1)));
        // Self-migration is never a fit.
        assert!(!v.fits_after_migration(VmId(0), PmId(0)));
        // Host2 has 1000 MIPS; vm1 demand 500 → 0.5 ≤ 0.7 fits.
        assert!(v.fits_after_migration(VmId(1), PmId(2)));
    }

    #[test]
    fn zero_capacity_host_never_fits() {
        let mut v = toy_view();
        v.host_mips[2] = 0.0;
        assert!(!v.fits_after_migration(VmId(0), PmId(2)));
        assert_eq!(v.host_utilization(PmId(2)), 0.0);
    }

    #[test]
    fn display_of_ids() {
        assert_eq!(PmId(4).to_string(), "pm4");
        assert_eq!(VmId(7).to_string(), "vm7");
    }
}
