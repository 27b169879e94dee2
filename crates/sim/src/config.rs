//! Data-center configuration and validation.

use std::fmt;

use crate::{CostParams, PmSpec, VmSpec};

/// How VMs are assigned to hosts before the first step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitialPlacement {
    /// An explicit VM→host assignment (index `j` gives VM `j`'s host).
    /// Must have one entry per VM, each a valid host index.
    Explicit(Vec<usize>),
    /// VM `j` starts on host `j mod M`. The deterministic default.
    RoundRobin,
    /// Uniformly random placement with the given seed — the protocol of
    /// the MadVM comparison (§6.3: "all these workloads are allocated
    /// uniformly at random to each of the PMs, such that there is no
    /// initial bias for the learning").
    RandomUniform {
        /// Seed for the placement RNG.
        seed: u64,
    },
    /// First-fit *decreasing by step-0 demand*: VMs are sorted by their
    /// first observed CPU demand and packed onto hosts while demand stays
    /// within the β threshold. This mirrors CloudSim's power-aware
    /// initial allocation, where the incoming VMs are placed by their
    /// current utilization — the starting condition of the paper's main
    /// experiments (Tables 2–3).
    DemandPacked,
}

/// A scheduled host outage: the host is down (zero capacity, zero
/// power, all resident VMs unavailable) for `from_step..until_step`.
///
/// Models maintenance windows and failures — the failure-injection
/// counterpart to the trace-driven workload uncertainty. Schedulers see
/// the outage through [`crate::DataCenterView::is_down`] and are
/// expected to evacuate; VMs left on a down host accrue full downtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostOutage {
    /// The affected host index.
    pub host: usize,
    /// First step of the outage (inclusive).
    pub from_step: usize,
    /// End of the outage (exclusive).
    pub until_step: usize,
}

impl HostOutage {
    /// Whether the outage covers `step`.
    pub fn covers(&self, step: usize) -> bool {
        (self.from_step..self.until_step).contains(&step)
    }
}

/// Full static description of a simulated data center.
///
/// # Examples
///
/// ```
/// use megh_sim::DataCenterConfig;
///
/// let c = DataCenterConfig::paper_planetlab(10, 20);
/// assert_eq!(c.pms.len(), 10);
/// assert_eq!(c.vms.len(), 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DataCenterConfig {
    /// Host catalogue.
    pub pms: Vec<PmSpec>,
    /// VM catalogue; index `j` is driven by trace row `j`.
    pub vms: Vec<VmSpec>,
    /// Pricing and threshold constants.
    pub cost: CostParams,
    /// Initial VM→host assignment policy.
    pub initial_placement: InitialPlacement,
    /// Scheduled host outages (maintenance windows / injected failures).
    pub outages: Vec<HostOutage>,
    /// CPU oversubscription ratio for the initial packing: demand-packed
    /// placement puts a VM on a host only while the *requested* MIPS
    /// there total at most `ratio × capacity`. CloudSim reserves requested
    /// capacity outright (ratio 1, no overcommit); real IaaS clouds
    /// oversubscribe CPU. Only the initial packing reads it: PABFD
    /// deliberately ignores it and MadVM never reads it, and the engine
    /// does not force it on scheduler actions.
    pub oversubscription_ratio: f64,
}

impl DataCenterConfig {
    /// The PlanetLab experimental fleet (§6.2): `m` hosts, half G4 / half
    /// G5, and `n` VMs drawn from the paper's instance-type mix.
    pub fn paper_planetlab(m: usize, n: usize) -> Self {
        Self {
            pms: PmSpec::paper_fleet(m),
            vms: VmSpec::paper_mix(n, 0x_7a57_e001),
            cost: CostParams::paper_defaults(),
            initial_placement: InitialPlacement::RoundRobin,
            outages: Vec::new(),
            oversubscription_ratio: 2.0,
        }
    }

    /// The Google Cluster experimental fleet (§6.2): `m` hosts, `n` VMs.
    ///
    /// Identical hardware mix; the datasets differ in their workloads,
    /// not their machines.
    pub fn paper_google(m: usize, n: usize) -> Self {
        Self {
            vms: VmSpec::paper_mix(n, 0x_6006_1e00),
            ..Self::paper_planetlab(m, n)
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when VMs exist without hosts, any spec has a
    /// non-positive capacity or bandwidth or a negative RAM size, or a
    /// parameter, outage or explicit placement is out of range.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.vms.is_empty() && self.pms.is_empty() {
            return Err(SimError::NoHosts);
        }
        // A positive NIC and non-negative RAM keep every migration's
        // `migration_seconds` finite and non-negative in the step loop.
        if let Some(i) = self
            .pms
            .iter()
            .position(|p| p.mips <= 0.0 || p.bw_mbps <= 0.0)
        {
            return Err(SimError::InvalidHost(i));
        }
        if let Some(j) = self
            .vms
            .iter()
            .position(|v| v.mips <= 0.0 || v.ram_mb < 0.0)
        {
            return Err(SimError::InvalidVm(j));
        }
        if self.oversubscription_ratio <= 0.0 || !self.oversubscription_ratio.is_finite() {
            return Err(SimError::InvalidParameter(
                "oversubscription_ratio must be positive and finite",
            ));
        }
        if let Some(outage) = self
            .outages
            .iter()
            .find(|o| o.host >= self.pms.len() || o.from_step >= o.until_step)
        {
            let _ = outage;
            return Err(SimError::InvalidParameter(
                "outage references a non-existent host or has an empty window",
            ));
        }
        if let InitialPlacement::Explicit(hosts) = &self.initial_placement {
            if hosts.len() != self.vms.len() {
                return Err(SimError::PlacementLengthMismatch {
                    n_vms: self.vms.len(),
                    listed: hosts.len(),
                });
            }
            if let Some(vm) = hosts.iter().position(|&h| h >= self.pms.len()) {
                return Err(SimError::PlacementHostOutOfRange {
                    vm,
                    host: hosts[vm],
                    n_hosts: self.pms.len(),
                });
            }
        }
        Ok(())
    }
}

/// Errors raised when constructing or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// VMs were configured but no hosts exist to run them.
    NoHosts,
    /// Host at the given index has a non-positive capacity or bandwidth.
    InvalidHost(usize),
    /// VM at the given index has a non-positive capacity or negative RAM.
    InvalidVm(usize),
    /// The trace's VM count differs from the configured VM count.
    TraceMismatch {
        /// VMs in the configuration.
        config_vms: usize,
        /// VM rows in the trace.
        trace_vms: usize,
    },
    /// An explicit initial placement lists a different number of hosts
    /// than there are VMs.
    PlacementLengthMismatch {
        /// VMs in the configuration.
        n_vms: usize,
        /// Entries in the placement list.
        listed: usize,
    },
    /// An explicit initial placement assigns a VM to a non-existent
    /// host.
    PlacementHostOutOfRange {
        /// Index of the offending VM.
        vm: usize,
        /// The host index it was assigned.
        host: usize,
        /// Number of hosts that actually exist.
        n_hosts: usize,
    },
    /// A scalar parameter is out of range.
    InvalidParameter(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoHosts => write!(f, "configuration has VMs but no hosts"),
            Self::InvalidHost(i) => write!(f, "host {i} has non-positive capacity"),
            Self::InvalidVm(j) => write!(f, "vm {j} has invalid capacity or RAM"),
            Self::TraceMismatch {
                config_vms,
                trace_vms,
            } => write!(
                f,
                "trace provides {trace_vms} VM rows but the config declares {config_vms} VMs"
            ),
            Self::PlacementLengthMismatch { n_vms, listed } => {
                write!(f, "explicit placement lists {listed} hosts for {n_vms} VMs")
            }
            Self::PlacementHostOutOfRange { vm, host, n_hosts } => write!(
                f,
                "explicit placement puts vm {vm} on host {host}, but only {n_hosts} hosts exist"
            ),
            Self::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_planetlab_layout() {
        let c = DataCenterConfig::paper_planetlab(8, 16);
        assert_eq!(c.pms.len(), 8);
        assert_eq!(c.vms.len(), 16);
        assert!(c.validate().is_ok());
        assert_eq!(c.cost, CostParams::paper_defaults());
    }

    #[test]
    fn validation_catches_missing_hosts() {
        let mut c = DataCenterConfig::paper_planetlab(0, 4);
        c.pms.clear();
        assert_eq!(c.validate().unwrap_err(), SimError::NoHosts);
    }

    #[test]
    fn validation_catches_bad_host_and_vm() {
        let mut c = DataCenterConfig::paper_planetlab(2, 2);
        c.pms[1].mips = 0.0;
        assert_eq!(c.validate().unwrap_err(), SimError::InvalidHost(1));

        let mut c = DataCenterConfig::paper_planetlab(2, 2);
        c.vms[0].mips = -5.0;
        assert_eq!(c.validate().unwrap_err(), SimError::InvalidVm(0));
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let mut c = DataCenterConfig::paper_planetlab(2, 2);
        c.oversubscription_ratio = 0.0;
        assert!(matches!(c.validate(), Err(SimError::InvalidParameter(_))));
    }

    #[test]
    fn validation_catches_bad_explicit_placement() {
        let mut c = DataCenterConfig::paper_planetlab(2, 3);
        c.initial_placement = InitialPlacement::Explicit(vec![0, 1]);
        assert_eq!(
            c.validate(),
            Err(SimError::PlacementLengthMismatch {
                n_vms: 3,
                listed: 2
            })
        );

        let mut c = DataCenterConfig::paper_planetlab(2, 3);
        c.initial_placement = InitialPlacement::Explicit(vec![0, 5, 1]);
        assert_eq!(
            c.validate(),
            Err(SimError::PlacementHostOutOfRange {
                vm: 1,
                host: 5,
                n_hosts: 2
            })
        );
    }

    #[test]
    fn errors_display_nonempty() {
        for e in [
            SimError::NoHosts,
            SimError::InvalidHost(1),
            SimError::InvalidVm(2),
            SimError::TraceMismatch {
                config_vms: 1,
                trace_vms: 2,
            },
            SimError::PlacementLengthMismatch {
                n_vms: 3,
                listed: 2,
            },
            SimError::PlacementHostOutOfRange {
                vm: 0,
                host: 9,
                n_hosts: 2,
            },
            SimError::InvalidParameter("x"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn google_config_differs_only_in_vm_mix() {
        let p = DataCenterConfig::paper_planetlab(4, 8);
        let g = DataCenterConfig::paper_google(4, 8);
        assert_eq!(p.pms, g.pms);
        assert_eq!(p.cost, g.cost);
    }
}
