//! Physical- and virtual-machine catalogues (§6.2 experimental setup).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::PowerModel;

/// A physical machine (host) specification.
///
/// The paper's §6.2 setup: HP ProLiant ML110 G4/G5 servers, each a
/// dual-core machine modelled as a single CPU with the cumulative MIPS of
/// its cores (§3.1), 4 GB RAM and 1 Gbps network bandwidth.
///
/// # Examples
///
/// ```
/// use megh_sim::PmSpec;
///
/// let g4 = PmSpec::hp_proliant_g4();
/// assert_eq!(g4.mips, 3720.0);
/// assert_eq!(g4.ram_mb, 4096.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PmSpec {
    /// Cumulative CPU capacity in MIPS (all cores combined, §3.1).
    pub mips: f64,
    /// Memory in MB.
    pub ram_mb: f64,
    /// Network bandwidth in Mbps.
    pub bw_mbps: f64,
    /// SPECpower-derived power model.
    pub power: PowerModel,
}

impl PmSpec {
    /// HP ProLiant ML110 G4: 2 × 1860 MIPS, 4 GB RAM, 1 Gbps.
    pub fn hp_proliant_g4() -> Self {
        Self {
            mips: 2.0 * 1860.0,
            ram_mb: 4096.0,
            bw_mbps: 1000.0,
            power: PowerModel::hp_proliant_g4(),
        }
    }

    /// HP ProLiant ML110 G5: 2 × 2660 MIPS, 4 GB RAM, 1 Gbps.
    pub fn hp_proliant_g5() -> Self {
        Self {
            mips: 2.0 * 2660.0,
            ram_mb: 4096.0,
            bw_mbps: 1000.0,
            power: PowerModel::hp_proliant_g5(),
        }
    }

    /// The paper's heterogeneous fleet: half G4, half G5 (§6.2).
    ///
    /// For odd `m` the extra host is a G4.
    pub fn paper_fleet(m: usize) -> Vec<Self> {
        (0..m)
            .map(|i| {
                if i % 2 == 0 {
                    Self::hp_proliant_g4()
                } else {
                    Self::hp_proliant_g5()
                }
            })
            .collect()
    }
}

/// A virtual machine specification.
///
/// §6.2: each application runs on a VM with 1 vCPU of 500–2500 MIPS,
/// 0.5–2.5 GB RAM and 100 Mbps bandwidth. We follow the CloudSim
/// convention of a small catalogue of instance types spanning that range.
///
/// # Examples
///
/// ```
/// use megh_sim::VmSpec;
///
/// let mix = VmSpec::paper_mix(8, 42);
/// assert_eq!(mix.len(), 8);
/// assert!(mix.iter().all(|vm| vm.mips >= 500.0 && vm.mips <= 2500.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmSpec {
    /// Requested CPU capacity in MIPS.
    pub mips: f64,
    /// Memory in MB (what live migration must copy, §3.3).
    pub ram_mb: f64,
    /// Network bandwidth in Mbps.
    pub bw_mbps: f64,
}

impl VmSpec {
    /// Creates a VM spec.
    pub fn new(mips: f64, ram_mb: f64, bw_mbps: f64) -> Self {
        Self {
            mips,
            ram_mb,
            bw_mbps,
        }
    }

    /// The four instance types spanning the paper's 0.5–2.5 GB /
    /// 500–2500 MIPS range (CloudSim's standard catalogue, adapted).
    pub fn instance_types() -> [Self; 4] {
        [
            Self::new(2500.0, 2560.0, 100.0), // large
            Self::new(2000.0, 1740.0, 100.0), // medium
            Self::new(1000.0, 1740.0, 100.0), // small
            Self::new(500.0, 613.0, 100.0),   // micro
        ]
    }

    /// Draws `n` VM specs uniformly from [`VmSpec::instance_types`].
    pub fn paper_mix(n: usize, seed: u64) -> Vec<Self> {
        let types = Self::instance_types();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| types[rng.gen_range(0..types.len())].clone())
            .collect()
    }
}

/// Live-migration duration in seconds: all of a VM's `ram_mb` megabytes
/// copied once over a `bw_mbps` megabit/s link, `TM = 8·RAM/B` (§3.3).
/// Infinite when the link has no bandwidth.
///
/// # Examples
///
/// ```
/// // §6.3: a 0.5 GB VM takes at least 4000 ms over 1 Gbps.
/// assert_eq!(megh_sim::migration_seconds(512.0, 1000.0), 4.096);
/// ```
pub fn migration_seconds(ram_mb: f64, bw_mbps: f64) -> f64 {
    if bw_mbps <= 0.0 {
        return f64::INFINITY;
    }
    ram_mb * 8.0 / bw_mbps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fleet_is_half_and_half() {
        let fleet = PmSpec::paper_fleet(10);
        let g4 = fleet
            .iter()
            .filter(|p| p.power.name().contains("G4"))
            .count();
        let g5 = fleet
            .iter()
            .filter(|p| p.power.name().contains("G5"))
            .count();
        assert_eq!(g4, 5);
        assert_eq!(g5, 5);
    }

    #[test]
    fn odd_fleet_has_extra_g4() {
        let fleet = PmSpec::paper_fleet(5);
        let g4 = fleet
            .iter()
            .filter(|p| p.power.name().contains("G4"))
            .count();
        assert_eq!(g4, 3);
    }

    #[test]
    fn migration_time_matches_paper_figure() {
        // §6.3: "the migration time of a VM of 0.5 GB RAM is at least
        // 4000 ms" on the 1 Gbps PlanetLab setup.
        let tm = migration_seconds(512.0, 1000.0);
        assert!((tm - 4.096).abs() < 1e-9, "tm = {tm}");
        assert!(tm * 1000.0 >= 4000.0);
    }

    #[test]
    fn migration_time_with_zero_bandwidth_is_infinite() {
        assert!(migration_seconds(512.0, 0.0).is_infinite());
        assert!(migration_seconds(512.0, -1.0).is_infinite());
    }

    #[test]
    fn paper_mix_is_deterministic_and_in_range() {
        let a = VmSpec::paper_mix(50, 7);
        let b = VmSpec::paper_mix(50, 7);
        assert_eq!(a, b);
        for vm in &a {
            assert!(vm.mips >= 500.0 && vm.mips <= 2500.0);
            assert!(vm.ram_mb >= 512.0 && vm.ram_mb <= 2560.0);
        }
        // All four types should appear in a sample of 50.
        let distinct: std::collections::BTreeSet<u64> = a.iter().map(|v| v.mips as u64).collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn hosts_can_fit_multiple_small_vms() {
        let g4 = PmSpec::hp_proliant_g4();
        let micro = &VmSpec::instance_types()[3];
        assert!(g4.mips / micro.mips >= 7.0);
    }
}
