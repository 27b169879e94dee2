//! Per-step accounting kernels of the engine's step loop.
//!
//! The engine's phase-5 accounting (per-host power draw + capacity
//! deficit, then per-VM SLA terms) treats every host and every VM
//! independently: each kernel reads its input slices and writes one
//! output slot per index. `run_core` calls both once per step over the
//! full host / VM range, on its own thread, and reduces the slots in
//! ascending index order.
//!
//! Kernels are pure over their slices and run on the per-step hot path:
//! they must not allocate, panic, or read any nondeterministic state.
//! Enforced by `cargo run -p lint`.
// lint: deny_alloc

use crate::{CostParams, PowerModel};

/// Computes per-host energy, capacity deficit, and utilization for a
/// range of hosts (all slices cover the same host range).
///
/// Per host `h` in the chunk:
///
/// * down hosts draw no power and serve nothing — deficit 1 when
///   occupied;
/// * hosts with no VMs sleep at 0 W;
/// * otherwise `out_util[h] = used/mips`, `out_joules[h]` is the
///   SPECpower draw over `tau` seconds, and `out_deficit[h]` is the
///   unserved fraction `1 - 1/u` when demand exceeds capacity (§3.3).
// lint: depth_budget(5)
#[allow(clippy::too_many_arguments)]
pub(crate) fn host_metrics_chunk(
    host_used: &[f64],
    host_mips: &[f64],
    host_vm_count: &[usize],
    host_down: &[bool],
    power: &[PowerModel],
    tau: f64,
    out_joules: &mut [f64],
    out_deficit: &mut [f64],
    out_util: &mut [f64],
) {
    // Contract: every slice covers the same host range (doc above);
    // these equalities are what lets the interval pass prove the loop
    // below in-bounds for all seven arrays.
    debug_assert_eq!(host_mips.len(), host_used.len());
    debug_assert_eq!(host_vm_count.len(), host_used.len());
    debug_assert_eq!(host_down.len(), host_used.len());
    debug_assert_eq!(power.len(), host_used.len());
    debug_assert_eq!(out_joules.len(), host_used.len());
    debug_assert_eq!(out_deficit.len(), host_used.len());
    debug_assert_eq!(out_util.len(), host_used.len());
    for h in 0..host_used.len() {
        out_joules[h] = 0.0;
        out_deficit[h] = 0.0;
        out_util[h] = 0.0;
        if host_down[h] {
            // A down host draws no power and serves nothing: every
            // resident VM is fully unavailable.
            if host_vm_count[h] > 0 {
                out_deficit[h] = 1.0;
            }
            continue;
        }
        if host_vm_count[h] == 0 {
            continue; // asleep, 0 W
        }
        let u = if host_mips[h] > 0.0 {
            host_used[h] / host_mips[h]
        } else {
            0.0
        };
        out_util[h] = u;
        out_joules[h] = power[h].energy_joules(u, tau);
        if u > 1.0 {
            out_deficit[h] = 1.0 - 1.0 / u;
        }
    }
}

/// Accrues downtime/requested time and computes the per-VM SLA cost
/// term for a range of VMs.
///
/// `placement`, `vm_downtime_s`, `vm_requested_s`, and `out_sla` cover
/// the same VM range; `deficit` is the *full* per-host deficit array
/// from [`host_metrics_chunk`]. The caller sums `out_sla` in ascending
/// VM order.
// lint: depth_budget(3)
pub(crate) fn vm_sla_chunk(
    placement: &[usize],
    deficit: &[f64],
    tau: f64,
    cost: &CostParams,
    vm_downtime_s: &mut [f64],
    vm_requested_s: &mut [f64],
    out_sla: &mut [f64],
) {
    // Contract: the per-VM slices cover the same VM range (doc above).
    debug_assert_eq!(vm_downtime_s.len(), placement.len());
    debug_assert_eq!(vm_requested_s.len(), placement.len());
    debug_assert_eq!(out_sla.len(), placement.len());
    for j in 0..placement.len() {
        // lint: allow(implicit_panic) -- placement entries are host ids < deficit.len() by construction (engine invariant checked at build)
        let d = deficit[placement[j]];
        if d > 0.0 {
            vm_downtime_s[j] += d * tau;
        }
        vm_requested_s[j] += tau;
        let fraction = vm_downtime_s[j] / vm_requested_s[j];
        out_sla[j] = cost.sla_cost_usd(cost.sla_band(fraction), tau);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_kernel_handles_down_sleeping_and_overloaded() {
        let used = [0.0, 100.0, 150.0, 50.0];
        let mips = [100.0, 100.0, 100.0, 100.0];
        let count = [0usize, 1, 2, 3];
        let down = [false, false, false, true];
        let power = vec![PowerModel::hp_proliant_g4(); 4];
        let (mut joules, mut deficit, mut util) = ([9.0; 4], [9.0; 4], [9.0; 4]);
        host_metrics_chunk(
            &used,
            &mips,
            &count,
            &down,
            &power,
            300.0,
            &mut joules,
            &mut deficit,
            &mut util,
        );
        // Host 0 sleeps, host 1 runs at exactly capacity, host 2 is
        // overloaded 1.5×, host 3 is down while occupied.
        assert_eq!(joules[0], 0.0);
        assert_eq!(deficit[0], 0.0);
        assert!(joules[1] > 0.0);
        assert_eq!(deficit[1], 0.0);
        assert_eq!(util[2], 1.5);
        assert!((deficit[2] - (1.0 - 1.0 / 1.5)).abs() < 1e-12);
        assert_eq!(joules[3], 0.0);
        assert_eq!(deficit[3], 1.0);
    }

    #[test]
    fn sla_kernel_accrues_downtime_against_full_deficit_array() {
        let placement = [1usize, 0];
        let deficit = [0.0, 0.25];
        let cost = CostParams::paper_defaults();
        let mut down = [0.0, 0.0];
        let mut req = [0.0, 0.0];
        let mut sla = [9.0, 9.0];
        vm_sla_chunk(
            &placement, &deficit, 300.0, &cost, &mut down, &mut req, &mut sla,
        );
        assert_eq!(down, [75.0, 0.0]);
        assert_eq!(req, [300.0, 300.0]);
        // VM 0 is 25 % down → Minor band payback; VM 1 pays nothing.
        assert!(sla[0] > 0.0);
        assert_eq!(sla[1], 0.0);
    }

    #[test]
    fn kernels_are_chunk_invariant() {
        // Splitting the host range into chunks must reproduce the
        // whole-range outputs bit for bit.
        let m = 7;
        let used: Vec<f64> = (0..m).map(|h| 40.0 * h as f64).collect();
        let mips = vec![100.0; m];
        let count: Vec<usize> = (0..m).map(|h| h % 3).collect();
        let down: Vec<bool> = (0..m).map(|h| h == 5).collect();
        let power = vec![PowerModel::hp_proliant_g5(); m];
        let mut whole = (vec![0.0; m], vec![0.0; m], vec![0.0; m]);
        host_metrics_chunk(
            &used,
            &mips,
            &count,
            &down,
            &power,
            300.0,
            &mut whole.0,
            &mut whole.1,
            &mut whole.2,
        );
        let mut split = (vec![0.0; m], vec![0.0; m], vec![0.0; m]);
        for (lo, hi) in [(0usize, 3usize), (3, 7)] {
            host_metrics_chunk(
                &used[lo..hi],
                &mips[lo..hi],
                &count[lo..hi],
                &down[lo..hi],
                &power[lo..hi],
                300.0,
                &mut split.0[lo..hi],
                &mut split.1[lo..hi],
                &mut split.2[lo..hi],
            );
        }
        assert_eq!(whole, split);
    }
}
