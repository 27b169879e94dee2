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
//! they read and write caller-owned slices and hold no container, so
//! there is nothing in them to allocate, and clippy rejects an index, a
//! division or an explicit panic here (attribute below and crate root).
//! The loop that calls them is another matter — `run_core` rebuilds the
//! scheduler's view every step, 117 allocations at 50 × 66 — which is
//! why `crates/core/tests/no_alloc.rs` counts inside the scheduler's
//! calls only.
#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)
)]

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
    // Contract: every slice covers the same host range (doc above). The
    // zip below stops at the shortest slice, so a mismatch would be a
    // silent truncation; these are the executed check against it.
    debug_assert_eq!(host_mips.len(), host_used.len());
    debug_assert_eq!(host_vm_count.len(), host_used.len());
    debug_assert_eq!(host_down.len(), host_used.len());
    debug_assert_eq!(power.len(), host_used.len());
    debug_assert_eq!(out_joules.len(), host_used.len());
    debug_assert_eq!(out_deficit.len(), host_used.len());
    debug_assert_eq!(out_util.len(), host_used.len());
    let inputs = host_used
        .iter()
        .zip(host_mips)
        .zip(host_vm_count)
        .zip(host_down)
        .zip(power);
    let outputs = out_joules
        .iter_mut()
        .zip(out_deficit.iter_mut())
        .zip(out_util.iter_mut());
    for (((((&used, &mips), &vm_count), &down), power), ((joules, deficit), util)) in
        inputs.zip(outputs)
    {
        *joules = 0.0;
        *deficit = 0.0;
        *util = 0.0;
        if down {
            // A down host draws no power and serves nothing: every
            // resident VM is fully unavailable.
            if vm_count > 0 {
                *deficit = 1.0;
            }
            continue;
        }
        if vm_count == 0 {
            continue; // asleep, 0 W
        }
        let u = if mips > 0.0 { used / mips } else { 0.0 };
        *util = u;
        *joules = power.energy_joules(u, tau);
        if u > 1.0 {
            *deficit = 1.0 - 1.0 / u;
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
pub(crate) fn vm_sla_chunk(
    placement: &[usize],
    deficit: &[f64],
    tau: f64,
    cost: &CostParams,
    vm_downtime_s: &mut [f64],
    vm_requested_s: &mut [f64],
    out_sla: &mut [f64],
) {
    // Contract: the per-VM slices cover the same VM range (doc above);
    // executed here because the zip below would truncate silently.
    debug_assert_eq!(vm_downtime_s.len(), placement.len());
    debug_assert_eq!(vm_requested_s.len(), placement.len());
    debug_assert_eq!(out_sla.len(), placement.len());
    let accounts = vm_downtime_s
        .iter_mut()
        .zip(vm_requested_s.iter_mut())
        .zip(out_sla.iter_mut());
    for (&host, ((downtime_s, requested_s), sla)) in placement.iter().zip(accounts) {
        // Placement entries are host ids < deficit.len() by construction
        // (engine invariant checked at build).
        debug_assert!(host < deficit.len());
        let d = deficit.get(host).copied().unwrap_or(0.0);
        if d > 0.0 {
            *downtime_s += d * tau;
        }
        *requested_s += tau;
        let fraction = *downtime_s / *requested_s;
        *sla = cost.sla_cost_usd(cost.sla_band(fraction), tau);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The zips must compute, slot for slot and bit for bit, the
        /// per-host formulas of `host_metrics_chunk`'s doc comment —
        /// over every length from empty up, with down, sleeping,
        /// overloaded and zero-MIPS hosts in the mix.
        #[test]
        fn host_kernel_equals_the_per_element_formulas(
            hosts in prop::collection::vec(
                (0.0..300.0f64, 0..4usize, 0..3usize, 0..4usize, 0..2usize),
                0..64,
            ),
            tau in 1.0..600.0f64,
        ) {
            let used: Vec<f64> = hosts.iter().map(|h| h.0).collect();
            // One host in four has no capacity, one in four is down.
            let mips: Vec<f64> = hosts.iter().map(|h| if h.1 == 0 { 0.0 } else { 100.0 }).collect();
            let count: Vec<usize> = hosts.iter().map(|h| h.2).collect();
            let down: Vec<bool> = hosts.iter().map(|h| h.3 == 0).collect();
            let power: Vec<PowerModel> = hosts
                .iter()
                .map(|h| if h.4 == 0 { PowerModel::hp_proliant_g4() } else { PowerModel::hp_proliant_g5() })
                .collect();
            let n = hosts.len();
            let (mut joules, mut deficit, mut util) = (vec![9.0; n], vec![9.0; n], vec![9.0; n]);
            host_metrics_chunk(
                &used, &mips, &count, &down, &power, tau, &mut joules, &mut deficit, &mut util,
            );
            for h in 0..n {
                let (mut want_joules, mut want_deficit, mut want_util) = (0.0, 0.0, 0.0);
                if down[h] {
                    if count[h] > 0 {
                        want_deficit = 1.0;
                    }
                } else if count[h] > 0 {
                    let u = if mips[h] > 0.0 { used[h] / mips[h] } else { 0.0 };
                    want_util = u;
                    want_joules = power[h].energy_joules(u, tau);
                    if u > 1.0 {
                        want_deficit = 1.0 - 1.0 / u;
                    }
                }
                prop_assert_eq!(joules[h].to_bits(), f64::to_bits(want_joules));
                prop_assert_eq!(deficit[h].to_bits(), f64::to_bits(want_deficit));
                prop_assert_eq!(util[h].to_bits(), f64::to_bits(want_util));
            }
        }

        /// Same for `vm_sla_chunk`, accruing over two calls so the
        /// in-place `+=` terms are exercised from a non-zero state.
        #[test]
        fn sla_kernel_equals_the_per_element_formulas(
            vms in prop::collection::vec((0..5usize, 0.0..900.0f64), 0..64),
            deficit in prop::collection::vec((0..3usize, 0.0..1.0f64), 5..6),
            tau in 1.0..600.0f64,
        ) {
            // Two hosts in three have no deficit at all.
            let deficit: Vec<f64> = deficit.iter().map(|d| if d.0 == 0 { d.1 } else { 0.0 }).collect();
            let placement: Vec<usize> = vms.iter().map(|v| v.0).collect();
            let cost = CostParams::paper_defaults();
            let n = vms.len();
            let mut downtime: Vec<f64> = vms.iter().map(|v| v.1 / 10.0).collect();
            let mut requested: Vec<f64> = vms.iter().map(|v| v.1).collect();
            let (mut want_down, mut want_req) = (downtime.clone(), requested.clone());
            let mut sla = vec![9.0; n];
            for _ in 0..2 {
                vm_sla_chunk(
                    &placement, &deficit, tau, &cost, &mut downtime, &mut requested, &mut sla,
                );
                for j in 0..n {
                    let d = deficit[placement[j]];
                    if d > 0.0 {
                        want_down[j] += d * tau;
                    }
                    want_req[j] += tau;
                    let want = cost.sla_cost_usd(cost.sla_band(want_down[j] / want_req[j]), tau);
                    prop_assert_eq!(downtime[j].to_bits(), want_down[j].to_bits());
                    prop_assert_eq!(requested[j].to_bits(), want_req[j].to_bits());
                    prop_assert_eq!(sla[j].to_bits(), want.to_bits());
                }
            }
        }
    }

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
