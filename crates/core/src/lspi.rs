//! The sparse LSPI state: `B = T⁻¹`, the cost accumulator `z`, and the
//! projection vector `θ = B·z`, all maintained incrementally.
//!
//! §5.2's complexity management is implemented literally here:
//!
//! * `B` is represented as `(1/δ)·I + Δ` where `Δ` is a sparse DOK
//!   matrix, initially *empty*. Memory starts at `O(1)` — a new state of
//!   any `d` touches no heap (the paper's `O(d)` counts the implicit
//!   diagonal) — and grows only with what is learned: `Δ`'s entries and
//!   its occupied rows and columns, `z`, `θ` and the sorted list of
//!   explored actions. Flat Megh at 5 000 hosts × 6 600 VMs
//!   (`d = 33·10⁶`) peaks at 31 MB over 30 simulated days.
//!   [`SparseLspi::explicit_nnz`] — the number of stored entries of `Δ` —
//!   is the Figure 7 "Q-table non-zeros" metric.
//! * Each update applies the Sherman–Morrison formula (Eq. 11) with
//!   `u = φ_{a_t}`, `v = φ_{a_t} − γ·φ_{a_{t+1}}`, touching only the
//!   occupied rows/columns — `O(#migrations)` work per step.
//! * `θ` is updated in closed form rather than recomputed: with
//!   `bu = B·u`, `vb = Bᵀ·v`, `den = 1 + v·bu`,
//!   `θ' = θ + [ −(vb·z)/den + C·(1 − (vb·u)/den) ]·bu`,
//!   which follows from `θ' = B'(z + C·u)` and the rank-1 structure.
//!
//! An update on previously seen actions allocates nothing: the basis
//! vectors `u`, `v` and the products `bu`, `vb` live in reusable scratch
//! buffers, and the minimum explicit `θ` entry is cached and maintained
//! incrementally so [`SparseLspi::min_q`] never scans.

// This module is on the Megh decision hot path. `tests/no_alloc.rs`
// holds `update` on previously seen action pairs at 0 allocations; a
// pair that extends the support grows Δ's adjacency rows, θ, z and the
// product scratch, which is what a learning `decide` pays for.
#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)
)]

use megh_linalg::{DokMatrix, SparseVec};
use serde::value::{to_value, Value, ValueError};
use serde::{Deserialize, Serialize};

/// Incremental least-squares policy-iteration state over `d` actions.
///
/// # Examples
///
/// ```
/// use megh_core::SparseLspi;
///
/// let mut lspi = SparseLspi::new(6, 6.0, 0.5);
/// assert_eq!(lspi.q(3), 0.0);
/// lspi.update(3, 1, 2.0);
/// assert!(lspi.q(3) > 0.0); // action 3 now carries observed cost
/// assert_eq!(lspi.updates(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SparseLspi {
    dim: usize,
    inv_delta: f64,
    gamma: f64,
    /// Sparse correction: `B = inv_delta·I + delta_b`.
    delta_b: DokMatrix,
    z: SparseVec,
    theta: SparseVec,
    updates: usize,
    skipped_singular: usize,
    /// Actions that have received a successful update, sorted and
    /// distinct. An action's `θ` entry can cancel back to exactly 0.0, so
    /// exploration must be tracked explicitly rather than read off `θ`'s
    /// support.
    explored: Vec<usize>,
    /// Cached `(action, value)` of the smallest explicit `θ` entry,
    /// maintained incrementally across updates.
    min_entry: Option<(usize, f64)>,
    // Reusable scratch for the Sherman–Morrison step; never serialized.
    scratch_u: SparseVec,
    scratch_v: SparseVec,
    scratch_bu: SparseVec,
    scratch_vb: SparseVec,
}

impl SparseLspi {
    /// Creates the initial state `B₀ = (1/δ)·I`, `z₀ = 0`, `θ₀ = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `delta <= 0` or `gamma ∉ [0, 1)`.
    pub fn new(dim: usize, delta: f64, gamma: f64) -> Self {
        assert!(delta > 0.0, "delta must be positive");
        assert!((0.0..1.0).contains(&gamma), "gamma must be in [0, 1)");
        Self {
            dim,
            inv_delta: 1.0 / delta,
            gamma,
            delta_b: DokMatrix::zeros(dim),
            z: SparseVec::zeros(dim),
            theta: SparseVec::zeros(dim),
            updates: 0,
            skipped_singular: 0,
            explored: Vec::new(),
            min_entry: None,
            scratch_u: SparseVec::zeros(dim),
            scratch_v: SparseVec::zeros(dim),
            scratch_bu: SparseVec::zeros(dim),
            scratch_vb: SparseVec::zeros(dim),
        }
    }

    /// The projected dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The discount factor γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The approximate action value `Q(s, a) = θᵀ φ_a = θ[a]`.
    ///
    /// # Panics
    ///
    /// Panics if `action >= dim()`.
    pub fn q(&self, action: usize) -> f64 {
        self.theta.get(action)
    }

    /// Explicit non-zero entries stored in the `Δ` part of `B` — the
    /// Figure 7 Q-table growth metric.
    pub fn explicit_nnz(&self) -> usize {
        self.delta_b.nnz()
    }

    /// Non-zero entries of `θ` (distinct actions carrying value).
    pub fn theta_nnz(&self) -> usize {
        self.theta.nnz()
    }

    /// Successful Sherman–Morrison updates applied so far.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Updates skipped because the rank-1 denominator vanished.
    pub fn skipped_singular(&self) -> usize {
        self.skipped_singular
    }

    /// Iterates over the explicit entries of `θ` as `(action, q)` pairs.
    pub fn theta_entries(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.theta.iter()
    }

    /// `θ` itself, for the policy's zero-class test `q(a) == 0.0`.
    pub(crate) fn theta(&self) -> &SparseVec {
        &self.theta
    }

    /// The smallest explicit `θ` entry as `(action, value)`, if any.
    ///
    /// Served from the incrementally maintained cache — `O(1)`.
    pub fn min_theta_entry(&self) -> Option<(usize, f64)> {
        self.min_entry
    }

    /// Distinct actions that have received at least one successful
    /// update.
    pub fn explored_count(&self) -> usize {
        self.explored.len()
    }

    /// Minimum Q over the whole action space.
    ///
    /// Actions without an explicit `θ` entry have `Q = 0` exactly, so
    /// the minimum is the smaller of 0 (when any such action exists)
    /// and the cached smallest explicit entry — `O(1)`, no scan.
    pub fn min_q(&self) -> f64 {
        let explicit_min = self.min_entry.map_or(f64::INFINITY, |(_, v)| v);
        if self.theta.nnz() < self.dim {
            explicit_min.min(0.0)
        } else if explicit_min.is_finite() {
            explicit_min
        } else {
            0.0
        }
    }

    /// Whether the action has never received a successful update.
    ///
    /// Tracked explicitly: an explored action whose `θ` entry cancels
    /// back to exactly 0.0 (or whose first observed cost was 0) still
    /// counts as explored, even though its Q reads 0.
    ///
    /// # Panics
    ///
    /// Panics if `action >= dim()`.
    pub fn is_unexplored(&self, action: usize) -> bool {
        assert!(action < self.dim, "action index {action} out of range");
        self.explored.binary_search(&action).is_err()
    }

    /// Applies one learning step: the agent took `a_prev`, observed
    /// per-stage cost `cost`, and its current policy would next take
    /// `a_next` (the `φ_{π_t(s_{t+1})}` of Eq. 10).
    ///
    /// Returns `false` when the Sherman–Morrison denominator vanished
    /// and the update was skipped (the corresponding `T` update would
    /// have made it singular — vanishingly rare with γ < 1). Skipped
    /// updates do not mark `a_prev` explored.
    ///
    /// # Panics
    ///
    /// Panics if either action index is out of range.
    pub fn update(&mut self, a_prev: usize, a_next: usize, cost: f64) -> bool {
        assert!(a_prev < self.dim, "a_prev out of range");
        assert!(a_next < self.dim, "a_next out of range");

        let den = self.sherman_products(a_prev, a_next);
        if den.abs() < 1e-12 {
            self.skipped_singular += 1;
            return false;
        }

        // θ' = θ + [ −(vb·z)/den + C·(1 − (vb·u)/den) ]·bu.
        let vb_z = self.scratch_vb.dot(&self.z);
        let vb_u = self.scratch_vb.dot(&self.scratch_u);
        let coeff = -(vb_z / den) + cost * (1.0 - vb_u / den);
        if coeff != 0.0 {
            self.theta.add_scaled_assign(&self.scratch_bu, coeff);
            self.refresh_theta_min();
        }

        // B' = B − bu·vbᵀ/den (the identity part is untouched; the whole
        // correction accumulates in Δ).
        self.delta_b
            .add_outer_product(&self.scratch_bu, &self.scratch_vb, -1.0 / den);

        // z' = z + C·φ_{a_prev}.
        self.z.add_at(a_prev, cost);

        if let Err(pos) = self.explored.binary_search(&a_prev) {
            self.explored.insert(pos, a_prev);
        }

        self.updates += 1;
        true
    }

    /// Builds `u = φ_{a_prev}`, `v = u − γ·φ_{a_next}` in scratch and
    /// computes `bu = B·u`, `vb = Bᵀ·v`, returning the Sherman–Morrison
    /// denominator `1 + v·bu`.
    fn sherman_products(&mut self, a_prev: usize, a_next: usize) -> f64 {
        // Basis vectors built in scratch so the steady-state step never
        // touches the allocator.
        self.scratch_u.clear();
        self.scratch_u.set(a_prev, 1.0);
        self.scratch_v.clear();
        self.scratch_v.set(a_prev, 1.0);
        self.scratch_v.add_at(a_next, -self.gamma);

        // bu = B·u = u/δ + Δ·u ; vb = Bᵀ·v = v/δ + Δᵀ·v.
        self.delta_b
            .mul_sparse_vec_into(&self.scratch_u, &mut self.scratch_bu);
        self.scratch_bu
            .add_scaled_assign(&self.scratch_u, self.inv_delta);
        self.delta_b
            .mul_sparse_vec_left_into(&self.scratch_v, &mut self.scratch_vb);
        self.scratch_vb
            .add_scaled_assign(&self.scratch_v, self.inv_delta);

        1.0 + self.scratch_v.dot(&self.scratch_bu)
    }

    /// Computes the Sherman–Morrison step for `(a_prev, a_next, cost)`
    /// *without applying it*, returning the coefficient the step would
    /// multiply `B·u` by when updating `θ` — a per-sample Bellman
    /// correction magnitude.
    ///
    /// This is the read-only critic evaluation phases run in place of
    /// [`SparseLspi::update`]: it performs the same `B·u` / `Bᵀ·v`
    /// products but leaves `B`, `z`, `θ` and all counters untouched.
    /// Returns `None` when the denominator vanishes, mirroring the
    /// skipped-update case.
    ///
    /// # Panics
    ///
    /// Panics if either action index is out of range.
    pub fn preview_update(&mut self, a_prev: usize, a_next: usize, cost: f64) -> Option<f64> {
        assert!(a_prev < self.dim, "a_prev out of range");
        assert!(a_next < self.dim, "a_next out of range");

        let den = self.sherman_products(a_prev, a_next);
        if den.abs() < 1e-12 {
            return None;
        }
        let vb_z = self.scratch_vb.dot(&self.z);
        let vb_u = self.scratch_vb.dot(&self.scratch_u);
        Some(-(vb_z / den) + cost * (1.0 - vb_u / den))
    }

    /// Maintains the cached minimum after `θ` changed on the support of
    /// `scratch_bu`. A full `O(nnz(θ))` rescan happens only when the
    /// cached argmin's own entry rose or vanished; otherwise the cost is
    /// `O(nnz(bu))` lookups.
    fn refresh_theta_min(&mut self) {
        let invalidated = match self.min_entry {
            Some((idx, val)) if self.scratch_bu.get(idx) != 0.0 => {
                let now = self.theta.get(idx);
                if now == 0.0 || now > val {
                    true
                } else {
                    self.min_entry = Some((idx, now));
                    false
                }
            }
            _ => false,
        };
        if invalidated {
            self.rescan_theta_min();
            return;
        }
        // A touched entry may have dropped below the cached minimum.
        for (i, _) in self.scratch_bu.iter() {
            let v = self.theta.get(i);
            if v != 0.0 && self.min_entry.is_none_or(|(_, bv)| v < bv) {
                self.min_entry = Some((i, v));
            }
        }
    }

    fn rescan_theta_min(&mut self) {
        self.min_entry = None;
        for (i, v) in self.theta.iter() {
            if self.min_entry.is_none_or(|(_, bv)| v < bv) {
                self.min_entry = Some((i, v));
            }
        }
    }

    /// Recomputes `θ = B·z` from scratch (test oracle; `O(nnz)` but not
    /// incremental).
    pub fn recompute_theta(&self) -> SparseVec {
        let mut theta = self.delta_b.mul_sparse_vec(&self.z);
        theta = theta.add_scaled(&self.z, self.inv_delta);
        theta
    }
}

/// Serialized form: semantic state only. Scratch buffers and the cached
/// minimum are derived, so they are rebuilt on restore; exploration is
/// the sorted list of explored action indices.
#[derive(Deserialize)]
struct SparseLspiRepr {
    dim: usize,
    inv_delta: f64,
    gamma: f64,
    delta_b: DokMatrix,
    z: SparseVec,
    theta: SparseVec,
    updates: usize,
    skipped_singular: usize,
    explored: Vec<usize>,
}

impl Serialize for SparseLspi {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // `SparseLspiRepr`'s fields, in its order, written from borrowed
        // state: saving a checkpoint copies none of Δ, z or θ.
        let field = |name: &str, value: Result<Value, ValueError>| {
            value
                .map(|v| (name.to_string(), v))
                .map_err(<S::Error as serde::ser::Error>::custom)
        };
        serializer.serialize_value(Value::Object(vec![
            field("dim", to_value(&self.dim))?,
            field("inv_delta", to_value(&self.inv_delta))?,
            field("gamma", to_value(&self.gamma))?,
            field("delta_b", to_value(&self.delta_b))?,
            field("z", to_value(&self.z))?,
            field("theta", to_value(&self.theta))?,
            field("updates", to_value(&self.updates))?,
            field("skipped_singular", to_value(&self.skipped_singular))?,
            field("explored", to_value(&self.explored))?,
        ]))
    }
}

impl<'de> Deserialize<'de> for SparseLspi {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let repr = SparseLspiRepr::deserialize(deserializer)?;
        let fail = <D::Error as serde::de::Error>::custom;
        if [repr.delta_b.order(), repr.z.dim(), repr.theta.dim()] != [repr.dim; 3] {
            return Err(fail(format!(
                "Δ order {}, z dim {} and θ dim {} must all equal dim {}",
                repr.delta_b.order(),
                repr.z.dim(),
                repr.theta.dim(),
                repr.dim
            )));
        }
        if !repr.explored.is_sorted_by(|a, b| a < b) {
            return Err(fail(
                "explored actions must be sorted and distinct".to_string(),
            ));
        }
        if let Some(&a) = repr.explored.last().filter(|&&a| a >= repr.dim) {
            return Err(fail(format!(
                "explored action {a} outside dim {}",
                repr.dim
            )));
        }
        let mut lspi = SparseLspi {
            dim: repr.dim,
            inv_delta: repr.inv_delta,
            gamma: repr.gamma,
            delta_b: repr.delta_b,
            z: repr.z,
            theta: repr.theta,
            updates: repr.updates,
            skipped_singular: repr.skipped_singular,
            explored: repr.explored,
            min_entry: None,
            scratch_u: SparseVec::zeros(repr.dim),
            scratch_v: SparseVec::zeros(repr.dim),
            scratch_bu: SparseVec::zeros(repr.dim),
            scratch_vb: SparseVec::zeros(repr.dim),
        };
        lspi.rescan_theta_min();
        Ok(lspi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megh_linalg::{identity_residual, sherman_morrison_update, DenseMatrix};
    use proptest::prelude::*;

    fn assert_theta_consistent(lspi: &SparseLspi) {
        let want = lspi.recompute_theta();
        for a in 0..lspi.dim() {
            assert!(
                (lspi.q(a) - want.get(a)).abs() < 1e-9,
                "theta[{a}] = {} but recompute gives {}",
                lspi.q(a),
                want.get(a)
            );
        }
    }

    fn naive_min_entry(lspi: &SparseLspi) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (a, v) in lspi.theta_entries() {
            if best.is_none_or(|(_, bv)| v < bv) {
                best = Some((a, v));
            }
        }
        best
    }

    proptest! {
        /// The maintained inverse, checked on the path Megh runs. After
        /// every `update` of a random sequence: Δ keeps its row/column
        /// mirror; `B = Δ + (1/δ)·I` inverts a dense shadow of
        /// `T = δ·I + Σ u·vᵀ`; the reference `sherman_morrison_update`,
        /// run on a full `B`, applies or skips the same step and agrees
        /// entry for entry; the cached min-θ matches a scan and θ matches
        /// `B·z`. d = 12 makes repeated actions and `a_prev == a_next`
        /// common; costs run at ±5 and at the per-step-USD scale real
        /// runs produce (10⁻⁶ … 10⁻⁴), θ's tolerance scaled to match.
        #[test]
        fn update_tracks_a_dense_shadow_and_the_reference_sherman_morrison(
            steps in prop::collection::vec((0..12usize, 0..12usize, -1.0..1.0f64), 1..48),
            gamma in 0.0..0.9f64,
            usd in 0..2usize,
        ) {
            let d = 12;
            let delta = d as f64;
            let usd = usd == 1;
            let theta_tol = if usd { 1e-4 * 1e-9 } else { 5.0 * 1e-9 };
            let mut lspi = SparseLspi::new(d, delta, gamma);
            let mut reference = DokMatrix::scaled_identity(d, 1.0 / delta);
            let mut t = DenseMatrix::zeros(d, d);
            for i in 0..d {
                t.set(i, i, delta);
            }
            for (step, &(a, a_next, x)) in steps.iter().enumerate() {
                let cost = if usd { 10f64.powf(x - 5.0) } else { 5.0 * x };
                let u = SparseVec::basis(d, a);
                let v = SparseVec::basis(d, a).add_scaled(&SparseVec::basis(d, a_next), -gamma);
                let applied = lspi.update(a, a_next, cost);
                prop_assert_eq!(
                    applied,
                    sherman_morrison_update(&mut reference, &u, &v).is_ok(),
                    "step {step}: update and the reference disagree on skipping"
                );
                if applied {
                    for (i, ui) in u.iter() {
                        for (j, vj) in v.iter() {
                            t.set(i, j, t.get(i, j) + ui * vj);
                        }
                    }
                }

                prop_assert_eq!(
                    lspi.delta_b.check_consistency(),
                    Ok(()),
                    "step {step}: Δ's row/column mirror broke"
                );
                let mut b = lspi.delta_b.to_dense();
                for i in 0..d {
                    b.set(i, i, b.get(i, i) + lspi.inv_delta);
                }
                let residual = identity_residual(&b, &t);
                prop_assert!(residual < 1e-6, "step {step}: ‖B·T − I‖∞ = {residual:e}");
                let drift = b.max_abs_diff(&reference.to_dense());
                prop_assert!(
                    drift < 1e-12,
                    "step {step}: B differs from the reference Sherman–Morrison by {drift:e}"
                );

                let cached = lspi.min_theta_entry();
                prop_assert_eq!(
                    cached.map(|(_, q)| q),
                    naive_min_entry(&lspi).map(|(_, q)| q),
                    "step {step}: cached min-θ disagrees with a full scan"
                );
                prop_assert!(cached.is_none_or(|(a, q)| lspi.q(a) == q));
                let want = lspi.recompute_theta();
                for a in 0..d {
                    let (got, want) = (lspi.q(a), want.get(a));
                    prop_assert!(
                        (got - want).abs() <= theta_tol,
                        "step {step}: θ[{a}] = {got:e} but B·z gives {want:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn initial_state_is_zero() {
        let lspi = SparseLspi::new(10, 10.0, 0.5);
        assert_eq!(lspi.explicit_nnz(), 0);
        assert_eq!(lspi.theta_nnz(), 0);
        assert_eq!(lspi.min_q(), 0.0);
        assert_eq!(lspi.explored_count(), 0);
        assert_eq!(lspi.min_theta_entry(), None);
        for a in 0..10 {
            assert_eq!(lspi.q(a), 0.0);
            assert!(lspi.is_unexplored(a));
        }
    }

    #[test]
    fn single_update_raises_q_of_taken_action() {
        let mut lspi = SparseLspi::new(4, 4.0, 0.5);
        assert!(lspi.update(2, 0, 3.0));
        assert!(lspi.q(2) > 0.0, "q(2) = {}", lspi.q(2));
        assert_theta_consistent(&lspi);
    }

    #[test]
    fn incremental_theta_matches_recompute_over_many_updates() {
        let mut lspi = SparseLspi::new(8, 8.0, 0.5);
        let steps = [
            (0usize, 1usize, 2.0),
            (1, 3, 1.5),
            (3, 3, 0.7),
            (2, 0, 4.0),
            (0, 2, 0.9),
            (5, 7, 2.2),
            (7, 5, 1.1),
            (3, 1, 0.3),
        ];
        for &(a, a2, c) in &steps {
            lspi.update(a, a2, c);
            assert_theta_consistent(&lspi);
        }
        assert_eq!(lspi.updates(), steps.len());
    }

    #[test]
    fn cached_min_matches_naive_scan_over_many_updates() {
        // Mixed positive and negative costs exercise both the cheap
        // touched-entry path and the full-rescan path (the cached
        // argmin's own entry rising) of the cache maintenance.
        let mut lspi = SparseLspi::new(12, 12.0, 0.5);
        let costs = [3.0, -2.0, 5.0, -4.5, 1.0, -1.0, 7.0, -6.0, 0.5, 2.5];
        for (t, &c) in costs.iter().cycle().take(60).enumerate() {
            lspi.update(t % 12, (t * 5 + 2) % 12, c);
            assert_eq!(
                lspi.min_theta_entry().map(|(_, v)| v),
                naive_min_entry(&lspi).map(|(_, v)| v),
                "cached min diverged after update {t}"
            );
        }
    }

    #[test]
    fn qtable_growth_is_bounded_by_updates() {
        // Each update adds O(1) rows/columns of fill-in: the Fig 7
        // "linear growth in time" property.
        let mut lspi = SparseLspi::new(100, 100.0, 0.5);
        let mut prev_nnz = 0;
        for t in 0..50 {
            lspi.update(t % 100, (t * 7 + 3) % 100, 1.0);
            let nnz = lspi.explicit_nnz();
            assert!(nnz >= prev_nnz, "nnz must be monotone");
            prev_nnz = nnz;
        }
        // Far below dense d² = 10_000.
        assert!(prev_nnz < 1000, "nnz = {prev_nnz} — fill-in explosion");
    }

    #[test]
    fn min_q_accounts_for_unexplored_zero() {
        let mut lspi = SparseLspi::new(5, 5.0, 0.5);
        lspi.update(0, 1, 10.0);
        // Explored action has positive Q; the other 4 sit at 0.
        assert_eq!(lspi.min_q(), 0.0);
        assert!(!lspi.is_unexplored(0));
        assert!(lspi.is_unexplored(4));
    }

    #[test]
    fn zero_cost_update_still_marks_action_explored() {
        // Regression: a zero observed cost with `z` still empty leaves
        // θ[a] at exactly 0.0; the old support-based check misread the
        // taken action as unexplored forever.
        let mut lspi = SparseLspi::new(8, 8.0, 0.5);
        assert!(lspi.update(3, 3, 0.0));
        assert_eq!(lspi.q(3), 0.0);
        assert!(
            !lspi.is_unexplored(3),
            "action 3 was taken and must count as explored"
        );
        assert_eq!(lspi.explored_count(), 1);
        assert!(lspi.is_unexplored(4));
    }

    #[test]
    fn theta_entry_cancelled_to_exact_zero_stays_explored() {
        // Regression: drive an explored action's θ entry back to exactly
        // 0.0 through the public update path. q(0) after one more update
        // is affine in that update's cost, so solve for the cancelling
        // cost and walk the neighbouring float values until the entry
        // vanishes from θ's support.
        let mut base = SparseLspi::new(3, 1.0, 0.0);
        base.update(0, 0, 2.0);
        assert!(base.q(0) > 0.0);
        let q_after = |cost: f64| {
            let mut probe = base.clone();
            probe.update(0, 0, cost);
            probe.q(0)
        };
        let at_zero = q_after(0.0);
        let slope = q_after(1.0) - at_zero;
        let guess = -at_zero / slope;
        let mut cancelling = None;
        for offset in -64i64..=64 {
            let cost = f64::from_bits((guess.to_bits() as i64 + offset) as u64);
            if q_after(cost) == 0.0 {
                cancelling = Some(cost);
                break;
            }
        }
        let cost = cancelling.expect("an exactly-cancelling cost exists near the affine root");
        let mut lspi = base.clone();
        lspi.update(0, 0, cost);
        assert_eq!(lspi.q(0), 0.0);
        assert_eq!(lspi.theta_nnz(), 0, "entry must be gone from θ's support");
        assert!(
            !lspi.is_unexplored(0),
            "cancelled-to-zero action must stay explored"
        );
        assert_eq!(lspi.min_q(), 0.0);
    }

    #[test]
    fn exploration_flags_survive_serde_roundtrip() {
        let mut lspi = SparseLspi::new(6, 6.0, 0.5);
        lspi.update(2, 2, 0.0); // explored, θ[2] stays exactly 0
        lspi.update(4, 1, 3.0);
        let json = serde_json::to_string(&lspi).unwrap();
        let back: SparseLspi = serde_json::from_str(&json).unwrap();
        assert!(!back.is_unexplored(2));
        assert!(!back.is_unexplored(4));
        assert!(back.is_unexplored(0));
        assert_eq!(back.explored_count(), 2);
        assert_eq!(back.min_theta_entry(), lspi.min_theta_entry());
        for a in 0..6 {
            assert_eq!(back.q(a), lspi.q(a));
        }
    }

    #[test]
    fn serde_rejects_explored_lists_out_of_range_unsorted_or_duplicated() {
        let mut lspi = SparseLspi::new(4, 4.0, 0.5);
        lspi.update(1, 0, 1.0);
        lspi.update(3, 0, 1.0);
        let json = serde_json::to_string(&lspi).unwrap();
        assert!(serde_json::from_str::<SparseLspi>(&json).is_ok());
        for bad in ["[1,9]", "[3,1]", "[1,1,3]"] {
            let corrupted = json.replace("\"explored\":[1,3]", &format!("\"explored\":{bad}"));
            assert_ne!(json, corrupted, "fixture must contain the explored list");
            assert!(
                serde_json::from_str::<SparseLspi>(&corrupted).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn serde_rejects_parts_of_another_dimension() {
        let json = serde_json::to_string(&SparseLspi::new(4, 4.0, 0.5)).unwrap();
        for (part, other) in [
            ("\"order\":4", "\"order\":5"),
            ("\"dim\":4,\"entries\"", "\"dim\":9,\"entries\""),
        ] {
            let corrupted = json.replacen(part, other, 1);
            assert_ne!(json, corrupted, "fixture must contain {part}");
            assert!(
                serde_json::from_str::<SparseLspi>(&corrupted).is_err(),
                "{other}"
            );
        }
    }

    #[test]
    fn repeated_action_accumulates_cost() {
        let mut lspi = SparseLspi::new(3, 3.0, 0.5);
        lspi.update(1, 1, 1.0);
        let q1 = lspi.q(1);
        lspi.update(1, 1, 1.0);
        let q2 = lspi.q(1);
        assert!(q2 > q1, "repeated cost must accumulate: {q1} -> {q2}");
        assert_theta_consistent(&lspi);
    }

    #[test]
    fn gamma_zero_is_pure_averaging() {
        // With γ = 0 the operator update is T += u·uᵀ — still valid.
        let mut lspi = SparseLspi::new(3, 3.0, 0.0);
        assert!(lspi.update(0, 2, 2.0));
        assert_theta_consistent(&lspi);
    }

    fn learned_lspi() -> SparseLspi {
        let mut lspi = SparseLspi::new(8, 8.0, 0.5);
        let steps = [
            (0usize, 1usize, 2.0),
            (1, 3, 1.5),
            (3, 3, 0.7),
            (2, 0, 4.0),
            (0, 2, 0.9),
            (5, 7, 2.2),
        ];
        for &(a, a2, c) in &steps {
            lspi.update(a, a2, c);
        }
        lspi
    }

    #[test]
    fn preview_update_leaves_state_untouched() {
        let mut lspi = learned_lspi();
        let before = serde_json::to_string(&lspi).unwrap();
        let coeff = lspi.preview_update(1, 4, 3.0);
        assert!(coeff.is_some());
        assert_eq!(lspi.updates(), 6);
        assert_eq!(serde_json::to_string(&lspi).unwrap(), before);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn preview_update_rejects_bad_action() {
        let mut lspi = SparseLspi::new(3, 3.0, 0.5);
        let _ = lspi.preview_update(0, 3, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_rejects_bad_action() {
        let mut lspi = SparseLspi::new(3, 3.0, 0.5);
        lspi.update(3, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn new_rejects_bad_delta() {
        let _ = SparseLspi::new(3, 0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "gamma must be in")]
    fn new_rejects_bad_gamma() {
        let _ = SparseLspi::new(3, 3.0, 1.0);
    }
}
