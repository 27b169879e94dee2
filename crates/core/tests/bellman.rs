//! θ solves the empirical Bellman system.
//!
//! With one-hot features `φ_a` and `B₀ = (1/δ)·I`, the matrix whose
//! inverse `SparseLspi` maintains by Sherman–Morrison steps is
//! `T = δ·I + Σ_t φ_{a_t}(φ_{a_t} − γ·φ_{a'_t})ᵀ`, so `θ = T⁻¹·z` solves,
//! for every action `a`,
//!
//! ```text
//! (δ + n_a)·θ_a − γ·Σ_b C_ab·θ_b = z_a
//! ```
//!
//! where `n_a` counts the applied updates from `a`, `C_ab` those of them
//! whose successor was `b`, and `z_a` sums their costs. Each row of `C`
//! sums to `n_a`, so `T` is strictly diagonally dominant (margin
//! `δ + (1 − γ)·n_a`) and Gauss–Seidel converges from zero.
//!
//! The oracle here keeps only those counts beside a random update
//! sequence and solves the system by Gauss–Seidel. It shares no code
//! with `DokMatrix`, the sparse products or the Sherman–Morrison step,
//! so it checks the learned `θ` against its definition rather than one
//! implementation of the inverse against another.

use std::collections::BTreeMap;

use megh_core::SparseLspi;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One action's row of the empirical system: `n_a`, `z_a` and the
/// successor counts `C_a·`.
#[derive(Default)]
struct Row {
    n: f64,
    z: f64,
    successors: BTreeMap<usize, f64>,
}

/// Solves `(δ + n_a)·θ_a − γ·Σ_b C_ab·θ_b = z_a` by Gauss–Seidel over the
/// actions that have a row; every other action's `θ` is 0.
fn gauss_seidel(rows: &BTreeMap<usize, Row>, delta: f64, gamma: f64) -> BTreeMap<usize, f64> {
    let mut theta: BTreeMap<usize, f64> = rows.keys().map(|&a| (a, 0.0)).collect();
    for _ in 0..10_000 {
        let mut change = 0.0f64;
        let mut scale = 0.0f64;
        for (&a, row) in rows {
            let mut rhs = row.z;
            let mut diagonal = delta + row.n;
            for (&b, &count) in &row.successors {
                if b == a {
                    diagonal -= gamma * count;
                } else {
                    rhs += gamma * count * theta.get(&b).copied().unwrap_or(0.0);
                }
            }
            let next = rhs / diagonal;
            let slot = theta.get_mut(&a).expect("every row has a θ slot");
            change = change.max((next - *slot).abs());
            scale = scale.max(next.abs());
            *slot = next;
        }
        if change <= 1e-17 * scale {
            break;
        }
    }
    theta
}

/// Runs `updates` random steps over `d` actions, revisiting an action
/// already taken with probability `revisit` (for `a_prev` and `a_next`
/// alike), and checks `θ` against the Gauss–Seidel solution.
fn theta_matches_the_bellman_solution(
    d: usize,
    gamma: f64,
    revisit: f64,
    updates: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let delta = d as f64;
    let mut lspi = SparseLspi::new(d, delta, gamma);
    let mut rows: BTreeMap<usize, Row> = BTreeMap::new();
    let mut taken: Vec<usize> = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let pick = |rng: &mut StdRng, taken: &[usize]| {
        if !taken.is_empty() && rng.gen_bool(revisit) {
            taken[rng.gen_range(0..taken.len())]
        } else {
            rng.gen_range(0..d)
        }
    };
    for _ in 0..updates {
        let a = pick(&mut rng, &taken);
        let a_next = pick(&mut rng, &taken);
        let cost = rng.gen_range(0.0..1.0);
        if lspi.update(a, a_next, cost) {
            let row = rows.entry(a).or_default();
            row.n += 1.0;
            row.z += cost;
            *row.successors.entry(a_next).or_default() += 1.0;
            taken.push(a);
        }
    }
    // Skips can only come from rounding: T is diagonally dominant.
    prop_assert_eq!(lspi.skipped_singular(), 0);
    prop_assert_eq!(lspi.explored_count(), rows.len());

    let want = gauss_seidel(&rows, delta, gamma);
    let scale = want.values().fold(0.0f64, |m, v| m.max(v.abs()));
    for (&a, &expected) in &want {
        let got = lspi.q(a);
        prop_assert!(
            (got - expected).abs() <= 1e-12 * scale,
            "θ[{a}] = {got:e}, Bellman solution {expected:e} (max |θ| {scale:e})"
        );
        prop_assert!(!lspi.is_unexplored(a));
    }
    // Actions never updated from have a zero row of C and z: θ is 0.
    for (a, q) in lspi.theta_entries() {
        prop_assert!(
            want.contains_key(&a),
            "θ[{a}] = {q:e} on an unexplored action"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// d = 12: revisits and `a_prev == a_next` are common even at a 0 %
    /// revisit rate, so `C` is dense and Gauss–Seidel needs many sweeps.
    #[test]
    fn theta_solves_the_bellman_system_on_a_small_space(
        updates in 1..80usize,
        gamma_high in 0..2usize,
        revisit_pct in 0..=50u32,
        seed in 0..u64::MAX,
    ) {
        let gamma = if gamma_high == 1 { 0.9 } else { 0.5 };
        theta_matches_the_bellman_solution(12, gamma, f64::from(revisit_pct) / 100.0, updates, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// d = 15 000 (the 100 × 150 fleet): Δ's fill-in spreads across
    /// hundreds of rows and columns while `C` stays sparse.
    #[test]
    fn theta_solves_the_bellman_system_on_a_fleet_sized_space(
        updates in 100..400usize,
        gamma_high in 0..2usize,
        revisit_pct in 0..=50u32,
        seed in 0..u64::MAX,
    ) {
        let gamma = if gamma_high == 1 { 0.9 } else { 0.5 };
        theta_matches_the_bellman_solution(15_000, gamma, f64::from(revisit_pct) / 100.0, updates, seed)?;
    }
}
