//! Property-based tests: the sparse fast paths must agree with the dense
//! reference implementations on arbitrary inputs.

use megh_linalg::{
    identity_residual, iqr, loess_predict_next, mad, mean, median, quantile,
    sherman_morrison_update, std_dev, DenseMatrix, DokMatrix, PiecewiseLinear, SparseVec,
};
use proptest::prelude::*;

fn sparse_vec_strategy(dim: usize) -> impl Strategy<Value = SparseVec> {
    prop::collection::vec((0..dim, -5.0..5.0f64), 0..dim)
        .prop_map(move |pairs| SparseVec::from_pairs(dim, pairs))
}

proptest! {
    #[test]
    fn sparse_dot_matches_dense(a in sparse_vec_strategy(8), b in sparse_vec_strategy(8)) {
        let dense: f64 = a.to_dense().iter().zip(b.to_dense()).map(|(x, y)| x * y).sum();
        prop_assert!((a.dot(&b) - dense).abs() < 1e-9);
    }

    #[test]
    fn add_scaled_matches_dense(a in sparse_vec_strategy(8), b in sparse_vec_strategy(8), s in -3.0..3.0f64) {
        let got = a.add_scaled(&b, s).to_dense();
        let want: Vec<f64> = a
            .to_dense()
            .iter()
            .zip(b.to_dense())
            .map(|(x, y)| x + s * y)
            .collect();
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn dok_mul_matches_dense(
        entries in prop::collection::vec(((0..6usize, 0..6usize), -4.0..4.0f64), 0..20),
        v in sparse_vec_strategy(6),
    ) {
        let mut m = DokMatrix::zeros(6);
        for ((r, c), val) in entries {
            m.set(r, c, val);
        }
        let got = m.mul_sparse_vec(&v).to_dense();
        let want = m.to_dense().mul_vec(&v.to_dense());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn dok_left_mul_is_transpose(
        entries in prop::collection::vec(((0..5usize, 0..5usize), -4.0..4.0f64), 0..15),
        v in sparse_vec_strategy(5),
    ) {
        let mut m = DokMatrix::zeros(5);
        for ((r, c), val) in entries {
            m.set(r, c, val);
        }
        let left = m.mul_sparse_vec_left(&v).to_dense();
        // vᵀM equals Mᵀv.
        let mt = {
            let mut t = DokMatrix::zeros(5);
            for ((r, c), val) in m.iter() {
                t.set(c, r, val);
            }
            t
        };
        let want = mt.to_dense().mul_vec(&v.to_dense());
        for (g, w) in left.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-9);
        }
    }

    /// The reference form of Megh's §5.2 step: chained Sherman–Morrison
    /// updates on the sparse DOK matrix must track the dense Gauss–Jordan
    /// inverse. (`SparseLspi::update`, the form Megh runs, is held to
    /// this function by a proptest in `megh-core`.)
    #[test]
    fn sherman_morrison_tracks_dense_inverse(
        steps in prop::collection::vec((0..6usize, 0..6usize), 1..10),
        gamma in 0.0..0.9f64,
    ) {
        let d = 6;
        let delta = d as f64;
        let mut b = DokMatrix::scaled_identity(d, 1.0 / delta);
        let mut t = DenseMatrix::zeros(d, d);
        for i in 0..d {
            t.set(i, i, delta);
        }
        for (a, a_next) in steps {
            let u = SparseVec::basis(d, a);
            let v = SparseVec::basis(d, a).add_scaled(&SparseVec::basis(d, a_next), -gamma);
            if sherman_morrison_update(&mut b, &u, &v).is_err() {
                // A singular update is legitimately rejected; skip the step
                // (the dense T would be singular too).
                continue;
            }
            for (i, uv) in u.iter() {
                for (j, vv) in v.iter() {
                    t.set(i, j, t.get(i, j) + uv * vv);
                }
            }
            let want = t.inverse().expect("T must stay invertible when SM succeeded");
            prop_assert!(b.to_dense().max_abs_diff(&want) < 1e-6);
        }
    }

    #[test]
    fn quantiles_are_monotone(values in prop::collection::vec(-100.0..100.0f64, 1..50)) {
        let q25 = quantile(&values, 0.25);
        let q50 = quantile(&values, 0.5);
        let q75 = quantile(&values, 0.75);
        prop_assert!(q25 <= q50 + 1e-12);
        prop_assert!(q50 <= q75 + 1e-12);
        prop_assert!(iqr(&values) >= -1e-12);
        prop_assert!(mad(&values) >= 0.0);
        prop_assert!(std_dev(&values) >= 0.0);
        prop_assert!(median(&values) <= values.iter().cloned().fold(f64::MIN, f64::max) + 1e-12);
        prop_assert!(mean(&values) <= values.iter().cloned().fold(f64::MIN, f64::max) + 1e-12);
    }

    #[test]
    fn piecewise_linear_stays_in_hull(
        ys in prop::collection::vec(0.0..200.0f64, 2..12),
        x in -1.0..13.0f64,
    ) {
        let knots: Vec<(f64, f64)> = ys.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect();
        let f = PiecewiseLinear::new(knots).unwrap();
        let lo = ys.iter().cloned().fold(f64::MAX, f64::min);
        let hi = ys.iter().cloned().fold(f64::MIN, f64::max);
        let v = f.eval(x);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn loess_is_exact_on_lines(slope in -5.0..5.0f64, intercept in -5.0..5.0f64, n in 3..30usize) {
        let series: Vec<f64> = (0..n).map(|i| intercept + slope * i as f64).collect();
        let next = loess_predict_next(&series, 0).unwrap();
        let want = intercept + slope * n as f64;
        prop_assert!((next - want).abs() < 1e-4, "got {next}, want {want}");
    }
}

proptest! {
    /// Randomized Megh-style rank-1 update sequences: the sparse
    /// Sherman–Morrison inverse must keep inverting an independently
    /// maintained dense operator `T` (checked with the same
    /// `identity_residual` predicate `SparseLspi`'s update proptest
    /// uses) and must match the Gauss–Jordan inverse entrywise.
    #[test]
    fn chained_rank1_updates_track_dense_inverse(
        steps in prop::collection::vec((0..6usize, 0..6usize), 1..40),
        gamma in 0.0..0.9f64,
    ) {
        let d = 6;
        let delta = d as f64;
        let mut b = DokMatrix::scaled_identity(d, 1.0 / delta);
        let mut t = DenseMatrix::zeros(d, d);
        for i in 0..d {
            t.set(i, i, delta);
        }
        for &(a, a_next) in &steps {
            let u = SparseVec::basis(d, a);
            let v = SparseVec::basis(d, a).add_scaled(&SparseVec::basis(d, a_next), -gamma);
            // A vanishing denominator means T + u·vᵀ would be singular;
            // the update is skipped on both representations alike.
            if sherman_morrison_update(&mut b, &u, &v).is_ok() {
                t.set(a, a, t.get(a, a) + 1.0);
                t.set(a, a_next, t.get(a, a_next) - gamma);
            }
        }
        prop_assert!(identity_residual(&b.to_dense(), &t) < 1e-6);
        let gj = t.inverse().expect("operator stays invertible for gamma < 1");
        prop_assert!(b.to_dense().max_abs_diff(&gj) < 1e-6);
    }
}

proptest! {
    /// The executed counterpart of the indexing proofs `DokMatrix` used
    /// to carry: a random interleaving of every mutating and reading
    /// kernel agrees with a `DenseMatrix` shadow entry for entry, `nnz()`
    /// equals the stored count, and the row/column mirror holds after
    /// each step. Zero-valued `set`s exercise removal and re-insertion;
    /// the debug profile makes any unsigned underflow a failure too.
    #[test]
    fn dok_kernel_sequences_match_a_dense_shadow(
        ops in prop::collection::vec(
            (
                (0..5usize, 0..6usize, 0..6usize, -4.0..4.0f64, 0..3usize),
                (sparse_vec_strategy(6), sparse_vec_strategy(6)),
            ),
            1..40,
        ),
    ) {
        let d = 6;
        let mut m = DokMatrix::zeros(d);
        let mut shadow = DenseMatrix::zeros(d, d);
        let mut out = SparseVec::zeros(d);
        for ((kind, r, c, value, zero), (u, v)) in ops {
            match kind {
                0 => {
                    // One set in three removes (or leaves absent).
                    let value = if zero == 0 { 0.0 } else { value };
                    m.set(r, c, value);
                    shadow.set(r, c, value);
                }
                1 => {
                    m.add_outer_product(&u, &v, value);
                    for (i, ui) in u.iter() {
                        for (j, vj) in v.iter() {
                            shadow.set(i, j, shadow.get(i, j) + value * ui * vj);
                        }
                    }
                }
                2 => {
                    m.mul_sparse_vec_into(&v, &mut out);
                    let want = shadow.mul_vec(&v.to_dense());
                    for (g, w) in out.to_dense().iter().zip(&want) {
                        prop_assert!((g - w).abs() < 1e-9, "M·v: got {g}, want {w}");
                    }
                }
                3 => {
                    m.mul_sparse_vec_left_into(&u, &mut out);
                    let dense_u = u.to_dense();
                    for (col, g) in out.to_dense().iter().enumerate() {
                        let w: f64 = (0..d).map(|row| dense_u[row] * shadow.get(row, col)).sum();
                        prop_assert!((g - w).abs() < 1e-9, "uᵀ·M: got {g}, want {w}");
                    }
                }
                _ => {
                    let dense_v = v.to_dense();
                    let want = shadow.mul_vec(&dense_v);
                    for (g, w) in m.mul_dense_vec(&dense_v).iter().zip(&want) {
                        prop_assert!((g - w).abs() < 1e-9, "M·dense: got {g}, want {w}");
                    }
                }
            }
            let mut stored = 0;
            for row in 0..d {
                for col in 0..d {
                    prop_assert_eq!(m.get(row, col), shadow.get(row, col));
                    stored += usize::from(shadow.get(row, col) != 0.0);
                }
            }
            prop_assert_eq!(m.nnz(), stored);
            prop_assert_eq!(m.iter().count(), stored);
            prop_assert_eq!(m.check_consistency(), Ok(()));
        }
    }
}
