//! Sherman–Morrison rank-1 inverse updates on sparse matrices.

// The reference form of the step on the Megh decision hot path: it
// allocates its two product vectors per call. `SparseLspi::update`
// takes the same products into its own scratch, and that is the path
// `crates/core/tests/no_alloc.rs` counts; a proptest in
// `crates/core/src/lspi.rs` holds the two to the same `B`.
#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)
)]

use std::fmt;

use crate::{DokMatrix, SparseVec};

/// Error returned when a Sherman–Morrison update cannot be applied.
#[derive(Debug, Clone, PartialEq)]
pub enum ShermanMorrisonError {
    /// The update denominator `1 + vᵀ B u` is (numerically) zero, meaning
    /// the updated matrix `T + u vᵀ` is singular.
    SingularUpdate,
    /// Vector dimensions do not match the matrix order.
    DimensionMismatch {
        /// Matrix order.
        order: usize,
        /// Offending vector dimension.
        dim: usize,
    },
}

impl fmt::Display for ShermanMorrisonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SingularUpdate => write!(f, "rank-1 update makes the matrix singular"),
            Self::DimensionMismatch { order, dim } => {
                write!(
                    f,
                    "vector dimension {dim} does not match matrix order {order}"
                )
            }
        }
    }
}

impl std::error::Error for ShermanMorrisonError {}

/// Applies the Sherman–Morrison update `B ← B − (B u vᵀ B) / (1 + vᵀ B u)`
/// in place, so that `B` stays the inverse of `T + u vᵀ`.
///
/// This is Eq. (11) of the paper: with `u = φ_{a_t}` and
/// `v = φ_{a_t} − γ φ_{π_t(s_{t+1})}`, the transition-operator update of
/// Eq. (10) is mirrored on the inverse without an `O(d³)` re-inversion.
/// Because `u` and `v` carry only one or two non-zeros, the products below
/// touch only the occupied rows/columns of `B` — `O(#migrations)` work per
/// step instead of `O(d²)`.
///
/// # Errors
///
/// Returns an error when a vector dimension does not match the matrix
/// order, or when the denominator `1 + vᵀ B u` vanishes (the update would
/// make `T` singular).
///
/// # Examples
///
/// ```
/// use megh_linalg::{sherman_morrison_update, DokMatrix, SparseVec};
///
/// let mut b = DokMatrix::scaled_identity(3, 1.0); // B = I = I⁻¹
/// let u = SparseVec::basis(3, 0);
/// let v = SparseVec::basis(3, 0);
/// sherman_morrison_update(&mut b, &u, &v)?;
/// // T became I + e₀e₀ᵀ, so B(0,0) must now be 1/2.
/// assert!((b.get(0, 0) - 0.5).abs() < 1e-12);
/// # Ok::<(), megh_linalg::ShermanMorrisonError>(())
/// ```
pub fn sherman_morrison_update(
    b: &mut DokMatrix,
    u: &SparseVec,
    v: &SparseVec,
) -> Result<(), ShermanMorrisonError> {
    let order = b.order();
    if u.dim() != order {
        return Err(ShermanMorrisonError::DimensionMismatch {
            order,
            dim: u.dim(),
        });
    }
    if v.dim() != order {
        return Err(ShermanMorrisonError::DimensionMismatch {
            order,
            dim: v.dim(),
        });
    }
    let bu = b.mul_sparse_vec(u); // B u  — column vector
    let vb = b.mul_sparse_vec_left(v); // vᵀ B — row vector
    let denom = 1.0 + v.dot(&bu);
    if denom.abs() < 1e-12 {
        return Err(ShermanMorrisonError::SingularUpdate);
    }
    b.add_outer_product(&bu, &vb, -1.0 / denom);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseMatrix;

    /// Reference: invert `T + u vᵀ` densely and compare.
    fn check_against_dense(b: &DokMatrix, t: &DenseMatrix, u: &SparseVec, v: &SparseVec) {
        let mut t2 = t.clone();
        for (i, uv) in u.iter() {
            for (j, vv) in v.iter() {
                t2.set(i, j, t2.get(i, j) + uv * vv);
            }
        }
        let want = t2.inverse().expect("updated matrix should stay invertible");
        let got = b.to_dense();
        assert!(
            got.max_abs_diff(&want) < 1e-8,
            "sparse SM update diverged from dense inverse: diff={}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn single_basis_update_matches_dense_inverse() {
        let d = 5;
        let delta = d as f64;
        let mut b = DokMatrix::scaled_identity(d, 1.0 / delta);
        let t = {
            let mut t = DenseMatrix::zeros(d, d);
            for i in 0..d {
                t.set(i, i, delta);
            }
            t
        };
        let u = SparseVec::basis(d, 2);
        let v = SparseVec::basis(d, 2);
        sherman_morrison_update(&mut b, &u, &v).unwrap();
        check_against_dense(&b, &t, &u, &v);
    }

    #[test]
    fn megh_style_update_with_discounted_next_action() {
        // v = φ_a − γ φ_{a'}, exactly the paper's Eq. (10) increment.
        let d = 6;
        let gamma = 0.5;
        let mut b = DokMatrix::scaled_identity(d, 1.0 / d as f64);
        let mut t = DenseMatrix::zeros(d, d);
        for i in 0..d {
            t.set(i, i, d as f64);
        }
        let u = SparseVec::basis(d, 1);
        let v = SparseVec::basis(d, 1).add_scaled(&SparseVec::basis(d, 4), -gamma);
        sherman_morrison_update(&mut b, &u, &v).unwrap();
        check_against_dense(&b, &t, &u, &v);
    }

    #[test]
    fn chained_updates_stay_consistent() {
        let d = 4;
        let gamma = 0.5;
        let mut b = DokMatrix::scaled_identity(d, 1.0 / d as f64);
        let mut t = DenseMatrix::zeros(d, d);
        for i in 0..d {
            t.set(i, i, d as f64);
        }
        let steps = [(0usize, 1usize), (1, 2), (2, 3), (3, 0), (0, 2)];
        for &(a, a_next) in &steps {
            let u = SparseVec::basis(d, a);
            let v = SparseVec::basis(d, a).add_scaled(&SparseVec::basis(d, a_next), -gamma);
            sherman_morrison_update(&mut b, &u, &v).unwrap();
            for (i, uv) in u.iter() {
                for (j, vv) in v.iter() {
                    t.set(i, j, t.get(i, j) + uv * vv);
                }
            }
            let want = t.inverse().unwrap();
            assert!(b.to_dense().max_abs_diff(&want) < 1e-8);
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let mut b = DokMatrix::scaled_identity(3, 1.0);
        let u = SparseVec::basis(4, 0);
        let v = SparseVec::basis(3, 0);
        let err = sherman_morrison_update(&mut b, &u, &v).unwrap_err();
        assert_eq!(
            err,
            ShermanMorrisonError::DimensionMismatch { order: 3, dim: 4 }
        );
    }

    #[test]
    fn singular_update_is_rejected() {
        // B = I, u = e0, v = -e0 → denom = 1 + (-1) = 0.
        let mut b = DokMatrix::scaled_identity(2, 1.0);
        let u = SparseVec::basis(2, 0);
        let mut v = SparseVec::zeros(2);
        v.set(0, -1.0);
        let err = sherman_morrison_update(&mut b, &u, &v).unwrap_err();
        assert_eq!(err, ShermanMorrisonError::SingularUpdate);
    }

    #[test]
    fn error_display_is_nonempty() {
        let e = ShermanMorrisonError::SingularUpdate;
        assert!(!e.to_string().is_empty());
        let e = ShermanMorrisonError::DimensionMismatch { order: 3, dim: 4 };
        assert!(e.to_string().contains('3'));
    }
}
