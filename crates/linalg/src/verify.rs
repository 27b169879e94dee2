//! Cross-representation verification: dense materialisation and the
//! inverse-drift residual.
//!
//! The Sherman–Morrison fast path maintains `B = T⁻¹` incrementally and
//! never materialises `T`. This helper quantifies how far a maintained
//! inverse has drifted from that contract: `‖B·T − I‖∞` is exactly zero
//! for a true inverse and grows with accumulated floating-point error,
//! so the property tests — on `SparseLspi::update` in `megh-core` and on
//! [`crate::sherman_morrison_update`] here — assert it stays below a
//! small tolerance against a dense shadow of `T`.

use crate::{DenseMatrix, DokMatrix};

/// Dense materialisations live here, outside the hot-path modules: they
/// are diagnostic/verification APIs, never decision paths.
impl DokMatrix {
    /// Materialises the matrix into a dense row-major buffer.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.order(), self.order());
        for ((r, c), v) in self.iter() {
            d.set(r, c, v);
        }
        d
    }
}

/// Largest absolute entry of `B·T − I` — the inverse-drift residual.
///
/// # Panics
///
/// Panics if the operands are not square matrices of the same order
/// (propagated from [`DenseMatrix::matmul`]).
///
/// # Examples
///
/// ```
/// use megh_linalg::{identity_residual, DenseMatrix};
///
/// let i = DenseMatrix::identity(3);
/// assert_eq!(identity_residual(&i, &i), 0.0);
/// ```
pub fn identity_residual(b: &DenseMatrix, t: &DenseMatrix) -> f64 {
    b.matmul(t).max_abs_diff(&DenseMatrix::identity(b.rows()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn true_inverse_has_zero_residual() {
        let mut t = DenseMatrix::zeros(3, 3);
        let mut b = DenseMatrix::zeros(3, 3);
        for i in 0..3 {
            t.set(i, i, 4.0);
            b.set(i, i, 0.25);
        }
        assert!(identity_residual(&b, &t) < 1e-15);
    }

    #[test]
    fn wrong_inverse_is_flagged() {
        let t = DenseMatrix::identity(2);
        let mut b = DenseMatrix::identity(2);
        b.set(0, 0, 2.0);
        assert!(identity_residual(&b, &t) > 0.5);
    }
}
