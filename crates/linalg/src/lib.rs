//! Sparse and dense linear algebra primitives for the Megh reproduction.
//!
//! Megh (Basu et al., ICDCS 2017) keeps its per-step cost proportional to
//! the number of migrations by (a) representing every action as a basis
//! vector with a single non-zero entry, (b) storing the inverse transition
//! operator `B = T⁻¹` as a sparse matrix, and (c) updating that inverse
//! incrementally with the Sherman–Morrison formula instead of re-inverting.
//! This crate provides exactly those primitives, plus the dense reference
//! implementations used to validate them and the small numeric utilities
//! (piecewise-linear interpolation, summary statistics, Loess regression)
//! shared by the simulator and the baseline schedulers.
//!
//! # Examples
//!
//! ```
//! use megh_linalg::{DokMatrix, SparseVec, sherman_morrison_update};
//!
//! // B = (1/d) I, the paper's initialisation of the inverse operator.
//! let d = 4;
//! let mut b = DokMatrix::scaled_identity(d, 1.0 / d as f64);
//! let u = SparseVec::basis(d, 1);
//! let v = SparseVec::basis(d, 1); // rank-1 update along a single action
//! sherman_morrison_update(&mut b, &u, &v).unwrap();
//! assert!(b.get(1, 1) < 0.25);
//! ```

// No unsafe code anywhere in this crate.
#![forbid(unsafe_code)]
// No explicit panic path in library code; the few sites that keep one
// carry an `#[expect]` with the reason (clippy enforces both).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
// Every public item is documented.
#![deny(missing_docs)]

mod dense;
mod dok;
mod interp;
mod loess;
mod sherman;
mod sparse_vec;
mod stats;
mod verify;

pub use dense::DenseMatrix;
pub use dok::DokMatrix;
pub use interp::PiecewiseLinear;
pub use loess::{loess_fit, loess_predict_next, LoessError};
pub use sherman::{sherman_morrison_update, ShermanMorrisonError};
pub use sparse_vec::SparseVec;
pub use stats::{iqr, mad, mean, median, quantile, std_dev, variance};
pub use verify::identity_residual;

/// Absolute tolerance used by the crate's approximate float comparisons.
pub const EPSILON: f64 = 1e-9;

/// Returns `true` when two floats are within [`EPSILON`] of each other.
///
/// # Examples
///
/// ```
/// assert!(megh_linalg::approx_eq(1.0, 1.0 + 1e-12));
/// assert!(!megh_linalg::approx_eq(1.0, 1.1));
/// ```
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() < EPSILON
}
