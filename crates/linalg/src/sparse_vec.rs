//! Sparse vectors stored as sorted `(index, value)` pairs.

// This module is on the Megh decision hot path. The `_into` / `_assign`
// kernels write into storage the caller owns and allocate only when an
// operand's support outgrows it; `crates/core/tests/no_alloc.rs` holds
// that at 0 through `SparseLspi::update` on previously seen actions.
#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)
)]

use serde::{Deserialize, Serialize};

/// A sparse vector of fixed dimension storing only non-zero entries.
///
/// Entries are kept sorted by index with no duplicates and no explicit
/// zeros, so `dot`, `add` and iteration are linear in the number of
/// non-zeros. Megh's basis vectors `φ_a` have exactly one non-zero, which
/// is what makes its per-step update cost independent of the `N · M`
/// dimension of the projected space.
///
/// # Examples
///
/// ```
/// use megh_linalg::SparseVec;
///
/// let phi = SparseVec::basis(6, 2);
/// assert_eq!(phi.nnz(), 1);
/// assert_eq!(phi.get(2), 1.0);
/// assert_eq!(phi.get(3), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SparseVec {
    dim: usize,
    entries: Vec<(usize, f64)>,
}

/// Serialized form. Restoring checks the invariants every kernel relies
/// on — indices strictly increasing and `< dim`, no stored zero — since
/// the bytes may come from a file.
#[derive(Deserialize)]
struct SparseVecRepr {
    dim: usize,
    entries: Vec<(usize, f64)>,
}

impl<'de> Deserialize<'de> for SparseVec {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let SparseVecRepr { dim, entries } = SparseVecRepr::deserialize(deserializer)?;
        let fail = <D::Error as serde::de::Error>::custom;
        if !entries.is_sorted_by(|a, b| a.0 < b.0) {
            return Err(fail(
                "sparse vector indices must be strictly increasing".to_string(),
            ));
        }
        if let Some(&(i, _)) = entries.last().filter(|&&(i, _)| i >= dim) {
            return Err(fail(format!("sparse vector index {i} outside dim {dim}")));
        }
        if entries.iter().any(|&(_, v)| v == 0.0) {
            return Err(fail("sparse vector stores an explicit zero".to_string()));
        }
        Ok(Self { dim, entries })
    }
}

impl SparseVec {
    /// Creates an all-zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self {
            dim,
            // An empty Vec never touches the heap.
            entries: Vec::new(),
        }
    }

    /// Creates the standard basis vector `e_index` of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn basis(dim: usize, index: usize) -> Self {
        assert!(
            index < dim,
            "basis index {index} out of range for dim {dim}"
        );
        Self {
            dim,
            entries: vec![(index, 1.0)],
        }
    }

    /// Builds a sparse vector from `(index, value)` pairs.
    ///
    /// Zero values are dropped; duplicate indices are summed.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= dim`.
    pub fn from_pairs(dim: usize, pairs: impl IntoIterator<Item = (usize, f64)>) -> Self {
        // Construction from arbitrary pairs is not the decide loop.
        let mut entries: Vec<(usize, f64)> = pairs.into_iter().collect();
        for &(i, _) in &entries {
            assert!(i < dim, "index {i} out of range for dim {dim}");
        }
        entries.sort_by_key(|&(i, _)| i);
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(entries.len());
        for (i, v) in entries {
            match merged.last_mut() {
                Some((j, w)) if *j == i => *w += v,
                _ => merged.push((i, v)),
            }
        }
        merged.retain(|&(_, v)| v != 0.0);
        Self {
            dim,
            entries: merged,
        }
    }

    /// Builds a sparse vector from a dense slice, dropping zeros.
    pub fn from_dense(values: &[f64]) -> Self {
        Self::from_pairs(
            values.len(),
            values
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(i, &v)| (i, v)),
        )
    }

    /// The dimension of the vector (including zero entries).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The number of stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the vector stores no non-zero entries.
    pub fn is_zero(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the value at `index` (0.0 for entries not stored).
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn get(&self, index: usize) -> f64 {
        assert!(index < self.dim, "index {index} out of range");
        stored(&self.entries, index).map_or(0.0, |&(_, v)| v)
    }

    /// Sets the value at `index`, inserting or removing an entry as needed.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn set(&mut self, index: usize, value: f64) {
        assert!(index < self.dim, "index {index} out of range");
        match self.entries.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => {
                if value == 0.0 {
                    self.entries.remove(pos);
                } else if let Some(entry) = self.entries.get_mut(pos) {
                    entry.1 = value;
                }
            }
            Err(pos) => {
                if value != 0.0 {
                    self.entries.insert(pos, (index, value));
                }
            }
        }
    }

    /// Adds `value` to the entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn add_at(&mut self, index: usize, value: f64) {
        let current = self.get(index);
        self.set(index, current + value);
    }

    /// Removes all entries, keeping the allocated capacity so the vector
    /// can be refilled without touching the heap.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Overwrites `self` with `other`'s contents, reusing `self`'s
    /// entry buffer when it is already large enough.
    pub fn copy_from(&mut self, other: &SparseVec) {
        self.dim = other.dim;
        self.entries.clear();
        self.entries.extend_from_slice(&other.entries);
    }

    /// Iterates over the stored `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Dot product with another sparse vector.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn dot(&self, other: &SparseVec) -> f64 {
        assert_eq!(self.dim, other.dim, "dimension mismatch in dot product");
        // Merge walk over the two sorted entry lists.
        let (mut a, mut b) = (self.entries.as_slice(), other.entries.as_slice());
        let mut acc = 0.0;
        while let (Some((&(ia, va), rest_a)), Some((&(ib, vb), rest_b))) =
            (a.split_first(), b.split_first())
        {
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => a = rest_a,
                std::cmp::Ordering::Greater => b = rest_b,
                std::cmp::Ordering::Equal => {
                    acc += va * vb;
                    a = rest_a;
                    b = rest_b;
                }
            }
        }
        acc
    }

    /// Dot product with a dense slice.
    ///
    /// # Panics
    ///
    /// Panics if `dense.len() != self.dim()`.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        assert_eq!(self.dim, dense.len(), "dimension mismatch in dot product");
        // Stored indices are < dim = dense.len() (asserted above).
        self.entries
            .iter()
            .map(|&(i, v)| {
                debug_assert!(i < dense.len());
                v * dense.get(i).copied().unwrap_or(0.0)
            })
            .sum()
    }

    /// Returns `self + scale * other` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_scaled(&self, other: &SparseVec, scale: f64) -> SparseVec {
        assert_eq!(self.dim, other.dim, "dimension mismatch in add_scaled");
        // The allocating variant; hot paths use add_scaled_assign.
        let mut out = self.clone();
        out.add_scaled_assign(other, scale);
        out
    }

    /// Adds `scale * other` into `self` in place.
    ///
    /// Unlike [`SparseVec::add_scaled`] this reuses `self`'s entry
    /// buffer: once it has grown to the working-set size, further calls
    /// perform no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_scaled_assign(&mut self, other: &SparseVec, scale: f64) {
        assert_eq!(
            self.dim, other.dim,
            "dimension mismatch in add_scaled_assign"
        );
        if scale == 0.0 {
            return;
        }
        for (i, v) in other.iter() {
            self.add_at(i, scale * v);
        }
    }

    /// Scales all entries in place.
    pub fn scale(&mut self, factor: f64) {
        if factor == 0.0 {
            self.entries.clear();
        } else {
            for (_, v) in &mut self.entries {
                *v *= factor;
            }
        }
    }

    /// Materialises the vector into a dense `Vec<f64>`.
    pub fn to_dense(&self) -> Vec<f64> {
        // Dense materialisation is a diagnostic path, not the hot loop.
        let mut out = vec![0.0; self.dim];
        for (i, v) in self.iter() {
            // Stored indices are < dim and out is dim-long.
            debug_assert!(i < out.len());
            if let Some(slot) = out.get_mut(i) {
                *slot = v;
            }
        }
        out
    }
}

/// The entry stored under `index` in a list of `(index, value)` pairs
/// sorted by index — a `SparseVec`'s entries, or one row or column of a
/// `DokMatrix`.
pub(crate) fn stored(list: &[(usize, f64)], index: usize) -> Option<&(usize, f64)> {
    let pos = list.binary_search_by_key(&index, |&(i, _)| i).ok()?;
    list.get(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_round_trips_and_rejects_broken_entry_lists() {
        let v = SparseVec::from_pairs(4, [(1, 2.0), (3, -1.0)]);
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(serde_json::from_str::<SparseVec>(&json).unwrap(), v);
        for bad in [
            "[[3,-1.0],[1,2.0]]",
            "[[1,2.0],[1,2.0]]",
            "[[1,2.0],[4,1.0]]",
            "[[1,0.0]]",
        ] {
            let corrupted = json.replace("[[1,2.0],[3,-1.0]]", bad);
            assert_ne!(json, corrupted, "fixture must contain the entry list");
            assert!(
                serde_json::from_str::<SparseVec>(&corrupted).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn basis_has_single_nonzero() {
        let v = SparseVec::basis(5, 3);
        assert_eq!(v.nnz(), 1);
        assert_eq!(v.get(3), 1.0);
        assert_eq!(v.get(0), 0.0);
        assert_eq!(v.dim(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_rejects_out_of_range() {
        let _ = SparseVec::basis(3, 3);
    }

    #[test]
    fn from_pairs_merges_duplicates_and_drops_zeros() {
        let v = SparseVec::from_pairs(4, [(1, 2.0), (1, 3.0), (2, 0.0)]);
        assert_eq!(v.nnz(), 1);
        assert_eq!(v.get(1), 5.0);
    }

    #[test]
    fn from_pairs_cancelling_duplicates_vanish() {
        let v = SparseVec::from_pairs(4, [(1, 2.0), (1, -2.0)]);
        assert!(v.is_zero());
    }

    #[test]
    fn set_insert_update_remove() {
        let mut v = SparseVec::zeros(4);
        v.set(2, 1.5);
        assert_eq!(v.get(2), 1.5);
        v.set(2, 2.5);
        assert_eq!(v.get(2), 2.5);
        assert_eq!(v.nnz(), 1);
        v.set(2, 0.0);
        assert!(v.is_zero());
    }

    #[test]
    fn dot_of_disjoint_supports_is_zero() {
        let a = SparseVec::from_pairs(6, [(0, 1.0), (2, 2.0)]);
        let b = SparseVec::from_pairs(6, [(1, 3.0), (3, 4.0)]);
        assert_eq!(a.dot(&b), 0.0);
    }

    #[test]
    fn dot_matches_dense_computation() {
        let a = SparseVec::from_pairs(5, [(0, 1.0), (2, -2.0), (4, 0.5)]);
        let b = SparseVec::from_pairs(5, [(2, 3.0), (4, 4.0)]);
        let dense: f64 = a
            .to_dense()
            .iter()
            .zip(b.to_dense())
            .map(|(x, y)| x * y)
            .sum();
        assert!((a.dot(&b) - dense).abs() < 1e-12);
        assert!((a.dot_dense(&b.to_dense()) - dense).abs() < 1e-12);
    }

    #[test]
    fn add_scaled_combines_supports() {
        let a = SparseVec::basis(3, 0);
        let b = SparseVec::basis(3, 1);
        let c = a.add_scaled(&b, -0.5);
        assert_eq!(c.get(0), 1.0);
        assert_eq!(c.get(1), -0.5);
        assert_eq!(c.nnz(), 2);
    }

    #[test]
    fn add_scaled_cancels_to_zero_entry() {
        let a = SparseVec::basis(3, 1);
        let c = a.add_scaled(&a, -1.0);
        assert!(c.is_zero());
    }

    #[test]
    fn add_scaled_assign_matches_add_scaled() {
        let a = SparseVec::from_pairs(6, [(0, 1.0), (2, -2.0), (5, 0.5)]);
        let b = SparseVec::from_pairs(6, [(2, 2.0), (3, 4.0)]);
        let want = a.add_scaled(&b, -0.25);
        let mut got = a.clone();
        got.add_scaled_assign(&b, -0.25);
        assert_eq!(got, want);
    }

    #[test]
    fn add_scaled_assign_with_zero_scale_is_identity() {
        let mut a = SparseVec::from_pairs(3, [(1, 2.0)]);
        let b = SparseVec::from_pairs(3, [(0, 1.0), (2, 3.0)]);
        let before = a.clone();
        a.add_scaled_assign(&b, 0.0);
        assert_eq!(a, before);
    }

    #[test]
    fn clear_and_copy_from_reuse_storage() {
        let mut scratch = SparseVec::from_pairs(4, [(0, 1.0), (3, 2.0)]);
        scratch.clear();
        assert!(scratch.is_zero());
        assert_eq!(scratch.dim(), 4);
        let src = SparseVec::from_pairs(4, [(1, -1.5)]);
        scratch.copy_from(&src);
        assert_eq!(scratch, src);
    }

    #[test]
    fn scale_by_zero_clears() {
        let mut a = SparseVec::from_pairs(3, [(0, 1.0), (1, 2.0)]);
        a.scale(0.0);
        assert!(a.is_zero());
    }

    #[test]
    fn from_dense_roundtrip() {
        let dense = vec![0.0, 1.0, 0.0, -2.5];
        let v = SparseVec::from_dense(&dense);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.to_dense(), dense);
    }
}
