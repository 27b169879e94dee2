//! Dictionary-of-keys sparse matrices with sorted row/column adjacency.

// This module is on the Megh decision hot path. The `_into` / `_assign`
// kernels write into storage the caller owns and allocate only when an
// operand's support outgrows it; `crates/core/tests/no_alloc.rs` holds
// that at 0 through `SparseLspi::update` on previously seen actions.
#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)
)]

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::sparse_vec::stored;
use crate::SparseVec;

/// One orientation's adjacency: each occupied row (or column) index
/// mapped to its sorted `(index, value)` list. Only indices that have
/// held an entry have a list, so the index grows with the stored
/// entries, never with the matrix order. A list whose entries have all
/// been removed keeps its slot and its capacity.
///
/// The map's iteration order is random per process, so nothing that
/// reaches a value or a byte depends on it: sparse products look lists
/// up by key, the dense product sums each row into its own slot, and
/// [`DokMatrix::iter`] (hence serialization) and
/// [`DokMatrix::check_consistency`] visit keys in sorted order.
type Adjacency = HashMap<usize, Vec<(usize, f64)>>;

/// A square sparse matrix stored as sorted per-row and per-column
/// adjacency lists over its occupied rows and columns.
///
/// This is the data structure §5.2 of the paper describes: only non-zero
/// entries are stored, and the per-row / per-column indexes make the
/// sparse-times-sparse products used by the Sherman–Morrison update
/// proportional to the number of non-zeros actually touched rather than
/// to the matrix order. Each list holds `(index, value)` pairs sorted by
/// index, with the value mirrored in both orientations, so a product
/// makes one hashed lookup per row or column it selects and then walks
/// contiguous pairs directly.
///
/// Memory is `O(nnz)`: an all-zero matrix of any order allocates
/// nothing, whether it was built, cloned or deserialized, and the lists
/// exist only for rows and columns that have held an entry. (An
/// order-long table of empty lists costs 48 B per index: 1.5 GB at the
/// order `33·10⁶` of flat Megh on 5 000 hosts × 6 600 VMs, whose whole
/// 30-day run now peaks at 31 MB.)
///
/// # Examples
///
/// ```
/// use megh_linalg::{DokMatrix, SparseVec};
///
/// let m = DokMatrix::scaled_identity(3, 0.5);
/// let v = SparseVec::basis(3, 1);
/// assert_eq!(m.mul_sparse_vec(&v).get(1), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct DokMatrix {
    order: usize,
    nnz: usize,
    /// Sorted `(col, value)` pairs, per occupied row.
    rows: Adjacency,
    /// Sorted `(row, value)` pairs, per occupied column; values mirror
    /// `rows`.
    cols: Adjacency,
}

impl DokMatrix {
    /// Creates an all-zero square matrix of the given order, in
    /// constant time and without touching the heap.
    pub fn zeros(order: usize) -> Self {
        Self {
            order,
            nnz: 0,
            rows: HashMap::new(),
            cols: HashMap::new(),
        }
    }

    /// Creates `scale · I`, the paper's initialisation `B₀ = (1/δ) I`.
    pub fn scaled_identity(order: usize, scale: f64) -> Self {
        let mut m = Self::zeros(order);
        if scale != 0.0 {
            for i in 0..order {
                m.set(i, i, scale);
            }
        }
        m
    }

    /// The matrix order (number of rows = number of columns).
    pub fn order(&self) -> usize {
        self.order
    }

    /// The number of stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Returns the entry at `(row, col)`, 0.0 when not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.order && col < self.order, "index out of range");
        self.rows
            .get(&row)
            .and_then(|list| stored(list, col))
            .map_or(0.0, |&(_, v)| v)
    }

    /// Sets the entry at `(row, col)`, removing it when `value == 0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.order && col < self.order, "index out of range");
        if value == 0.0 {
            // Absent rows and columns stay absent: removing nothing
            // creates no list.
            let removed = self.rows.get_mut(&row).is_some_and(|l| remove(l, col));
            if let Some(list) = self.cols.get_mut(&col) {
                remove(list, row);
            }
            if removed {
                self.nnz = self.nnz.saturating_sub(1);
            }
        } else {
            let inserted = upsert(self.rows.entry(row).or_default(), col, value);
            // A missing mirror is repaired in place.
            upsert(self.cols.entry(col).or_default(), row, value);
            if inserted {
                self.nnz += 1;
            }
        }
    }

    /// Verifies the dual-adjacency invariant: `rows` and `cols` are each
    /// sorted and strictly increasing, mirror each other entry for entry,
    /// and together store exactly [`DokMatrix::nnz`] values.
    ///
    /// Intended for tests; cost is `O(nnz · log nnz)`. Rows are visited
    /// in index order, so the first violation reported is deterministic.
    ///
    /// # Errors
    ///
    /// Returns a static description of the first violation found.
    pub fn check_consistency(&self) -> Result<(), &'static str> {
        let mut row_entries = 0usize;
        for (r, row) in sorted(&self.rows) {
            if r >= self.order {
                return Err("row index out of range");
            }
            let mut prev: Option<usize> = None;
            for &(c, v) in row {
                if c >= self.order {
                    return Err("row entry column index out of range");
                }
                if prev.is_some_and(|p| p >= c) {
                    return Err("row adjacency list not strictly increasing");
                }
                prev = Some(c);
                if v == 0.0 {
                    return Err("explicit zero stored in row adjacency list");
                }
                match self.cols.get(&c).and_then(|col| stored(col, r)) {
                    Some(&(_, w)) if w == v => {}
                    Some(_) => return Err("mirror entry disagrees on value"),
                    None => return Err("row entry missing from column mirror"),
                }
                row_entries += 1;
            }
        }
        let col_entries: usize = self.cols.values().map(Vec::len).sum();
        for (c, col) in sorted(&self.cols) {
            if c >= self.order {
                return Err("column index out of range");
            }
            if !col.is_sorted_by(|a, b| a.0 < b.0) {
                return Err("column adjacency list not strictly increasing");
            }
        }
        if row_entries != self.nnz || col_entries != self.nnz {
            return Err("stored entry count disagrees with nnz");
        }
        Ok(())
    }

    /// Adds `delta` to the entry at `(row, col)`.
    pub fn add_at(&mut self, row: usize, col: usize, delta: f64) {
        let v = self.get(row, col) + delta;
        self.set(row, col, v);
    }

    /// Iterates over all stored `((row, col), value)` triplets in
    /// row-major order.
    ///
    /// Sorting the occupied rows costs `O(r log r)` and one allocation
    /// for `r` occupied rows; this is a cold path (serialization,
    /// verification), never a product.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), f64)> + '_ {
        sorted(&self.rows).flat_map(|(r, row)| row.iter().map(move |&(c, v)| ((r, c), v)))
    }

    /// Computes `M · v` for a sparse vector `v`.
    ///
    /// Cost is proportional to the number of stored entries in the columns
    /// selected by `v`'s non-zeros, not to the matrix order.
    ///
    /// # Examples
    ///
    /// ```
    /// use megh_linalg::{DokMatrix, SparseVec};
    ///
    /// let mut m = DokMatrix::zeros(3);
    /// m.set(0, 1, 2.0);
    /// m.set(2, 1, -1.0);
    /// // Column 1 is selected: the product is 2·e₀ − 1·e₂, scaled by v₁.
    /// let out = m.mul_sparse_vec(&SparseVec::from_pairs(3, [(1, 3.0)]));
    /// assert_eq!(out.to_dense(), vec![6.0, 0.0, -3.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `v.dim() != self.order()`.
    pub fn mul_sparse_vec(&self, v: &SparseVec) -> SparseVec {
        let mut out = SparseVec::zeros(self.order);
        self.mul_sparse_vec_into(v, &mut out);
        out
    }

    /// Computes `M · v` into a caller-provided output vector, reusing
    /// its storage (no allocation once `out`'s buffer has warmed up).
    ///
    /// # Examples
    ///
    /// ```
    /// use megh_linalg::{DokMatrix, SparseVec};
    ///
    /// let m = DokMatrix::scaled_identity(2, 4.0);
    /// let mut out = SparseVec::zeros(2);
    /// m.mul_sparse_vec_into(&SparseVec::basis(2, 0), &mut out);
    /// assert_eq!(out.get(0), 4.0);
    /// // `out` is cleared on entry, so the scratch can be reused freely.
    /// m.mul_sparse_vec_into(&SparseVec::basis(2, 1), &mut out);
    /// assert_eq!(out.to_dense(), vec![0.0, 4.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `v.dim()` or `out.dim()` differs from `self.order()`.
    pub fn mul_sparse_vec_into(&self, v: &SparseVec, out: &mut SparseVec) {
        assert_eq!(v.dim(), self.order, "dimension mismatch");
        assert_eq!(out.dim(), self.order, "output dimension mismatch");
        out.clear();
        for (col, value) in v.iter() {
            for &(row, w) in self.cols.get(&col).map_or(&[][..], Vec::as_slice) {
                out.add_at(row, value * w);
            }
        }
    }

    /// Computes `vᵀ · M` for a sparse vector `v` (returned as a vector).
    ///
    /// # Examples
    ///
    /// ```
    /// use megh_linalg::{DokMatrix, SparseVec};
    ///
    /// let mut m = DokMatrix::zeros(3);
    /// m.set(1, 0, 2.0);
    /// m.set(1, 2, 5.0);
    /// // Row 1 is selected: the left product reads a row, not a column.
    /// let out = m.mul_sparse_vec_left(&SparseVec::basis(3, 1));
    /// assert_eq!(out.to_dense(), vec![2.0, 0.0, 5.0]);
    /// assert!(m.mul_sparse_vec(&SparseVec::basis(3, 1)).is_zero());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `v.dim() != self.order()`.
    pub fn mul_sparse_vec_left(&self, v: &SparseVec) -> SparseVec {
        let mut out = SparseVec::zeros(self.order);
        self.mul_sparse_vec_left_into(v, &mut out);
        out
    }

    /// Computes `vᵀ · M` into a caller-provided output vector, reusing
    /// its storage.
    ///
    /// # Panics
    ///
    /// Panics if `v.dim()` or `out.dim()` differs from `self.order()`.
    pub fn mul_sparse_vec_left_into(&self, v: &SparseVec, out: &mut SparseVec) {
        assert_eq!(v.dim(), self.order, "dimension mismatch");
        assert_eq!(out.dim(), self.order, "output dimension mismatch");
        out.clear();
        for (row, value) in v.iter() {
            for &(col, w) in self.rows.get(&row).map_or(&[][..], Vec::as_slice) {
                out.add_at(col, value * w);
            }
        }
    }

    /// Computes `M · v` for a dense vector `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.order()`.
    pub fn mul_dense_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.order, "dimension mismatch");
        // Dense materialisation is a diagnostic path, not the hot loop.
        let mut out = vec![0.0; self.order];
        // Each output slot sums its own row in list order, so the order
        // rows are visited in does not change a bit. Stored row and
        // column indices are < order = out.len() = v.len().
        for (&row, list) in &self.rows {
            debug_assert!(row < out.len());
            let Some(slot) = out.get_mut(row) else {
                continue;
            };
            for &(col, value) in list {
                debug_assert!(col < v.len());
                *slot += value * v.get(col).copied().unwrap_or(0.0);
            }
        }
        out
    }

    /// Adds the rank-1 outer product `scale · u vᵀ` in place.
    ///
    /// Cost is `O(nnz(u) · nnz(v))` list updates plus one hashed lookup
    /// per row of `u` and one per column of `v`: the row lists are
    /// updated first, then the column lists, each list found once. Both
    /// passes add the same `scale · uᵢ · vⱼ` to the same stored value (the
    /// two orientations mirror each other), so they agree bit for bit.
    ///
    /// # Examples
    ///
    /// ```
    /// use megh_linalg::{DokMatrix, SparseVec};
    ///
    /// let mut m = DokMatrix::zeros(2);
    /// m.add_outer_product(&SparseVec::basis(2, 0), &SparseVec::basis(2, 1), 3.0);
    /// assert_eq!(m.get(0, 1), 3.0);
    /// assert_eq!(m.nnz(), 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the dimensions of `u` or `v` differ from the order.
    pub fn add_outer_product(&mut self, u: &SparseVec, v: &SparseVec, scale: f64) {
        assert_eq!(u.dim(), self.order, "dimension mismatch for u");
        assert_eq!(v.dim(), self.order, "dimension mismatch for v");
        if u.is_zero() || v.is_zero() {
            return;
        }
        for (i, uv) in u.iter() {
            let row = self.rows.entry(i).or_default();
            let before = row.len();
            for (j, vv) in v.iter() {
                add_to(row, j, scale * uv * vv);
            }
            // `row` is part of the `nnz` stored entries, so `nnz ≥ before`.
            self.nnz = (self.nnz + row.len()).saturating_sub(before);
        }
        for (j, vv) in v.iter() {
            let col = self.cols.entry(j).or_default();
            for (i, uv) in u.iter() {
                add_to(col, i, scale * uv * vv);
            }
        }
    }
}

/// The occupied lists of one orientation in index order.
fn sorted(adjacency: &Adjacency) -> impl Iterator<Item = (usize, &Vec<(usize, f64)>)> {
    let mut lists: Vec<(usize, &Vec<(usize, f64)>)> =
        adjacency.iter().map(|(&i, list)| (i, list)).collect();
    lists.sort_unstable_by_key(|&(i, _)| i);
    lists.into_iter()
}

/// Sets the `index` entry of a sorted adjacency list to `value`,
/// inserting it in order when absent; returns whether it was inserted.
fn upsert(list: &mut Vec<(usize, f64)>, index: usize, value: f64) -> bool {
    match list.binary_search_by_key(&index, |&(i, _)| i) {
        Ok(m) => {
            if let Some(entry) = list.get_mut(m) {
                entry.1 = value;
            }
            false
        }
        Err(m) => {
            list.insert(m, (index, value));
            true
        }
    }
}

/// Removes the `index` entry of a sorted adjacency list; returns whether
/// it was stored.
fn remove(list: &mut Vec<(usize, f64)>, index: usize) -> bool {
    match list.binary_search_by_key(&index, |&(i, _)| i) {
        Ok(m) => {
            list.remove(m);
            true
        }
        Err(_) => false,
    }
}

/// Adds `delta` to the `index` entry of a sorted adjacency list, with
/// [`DokMatrix::add_at`]'s arithmetic: an absent entry reads 0.0, and a
/// sum of exactly 0.0 is removed, never stored.
fn add_to(list: &mut Vec<(usize, f64)>, index: usize, delta: f64) {
    match list.binary_search_by_key(&index, |&(i, _)| i) {
        Ok(m) => {
            let Some(entry) = list.get_mut(m) else {
                return;
            };
            entry.1 += delta;
            if entry.1 == 0.0 {
                list.remove(m);
            }
        }
        Err(m) => {
            if delta != 0.0 {
                list.insert(m, (index, delta));
            }
        }
    }
}

/// Serialized form: order plus `(row, col, value)` triplets — JSON (and
/// most formats) cannot key maps by tuples.
#[derive(Serialize, Deserialize)]
struct DokMatrixRepr {
    order: usize,
    triplets: Vec<(usize, usize, f64)>,
}

impl Serialize for DokMatrix {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Row-major iteration is already sorted by (row, col).
        // Serialization is an explicit cold path.
        let triplets: Vec<(usize, usize, f64)> = self.iter().map(|((r, c), v)| (r, c, v)).collect();
        DokMatrixRepr {
            order: self.order,
            triplets,
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for DokMatrix {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let repr = DokMatrixRepr::deserialize(deserializer)?;
        let mut m = DokMatrix::zeros(repr.order);
        for (r, c, v) in repr.triplets {
            if r >= repr.order || c >= repr.order {
                return Err(serde::de::Error::custom(format!(
                    "triplet ({r}, {c}) outside order {}",
                    repr.order
                )));
            }
            m.set(r, c, v);
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_roundtrip_preserves_entries() {
        let mut m = DokMatrix::zeros(4);
        m.set(0, 3, 1.5);
        m.set(2, 1, -0.5);
        let json = serde_json::to_string(&m).unwrap();
        let back: DokMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back.order(), 4);
        assert_eq!(back.nnz(), 2);
        assert_eq!(back.get(0, 3), 1.5);
        assert_eq!(back.get(2, 1), -0.5);
        // Rebuilt indexes must work for products.
        let v = SparseVec::basis(4, 3);
        assert_eq!(back.mul_sparse_vec(&v).get(0), 1.5);
    }

    #[test]
    fn serde_rejects_out_of_range_triplets() {
        let json = r#"{"order":2,"triplets":[[5,0,1.0]]}"#;
        assert!(serde_json::from_str::<DokMatrix>(json).is_err());
    }

    #[test]
    fn scaled_identity_layout() {
        let m = DokMatrix::scaled_identity(3, 0.25);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 0.25);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn zero_scale_identity_is_empty() {
        let m = DokMatrix::scaled_identity(3, 0.0);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn set_and_remove_updates_indexes() {
        let mut m = DokMatrix::zeros(4);
        m.set(1, 2, 5.0);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(1, 2), 5.0);
        m.set(1, 2, 0.0);
        assert_eq!(m.nnz(), 0);
        // A sparse product must no longer see the removed entry.
        let v = SparseVec::basis(4, 2);
        assert!(m.mul_sparse_vec(&v).is_zero());
    }

    #[test]
    fn iter_is_row_major_sorted() {
        let mut m = DokMatrix::zeros(3);
        m.set(2, 0, 1.0);
        m.set(0, 2, 2.0);
        m.set(0, 1, 3.0);
        m.set(1, 1, 4.0);
        let keys: Vec<(usize, usize)> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![(0, 1), (0, 2), (1, 1), (2, 0)]);
    }

    #[test]
    fn mul_sparse_vec_matches_dense() {
        let mut m = DokMatrix::zeros(3);
        m.set(0, 0, 1.0);
        m.set(0, 2, 2.0);
        m.set(2, 1, -1.0);
        let v = SparseVec::from_pairs(3, [(0, 1.0), (1, 2.0), (2, 3.0)]);
        let got = m.mul_sparse_vec(&v).to_dense();
        let want = m.mul_dense_vec(&v.to_dense());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn mul_into_reuses_scratch_and_matches_alloc_path() {
        let mut m = DokMatrix::zeros(4);
        m.set(0, 1, 2.0);
        m.set(1, 1, -1.0);
        m.set(3, 2, 4.0);
        let v = SparseVec::from_pairs(4, [(1, 1.5), (2, 0.5)]);
        let mut scratch = SparseVec::from_pairs(4, [(0, 9.0), (3, 9.0)]);
        m.mul_sparse_vec_into(&v, &mut scratch);
        assert_eq!(scratch, m.mul_sparse_vec(&v));
        m.mul_sparse_vec_left_into(&v, &mut scratch);
        assert_eq!(scratch, m.mul_sparse_vec_left(&v));
    }

    #[test]
    fn left_multiply_is_transpose_multiply() {
        let mut m = DokMatrix::zeros(3);
        m.set(0, 1, 2.0);
        m.set(2, 1, 3.0);
        let v = SparseVec::from_pairs(3, [(0, 1.0), (2, 1.0)]);
        let left = m.mul_sparse_vec_left(&v);
        // vᵀM has entry at column 1: 1·2 + 1·3 = 5.
        assert_eq!(left.get(1), 5.0);
        assert_eq!(left.nnz(), 1);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut m = DokMatrix::zeros(3);
        let u = SparseVec::basis(3, 0);
        let v = SparseVec::from_pairs(3, [(1, 2.0), (2, -1.0)]);
        m.add_outer_product(&u, &v, 0.5);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(0, 2), -0.5);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn outer_product_cancellation_removes_entries() {
        let mut m = DokMatrix::zeros(2);
        let u = SparseVec::basis(2, 0);
        let v = SparseVec::basis(2, 1);
        m.add_outer_product(&u, &v, 1.0);
        m.add_outer_product(&u, &v, -1.0);
        assert_eq!(m.nnz(), 0);
    }
}
