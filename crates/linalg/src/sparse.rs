#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
//! Compressed-sparse-row matrices.
//!
//! MNA systems of large coupled interconnect structures are extremely
//! sparse (a handful of entries per row). The simulator and moment engine
//! stamp elements into a [`Triplets`] accumulator and compress it into a
//! [`Csr`] for matrix-vector products; for factorization the (small, per-net)
//! systems are densified via [`Csr::to_dense`].

use crate::lanes::Lanes;
use crate::{LinalgError, Matrix};

/// Coordinate-format accumulator used while stamping circuit elements.
///
/// Duplicate `(row, col)` entries are summed on compression, which matches
/// the additive semantics of element stamps.
///
/// # Examples
///
/// ```
/// use xtalk_linalg::sparse::Triplets;
///
/// let mut t = Triplets::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 0, 2.0); // accumulates
/// let csr = t.to_csr();
/// assert_eq!(csr.get(0, 0), 3.0);
/// assert_eq!(csr.nnz(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Triplets {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl Triplets {
    /// Creates an empty accumulator of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Triplets {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "triplet ({row},{col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((row, col, value));
    }

    /// Number of raw (pre-merge) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Compresses into CSR, merging duplicates and dropping exact zeros.
    pub fn to_csr(&self) -> Csr {
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        // Merge consecutive duplicates into (row, col, value) runs.
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some((lr, lc, lv)) if *lr == r && *lc == c => *lv += v,
                _ => merged.push((r, c, v)),
            }
        }
        merged.retain(|&(_, _, v)| v != 0.0);

        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(merged.len());
        let mut values = Vec::with_capacity(merged.len());
        for (r, c, v) in merged {
            row_ptr[r + 1] += 1;
            col_idx.push(c);
            values.push(v);
        }
        for r in 0..self.rows {
            row_ptr[r + 1] += row_ptr[r];
        }

        Csr {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Immutable compressed-sparse-row matrix.
///
/// # Examples
///
/// ```
/// use xtalk_linalg::sparse::Triplets;
///
/// let mut t = Triplets::new(2, 2);
/// t.push(0, 0, 2.0);
/// t.push(1, 0, -1.0);
/// t.push(1, 1, 2.0);
/// let a = t.to_csr();
/// assert_eq!(a.mul_vec(&[1.0, 1.0]).unwrap(), vec![2.0, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl Csr {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Value at `(row, col)` (zero when not stored).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        match self.col_idx[lo..hi].binary_search(&col) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterates over the stored entries of one row as `(col, value)` pairs.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Sparse matrix-vector product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a length mismatch.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                found: format!("vector of length {}", x.len()),
                expected: format!("length {}", self.cols),
            });
        }
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y)?;
        Ok(y)
    }

    /// Sparse matrix-vector product into a caller-provided buffer —
    /// the allocation-free variant for per-timestep inner loops.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a length mismatch.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
        self.mul_vec_values_into(&self.values, x, y)
    }

    /// `y = A·x` for the matrix with this pattern and `values` (one per
    /// stored entry, in CSR order) — for matrices that share one pattern
    /// and keep only their value arrays. Generic over a lane count `L`:
    /// `values`, `x` and `y` may hold `L` matrices' and vectors' values
    /// side by side, multiplied in one pass over the pattern (see
    /// [`crate::lanes`]). Each lane's row sums accumulate in CSR order,
    /// so every lane is bit-equal to its own one-lane call; the one-lane
    /// instance on plain slices is the scalar product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a length mismatch.
    pub fn mul_vec_values_into<const L: usize, V, X, Y>(
        &self,
        values: &V,
        x: &X,
        y: &mut Y,
    ) -> Result<(), LinalgError>
    where
        V: Lanes<L> + ?Sized,
        X: Lanes<L> + ?Sized,
        Y: Lanes<L> + ?Sized,
    {
        self.check_mul_shapes(values.lane_len(), x.lane_len(), y.lane_len())?;
        for (r, bounds) in self.row_ptr.windows(2).enumerate() {
            let row = bounds[0]..bounds[1];
            let mut acc = [0.0; L];
            for (&c, v) in self.col_idx[row.clone()].iter().zip(values.lanes_in(row)) {
                let xc = x.lanes(c);
                for l in 0..L {
                    acc[l] += v[l] * xc[l];
                }
            }
            y.set_lanes(r, acc);
        }
        Ok(())
    }

    /// Two products on this pattern in one pass over it: `ya = A·x` and
    /// `yb = B·x`, where `A` and `B` carry the value arrays `a` and `b`,
    /// per lane as in [`Csr::mul_vec_values_into`]. Each row sum
    /// accumulates in the same order as [`Csr::mul_vec_values_into`], so
    /// both outputs of every lane are bit-equal to two single calls.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a length mismatch.
    pub fn mul_vec_pair_into<const L: usize, V, X, Y>(
        &self,
        (a, b): (&V, &V),
        x: &X,
        (ya, yb): (&mut Y, &mut Y),
    ) -> Result<(), LinalgError>
    where
        V: Lanes<L> + ?Sized,
        X: Lanes<L> + ?Sized,
        Y: Lanes<L> + ?Sized,
    {
        self.check_mul_shapes(a.lane_len(), x.lane_len(), ya.lane_len())?;
        self.check_mul_shapes(b.lane_len(), x.lane_len(), yb.lane_len())?;
        for (r, bounds) in self.row_ptr.windows(2).enumerate() {
            let row = bounds[0]..bounds[1];
            let (mut acc_a, mut acc_b) = ([0.0; L], [0.0; L]);
            let entries = a.lanes_in(row.clone()).zip(b.lanes_in(row.clone()));
            for (&c, (va, vb)) in self.col_idx[row].iter().zip(entries) {
                let xc = x.lanes(c);
                for l in 0..L {
                    acc_a[l] += va[l] * xc[l];
                    acc_b[l] += vb[l] * xc[l];
                }
            }
            ya.set_lanes(r, acc_a);
            yb.set_lanes(r, acc_b);
        }
        Ok(())
    }

    fn check_mul_shapes(&self, values: usize, x: usize, y: usize) -> Result<(), LinalgError> {
        if values != self.nnz() || x != self.cols || y != self.rows {
            return Err(LinalgError::ShapeMismatch {
                found: format!("{values} values, x of length {x}, y of length {y}"),
                expected: format!(
                    "{} values, x of length {}, y of length {}",
                    self.nnz(),
                    self.cols,
                    self.rows
                ),
            });
        }
        Ok(())
    }

    /// Compresses a dense matrix, dropping exact zeros. Row sums in
    /// [`Csr::mul_vec`] visit the surviving columns in the same ascending
    /// order as a dense row loop, so swapping a dense matvec for the CSR
    /// one does not reorder the floating-point accumulation.
    pub fn from_dense(m: &Matrix) -> Csr {
        let mut t = Triplets::new(m.rows(), m.cols());
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let v = m[(r, c)];
                if v != 0.0 {
                    t.push(r, c, v);
                }
            }
        }
        t.to_csr()
    }

    /// Densifies into a [`Matrix`].
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                m[(r, c)] = v;
            }
        }
        m
    }

    /// Read-only view of the stored values in CSR order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable view of the stored values in CSR order — for rewriting a
    /// matrix in place on a *fixed* pattern (the simulator's stepping
    /// matrix `G + C/dt` across `dt` changes). The pattern itself
    /// (shape, `row_ptr`, `col_idx`) cannot change through this view.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Row pointers (`rows + 1` entries).
    pub(crate) fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index of every stored entry, in CSR order.
    pub(crate) fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// `true` when `other` has the same shape and stores exactly the same
    /// entries (values aside) — the test for sharing one symbolic
    /// analysis or one batched march.
    pub fn same_pattern(&self, other: &Csr) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
    }

    /// `true` when the matrix is square and exactly (bitwise) symmetric —
    /// the structural precondition for the LDLᵀ solver. Stamped MNA
    /// matrices are symmetric by construction (each two-terminal element
    /// stamps `(i,j)` and `(j,i)` with the same literal value), so the
    /// check passes without a tolerance.
    pub fn is_symmetric(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                if self.get(c, r) != v {
                    return false;
                }
            }
        }
        true
    }

    /// Union sparsity pattern of two same-shaped matrices, with scatter
    /// maps back into it.
    ///
    /// Returns `(union, a_pos, b_pos)` where `union` stores an explicit
    /// `0.0` for every entry present in either input, and `a_pos[k]` is
    /// the index into `union.values()` of `a`'s `k`-th stored entry (in
    /// CSR order; likewise `b_pos`). This lets a caller build the pattern
    /// of `αA + βB` once and rewrite its values allocation-free:
    ///
    /// ```
    /// use xtalk_linalg::sparse::{Csr, Triplets};
    ///
    /// let mut ta = Triplets::new(2, 2);
    /// ta.push(0, 0, 2.0);
    /// let mut tb = Triplets::new(2, 2);
    /// tb.push(0, 0, 4.0);
    /// tb.push(1, 1, 8.0);
    /// let (a, b) = (ta.to_csr(), tb.to_csr());
    /// let (mut u, a_pos, b_pos) = Csr::union_pattern(&a, &b).unwrap();
    /// u.values_mut().fill(0.0);
    /// for (k, &p) in a_pos.iter().enumerate() {
    ///     u.values_mut()[p] += 3.0 * a.values()[k];
    /// }
    /// for (k, &p) in b_pos.iter().enumerate() {
    ///     u.values_mut()[p] += b.values()[k];
    /// }
    /// assert_eq!(u.get(0, 0), 10.0);
    /// assert_eq!(u.get(1, 1), 8.0);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the shapes differ.
    pub fn union_pattern(a: &Csr, b: &Csr) -> Result<(Csr, Vec<usize>, Vec<usize>), LinalgError> {
        if a.rows != b.rows || a.cols != b.cols {
            return Err(LinalgError::ShapeMismatch {
                found: format!("matrix of shape {}x{}", b.rows, b.cols),
                expected: format!("{}x{}", a.rows, a.cols),
            });
        }
        let mut row_ptr = vec![0usize; a.rows + 1];
        let mut col_idx = Vec::with_capacity(a.nnz().max(b.nnz()));
        let mut a_pos = vec![0usize; a.nnz()];
        let mut b_pos = vec![0usize; b.nnz()];
        for r in 0..a.rows {
            // Two-pointer merge of the sorted column lists of row r.
            let (mut ka, mut kb) = (a.row_ptr[r], b.row_ptr[r]);
            let (ea, eb) = (a.row_ptr[r + 1], b.row_ptr[r + 1]);
            while ka < ea || kb < eb {
                let ca = if ka < ea { a.col_idx[ka] } else { usize::MAX };
                let cb = if kb < eb { b.col_idx[kb] } else { usize::MAX };
                let c = ca.min(cb);
                if ca == c {
                    a_pos[ka] = col_idx.len();
                    ka += 1;
                }
                if cb == c {
                    b_pos[kb] = col_idx.len();
                    kb += 1;
                }
                col_idx.push(c);
            }
            row_ptr[r + 1] = col_idx.len();
        }
        let values = vec![0.0; col_idx.len()];
        Ok((
            Csr {
                rows: a.rows,
                cols: a.cols,
                row_ptr,
                col_idx,
                values,
            },
            a_pos,
            b_pos,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_merge_duplicates() {
        let mut t = Triplets::new(3, 3);
        t.push(1, 1, 1.0);
        t.push(1, 1, 0.5);
        t.push(0, 2, 2.0);
        let a = t.to_csr();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(1, 1), 1.5);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(2, 2), 0.0);
    }

    #[test]
    fn cancelled_entries_are_dropped() {
        let mut t = Triplets::new(1, 1);
        t.push(0, 0, 1.0);
        t.push(0, 0, -1.0);
        assert_eq!(t.to_csr().nnz(), 0);
    }

    #[test]
    fn csr_mul_vec_matches_dense() {
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(0, 2, -1.0);
        t.push(1, 1, 3.0);
        t.push(2, 0, 1.0);
        t.push(2, 2, 4.0);
        let a = t.to_csr();
        let x = [1.0, 2.0, 3.0];
        let dense = a.to_dense();
        assert_eq!(a.mul_vec(&x).unwrap(), dense.mul_vec(&x).unwrap());
    }

    #[test]
    fn empty_matrix_behaves() {
        let t = Triplets::new(2, 2);
        assert!(t.is_empty());
        let a = t.to_csr();
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.mul_vec(&[1.0, 1.0]).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn row_iteration_in_column_order() {
        let mut t = Triplets::new(1, 4);
        t.push(0, 3, 3.0);
        t.push(0, 1, 1.0);
        let a = t.to_csr();
        let row: Vec<_> = a.row(0).collect();
        assert_eq!(row, vec![(1, 1.0), (3, 3.0)]);
    }

    #[test]
    fn from_dense_round_trips_and_drops_zeros() {
        let m = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 0.0, 0.0], &[3.0, 4.0, 0.0]])
            .unwrap();
        let a = Csr::from_dense(&m);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.to_dense(), m);
        let x = [1.0, 10.0, 100.0];
        let mut y = [f64::NAN; 3];
        a.mul_vec_into(&x, &mut y).unwrap();
        assert_eq!(y.to_vec(), m.mul_vec(&x).unwrap());
    }

    #[test]
    fn mul_vec_into_rejects_bad_shapes() {
        let mut t = Triplets::new(2, 3);
        t.push(0, 0, 1.0);
        let a = t.to_csr();
        let mut y = [0.0; 2];
        assert!(a.mul_vec_into(&[1.0, 2.0], &mut y).is_err());
        let mut short = [0.0; 1];
        assert!(a.mul_vec_into(&[1.0, 2.0, 3.0], &mut short).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut t = Triplets::new(1, 1);
        t.push(1, 0, 1.0);
    }

    #[test]
    fn symmetry_check() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, -1.0);
        t.push(1, 0, -1.0);
        t.push(0, 0, 2.0);
        assert!(t.to_csr().is_symmetric());
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, -1.0);
        assert!(!t.to_csr().is_symmetric());
        assert!(!Triplets::new(2, 3).to_csr().is_symmetric());
    }

    #[test]
    fn union_pattern_scatters_both_inputs() {
        let mut ta = Triplets::new(3, 3);
        ta.push(0, 0, 1.0);
        ta.push(0, 2, 2.0);
        ta.push(2, 1, 3.0);
        let mut tb = Triplets::new(3, 3);
        tb.push(0, 1, 4.0);
        tb.push(0, 2, 5.0);
        tb.push(1, 1, 6.0);
        let (a, b) = (ta.to_csr(), tb.to_csr());
        let (mut u, a_pos, b_pos) = Csr::union_pattern(&a, &b).unwrap();
        assert_eq!(u.nnz(), 5); // (0,0) (0,1) (0,2) (1,1) (2,1)
        assert!(u.values().iter().all(|&v| v == 0.0));
        for (k, &p) in a_pos.iter().enumerate() {
            u.values_mut()[p] += 10.0 * a.values()[k];
        }
        for (k, &p) in b_pos.iter().enumerate() {
            u.values_mut()[p] += b.values()[k];
        }
        assert_eq!(u.get(0, 0), 10.0);
        assert_eq!(u.get(0, 1), 4.0);
        assert_eq!(u.get(0, 2), 25.0);
        assert_eq!(u.get(1, 1), 6.0);
        assert_eq!(u.get(2, 1), 30.0);
        // Pattern is valid CSR: matvec agrees with the dense equivalent.
        let x = [1.0, 2.0, 3.0];
        assert_eq!(u.mul_vec(&x).unwrap(), u.to_dense().mul_vec(&x).unwrap());
    }

    #[test]
    fn union_pattern_rejects_shape_mismatch() {
        let a = Triplets::new(2, 2).to_csr();
        let b = Triplets::new(2, 3).to_csr();
        assert!(Csr::union_pattern(&a, &b).is_err());
    }
}
