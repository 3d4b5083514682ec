#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
use crate::{LinalgError, LuFactors};

/// Dense row-major matrix of `f64`.
///
/// This is deliberately a small type: storage, element access, a few
/// algebraic operations and the entry point to LU factorization
/// ([`Matrix::lu`]). The MNA engines in `xtalk-moments` / `xtalk-sim` stamp
/// their systems into a `Matrix`, factor once, then back-substitute many
/// times.
///
/// # Examples
///
/// ```
/// use xtalk_linalg::Matrix;
///
/// let mut m = Matrix::zeros(2, 2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 3.0;
/// let v = m.mul_vec(&[1.0, 1.0]).unwrap();
/// assert_eq!(v, vec![2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use xtalk_linalg::Matrix;
    /// let i = Matrix::identity(3);
    /// assert_eq!(i[(1, 1)], 1.0);
    /// assert_eq!(i[(1, 2)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the rows do not all have
    /// the same length.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(LinalgError::ShapeMismatch {
                    found: format!("row {i} of length {}", row.len()),
                    expected: format!("length {ncols}"),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Adds `value` to the entry at `(row, col)` — the natural operation
    /// when stamping circuit elements into an MNA system.
    ///
    /// # Panics
    ///
    /// Panics if `row`/`col` are out of bounds.
    pub fn add_at(&mut self, row: usize, col: usize, value: f64) {
        self[(row, col)] += value;
    }

    /// Matrix-vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                found: format!("vector of length {}", x.len()),
                expected: format!("length {}", self.cols),
            });
        }
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// Matrix-matrix product `A·B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != other.rows()`.
    pub fn mul_mat(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                found: format!("{}x{} * {}x{}", self.rows, self.cols, other.rows, other.cols),
                expected: "inner dimensions to match".to_string(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Returns `self + scale * other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn add_scaled(&self, other: &Matrix, scale: f64) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                found: format!("{}x{}", other.rows, other.cols),
                expected: format!("{}x{}", self.rows, self.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + scale * b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns `factor * self`.
    pub fn scaled(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * factor).collect(),
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// LU-factorizes the matrix with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices and
    /// [`LinalgError::Singular`] when a pivot column is numerically zero.
    pub fn lu(&self) -> Result<LuFactors, LinalgError> {
        LuFactors::new(self)
    }

    /// Solves `A·x = b` via a fresh LU factorization.
    ///
    /// Prefer [`Matrix::lu`] + [`LuFactors::solve`] when solving against
    /// several right-hand sides.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors and shape mismatches.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.lu()?.solve(b)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &self.data[row * self.cols + col]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &mut self.data[row * self.cols + col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert!(!m.is_square());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.mul_mat(&i).unwrap(), a);
        assert_eq!(i.mul_mat(&a).unwrap(), a);
    }

    #[test]
    fn mul_vec_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.mul_vec(&[1.0, -1.0]).unwrap(), vec![-1.0, -1.0]);
    }

    #[test]
    fn mul_vec_rejects_wrong_length() {
        let a = Matrix::zeros(2, 2);
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_scaled_combines_linearly() {
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let c = a.add_scaled(&b, 2.0).unwrap();
        assert_eq!(c[(0, 1)], 2.0);
        assert_eq!(c[(0, 0)], 1.0);
    }

    #[test]
    fn scaled_multiplies_every_entry() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 4.0]]).unwrap();
        let b = a.scaled(-2.0);
        assert_eq!(b[(0, 0)], -2.0);
        assert_eq!(b[(0, 1)], 4.0);
        assert_eq!(b[(1, 1)], -8.0);
    }

    #[test]
    fn solve_small_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = a.solve(&[3.0, 5.0]).unwrap();
        let r = a.mul_vec(&x).unwrap();
        assert!((r[0] - 3.0).abs() < 1e-12);
        assert!((r[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(1, 1);
        let _ = m[(1, 0)];
    }
}
