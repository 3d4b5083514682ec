#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
use crate::lanes::Lanes;
use crate::{LinalgError, Matrix};

/// LU factorization with partial (row) pivoting: `P·A = L·U`.
///
/// The factorization is computed once and can then be reused to solve
/// `A·x = b` for many right-hand sides — the dominant pattern in both the
/// moment recursion (`G·m_k = −C·m_{k−1}`) and fixed-step transient
/// analysis (`(G + 2C/h)` factored once per run).
///
/// # Examples
///
/// ```
/// use xtalk_linalg::Matrix;
///
/// # fn main() -> Result<(), xtalk_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?; // needs pivoting
/// let lu = a.lu()?;
/// let x = lu.solve(&[2.0, 2.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    /// Combined L (strict lower, unit diagonal implied) and U (upper).
    lu: Vec<f64>,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation, for determinants.
    perm_sign: f64,
}

/// Pivots smaller than this (relative to the largest entry in the column)
/// are treated as exact zeros, i.e. the matrix is reported singular.
const PIVOT_EPS: f64 = 1e-300;

impl LuFactors {
    /// Factorizes `a` (must be square).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] — `a` is not square.
    /// * [`LinalgError::NonFinite`] — `a` contains NaN/∞.
    /// * [`LinalgError::Singular`] — a pivot column vanished.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite {
                context: "LU input matrix".to_string(),
            });
        }
        let n = a.rows();
        let mut lu = a.as_slice().to_vec();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;

        for k in 0..n {
            // Partial pivoting: pick the largest |entry| in column k at/below k.
            let mut pivot_row = k;
            let mut pivot_val = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < PIVOT_EPS {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                for j in 0..n {
                    lu.swap(k * n + j, pivot_row * n + j);
                }
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                lu[i * n + k] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        lu[i * n + j] -= factor * lu[k * n + j];
                    }
                }
            }
        }
        Ok(LuFactors {
            n,
            lu,
            perm,
            perm_sign,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.n {
            return Err(LinalgError::ShapeMismatch {
                found: format!("rhs of length {}", b.len()),
                expected: format!("length {}", self.n),
            });
        }
        let mut x = vec![0.0; self.n];
        LuFactors::solve_into([self], b, &mut x)?;
        Ok(x)
    }

    /// Solves `A_l·x = b` per lane `l` with the factors `lanes[l]` into a
    /// caller-provided buffer, avoiding allocation in per-timestep inner
    /// loops. Lanes share only the loop (see [`crate::lanes`]); each goes
    /// through the operations of its own one-lane solve, and the one-lane
    /// call on plain slices is the scalar solve.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the factors differ in
    /// dimension or `b` or `x` have the wrong length.
    pub fn solve_into<const L: usize, B, X>(
        lanes: [&LuFactors; L],
        b: &B,
        x: &mut X,
    ) -> Result<(), LinalgError>
    where
        B: Lanes<L> + ?Sized,
        X: Lanes<L> + ?Sized,
    {
        let n = lanes.first().map_or(0, |f| f.n);
        if lanes.iter().any(|f| f.n != n) || b.lane_len() != n || x.lane_len() != n {
            return Err(LinalgError::ShapeMismatch {
                found: format!("rhs length {} / out length {}", b.lane_len(), x.lane_len()),
                expected: format!("both of length {n}, one dimension per lane"),
            });
        }
        // Forward substitution with permuted b: L·y = P·b.
        for i in 0..n {
            let mut acc: [f64; L] = std::array::from_fn(|l| b.lanes(lanes[l].perm[i])[l]);
            for j in 0..i {
                let xj = x.lanes(j);
                for l in 0..L {
                    acc[l] -= lanes[l].lu[i * n + j] * xj[l];
                }
            }
            x.set_lanes(i, acc);
        }
        // Back substitution: U·x = y.
        for i in (0..n).rev() {
            let mut acc = x.lanes(i);
            for j in (i + 1)..n {
                let xj = x.lanes(j);
                for l in 0..L {
                    acc[l] -= lanes[l].lu[i * n + j] * xj[l];
                }
            }
            for l in 0..L {
                acc[l] /= lanes[l].lu[i * n + i];
            }
            x.set_lanes(i, acc);
        }
        Ok(())
    }

    /// Determinant of the original matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use xtalk_linalg::Matrix;
    /// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
    /// assert!((a.lu().unwrap().det() + 2.0).abs() < 1e-12);
    /// ```
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.n {
            d *= self.lu[i * self.n + i];
        }
        d
    }

    /// Inverse of the original matrix, column by column.
    ///
    /// # Errors
    ///
    /// Never fails once the factorization exists; the `Result` is kept for
    /// interface symmetry with [`LuFactors::solve`].
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        let n = self.n;
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        let mut col = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            LuFactors::solve_into([self], &e, &mut col)?;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
            e[j] = 0.0;
        }
        Ok(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn factors_and_solves_3x3() {
        let a = Matrix::from_rows(&[
            &[2.0, 1.0, 1.0],
            &[4.0, -6.0, 0.0],
            &[-2.0, 7.0, 2.0],
        ])
        .unwrap();
        let lu = a.lu().unwrap();
        let b = [5.0, -2.0, 9.0];
        let x = lu.solve(&b).unwrap();
        let r = a.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert_close(*ri, *bi, 1e-12);
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.lu().unwrap().solve(&[3.0, 4.0]).unwrap();
        assert_close(x[0], 4.0, 1e-15);
        assert_close(x[1], 3.0, 1e-15);
    }

    #[test]
    fn singular_matrix_reports_pivot() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        match a.lu() {
            Err(LinalgError::Singular { pivot }) => assert_eq!(pivot, 1),
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_rejected() {
        let mut a = Matrix::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(a.lu(), Err(LinalgError::NonFinite { .. })));
    }

    #[test]
    fn det_of_permutation_matrix_is_signed() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert_close(a.lu().unwrap().det(), -1.0, 1e-15);
    }

    #[test]
    fn det_matches_cofactor_expansion_3x3() {
        let a = Matrix::from_rows(&[
            &[3.0, 0.0, 2.0],
            &[2.0, 0.0, -2.0],
            &[0.0, 1.0, 1.0],
        ])
        .unwrap();
        assert_close(a.lu().unwrap().det(), 10.0, 1e-12);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[
            &[4.0, 7.0, 1.0],
            &[2.0, 6.0, -3.0],
            &[1.0, 0.0, 5.0],
        ])
        .unwrap();
        let inv = a.lu().unwrap().inverse().unwrap();
        let prod = a.mul_mat(&inv).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert_close(prod[(i, j)], expect, 1e-12);
            }
        }
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let lu = Matrix::identity(3).lu().unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn spd_like_mna_matrix_is_well_conditioned() {
        // Typical MNA stamp: diagonally dominant conductance matrix.
        let g = 1e-3;
        let a = Matrix::from_rows(&[
            &[2.0 * g, -g, 0.0],
            &[-g, 2.0 * g, -g],
            &[0.0, -g, 2.0 * g],
        ])
        .unwrap();
        let x = a.solve(&[1e-6, 0.0, 0.0]).unwrap();
        let r = a.mul_vec(&x).unwrap();
        assert_close(r[0], 1e-6, 1e-18);
        assert_close(r[1], 0.0, 1e-18);
    }
}
