//! Solver backend selection: sparse LDLᵀ with a dense LU fallback.
//!
//! The transient simulator factors two kinds of systems — the DC
//! conductance matrix `G` and the stepping matrix `G + C/dt` — both of
//! which are symmetric with positive diagonals for well-formed RC
//! networks. [`Solver`] wraps the two factorization backends behind one
//! solve call so callers hold a single cached object, and
//! [`prefer_sparse`] encodes the selection heuristic:
//!
//! * **sparse** ([`LdlFactors`]) when the matrix is symmetric, has a
//!   positive diagonal, is at least [`SPARSE_MIN_DIM`] wide and at most
//!   [`SPARSE_MAX_DENSITY`] dense — the RC-tree case, where the
//!   fill-reducing ordering makes factorization O(nnz);
//! * **dense** ([`LuFactors`]) otherwise — tiny systems (where dense
//!   beats sparse bookkeeping), dense blocks, or anything structurally
//!   unsuitable for LDLᵀ (asymmetric, non-positive diagonal). Partial
//!   pivoting also makes it the robust fallback when a sparse numeric
//!   factorization fails.

use crate::sparse::Csr;
use crate::{LdlFactors, LinalgError, LuFactors};

/// Below this dimension the dense path wins regardless of sparsity: the
/// O(n³) factor is a few hundred flops and has no ordering/etree
/// bookkeeping.
pub const SPARSE_MIN_DIM: usize = 12;

/// Above this stored-entry fraction the matrix is treated as dense; LDLᵀ
/// on a mostly-full pattern just replays dense Cholesky with extra
/// indirection.
pub const SPARSE_MAX_DENSITY: f64 = 0.25;

/// `true` when LDLᵀ can factor this matrix at all: square, exactly
/// symmetric, and every diagonal entry present and positive (the
/// SPD-like shape stamped MNA matrices have). Size and density are a
/// *preference* ([`prefer_sparse`]) on top of this hard floor.
fn sparse_eligible(a: &Csr) -> bool {
    let n = a.rows();
    if n != a.cols() {
        return false;
    }
    (0..n).all(|i| a.get(i, i) > 0.0) && a.is_symmetric()
}

/// The backend selection heuristic: sparse when eligible, big enough,
/// and sparse enough (see the module docs for the reasoning).
pub fn prefer_sparse(a: &Csr) -> bool {
    let n = a.rows();
    if n < SPARSE_MIN_DIM {
        return false;
    }
    let density = a.nnz() as f64 / (n as f64 * n as f64);
    density <= SPARSE_MAX_DENSITY && sparse_eligible(a)
}

/// A factored linear system behind either backend, exposing one
/// allocation-free solve call.
#[derive(Debug, Clone)]
pub enum Solver {
    /// Dense LU with partial pivoting.
    Dense(LuFactors),
    /// Sparse LDLᵀ with fill-reducing ordering. Boxed: the factor
    /// bundle (shared symbolic handle + four work arrays) dwarfs
    /// `LuFactors`' three pointers, and a `Solver` lives behind
    /// long-lived workspace options anyway.
    Sparse(Box<LdlFactors>),
}

impl Solver {
    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        match self {
            Solver::Dense(f) => f.dim(),
            Solver::Sparse(f) => f.dim(),
        }
    }

    /// `true` for the sparse LDLᵀ backend.
    pub fn is_sparse(&self) -> bool {
        matches!(self, Solver::Sparse(_))
    }

    /// The sparse factors.
    ///
    /// # Panics
    ///
    /// Panics on the dense backend.
    pub fn as_sparse(&self) -> &LdlFactors {
        match self {
            Solver::Sparse(f) => f,
            Solver::Dense(_) => panic!("a dense factorization has no LDLᵀ factors"),
        }
    }

    /// The dense LU factors.
    ///
    /// # Panics
    ///
    /// Panics on the sparse backend.
    pub fn as_dense(&self) -> &LuFactors {
        match self {
            Solver::Dense(f) => f,
            Solver::Sparse(_) => panic!("a sparse factorization has no LU factors"),
        }
    }

    /// Solves `A·x = b` into `x`. `scratch` must be an `n`-length work
    /// buffer; the dense backend ignores it. Allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on buffer-length mismatch.
    pub fn solve_into(
        &self,
        b: &[f64],
        x: &mut [f64],
        scratch: &mut [f64],
    ) -> Result<(), LinalgError> {
        match self {
            Solver::Dense(f) => LuFactors::solve_into([f], b, x),
            Solver::Sparse(f) => f.solve_into(b, x, scratch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;
    use crate::LdlSymbolic;

    fn spd_chain(n: usize) -> Csr {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
        }
        for i in 0..n - 1 {
            t.push(i, i + 1, -1.0);
            t.push(i + 1, i, -1.0);
        }
        t.to_csr()
    }

    #[test]
    fn heuristic_picks_sparse_for_large_trees() {
        assert!(prefer_sparse(&spd_chain(64)));
        // Too small: dense wins.
        assert!(!prefer_sparse(&spd_chain(4)));
    }

    #[test]
    fn heuristic_rejects_asymmetric_and_bad_diagonal() {
        let mut t = Triplets::new(16, 16);
        for i in 0..16 {
            t.push(i, i, 2.0);
        }
        t.push(0, 1, -1.0); // no mirrored entry
        assert!(!sparse_eligible(&t.to_csr()));

        let mut t = Triplets::new(16, 16);
        for i in 0..15 {
            t.push(i, i, 2.0);
        }
        // Missing diagonal at node 15.
        assert!(!sparse_eligible(&t.to_csr()));
    }

    #[test]
    fn heuristic_rejects_dense_blocks() {
        let n = 16;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            for j in 0..n {
                t.push(i, j, if i == j { n as f64 } else { -0.5 });
            }
        }
        let a = t.to_csr();
        assert!(sparse_eligible(&a));
        assert!(!prefer_sparse(&a));
    }

    #[test]
    fn both_backends_solve_through_the_enum() {
        let a = spd_chain(8);
        let b: Vec<f64> = (0..8).map(|i| i as f64 - 3.0).collect();
        let dense = Solver::Dense(a.to_dense().lu().unwrap());
        let sparse =
            Solver::Sparse(Box::new(LdlSymbolic::analyze(&a).unwrap().factor(&a).unwrap()));
        assert!(!dense.is_sparse() && sparse.is_sparse());
        assert_eq!(dense.dim(), 8);
        assert_eq!(sparse.dim(), 8);
        let mut xd = vec![0.0; 8];
        let mut xs = vec![0.0; 8];
        let mut scratch = vec![0.0; 8];
        dense.solve_into(&b, &mut xd, &mut scratch).unwrap();
        sparse.solve_into(&b, &mut xs, &mut scratch).unwrap();
        for (d, s) in xd.iter().zip(&xs) {
            assert!((d - s).abs() < 1e-12 * (1.0 + d.abs()));
        }
    }
}
