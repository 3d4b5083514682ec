//! Property-based tests for the linear-algebra kernel.
//!
//! The sparse LDLᵀ properties live with the kernel, in the `ldl` unit
//! tests, where they share the RC-tree strategy with the
//! minimum-degree ordering oracle.

use proptest::prelude::*;
use xtalk_linalg::Matrix;

/// Dot product of two equal-length vectors.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Strategy: well-conditioned random matrices (diagonally dominant).
fn dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0..1.0f64, n * n).prop_map(move |vals| {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    m[(i, j)] = vals[i * n + j];
                    row_sum += vals[i * n + j].abs();
                }
            }
            // Strict diagonal dominance guarantees non-singularity.
            m[(i, i)] = row_sum + 1.0;
        }
        m
    })
}

proptest! {
    #[test]
    fn lu_solve_satisfies_residual(
        a in dominant_matrix(5),
        b in prop::collection::vec(-10.0..10.0f64, 5),
    ) {
        let x = a.solve(&b).unwrap();
        let r = a.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-9, "residual too large: {ri} vs {bi}");
        }
    }

    #[test]
    fn inverse_roundtrip(a in dominant_matrix(4)) {
        let inv = a.lu().unwrap().inverse().unwrap();
        let prod = a.mul_mat(&inv).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((prod[(i, j)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn det_is_multiplicative(a in dominant_matrix(3), b in dominant_matrix(3)) {
        let da = a.lu().unwrap().det();
        let db = b.lu().unwrap().det();
        let dab = a.mul_mat(&b).unwrap().lu().unwrap().det();
        // Relative comparison; dominant matrices keep determinants well away from 0.
        prop_assert!((dab - da * db).abs() <= 1e-9 * da.abs().max(1.0) * db.abs().max(1.0));
    }

    #[test]
    fn transpose_preserves_mul_vec_adjoint(
        a in dominant_matrix(4),
        x in prop::collection::vec(-5.0..5.0f64, 4),
        y in prop::collection::vec(-5.0..5.0f64, 4),
    ) {
        // <A x, y> == <x, A^T y>
        let ax = a.mul_vec(&x).unwrap();
        let aty = a.transpose().mul_vec(&y).unwrap();
        let lhs = dot(&ax, &y);
        let rhs = dot(&x, &aty);
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    #[test]
    fn csr_matches_dense_semantics(
        entries in prop::collection::vec((0usize..6, 0usize..6, -3.0..3.0f64), 0..40),
        x in prop::collection::vec(-2.0..2.0f64, 6),
    ) {
        let mut t = xtalk_linalg::sparse::Triplets::new(6, 6);
        let mut dense = Matrix::zeros(6, 6);
        for &(r, c, v) in &entries {
            t.push(r, c, v);
            dense[(r, c)] += v;
        }
        let csr = t.to_csr();
        let ys = csr.mul_vec(&x).unwrap();
        let yd = dense.mul_vec(&x).unwrap();
        for (s, d) in ys.iter().zip(&yd) {
            prop_assert!((s - d).abs() < 1e-12);
        }
        // get() agrees entry-wise.
        for r in 0..6 {
            for c in 0..6 {
                prop_assert!((csr.get(r, c) - dense[(r, c)]).abs() < 1e-12);
            }
        }
    }
}
