//! Solver scaling: dense LU vs sparse LDLᵀ on RC-chain-like SPD systems.
//!
//! Measures the simulator's actual factor-and-solve workload — one
//! factorization followed by 100 solves (a transient run's step loop) —
//! at n ∈ {32, 128, 512, 2048} on a chain-with-coupling matrix of the
//! kind the MNA stamping produces. Dense LU is O(n³) factor + O(n²)
//! solve; sparse LDLᵀ under the fill-reducing ordering is O(n) for both
//! on these near-tree systems, so the gap widens by roughly n² across
//! the sweep.
//!
//! The dense n=2048 point costs seconds per factorization, so sample
//! counts are kept small; `-- --test` (CI smoke mode) runs each routine
//! once untimed.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use xtalk_linalg::sparse::{Csr, Triplets};
use xtalk_linalg::{LdlSymbolic, LuFactors};

/// Sizes swept; dense factorization dominates the large end.
const SIZES: [usize; 4] = [32, 128, 512, 2048];

/// Solves per factorization — a representative transient step count.
const SOLVES: usize = 100;

/// RC-chain-like SPD matrix with sparse coupling entries every 8 nodes,
/// mirroring the stepping matrix `(C + coeff·G)/dt` of a coupled ladder.
fn stepping_matrix(n: usize) -> Csr {
    stepping_matrix_scaled(n, 1.0)
}

/// The same pattern with every value scaled — what a timestep change
/// does to the stepping matrix (`dt → dt/scale`).
fn stepping_matrix_scaled(n: usize, scale: f64) -> Csr {
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, scale * (4.0 + 0.001 * i as f64));
    }
    for i in 0..n - 1 {
        t.push(i, i + 1, -scale);
        t.push(i + 1, i, -scale);
    }
    let mut i = 0;
    while i + 9 < n {
        t.push(i, i + 9, scale * -0.125);
        t.push(i + 9, i, scale * -0.125);
        i += 8;
    }
    t.to_csr()
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.13).sin()).collect()
}

fn bench_solver_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_scaling");
    // A dense 2048³ factorization runs for seconds; default sample counts
    // would take an hour. The comparison needs stable medians, not tight
    // confidence intervals.
    group.sample_size(10);

    for n in SIZES {
        let a = stepping_matrix(n);
        let b = rhs(n);

        group.bench_function(format!("sparse_ldl/factor_plus_{SOLVES}_solves/n{n}"), |bch| {
            let symbolic = LdlSymbolic::analyze(&a).expect("pattern analyzes");
            let mut x = vec![0.0; n];
            let mut scratch = vec![0.0; n];
            bch.iter(|| {
                // A level build factors against the cached analysis.
                let factors = symbolic.factor(black_box(&a)).expect("matrix factors");
                for _ in 0..SOLVES {
                    factors
                        .solve_into(black_box(&b), &mut x, &mut scratch)
                        .expect("solve succeeds");
                }
                black_box(x[n / 2])
            })
        });

        // Adaptive-timestep dimension: a dt change rescales the stepping
        // matrix but keeps its pattern, so a level build only factors
        // numerically against the cached symbolic analysis (as above).
        // The full-reanalysis variant is what each dt change would cost
        // without the cache (ordering + elimination tree + counts again).
        let a_halved = stepping_matrix_scaled(n, 2.0);
        group.bench_function(format!("sparse_ldl/dt_change/full_reanalysis/n{n}"), |bch| {
            bch.iter(|| {
                let symbolic = LdlSymbolic::analyze(black_box(&a_halved)).expect("pattern analyzes");
                let factors = symbolic.factor(&a_halved).expect("matrix factors");
                black_box(factors.fill_nnz())
            })
        });

        group.bench_function(
            format!("dense_lu/factor_plus_{SOLVES}_solves/n{n}"),
            |bch| {
                let dense = a.to_dense();
                let mut x = vec![0.0; n];
                bch.iter(|| {
                    let lu = dense.lu().expect("matrix factors");
                    for _ in 0..SOLVES {
                        LuFactors::solve_into([&lu], black_box(&b), &mut x)
                            .expect("solve succeeds");
                    }
                    black_box(x[n / 2])
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_solver_scaling);
criterion_main!(benches);
