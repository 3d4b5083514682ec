//! Proves the per-iteration analysis hot paths are allocation-free.
//!
//! The `metric_formulas/*` benches claim tens-of-nanoseconds cost, which
//! only holds if evaluating a metric from precomputed moments touches the
//! allocator zero times. This test swaps in a counting global allocator,
//! warms the paths up, then asserts the allocation count does not move
//! across many iterations of metric I, metric II, and the bounds.
//!
//! A second window covers the sparse solver kernels: rewriting a CSR
//! matrix's values in place and solving into preallocated buffers with
//! LDLᵀ factors of the shared symbolic structure — the solve is the
//! per-step call of the simulator's time march. All of it must be
//! allocation-free after warm-up. A third window covers the adaptive march's pair kernels:
//! both stepping products in one pass over the shared pattern, and both
//! solves in one sweep over the shared `L` structure. A fourth covers the
//! batched march's lane kernels: loading one lane's level into the
//! lane-interleaved values and factors, then the pair product and pair
//! solve of four lanes at once.
//!
//! The windows also hammer disabled `xtalk_obs` probes (counter,
//! histogram, span) directly: the observability layer instruments these
//! same hot paths, and its contract is that the disabled fast path is
//! one relaxed atomic load with no allocation — this test keeps that
//! honest.
//!
//! This file holds exactly one `#[test]` — the counter is process-global,
//! and a sibling test allocating on another thread would false-positive.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use xtalk_circuit::signal::InputSignal;
use xtalk_circuit::{NetRole, NetworkBuilder};
use xtalk_core::{MetricOne, MetricTwo, NoiseAnalyzer};
use xtalk_linalg::LdlFactors;

/// Delegates to the system allocator, counting every alloc/realloc.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure delegation to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn coupled_pair() -> (xtalk_circuit::Network, xtalk_circuit::NetId) {
    let mut b = NetworkBuilder::new();
    let v = b.add_net("victim", NetRole::Victim);
    let a = b.add_net("agg", NetRole::Aggressor);
    let v0 = b.add_node(v, "v0");
    let v1 = b.add_node(v, "v1");
    let a0 = b.add_node(a, "a0");
    b.add_driver(v, v0, 250.0).expect("driver");
    b.add_driver(a, a0, 120.0).expect("driver");
    b.add_resistor(v0, v1, 80.0).expect("resistor");
    b.add_ground_cap(v0, 3e-15).expect("cap");
    b.add_ground_cap(v1, 6e-15).expect("cap");
    b.add_sink(v1, 10e-15).expect("sink");
    b.add_sink(a0, 8e-15).expect("sink");
    b.add_coupling_cap(a0, v1, 30e-15).expect("coupling");
    (b.build().expect("network builds"), a)
}

/// Runs `body` in up to two measured windows and asserts at least one is
/// allocation-free. A per-iteration allocation shows up in every window;
/// one-shot lazy inits that slipped past the warm-up (runtime/libstd
/// internals, not the code under test) only dirty the first.
fn assert_steady_state_alloc_free(label: &str, mut body: impl FnMut()) {
    let mut deltas = [0usize; 2];
    for delta in &mut deltas {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        body();
        *delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
        if *delta == 0 {
            return;
        }
    }
    panic!(
        "{label} allocated {}/{} time(s) over two measured windows",
        deltas[0], deltas[1]
    );
}

/// A 32-node RC-chain-like SPD matrix with one off-tree coupling entry.
fn spd_chain_with_coupling(n: usize) -> xtalk_linalg::sparse::Csr {
    let mut t = xtalk_linalg::sparse::Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, 3.0 + 0.01 * i as f64);
    }
    for i in 0..n - 1 {
        t.push(i, i + 1, -1.0);
        t.push(i + 1, i, -1.0);
    }
    t.push(1, n - 2, -0.25);
    t.push(n - 2, 1, -0.25);
    t.to_csr()
}

#[test]
fn metric_formulas_do_not_allocate() {
    let (network, aggressor) = coupled_pair();
    let analyzer = NoiseAnalyzer::new(&network).expect("analyzer builds");
    let input = InputSignal::rising_ramp(0.0, 100e-12);
    let moments = analyzer
        .output_moments(aggressor, &input)
        .expect("moments exist");
    let t_r = input.effective_rise_time();
    let metric_two = MetricTwo::default();
    // Observability must stay off for this test's guarantee to hold; the
    // probes below then exercise the disabled fast path.
    assert!(!xtalk_obs::metrics_enabled());

    // Warm-up: fault in any lazily allocated statics (panic machinery,
    // fmt buffers) before counting starts.
    for _ in 0..16 {
        black_box(MetricOne::estimate_auto(black_box(&moments), black_box(t_r)))
            .expect("metric I evaluates");
        black_box(metric_two.estimate_auto(black_box(&moments), black_box(t_r)))
            .expect("metric II evaluates");
        black_box(MetricOne::bounds(black_box(&moments))).expect("bounds evaluate");
    }

    assert_steady_state_alloc_free("metric formula hot paths (10k iterations)", || {
        for i in 0..10_000u64 {
            black_box(MetricOne::estimate_auto(black_box(&moments), black_box(t_r)))
                .expect("metric I evaluates");
            black_box(metric_two.estimate_auto(black_box(&moments), black_box(t_r)))
                .expect("metric II evaluates");
            black_box(MetricOne::bounds(black_box(&moments))).expect("bounds evaluate");
            // Disabled observability probes: must be inert no-ops.
            xtalk_obs::counter!("alloc_free.test.counter").add(black_box(1));
            xtalk_obs::histogram!("alloc_free.test.hist").record(black_box(i));
            drop(xtalk_obs::span!("alloc_free.test.stage"));
        }
    });

    // Solver kernels: in-place value rewrite → solve into preallocated
    // buffers (the march's per-step call); all warm-up allocations
    // happen here, before the measured windows.
    const N: usize = 32;
    let mut a = spd_chain_with_coupling(N);
    let symbolic = xtalk_linalg::LdlSymbolic::analyze(&a).expect("pattern analyzes");
    let factors = symbolic.factor(&a).expect("matrix factors");
    let b: Vec<f64> = (0..N).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut x = vec![0.0; N];
    let mut scratch = vec![0.0; N];
    for _ in 0..16 {
        for v in a.values_mut() {
            *v *= 1.000_000_1;
        }
        factors
            .solve_into(&b, &mut x, &mut scratch)
            .expect("solve succeeds");
    }

    assert_steady_state_alloc_free("value rewrite + LDL solve (2k iterations)", || {
        for _ in 0..2_000u32 {
            for v in a.values_mut() {
                *v *= black_box(1.000_000_1);
            }
            factors
                .solve_into(black_box(&b), &mut x, &mut scratch)
                .expect("solve succeeds");
            black_box(&x);
        }
    });

    // Adaptive stepping's pair kernels on two factors of one analysis
    // (the trapezoidal and backward-Euler systems of a level).
    let pattern = symbolic.pattern();
    let trap_vals = a.values().to_vec();
    let be_vals: Vec<f64> = trap_vals.iter().map(|v| v * 1.5).collect();
    let trap = symbolic.factor_values(&trap_vals).expect("matrix factors");
    let be = symbolic.factor_values(&be_vals).expect("matrix factors");
    let mut bufs: [Vec<f64>; 6] = std::array::from_fn(|_| vec![0.0; N]);
    let pair_step = |bufs: &mut [Vec<f64>; 6]| {
        let [rhs_trap, rhs_be, x_trap, x_be, s_trap, s_be] = bufs;
        pattern
            .mul_vec_pair_into((&trap_vals, &be_vals), black_box(&b), (rhs_trap, rhs_be))
            .expect("pair product succeeds");
        trap.solve_pair_into(&be, (rhs_trap, rhs_be), (x_trap, x_be), (s_trap, s_be))
            .expect("pair solve succeeds");
        black_box(&x_trap);
    };
    for _ in 0..16 {
        pair_step(&mut bufs);
    }
    assert_steady_state_alloc_free("pair product + pair solve (2k iterations)", || {
        for _ in 0..2_000u32 {
            pair_step(&mut bufs);
        }
    });

    // The batched march's lane kernels: four lanes of one analysis, each
    // lane's level loaded into the interleaved values on a level change,
    // then the pair product and pair solve of all four lanes in one pass.
    const LANES: usize = 4;
    let lane_vals: Vec<Vec<f64>> = (0..LANES)
        .map(|l| {
            trap_vals
                .iter()
                .map(|v| v * (1.0 + 0.1 * l as f64))
                .collect()
        })
        .collect();
    let lane_factors: Vec<_> = lane_vals
        .iter()
        .map(|v| symbolic.factor_values(v).expect("matrix factors"))
        .collect();
    let mut trap_lanes = LdlFactors::<LANES>::lanes(&symbolic);
    let mut be_lanes = LdlFactors::<LANES>::lanes(&symbolic);
    let mut trap_step = vec![[0.0; LANES]; pattern.nnz()];
    let mut be_step = vec![[0.0; LANES]; pattern.nnz()];
    let v: Vec<[f64; LANES]> = (0..N).map(|i| [(i as f64 * 0.21).cos(); LANES]).collect();
    let mut wide: [Vec<[f64; LANES]>; 6] = std::array::from_fn(|_| vec![[0.0; LANES]; N]);
    let mut lane_step = |k: usize, wide: &mut [Vec<[f64; LANES]>; 6]| {
        let l = k % LANES;
        for (dst, src) in trap_step.iter_mut().zip(&lane_vals[l]) {
            dst[l] = *src;
        }
        for (dst, src) in be_step.iter_mut().zip(&trap_vals) {
            dst[l] = *src;
        }
        trap_lanes
            .set_lane(l, &lane_factors[l])
            .expect("one analysis");
        be_lanes.set_lane(l, &be).expect("one analysis");
        let [rhs, rhs_alt, x_next, x_alt, s, s_alt] = wide;
        pattern
            .mul_vec_pair_into((&trap_step, &be_step), black_box(&v), (rhs, rhs_alt))
            .expect("lane pair product succeeds");
        trap_lanes
            .solve_pair_into(&be_lanes, (rhs, rhs_alt), (x_next, x_alt), (s, s_alt))
            .expect("lane pair solve succeeds");
        black_box(&x_next);
    };
    for k in 0..16 {
        lane_step(k, &mut wide);
    }
    assert_steady_state_alloc_free("lane loads + lane pair kernels (2k iterations)", || {
        for k in 0..2_000usize {
            lane_step(k, &mut wide);
        }
    });
}
