//! The headline cost claim: the closed-form metrics are cheap enough for
//! optimization inner loops.
//!
//! Times the three stages separately on the same reference circuit:
//!
//! 1. `metric_formulas` — eqs. (30)–(36)/(48)–(53) alone, from
//!    precomputed moments (what a router's inner loop re-evaluates after
//!    an incremental moment update): tens of nanoseconds;
//! 2. `moments_plus_metric` — the full analysis including the tree moment
//!    solve: microseconds;
//! 3. `transient_simulation` — the golden simulation the metrics replace:
//!    milliseconds.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use xtalk_bench::reference_two_pin;
use xtalk_core::{MetricKind, MetricOne, MetricTwo, NoiseAnalyzer};
use xtalk_sim::{SimOptions, TransientSim};

fn bench_throughput(c: &mut Criterion) {
    let (network, aggressor, input) = reference_two_pin();
    let analyzer = NoiseAnalyzer::new(&network).expect("analyzer builds");
    let moments = analyzer
        .output_moments(aggressor, &input)
        .expect("moments exist");
    let tr = input.effective_rise_time();

    let mut group = c.benchmark_group("throughput");

    group.bench_function("metric_formulas/new_I", |b| {
        b.iter(|| MetricOne::estimate_auto(black_box(&moments), black_box(tr)).unwrap())
    });
    group.bench_function("metric_formulas/new_II", |b| {
        let metric = MetricTwo::default();
        b.iter(|| metric.estimate_auto(black_box(&moments), black_box(tr)).unwrap())
    });
    group.bench_function("metric_formulas/bounds", |b| {
        b.iter(|| MetricOne::bounds(black_box(&moments)).unwrap())
    });

    group.bench_function("moments_plus_metric/new_II", |b| {
        b.iter(|| {
            analyzer
                .analyze(black_box(aggressor), black_box(&input), MetricKind::Two)
                .unwrap()
        })
    });
    group.bench_function("moments_plus_metric/full_setup", |b| {
        // Including the one-off tree-engine build (per-net cost in a flow).
        b.iter(|| {
            let a = NoiseAnalyzer::new(black_box(&network)).unwrap();
            a.analyze(aggressor, &input, MetricKind::Two).unwrap()
        })
    });
    group.bench_function("moments_plus_metric/closed_form_frontend", |b| {
        // The paper's zero-solve pipeline: tree formulas a1/b1/b2 only.
        b.iter(|| {
            analyzer
                .analyze_closed_form(black_box(aggressor), black_box(&input), MetricKind::Two)
                .unwrap()
        })
    });

    // The moment solve alone, without the metric formulas.
    group.bench_function("moment_engines/tree_linear", |b| {
        let engine = xtalk_moments::TreeMomentEngine::new(&network);
        b.iter(|| {
            engine
                .transfer_taylor(black_box(aggressor), network.victim_output(), 4)
                .unwrap()
        })
    });

    // Ablation: the same analysis on a TICER-reduced network.
    let threshold = xtalk_moments::tree::open_circuit_b1(&network) * 1e-3;
    let reduced = xtalk_circuit::reduce::reduce_quick_nodes(&network, threshold)
        .expect("reduction succeeds");
    let red_agg = reduced.aggressor_nets().next().expect("aggressor").0;
    group.bench_function("moments_plus_metric/after_reduction", |b| {
        b.iter(|| {
            let a = NoiseAnalyzer::new(black_box(&reduced)).unwrap();
            a.analyze(red_agg, &input, MetricKind::Two).unwrap()
        })
    });

    group.sample_size(10);
    group.bench_function("transient_simulation/golden", |b| {
        let sim = TransientSim::new(&network).unwrap();
        let opts = SimOptions::auto(&network, &[(aggressor, input)]);
        b.iter(|| sim.run(black_box(&[(aggressor, input)]), &opts).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
