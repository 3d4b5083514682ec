//! λ-sensitivity ablation for metric II (paper §4: "the results can be
//! affected by the value of λ … when we use the default value given in
//! equation (7), we can obtain an absolute upper bound for the peak noise
//! amplitude").

use crate::ErrorStats;
use xtalk_core::{MetricTwo, NoiseAnalyzer};
use xtalk_sim::{golden_noise_tiered, GoldenOpts, SimWorkspace};
use xtalk_tech::sweep::SweepCase;

/// `Vp` error statistics of metric II at one λ over a case set.
#[derive(Debug, Clone)]
pub struct LambdaRow {
    /// The shape factor evaluated.
    pub lambda: f64,
    /// Error statistics vs. golden simulation.
    pub stats: ErrorStats,
    /// `true` when the worst negative error stays above −5% (the paper's
    /// conservatism tolerance).
    pub conservative: bool,
}

/// Evaluates metric II at each λ over `cases`, returning one row per λ.
///
/// The golden peaks come from the tiered golden under the process-wide
/// `--sim` / `--fast-tier` policy ([`GoldenOpts::from_globals`]). Cases
/// whose golden pulse cannot be measured are skipped uniformly.
pub fn lambda_sweep(cases: &[SweepCase], lambdas: &[f64]) -> Vec<LambdaRow> {
    // Pre-compute golden + moments once per case.
    struct Prepared {
        f: xtalk_core::OutputMoments,
        tr: f64,
        golden_vp: f64,
    }
    let gopts = GoldenOpts::from_globals();
    let mut workspace = SimWorkspace::new();
    let mut prepared = Vec::new();
    for case in cases {
        let Ok(analyzer) = NoiseAnalyzer::new(&case.network) else {
            continue;
        };
        let Ok(f) = analyzer.output_moments(case.aggressor, &case.input) else {
            continue;
        };
        let stimuli = [(case.aggressor, case.input)];
        let output = case.network.victim_output();
        let Ok((golden, _)) =
            golden_noise_tiered(&case.network, &stimuli, output, &mut workspace, &gopts)
        else {
            continue;
        };
        if golden.vp < 5e-3 {
            continue;
        }
        prepared.push(Prepared {
            f,
            tr: case.input.effective_rise_time(),
            golden_vp: golden.vp,
        });
    }

    lambdas
        .iter()
        .map(|&lambda| {
            let metric = MetricTwo::with_lambda(lambda);
            let mut stats = ErrorStats::default();
            for p in &prepared {
                if let Ok(est) = metric.estimate_auto(&p.f, p.tr) {
                    stats.record((est.vp - p.golden_vp) / p.golden_vp * 100.0);
                }
            }
            let conservative = stats.conservative_above(-5.0);
            LambdaRow {
                lambda,
                stats,
                conservative,
            }
        })
        .collect()
}

/// Renders the sweep as an aligned text table.
pub fn render_lambda(rows: &[LambdaRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "metric II λ ablation: Vp error vs golden ({} cases)",
        rows.first().map_or(0, |r| r.stats.count())
    );
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>10} {:>10} {:>14}",
        "lambda", "min err%", "max err%", "ave |%|", "conservative"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>8.3} {:>10.1} {:>10.1} {:>10.1} {:>14}",
            r.lambda,
            r.stats.max_neg(),
            r.stats.max_pos(),
            r.stats.avg_abs(),
            r.conservative
        );
    }
    out
}
