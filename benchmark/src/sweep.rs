//! `sweep_fig4`: the seeded paper sweep (Tables 1–3).
//!
//! One pass runs, per family (two-pin far-end, two-pin near-end, coupled
//! trees; 20 % corners): seeded case generation, the serial
//! `RobustAnalyzer` degradation scan, golden evaluation of every case and
//! the rendered table. The traced run replays the same pass one public
//! call at a time and renders the tables again from its own results.

use crate::trace::Tracer;
use crate::util::{median, peak_rss_bytes, quantile, sorted, Outcome};
use crate::{Args, FAST_TIER, SIM_MODE};
use std::hint::black_box;
use std::time::{Duration, Instant};
use xtalk_core::baselines::{
    devgan, lumped_pi, vittal, yu_one_pole, yu_two_pole, BaselineEstimate,
};
use xtalk_core::{
    MetricKind, MomentBatch, NoiseAnalyzer, NoiseEstimate, OutputMoments, RobustAnalyzer,
};
use xtalk_eval::{evaluate_run_jobs, render_table, CaseOutcome, Method, Param, TableStats};
use xtalk_exec::Jobs;
use xtalk_moments::{tree, TwoPoleFit};
use xtalk_sim::{golden_noise_tiered, GoldenOpts, NoiseWaveformParams, SimWorkspace};
use xtalk_tech::sweep::{tree_cases_jobs, two_pin_cases_jobs, SweepCase, SweepConfig, SweepRun};
use xtalk_tech::{CouplingDirection, Technology};

/// Cases per family and pass. Per-case cost varies with the drawn
/// geometry; 400 cases keep the pass cost of one sweep seed within a few
/// percent of another's.
const CASES: usize = 400;
const CORNERS: f64 = 0.2;
const MIN_PASSES: usize = 5;
/// Skip reason the evaluation uses for pulses too small to score; such
/// cases are filtered by design, not failed.
const NEGLIGIBLE: &str = "negligible pulse";

#[derive(Clone, Copy)]
enum Family {
    Far,
    Near,
    Tree,
}

const FAMILIES: [Family; 3] = [Family::Far, Family::Near, Family::Tree];

impl Family {
    fn title(self, config: &SweepConfig) -> String {
        let regime = match self {
            Family::Far => "two-pin, far-end coupling",
            Family::Near => "two-pin, near-end coupling",
            Family::Tree => "coupled RC trees, far-end",
        };
        format!(
            "Sweep: {regime} ({} cases, seed {})",
            config.cases, config.seed
        )
    }

    fn generate(self, config: &SweepConfig, jobs: usize) -> SweepRun {
        let tech = Technology::p25();
        let jobs = Jobs::Count(jobs);
        match self {
            Family::Far => two_pin_cases_jobs(&tech, CouplingDirection::FarEnd, config, jobs),
            Family::Near => two_pin_cases_jobs(&tech, CouplingDirection::NearEnd, config, jobs),
            Family::Tree => tree_cases_jobs(&tech, true, config, jobs),
        }
    }
}

/// Sweep seeds whose three families all generate at 1, 100, 256 and 400
/// cases per family (the counts the workloads use). Sweep seed 6 is left
/// out: one of its trees trips `TreeSpec::build`'s "coupling window
/// outside the trunk" assertion. A seed that stops generating later
/// fails the run instead of being skipped.
const SWEEP_SEEDS: [u64; 16] = [1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17];

/// The sweep configuration for `--seed seed`: 20 % corners and the sweep
/// seed `SWEEP_SEEDS[seed % 16]`, so the inputs depend on the seed alone.
pub fn sweep_config(seed: u64, cases: usize) -> SweepConfig {
    SweepConfig {
        cases,
        seed: SWEEP_SEEDS[(seed % SWEEP_SEEDS.len() as u64) as usize],
        corner_fraction: CORNERS,
    }
}

/// What one pass produced.
#[derive(Default)]
struct Pass {
    tables: String,
    cases: usize,
    failures: usize,
    vp_abs_err_sum: f64,
    vp_scored: usize,
}

impl Pass {
    fn add_table(&mut self, title: &str, stats: &TableStats, scan: (usize, usize, usize)) {
        self.tables.push_str(&render_table(title, stats));
        self.tables.push_str(&format!(
            "  degradation scan: {} analyzed, {} fallback(s), {} error(s)\n",
            scan.0, scan.1, scan.2
        ));
        self.failures += scan.2 + stats.generation_failures().len();
        self.failures += stats
            .skip_reasons()
            .filter(|(reason, _)| !reason.starts_with(NEGLIGIBLE))
            .map(|(_, n)| n)
            .sum::<usize>();
        if let Some(cell) = stats.cell(Method::NewTwo, Param::Vp) {
            self.vp_abs_err_sum += cell.avg_abs() * cell.count() as f64;
            self.vp_scored += cell.count();
        }
    }
}

/// The serial degradation scan: `(analyzed, fallbacks, errors)`.
fn degradation_scan(cases: &[SweepCase]) -> (usize, usize, usize) {
    let mut fallbacks = 0;
    let mut errors = 0;
    for case in cases {
        match RobustAnalyzer::new(&case.network).map(|a| a.analyze(case.aggressor, &case.input)) {
            Ok(Ok(estimate)) => fallbacks += usize::from(estimate.provenance.degraded()),
            _ => errors += 1,
        }
    }
    (cases.len(), fallbacks, errors)
}

fn pass(config: &SweepConfig, jobs: usize) -> Pass {
    let mut out = Pass::default();
    for family in FAMILIES {
        let run = family.generate(config, jobs);
        out.cases += config.cases;
        let scan = degradation_scan(&run.cases);
        let stats = evaluate_run_jobs(&run, false, Jobs::Count(jobs));
        out.add_table(&family.title(config), &stats, scan);
    }
    out
}

/// Set-up, timed cold in a fresh process: the first pass, over one case
/// per family (the same for every seed).
pub fn setup(jobs: usize) -> f64 {
    let one_case = sweep_config(0, 1);
    let start = Instant::now();
    black_box(pass(&one_case, jobs).tables);
    start.elapsed().as_secs_f64()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let config = sweep_config(args.seed, CASES);

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut reference: Option<Pass> = None;
    while walls.len() < MIN_PASSES || start.elapsed() < budget {
        let t = Instant::now();
        let p = pass(&config, args.jobs);
        walls.push(t.elapsed().as_secs_f64());
        out.attempted += p.cases as u64;
        out.failed += p.failures as u64;
        match &reference {
            None => reference = Some(p),
            Some(first) => out.check(first.tables == p.tables, || "sweep passes disagree".into()),
        }
    }
    let reference = reference.expect("at least one pass ran");
    let serial = pass(&config, 1);
    out.check(serial.tables == reference.tables, || {
        format!("tables differ between jobs 1 and jobs {}", args.jobs)
    });
    out.check(reference.vp_scored > 0, || "no case was scored".into());

    let walls = sorted(walls);
    let wall = median(&walls);
    let err_pct = reference.vp_abs_err_sum / reference.vp_scored.max(1) as f64;
    out.metric("ops_per_s", reference.cases as f64 / wall, "1/s");
    out.metric("lat_p50_us", wall * 1e6, "us");
    out.note(format!("lat_p99_us = {} us", quantile(&walls, 0.99) * 1e6));
    out.metric("peak_rss_bytes", peak_rss_bytes(), "bytes");
    out.metric("vp_err_mean_pct", err_pct, "%");
    out.note(format!(
        "alias cases_per_s = {} 1/s",
        reference.cases as f64 / wall
    ));
    out.note(format!(
        "sweep: {} cases per pass ({} scored for Vp), {} passes",
        reference.cases,
        reference.vp_scored,
        walls.len()
    ));
    out.note(format!(
        "failed_frac = {}",
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    out.note(reference.tables.trim_end().to_string());
    out
}

fn full(e: NoiseEstimate) -> BaselineEstimate {
    BaselineEstimate {
        vp: Some(e.vp),
        tp: Some(e.tp),
        wn: Some(e.wn),
        t1: Some(e.t1),
        t2: Some(e.t2),
    }
}

/// A case after golden measurement, moments and baselines, waiting for
/// the batched metric stage.
struct Prepared {
    golden: NoiseWaveformParams,
    baselines: [Option<BaselineEstimate>; 4],
    lumped_vp: Option<f64>,
    moments: OutputMoments,
    t_r: f64,
}

#[derive(Default)]
struct ReplayCounts {
    chains: u64,
    metric2: u64,
    clamped: u64,
    golden: u64,
    analytic: u64,
}

fn prepare(
    t: &mut Tracer,
    case: &SweepCase,
    ws: &mut SimWorkspace,
    counts: &mut ReplayCounts,
) -> Result<Prepared, String> {
    let (net, agg, input) = (&case.network, case.aggressor, &case.input);
    let opts = GoldenOpts {
        mode: SIM_MODE,
        tier: FAST_TIER,
    };
    counts.golden += 1;
    let (golden, tier) = t
        .span("sim.golden", |_| {
            golden_noise_tiered(net, &[(agg, *input)], net.victim_output(), ws, &opts)
        })
        .map_err(|e| format!("golden measurement: {e}"))?;
    counts.analytic += u64::from(tier == xtalk_sim::GoldenTier::Analytic);
    if golden.vp < 5e-3 {
        return Err(format!("{NEGLIGIBLE} ({:.1e} Vdd)", golden.vp));
    }
    let analyzer = t
        .span("moments.factor", |_| NoiseAnalyzer::new(net))
        .map_err(|e| format!("analyzer: {e}"))?;
    let (h, b1, moments) = t.span("moments.solve", |_| {
        let h = analyzer
            .transfer_taylor(agg)
            .map_err(|e| format!("moments: {e}"))?;
        let b1 = tree::open_circuit_b1(net);
        let moments =
            OutputMoments::from_transfer(&h, input).map_err(|e| format!("new metric I: {e}"))?;
        Ok::<_, String>((h, b1, moments))
    })?;
    let (baselines, lumped_vp) = t.span("core.baselines", |_| {
        let yu1 = yu_one_pole(&h, input).ok();
        let yu2 = TwoPoleFit::from_taylor(&h)
            .ok()
            .and_then(|fit| yu_two_pole(&fit, input).ok());
        let dev = devgan(h[1], input).ok();
        let vit = Some(vittal(h[1], b1, input));
        (
            [yu1, yu2, dev, vit],
            lumped_pi(net, agg, input).ok().and_then(|e| e.vp),
        )
    });
    Ok(Prepared {
        golden,
        baselines,
        lumped_vp,
        moments,
        t_r: input.effective_rise_time(),
    })
}

/// Replays one family: generation, degradation scan, per-case golden
/// and moments, the batched metrics and the table.
fn replay_family(
    t: &mut Tracer,
    family: Family,
    config: &SweepConfig,
    counts: &mut ReplayCounts,
    out: &mut Pass,
) {
    let run = t.span("tech.generate", |_| family.generate(config, 1));
    out.cases += config.cases;
    let mut fallbacks = 0;
    let mut errors = 0;
    for case in &run.cases {
        let Ok(robust) = t.span("moments.factor", |_| RobustAnalyzer::new(&case.network)) else {
            errors += 1;
            continue;
        };
        counts.chains += 1;
        match t.span("core.chain", |_| {
            robust.analyze(case.aggressor, &case.input)
        }) {
            Ok(re) => {
                fallbacks += usize::from(re.provenance.degraded());
                counts.metric2 += u64::from(re.provenance.rung() == xtalk_core::Rung::MetricTwo);
                counts.clamped += u64::from(!re.provenance.timing_clamps().is_empty());
            }
            Err(_) => errors += 1,
        }
    }
    let mut ws = SimWorkspace::new();
    let prepared: Vec<Result<Prepared, String>> = run
        .cases
        .iter()
        .map(|case| prepare(t, case, &mut ws, counts))
        .collect();
    let (one, two) = t.span("core.batch", |_| {
        let mut batch = MomentBatch::with_capacity(prepared.len());
        for p in prepared.iter().flatten() {
            batch.push(&p.moments, p.t_r);
        }
        (
            batch.estimates(MetricKind::One),
            batch.estimates(MetricKind::Two),
        )
    });
    t.span("eval.report", |_| {
        let mut stats = TableStats::new();
        let mut lane = 0usize;
        for p in prepared {
            let outcome = p.and_then(|p| {
                let i = lane;
                lane += 1;
                let new_one = one
                    .result(i)
                    .map(full)
                    .map_err(|e| format!("new metric I: {e}"))?;
                let new_two = two
                    .result(i)
                    .map(full)
                    .map_err(|e| format!("new metric II: {e}"))?;
                let [yu1, yu2, dev, vit] = p.baselines;
                Ok(CaseOutcome {
                    golden: p.golden,
                    estimates: [yu1, yu2, dev, vit, Some(new_one), Some(new_two)],
                    lumped_vp: p.lumped_vp,
                })
            });
            match outcome {
                Ok(o) => stats.record(&o),
                Err(reason) => stats.record_skip(&reason),
            }
        }
        for failure in &run.failures {
            stats.record_generation_failure(&failure.to_string());
        }
        out.add_table(
            &family.title(config),
            &stats,
            (run.cases.len(), fallbacks, errors),
        );
    });
}

pub fn trace(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let config = sweep_config(args.seed, CASES);
    let time_pass = |jobs| {
        let start = Instant::now();
        let p = pass(&config, jobs);
        (p, start.elapsed().as_secs_f64())
    };
    black_box(pass(&sweep_config(args.seed, CASES / 4), args.jobs));
    let (serial, t1) = time_pass(1);
    let (_, tn) = time_pass(args.jobs);
    out.attempted = serial.cases as u64;
    out.failed = serial.failures as u64;

    let mut tracer = Tracer::new();
    let mut counts = ReplayCounts::default();
    let mut replayed = Pass::default();
    tracer.run(|t| {
        for family in FAMILIES {
            replay_family(t, family, &config, &mut counts, &mut replayed);
        }
    });
    let mismatched = serial
        .tables
        .lines()
        .zip(replayed.tables.lines())
        .filter(|(a, b)| a != b)
        .count()
        + serial
            .tables
            .lines()
            .count()
            .abs_diff(replayed.tables.lines().count());
    tracer.finish(&mut out, t1, mismatched, args);

    let chains = counts.chains.max(1) as f64;
    out.metric("core.metric2_frac", counts.metric2 as f64 / chains, "ratio");
    out.metric("core.clamp_frac", counts.clamped as f64 / chains, "ratio");
    out.metric(
        "sim.analytic_frac",
        counts.analytic as f64 / counts.golden.max(1) as f64,
        "ratio",
    );
    out.metric("exec.parallel_eff", t1 / (args.jobs as f64 * tn), "ratio");
    out.note(format!(
        "untraced walls: jobs 1 {t1:.4} s, jobs {} {tn:.4} s",
        args.jobs
    ));
    out
}
