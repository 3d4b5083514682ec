//! `screen_pex`: full-chip screening of a jittered 2048-net PEX deck.
//!
//! Timed unit: `screen_deck` from in-memory deck bytes to the ranked
//! report, escalation on. The traced run replays the same pipeline one
//! public call at a time (stream → partition → per net: materialize →
//! validate → factor → metric chain per aggressor → superpose → golden
//! escalation) and screens a quarter-size deck for the size exponent.

use crate::trace::Tracer;
use crate::util::{median, peak_rss_bytes, quantile, sorted, Outcome, Rng};
use crate::{Args, FAST_TIER, SIM_MODE};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use xtalk_circuit::cluster::CouplingClusters;
use xtalk_circuit::spice::stream::{DeckIndex, StreamOptions};
use xtalk_core::superpose::{worst_case, TimingWindow};
use xtalk_core::{FallbackPolicy, RobustAnalyzer, Rung};
use xtalk_eval::screen::{screen_deck, ScreenConfig, ScreenReport};
use xtalk_exec::Jobs;
use xtalk_sim::{golden_noise_tiered, GoldenOpts, GoldenTier, SimWorkspace};
use xtalk_tech::{PexDeckSpec, Technology};

/// 128 buses × 16 bits = 2048 nets.
const BUSES: usize = 128;
const BITS: usize = 16;
const SEGMENTS: usize = 4;
/// Per-bus R, C and coupling values vary by up to ±4 %.
const JITTER: f64 = 0.04;
const MIN_PASSES: usize = 3;

/// The seeded deck: `PexDeckSpec` buses × 16 bits × 4 segments with
/// folded `+` cards and a weak lane every 16th, each bus's resistances,
/// ground capacitances and coupling capacitances scaled by its own
/// seeded factor.
pub fn deck(buses: usize, seed: u64) -> String {
    let mut spec = PexDeckSpec::new(buses, BITS, SEGMENTS);
    spec.fold_cards = true;
    let plain = spec.deck_string(&Technology::p25());
    let mut rng = Rng::new(seed);
    let factors: Vec<[f64; 3]> = (0..buses)
        .map(|_| [rng.jitter(JITTER), rng.jitter(JITTER), rng.jitter(JITTER)])
        .collect();
    let mut out = String::with_capacity(plain.len() + plain.len() / 4);
    // A folded coupling card carries its value on the `+` line.
    let mut folded_factor = 1.0;
    for line in plain.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let kind = match line.as_bytes().first() {
            Some(b'R') => 0,
            Some(b'C') if line.starts_with("CC") => 2,
            Some(b'C') => 1,
            Some(b'+') => 3,
            _ => {
                out.push_str(line);
                out.push('\n');
                continue;
            }
        };
        let bus = tokens.iter().find_map(|t| bus_of(t));
        let factor = match (kind, bus) {
            (3, _) => folded_factor,
            (k, Some(b)) => factors[b][k],
            (_, None) => 1.0,
        };
        if kind == 2 && tokens.len() == 2 {
            folded_factor = factor;
            out.push_str(line);
            out.push('\n');
            continue;
        }
        let (last, head) = tokens.split_last().expect("element cards have tokens");
        let value: f64 = last.parse().expect("generated values are plain numbers");
        out.push_str(&head.join(" "));
        out.push_str(&format!(" {:e}\n", value * factor));
    }
    out
}

/// Bus index of a node named `b<bus>_l<bit>_<segment>`.
fn bus_of(token: &str) -> Option<usize> {
    let rest = token.strip_prefix('b')?;
    let (bus, tail) = rest.split_once('_')?;
    tail.starts_with('l').then(|| bus.parse().ok()).flatten()
}

fn screen_config(jobs: usize) -> ScreenConfig {
    ScreenConfig {
        jobs: Jobs::Count(jobs),
        ..ScreenConfig::default()
    }
}

fn timed_screen(deck: &str, config: &ScreenConfig) -> (Result<ScreenReport, String>, Duration) {
    let start = Instant::now();
    let report = screen_deck(deck.as_bytes(), config).map_err(|e| e.to_string());
    (report, start.elapsed())
}

/// Accuracy of escalated nets against their golden peaks:
/// `(mean |vp − golden| / golden in %, nets below golden, nets compared)`.
fn escalation_accuracy(report: &ScreenReport) -> (f64, usize, usize) {
    let pairs: Vec<(f64, f64)> = report
        .nets
        .iter()
        .filter_map(|n| n.golden_vp.filter(|g| *g > 0.0).map(|g| (n.vp, g)))
        .collect();
    let err = pairs.iter().map(|(vp, g)| (vp - g).abs() / g).sum::<f64>() * 100.0
        / pairs.len().max(1) as f64;
    let below = pairs.iter().filter(|(vp, g)| vp < g).count();
    (err, below, pairs.len())
}

fn check_report(out: &mut Outcome, report: &ScreenReport, nets: usize) {
    out.check(
        report.nets_total == nets && report.nets.len() == nets,
        || format!("screen saw {} nets, expected {nets}", report.nets_total),
    );
    out.check(
        report.screened + report.escalated + report.failed == report.nets_total,
        || "screen accounting does not balance".into(),
    );
    out.check(report.clusters == nets / BITS, || {
        format!("{} islands, expected one per bus", report.clusters)
    });
    out.check(report.escalated > 0, || "no weak lane escalated".into());
    let unranked = report.nets.windows(2).any(|w| w[0].ratio < w[1].ratio);
    out.check(!unranked, || "screen report is not ranked".into());
}

/// Set-up, timed cold in a fresh process: the first `screen_deck` call,
/// on a one-bus deck (the same for every seed), so that worker start-up,
/// workspaces and first-touch allocation show without the deck's size.
pub fn setup(jobs: usize) -> f64 {
    let one_bus = deck(1, 0);
    let (report, wall) = timed_screen(&one_bus, &screen_config(jobs));
    black_box(report.ok());
    wall.as_secs_f64()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let nets = BUSES * BITS;
    let deck = deck(BUSES, args.seed);
    let config = screen_config(args.jobs);

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut reference: Option<(ScreenReport, String)> = None;
    while walls.len() < MIN_PASSES || start.elapsed() < budget {
        let (report, wall) = timed_screen(&deck, &config);
        walls.push(wall.as_secs_f64());
        out.attempted += nets as u64;
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.failed += nets as u64;
                out.errors.push(format!("screen failed: {e}"));
                break;
            }
        };
        out.failed += report.failed as u64;
        let json = report.to_json();
        match &reference {
            None => reference = Some((report, json)),
            Some((_, first)) => out.check(*first == json, || "screen passes disagree".into()),
        }
    }
    let Some((report, json)) = reference else {
        return out;
    };
    check_report(&mut out, &report, nets);
    // Determinism across worker counts, outside the timed region.
    match timed_screen(&deck, &screen_config(1)).0 {
        Ok(serial) => out.check(serial.to_json() == json, || {
            format!("ranked JSON differs between jobs 1 and jobs {}", args.jobs)
        }),
        Err(e) => out.errors.push(format!("jobs-1 screen failed: {e}")),
    }

    let walls = sorted(walls);
    let wall = median(&walls);
    let (err_pct, below, compared) = escalation_accuracy(&report);
    out.check(compared > 0, || "no escalated net has a golden peak".into());
    out.metric("ops_per_s", nets as f64 / wall, "1/s");
    out.metric("lat_p50_us", wall * 1e6, "us");
    out.note(format!("lat_p99_us = {} us", quantile(&walls, 0.99) * 1e6));
    out.metric("peak_rss_bytes", peak_rss_bytes(), "bytes");
    out.metric("vp_err_mean_pct", err_pct, "%");
    out.note(format!("alias nets_per_s = {} 1/s", nets as f64 / wall));
    out.note(format!(
        "screen: {nets} nets, {} islands, {} screened, {} escalated, {} failed; {} passes",
        report.clusters,
        report.screened,
        report.escalated,
        report.failed,
        walls.len()
    ));
    out.note(format!(
        "nonconservative_nets = {below} of {compared} escalated"
    ));
    out.note(format!(
        "failed_frac = {}",
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    out
}

/// Counts gathered during the traced replay.
#[derive(Default)]
struct ReplayCounts {
    island_nodes: u64,
    dense_bytes: f64,
    chains: u64,
    metric2: u64,
    clamped: u64,
    analytic: u64,
    golden: u64,
    escalated: u64,
    below_golden: u64,
}

/// Screens every net one public call at a time, at one worker. Returns
/// each net's `(vp, golden vp)` by net index.
fn replay(
    t: &mut Tracer,
    deck: &str,
    config: &ScreenConfig,
    counts: &mut ReplayCounts,
) -> Result<Vec<(f64, Option<f64>)>, String> {
    let options = StreamOptions {
        limits: config.limits.clone(),
        lenient: !config.strict,
    };
    let index = t
        .span("circuit.stream", |_| {
            DeckIndex::from_reader(deck.as_bytes(), options)
        })
        .map_err(|e| e.to_string())?;
    let clusters = t.span("circuit.partition", |_| CouplingClusters::partition(&index));
    let input = config.input();
    let opts = GoldenOpts {
        mode: SIM_MODE,
        tier: FAST_TIER,
    };
    let mut ws = SimWorkspace::new();
    let mut results = Vec::with_capacity(index.net_count());
    for net in 0..index.net_count() {
        let network = t
            .span("circuit.materialize", |_| {
                clusters.victim_network(&index, net)
            })
            .map_err(|e| format!("net {net}: {e}"))?;
        let n = network.node_count() as f64;
        counts.island_nodes += network.node_count() as u64;
        black_box(t.span("circuit.validate", |_| network.validate()));
        let robust = t
            .span("moments.factor", |_| {
                RobustAnalyzer::with_policy(&network, FallbackPolicy::default())
            })
            .map_err(|e| format!("net {net}: {e}"))?;
        // G, C and the LU copy of the dense moment engine.
        counts.dense_bytes += 3.0 * 8.0 * n * n;
        let victim = network.victim();
        let mut contributions = Vec::new();
        let mut stimuli = Vec::new();
        for (agg, _) in network.nets() {
            if agg == victim || network.couplings_between(agg, victim).next().is_none() {
                continue;
            }
            stimuli.push((agg, input));
            counts.chains += 1;
            match t.span("core.chain", |_| robust.analyze(agg, &input)) {
                Ok(re) => {
                    counts.metric2 += u64::from(re.provenance.rung() == Rung::MetricTwo);
                    counts.clamped += u64::from(!re.provenance.timing_clamps().is_empty());
                    contributions.push((re.estimate, TimingWindow::pinned()));
                }
                Err(e) if e.is_no_noise() => {}
                Err(e) => return Err(format!("net {net}: {e}")),
            }
        }
        let vp = if contributions.is_empty() {
            0.0
        } else {
            t.span("core.superpose", |_| worst_case(&contributions)).vp
        };
        let escalated = !contributions.is_empty() && vp / config.threshold >= config.escalate_ratio;
        let golden = if escalated {
            counts.escalated += 1;
            counts.golden += 1;
            let measured = t.span("sim.golden", |_| {
                golden_noise_tiered(&network, &stimuli, network.victim_output(), &mut ws, &opts)
            });
            measured.ok().map(|(params, tier)| {
                counts.analytic += u64::from(tier == GoldenTier::Analytic);
                counts.below_golden += u64::from(vp < params.vp);
                params.vp
            })
        } else {
            None
        };
        results.push((vp, golden));
    }
    // Rank worst-first, ties by index, as the report does.
    t.span("eval.report", |_| {
        let mut order: Vec<usize> = (0..results.len()).collect();
        order.sort_by(|&a, &b| results[b].0.total_cmp(&results[a].0).then(a.cmp(&b)));
        black_box(order);
    });
    Ok(results)
}

pub fn trace(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let nets = BUSES * BITS;
    let deck = deck(BUSES, args.seed);
    let quarter = self::deck(BUSES / 4, args.seed);

    // Untraced reference walls after one warm-up screen: jobs 1, jobs N,
    // and the quarter deck.
    let _ = timed_screen(&quarter, &screen_config(args.jobs));
    let (serial, t1) = timed_screen(&deck, &screen_config(1));
    let (_, tn) = timed_screen(&deck, &screen_config(args.jobs));
    let (_, t512) = timed_screen(&quarter, &screen_config(1));
    let serial = match serial {
        Ok(r) => r,
        Err(e) => {
            out.errors.push(format!("screen failed: {e}"));
            return out;
        }
    };
    check_report(&mut out, &serial, nets);
    out.attempted = nets as u64;

    let mut tracer = Tracer::new();
    let mut counts = ReplayCounts::default();
    let replayed = tracer.run(|t| replay(t, &deck, &screen_config(1), &mut counts));
    let mismatched = match replayed {
        Ok(results) => {
            let by_index: HashMap<usize, (f64, Option<f64>)> = serial
                .nets
                .iter()
                .map(|n| (n.index, (n.vp, n.golden_vp)))
                .collect();
            results
                .iter()
                .enumerate()
                .filter(|(i, (vp, golden))| {
                    by_index.get(i).is_none_or(|(rvp, rgolden)| {
                        rvp.to_bits() != vp.to_bits()
                            || rgolden.map(f64::to_bits) != golden.map(f64::to_bits)
                    })
                })
                .count()
        }
        Err(e) => {
            out.failed = 1;
            out.note(format!("traced replay stopped: {e}"));
            nets
        }
    };
    tracer.finish(&mut out, t1.as_secs_f64(), mismatched, args);

    let chains = counts.chains.max(1) as f64;
    out.metric("circuit.island_nodes", counts.island_nodes as f64, "count");
    out.metric("moments.dense_bytes", counts.dense_bytes, "bytes");
    out.metric("core.metric2_frac", counts.metric2 as f64 / chains, "ratio");
    out.metric("core.clamp_frac", counts.clamped as f64 / chains, "ratio");
    out.metric(
        "sim.analytic_frac",
        counts.analytic as f64 / counts.golden.max(1) as f64,
        "ratio",
    );
    out.metric(
        "exec.parallel_eff",
        t1.as_secs_f64() / (args.jobs as f64 * tn.as_secs_f64()),
        "ratio",
    );
    out.metric(
        "screen.escalated_frac",
        counts.escalated as f64 / nets as f64,
        "ratio",
    );
    out.metric(
        "screen.size_exponent",
        (t1.as_secs_f64() / t512.as_secs_f64()).ln() / 4f64.ln(),
        "ratio",
    );
    out.metric(
        "screen.nonconservative_nets",
        counts.below_golden as f64,
        "count",
    );
    out.note(format!(
        "untraced walls: jobs 1 {:.4} s, jobs {} {:.4} s, 512 nets jobs 1 {:.4} s",
        t1.as_secs_f64(),
        args.jobs,
        tn.as_secs_f64(),
        t512.as_secs_f64()
    ));
    out
}
