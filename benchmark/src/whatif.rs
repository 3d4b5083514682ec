//! `whatif_incr`: the `xtalk optimize` loop on seeded 64-lane Figure-4
//! clusters.
//!
//! Each session drives a `WhatIf` the way `xtalk optimize` does
//! (`crates/cli/src/optimize_cmd.rs`): take the noisiest net, trial each
//! of its candidate repairs — upsizing its driver, thinning its largest
//! incident coupling cap, each by 0.8 — as apply-then-revert, then apply
//! the one that lowers the cluster-worst peak most. A session stops after
//! [`MOVES`] accepted repairs or when no candidate improves, and its final
//! report is compared byte for byte with a fresh `WhatIf` built from the
//! edited network. The seed jitters every driver and coupling cap of the
//! cluster, so sessions start from different values and lanes do not tie.

use crate::trace::Tracer;
use crate::util::{peak_rss_bytes, quantile, sorted, Outcome, Rng};
use crate::{Args, FAST_TIER, SIM_MODE};
use std::hint::black_box;
use std::time::{Duration, Instant};
use xtalk_circuit::signal::InputSignal;
use xtalk_circuit::{Delta, NetId, Network};
use xtalk_core::memo::MemoStats;
use xtalk_exec::Jobs;
use xtalk_incr::{NoiseReport, SessionStats, WhatIf, WhatIfConfig};
use xtalk_sim::{golden_noise_tiered, GoldenOpts, SimWorkspace};
use xtalk_tech::{ClusterSpec, Technology};

const LANES: usize = 64;
/// Accepted repairs per session at most.
const MOVES: usize = 48;
/// Seeded clusters per seed; session `k` starts from cluster `k % CLUSTERS`.
const CLUSTERS: u64 = 64;
/// Every driver and coupling cap of a seeded cluster is scaled by a
/// factor in `[0.9, 1.1)`.
const JITTER: f64 = 0.1;
/// The repair steps and floors of `xtalk optimize`.
const DRIVER_SHRINK: f64 = 0.8;
const MIN_DRIVER_OHMS: f64 = 30.0;
const CAP_SHRINK: f64 = 0.8;
const MIN_COUPLING_FARADS: f64 = 1e-16;

fn session(base: Network, jobs: usize) -> Result<WhatIf, String> {
    WhatIf::new(
        base,
        WhatIfConfig {
            jobs: Jobs::Count(jobs),
            ..WhatIfConfig::default()
        },
    )
    .map_err(|e| e.to_string())
}

fn cluster() -> Network {
    ClusterSpec::figure4_family(LANES)
        .build(&Technology::p25())
        .expect("the Figure-4 cluster builds")
        .0
}

/// The Figure-4 cluster with every driver and coupling cap scaled by its
/// own seeded factor.
fn seeded_cluster(seed: u64) -> Network {
    let mut net = cluster();
    let mut rng = Rng::new(seed ^ 0xde17a);
    let drivers: Vec<(NetId, f64)> = net.nets().map(|(id, n)| (id, n.driver().ohms)).collect();
    let caps: Vec<f64> = net.coupling_caps().iter().map(|c| c.farads).collect();
    let mut deltas = Vec::with_capacity(drivers.len() + caps.len());
    for (id, ohms) in drivers {
        let ohms = ohms * rng.jitter(JITTER);
        deltas.push(Delta::ResizeDriver { net: id, ohms });
    }
    for (index, farads) in caps.into_iter().enumerate() {
        let farads = farads * rng.jitter(JITTER);
        deltas.push(Delta::SetCouplingCap { index, farads });
    }
    for delta in &deltas {
        net.apply_delta(delta).expect("jittered values stay valid");
    }
    net
}

/// A new session over `base` and its first report.
fn fresh(base: &Network, jobs: usize) -> Result<(WhatIf, NoiseReport), String> {
    let mut s = session(base.clone(), jobs)?;
    let report = s.report();
    Ok((s, report))
}

/// Set-up, timed cold in a fresh process: `WhatIf::new` plus the first
/// report on the unjittered cluster.
pub fn setup(jobs: usize) -> Result<f64, String> {
    let base = cluster();
    let start = Instant::now();
    black_box(fresh(&base, jobs)?);
    Ok(start.elapsed().as_secs_f64())
}

/// The repairs `xtalk optimize` trials for `net`: driver upsizing, then
/// thinning the largest coupling cap touching the net (table order breaks
/// ties), each only above its floor.
fn candidates(base: &Network, net: NetId) -> Vec<Delta> {
    let mut out = Vec::new();
    let upsized = base.net(net).driver().ohms * DRIVER_SHRINK;
    if upsized >= MIN_DRIVER_OHMS {
        out.push(Delta::ResizeDriver { net, ohms: upsized });
    }
    let mut best: Option<(usize, f64)> = None;
    for (i, cc) in base.coupling_caps().iter().enumerate() {
        let touches = base.node_net(cc.a) == net || base.node_net(cc.b) == net;
        if touches && best.is_none_or(|(_, f)| cc.farads > f) {
            best = Some((i, cc.farads));
        }
    }
    if let Some((index, farads)) = best {
        let thinned = farads * CAP_SHRINK;
        if thinned >= MIN_COUPLING_FARADS {
            out.push(Delta::SetCouplingCap {
                index,
                farads: thinned,
            });
        }
    }
    out
}

fn worst_vp(report: &NoiseReport) -> f64 {
    report.worst().map_or(0.0, |w| w.vp)
}

/// Compares the session's latest report with a fresh rebuild.
fn matches_rebuild(s: &WhatIf, latest: &NoiseReport) -> Result<bool, String> {
    let (_, rebuilt) = fresh(s.base(), 1)?;
    Ok(rebuilt.to_json() == latest.to_json())
}

/// Metric II accuracy of the cluster's victim at the unedited state:
/// `|vp − golden| / golden` in %, the golden run switching every
/// directly coupled aggressor with the session's ramp.
fn victim_accuracy(base: &Network, report: &NoiseReport) -> Result<f64, String> {
    let victim = base.victim();
    let vp = report
        .nets
        .iter()
        .find(|n| n.index == victim.index())
        .ok_or("victim missing from the report")?
        .vp;
    let config = WhatIfConfig::default();
    let input = InputSignal::rising_ramp(config.arrival, config.slew);
    let stimuli: Vec<_> = base
        .aggressor_nets()
        .filter(|(agg, _)| base.couplings_between(*agg, victim).next().is_some())
        .map(|(agg, _)| (agg, input))
        .collect();
    let opts = GoldenOpts {
        mode: SIM_MODE,
        tier: FAST_TIER,
    };
    let (golden, _) = golden_noise_tiered(
        base,
        &stimuli,
        base.victim_output(),
        &mut SimWorkspace::new(),
        &opts,
    )
    .map_err(|e| e.to_string())?;
    Ok((vp - golden.vp).abs() / golden.vp * 100.0)
}

/// What one optimizer session observed.
struct Episode {
    /// Each `apply` and `revert`, in µs.
    latencies_us: Vec<f64>,
    busy: Duration,
    failed: u64,
    moves: usize,
    /// The final report equals a fresh rebuild's, byte for byte.
    matches: bool,
    stats: SessionStats,
    memo: MemoStats,
}

/// Times one `apply` or `revert` (inside an `incr.apply` span when
/// traced).
fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    ep: &mut Episode,
    f: impl FnOnce() -> Result<R, xtalk_incr::WhatIfError>,
) -> Option<R> {
    let t = Instant::now();
    let result = match tracer.as_deref_mut() {
        Some(tr) => tr.span("incr.apply", |_| f()),
        None => f(),
    };
    let took = t.elapsed();
    ep.busy += took;
    ep.latencies_us.push(took.as_secs_f64() * 1e6);
    if result.is_err() {
        ep.failed += 1;
    }
    result.ok()
}

/// Runs one optimizer session from `base`: a fresh `WhatIf` and its first
/// report (not timed), up to [`MOVES`] worst-net iterations (each apply
/// and revert timed), then the rebuild comparison. With a tracer, the
/// session build, each operation and the rebuild run inside
/// `incr.session`, `incr.apply` and `incr.rebuild` spans.
fn episode(
    mut tracer: Option<&mut Tracer>,
    base: &Network,
    jobs: usize,
) -> Result<Episode, String> {
    let (mut s, mut report) = match tracer.as_deref_mut() {
        Some(tr) => tr.span("incr.session", |_| fresh(base, jobs))?,
        None => fresh(base, jobs)?,
    };
    let mut ep = Episode {
        latencies_us: Vec::new(),
        busy: Duration::ZERO,
        failed: 0,
        moves: 0,
        matches: false,
        stats: SessionStats::default(),
        memo: MemoStats::default(),
    };
    while ep.moves < MOVES {
        let Some(worst) = report.worst() else { break };
        let target = s
            .base()
            .nets()
            .nth(worst.index)
            .map(|(id, _)| id)
            .ok_or("worst net missing from the network")?;
        let before = worst.vp;
        let cands = candidates(s.base(), target);
        let mut best: Option<(usize, f64)> = None;
        for (i, delta) in cands.iter().enumerate() {
            let Some(trial) = timed(&mut tracer, &mut ep, || s.apply(delta)) else {
                continue;
            };
            let score = worst_vp(&trial);
            timed(&mut tracer, &mut ep, || s.revert());
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((i, score));
            }
        }
        match best {
            Some((pick, score)) if score < before => {
                let Some(applied) = timed(&mut tracer, &mut ep, || s.apply(&cands[pick])) else {
                    break;
                };
                report = applied;
                ep.moves += 1;
            }
            _ => break,
        }
    }
    ep.matches = match tracer {
        Some(tr) => tr.span("incr.rebuild", |_| matches_rebuild(&s, &report))?,
        None => matches_rebuild(&s, &report)?,
    };
    ep.stats = s.stats();
    ep.memo = s.memo_stats();
    Ok(ep)
}

/// The seeded clusters of one run.
fn clusters(seed: u64) -> Vec<Network> {
    (0..CLUSTERS)
        .map(|k| seeded_cluster(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k)))
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let bases = clusters(args.seed);

    let unedited = cluster();
    match fresh(&unedited, args.jobs).and_then(|(_, r)| victim_accuracy(&unedited, &r)) {
        Ok(err) => out.metric("vp_err_mean_pct", err, "%"),
        Err(e) => out.errors.push(format!("victim golden check failed: {e}")),
    }

    let mut latencies_us = Vec::new();
    let (mut deltas, mut reverts, mut moves, mut episodes) = (0, 0, 0, 0usize);
    let mut busy = Duration::ZERO;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while episodes == 0 || start.elapsed() < budget {
        let base = &bases[episodes % bases.len()];
        let ep = match episode(None, base, args.jobs) {
            Ok(ep) => ep,
            Err(e) => {
                out.errors.push(format!("session failed: {e}"));
                break;
            }
        };
        episodes += 1;
        out.attempted += ep.latencies_us.len() as u64;
        out.failed += ep.failed;
        out.check(ep.matches, || {
            format!("session {episodes}: report differs from a fresh rebuild")
        });
        out.check(ep.moves > 0, || {
            format!("session {episodes}: no repair accepted")
        });
        latencies_us.extend_from_slice(&ep.latencies_us);
        busy += ep.busy;
        deltas += ep.stats.deltas;
        reverts += ep.stats.reverts;
        moves += ep.moves;
    }

    // Pooled over every session of the run: per-session rates follow the
    // cluster's repair mix and split into two modes, so their median
    // jumps between them.
    let rate = latencies_us.len() as f64 / busy.as_secs_f64();
    let lat = sorted(latencies_us);
    out.metric("ops_per_s", rate, "1/s");
    out.metric("lat_p50_us", quantile(&lat, 0.5), "us");
    out.note(format!("lat_p99_us = {} us", quantile(&lat, 0.99)));
    out.metric("peak_rss_bytes", peak_rss_bytes(), "bytes");
    out.note(format!(
        "alias deltas_per_s = {rate} 1/s (applies and reverts over their summed time)"
    ));
    out.note(format!(
        "whatif: {episodes} optimizer sessions ({deltas} applies, {reverts} reverts, \
         {moves} accepted repairs), each compared with a fresh rebuild"
    ));
    out.note(format!(
        "failed_frac = {}",
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    out
}

pub fn trace(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let bases = clusters(args.seed);
    let untraced = Instant::now();
    for base in &bases {
        if let Err(e) = episode(None, base, 1) {
            out.errors.push(e);
            return out;
        }
    }
    let untraced = untraced.elapsed().as_secs_f64();

    let mut tracer = Tracer::new();
    let episodes: Result<Vec<Episode>, String> = tracer.run(|t| {
        bases
            .iter()
            .map(|base| episode(Some(&mut *t), base, 1))
            .collect()
    });
    let episodes = match episodes {
        Ok(e) => e,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let mismatched = episodes.iter().filter(|e| !e.matches).count();
    out.attempted = episodes.iter().map(|e| e.latencies_us.len() as u64).sum();
    out.failed = episodes.iter().map(|e| e.failed).sum();
    out.check(mismatched == 0, || {
        format!("{mismatched} rebuild comparisons differ")
    });
    tracer.finish(&mut out, untraced, mismatched, args);

    let sum = |f: fn(&Episode) -> u64| episodes.iter().map(f).sum::<u64>() as f64;
    out.metric(
        "incr.hit_frac",
        sum(|e| e.stats.hits) / sum(|e| e.stats.queries).max(1.0),
        "ratio",
    );
    out.metric(
        "incr.memo_hit_frac",
        sum(|e| e.memo.hits) / sum(|e| e.memo.queries()).max(1.0),
        "ratio",
    );
    out.metric(
        "incr.invalidated_per_delta",
        sum(|e| e.stats.invalidated) / sum(|e| e.stats.deltas + e.stats.reverts).max(1.0),
        "count",
    );
    out.note(format!(
        "{} optimizer sessions ({} applies, {} reverts, {} accepted repairs)",
        episodes.len(),
        sum(|e| e.stats.deltas),
        sum(|e| e.stats.reverts),
        sum(|e| e.moves as u64)
    ));
    out
}
