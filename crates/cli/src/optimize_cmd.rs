//! `xtalk optimize` — the closed-loop noise-driven optimizer demo.
//!
//! The paper's pitch is metrics cheap enough for an optimization inner
//! loop; this command closes that loop. Starting from a Figure-4
//! coupled-lane cluster, each iteration takes the currently noisiest
//! net and trials two classic physical-design repairs as single-element
//! deltas against a memoized [`WhatIf`] session:
//!
//! * **driver upsizing** — shrink that net's driver resistance, and
//! * **wire spreading** — thin its largest incident coupling capacitor
//!   (the circuit-level effect of moving the wire away).
//!
//! The move that lowers the cluster-worst peak noise most is kept; the
//! rest are reverted. Because every trial edits one element, the
//! session repairs a one-hop neighbourhood and replays everything else
//! from cache — the printed cache-hit rate is the whole point of the
//! demo. Reports (and the `--json` artifact) are byte-identical for
//! every `--jobs` value.

use std::error::Error;
use std::fmt::Write as _;

use xtalk_circuit::{Delta, NetId, Network};
use xtalk_incr::{NoiseReport, WhatIf, WhatIfConfig};
use xtalk_tech::{ClusterSpec, Technology};

use crate::args::OptimizeArgs;
use crate::RunOutcome;

/// Driver upsizing scales resistance by this factor per accepted move.
const DRIVER_SHRINK: f64 = 0.8;
/// Drivers never get stronger than this (ohms) — a real cell library
/// bottoms out.
const MIN_DRIVER_OHMS: f64 = 30.0;
/// Wire spreading scales the largest incident coupling cap by this
/// factor per accepted move.
const CAP_SHRINK: f64 = 0.8;
/// Coupling caps never thin below this (farads) — wires cannot move
/// arbitrarily far inside a finite channel.
const MIN_COUPLING_FARADS: f64 = 1e-16;

/// One candidate repair for the worst net: the delta plus a line of
/// human description.
struct Candidate {
    delta: Delta,
    describe: String,
}

/// Enumerates the legal repairs for `net` on the current base network.
fn candidates(base: &Network, net: NetId) -> Vec<Candidate> {
    let mut out = Vec::new();
    let name = base.net(net).name();
    let ohms = base.net(net).driver().ohms;
    let upsized = ohms * DRIVER_SHRINK;
    if upsized >= MIN_DRIVER_OHMS {
        out.push(Candidate {
            delta: Delta::ResizeDriver { net, ohms: upsized },
            describe: format!("upsize driver {name} {ohms:.0} -> {upsized:.0} ohm"),
        });
    }
    // Largest coupling cap touching the net; table order breaks ties,
    // so the choice is deterministic.
    let mut best: Option<(usize, f64)> = None;
    for (i, cc) in base.coupling_caps().iter().enumerate() {
        if base.node_net(cc.a) != net && base.node_net(cc.b) != net {
            continue;
        }
        if best.map_or(true, |(_, f)| cc.farads > f) {
            best = Some((i, cc.farads));
        }
    }
    if let Some((index, farads)) = best {
        let thinned = farads * CAP_SHRINK;
        if thinned >= MIN_COUPLING_FARADS {
            out.push(Candidate {
                delta: Delta::SetCouplingCap { index, farads: thinned },
                describe: format!(
                    "spread wire {name}: coupling cap #{index} {:.2} -> {:.2} fF",
                    farads * 1e15,
                    thinned * 1e15
                ),
            });
        }
    }
    out
}

/// Peak noise the report is ranked by: the worst net's `vp`, or zero on
/// a quiet cluster.
fn worst_vp(report: &NoiseReport) -> f64 {
    report.worst().map_or(0.0, |w| w.vp)
}

/// Runs the optimizer loop; returns the report text and the final
/// session for JSON output.
fn optimize(args: &OptimizeArgs) -> Result<(String, NoiseReport), Box<dyn Error>> {
    let spec = ClusterSpec::figure4_family(args.lanes);
    let (base, _) = spec.build(&Technology::p25())?;
    let config = WhatIfConfig {
        slew: args.slew,
        jobs: args.jobs,
        ..WhatIfConfig::default()
    };
    let mut session = WhatIf::new(base, config)?;
    let mut report = session.report();
    let initial_vp = worst_vp(&report);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "xtalk optimize — figure-4 cluster, {} lanes, {} segments, up to {} moves",
        args.lanes,
        spec.segments(),
        args.iters
    );
    let initial_net = report.worst().map_or("-", |w| &*w.net).to_string();
    let _ = writeln!(
        out,
        "  initial worst noise {initial_vp:.6} V (net {initial_net})"
    );

    let mut accepted = 0usize;
    for iter in 1..=args.iters {
        let Some(worst) = report.worst() else { break };
        let ids: Vec<NetId> = session.base().nets().map(|(id, _)| id).collect();
        let target = ids[worst.index];
        let before = worst.vp;

        // Trial every candidate as a what-if: apply, score, revert.
        let mut best: Option<(usize, f64)> = None;
        let cands = candidates(session.base(), target);
        for (i, cand) in cands.iter().enumerate() {
            let trial = session.apply(&cand.delta)?;
            let score = worst_vp(&trial);
            session.revert()?;
            if best.map_or(true, |(_, s)| score < s) {
                best = Some((i, score));
            }
        }
        let Some((pick, score)) = best else {
            let _ = writeln!(out, "  iter {iter:>3}  no legal move left; stopping");
            break;
        };
        if score >= before {
            let _ = writeln!(
                out,
                "  iter {iter:>3}  converged: no candidate improves {before:.6} V"
            );
            break;
        }
        report = session.apply(&cands[pick].delta)?;
        accepted += 1;
        let _ = writeln!(
            out,
            "  iter {iter:>3}  {}  worst {:.6} V",
            cands[pick].describe,
            worst_vp(&report)
        );
    }

    let final_vp = worst_vp(&report);
    let final_net = report.worst().map_or("-", |w| &*w.net).to_string();
    let improved = if initial_vp > 0.0 {
        (initial_vp - final_vp) / initial_vp * 100.0
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "  final   worst noise {final_vp:.6} V (net {final_net})  — {accepted} move(s), {improved:.1}% lower"
    );

    // The demo's headline: how much of the work the memoized session
    // replayed instead of recomputing. CI greps this line.
    let st = session.stats();
    let hit_pct = if st.queries > 0 {
        st.hits as f64 / st.queries as f64 * 100.0
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "session stats: queries {}  cache hits {} ({hit_pct:.1}%)  misses {}  invalidated {}",
        st.queries, st.hits, st.misses, st.invalidated
    );
    let memo = session.memo_stats();
    let _ = writeln!(
        out,
        "metric memo:   queries {}  hits {}  misses {}",
        memo.queries(),
        memo.hits,
        memo.misses
    );
    if xtalk_obs::metrics_enabled() {
        let snap = xtalk_obs::snapshot();
        for (name, value) in snap.counters_with_prefix("incr.") {
            let _ = writeln!(out, "  {name} = {value}");
        }
    }

    Ok((out, report))
}

/// Entry point for `xtalk optimize`.
pub fn run_optimize(args: &OptimizeArgs) -> Result<RunOutcome, Box<dyn Error>> {
    let (text, report) = optimize(args)?;
    if let Some(path) = &args.json {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(RunOutcome::clean(text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_exec::Jobs;

    fn small(jobs: Jobs) -> OptimizeArgs {
        OptimizeArgs {
            lanes: 5,
            iters: 4,
            slew: 100e-12,
            jobs,
            json: None,
        }
    }

    #[test]
    fn loop_improves_noise_and_hits_the_cache() {
        let (text, report) = optimize(&small(Jobs::Count(1))).unwrap();
        assert!(text.contains("initial worst noise"), "{text}");
        assert!(text.contains("final   worst noise"), "{text}");
        // Every trialed-and-reverted candidate replays untouched views
        // from cache, so hits must be nonzero.
        let hits_line = text
            .lines()
            .find(|l| l.starts_with("session stats:"))
            .expect("stats line");
        assert!(!hits_line.contains("cache hits 0 ("), "{hits_line}");
        // The figure-4 family always has headroom at the defaults: at
        // least one move is accepted and noise strictly improves.
        assert!(!text.contains("0 move(s)"), "{text}");
        assert!(report.worst().is_some());
    }

    #[test]
    fn report_bytes_are_jobs_invariant() {
        let (_, one) = optimize(&small(Jobs::Count(1))).unwrap();
        let (_, two) = optimize(&small(Jobs::Count(2))).unwrap();
        assert_eq!(one.to_json(), two.to_json());
    }

    #[test]
    fn candidates_respect_floors() {
        let (base, lanes) = ClusterSpec::figure4_family(4)
            .build(&Technology::p25())
            .unwrap();
        let cands = candidates(&base, lanes[1]);
        assert_eq!(cands.len(), 2, "driver upsizing and wire spreading");
        let mut shrunk = base;
        shrunk
            .apply_delta(&Delta::ResizeDriver { net: lanes[1], ohms: MIN_DRIVER_OHMS })
            .unwrap();
        let cands = candidates(&shrunk, lanes[1]);
        assert!(
            cands.iter().all(|c| !matches!(c.delta, Delta::ResizeDriver { .. })),
            "a floored driver offers no further upsizing"
        );
    }
}
