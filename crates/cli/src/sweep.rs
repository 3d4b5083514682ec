//! `xtalk sweep`: an instrumented randomized accuracy sweep.
//!
//! The command chains the workspace's three pipelines end to end —
//! seeded case generation ([`xtalk_tech::sweep`]), a serial
//! [`RobustAnalyzer`] degradation scan (so the `resilience.rung.*`
//! counters reflect the fallback chain's behavior on the generated
//! population), and the golden-simulation accuracy evaluation
//! ([`xtalk_eval`]) — which makes it the natural smoke workload for the
//! observability layer: one invocation exercises every instrumented
//! stage. The far, near and tree families are the paper's Tables 1, 2
//! and 3; each table ends with metric II's Vp error range and whether it
//! stays conservative.

use crate::args::{SweepCmdArgs, SweepFamily};
use crate::RunOutcome;
use std::error::Error;
use std::fmt::Write as _;
use xtalk_core::resilience::RobustAnalyzer;
use xtalk_eval::{evaluate_run_jobs, render_table, Method, Param};
use xtalk_tech::sweep::{tree_cases_jobs, two_pin_cases_jobs, SweepCase, SweepRun};
use xtalk_tech::{CouplingDirection, Technology};

/// Outcome of the serial degradation scan over one family's cases.
struct ScanSummary {
    /// Cases whose estimate came from a fallback rung (or was clamped).
    fallbacks: usize,
    /// Cases the robust pipeline could not analyze at all.
    errors: usize,
}

/// Runs [`RobustAnalyzer`] over every generated case, serially.
///
/// This pass is cheap (moments only, no transient simulation) and exists
/// so a sweep exercises the fallback chain the same way production noise
/// analysis would: each case increments exactly one `resilience.rung.*`
/// counter, which is what the CI health gate on `resilience.rung.lumped`
/// watches.
fn degradation_scan(cases: &[SweepCase]) -> ScanSummary {
    let _span = xtalk_obs::span!("cli.degradation_scan");
    let mut summary = ScanSummary {
        fallbacks: 0,
        errors: 0,
    };
    for case in cases {
        match RobustAnalyzer::new(&case.network) {
            Ok(analyzer) => match analyzer.analyze(case.aggressor, &case.input) {
                Ok(estimate) => {
                    if estimate.provenance.degraded() {
                        summary.fallbacks += 1;
                        xtalk_obs::warn!(
                            "sweep case {}: {}",
                            case.label,
                            estimate.provenance
                        );
                    }
                }
                Err(e) => {
                    summary.errors += 1;
                    xtalk_obs::warn!("sweep case {}: analysis failed: {e}", case.label);
                }
            },
            Err(e) => {
                summary.errors += 1;
                xtalk_obs::warn!("sweep case {}: analyzer rejected network: {e}", case.label);
            }
        }
    }
    summary
}

fn generate(family: SweepFamily, args: &SweepCmdArgs) -> SweepRun {
    let tech = Technology::p25();
    let config = args.config();
    match family {
        SweepFamily::Far => {
            two_pin_cases_jobs(&tech, CouplingDirection::FarEnd, &config, args.jobs)
        }
        SweepFamily::Near => {
            two_pin_cases_jobs(&tech, CouplingDirection::NearEnd, &config, args.jobs)
        }
        SweepFamily::Tree => tree_cases_jobs(&tech, true, &config, args.jobs),
        SweepFamily::All => unreachable!("All is expanded before generate"),
    }
}

fn family_title(family: SweepFamily, cases: usize, seed: u64) -> String {
    let regime = match family {
        SweepFamily::Far => "two-pin, far-end coupling",
        SweepFamily::Near => "two-pin, near-end coupling",
        SweepFamily::Tree => "coupled RC trees, far-end",
        SweepFamily::All => "all families",
    };
    format!("Sweep [{}]: {regime} ({cases} cases, seed {seed})", family.name())
}

/// Runs the full sweep. Exits degraded (code 2) when generation dropped
/// cases, the degradation scan saw any fallback or analysis error, or the
/// evaluation skipped cases.
pub(crate) fn run_sweep(args: &SweepCmdArgs) -> Result<RunOutcome, Box<dyn Error>> {
    let _span = xtalk_obs::span!("cli.sweep");
    let families: &[SweepFamily] = match args.family {
        SweepFamily::All => &[SweepFamily::Far, SweepFamily::Near, SweepFamily::Tree],
        SweepFamily::Far => &[SweepFamily::Far],
        SweepFamily::Near => &[SweepFamily::Near],
        SweepFamily::Tree => &[SweepFamily::Tree],
    };

    let mut report = String::new();
    let mut degraded = false;
    for (i, &family) in families.iter().enumerate() {
        let run = generate(family, args);
        if !run.is_complete() {
            degraded = true;
            xtalk_obs::warn!(
                "sweep {}: degraded generation: {}",
                family.name(),
                run.summary()
            );
        }
        let scan = degradation_scan(&run.cases);
        degraded |= scan.fallbacks > 0 || scan.errors > 0;

        let stats = evaluate_run_jobs(&run, !xtalk_obs::quiet(), args.jobs);
        degraded |= stats.skipped() > 0;

        if i > 0 {
            report.push('\n');
        }
        report.push_str(&render_table(
            &family_title(family, args.cases, args.seed),
            &stats,
        ));
        let _ = writeln!(
            report,
            "  degradation scan: {} analyzed, {} fallback(s), {} error(s)",
            run.cases.len(),
            scan.fallbacks,
            scan.errors
        );
        if let Some(cell) = stats.cell(Method::NewTwo, Param::Vp) {
            let _ = writeln!(
                report,
                "  new II Vp error range {:.1}% … {:.1}%  (conservative ≥ -5%: {})",
                cell.max_neg(),
                cell.max_pos(),
                cell.conservative_above(-5.0)
            );
        }
    }
    Ok(RunOutcome {
        report,
        degraded,
        violations: false,
    })
}
