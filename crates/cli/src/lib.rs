//! Implementation of the `xtalk` command-line tool.
//!
//! The binary wraps the workspace's analysis stack for engineers holding a
//! SPICE deck (in the subset `xtalk_circuit::spice` round-trips), and
//! regenerates the paper's evaluation (`sweep`, `figure5`, `lambda`,
//! `delay-table`). `xtalk --help` lists every command with its flags;
//! the lists are built from the flag tables the parser reads, so they
//! cannot drift from what is accepted.
//!
//! Every command additionally accepts the global flags
//! `--metrics-out PATH`, `--trace-out PATH`, `--stats` and `--quiet`
//! (see [`xtalk_obs`]): metrics snapshots are deterministic JSON
//! (byte-identical across `--jobs` values), traces are Chrome-trace JSON.
//! Two more global flags switch the golden-tier fast paths: `--sim
//! fixed|adaptive` selects the transient stepping strategy and
//! `--fast-tier off|on|auto` gates the analytic pole-superposition tier.
//! `--metrics-full-out PATH` additionally dumps the performance-class
//! counters (fast-tier hit/fallback rates, adaptive step savings) that
//! the deterministic snapshot excludes.
//!
//! All analysis goes through the same public APIs a library user would
//! call; the CLI only parses arguments and formats reports. The library
//! half exists so the logic is unit-testable without process spawning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod eval_cmd;
mod exit;
mod optimize_cmd;
mod report;
mod screen_cmd;
mod serve_cmd;
mod sweep;
mod top_cmd;

pub use args::{
    AuditArgs, BenchDiffArgs, Command, DelayMetricArg, MetricArg, ObsArgs, OptimizeArgs,
    ParseOutcome, PexgenArgs, ScreenCmdArgs, ServeArgs, SweepCmdArgs, SweepFamily, TopArgs,
    Transport,
};
pub use exit::{ExitCode, FatalServerError};
pub use report::{delay_report, info_report, noise_report};

use std::error::Error;

/// A finished run: the report text plus whether any analysis degraded
/// (fallback metrics used, rows dropped) or any audit invariant was
/// violated. Degraded runs succeed but the binary exits with code 2;
/// audit violations exit with code 3.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Report text for stdout.
    pub report: String,
    /// True when the run completed only by degrading.
    pub degraded: bool,
    /// True when an audit run found invariant violations.
    pub violations: bool,
}

impl RunOutcome {
    fn clean(report: String) -> Self {
        RunOutcome {
            report,
            degraded: false,
            violations: false,
        }
    }
}

/// Runs the tool: parses `argv` (without the program name) and returns
/// the report text plus the degradation flag.
///
/// # Errors
///
/// Propagates argument, I/O, parse and analysis errors as boxed errors
/// with user-readable messages.
pub fn run(argv: &[String]) -> Result<RunOutcome, Box<dyn Error>> {
    let (outcome, obs) = args::parse(argv)?;
    apply_obs(&obs);
    let result = dispatch(outcome);
    // Outputs are written even when the command failed or degraded — a
    // partial run's metrics are exactly the interesting ones. The command
    // error wins over an output-write error.
    match (result, finish_obs(&obs)) {
        (Err(e), _) => Err(e),
        (Ok(outcome), Ok(())) => Ok(outcome),
        (Ok(_), Err(e)) => Err(e),
    }
}

/// Switches the observability sinks on before any analysis runs.
fn apply_obs(obs: &ObsArgs) {
    xtalk_obs::set_quiet(obs.quiet);
    if let Some(mode) = obs.sim {
        xtalk_sim::set_sim_mode_override(mode);
    }
    if let Some(tier) = obs.fast_tier {
        xtalk_sim::set_fast_tier_override(tier);
    }
    if obs.wants_metrics() {
        xtalk_obs::enable_metrics();
    }
    if obs.trace_out.is_some() {
        xtalk_obs::enable_tracing();
    }
}

/// Writes the requested observability outputs after the command finished.
fn finish_obs(obs: &ObsArgs) -> Result<(), Box<dyn Error>> {
    if obs.wants_metrics() {
        let snap = xtalk_obs::snapshot();
        if let Some(path) = &obs.metrics_out {
            std::fs::write(path, snap.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = &obs.metrics_full_out {
            std::fs::write(path, snap.to_json_full())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if obs.stats {
            eprint!("{}", snap.stats_table());
        }
    }
    if let Some(path) = &obs.trace_out {
        std::fs::write(path, xtalk_obs::take_trace_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

fn dispatch(outcome: ParseOutcome) -> Result<RunOutcome, Box<dyn Error>> {
    match outcome {
        ParseOutcome::Help(text) => Ok(RunOutcome::clean(text)),
        ParseOutcome::Serve(serve) => serve_cmd::run_serve(&serve),
        ParseOutcome::Screen(screen) => screen_cmd::run_screen(&screen),
        ParseOutcome::Top(top) => top_cmd::run_top(&top),
        ParseOutcome::Optimize(opt) => optimize_cmd::run_optimize(&opt),
        ParseOutcome::BenchDiff(diff) => {
            let old = std::fs::read_to_string(&diff.old_path)
                .map_err(|e| format!("cannot read {}: {e}", diff.old_path))?;
            let new = std::fs::read_to_string(&diff.new_path)
                .map_err(|e| format!("cannot read {}: {e}", diff.new_path))?;
            let report = xtalk_bench::diff::diff_benchmarks(
                &old,
                &new,
                &xtalk_bench::diff::DiffConfig {
                    max_regress_pct: diff.max_regress_pct,
                    fields: diff.fields.clone(),
                },
            )?;
            // Regressions ride the audit-violation exit code (3): both
            // mean "the artifact moved outside its envelope".
            Ok(RunOutcome {
                report: report.render(),
                degraded: false,
                violations: report.regressions() > 0,
            })
        }
        ParseOutcome::Sweep(sweep) => sweep::run_sweep(&sweep),
        ParseOutcome::Figure5(points) => eval_cmd::run_figure5(points),
        ParseOutcome::Lambda(args) => eval_cmd::run_lambda(&args),
        ParseOutcome::DelayTable(args) => eval_cmd::run_delay_table(&args),
        ParseOutcome::Pexgen(args) => eval_cmd::run_pexgen(&args),
        ParseOutcome::Audit(audit) => {
            let report = xtalk_audit::run_audit(&xtalk_audit::AuditConfig {
                cases: audit.cases,
                seed: audit.seed,
                jobs: audit.jobs,
                envelopes: xtalk_audit::ErrorEnvelopes::default(),
            });
            if let Some(path) = &audit.json {
                std::fs::write(path, report.to_json())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            Ok(RunOutcome {
                report: report.to_string(),
                degraded: false,
                violations: !report.clean(),
            })
        }
        ParseOutcome::Run(cmd) => {
            let deck = std::fs::read_to_string(&cmd.deck_path)
                .map_err(|e| format!("cannot read {}: {e}", cmd.deck_path))?;
            let network = xtalk_circuit::spice::parse_deck(&deck)?;
            match cmd.command {
                Command::Info => Ok(RunOutcome::clean(info_report(&network))),
                Command::Noise => {
                    let (report, degraded) = noise_report(&network, &cmd)?;
                    Ok(RunOutcome {
                        report,
                        degraded,
                        violations: false,
                    })
                }
                Command::Delay => Ok(RunOutcome::clean(delay_report(&network, &cmd)?)),
                Command::Reduce => Ok(RunOutcome::clean(report::reduce_report(&network, &cmd)?)),
            }
        }
    }
}
