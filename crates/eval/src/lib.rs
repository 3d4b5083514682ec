//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section.
//!
//! | Paper artifact | Entry point | Command |
//! |----------------|-------------|---------|
//! | Table 1 (two-pin, far-end) | [`run_two_pin_table`] | `xtalk sweep --family far` |
//! | Table 2 (two-pin, near-end) | [`run_two_pin_table`] | `xtalk sweep --family near` |
//! | Table 3 (trees, far-end) | [`run_tree_table`] | `xtalk sweep --family tree` |
//! | Figure 5 (coupling location) | [`run_figure5`] | `xtalk figure5` |
//!
//! Each table compares six analytical metrics against the golden transient
//! simulation over a seeded random sweep, reporting max-positive,
//! max-negative and mean-absolute error percentages per waveform
//! parameter — the same statistics the paper prints. Error% =
//! `(estimate − golden)/golden × 100`; a method's missing parameter is
//! "N/A", and two-pole instabilities are counted separately (the paper's
//! "may not offer a solution" remark).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod case_eval;
mod delay_eval;
mod figure5;
mod lambda;
pub mod plot;
pub mod screen;
mod stats;
mod table;

pub use case_eval::{
    evaluate_case, evaluate_case_with, CaseOutcome, Method, Param, ALL_METHODS, ALL_PARAMS,
};
pub use delay_eval::{render_delay_table, run_delay_table, DelayRow};
pub use figure5::{render_figure5, run_figure5, Figure5Row};
pub use lambda::{lambda_sweep, render_lambda, LambdaRow};
pub use stats::{ErrorStats, TableStats};
pub use table::render_table;

use std::sync::atomic::{AtomicUsize, Ordering};
use xtalk_exec::{par_map_indexed_with, Jobs};
use xtalk_sim::SimWorkspace;
use xtalk_tech::sweep::{tree_cases_jobs, two_pin_cases_jobs, SweepCase, SweepConfig, SweepRun};
use xtalk_tech::{CouplingDirection, Technology};

/// Runs a Table 1/2-style evaluation: `config.cases` random two-pin
/// circuits with the given coupling direction. Equivalent to
/// [`run_two_pin_table_jobs`] with [`Jobs::Auto`].
pub fn run_two_pin_table(
    tech: &Technology,
    direction: CouplingDirection,
    config: &SweepConfig,
    progress: bool,
) -> TableStats {
    run_two_pin_table_jobs(tech, direction, config, progress, Jobs::Auto)
}

/// [`run_two_pin_table`] with an explicit worker-count policy.
///
/// Case generation draws serially (seed-reproducible) and builds in
/// parallel; case evaluation — the dominant cost, one golden transient
/// simulation per case — fans out over the workers. The resulting
/// statistics, and the table rendered from them, are bit-identical for
/// every `jobs` value.
pub fn run_two_pin_table_jobs(
    tech: &Technology,
    direction: CouplingDirection,
    config: &SweepConfig,
    progress: bool,
    jobs: Jobs,
) -> TableStats {
    evaluate_run_jobs(
        &two_pin_cases_jobs(tech, direction, config, jobs),
        progress,
        jobs,
    )
}

/// Runs the Table 3-style evaluation over random coupled RC trees
/// (far-end, as in the paper). Equivalent to [`run_tree_table_jobs`]
/// with [`Jobs::Auto`].
pub fn run_tree_table(tech: &Technology, config: &SweepConfig, progress: bool) -> TableStats {
    run_tree_table_jobs(tech, config, progress, Jobs::Auto)
}

/// [`run_tree_table`] with an explicit worker-count policy (see
/// [`run_two_pin_table_jobs`] for the determinism contract).
pub fn run_tree_table_jobs(
    tech: &Technology,
    config: &SweepConfig,
    progress: bool,
    jobs: Jobs,
) -> TableStats {
    evaluate_run_jobs(&tree_cases_jobs(tech, true, config, jobs), progress, jobs)
}

/// Evaluates a sweep run: cases that failed to generate are folded into
/// the statistics (and the rendered summary) instead of aborting the
/// batch.
pub fn evaluate_run(run: &SweepRun, progress: bool) -> TableStats {
    evaluate_run_jobs(run, progress, Jobs::Auto)
}

/// [`evaluate_run`] with an explicit worker-count policy. Generation
/// failures keep their sweep ordering regardless of `jobs`.
pub fn evaluate_run_jobs(run: &SweepRun, progress: bool, jobs: Jobs) -> TableStats {
    let mut stats = evaluate_cases_jobs(&run.cases, progress, jobs);
    for failure in &run.failures {
        stats.record_generation_failure(&failure.to_string());
    }
    stats
}

/// Evaluates a pre-generated case list. Equivalent to
/// [`evaluate_cases_jobs`] with [`Jobs::Auto`].
pub fn evaluate_cases(cases: &[SweepCase], progress: bool) -> TableStats {
    evaluate_cases_jobs(cases, progress, Jobs::Auto)
}

/// Evaluates a pre-generated case list on up to `jobs` workers.
///
/// Each worker reuses one [`SimWorkspace`] across its cases and runs the
/// per-case stage (golden simulation, moments, prior-art baselines); the
/// paper's closed-form metrics are then evaluated over all surviving
/// cases at once through the structure-of-arrays kernel
/// ([`xtalk_core::MomentBatch`]), whose lanes are bit-identical to the
/// scalar [`evaluate_case`] path. Outcomes are folded into the statistics
/// in case order, so the accumulated `TableStats` (extremes, means,
/// reservoir quantiles, skip ordering) are bit-identical to a serial run.
///
/// # Panics
///
/// Panics when a case evaluation itself panics (a harness bug, not a
/// data condition — data problems surface as skip reasons); the panic
/// message names the lowest offending case index.
pub fn evaluate_cases_jobs(cases: &[SweepCase], progress: bool, jobs: Jobs) -> TableStats {
    let _table_span = xtalk_obs::span!("eval.table");
    let done = AtomicUsize::new(0);
    let progress = progress && !xtalk_obs::quiet();
    let prepared = par_map_indexed_with(cases, jobs, SimWorkspace::new, |ws, _, case| {
        let case_span = xtalk_obs::span!("eval.case");
        let result = case_eval::prepare_case_with(case, ws);
        drop(case_span); // per-case latency excludes the progress I/O
        if progress {
            let k = done.fetch_add(1, Ordering::Relaxed) + 1;
            if k % 50 == 0 || k == cases.len() {
                eprintln!("  case {k}/{} …", cases.len());
            }
        }
        result
    })
    .unwrap_or_else(|e| panic!("case evaluation failed: {e}"));
    let outcomes = case_eval::finalize_outcomes(prepared);

    let mut stats = TableStats::new();
    let mut skipped = 0u64;
    for outcome in &outcomes {
        match outcome {
            Ok(outcome) => stats.record(outcome),
            Err(reason) => {
                skipped += 1;
                stats.record_skip(reason);
            }
        }
    }
    xtalk_obs::counter!("eval.cases.evaluated").add(outcomes.len() as u64 - skipped);
    xtalk_obs::counter!("eval.cases.skipped").add(skipped);
    stats
}
