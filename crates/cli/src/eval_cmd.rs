//! The experiment harness's commands beside `xtalk sweep`: `figure5`
//! (the paper's Figure 5), `lambda` (metric II's λ ablation),
//! `delay-table` (the crosstalk-delay evaluation) and `pexgen` (the
//! PEX-shaped deck generator behind the screening workloads).

use crate::args::{PexgenArgs, SweepCmdArgs};
use crate::RunOutcome;
use std::error::Error;
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use xtalk_eval::plot::{render_plot, Series};
use xtalk_eval::{lambda_sweep, render_delay_table, render_figure5, render_lambda, Figure5Row};
use xtalk_tech::sweep::two_pin_cases_jobs;
use xtalk_tech::{CouplingDirection, PexDeckSpec, Technology};

/// Figure 5 as a table, an ASCII plot and the paper's two qualitative
/// claims checked on the spot.
pub(crate) fn run_figure5(points: usize) -> Result<RunOutcome, Box<dyn Error>> {
    let rows = xtalk_eval::run_figure5(&Technology::p25(), points)
        .map_err(|e| format!("figure5 sweep failed: {e}"))?;
    let series = |label: &str, f: fn(&Figure5Row) -> f64| Series {
        label: label.to_string(),
        points: rows.iter().map(|r| (r.l1 * 1e3, f(r))).collect(),
    };
    let plot = render_plot(
        &[
            series("golden (sim)", |r| r.golden_vp),
            series("new II", |r| r.new2_vp),
            series("one-lump pi", |r| r.lumped_vp),
            series("* new I", |r| r.new1_vp),
        ],
        56,
        16,
        "L1 (mm)",
        "Vp (x Vdd)",
    );
    let increasing = rows.windows(2).all(|w| w[1].golden_vp > w[0].golden_vp);
    let lumped_flat = rows
        .windows(2)
        .all(|w| (w[1].lumped_vp - w[0].lumped_vp).abs() < 1e-9 * w[0].lumped_vp);
    let mut report = format!("{}\n{plot}\n", render_figure5(&rows));
    let _ = writeln!(
        report,
        "golden peak increases toward the receiver: {increasing}"
    );
    let _ = writeln!(
        report,
        "lumped-pi model is location-blind:         {lumped_flat}"
    );
    Ok(RunOutcome::clean(report))
}

/// Metric II's Vp error over near-end cases at shape factors around the
/// eq.-7 default, and where conservatism breaks. Degraded when case
/// generation dropped cases.
pub(crate) fn run_lambda(args: &SweepCmdArgs) -> Result<RunOutcome, Box<dyn Error>> {
    let run = two_pin_cases_jobs(
        &Technology::p25(),
        CouplingDirection::NearEnd,
        &args.config(),
        args.jobs,
    );
    if !run.is_complete() {
        xtalk_obs::warn!("lambda: degraded generation: {}", run.summary());
    }
    let lambdas = [1.5, 2.0, xtalk_core::LAMBDA, 3.5, 5.0, 8.0, 12.0, 20.0];
    let rows = lambda_sweep(&run.cases, &lambdas);
    let mut report = format!("{}\n", render_lambda(&rows));
    let _ = match rows.iter().find(|r| !r.conservative) {
        Some(first_bad) => writeln!(
            report,
            "conservatism breaks at λ = {:.2}; eq. 7's default {:.4} sits safely inside",
            first_bad.lambda,
            xtalk_core::LAMBDA
        ),
        None => writeln!(
            report,
            "conservatism holds over the whole swept range; the eq. 7 default {:.4} is retained for paper fidelity",
            xtalk_core::LAMBDA
        ),
    };
    Ok(RunOutcome {
        report,
        degraded: !run.is_complete(),
        violations: false,
    })
}

/// The three delay metrics under three aggressor scenarios, scored
/// against co-switching simulation.
pub(crate) fn run_delay_table(args: &SweepCmdArgs) -> Result<RunOutcome, Box<dyn Error>> {
    let rows = xtalk_eval::run_delay_table(&Technology::p25(), &args.config());
    let mut report = format!("{}\n", render_delay_table(&rows));
    report.push_str("notes: metrics model step inputs; simulation uses 50 ps edges.\n");
    report.push_str("       Elmore is the conservative bound; two-pole the accurate one.\n");
    Ok(RunOutcome::clean(report))
}

/// Streams the deck to `--out` or stdout (never held as one string) and
/// prints a one-line summary on stderr.
pub(crate) fn run_pexgen(args: &PexgenArgs) -> Result<RunOutcome, Box<dyn Error>> {
    let spec = &args.spec;
    let tech = Technology::p25();
    let written = match &args.out {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            write_deck(spec, &tech, BufWriter::new(file))
        }
        None => write_deck(spec, &tech, BufWriter::new(std::io::stdout().lock())),
    };
    written.map_err(|e| format!("pexgen write failed: {e}"))?;
    if !xtalk_obs::quiet() {
        eprintln!(
            "pexgen: {} nets ({} buses x {} bits x {} segments){}",
            spec.net_count(),
            spec.buses,
            spec.bits,
            spec.segments,
            args.out
                .as_ref()
                .map_or(String::new(), |p| format!(" -> {p}")),
        );
    }
    Ok(RunOutcome::clean(String::new()))
}

fn write_deck(spec: &PexDeckSpec, tech: &Technology, mut out: impl Write) -> std::io::Result<()> {
    spec.write_to(tech, &mut out)?;
    out.flush()
}
