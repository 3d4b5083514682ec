//! `xtalk screen` — full-deck screen-then-escalate.
//!
//! Thin shell over [`xtalk_eval::screen`]: opens the deck as a buffered
//! stream (the whole file is never held as one string, let alone one
//! network), maps the CLI flags onto a [`ScreenConfig`], and renders the
//! ranked report. Degradation (fallback metrics, failed nets) maps to
//! exit code 2 through [`RunOutcome::degraded`].

use std::error::Error;
use std::fs::File;
use std::io::BufReader;

use xtalk_eval::screen::{screen_deck, ScreenConfig};

use crate::args::ScreenCmdArgs;
use crate::RunOutcome;

/// Runs the screening pipeline on the deck at `args.deck_path`.
pub fn run_screen(args: &ScreenCmdArgs) -> Result<RunOutcome, Box<dyn Error>> {
    let file = File::open(&args.deck_path)
        .map_err(|e| format!("cannot read {}: {e}", args.deck_path))?;
    let config = ScreenConfig {
        slew: args.slew,
        arrival: args.arrival,
        shape: args.shape,
        threshold: args.threshold,
        escalate_ratio: args.escalate_ratio,
        jobs: args.jobs,
        strict: args.strict,
        escalate: !args.no_escalate,
        ..ScreenConfig::default()
    };
    let report = screen_deck(BufReader::new(file), &config)?;
    if let Some(path) = &args.json {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(RunOutcome {
        report: report.to_string(),
        degraded: !report.clean(),
        violations: false,
    })
}
