//! Byte-for-byte fixture for the `xtalk noise` report.
//!
//! The 48 seeded decks `serve/tests/reply_fixture.rs` draws (16 per
//! sweep family: two-pin far-end, two-pin near-end, coupled trees; sweep
//! seed 4 with 20 % corners) each run through [`xtalk_cli::run`] under
//! eleven flag sets: the default, `--golden`, `--metric one`, `--metric
//! closed`, `--shape step`, `--shape exp`, `--golden --shape exp`,
//! `--strict`, `--threshold`, and `--aggressor` with a name that matches
//! and one that does not. Every report, its degraded flag, or its error
//! text must equal `fixtures/noise_reports.txt` byte for byte.
//!
//! The golden tier is pinned to fixed stepping with the analytic tier
//! off, the defaults, so the simulated rows are those of a plain `xtalk
//! noise` run. On a mismatch the full output is written to the test's
//! temp directory for inspection.
//!
//! This file holds exactly one `#[test]`: the golden-tier overrides are
//! process-global.

use std::fmt::Write as _;
use std::fs;
use xtalk_circuit::spice;
use xtalk_exec::Jobs;
use xtalk_sim::{set_fast_tier_override, set_sim_mode_override, FastTier, SimMode};
use xtalk_tech::sweep::{tree_cases_jobs, two_pin_cases_jobs, SweepConfig};
use xtalk_tech::{CouplingDirection, Technology};

const PER_FAMILY: usize = 16;
const FIXTURE: &str = include_str!("fixtures/noise_reports.txt");

/// The 48 decks, rendered, with the name of each deck's first aggressor.
fn decks() -> Vec<(String, String)> {
    let tech = Technology::p25();
    let config = SweepConfig {
        cases: PER_FAMILY,
        seed: 4,
        corner_fraction: 0.2,
    };
    let jobs = Jobs::Count(1);
    let mut cases = two_pin_cases_jobs(&tech, CouplingDirection::FarEnd, &config, jobs).cases;
    cases.extend(two_pin_cases_jobs(&tech, CouplingDirection::NearEnd, &config, jobs).cases);
    cases.extend(tree_cases_jobs(&tech, true, &config, jobs).cases);
    assert_eq!(cases.len(), 3 * PER_FAMILY, "every sweep case generates");
    cases
        .iter()
        .map(|case| {
            let (_, agg) = case
                .network
                .aggressor_nets()
                .next()
                .expect("sweep cases have an aggressor");
            (spice::write_deck(&case.network), agg.name().to_string())
        })
        .collect()
}

/// The flag sets, with `{agg}` standing for the deck's first aggressor.
const FLAG_SETS: [&[&str]; 11] = [
    &[],
    &["--golden"],
    &["--metric", "one"],
    &["--metric", "closed"],
    &["--shape", "step"],
    &["--shape", "exp"],
    &["--golden", "--shape", "exp"],
    &["--strict"],
    &["--threshold", "0.05"],
    &["--aggressor", "{agg}"],
    &["--aggressor", "no_such_net"],
];

#[test]
fn noise_reports_match_the_fixture_byte_for_byte() {
    set_sim_mode_override(SimMode::Fixed);
    set_fast_tier_override(FastTier::Off);
    let dir = std::env::temp_dir().join(format!("xtalk-noise-fixture-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");

    let mut got = String::new();
    for (k, (deck, agg)) in decks().iter().enumerate() {
        let path = dir.join(format!("deck{k}.sp"));
        fs::write(&path, deck).expect("deck written");
        let path = path.to_string_lossy().into_owned();
        for flags in FLAG_SETS {
            let mut argv = vec!["noise".to_string(), path.clone()];
            argv.extend(flags.iter().map(|f| f.replace("{agg}", agg)));
            let _ = writeln!(got, "== deck {k}: {}", flags.join(" "));
            match xtalk_cli::run(&argv) {
                Ok(outcome) => {
                    let _ = writeln!(got, "degraded: {}", outcome.degraded);
                    got.push_str(&outcome.report);
                }
                Err(e) => {
                    let _ = writeln!(got, "error: {e}");
                }
            }
        }
    }

    if got != FIXTURE {
        let actual = dir.join("noise_reports.actual.txt");
        fs::write(&actual, &got).expect("actual output written");
        let mut header = "";
        for (line, (g, w)) in got.lines().zip(FIXTURE.lines()).enumerate() {
            if g.starts_with("== ") {
                header = g;
            }
            assert_eq!(
                g,
                w,
                "line {} differs (in block {header:?}); full output in {}",
                line + 1,
                actual.display()
            );
        }
        panic!(
            "output has {} lines, fixture {}; full output in {}",
            got.lines().count(),
            FIXTURE.lines().count(),
            actual.display()
        );
    }
    fs::remove_dir_all(&dir).ok();
}
