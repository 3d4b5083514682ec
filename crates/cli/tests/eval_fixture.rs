//! Byte-for-byte fixture for the experiment commands `sweep`, `figure5`,
//! `lambda`, `delay-table`, `pexgen` and `optimize`.
//!
//! Each runs through [`xtalk_cli::run`]: `sweep --family all --cases 48
//! --seed 3` (the paper's Tables 1–3), `figure5` at its default 10
//! points, `lambda --cases 48`, `delay-table --cases 24`, `pexgen
//! --buses 1 --bits 16 --segments 2 --fold --benign --out PATH`, and
//! `optimize --json PATH` at its defaults (16 lanes, 20 iterations). The
//! reports, the deck `pexgen` writes and the final what-if report
//! `optimize` writes must equal the files in `fixtures/` byte for byte.
//! The optimizer's last two lines pin the what-if session's query,
//! hit and invalidation counts and the metric memo's hits and misses.
//!
//! The golden tier is pinned to fixed stepping with the analytic tier
//! off, so `XTALK_SIM` and `XTALK_FAST_TIER` in the environment cannot
//! move the simulated columns. On a mismatch the actual output is
//! written to the test's temp directory for inspection.
//!
//! This file holds exactly one `#[test]`: the golden-tier overrides are
//! process-global.

use std::fs;
use xtalk_sim::{set_fast_tier_override, set_sim_mode_override, FastTier, SimMode};

fn run(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    match xtalk_cli::run(&argv) {
        Ok(outcome) => outcome.report,
        Err(e) => panic!("xtalk {}: {e}", args.join(" ")),
    }
}

#[test]
fn experiment_commands_match_the_fixtures_byte_for_byte() {
    set_sim_mode_override(SimMode::Fixed);
    set_fast_tier_override(FastTier::Off);
    let dir = std::env::temp_dir().join(format!("xtalk-eval-fixture-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");

    let deck = dir.join("pexgen_1x16x2.sp");
    let deck_path = deck.to_string_lossy().into_owned();
    let pexgen = run(&[
        "pexgen",
        "--buses",
        "1",
        "--bits",
        "16",
        "--segments",
        "2",
        "--fold",
        "--benign",
        "--out",
        &deck_path,
    ]);
    assert!(pexgen.is_empty(), "pexgen writes its deck, not a report");
    let optimize_json = dir.join("optimize_default.json");
    let optimize = run(&["optimize", "--json", &optimize_json.to_string_lossy()]);

    let outputs = [
        (
            "sweep_all_48_seed3.txt",
            run(&["sweep", "--family", "all", "--cases", "48", "--seed", "3"]),
            include_str!("fixtures/sweep_all_48_seed3.txt"),
        ),
        (
            "figure5.txt",
            run(&["figure5"]),
            include_str!("fixtures/figure5.txt"),
        ),
        (
            "lambda_48.txt",
            run(&["lambda", "--cases", "48"]),
            include_str!("fixtures/lambda_48.txt"),
        ),
        (
            "delay_table_24.txt",
            run(&["delay-table", "--cases", "24"]),
            include_str!("fixtures/delay_table_24.txt"),
        ),
        (
            "pexgen_1x16x2.sp",
            fs::read_to_string(&deck).expect("pexgen wrote its deck"),
            include_str!("fixtures/pexgen_1x16x2.sp"),
        ),
        (
            "optimize_default.txt",
            optimize,
            include_str!("fixtures/optimize_default.txt"),
        ),
        (
            "optimize_default.json",
            fs::read_to_string(&optimize_json).expect("optimize wrote its report"),
            include_str!("fixtures/optimize_default.json"),
        ),
    ];
    let mut mismatched = Vec::new();
    for (name, got, want) in &outputs {
        if got != want {
            fs::write(dir.join(name), got).expect("actual output written");
            mismatched.push(*name);
        }
    }
    assert!(
        mismatched.is_empty(),
        "{mismatched:?} differ from tests/fixtures; actual output in {}",
        dir.display()
    );
    fs::remove_dir_all(&dir).ok();
}
