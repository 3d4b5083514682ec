//! End-to-end CLI flow: generate a circuit, export its SPICE deck, and
//! run every `xtalk` sub-command against the file.

use std::path::{Path, PathBuf};
use xtalk::tech::{CouplingDirection, Technology, TwoPinSpec};
use xtalk_circuit::spice;

/// A temp directory of the test's own, named by process id and test, so
/// concurrent runs never share files; removed when the guard drops, a
/// failing test included.
struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("xtalk-cli-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn write_sample_deck(dir: &Path) -> PathBuf {
    let spec = TwoPinSpec {
        l1: 0.2e-3,
        l2: 0.6e-3,
        l3: 1.0e-3,
        direction: CouplingDirection::NearEnd,
        victim_driver: 220.0,
        aggressor_driver: 130.0,
        victim_load: 15e-15,
        aggressor_load: 15e-15,
        segments_per_mm: 8,
    };
    let (network, _) = spec.build(&Technology::p25()).expect("spec builds");
    let path = dir.join("sample.sp");
    std::fs::write(&path, spice::write_deck(&network)).expect("deck written");
    path
}

fn run_full(args: &[&str]) -> Result<xtalk_cli::RunOutcome, String> {
    xtalk_cli::run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        .map_err(|e| e.to_string())
}

fn run(args: &[&str]) -> Result<String, String> {
    run_full(args).map(|outcome| outcome.report)
}

#[test]
fn info_noise_and_delay_subcommands_work() {
    let dir = TempDir::new("subcommands");
    let deck = write_sample_deck(&dir.0);
    let deck_str = deck.to_str().expect("utf-8 path");

    let info = run(&["info", deck_str]).expect("info runs");
    assert!(info.contains("victim"));
    assert!(info.contains("aggressor"));

    let noise = run(&["noise", deck_str, "--slew", "120p", "--threshold", "0.05"]).unwrap();
    assert!(noise.contains("aggressor"));
    assert!(noise.contains("Vp"));
    assert!(noise.contains("VIOLATION") || noise.contains("ok"));

    let closed = run(&["noise", deck_str, "--metric", "closed"]).unwrap();
    assert!(closed.contains("Vp"));

    let golden = run(&["noise", deck_str, "--golden"]).unwrap();
    assert!(golden.contains("(simulated)"));

    let delay = run(&["delay", deck_str]).unwrap();
    assert!(delay.contains("worst case"));

    // `reduce` emits a smaller, re-analyzable deck.
    let reduced_out = run(&["reduce", deck_str]).unwrap();
    assert!(reduced_out.contains("xtalk reduce:"));
    let reduced_deck: String = reduced_out.lines().skip(1).collect::<Vec<_>>().join("\n");
    let reduced_path = dir.0.join("reduced.sp");
    std::fs::write(&reduced_path, &reduced_deck).expect("write reduced deck");
    let noise_after = run(&["noise", reduced_path.to_str().unwrap()]).unwrap();
    assert!(noise_after.contains("Vp"));
}

#[test]
fn cli_reports_friendly_errors() {
    assert!(run(&["noise", "/nonexistent/deck.sp"])
        .unwrap_err()
        .contains("cannot read"));
    assert!(run(&["frobnicate"]).unwrap_err().contains("unknown command"));
    let help = run(&["--help"]).unwrap();
    assert!(help.contains("USAGE"));
}

#[test]
fn degraded_and_strict_modes_round_trip_through_the_cli() {
    let dir = TempDir::new("strict");
    let deck = write_sample_deck(&dir.0);
    let deck_str = deck.to_str().expect("utf-8 path");

    // A healthy ramp-driven run is not degraded (exit code 0).
    let clean = run_full(&["noise", deck_str]).expect("clean run");
    assert!(!clean.degraded);

    // An ideal step defeats metric II's eq.-54 seeding: the run completes
    // on a fallback rung, says so, and flags itself for exit code 2.
    let fallback = run_full(&["noise", deck_str, "--shape", "step"]).expect("degraded run");
    assert!(fallback.degraded);
    assert!(fallback.report.contains("degraded to metric I"), "{}", fallback.report);

    // --strict turns the same degradation into a hard error (exit code 1).
    let err = run_full(&["noise", deck_str, "--shape", "step", "--strict"]).unwrap_err();
    assert!(err.contains("strict policy forbids degradation"), "{err}");

    // --strict parses and stays clean on the healthy run.
    let strict_clean = run_full(&["noise", deck_str, "--strict"]).expect("strict clean run");
    assert!(!strict_clean.degraded);
}

#[test]
fn golden_cross_check_agrees_with_estimate() {
    let dir = TempDir::new("golden");
    let deck = write_sample_deck(&dir.0);
    let out = run(&["noise", deck.to_str().unwrap(), "--golden"]).unwrap();
    // The simulated row carries a percentage error; it should be a sane
    // double-digit number, not hundreds of percent.
    let pct: f64 = out
        .lines()
        .find(|l| l.contains("(simulated)"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|t| t.trim_end_matches('%').parse().ok())
        .expect("percentage parses");
    assert!(pct.abs() < 100.0, "estimate vs golden off by {pct}%");
}
