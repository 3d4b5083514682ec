//! `xtalk noise --golden` runs the tiered golden cross-check that `serve`
//! and `screen` use: a slowly decaying tail gets the horizon retries, and
//! a cross-check that fails degrades its row (exit code 2) instead of
//! aborting the report.

use std::fs;
use std::path::{Path, PathBuf};
use xtalk_circuit::{spice, NetRole, NetworkBuilder};

/// A two-net deck: the command-line smoke deck with `coupling` farads
/// between the aggressor sink and the victim output.
fn smoke_deck(coupling: &str) -> String {
    format!(
        "* coupled RC network smoke deck\n\
         *! net 0 victim victim\n\
         *! net 1 aggressor agg0\n\
         *! output n1\n\
         VDRV0 src0 0 DC 0\n\
         RDRV0 src0 n0 300\n\
         VDRV1 src1 0 DC 0\n\
         RDRV1 src1 n2 150\n\
         R0 n0 n1 60\n\
         C0 n0 0 2e-15\n\
         C1 n1 0 8e-15\n\
         CL0 n1 0 12e-15\n\
         CL1 n2 0 10e-15\n\
         CC0 n2 n1 {coupling}\n\
         .end\n"
    )
}

/// Two 12-segment ladders coupled at every other segment: with a 10 ns
/// exponential edge its noise tail outlasts the automatic horizon.
fn slow_ladder_deck() -> String {
    let mut b = NetworkBuilder::new();
    let v = b.add_net("v", NetRole::Victim);
    let a = b.add_net("a", NetRole::Aggressor);
    let mut prev_v = b.add_node(v, "v0");
    let mut prev_a = b.add_node(a, "a0");
    b.add_driver(v, prev_v, 120.0).unwrap();
    b.add_driver(a, prev_a, 90.0).unwrap();
    for i in 1..=12 {
        let nv = b.add_node(v, format!("v{i}"));
        let na = b.add_node(a, format!("a{i}"));
        b.add_resistor(prev_v, nv, 15.0).unwrap();
        b.add_resistor(prev_a, na, 12.0).unwrap();
        b.add_ground_cap(nv, 2e-15).unwrap();
        b.add_ground_cap(na, 2e-15).unwrap();
        if i % 2 == 0 {
            b.add_coupling_cap(nv, na, 4e-15).unwrap();
        }
        prev_v = nv;
        prev_a = na;
    }
    b.add_sink(prev_v, 8e-15).unwrap();
    b.add_sink(prev_a, 6e-15).unwrap();
    spice::write_deck(&b.build().unwrap())
}

/// A deck written into a temp directory of the test's own, which is
/// removed when the guard drops, so a failing test cleans up as well.
struct TempDeck {
    dir: PathBuf,
    path: PathBuf,
}

impl TempDeck {
    fn new(test: &str, deck: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("xtalk-noise-golden-{}-{test}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("deck.sp");
        fs::write(&path, deck).expect("deck written");
        TempDeck { dir, path }
    }
}

impl Drop for TempDeck {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.dir).ok();
    }
}

fn noise(path: &Path, flags: &[&str]) -> Result<xtalk_cli::RunOutcome, String> {
    let mut argv = vec!["noise".to_string(), path.to_string_lossy().into_owned()];
    argv.extend(flags.iter().map(|f| f.to_string()));
    xtalk_cli::run(&argv).map_err(|e| e.to_string())
}

#[test]
fn slow_tails_get_the_horizon_retries() {
    let deck = TempDeck::new("ladder", &slow_ladder_deck());
    let out = noise(&deck.path, &["--golden", "--shape", "exp", "--slew", "10n"])
        .expect("the truncated first horizon is retried, not fatal");
    assert!(!out.degraded, "{}", out.report);
    let simulated = out
        .report
        .lines()
        .find(|l| l.starts_with("  (simulated)"))
        .unwrap_or_else(|| panic!("no simulated row:\n{}", out.report));
    assert!(simulated.ends_with('%'), "{simulated}");
}

#[test]
fn a_failed_cross_check_degrades_its_row() {
    // 1e-23 F of coupling: the closed form still answers (a vanishing
    // peak), but the simulated waveform has no measurable pulse.
    let deck = TempDeck::new("tiny", &smoke_deck("1e-23"));
    let out = noise(&deck.path, &["--golden"]).expect("the report completes");
    assert!(out.degraded, "a failed cross-check means exit code 2");
    let lines: Vec<&str> = out.report.lines().collect();
    let row = lines
        .iter()
        .position(|l| l.starts_with("agg0 "))
        .unwrap_or_else(|| panic!("no estimate row:\n{}", out.report));
    assert!(
        lines[row + 1].contains("golden cross-check failed: waveform contains no measurable"),
        "{}",
        out.report
    );
    assert!(out.report.contains("exit code 2"), "{}", out.report);
}

#[test]
fn golden_rows_are_identical_at_every_job_count() {
    // A victim with three coupled aggressors: three golden runs to fan out.
    let mut b = NetworkBuilder::new();
    let v = b.add_net("victim", NetRole::Victim);
    let v0 = b.add_node(v, "v0");
    let v1 = b.add_node(v, "v1");
    b.add_driver(v, v0, 300.0).unwrap();
    b.add_resistor(v0, v1, 60.0).unwrap();
    b.add_sink(v1, 12e-15).unwrap();
    for k in 0..3 {
        let a = b.add_net(format!("agg{k}"), NetRole::Aggressor);
        let a0 = b.add_node(a, format!("a{k}"));
        b.add_driver(a, a0, 100.0 + 50.0 * k as f64).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        b.add_coupling_cap(a0, if k == 1 { v0 } else { v1 }, 10e-15)
            .unwrap();
    }
    let deck = TempDeck::new("three", &spice::write_deck(&b.build().unwrap()));
    let serial = noise(&deck.path, &["--golden", "--jobs", "1"]).expect("serial run");
    let parallel = noise(&deck.path, &["--golden", "--jobs", "3"]).expect("parallel run");
    assert_eq!(serial.report, parallel.report);
    assert_eq!(
        serial.report.matches("(simulated)").count(),
        3,
        "{}",
        serial.report
    );
}
