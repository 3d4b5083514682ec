//! `xtalk audit` measures its reference golden with the fixed march and
//! the fast tier off, whatever `--sim` and `--fast-tier` say: the
//! adaptive and analytic invariant families hold those tiers against
//! that reference, so a reference that followed the switches would
//! compare a tier with itself or hold a transient run to an analytic
//! one. Both runs must find no violation and write the same JSON.
//!
//! This file holds exactly one `#[test]`: the golden-tier switches are
//! process-global.

use std::fs;
use std::path::{Path, PathBuf};

/// A temp directory of the test's own, removed when the guard drops.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

/// Runs `audit --cases 8 --seed 1` under the given switches and returns
/// the JSON report.
fn audit_json(dir: &Path, sim: &str, fast_tier: &str) -> String {
    let json = dir.join(format!("audit-{sim}-{fast_tier}.json"));
    let argv: Vec<String> = [
        "audit",
        "--cases",
        "8",
        "--seed",
        "1",
        "--sim",
        sim,
        "--fast-tier",
        fast_tier,
        "--json",
        &json.to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = xtalk_cli::run(&argv).expect("audit runs");
    assert!(
        !out.violations,
        "--sim {sim} --fast-tier {fast_tier}:\n{}",
        out.report
    );
    fs::read_to_string(&json).expect("audit JSON written")
}

#[test]
fn audit_reference_ignores_the_golden_tier_switches() {
    let dir = TempDir(std::env::temp_dir().join(format!("xtalk-audit-ref-{}", std::process::id())));
    fs::create_dir_all(&dir.0).expect("temp dir");
    let reference = audit_json(&dir.0, "fixed", "off");
    let tiered = audit_json(&dir.0, "adaptive", "auto");
    assert_eq!(reference, tiered);
}
