//! `xtalk lambda` measures its golden peaks through the tiered golden, so
//! it honors `--sim` and `--fast-tier`: under adaptive/auto every golden
//! run is counted, and each resolves to an analytic hit or a counted
//! fallback to the transient simulator.
//!
//! This file holds exactly one `#[test]`: the metrics registry and the
//! golden-tier switches are process-global.

use std::fs;
use std::path::PathBuf;

/// A temp directory of the test's own, removed when the guard drops.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn lambda_counts_its_golden_runs_through_the_fast_tier() {
    let dir = TempDir(std::env::temp_dir().join(format!("xtalk-lambda-{}", std::process::id())));
    fs::create_dir_all(&dir.0).expect("temp dir");
    let full = dir.0.join("lambda-full.json");
    let argv: Vec<String> = [
        "lambda",
        "--cases",
        "8",
        "--sim",
        "adaptive",
        "--fast-tier",
        "auto",
        "--metrics-full-out",
        &full.to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = xtalk_cli::run(&argv).expect("lambda runs");
    assert!(out.report.contains("λ ablation"), "{}", out.report);

    let json = fs::read_to_string(&full).expect("full metrics written");
    let snap = xtalk_obs::json::parse(&json).expect("metrics JSON parses");
    let counter = |name: &str| {
        snap.get("counters")
            .and_then(|c| c.get(name))
            .and_then(xtalk_obs::json::Value::as_f64)
            .unwrap_or(0.0)
    };
    let runs = counter("sim.golden.runs");
    assert!(runs > 0.0, "no golden run counted: {json}");
    assert_eq!(
        counter("sim.fast_tier.hits") + counter("sim.fast_tier.fallback"),
        runs,
        "{json}"
    );
}
