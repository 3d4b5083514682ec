//! `xtalk noise --golden` honors the process-wide golden-tier switches:
//! with `--fast-tier auto` the smoke deck's single cross-check is one
//! golden run answered by the analytic tier, and both counters reach the
//! full metrics snapshot.
//!
//! This file holds exactly one `#[test]`: the metrics registry and the
//! fast-tier override are process-global.

use std::fs;

const SMOKE_DECK: &str = "\
* coupled RC network smoke deck
*! net 0 victim victim
*! net 1 aggressor agg0
*! output n1
VDRV0 src0 0 DC 0
RDRV0 src0 n0 300
VDRV1 src1 0 DC 0
RDRV1 src1 n2 150
R0 n0 n1 60
C0 n0 0 2e-15
C1 n1 0 8e-15
CL0 n1 0 12e-15
CL1 n2 0 10e-15
CC0 n2 n1 25e-15
.end
";

#[test]
fn golden_cross_check_takes_the_analytic_tier_on_auto() {
    let dir = std::env::temp_dir().join(format!("xtalk-noise-fast-tier-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    let deck = dir.join("deck.sp");
    fs::write(&deck, SMOKE_DECK).expect("deck written");
    let full = dir.join("noise-full.json");
    let argv: Vec<String> = [
        "noise",
        &deck.to_string_lossy(),
        "--golden",
        "--fast-tier",
        "auto",
        "--metrics-full-out",
        &full.to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = xtalk_cli::run(&argv).expect("noise runs");
    assert!(!out.degraded, "{}", out.report);
    assert!(out.report.contains("(simulated)"), "{}", out.report);

    let json = fs::read_to_string(&full).expect("full metrics written");
    let snap = xtalk_obs::json::parse(&json).expect("metrics JSON parses");
    let counter = |name: &str| {
        snap.get("counters")
            .and_then(|c| c.get(name))
            .and_then(xtalk_obs::json::Value::as_f64)
    };
    assert_eq!(counter("sim.golden.runs"), Some(1.0), "{json}");
    assert_eq!(counter("sim.fast_tier.hits"), Some(1.0), "{json}");
    fs::remove_dir_all(&dir).ok();
}
