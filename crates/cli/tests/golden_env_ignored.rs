//! The golden tier is switched by `--sim` and `--fast-tier` alone: a
//! child `xtalk` with `XTALK_SIM=adaptive XTALK_FAST_TIER=auto` in its
//! environment and neither flag on its command line still steps fixed
//! with the analytic tier off.

use std::fs;
use std::process::Command;

const XTALK: &str = env!("CARGO_BIN_EXE_xtalk");

#[test]
fn golden_tier_ignores_the_environment() {
    let dir = std::env::temp_dir().join(format!("xtalk-golden-env-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    let full = dir.join("lambda-full.json");
    let out = Command::new(XTALK)
        .args(["lambda", "--cases", "8", "--metrics-full-out"])
        .arg(&full)
        .env("XTALK_SIM", "adaptive")
        .env("XTALK_FAST_TIER", "auto")
        .output()
        .expect("spawn xtalk lambda");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let json = fs::read_to_string(&full).expect("full metrics written");
    fs::remove_dir_all(&dir).ok();
    let snap = xtalk_obs::json::parse(&json).expect("metrics JSON parses");
    let counters = snap.get("counters").expect("counters");
    assert_eq!(
        counters
            .get("sim.golden.runs")
            .and_then(xtalk_obs::json::Value::as_f64),
        Some(8.0),
        "{json}"
    );
    for prefix in ["sim.adaptive.", "sim.fast_tier."] {
        assert!(
            !json.contains(&format!("\"{prefix}")),
            "{prefix}* in {json}"
        );
    }
}
