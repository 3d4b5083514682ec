//! Byte-for-byte fixture for the ranked screen JSON.
//!
//! One 34-net deck (`PexDeckSpec::new(2, 17, 3)`: two buses of 17 lanes,
//! weak drivers included) is screened at one worker in three
//! configurations: a ramp with golden escalation on the fixed/off golden
//! tier, the same on the adaptive/auto tier, and an ideal step with
//! escalation off. Each [`ScreenReport::to_json`] must equal its block of
//! `fixtures/screen_reports.txt` byte for byte; on a mismatch the full
//! output is written to the system temp directory for inspection.
//!
//! This file holds exactly one `#[test]`: the golden-tier overrides are
//! process-global.

use std::fmt::Write as _;
use xtalk_circuit::signal::Shape;
use xtalk_eval::screen::{screen_deck, ScreenConfig};
use xtalk_exec::Jobs;
use xtalk_sim::{set_fast_tier_override, set_sim_mode_override, FastTier, SimMode};
use xtalk_tech::{PexDeckSpec, Technology};

const FIXTURE: &str = include_str!("fixtures/screen_reports.txt");

#[test]
fn screen_json_matches_the_fixture_byte_for_byte() {
    let deck = PexDeckSpec::new(2, 17, 3).deck_string(&Technology::p25());
    let serial = ScreenConfig {
        jobs: Jobs::Count(1),
        ..ScreenConfig::default()
    };
    let runs = [
        (
            "ramp, escalation, fixed/off",
            SimMode::Fixed,
            FastTier::Off,
            serial.clone(),
        ),
        (
            "ramp, escalation, adaptive/auto",
            SimMode::Adaptive,
            FastTier::Auto,
            serial.clone(),
        ),
        (
            "step, no escalation",
            SimMode::Fixed,
            FastTier::Off,
            ScreenConfig {
                shape: Shape::Step,
                escalate: false,
                ..serial
            },
        ),
    ];
    let mut got = String::new();
    for (label, mode, tier, config) in runs {
        set_sim_mode_override(mode);
        set_fast_tier_override(tier);
        let report = screen_deck(deck.as_bytes(), &config).expect("deck screens");
        let _ = writeln!(got, "== {label}");
        got.push_str(&report.to_json());
    }
    if got == FIXTURE {
        return;
    }
    let actual =
        std::env::temp_dir().join(format!("screen_reports.actual.{}.txt", std::process::id()));
    std::fs::write(&actual, &got).expect("actual output written");
    let mut header = "";
    for (line, (g, w)) in got.lines().zip(FIXTURE.lines()).enumerate() {
        if g.starts_with("== ") {
            header = g;
        }
        assert_eq!(
            g,
            w,
            "line {} differs (in run {header:?}); full output in {}",
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
