//! Byte-for-byte reply fixture for the request ingest path.
//!
//! 48 seeded decks, 16 from each sweep family the `serve_mixed` benchmark
//! draws from (two-pin far-end, two-pin near-end, coupled trees; sweep
//! seed 4 with 20 % corners, as `serve_mixed --seed 3`), are written as
//! analyze request lines and run through `parse_request` and
//! `run_analyze` in process. The mix covers plain requests, `golden:
//! true`, `shape: "step"`, and aggressor filters that match a net and
//! that match none. Every reply, with its `elapsed_ms` field removed, must
//! equal the matching line of `fixtures/analyze_replies.ndjson` byte for
//! byte: JSON parsing, deck tokenizing, node interning, net resolution and
//! network building may get faster, never different. On a mismatch the
//! full output is written to the system temp directory for inspection.

use std::time::Instant;
use xtalk_circuit::spice;
use xtalk_exec::Jobs;
use xtalk_serve::engine::{run_analyze, RequestTrace};
use xtalk_serve::{json, parse_request, Request};
use xtalk_sim::{set_fast_tier_override, set_sim_mode_override, FastTier, SimMode, SimWorkspace};
use xtalk_tech::sweep::{tree_cases_jobs, two_pin_cases_jobs, SweepConfig};
use xtalk_tech::{CouplingDirection, Technology};

const PER_FAMILY: usize = 16;
const FIXTURE: &str = include_str!("fixtures/analyze_replies.ndjson");

/// One analyze request line per deck, with the flag mix described above.
fn request_lines() -> Vec<String> {
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
        .enumerate()
        .map(|(k, case)| {
            let mut line = format!("{{\"id\":{k},\"type\":\"analyze\",\"deck\":");
            json::write_escaped(&mut line, &spice::write_deck(&case.network));
            if k % 6 == 0 {
                line.push_str(",\"golden\":true");
            }
            if k % 8 == 3 {
                line.push_str(",\"shape\":\"step\"");
            }
            match k % 10 {
                2 => {
                    let (_, net) = case
                        .network
                        .aggressor_nets()
                        .next()
                        .expect("sweep cases have an aggressor");
                    line.push_str(",\"aggressor\":");
                    json::write_escaped(&mut line, net.name());
                }
                7 => line.push_str(",\"aggressor\":\"no_such_net\""),
                _ => {}
            }
            line.push('}');
            line
        })
        .collect()
}

/// `reply` without its `,"elapsed_ms":<number>` member.
fn strip_elapsed(reply: &str) -> String {
    const KEY: &str = ",\"elapsed_ms\":";
    let Some(at) = reply.find(KEY) else {
        return reply.to_string();
    };
    let rest = &reply[at + KEY.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    format!("{}{}", &reply[..at], &rest[end..])
}

#[test]
fn analyze_replies_match_the_fixture_byte_for_byte() {
    // Pin the golden tier the way the benchmark does, so `XTALK_SIM` and
    // `XTALK_FAST_TIER` in the environment cannot move the golden rows.
    set_sim_mode_override(SimMode::Adaptive);
    set_fast_tier_override(FastTier::Auto);
    let mut ws = SimWorkspace::new();
    let replies: Vec<String> = request_lines()
        .iter()
        .map(|line| {
            let (id, parsed) = parse_request(line);
            let Ok(Request::Analyze(req)) = parsed else {
                panic!("request {} does not parse: {parsed:?}", id.as_json());
            };
            let mut trace = RequestTrace::default();
            strip_elapsed(&run_analyze(&id, &req, Instant::now(), &mut ws, &mut trace))
        })
        .collect();
    let expected: Vec<&str> = FIXTURE.lines().collect();
    if replies != expected {
        let actual = std::env::temp_dir().join(format!(
            "analyze_replies.actual.{}.ndjson",
            std::process::id()
        ));
        std::fs::write(&actual, replies.join("\n") + "\n").expect("actual output written");
        eprintln!("full output in {}", actual.display());
    }
    assert_eq!(replies.len(), expected.len(), "reply count");
    for (k, (got, want)) in replies.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "reply {k} differs from the fixture");
    }
    // The mix reaches every reply feature the fixture is meant to pin.
    for needle in [
        "\"golden\":{",
        "\"rung\":\"metric I (m = 1)\"",
        "\"rows\":[]",
    ] {
        assert!(FIXTURE.contains(needle), "fixture lacks {needle}");
    }
}

#[test]
fn strip_elapsed_removes_only_that_member() {
    assert_eq!(
        strip_elapsed("{\"id\":1,\"rows\":[],\"elapsed_ms\":0.123,\"deadline\":{}}"),
        "{\"id\":1,\"rows\":[],\"deadline\":{}}"
    );
    assert_eq!(
        strip_elapsed("{\"id\":1,\"elapsed_ms\":12.000}"),
        "{\"id\":1}"
    );
}
