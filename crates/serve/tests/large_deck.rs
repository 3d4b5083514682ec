//! A deck at the daemon's element limit is served in bounded memory.
//!
//! Two coupled 19 990-segment RC chains (39 982 nodes) fit under
//! [`deck_limits`] and the default 4 MiB request cap. The moment engine
//! solves such a network in `O(n)` time and memory; a dense `n × n`
//! conductance matrix alone would need 12.8 GB. The request must get an
//! `ok` reply while the process's peak resident set (`VmHWM`) stays
//! under 256 MB.
//!
//! This file holds exactly one `#[test]`, so the peak belongs to this
//! request alone.

use std::time::Instant;
use xtalk_circuit::{spice, NetRole, Network, NetworkBuilder};
use xtalk_serve::engine::{deck_limits, run_analyze, RequestTrace};
use xtalk_serve::{json, parse_request, Request, ServeConfig};
use xtalk_sim::SimWorkspace;

const SEGMENTS: usize = 19_990;
const PEAK_RSS_LIMIT_BYTES: u64 = 256 << 20;

/// A victim and an aggressor chain of [`SEGMENTS`] segments each, every
/// segment node grounded and coupled to its twin.
fn coupled_chains() -> Network {
    let mut b = NetworkBuilder::new();
    let v = b.add_net("victim", NetRole::Victim);
    let a = b.add_net("agg", NetRole::Aggressor);
    let mut vp = b.add_node(v, "v0");
    let mut ap = b.add_node(a, "a0");
    b.add_driver(v, vp, 200.0).unwrap();
    b.add_driver(a, ap, 150.0).unwrap();
    for i in 1..=SEGMENTS {
        let vn = b.add_node(v, format!("v{i}"));
        let an = b.add_node(a, format!("a{i}"));
        b.add_resistor(vp, vn, 0.05).unwrap();
        b.add_resistor(ap, an, 0.05).unwrap();
        b.add_ground_cap(vn, 0.05e-15).unwrap();
        b.add_ground_cap(an, 0.05e-15).unwrap();
        b.add_coupling_cap(vn, an, 0.04e-15).unwrap();
        vp = vn;
        ap = an;
    }
    b.add_sink(vp, 10e-15).unwrap();
    b.add_sink(ap, 10e-15).unwrap();
    b.set_victim_output(vp);
    b.build().unwrap()
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn a_deck_at_the_element_limit_is_served_in_bounded_memory() {
    let deck = spice::write_deck(&coupled_chains());
    let limits = deck_limits();
    let cards = deck.lines().filter(|l| !l.starts_with(['*', '.'])).count();
    assert!(
        deck.lines().count() <= limits.max_lines,
        "deck over the line limit"
    );
    assert!(
        cards <= limits.max_elements && cards > limits.max_elements * 99 / 100,
        "{cards} element cards: not at the element limit"
    );
    let mut line = String::from("{\"id\":1,\"type\":\"analyze\",\"deck\":");
    json::write_escaped(&mut line, &deck);
    line.push('}');
    assert!(line.len() < ServeConfig::default().max_request_bytes);
    drop(deck);

    let (id, parsed) = parse_request(&line);
    let Ok(Request::Analyze(req)) = parsed else {
        panic!("request does not parse: {parsed:?}");
    };
    let reply = run_analyze(
        &id,
        &req,
        Instant::now(),
        &mut SimWorkspace::new(),
        &mut RequestTrace::default(),
    );
    assert!(
        reply.contains("\"status\":\"ok\""),
        "{}",
        &reply[..reply.len().min(400)]
    );
    assert!(reply.contains("\"rung\":\"metric II\""), "{reply}");

    match peak_rss_bytes() {
        Some(peak) => assert!(peak < PEAK_RSS_LIMIT_BYTES, "peak RSS {} MB", peak >> 20),
        None => eprintln!("no /proc/self/status: peak RSS not checked"),
    }
}
