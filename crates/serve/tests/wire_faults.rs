//! Wire-level fault injection against a live daemon.
//!
//! The in-crate unit tests cover each robustness layer in isolation;
//! this suite replays the whole hostile world over a real socket: the
//! corrupted-deck catalog from `crates/core/tests/fault_injection.rs`
//! (reproduced at the deck level — the wire protocol's attack surface),
//! garbage JSON, schema violations, oversized requests, deliberate
//! worker panics, expired deadlines, mid-stream disconnects, and
//! concurrent clients. The invariants under test everywhere:
//!
//! 1. the daemon never exits or stops answering,
//! 2. every admitted request line gets exactly one reply,
//! 3. replies leave each connection in request order,
//! 4. every degraded/failed reply carries structured provenance
//!    (a `code`, or per-row rung/failure details).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;
use xtalk_serve::json::{self, Value};
use xtalk_serve::{ServeConfig, Server};
use xtalk_exec::Jobs;

/// A healthy two-pin deck in the exporter subset (mirrors the golden
/// template in the core fault-injection suite).
const GOOD_DECK: &str = "\
* two-pin pair
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

/// A one-node victim under a 1 pΩ aggressor driver: the aggressor node
/// follows its source, so the victim's two-pole fit has a single pole,
/// and a step into it has no rising flank the analytic tier can measure.
const SINGLE_POLE_DECK: &str = "\
* one-pole pair
*! net 0 victim victim
*! net 1 aggressor agg0
*! output n0
VDRV0 src0 0 DC 0
RDRV0 src0 n0 300
VDRV1 src1 0 DC 0
RDRV1 src1 n2 1e-12
CL0 n0 0 12e-15
CL1 n2 0 10e-15
CC0 n2 n0 25e-15
.end
";

/// The corrupted-deck catalog, at the wire's level of abstraction.
fn deck_faults() -> Vec<(&'static str, String)> {
    vec![
        ("empty deck", String::new()),
        ("garbage deck", "not a deck at all\n\u{1}\n".to_string()),
        ("deck with NaN value", GOOD_DECK.replace("60", "NaN")),
        ("deck with negated cap", GOOD_DECK.replace("25e-15", "-25e-15")),
        (
            "deck with truncated card",
            GOOD_DECK.replace("R0 n0 n1 60", "R0 n0"),
        ),
        (
            "deck with duplicate card",
            GOOD_DECK.replace("R0 n0 n1 60", "R0 n0 n1 60\nR0 n0 n1 60"),
        ),
        (
            "deck missing output directive",
            GOOD_DECK.replace("*! output n1\n", ""),
        ),
        (
            "deck referencing an undefined node",
            GOOD_DECK.replace("CC0 n2 n1 25e-15", "CC0 n2 n99 25e-15"),
        ),
        (
            "deck with zeroed victim driver",
            GOOD_DECK.replace("RDRV0 src0 n0 300", "RDRV0 src0 n0 0"),
        ),
        (
            "deck with negated wire resistance",
            GOOD_DECK.replace("R0 n0 n1 60", "R0 n0 n1 -60"),
        ),
        (
            "deck with infinite coupling",
            GOOD_DECK.replace("CC0 n2 n1 25e-15", "CC0 n2 n1 inf"),
        ),
        (
            "deck with zeroed ground caps",
            GOOD_DECK.replace("C0 n0 0 2e-15", "C0 n0 0 0").replace("C1 n1 0 8e-15", "C1 n1 0 0"),
        ),
    ]
}

fn analyze_line(id: usize, deck: &str, extra: &str) -> String {
    let mut line = format!("{{\"id\":{id},\"type\":\"analyze\",\"deck\":");
    json::write_escaped(&mut line, deck);
    line.push_str(extra);
    line.push('}');
    line
}

/// Boots a daemon with a TCP accept loop; returns it with the address
/// and the acceptor join handle (exits on shutdown).
fn start(config: ServeConfig) -> (Server, SocketAddr, thread::JoinHandle<()>) {
    let server = Server::new(config);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = server.handle();
    let acceptor = thread::spawn(move || {
        listener.set_nonblocking(true).expect("nonblocking");
        loop {
            if handle.shutdown_requested() {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).expect("blocking");
                    stream
                        .set_read_timeout(Some(Duration::from_millis(20)))
                        .expect("timeout");
                    let writer = stream.try_clone().expect("clone");
                    let h = handle.clone();
                    thread::spawn(move || h.attach(&stream, writer));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("accept failed: {e}"),
            }
        }
    });
    (server, addr, acceptor)
}

fn stop(server: Server, acceptor: thread::JoinHandle<()>) -> xtalk_serve::ServeSummary {
    server.handle().request_shutdown();
    server.run_until_drained();
    let summary = server.finish();
    acceptor.join().expect("acceptor");
    summary
}

#[test]
fn fault_catalog_replay_keeps_the_daemon_answering() {
    let (server, addr, acceptor) = start(ServeConfig {
        jobs: Jobs::Count(2),
        allow_test_faults: true,
        ..ServeConfig::default()
    });

    // One request line per catalog entry, plus wire-native faults.
    let mut lines: Vec<String> = Vec::new();
    for (i, (_name, deck)) in deck_faults().into_iter().enumerate() {
        lines.push(analyze_line(i, &deck, ""));
    }
    let base = lines.len();
    lines.push(format!("{{\"id\":{base},\"type\":\"analyze\",\"deck\":\"x\",\"slew\":1e-30}}"));
    lines.push(analyze_line(base + 1, GOOD_DECK, ",\"slew\":1e30"));
    lines.push(analyze_line(base + 2, GOOD_DECK, ",\"shape\":\"step\""));
    lines.push(analyze_line(base + 3, GOOD_DECK, ",\"arrival\":-1.0"));
    lines.push("this is not json".to_string());
    lines.push(format!("{{\"id\":{},\"type\":\"frobnicate\"}}", base + 5));
    lines.push(format!("{{\"id\":{},\"type\":\"boom\"}}", base + 6));
    lines.push(analyze_line(base + 7, GOOD_DECK, ""));
    let total = lines.len();

    let client = TcpStream::connect(addr).expect("connect");
    let mut tx = client.try_clone().expect("clone");
    let lines_out = lines.clone();
    let sender = thread::spawn(move || {
        for line in &lines_out {
            tx.write_all(line.as_bytes()).expect("write");
            tx.write_all(b"\n").expect("write");
        }
        tx.flush().expect("flush");
    });
    let reader = BufReader::new(client.try_clone().expect("clone"));
    let replies: Vec<Value> = reader
        .lines()
        .take(total)
        .map(|l| json::parse(&l.expect("read")).expect("reply parses"))
        .collect();
    sender.join().expect("sender");

    assert_eq!(replies.len(), total, "one reply per request line");
    // Order: every id-bearing request's reply arrives at its own index.
    for (i, reply) in replies.iter().enumerate() {
        if let Some(id) = reply.get("id").and_then(Value::as_f64) {
            assert_eq!(id as usize, i, "reply out of order at index {i}");
        }
        // Structured provenance: every reply has a status; failures carry
        // a code and detail.
        let status = reply.get("status").and_then(Value::as_str).expect("status");
        if status == "error" {
            assert!(reply.get("code").and_then(Value::as_str).is_some());
            assert!(reply.get("detail").and_then(Value::as_str).is_some());
        }
        if status == "ok" || status == "degraded" {
            assert!(reply.get("rows").is_some(), "analysis reply without rows");
        }
    }
    // The deliberate panic was fenced...
    assert_eq!(
        replies[base + 6].get("code").and_then(Value::as_str),
        Some("panic")
    );
    // ...and the daemon still served the healthy case right after it.
    assert_eq!(
        replies[base + 7].get("status").and_then(Value::as_str),
        Some("ok")
    );
    drop(client);

    // The daemon is still healthy for a brand-new connection.
    let probe = TcpStream::connect(addr).expect("reconnect");
    let mut ptx = probe.try_clone().expect("clone");
    ptx.write_all(b"{\"id\":\"probe\",\"type\":\"ping\"}\n").expect("write");
    let mut line = String::new();
    BufReader::new(&probe).read_line(&mut line).expect("read");
    let pong = json::parse(line.trim_end()).expect("pong parses");
    assert_eq!(pong.get("type").and_then(Value::as_str), Some("pong"));
    drop(probe);

    let summary = stop(server, acceptor);
    assert_eq!(summary.panics_caught, 1);
}

/// Deadline-pinched golden requests over the wire: the analytic fast
/// tier rescues eligible cases (stamped `golden_tier: "analytic"`),
/// ineligible ones skip (`"skipped"`), and a comfortable budget gets
/// the full transient reference (`"transient"`).
#[test]
fn deadline_pressure_stamps_the_golden_tier() {
    let (server, addr, acceptor) = start(ServeConfig {
        jobs: Jobs::Count(1),
        ..ServeConfig::default()
    });

    let lines = [
        analyze_line(0, GOOD_DECK, ",\"golden\":true,\"deadline_ms\":30000"),
        analyze_line(1, GOOD_DECK, ",\"golden\":true,\"deadline_ms\":1e-3"),
        analyze_line(
            2,
            SINGLE_POLE_DECK,
            ",\"golden\":true,\"deadline_ms\":1e-3,\"shape\":\"step\"",
        ),
    ];
    let client = TcpStream::connect(addr).expect("connect");
    let mut tx = client.try_clone().expect("clone");
    for line in &lines {
        tx.write_all(line.as_bytes()).expect("write");
        tx.write_all(b"\n").expect("write");
    }
    tx.flush().expect("flush");
    let reader = BufReader::new(client.try_clone().expect("clone"));
    let replies: Vec<Value> = reader
        .lines()
        .take(lines.len())
        .map(|l| json::parse(&l.expect("read")).expect("reply parses"))
        .collect();

    let tier = |v: &Value| {
        v.get("deadline")
            .and_then(|d| d.get("golden_tier"))
            .and_then(Value::as_str)
            .map(str::to_string)
            .expect("golden_tier stamped")
    };
    assert_eq!(tier(&replies[0]), "transient", "{:?}", replies[0]);
    let row_tier = |v: &Value| {
        let Some(Value::Arr(rows)) = v.get("rows") else {
            panic!("rows missing")
        };
        rows[0]
            .get("golden")
            .and_then(|g| g.get("tier"))
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    assert_eq!(row_tier(&replies[0]).as_deref(), Some("transient"));

    // Expired budget + analytic-eligible deck: rescued, still degraded
    // (the deadline itself expired) but with a cross-check in hand.
    assert_eq!(tier(&replies[1]), "analytic", "{:?}", replies[1]);
    assert_eq!(row_tier(&replies[1]).as_deref(), Some("analytic"));
    assert_eq!(
        replies[1].get("status").and_then(Value::as_str),
        Some("degraded")
    );

    // Expired budget + a step into a single-pole fit: the fast tier
    // declines, the check is skipped, and the stamp says so.
    assert_eq!(tier(&replies[2]), "skipped", "{:?}", replies[2]);
    assert_eq!(row_tier(&replies[2]), None);
    assert_eq!(
        replies[2]
            .get("deadline")
            .and_then(|d| d.get("golden_skipped"))
            .and_then(Value::as_f64),
        Some(1.0)
    );

    drop(client);
    stop(server, acceptor);
}

#[test]
fn mid_stream_disconnect_does_not_poison_the_daemon() {
    let (server, addr, acceptor) = start(ServeConfig {
        jobs: Jobs::Count(1),
        ..ServeConfig::default()
    });

    {
        let mut rude = TcpStream::connect(addr).expect("connect");
        // Half a request line, then vanish.
        rude.write_all(b"{\"id\":1,\"type\":\"analyze\",\"deck\":\"incomple")
            .expect("write");
        rude.flush().expect("flush");
    }
    {
        let mut rude = TcpStream::connect(addr).expect("connect");
        // Three full requests, then vanish without reading any reply.
        for i in 0..3 {
            rude.write_all(analyze_line(i, GOOD_DECK, "").as_bytes())
                .expect("write");
            rude.write_all(b"\n").expect("write");
        }
        rude.flush().expect("flush");
    }

    // A polite client is served normally afterwards.
    let mut client = TcpStream::connect(addr).expect("connect");
    client
        .write_all(analyze_line(9, GOOD_DECK, "").as_bytes())
        .expect("write");
    client.write_all(b"\n").expect("write");
    let mut line = String::new();
    BufReader::new(client.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("read");
    let reply = json::parse(line.trim_end()).expect("parses");
    assert_eq!(reply.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(reply.get("id").and_then(Value::as_f64), Some(9.0));
    drop(client);

    // And the drain completes despite the two dead connections.
    stop(server, acceptor);
}

#[test]
fn concurrent_clients_each_see_ordered_replies() {
    let (server, addr, acceptor) = start(ServeConfig {
        jobs: Jobs::Count(4),
        queue_capacity: 512,
        ..ServeConfig::default()
    });

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 40;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || {
                let client = TcpStream::connect(addr).expect("connect");
                let mut tx = client.try_clone().expect("clone");
                let sender = thread::spawn(move || {
                    for i in 0..PER_CLIENT {
                        let id = c * 1000 + i;
                        // Interleave healthy, malformed, and schema-bad
                        // requests so worker timing varies per client.
                        let line = match i % 3 {
                            0 => analyze_line(id, GOOD_DECK, ""),
                            1 => format!("{{\"id\":{id},\"type\":\"ping\"}}"),
                            _ => format!("{{\"id\":{id},\"type\":\"analyze\"}}"),
                        };
                        tx.write_all(line.as_bytes()).expect("write");
                        tx.write_all(b"\n").expect("write");
                    }
                    tx.flush().expect("flush");
                });
                let reader = BufReader::new(client);
                let ids: Vec<usize> = reader
                    .lines()
                    .take(PER_CLIENT)
                    .map(|l| {
                        json::parse(&l.expect("read"))
                            .expect("parses")
                            .get("id")
                            .and_then(Value::as_f64)
                            .expect("id echoed") as usize
                    })
                    .collect();
                sender.join().expect("sender");
                (c, ids)
            })
        })
        .collect();
    for w in workers {
        let (c, ids) = w.join().expect("client");
        let expected: Vec<usize> = (0..PER_CLIENT).map(|i| c * 1000 + i).collect();
        assert_eq!(ids, expected, "client {c} saw interleaved/reordered replies");
    }
    stop(server, acceptor);
}

/// The acceptance-criteria soak: one daemon process, ≥1000 mixed
/// requests including every fault-catalog case, deliberate panics, and
/// deadline-expired cases — without exiting, leaking queue slots, or
/// losing reply ordering.
#[test]
fn soak_one_thousand_mixed_requests_on_one_daemon() {
    // Capacity above the batch size: this test pins down exact panic
    // and degradation counts, so nothing may shed (backpressure has its
    // own tests with a starved queue).
    let (server, addr, acceptor) = start(ServeConfig {
        jobs: Jobs::Count(4),
        queue_capacity: 2048,
        allow_test_faults: true,
        ..ServeConfig::default()
    });

    let faults = deck_faults();
    const TOTAL: usize = 1000;
    let lines: Vec<String> = (0..TOTAL)
        .map(|i| match i % 10 {
            // Deliberate worker panic, every 10th request.
            9 => format!("{{\"id\":{i},\"type\":\"boom\"}}"),
            // Deadline already expired when the worker picks it up:
            // golden is skipped, reply degrades with provenance.
            8 => analyze_line(i, GOOD_DECK, ",\"golden\":true,\"deadline_ms\":1e-3"),
            // Garbage JSON (still answered, with a null id).
            7 => "][ not json".to_string(),
            // A rotating corrupted deck from the catalog.
            4..=6 => analyze_line(i, &faults[i % faults.len()].1, ""),
            // Healthy closed-form work.
            _ => analyze_line(i, GOOD_DECK, ""),
        })
        .collect();

    let client = TcpStream::connect(addr).expect("connect");
    let mut tx = client.try_clone().expect("clone");
    let lines_out = lines.clone();
    let sender = thread::spawn(move || {
        for line in &lines_out {
            tx.write_all(line.as_bytes()).expect("write");
            tx.write_all(b"\n").expect("write");
        }
        tx.flush().expect("flush");
    });
    let reader = BufReader::new(client.try_clone().expect("clone"));
    let replies: Vec<Value> = reader
        .lines()
        .take(TOTAL)
        .map(|l| json::parse(&l.expect("read")).expect("reply parses"))
        .collect();
    sender.join().expect("sender");

    assert_eq!(replies.len(), TOTAL, "every request got exactly one reply");
    let mut panics = 0u64;
    let mut degraded = 0u64;
    let mut overloaded = 0u64;
    // Replies produced by the connection reader itself (malformed JSON,
    // schema rejections) never reach the worker pool.
    let mut reader_handled = 0u64;
    for (i, reply) in replies.iter().enumerate() {
        let status = reply.get("status").and_then(Value::as_str).expect("status");
        match i % 10 {
            7 => assert_eq!(
                reply.get("id").and_then(|v| v.as_f64()),
                None,
                "garbage JSON cannot echo an id"
            ),
            _ => {
                // Ordering: reply i carries id i (or was shed with the
                // same id — still one reply, still in order).
                assert_eq!(
                    reply.get("id").and_then(Value::as_f64),
                    Some(i as f64),
                    "reply out of order at index {i} (status {status})"
                );
            }
        }
        match status {
            "error" => {
                let code = reply.get("code").and_then(Value::as_str).expect("code");
                if code == "panic" {
                    panics += 1;
                }
                if code == "bad_json" || code == "schema" {
                    reader_handled += 1;
                }
                assert!(reply.get("detail").and_then(Value::as_str).is_some());
            }
            "degraded" => {
                degraded += 1;
                // Structured provenance: either the deadline block says
                // what was skipped, or a row names its fallback rung.
                let deadline_says = reply
                    .get("deadline")
                    .map(|d| {
                        d.get("expired").and_then(Value::as_bool) == Some(true)
                            || d.get("golden_skipped").and_then(Value::as_f64).unwrap_or(0.0)
                                > 0.0
                    })
                    .unwrap_or(false);
                let row_says = matches!(reply.get("rows"), Some(Value::Arr(rows)) if rows
                    .iter()
                    .any(|r| r.get("degraded").and_then(Value::as_bool) == Some(true)
                        || r.get("error").is_some()));
                assert!(
                    deadline_says || row_says,
                    "degraded reply {i} carries no provenance"
                );
            }
            "overloaded" => {
                overloaded += 1;
                assert!(reply.get("retry_after_ms").and_then(Value::as_f64).is_some());
            }
            "ok" => {}
            other => panic!("unexpected status {other:?} at index {i}"),
        }
    }
    assert_eq!(panics, (TOTAL / 10) as u64, "every boom was fenced");
    assert!(degraded >= (TOTAL / 10) as u64, "deadline cases degraded");
    assert_eq!(overloaded, 0, "nothing may shed below capacity");

    // Queue slots did not leak: the daemon drains to empty and reports
    // exactly the work it did — every queueable line reached a worker
    // (garbage JSON is answered by the connection reader instead).
    drop(client);
    let summary = stop(server, acceptor);
    assert_eq!(summary.panics_caught, (TOTAL / 10) as u64);
    assert_eq!(summary.shed, 0);
    // Every request the reader did not answer itself reached a worker
    // and was served — no queue slot was leaked or double-counted.
    assert_eq!(summary.served, TOTAL as u64 - reader_handled);
}

#[test]
fn shutdown_rejects_new_requests_with_a_structured_reply() {
    let (server, addr, acceptor) = start(ServeConfig::default());
    let mut client = TcpStream::connect(addr).expect("connect");
    server.handle().request_shutdown();
    // The connection reader may notice shutdown and close before parsing
    // our line; both "shutting_down reply" and "clean disconnect" are
    // acceptable — what is not acceptable is a hung client or a served
    // request after shutdown.
    client
        .write_all(analyze_line(1, GOOD_DECK, "").as_bytes())
        .expect("write");
    client.write_all(b"\n").expect("write");
    let mut line = String::new();
    // A connection-reset error also counts as "disconnected": the
    // acceptor may already have dropped the listener with this
    // connection still in its backlog.
    match BufReader::new(client.try_clone().expect("clone")).read_line(&mut line) {
        Ok(n) if n > 0 => {
            let reply = json::parse(line.trim_end()).expect("parses");
            assert_eq!(
                reply.get("code").and_then(Value::as_str),
                Some("shutting_down")
            );
        }
        Ok(_) | Err(_) => {}
    }
    drop(client);
    server.run_until_drained();
    let summary = server.finish();
    acceptor.join().expect("acceptor");
    assert_eq!(summary.served, 0);
}
