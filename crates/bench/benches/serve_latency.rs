//! Daemon round-trip latency and throughput.
//!
//! Boots an in-process `xtalk-serve` daemon on a loopback TCP socket and
//! drives it with decks generated by the same seeded two-pin sweep
//! generator the throughput benches use:
//!
//! 1. **closed loop** — one request in flight at a time; per-request
//!    round-trip times give mean/p50/p99 (the interactive-client view);
//! 2. **pipelined** — the whole batch written ahead of the reads
//!    (the batch-client view); requests/second over the batch.
//!
//! Results go to `BENCH_serve.json` at the repo root:
//!
//! ```json
//! {"requests":500,"jobs":4,"host_parallelism":4,
//!  "closed_loop":{"mean_us":210.0,"p50_us":190.0,"p99_us":540.0},
//!  "pipelined":{"total_s":0.05,"req_per_s":10000.0}}
//! ```
//!
//! Request count defaults to 500, overridable with `XTALK_BENCH_CASES`;
//! `-- --test` runs a tiny smoke batch and skips the JSON export.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};
use xtalk_exec::Jobs;
use xtalk_serve::{json, ServeConfig, Server};
use xtalk_tech::sweep::{two_pin_cases, SweepConfig};
use xtalk_tech::{CouplingDirection, Technology};

fn start(jobs: usize) -> (Server, SocketAddr, thread::JoinHandle<()>) {
    let server = Server::new(ServeConfig {
        jobs: Jobs::Count(jobs),
        queue_capacity: 4096,
        ..ServeConfig::default()
    });
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
                    stream.set_nodelay(true).expect("nodelay");
                    stream
                        .set_read_timeout(Some(Duration::from_millis(20)))
                        .expect("timeout");
                    let writer = stream.try_clone().expect("clone");
                    let h = handle.clone();
                    thread::spawn(move || h.attach(&stream, writer));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("accept failed: {e}"),
            }
        }
    });
    (server, addr, acceptor)
}

fn request_lines(requests: usize) -> Vec<String> {
    let run = two_pin_cases(
        &Technology::p25(),
        CouplingDirection::FarEnd,
        &SweepConfig {
            cases: requests,
            ..SweepConfig::default()
        },
    );
    assert!(run.is_complete(), "sweep generator failed: {}", run.summary());
    run.cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let deck = xtalk_circuit::spice::write_deck(&case.network);
            let mut line = format!("{{\"id\":{i},\"type\":\"analyze\",\"deck\":");
            json::write_escaped(&mut line, &deck);
            line.push('}');
            line
        })
        .collect()
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

fn check_reply(line: &str) {
    let reply = json::parse(line).expect("reply parses");
    let status = reply
        .get("status")
        .and_then(json::Value::as_str)
        .expect("status");
    assert!(
        status == "ok" || status == "degraded",
        "generated case failed over the wire: {line}"
    );
}

/// Closed loop: send, wait, measure, repeat. Returns sorted round-trip
/// times in microseconds.
fn closed_loop(addr: SocketAddr, lines: &[String]) -> Vec<f64> {
    let client = TcpStream::connect(addr).expect("connect");
    client.set_nodelay(true).expect("nodelay");
    let mut tx = client.try_clone().expect("clone");
    let mut reader = BufReader::new(client);
    let mut times_us: Vec<f64> = Vec::with_capacity(lines.len());
    let mut reply = String::new();
    for line in lines {
        let start = Instant::now();
        tx.write_all(line.as_bytes()).expect("write");
        tx.write_all(b"\n").expect("write");
        reply.clear();
        assert!(reader.read_line(&mut reply).expect("read") > 0);
        times_us.push(start.elapsed().as_secs_f64() * 1e6);
        check_reply(reply.trim_end());
    }
    times_us.sort_by(f64::total_cmp);
    times_us
}

/// Pipelined: the whole batch in flight at once. Returns the wall time.
fn pipelined(addr: SocketAddr, lines: &[String]) -> f64 {
    let client = TcpStream::connect(addr).expect("connect");
    let mut tx = client.try_clone().expect("clone");
    let reader = BufReader::new(client.try_clone().expect("clone"));
    let start = Instant::now();
    let lines_out: Vec<String> = lines.to_vec();
    let sender = thread::spawn(move || {
        for line in &lines_out {
            tx.write_all(line.as_bytes()).expect("write");
            tx.write_all(b"\n").expect("write");
        }
        tx.flush().expect("flush");
    });
    let mut replies = 0usize;
    for line in reader.lines().take(lines.len()) {
        check_reply(line.expect("read").trim_end());
        replies += 1;
    }
    let total_s = start.elapsed().as_secs_f64();
    sender.join().expect("sender");
    assert_eq!(replies, lines.len(), "lost replies under pipelining");
    total_s
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let requests = std::env::var("XTALK_BENCH_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if test_mode { 16 } else { 500 });
    let host = thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = host.max(2);

    eprintln!("serve_latency: {requests} requests against a {jobs}-worker daemon");
    let lines = request_lines(requests);
    let (server, addr, acceptor) = start(jobs);

    // Warm-up: fault the lazy paths (allocators, first factorizations).
    let _ = closed_loop(addr, &lines[..lines.len().min(8)]);

    let times_us = closed_loop(addr, &lines);
    let mean_us = times_us.iter().sum::<f64>() / times_us.len() as f64;
    let p50_us = percentile(&times_us, 0.50);
    let p99_us = percentile(&times_us, 0.99);

    let total_s = pipelined(addr, &lines);
    let req_per_s = requests as f64 / total_s;

    server.handle().request_shutdown();
    server.run_until_drained();
    let summary = server.finish();
    acceptor.join().expect("acceptor");
    assert_eq!(summary.panics_caught, 0);

    println!(
        "serve_latency/closed_loop  mean {mean_us:>9.1} us   p50 {p50_us:>9.1} us   p99 {p99_us:>9.1} us"
    );
    println!(
        "serve_latency/pipelined    {total_s:>9.3} s for {requests} requests  ({req_per_s:.0} req/s)"
    );

    if test_mode {
        println!("serve_latency: test passed");
        return;
    }
    let json_out = format!(
        "{{\"requests\":{requests},\"jobs\":{jobs},\"host_parallelism\":{host},\
         \"closed_loop\":{{\"mean_us\":{mean_us:.1},\"p50_us\":{p50_us:.1},\"p99_us\":{p99_us:.1}}},\
         \"pipelined\":{{\"total_s\":{total_s:.6},\"req_per_s\":{req_per_s:.1}}}}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, json_out).expect("write BENCH_serve.json");
    eprintln!("wrote {path}");
}
