//! The `xtalk top` runner: a live terminal dashboard over a running
//! daemon's `stats` reply.
//!
//! Connects to the daemon (`--tcp` or `--unix`), sends one
//! `{"type":"stats"}` request per poll tick, and renders the windowed
//! telemetry the reply carries: request rate and per-stage latency
//! quantiles over the daemon's sliding window, the reply mix, resilience
//! rung usage, fast-tier hit rate, and event/trace buffer health. In
//! loop mode the screen redraws in place (ANSI clear); `--once` prints a
//! single plain snapshot for scripts and CI.
//!
//! The connection is re-established per poll: a daemon restart between
//! ticks shows up as one missed frame, not a dead dashboard.

use crate::args::{TopArgs, Transport};
use crate::RunOutcome;
use std::error::Error;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as IoWrite};
use std::time::Duration;
use xtalk_obs::json::{self, Value};

/// One round trip: connect, send a `stats` request, read one reply line.
fn poll_stats(transport: &Transport) -> Result<Value, String> {
    let line = match transport {
        Transport::Tcp(addr) => {
            let stream = std::net::TcpStream::connect(addr)
                .map_err(|e| format!("cannot connect to tcp {addr}: {e}"))?;
            round_trip(stream)?
        }
        Transport::Unix(path) => {
            #[cfg(unix)]
            {
                let stream = std::os::unix::net::UnixStream::connect(path)
                    .map_err(|e| format!("cannot connect to unix {path}: {e}"))?;
                round_trip(stream)?
            }
            #[cfg(not(unix))]
            {
                return Err(format!(
                    "unix sockets are not supported on this platform (requested {path})"
                ));
            }
        }
        Transport::Stdio => return Err("xtalk top cannot attach to a stdio daemon".into()),
    };
    json::parse(&line).map_err(|e| format!("malformed stats reply: {e}"))
}

fn round_trip<S: std::io::Read + IoWrite>(mut stream: S) -> Result<String, String> {
    stream
        .write_all(b"{\"id\":\"top\",\"type\":\"stats\"}\n")
        .map_err(|e| format!("cannot send stats request: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("cannot read stats reply: {e}"))?;
    if line.trim().is_empty() {
        return Err("daemon closed the connection without replying".into());
    }
    Ok(line)
}

fn num(v: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_f64()
}

fn fmt_opt(v: Option<f64>, precision: usize) -> String {
    v.map_or_else(|| "-".to_owned(), |n| format!("{n:.precision$}"))
}

/// Renders one dashboard frame from a parsed stats reply.
fn render(v: &Value) -> String {
    let mut out = String::new();
    let uptime = num(v, &["uptime_s"]).unwrap_or(0.0);
    let win_s = num(v, &["window", "seconds"]).unwrap_or(0.0);
    let _ = writeln!(
        out,
        "xtalk top — daemon up {uptime:.0} s, window {win_s:.0} s ({} interval(s))",
        fmt_opt(num(v, &["window", "intervals"]), 0)
    );
    let _ = writeln!(
        out,
        "  load     {} req/s   served {}   queue {}/{}",
        fmt_opt(num(v, &["window", "req_per_s"]), 2),
        fmt_opt(num(v, &["served"]), 0),
        fmt_opt(num(v, &["queue", "depth"]), 0),
        fmt_opt(num(v, &["queue", "capacity"]), 0),
    );
    let _ = writeln!(
        out,
        "  replies  ok {}   degraded {}   error {}   shed {}   panics {}",
        fmt_opt(num(v, &["window", "replies", "ok"]), 0),
        fmt_opt(num(v, &["window", "replies", "degraded"]), 0),
        fmt_opt(num(v, &["window", "replies", "error"]), 0),
        fmt_opt(num(v, &["shed"]), 0),
        fmt_opt(num(v, &["panics"]), 0),
    );
    let _ = writeln!(out, "  stage        count      mean      p50       p99  (us, windowed)");
    for stage in ["request", "parse", "chain", "golden"] {
        let _ = writeln!(
            out,
            "    {stage:<9} {:>6}  {:>8}  {:>7}  {:>8}",
            fmt_opt(num(v, &["window", "stages", stage, "count"]), 0),
            fmt_opt(num(v, &["window", "stages", stage, "mean_us"]), 1),
            fmt_opt(num(v, &["window", "stages", stage, "p50_us"]), 0),
            fmt_opt(num(v, &["window", "stages", stage, "p99_us"]), 0),
        );
    }
    let _ = writeln!(
        out,
        "  rungs    metric2 {}   metric1 {}   bounds {}   lumped {}",
        fmt_opt(num(v, &["window", "fallback_rungs", "metric2"]), 0),
        fmt_opt(num(v, &["window", "fallback_rungs", "metric1_m1"]), 0),
        fmt_opt(num(v, &["window", "fallback_rungs", "bounds"]), 0),
        fmt_opt(num(v, &["window", "fallback_rungs", "lumped"]), 0),
    );
    let hits = num(v, &["window", "fast_tier", "hits"]).unwrap_or(0.0);
    let fallbacks = num(v, &["window", "fast_tier", "fallbacks"]).unwrap_or(0.0);
    let hit_rate = if hits + fallbacks > 0.0 {
        format!("{:.0}%", hits / (hits + fallbacks) * 100.0)
    } else {
        "-".to_owned()
    };
    let _ = writeln!(
        out,
        "  fast-tier hits {hits:.0}   fallbacks {fallbacks:.0}   hit-rate {hit_rate}"
    );
    let ihits = num(v, &["window", "incr", "hits"]).unwrap_or(0.0);
    let imiss = num(v, &["window", "incr", "misses"]).unwrap_or(0.0);
    let irate = if ihits + imiss > 0.0 {
        format!("{:.0}%", ihits / (ihits + imiss) * 100.0)
    } else {
        "-".to_owned()
    };
    let _ = writeln!(
        out,
        "  incr     hits {ihits:.0}   misses {imiss:.0}   invalidated {}   hit-rate {irate}",
        fmt_opt(num(v, &["window", "incr", "invalidated"]), 0),
    );
    let _ = writeln!(
        out,
        "  buffers  events {}/{} dropped   trace {}/{} dropped",
        fmt_opt(num(v, &["events", "buffered"]), 0),
        fmt_opt(num(v, &["events", "dropped"]), 0),
        fmt_opt(num(v, &["trace", "buffered"]), 0),
        fmt_opt(num(v, &["trace", "dropped"]), 0),
    );
    out
}

pub fn run_top(args: &TopArgs) -> Result<RunOutcome, Box<dyn Error>> {
    if args.once {
        let reply = poll_stats(&args.transport)?;
        return Ok(RunOutcome::clean(render(&reply)));
    }
    // Loop mode owns the terminal until the daemon goes away or the
    // user interrupts; transient poll errors are shown in place and
    // retried, so a daemon restart costs one frame.
    let mut consecutive_errors = 0u32;
    loop {
        match poll_stats(&args.transport) {
            Ok(reply) => {
                consecutive_errors = 0;
                // ESC[2J clear screen, ESC[H home.
                print!("\u{1b}[2J\u{1b}[H{}", render(&reply));
                let _ = std::io::stdout().flush();
            }
            Err(e) => {
                consecutive_errors += 1;
                if consecutive_errors >= 5 {
                    return Err(format!("daemon unreachable: {e}").into());
                }
                eprintln!("xtalk top: {e} (retrying)");
            }
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_handles_full_and_sparse_replies() {
        let full = r#"{"type":"stats","uptime_s":12.5,"served":40,
            "queue":{"depth":1,"capacity":64},"shed":0,"panics":0,
            "window":{"seconds":10.0,"intervals":10,"req_per_s":4.0,
              "replies":{"ok":38,"degraded":2,"error":0},
              "stages":{"request":{"count":40,"mean_us":900.0,"p50_us":512,"p99_us":4096},
                        "parse":{"count":40,"mean_us":80.0,"p50_us":64,"p99_us":128},
                        "chain":{"count":40,"mean_us":300.0,"p50_us":256,"p99_us":1024},
                        "golden":{"count":0}},
              "fallback_rungs":{"metric2":39,"metric1_m1":1,"bounds":0,"lumped":0},
              "fast_tier":{"hits":3,"fallbacks":1},
              "incr":{"hits":9,"misses":3,"invalidated":2}},
            "events":{"buffered":120,"dropped":0},
            "trace":{"buffered":160,"dropped":0}}"#;
        let frame = render(&json::parse(full).expect("fixture parses"));
        assert!(frame.contains("4.00 req/s"), "frame: {frame}");
        assert!(frame.contains("ok 38"), "frame: {frame}");
        assert!(frame.contains("hit-rate 75%"), "frame: {frame}");
        for stage in ["request", "parse", "chain", "golden"] {
            assert!(frame.contains(stage), "frame lacks {stage}: {frame}");
        }
        assert!(
            frame.contains("incr     hits 9   misses 3   invalidated 2   hit-rate 75%"),
            "frame: {frame}"
        );

        // A minimal reply (older daemon, metrics off) renders dashes,
        // not panics.
        let sparse = render(&json::parse(r#"{"type":"stats"}"#).expect("parses"));
        assert!(sparse.contains('-'));
    }

    #[test]
    fn stdio_transport_is_rejected() {
        let err = poll_stats(&Transport::Stdio).expect_err("stdio must be rejected");
        assert!(err.contains("stdio"));
    }
}
