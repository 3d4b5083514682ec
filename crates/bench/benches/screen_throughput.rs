//! Full-chip screening throughput: nets per second on a PEX-shaped deck.
//!
//! Generates a 2048-net extracted-style bus array (128 buses × 16 bits
//! × 4 segments, folded coupling cards), screens it serially and in
//! parallel through [`xtalk_eval::screen::screen_deck`], and writes
//! `BENCH_screen.json` at the repo root:
//!
//! ```json
//! {"nets":2048,"elements":26624,"clusters":128,"host_parallelism":8,
//!  "serial":{"jobs":1,"total_s":3.1,"nets_per_s":660.6,
//!            "parse_s":0.05,"analyze_s":3.0,"escalate_s":2.4},
//!  "parallel":{"jobs":8,"total_s":0.5,"nets_per_s":4096.0,
//!              "parse_s":0.05,"analyze_s":0.45,"escalate_s":2.5},
//!  "screened":1920,"escalated":128,"escalated_fraction":0.0625,
//!  "speedup":6.2,"peak_rss_bytes":123456789}
//! ```
//!
//! The two legs must produce byte-identical ranked JSON (the screening
//! pipeline's determinism contract). On a single-core host
//! (`host_parallelism == 1`) the parallel leg still runs for that
//! assert, but the export replaces the `parallel` and `speedup` fields
//! with `"parallel_skipped":true` — a one-worker-vs-one-worker ratio
//! is noise, not a speedup. `escalated_fraction` demonstrates
//! the paper's thesis at chip scale: only the deliberately weak lanes
//! (1 in 16) pay for transient simulation. `peak_rss_bytes` is the
//! process high-water mark (`VmHWM`, Linux only, 0 elsewhere) — the
//! deck is re-streamed from an in-memory buffer per leg and a
//! whole-deck network is never built, so residency follows the element
//! table plus one island per worker, not the chip.
//!
//! Stage figures come from the span histograms: `parse_s` sums
//! `screen.parse`, `analyze_s` sums `screen.analyze`; the analyze span
//! wraps the parallel region once, so no per-thread division is needed.
//! `escalate_s` sums `screen.escalate`, the golden batches inside the
//! analyze stage: wall time in the serial leg, worker-seconds summed
//! over the workers in the parallel one.
//! Each leg runs twice interleaved and the minimum total is kept.
//!
//! The deck size is overridable with `XTALK_BENCH_SCREEN_NETS`
//! (rounded down to a multiple of 16); `-- --test` runs a tiny smoke
//! deck and skips the JSON export.

use std::time::Instant;
use xtalk_bench::span_sum_ns;
use xtalk_eval::screen::{screen_deck, ScreenConfig, ScreenReport};
use xtalk_exec::Jobs;
use xtalk_tech::{PexDeckSpec, Technology};

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`; 0 where that interface does not exist).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// One screening leg's timings (seconds).
#[derive(Clone, Copy)]
struct LegTiming {
    total_s: f64,
    parse_s: f64,
    analyze_s: f64,
    escalate_s: f64,
}

fn timed_leg(deck: &str, config: &ScreenConfig, jobs: usize) -> (ScreenReport, LegTiming) {
    let parse0 = span_sum_ns("span.screen.parse.ns");
    let analyze0 = span_sum_ns("span.screen.analyze.ns");
    let escalate0 = span_sum_ns("span.screen.escalate.ns");
    let start = Instant::now();
    let report = screen_deck(
        deck.as_bytes(),
        &ScreenConfig {
            jobs: Jobs::Count(jobs),
            ..config.clone()
        },
    )
    .expect("screening the generated deck succeeds");
    let total_s = start.elapsed().as_secs_f64();
    let timing = LegTiming {
        total_s,
        parse_s: (span_sum_ns("span.screen.parse.ns") - parse0) as f64 * 1e-9,
        analyze_s: (span_sum_ns("span.screen.analyze.ns") - analyze0) as f64 * 1e-9,
        escalate_s: (span_sum_ns("span.screen.escalate.ns") - escalate0) as f64 * 1e-9,
    };
    (report, timing)
}

fn leg_json(t: &LegTiming, jobs: usize, nets: usize) -> String {
    format!(
        "{{\"jobs\":{jobs},\"total_s\":{:.6},\"nets_per_s\":{:.1},\
         \"parse_s\":{:.6},\"analyze_s\":{:.6},\"escalate_s\":{:.6}}}",
        t.total_s,
        nets as f64 / t.total_s,
        t.parse_s,
        t.analyze_s,
        t.escalate_s
    )
}

fn print_leg(label: &str, t: &LegTiming, nets: usize, workers: &str) {
    println!(
        "screen_throughput/{label:<10} {:>10.3} s  {:>9.1} nets/s  ({workers}: parse {:.3} + analyze {:.3}, of which escalate {:.3})",
        t.total_s,
        nets as f64 / t.total_s,
        t.parse_s,
        t.analyze_s,
        t.escalate_s
    );
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let nets = std::env::var("XTALK_BENCH_SCREEN_NETS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(if test_mode { 32 } else { 2048 });
    let buses = (nets / 16).max(1);
    let mut spec = PexDeckSpec::new(buses, 16, 4);
    spec.fold_cards = true;
    let deck = spec.deck_string(&Technology::p25());
    let config = ScreenConfig::default();

    xtalk_obs::enable_metrics();

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallel_jobs = host.max(2);
    eprintln!(
        "screen_throughput: {} nets ({buses} buses x 16 bits x 4 segments), \
         {} deck bytes, 1 vs {parallel_jobs} worker(s) (host parallelism {host})",
        spec.net_count(),
        deck.len()
    );

    fn improves(best: &Option<(ScreenReport, LegTiming)>, candidate: f64) -> bool {
        match best {
            None => true,
            Some((_, t)) => candidate < t.total_s,
        }
    }

    let passes = if test_mode { 1 } else { 2 };
    let mut serial: Option<(ScreenReport, LegTiming)> = None;
    let mut parallel: Option<(ScreenReport, LegTiming)> = None;
    for _ in 0..passes {
        let s = timed_leg(&deck, &config, 1);
        if improves(&serial, s.1.total_s) {
            serial = Some(s);
        }
        let p = timed_leg(&deck, &config, parallel_jobs);
        if improves(&parallel, p.1.total_s) {
            parallel = Some(p);
        }
    }
    let (serial_report, serial_t) = serial.expect("at least one pass ran");
    let (parallel_report, parallel_t) = parallel.expect("at least one pass ran");

    // The determinism contract: identical ranked JSON at any jobs value.
    assert_eq!(
        serial_report.to_json(),
        parallel_report.to_json(),
        "parallel screening must produce the identical ranked report"
    );
    let total = serial_report.nets_total;
    assert_eq!(
        serial_report.screened + serial_report.escalated + serial_report.failed,
        total,
        "every net must be accounted for"
    );

    let escalated_fraction = serial_report.escalated as f64 / total as f64;
    // On a single-core host the "parallel" leg is the same one worker
    // plus scheduling overhead; a speedup figure from it is noise, not
    // measurement, so the export annotates the skip instead of
    // committing a bogus sub-1.0 ratio. The leg still runs above: the
    // byte-identity assert is about determinism, not speed.
    let parallel_meaningful = host > 1;
    let speedup = serial_t.total_s / parallel_t.total_s;
    let rss = peak_rss_bytes();
    print_leg("serial", &serial_t, total, "1 worker");
    print_leg("parallel", &parallel_t, total, &format!("{parallel_jobs} workers"));
    println!(
        "screen_throughput/triage       {} screened, {} escalated ({:.2}% of nets), {} clusters",
        serial_report.screened,
        serial_report.escalated,
        escalated_fraction * 100.0,
        serial_report.clusters
    );
    if parallel_meaningful {
        println!("screen_throughput/speedup      {speedup:>10.2} x  (reports byte-identical)");
    } else {
        println!(
            "screen_throughput/speedup      skipped (host parallelism 1; reports byte-identical)"
        );
    }
    println!("screen_throughput/peak_rss     {:>10.1} MiB", rss as f64 / (1024.0 * 1024.0));

    if test_mode {
        println!("screen_throughput: test passed");
        return;
    }
    let parallel_json = if parallel_meaningful {
        format!(
            "\"parallel\":{},\"speedup\":{speedup:.4},",
            leg_json(&parallel_t, parallel_jobs, total)
        )
    } else {
        "\"parallel_skipped\":true,".to_owned()
    };
    let json = format!(
        "{{\"nets\":{total},\"elements\":{},\"clusters\":{},\"host_parallelism\":{host},\
         \"serial\":{},\
         {parallel_json}\
         \"screened\":{},\"escalated\":{},\"escalated_fraction\":{escalated_fraction:.6},\
         \"peak_rss_bytes\":{rss}}}\n",
        serial_report.elements,
        serial_report.clusters,
        leg_json(&serial_t, 1, total),
        serial_report.screened,
        serial_report.escalated,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_screen.json");
    std::fs::write(path, json).expect("write BENCH_screen.json");
    eprintln!("wrote {path}");
}
