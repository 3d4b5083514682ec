//! Incremental what-if speedup: memoized single-delta queries vs full
//! recomputation on a 64-net coupled cluster.
//!
//! Builds a Figure-4 chain-coupled cluster, warms a [`WhatIf`] session,
//! then walks a sequence of single-element deltas (coupling-cap edits
//! spread across the cluster, with a driver resize mixed in every
//! eighth step). Each delta is answered twice:
//!
//! * **incremental** — `session.apply(&delta)`: the memoized session
//!   recomputes only the invalidated one-hop views and replays the rest;
//! * **full** — a fresh `WhatIf` built from the edited network, which
//!   recomputes every view from scratch (exactly what a caller without
//!   the incremental layer would pay per edit).
//!
//! Every pair of reports must be **byte-identical** — the engine's
//! bit-identity contract, also enforced continuously by the
//! `incremental` audit family in `xtalk audit`. The export goes to
//! `BENCH_incr.json` at the repo root:
//!
//! ```json
//! {"lanes":64,"nets":64,"coupling_caps":504,"deltas":32,"host_parallelism":2,
//!  "incr":{"total_s":0.04,"per_delta_ms":1.2,
//!          "stages":{"delta_s":0.004,"report_s":0.036},"stage_coverage":0.98},
//!  "full":{"total_s":1.9,"per_delta_ms":59.0},
//!  "session":{"queries":2112,"hits":2016,"misses":96,"invalidated":96},
//!  "incr_speedup":49.1,"reports_identical":true}
//! ```
//!
//! `incr_speedup` is full/incremental total time; the target is at
//! least 10x at 64 nets. Both legs run one worker, so the ratio measures
//! memoization, not threading. The incremental stages come from the span
//! histograms, summed over the incremental applies only: `delta_s` is
//! `incr.delta` (the base edit and its routing into the touched views),
//! `report_s` is `incr.report` (recomputing the dirty views and
//! ranking), and `stage_coverage` is their sum over the incremental
//! total. The rest (the undo push, the first span's histogram
//! registration, the timers) is a fixed cost of some 15 µs in a total
//! near one millisecond, which a preempted run can stretch with no code
//! at fault, so the coverage is recorded, not gated.
//! Sizes are overridable with
//! `XTALK_BENCH_INCR_LANES` / `XTALK_BENCH_INCR_DELTAS`; `-- --test`
//! runs a tiny smoke cluster and skips the JSON export.

use std::time::{Duration, Instant};
use xtalk_bench::span_sum_ns;
use xtalk_circuit::Delta;
use xtalk_exec::Jobs;
use xtalk_incr::{WhatIf, WhatIfConfig};
use xtalk_tech::{ClusterSpec, Technology};

fn config() -> WhatIfConfig {
    WhatIfConfig {
        jobs: Jobs::Count(1),
        ..WhatIfConfig::default()
    }
}

/// The delta sequence: coupling-cap edits striding across the table so
/// successive edits land in different neighbourhoods, plus a driver
/// resize every eighth step. All single-element, all deterministic.
fn delta_for(session: &WhatIf, step: usize) -> Delta {
    let base = session.base();
    if step % 8 == 7 {
        let nets: Vec<_> = base.nets().map(|(id, _)| id).collect();
        let net = nets[(step * 11) % nets.len()];
        let ohms = base.net(net).driver().ohms;
        // Bounce between 90% and 111% so repeated visits don't drift.
        let scale = if step % 16 == 7 { 0.9 } else { 1.0 / 0.9 };
        Delta::ResizeDriver { net, ohms: ohms * scale }
    } else {
        let ccs = base.coupling_caps();
        let index = (step * 37) % ccs.len();
        let scale = if step % 2 == 0 { 0.9 } else { 1.0 / 0.9 };
        Delta::SetCouplingCap {
            index,
            farads: ccs[index].farads * scale,
        }
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let lanes = std::env::var("XTALK_BENCH_INCR_LANES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(if test_mode { 6 } else { 64 });
    let deltas = std::env::var("XTALK_BENCH_INCR_DELTAS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(if test_mode { 4 } else { 32 });

    xtalk_obs::enable_metrics();
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = ClusterSpec::figure4_family(lanes);
    let (base, _) = spec.build(&Technology::p25()).expect("cluster builds");
    let nets = base.net_count();
    let ccs = base.coupling_caps().len();
    eprintln!(
        "incr_speedup: {lanes} lanes ({nets} nets, {ccs} coupling caps, \
         {} segments/lane), {deltas} single-element deltas",
        spec.segments()
    );

    let mut session = WhatIf::new(base, config()).expect("session builds");
    // Warm the session: the first report pays every view's full compute
    // once, exactly like the startup cost any caller amortizes.
    let warm_start = Instant::now();
    session.report();
    let warm_s = warm_start.elapsed().as_secs_f64();

    let mut incr_time = Duration::ZERO;
    let mut full_time = Duration::ZERO;
    let (mut delta_ns, mut report_ns) = (0u64, 0u64);
    for step in 0..deltas {
        let delta = delta_for(&session, step);

        // The full leg below reports too: read the spans around the
        // incremental apply alone.
        let (delta0, report0) = (
            span_sum_ns("span.incr.delta.ns"),
            span_sum_ns("span.incr.report.ns"),
        );
        let t = Instant::now();
        let incr_report = session.apply(&delta).expect("delta applies");
        incr_time += t.elapsed();
        delta_ns += span_sum_ns("span.incr.delta.ns") - delta0;
        report_ns += span_sum_ns("span.incr.report.ns") - report0;

        // Full recompute of the same edited network: fresh session,
        // every view built and computed from scratch.
        let edited = session.base().clone();
        let t = Instant::now();
        let full_report = WhatIf::new(edited, config())
            .expect("fresh session builds")
            .report();
        full_time += t.elapsed();

        assert_eq!(
            incr_report.to_json(),
            full_report.to_json(),
            "incremental report must be byte-identical to full recompute (step {step})"
        );
    }

    let incr_s = incr_time.as_secs_f64();
    let (delta_s, report_s) = (delta_ns as f64 * 1e-9, report_ns as f64 * 1e-9);
    let full_s = full_time.as_secs_f64();
    let speedup = full_s / incr_s;
    let coverage = (delta_s + report_s) / incr_s;
    let st = session.stats();
    println!(
        "incr_speedup/warmup      {warm_s:>10.3} s  (first full report, {nets} views)"
    );
    println!(
        "incr_speedup/incremental {incr_s:>10.3} s  ({:.3} ms/delta; delta {:.3} + report {:.3} ms, \
         {:.1} % of the total)",
        incr_s / deltas as f64 * 1e3,
        delta_s * 1e3,
        report_s * 1e3,
        coverage * 100.0
    );
    println!(
        "incr_speedup/full        {full_s:>10.3} s  ({:.3} ms/delta)",
        full_s / deltas as f64 * 1e3
    );
    println!(
        "incr_speedup/session     queries {} hits {} misses {} invalidated {}",
        st.queries, st.hits, st.misses, st.invalidated
    );
    println!("incr_speedup/speedup     {speedup:>10.2} x  (reports byte-identical)");

    if test_mode {
        println!("incr_speedup: test passed");
        return;
    }
    assert!(
        speedup >= 10.0,
        "incremental queries must be >= 10x full recompute at {nets} nets \
         (measured {speedup:.2}x)"
    );
    let json = format!(
        "{{\"lanes\":{lanes},\"nets\":{nets},\"coupling_caps\":{ccs},\"deltas\":{deltas},\
         \"host_parallelism\":{host},\
         \"incr\":{{\"total_s\":{incr_s:.6},\"per_delta_ms\":{:.4},\
         \"stages\":{{\"delta_s\":{delta_s:.6},\"report_s\":{report_s:.6}}},\
         \"stage_coverage\":{coverage:.4}}},\
         \"full\":{{\"total_s\":{full_s:.6},\"per_delta_ms\":{:.4}}},\
         \"session\":{{\"queries\":{},\"hits\":{},\"misses\":{},\"invalidated\":{}}},\
         \"incr_speedup\":{speedup:.4},\"reports_identical\":true}}\n",
        incr_s / deltas as f64 * 1e3,
        full_s / deltas as f64 * 1e3,
        st.queries,
        st.hits,
        st.misses,
        st.invalidated,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incr.json");
    std::fs::write(path, json).expect("write BENCH_incr.json");
    eprintln!("wrote {path}");
}
