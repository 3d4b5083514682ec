//! End-to-end exercise of the observability crate.
//!
//! The registry, trace buffer and enable flags are process-global, so
//! this file holds exactly one `#[test]` running its scenarios in
//! sequence — sibling tests in the same binary would race on the shared
//! state (same discipline as `xtalk-exec`'s `alloc_free.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

static DISABLED_PROBE_TOUCHES: AtomicU64 = AtomicU64::new(0);

#[test]
fn registry_spans_trace_and_warnings_work_end_to_end() {
    // --- Disabled probes are inert -----------------------------------
    // Before enable_metrics(), probes must record nothing and register
    // nothing.
    xtalk_obs::counter!("test.pre_enable").add(5);
    xtalk_obs::histogram!("test.pre_enable.hist").record(42);
    {
        let _span = xtalk_obs::span!("test.pre_enable");
        DISABLED_PROBE_TOUCHES.fetch_add(1, Ordering::Relaxed);
    }
    let snap = xtalk_obs::snapshot();
    assert_eq!(snap.counter("test.pre_enable"), None);
    assert!(snap.histogram("test.pre_enable.hist").is_none());
    assert_eq!(xtalk_obs::trace_event_count(), 0);

    // --- Counters and histograms record once enabled ------------------
    xtalk_obs::enable_metrics();
    xtalk_obs::counter!("test.events").add(2);
    xtalk_obs::counter!("test.events").add(3);
    xtalk_obs::histogram!("test.sizes").record(0);
    xtalk_obs::histogram!("test.sizes").record(1);
    xtalk_obs::histogram!("test.sizes").record(1u64 << 38); // overflow bucket

    let snap = xtalk_obs::snapshot();
    assert_eq!(snap.counter("test.events"), Some(5));
    let sizes = snap.histogram("test.sizes").expect("registered");
    assert_eq!(sizes.count, 3);
    assert_eq!(sizes.sum, 1 + (1u64 << 38));
    assert_eq!(
        sizes.buckets,
        vec![(0, 1), (1, 1), (xtalk_obs::OVERFLOW_BUCKET, 1)]
    );

    // --- Counters are commutative across threads ----------------------
    thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..1000 {
                    xtalk_obs::counter!("test.parallel").add(1);
                }
            });
        }
    });
    assert_eq!(xtalk_obs::snapshot().counter("test.parallel"), Some(4000));

    // --- Deterministic JSON excludes perf metrics ----------------------
    xtalk_obs::counter!(perf: "test.perf_only").add(9);
    let snap = xtalk_obs::snapshot();
    let det = snap.to_json();
    assert!(det.contains("\"test.events\": 5"));
    assert!(!det.contains("test.perf_only"));
    assert!(snap.to_json_full().contains("\"test.perf_only\": 9"));

    // --- Spans feed histograms and the trace ---------------------------
    xtalk_obs::enable_tracing();
    {
        let _span = xtalk_obs::span!("test.stage");
        std::hint::black_box(());
    }
    let snap = xtalk_obs::snapshot();
    let span_hist = snap.histogram("span.test.stage.ns").expect("span recorded");
    assert_eq!(span_hist.count, 1);
    assert_eq!(xtalk_obs::trace_event_count(), 1);

    let trace = xtalk_obs::take_trace_json();
    assert!(trace.starts_with('{'));
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"name\": \"test.stage\""));
    assert!(trace.contains("\"ph\": \"X\""));
    assert_eq!(xtalk_obs::trace_event_count(), 0, "take drains the buffer");

    // --- Trace buffer is bounded: oldest events evicted, counted -------
    xtalk_obs::set_trace_capacity(4);
    for _ in 0..6 {
        let _span = xtalk_obs::span!("test.ring");
    }
    assert_eq!(xtalk_obs::trace_event_count(), 4, "ring holds capacity");
    assert_eq!(
        xtalk_obs::snapshot().counter("trace.events.dropped"),
        Some(2),
        "evictions are counted"
    );
    let _ = xtalk_obs::take_trace_json();
    xtalk_obs::set_trace_capacity(xtalk_obs::DEFAULT_TRACE_CAPACITY);

    // --- Request context stamps spans recorded on this thread ----------
    assert_eq!(xtalk_obs::current_request_ctx(), 0);
    {
        let _ctx = xtalk_obs::push_request_ctx(7);
        assert_eq!(xtalk_obs::current_request_ctx(), 7);
        {
            let _inner = xtalk_obs::push_request_ctx(8);
            assert_eq!(xtalk_obs::current_request_ctx(), 8);
        }
        assert_eq!(xtalk_obs::current_request_ctx(), 7, "nesting restores");
        let _span = xtalk_obs::span!("test.ctx");
    }
    assert_eq!(xtalk_obs::current_request_ctx(), 0);
    {
        let _span = xtalk_obs::span!("test.no_ctx");
    }
    let trace = xtalk_obs::take_trace_json();
    assert!(
        trace.contains("\"args\": {\"req\": 7}"),
        "ctx span carries the request id; trace was:\n{trace}"
    );
    let no_ctx_line = trace
        .lines()
        .find(|l| l.contains("test.no_ctx"))
        .expect("no_ctx span exported");
    assert!(!no_ctx_line.contains("\"req\""), "no ctx → no args");

    // --- Windowed aggregation: deltas, not since-boot totals ------------
    xtalk_obs::counter!("test.win").add(5);
    let mut ring = xtalk_obs::WindowRing::new(8);
    xtalk_obs::counter!("test.win").add(5);
    xtalk_obs::histogram!("test.win.hist").record(100);
    ring.tick();
    assert_eq!(ring.len(), 1);
    xtalk_obs::counter!("test.win").add(3);
    let view = ring.windowed(8);
    assert_eq!(
        view.delta.counter("test.win"),
        Some(8),
        "closed interval (5) + live partial (3); pre-ring 5 excluded"
    );
    assert_eq!(
        view.delta.histogram("test.win.hist").map(|h| h.count),
        Some(1)
    );
    let live_only = ring.windowed(0);
    assert_eq!(
        live_only.delta.counter("test.win"),
        Some(3),
        "zero closed intervals → live partial only"
    );

    // --- Warning sink counts, and quiet suppresses printing only -------
    xtalk_obs::warn!("first warning: case {}", 7);
    xtalk_obs::set_quiet(true);
    xtalk_obs::warn!("second warning, silenced");
    xtalk_obs::set_quiet(false);
    assert_eq!(xtalk_obs::snapshot().counter("warnings.total"), Some(2));

    // --- Stats table renders every section -----------------------------
    let table = xtalk_obs::snapshot().stats_table();
    assert!(table.contains("test.events"));
    assert!(table.contains("span.test.stage.ns"));

    // --- reset() zeroes values but keeps registrations -----------------
    {
        let _span = xtalk_obs::span!("test.stage2");
    }
    xtalk_obs::reset();
    let snap = xtalk_obs::snapshot();
    assert_eq!(snap.counter("test.events"), Some(0), "still registered");
    assert_eq!(snap.histogram("test.sizes").expect("kept").count, 0);
    assert_eq!(xtalk_obs::trace_event_count(), 0);

    // Values accumulate again after the reset.
    xtalk_obs::counter!("test.events").add(1);
    assert_eq!(xtalk_obs::snapshot().counter("test.events"), Some(1));
}
