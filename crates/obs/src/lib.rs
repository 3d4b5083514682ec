//! First-party observability for the `xtalk` analysis stack.
//!
//! The closed-form metrics exist to be cheap enough for router inner
//! loops (DATE 2002, §1), which means the pipeline around them — moment
//! extraction, the fallback chain, the parallel sweep executor, the
//! golden simulator — must be *measurable* without becoming slower. This
//! crate is the workspace's hand-rolled, zero-dependency telemetry layer:
//!
//! * **Metrics registry** ([`counter!`], [`histogram!`]): named atomic
//!   counters and fixed-bucket (power-of-two) histograms, registered
//!   lazily on first touch. Every metric carries a [`Class`]:
//!   [`Class::Det`] metrics count *work* (fallback rungs, clamp events,
//!   cases generated, Padé rejections) and are byte-identical for a given
//!   workload regardless of thread count; [`Class::Perf`] metrics count
//!   *performance* (wall-clock spans, queue wait, chunk imbalance) and
//!   legitimately vary run to run. [`Snapshot::to_json`] serializes only
//!   the deterministic class, so a metrics file diff is a semantic diff.
//! * **Spans** ([`span!`]): guard-based wall-time measurement per
//!   pipeline stage, recorded into a `span.<name>.ns` histogram and —
//!   when tracing is enabled — into an in-memory event buffer exported as
//!   Chrome-trace-format JSON ([`take_trace_json`]) for `chrome://tracing`
//!   / Perfetto flamegraph viewing.
//! * **Warning sink** ([`warn!`]): counted (`warnings.total`) and
//!   silenceable ([`set_quiet`]) replacement for ad-hoc `eprintln!`
//!   warnings, so degraded-mode noise is observable instead of scrolling
//!   away.
//!
//! # Cost model
//!
//! Observability is **off by default** at runtime. Every probe starts
//! with one relaxed atomic load; disabled, that is the entire cost — no
//! clock reads, no registration, no allocation (the `alloc_free` test in
//! `xtalk-exec` pins this down). Enabled, counters are one relaxed
//! `fetch_add`, histograms three, spans two `Instant` reads.
//!
//! # Determinism
//!
//! Counters and histograms are commutative sums, so parallel workers can
//! feed one global registry and still produce thread-count-independent
//! totals; per-worker measurements (queue wait, items per worker) are
//! accumulated thread-locally by the executor and flushed once at join.
//! [`snapshot`] sorts metrics by name and merges duplicates, so the JSON
//! byte stream depends only on the workload, never on registration order
//! or scheduling.
//!
//! # Examples
//!
//! ```
//! xtalk_obs::enable_metrics();
//! {
//!     let _span = xtalk_obs::span!("demo.stage");
//!     xtalk_obs::counter!("demo.events").add(3);
//!     xtalk_obs::histogram!("demo.sizes").record(1024);
//! }
//! let snap = xtalk_obs::snapshot();
//! assert_eq!(snap.counter("demo.events"), Some(3));
//! assert!(snap.to_json().contains("\"demo.events\": 3"));
//! # xtalk_obs::reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
pub mod json;
mod registry;
mod snapshot;
mod span;
mod window;

pub use hist::{bucket_index, bucket_lower_bound, bucket_upper_bound, BUCKETS, OVERFLOW_BUCKET};
pub use registry::{LazyCounter, LazyHistogram};
pub use snapshot::{snapshot, CounterSnap, HistogramSnap, QuantileBound, Snapshot};
pub use span::{
    current_request_ctx, push_request_ctx, set_trace_capacity, start_span, take_trace_json,
    trace_event_count, CtxGuard, SpanGuard, DEFAULT_TRACE_CAPACITY,
};
pub use window::{WindowRing, WindowView};

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// Determinism class of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Counts *work*: identical for a given workload whatever the worker
    /// count or scheduling. Serialized by [`Snapshot::to_json`].
    Det,
    /// Counts *performance*: wall-clock times, queue waits, per-worker
    /// load. Varies run to run; excluded from the deterministic JSON and
    /// surfaced via [`Snapshot::to_json_full`], the stats table and the
    /// trace export instead.
    Perf,
}

static METRICS: AtomicBool = AtomicBool::new(false);
static TRACING: AtomicBool = AtomicBool::new(false);
static QUIET: AtomicBool = AtomicBool::new(false);

/// `true` when metric recording is on. This is the single branch every
/// probe takes first.
#[inline(always)]
#[must_use]
pub fn metrics_enabled() -> bool {
    METRICS.load(Ordering::Relaxed)
}

/// Turns metric recording on (process-wide, sticky).
pub fn enable_metrics() {
    METRICS.store(true, Ordering::SeqCst);
}

/// `true` when span tracing is on.
#[inline(always)]
#[must_use]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turns span tracing on (process-wide) and pins the trace epoch, so
/// event timestamps are relative to this call.
pub fn enable_tracing() {
    span::init_epoch();
    TRACING.store(true, Ordering::SeqCst);
}

/// `true` when the warning sink is silenced.
#[inline]
#[must_use]
pub fn quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// Silences (or un-silences) the [`warn!`] sink. Warnings are still
/// *counted* while quiet; only the stderr line is suppressed.
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::SeqCst);
}

/// Zeroes every registered counter and histogram and drops any buffered
/// trace events. Metric/tracing/quiet flags are left as they are.
///
/// Intended for tests and long-lived processes that report in intervals;
/// the registry itself (names, classes) survives, so a snapshot taken
/// after a reset still lists every metric, at zero.
pub fn reset() {
    registry::reset_values();
    span::clear_trace();
}

static WARNINGS_TOTAL: LazyCounter = LazyCounter::new("warnings.total", Class::Det);

/// The function behind [`warn!`]: counts the warning in `warnings.total`
/// and writes `warning: <message>` to stderr unless [`quiet`].
pub fn warn_fmt(args: fmt::Arguments<'_>) {
    WARNINGS_TOTAL.add(1);
    if !quiet() {
        eprintln!("warning: {args}");
    }
}

/// Emits a counted, silenceable warning (see [`warn_fmt`]).
///
/// ```
/// xtalk_obs::warn!("sweep degraded: {} of {} cases failed", 2, 500);
/// ```
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::warn_fmt(::core::format_args!($($arg)*))
    };
}

/// A named atomic counter, registered on first touch.
///
/// Expands to a `&'static LazyCounter` backed by a per-call-site static,
/// so the hot path is a relaxed load plus a relaxed `fetch_add` — no
/// lookup, no lock. `counter!("name")` is deterministic class;
/// `counter!(perf: "name")` is performance class.
///
/// ```
/// xtalk_obs::counter!("resilience.timing_clamps").add(1);
/// xtalk_obs::counter!(perf: "exec.chunks.claimed").add(1);
/// ```
#[macro_export]
macro_rules! counter {
    (perf: $name:expr) => {{
        static __XTALK_OBS_COUNTER: $crate::LazyCounter =
            $crate::LazyCounter::new($name, $crate::Class::Perf);
        &__XTALK_OBS_COUNTER
    }};
    ($name:expr) => {{
        static __XTALK_OBS_COUNTER: $crate::LazyCounter =
            $crate::LazyCounter::new($name, $crate::Class::Det);
        &__XTALK_OBS_COUNTER
    }};
}

/// A named fixed-bucket histogram, registered on first touch.
///
/// Buckets are powers of two (see [`bucket_index`]); each record is three
/// relaxed `fetch_add`s. `histogram!("name")` is deterministic class;
/// `histogram!(perf: "name")` is performance class (wall-clock values).
///
/// ```
/// xtalk_obs::histogram!("sim.golden.steps").record(4096);
/// ```
#[macro_export]
macro_rules! histogram {
    (perf: $name:expr) => {{
        static __XTALK_OBS_HIST: $crate::LazyHistogram =
            $crate::LazyHistogram::new($name, $crate::Class::Perf);
        &__XTALK_OBS_HIST
    }};
    ($name:expr) => {{
        static __XTALK_OBS_HIST: $crate::LazyHistogram =
            $crate::LazyHistogram::new($name, $crate::Class::Det);
        &__XTALK_OBS_HIST
    }};
}

/// Starts a wall-time span over the enclosing scope.
///
/// Returns a [`SpanGuard`]; on drop the elapsed time lands in the
/// `span.<name>.ns` performance histogram and, when tracing is enabled,
/// in the Chrome-trace event buffer. Disabled, the guard is inert and no
/// clock is read.
///
/// ```
/// let _span = xtalk_obs::span!("moments.pade");
/// // ... stage body ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __XTALK_OBS_SPAN_HIST: $crate::LazyHistogram = $crate::LazyHistogram::new(
            ::core::concat!("span.", $name, ".ns"),
            $crate::Class::Perf,
        );
        $crate::start_span($name, &__XTALK_OBS_SPAN_HIST)
    }};
}
