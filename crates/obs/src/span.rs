//! Guard-based wall-time spans and the Chrome-trace event buffer.
//!
//! [`crate::span!`] hands out a [`SpanGuard`]; on drop, the elapsed time
//! is recorded into the span's `span.<name>.ns` histogram and — when
//! tracing is on — appended to a global event buffer as a Chrome-trace
//! "complete" (`"ph": "X"`) event. [`take_trace_json`] drains that buffer
//! into the JSON format `chrome://tracing` and Perfetto load directly.
//!
//! The buffer is a bounded ring ([`set_trace_capacity`], default 2^18
//! events ≈ 12 MiB): when full, the *oldest* events are evicted — a
//! long-running daemon keeps the most recent history — and each eviction
//! is counted in the `trace.events.dropped` performance counter so the
//! stats table shows when a trace file is a suffix, not the whole run.
//!
//! Timestamps are relative to the epoch pinned by
//! [`crate::enable_tracing`]; thread ids are small dense integers
//! assigned in thread-creation order, so worker lanes render compactly.
//!
//! # Request context
//!
//! A server thread can pin a request id on itself with
//! [`push_request_ctx`]; every span that *drops* on that thread while the
//! guard is alive is stamped with the id and exported as
//! `"args": {"req": N}` in the trace, attributing engine → eval → sim
//! spans to the request that caused them without threading an id through
//! every signature. Guards nest and restore the previous context on drop.

use crate::json;
use crate::registry::{LazyCounter, LazyHistogram};
use crate::Class;
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Default event-buffer capacity: 2^18 events.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 18;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static TRACE: Mutex<VecDeque<TraceEvent>> = Mutex::new(VecDeque::new());
static TRACE_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_TRACE_CAPACITY);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static TRACE_DROPPED: LazyCounter = LazyCounter::new("trace.events.dropped", Class::Perf);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static REQUEST_CTX: Cell<u64> = const { Cell::new(0) };
}

struct TraceEvent {
    name: &'static str,
    ts_ns: u128,
    dur_ns: u128,
    tid: u64,
    /// Request id active on the recording thread, 0 when none.
    ctx: u64,
}

pub(crate) fn init_epoch() {
    let _ = EPOCH.get_or_init(Instant::now);
}

pub(crate) fn clear_trace() {
    TRACE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// Number of buffered trace events (for tests and the stats footer).
#[must_use]
pub fn trace_event_count() -> usize {
    TRACE.lock().unwrap_or_else(PoisonError::into_inner).len()
}

/// Caps the in-memory trace buffer at `capacity` events (minimum 1).
///
/// When the buffer is full the oldest events are evicted and counted in
/// `trace.events.dropped`; a smaller cap takes effect on the next push,
/// trimming eagerly. The default is [`DEFAULT_TRACE_CAPACITY`].
pub fn set_trace_capacity(capacity: usize) {
    TRACE_CAPACITY.store(capacity.max(1), Ordering::SeqCst);
}

/// Marks the current thread as working on request `id` until the guard
/// drops; spans recorded on this thread meanwhile carry the id in their
/// trace `args`. Nested guards stack — the previous context is restored
/// on drop. An `id` of 0 means "no request".
#[must_use = "the context lasts only while the guard is alive"]
pub fn push_request_ctx(id: u64) -> CtxGuard {
    let prev = REQUEST_CTX.with(|c| c.replace(id));
    CtxGuard { prev }
}

/// The request id pinned on this thread, or 0 when none.
#[must_use]
pub fn current_request_ctx() -> u64 {
    REQUEST_CTX.with(Cell::get)
}

/// Restores the previous request context when dropped. Created by
/// [`push_request_ctx`].
pub struct CtxGuard {
    prev: u64,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        REQUEST_CTX.with(|c| c.set(self.prev));
    }
}

/// Scope guard created by [`crate::span!`]. Inert (no clock read, no
/// allocation) while both metrics and tracing are disabled.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    hist: &'static LazyHistogram,
    start: Instant,
}

/// Starts a span; prefer the [`crate::span!`] macro, which supplies the
/// per-call-site histogram.
#[inline]
pub fn start_span(name: &'static str, hist: &'static LazyHistogram) -> SpanGuard {
    if !crate::metrics_enabled() && !crate::tracing_enabled() {
        return SpanGuard { active: None };
    }
    SpanGuard {
        active: Some(ActiveSpan {
            name,
            hist,
            start: Instant::now(),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else {
            return;
        };
        let elapsed = span.start.elapsed();
        span.hist.record_duration(elapsed);
        if crate::tracing_enabled() {
            let epoch = *EPOCH.get_or_init(Instant::now);
            let ts_ns = span.start.saturating_duration_since(epoch).as_nanos();
            let event = TraceEvent {
                name: span.name,
                ts_ns,
                dur_ns: elapsed.as_nanos(),
                tid: TID.with(|t| *t),
                ctx: current_request_ctx(),
            };
            let capacity = TRACE_CAPACITY.load(Ordering::Relaxed);
            let mut guard = TRACE.lock().unwrap_or_else(PoisonError::into_inner);
            let mut dropped = 0u64;
            while guard.len() >= capacity {
                guard.pop_front();
                dropped += 1;
            }
            guard.push_back(event);
            drop(guard);
            if dropped > 0 {
                TRACE_DROPPED.add(dropped);
            }
        }
    }
}

/// Drains the trace buffer into Chrome-trace-format JSON.
///
/// The output is a single object with a `traceEvents` array of complete
/// (`"ph": "X"`) events, timestamps and durations in microseconds —
/// loadable as-is in `chrome://tracing` or <https://ui.perfetto.dev>.
/// Events are sorted by timestamp (then thread, then name) so the file
/// does not depend on the order worker threads reached the buffer.
/// Events recorded under [`push_request_ctx`] carry `"args": {"req": N}`.
#[must_use]
pub fn take_trace_json() -> String {
    let mut events: Vec<TraceEvent> = {
        let mut guard = TRACE.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *guard).into_iter().collect()
    };
    events.sort_by(|a, b| {
        a.ts_ns
            .cmp(&b.ts_ns)
            .then(a.tid.cmp(&b.tid))
            .then(a.name.cmp(b.name))
    });

    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    out.push_str(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
         \"args\": {\"name\": \"xtalk\"}}",
    );
    for e in &events {
        out.push_str(",\n{\"name\": ");
        json::write_escaped(&mut out, e.name);
        let _ = write!(
            out,
            ", \"cat\": \"xtalk\", \"ph\": \"X\", \
             \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}",
            e.ts_ns as f64 / 1e3,
            e.dur_ns as f64 / 1e3,
            e.tid,
        );
        if e.ctx != 0 {
            let _ = write!(out, ", \"args\": {{\"req\": {}}}", e.ctx);
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}
