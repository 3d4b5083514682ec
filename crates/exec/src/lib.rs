//! Deterministic parallel batch execution.
//!
//! Per-net crosstalk analysis is embarrassingly parallel: the paper's
//! table sweeps evaluate tens of thousands of independent cases, each
//! gated on a millisecond-scale golden transient simulation. This crate
//! provides the one primitive the rest of the workspace parallelizes
//! with — an order-preserving chunked work queue on
//! [`std::thread::scope`] — without any external dependency.
//!
//! Guarantees:
//!
//! * **Order preservation** — `par_map_indexed(items, …)[i]` is exactly
//!   `f(i, &items[i])`; the output order never depends on scheduling.
//! * **Determinism** — for a pure `f`, the result is bit-identical to
//!   the serial map, whatever the worker count (workers only decide
//!   *when* an item runs, never *what* it computes).
//! * **Structured panics** — a panicking worker does not tear down the
//!   process; the panic is caught and surfaced as
//!   [`ExecError::WorkerPanic`] for the *lowest* panicking index, so
//!   failure reports are stable run to run.
//! * **Auto-sizing** — [`Jobs::Auto`] uses [`std::thread::available_parallelism`],
//!   overridable with the `XTALK_JOBS` environment variable (the CLIs
//!   expose it as `--jobs`); `jobs = 1` is the serial path, with no
//!   threads spawned at all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

/// Worker-count policy for a parallel batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Jobs {
    /// Use `XTALK_JOBS` when set (and valid), else
    /// [`std::thread::available_parallelism`].
    #[default]
    Auto,
    /// Exactly this many workers (clamped to ≥ 1); `Count(1)` is the
    /// serial reference path.
    Count(usize),
}

impl Jobs {
    /// Parses a `--jobs` style value: `"auto"` or a positive integer.
    ///
    /// # Errors
    ///
    /// Returns a user-readable message for zero or non-numeric values.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s.eq_ignore_ascii_case("auto") {
            return Ok(Jobs::Auto);
        }
        match s.parse::<usize>() {
            Ok(0) => Err("--jobs must be at least 1 (or \"auto\")".to_string()),
            Ok(n) => Ok(Jobs::Count(n)),
            Err(_) => Err(format!("bad jobs value {s:?}; expected a count or \"auto\"")),
        }
    }

    /// The concrete worker count this policy resolves to on this host.
    ///
    /// `Auto` consults the `XTALK_JOBS` environment variable first
    /// (ignored when unset or malformed), then the hardware parallelism;
    /// on platforms where that is unavailable it falls back to 1.
    pub fn resolve(self) -> usize {
        match self {
            Jobs::Count(n) => n.max(1),
            Jobs::Auto => {
                if let Ok(v) = std::env::var("XTALK_JOBS") {
                    if let Ok(Jobs::Count(n)) = Jobs::parse(&v) {
                        return n;
                    }
                }
                thread::available_parallelism().map_or(1, |n| n.get())
            }
        }
    }
}

impl fmt::Display for Jobs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Jobs::Auto => write!(f, "auto({})", self.resolve()),
            Jobs::Count(n) => write!(f, "{n}"),
        }
    }
}

/// A batch execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A worker panicked while mapping one item. When several items
    /// panic in one batch, the lowest index is reported (stable across
    /// schedules).
    WorkerPanic {
        /// Index of the (first) panicking item.
        index: usize,
        /// The panic payload, when it was a string; `"non-string panic
        /// payload"` otherwise.
        detail: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::WorkerPanic { index, detail } => {
                write!(f, "worker panicked on item {index}: {detail}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Renders a `catch_unwind` payload as the human-readable panic message,
/// matching the `detail` wording of [`ExecError::WorkerPanic`]. Exposed
/// so other fault fences (the analysis daemon's worker pool) report
/// caught panics identically to this crate's parallel executor.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    panic_message(payload.as_ref())
}

/// Upper bound on a guided chunk. Sweep items are milliseconds each (a
/// golden transient sim), so even 64 of them amortize the claim many
/// thousandfold; a larger grab only risks parking a heavy run of cases
/// on one worker.
const GUIDED_CHUNK_CAP: usize = 64;

/// Chunk size under guided self-scheduling: half a worker's fair share
/// of the *remaining* queue, clamped to `[1, GUIDED_CHUNK_CAP]`. Early
/// chunks are large (claim amortization), tail chunks shrink to single
/// items so a run of heavy cases near the end — common in sweeps, where
/// case generators order by family and length — cannot serialize behind
/// one worker. The fixed `items/(workers·4)` grain this replaces lost
/// its whole parallel margin to exactly that tail imbalance.
fn guided_chunk(remaining: usize, workers: usize) -> usize {
    (remaining / (workers * 2)).clamp(1, GUIDED_CHUNK_CAP)
}

/// Claims the next guided chunk off the queue position `next`, returning
/// the `[start, end)` item range or `None` when the queue is drained.
/// The chunk size depends on how much is left, so the claim is a CAS
/// loop rather than a blind `fetch_add`.
fn claim_chunk(next: &AtomicUsize, n: usize, workers: usize) -> Option<(usize, usize)> {
    let mut start = next.load(Ordering::Relaxed);
    loop {
        if start >= n {
            return None;
        }
        let size = guided_chunk(n - start, workers);
        match next.compare_exchange_weak(
            start,
            start + size,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return Some((start, start + size)),
            Err(current) => start = current,
        }
    }
}

/// Maps `f` over `items` in parallel, preserving input order.
///
/// Equivalent to `items.iter().enumerate().map(|(i, t)| f(i, t))` but
/// executed on up to [`Jobs::resolve`] worker threads. See the crate
/// docs for the determinism and panic contract.
///
/// # Errors
///
/// [`ExecError::WorkerPanic`] when `f` panicked on some item; the
/// lowest panicking index is reported and the remaining items may not
/// have run.
pub fn par_map_indexed<T, R, F>(items: &[T], jobs: Jobs, f: F) -> Result<Vec<R>, ExecError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indexed_with(items, jobs, || (), |(), i, t| f(i, t))
}

/// Like [`par_map_indexed`], with a per-worker scratch state.
///
/// `init` runs once per worker (once total on the serial path) and the
/// resulting state is threaded through every call that worker makes —
/// the hook for reusing expensive buffers (e.g. a simulation workspace)
/// across items. `f` must not let the state influence its *result*,
/// only its speed, or determinism is lost.
///
/// # Errors
///
/// As [`par_map_indexed`].
pub fn par_map_indexed_with<S, T, R, I, F>(
    items: &[T],
    jobs: Jobs,
    init: I,
    f: F,
) -> Result<Vec<R>, ExecError>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    run_queue(items, items.len(), jobs, init, f)
}

/// Like [`par_map_indexed_with`], handing `f` runs of up to `group`
/// consecutive items: `f(state, first, run)` maps
/// `items[first..first + run.len()]` and returns one result per item, in
/// order. Workers claim whole runs, and the runs are fixed by `group`
/// alone, so what one call of `f` sees never depends on the worker
/// count — the hook for work that pays off across neighbouring items
/// (the screen batches the golden runs of a few islands). Counts
/// `items.len()` items, as the per-item map does; a panic is reported at
/// the first index of its run.
///
/// # Errors
///
/// As [`par_map_indexed`].
///
/// # Panics
///
/// Panics when `f` returns a result count other than its run's length.
pub fn par_map_groups_with<S, T, R, I, F>(
    items: &[T],
    group: usize,
    jobs: Jobs,
    init: I,
    f: F,
) -> Result<Vec<R>, ExecError>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &[T]) -> Vec<R> + Sync,
{
    let group = group.max(1);
    let runs: Vec<&[T]> = items.chunks(group).collect();
    let mapped = run_queue(&runs, items.len(), jobs, init, |state, g, run: &&[T]| {
        let out = f(state, g * group, run);
        assert_eq!(out.len(), run.len(), "one result per item of a run");
        out
    })
    .map_err(
        |ExecError::WorkerPanic { index, detail }| ExecError::WorkerPanic {
            index: index * group,
            detail,
        },
    )?;
    Ok(mapped.into_iter().flatten().collect())
}

/// The work queue behind both maps: `f` over `units` in parallel,
/// recording `items` in the per-item workload counter.
fn run_queue<S, T, R, I, F>(
    units: &[T],
    items: usize,
    jobs: Jobs,
    init: I,
    f: F,
) -> Result<Vec<R>, ExecError>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = units.len();
    let workers = jobs.resolve().min(n);
    let _batch_span = xtalk_obs::span!("exec.par_map");
    // Workload counters are per-batch/per-item and thus identical at any
    // worker count; everything scheduling-dependent below is Perf class.
    xtalk_obs::counter!("exec.batches").add(1);
    xtalk_obs::counter!("exec.items.total").add(items as u64);
    // Sampled once per batch: probes inside the item loop stay free when
    // observability is off (no clock reads — the alloc-free test relies
    // on this path being inert).
    let observe = xtalk_obs::metrics_enabled();

    if workers <= 1 {
        // Serial reference path: no threads, no catch_unwind — a panic
        // unwinds normally, as a plain `map` would.
        let mut state = init();
        let mut out = Vec::with_capacity(n);
        for (i, item) in units.iter().enumerate() {
            out.push(f(&mut state, i, item));
        }
        return Ok(out);
    }
    xtalk_obs::counter!(perf: "exec.workers.spawned").add(workers as u64);

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    type WorkerLog<R> = Vec<(usize, Result<R, String>)>;

    let logs: Vec<WorkerLog<R>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut local: WorkerLog<R> = Vec::with_capacity(n / workers + GUIDED_CHUNK_CAP);
                    // Merge-at-join telemetry: plain locals while the
                    // worker runs, flushed once into the global Perf
                    // histograms right before join. Zero cost when
                    // observability is disabled.
                    let worker_start = observe.then(std::time::Instant::now);
                    let mut busy_ns = 0u64;
                    let mut items_done = 0u64;
                    let mut chunks_claimed = 0u64;
                    'queue: while !abort.load(Ordering::Relaxed) {
                        let Some((start, end)) = claim_chunk(&next, n, workers) else {
                            break;
                        };
                        chunks_claimed += 1;
                        for (i, item) in units.iter().enumerate().take(end).skip(start) {
                            if abort.load(Ordering::Relaxed) {
                                break 'queue;
                            }
                            let item_start = observe.then(std::time::Instant::now);
                            match catch_unwind(AssertUnwindSafe(|| f(&mut state, i, item))) {
                                Ok(r) => local.push((i, Ok(r))),
                                Err(payload) => {
                                    local.push((i, Err(panic_detail(payload))));
                                    abort.store(true, Ordering::Relaxed);
                                    break 'queue;
                                }
                            }
                            if let Some(t0) = item_start {
                                busy_ns = busy_ns.saturating_add(
                                    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                                );
                            }
                            items_done += 1;
                        }
                    }
                    if let Some(t0) = worker_start {
                        let total_ns =
                            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        xtalk_obs::histogram!(perf: "exec.worker.busy_ns").record(busy_ns);
                        xtalk_obs::histogram!(perf: "exec.worker.wait_ns")
                            .record(total_ns.saturating_sub(busy_ns));
                        // Items/chunks per worker expose queue imbalance:
                        // a wide spread means the tail is serialized.
                        xtalk_obs::histogram!(perf: "exec.worker.items").record(items_done);
                        xtalk_obs::histogram!(perf: "exec.worker.chunks").record(chunks_claimed);
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panics are caught inside the worker"))
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut first_panic: Option<(usize, String)> = None;
    for (i, entry) in logs.into_iter().flatten() {
        match entry {
            Ok(r) => slots[i] = Some(r),
            Err(detail) => {
                let lowest_so_far = match &first_panic {
                    None => true,
                    Some((j, _)) => i < *j,
                };
                if lowest_so_far {
                    first_panic = Some((i, detail));
                }
            }
        }
    }
    if let Some((index, detail)) = first_panic {
        return Err(ExecError::WorkerPanic { index, detail });
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every index is claimed exactly once"))
        .collect())
}

/// Maps `f` over `items` in parallel, preserving order (no index).
///
/// # Errors
///
/// As [`par_map_indexed`].
pub fn par_map<T, R, F>(items: &[T], jobs: Jobs, f: F) -> Result<Vec<R>, ExecError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, jobs, |_, t| f(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for jobs in [Jobs::Count(1), Jobs::Count(3), Jobs::Count(8), Jobs::Auto] {
            let out = par_map_indexed(&items, jobs, |i, &x| {
                assert_eq!(i, x);
                x * 2
            })
            .expect("no panics");
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u8> = Vec::new();
        let out = par_map(&items, Jobs::Count(4), |x| *x).expect("no panics");
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let items = [10, 20];
        let out = par_map(&items, Jobs::Count(64), |x| x + 1).expect("no panics");
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn panic_is_reported_with_lowest_index() {
        let items: Vec<usize> = (0..200).collect();
        let err = par_map_indexed(&items, Jobs::Count(4), |i, _| {
            if i >= 50 {
                panic!("boom at {i}");
            }
            i
        })
        .expect_err("must propagate the panic");
        match err {
            ExecError::WorkerPanic { index, detail } => {
                // Exactly which indices ran depends on scheduling, but the
                // reported one is the lowest that panicked, and no index
                // below 50 can panic at all.
                assert!(index >= 50, "index {index}");
                assert!(detail.contains("boom"), "{detail}");
            }
        }
    }

    #[test]
    fn serial_path_unwinds_like_a_plain_map() {
        let items = [1, 2, 3];
        let caught = std::panic::catch_unwind(|| {
            let _ = par_map(&items, Jobs::Count(1), |&x| {
                if x == 2 {
                    panic!("serial boom");
                }
                x
            });
        });
        assert!(caught.is_err());
    }

    #[test]
    fn worker_state_is_reused_within_a_worker() {
        let items: Vec<usize> = (0..64).collect();
        // Each worker's scratch buffer grows once and is reused; results
        // stay independent of the state.
        let out = par_map_indexed_with(
            &items,
            Jobs::Count(3),
            Vec::<usize>::new,
            |scratch, i, &x| {
                scratch.push(i);
                x + 1
            },
        )
        .expect("no panics");
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_parse_and_resolve() {
        assert_eq!(Jobs::parse("auto").expect("auto parses"), Jobs::Auto);
        assert_eq!(Jobs::parse("4").expect("4 parses"), Jobs::Count(4));
        assert!(Jobs::parse("0").is_err());
        assert!(Jobs::parse("many").is_err());
        assert_eq!(Jobs::Count(7).resolve(), 7);
        assert!(Jobs::Auto.resolve() >= 1);
        assert_eq!(Jobs::Count(0).resolve(), 1);
    }

    #[test]
    fn grouped_map_sees_fixed_runs_and_preserves_order() {
        let items: Vec<usize> = (0..103).collect();
        for jobs in [Jobs::Count(1), Jobs::Count(3)] {
            let out = par_map_groups_with(
                &items,
                4,
                jobs,
                || (),
                |(), first, run: &[usize]| {
                    // Every run is the fixed slice `first..first + 4` (the
                    // last one shorter), whatever the worker count.
                    assert_eq!(first % 4, 0);
                    assert_eq!(run, &items[first..(first + 4).min(items.len())]);
                    run.iter().map(|&x| (first, x * 2)).collect()
                },
            )
            .expect("no panics");
            let want: Vec<(usize, usize)> = items.iter().map(|&x| (x - x % 4, x * 2)).collect();
            assert_eq!(out, want);
        }
        let err = par_map_groups_with(
            &items,
            4,
            Jobs::Count(2),
            || (),
            |(), first, run: &[usize]| {
                if first == 40 {
                    panic!("boom in run {first}");
                }
                run.to_vec()
            },
        )
        .expect_err("must propagate the panic");
        assert!(
            matches!(err, ExecError::WorkerPanic { index: 40, .. }),
            "{err}"
        );
    }

    #[test]
    fn guided_chunks_cover_all_items_and_shrink() {
        for n in [1usize, 2, 7, 63, 64, 65, 1000, 5000] {
            for workers in [1usize, 2, 5, 16] {
                let next = AtomicUsize::new(0);
                let mut covered = 0;
                let mut last = usize::MAX;
                while let Some((s, e)) = claim_chunk(&next, n, workers) {
                    assert_eq!(s, covered, "chunks must tile the range");
                    assert!(e > s && e <= n);
                    let size = e - s;
                    assert!(size <= GUIDED_CHUNK_CAP);
                    // Sequential claims never grow: the tail is always
                    // finer-grained than the head.
                    assert!(size <= last, "chunk grew from {last} to {size}");
                    last = size;
                    covered = e;
                }
                assert_eq!(covered, n, "queue must drain exactly");
                // The final chunk is a single item whenever more than one
                // chunk was claimed — the load-balancing property.
                if n > GUIDED_CHUNK_CAP {
                    assert_eq!(last, 1);
                }
            }
        }
    }
}
