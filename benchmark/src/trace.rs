//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (nothing inside the program is
//! instrumented). Each span keeps its name, start, end, parent and run
//! id; self time is a span's duration minus the time its direct
//! children cover. Spans stay in memory until [`Tracer::write_jsonl`].

use crate::util::Outcome;
use crate::Args;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u32,
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub self_s: f64,
    pub calls: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
}

/// The name of the span that wraps one whole traced replay.
pub const ROOT: &str = "run";

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` through
    /// the tracer it receives become children of this one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Opens a new root span (one replay) under a fresh run id.
    pub fn run<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.run += 1;
        self.span(ROOT, f)
    }

    /// Self time and call count per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            let entry = out.entry(span.name).or_default();
            entry.self_s += own as f64 * 1e-9;
            entry.calls += 1;
        }
        out
    }

    /// Wall time of every root span, in seconds.
    pub fn root_wall_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Share of the root spans' wall time covered by named layer spans.
    pub fn coverage(&self) -> f64 {
        let wall = self.root_wall_s();
        let root_self = self.totals().get(ROOT).map_or(0.0, |t| t.self_s);
        if wall > 0.0 {
            (wall - root_self) / wall
        } else {
            0.0
        }
    }

    /// Publishes the layer self-times and call counts, the coverage and
    /// the tracing overhead against `untraced_wall_s`, and writes the
    /// spans to `traces/<workload>-seed<seed>.jsonl` in the benchmark
    /// directory.
    pub fn finish(&self, out: &mut Outcome, untraced_wall_s: f64, mismatched: usize, args: &Args) {
        for (name, totals) in self.totals() {
            out.layer(&format!("{name}_s"), totals.self_s);
            out.layer(&format!("{name}_calls"), totals.calls as f64);
        }
        let wall = self.root_wall_s();
        out.metric("trace.coverage", self.coverage(), "ratio");
        out.metric("trace.wall_s", wall, "s");
        out.metric("trace.untraced_wall_s", untraced_wall_s, "s");
        out.metric("trace.overhead", wall / untraced_wall_s, "ratio");
        out.metric("trace.mismatched", mismatched as f64, "count");
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match self.write_jsonl(&path) {
            Ok(()) => out.note(format!("spans written to {}", path.display())),
            Err(e) => out.note(format!("spans not written ({}): {e}", path.display())),
        }
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}
