use std::error::Error;
use xtalk_circuit::signal::Shape;
use xtalk_circuit::spice::parse_si_value;
use xtalk_exec::Jobs;
use xtalk_linalg::SolverKind;
use xtalk_sim::{FastTier, SimMode};

/// Which analysis to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Structure summary of the deck.
    Info,
    /// Per-aggressor noise estimates at the victim output.
    Noise,
    /// Victim delay window under Miller switch factors.
    Delay,
    /// TICER-style quick-node reduction; writes the reduced deck to stdout.
    Reduce,
}

/// Parsed `xtalk audit` invocation — deck-free, so it is parsed apart
/// from [`Invocation`].
#[derive(Debug, Clone)]
pub struct AuditArgs {
    /// Number of randomized cases.
    pub cases: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker-count policy (the report is identical for every value).
    pub jobs: Jobs,
    /// Write the JSON report to this path (the human summary always goes
    /// to stdout).
    pub json: Option<String>,
}

/// Noise metric selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricArg {
    /// New metric I (piecewise-linear template).
    One,
    /// New metric II — the default.
    #[default]
    Two,
    /// Metric II on the fully closed-form FrontEnd (tree a1/b1/b2).
    Closed,
}

/// Delay metric selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelayMetricArg {
    /// Elmore (conservative).
    Elmore,
    /// D2M.
    D2m,
    /// Two-pole 50% — the default.
    #[default]
    TwoPole,
}

/// Fully parsed invocation.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// Selected sub-command.
    pub command: Command,
    /// Path to the SPICE deck.
    pub deck_path: String,
    /// Aggressor input slew (s).
    pub slew: f64,
    /// Aggressor input arrival (s).
    pub arrival: f64,
    /// Input shape.
    pub shape: Shape,
    /// Noise metric.
    pub metric: MetricArg,
    /// Delay metric.
    pub delay_metric: DelayMetricArg,
    /// Cross-check with the transient simulator.
    pub golden: bool,
    /// Optional noise budget (× Vdd) to flag violations against.
    pub threshold: Option<f64>,
    /// Reduction time-constant threshold (s); `None` → `b1/1000`.
    pub reduce_tau: Option<f64>,
    /// Restrict the noise report to one aggressor net by name.
    pub aggressor: Option<String>,
    /// Fail hard instead of degrading: reject decks with validation
    /// warnings and refuse metric fallback.
    pub strict: bool,
    /// Worker-count policy for the golden cross-checks of the noise
    /// report. The report is byte-identical for every value; `--jobs 1`
    /// is the serial reference path.
    pub jobs: Jobs,
}

/// Observability switches — accepted by every sub-command, extracted in
/// a pre-pass so `--metrics-out` works identically on `noise`, `sweep`
/// and `audit`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsArgs {
    /// Write the deterministic metrics snapshot (JSON) here.
    pub metrics_out: Option<String>,
    /// Write the Chrome-trace span timeline (JSON) here.
    pub trace_out: Option<String>,
    /// Print a human metrics/timings table to stderr at exit.
    pub stats: bool,
    /// Silence warnings and progress chatter (they are still counted in
    /// `warnings.total`).
    pub quiet: bool,
    /// Simulator solver backend override (`--solver auto|dense|sparse`).
    /// `None` leaves the `XTALK_SOLVER` environment variable (then the
    /// automatic per-matrix heuristic) in charge. Results are identical
    /// either way up to factorization rounding; the flag exists for
    /// performance comparisons and the dense/sparse equivalence gate in
    /// CI.
    pub solver: Option<SolverKind>,
    /// Golden stepping-mode override (`--sim fixed|adaptive`). `None`
    /// leaves the `XTALK_SIM` environment variable (then fixed-step) in
    /// charge. The closed-form metric outputs are identical either way;
    /// the flag trades golden-simulation wall time against the adaptive
    /// march's LTE-bounded waveform differences.
    pub sim: Option<SimMode>,
    /// Analytic fast-tier override (`--fast-tier off|on|auto`). `None`
    /// leaves the `XTALK_FAST_TIER` environment variable (then off) in
    /// charge. `auto` uses closed-form pole superposition instead of a
    /// transient sim wherever the conditioning gate admits it.
    pub fast_tier: Option<FastTier>,
    /// Write the full metrics snapshot — deterministic metrics *plus*
    /// performance-class counters/timings (fast-tier hit and fallback
    /// rates, adaptive step savings) — to this path.
    pub metrics_full_out: Option<String>,
}

impl ObsArgs {
    /// True when any metric recording must be switched on.
    pub fn wants_metrics(&self) -> bool {
        self.metrics_out.is_some() || self.metrics_full_out.is_some() || self.stats
    }
}

/// Which randomized case family `xtalk sweep` draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepFamily {
    /// Two-pin, far-end coupling (Table 1 regime) — the default.
    #[default]
    Far,
    /// Two-pin, near-end coupling (Table 2 regime).
    Near,
    /// Random coupled RC trees (Table 3 regime).
    Tree,
    /// All three families in sequence.
    All,
}

impl SweepFamily {
    /// Family name as accepted on the command line.
    pub fn name(self) -> &'static str {
        match self {
            SweepFamily::Far => "far",
            SweepFamily::Near => "near",
            SweepFamily::Tree => "tree",
            SweepFamily::All => "all",
        }
    }
}

/// Parsed `xtalk sweep` invocation: an instrumented randomized accuracy
/// sweep (generation + degradation scan + golden evaluation).
#[derive(Debug, Clone)]
pub struct SweepCmdArgs {
    /// Number of randomized cases per family.
    pub cases: usize,
    /// RNG seed (same seed → same cases → same deterministic metrics).
    pub seed: u64,
    /// Fraction of cases forced into extreme corners.
    pub corners: f64,
    /// Worker-count policy (deterministic outputs for every value).
    pub jobs: Jobs,
    /// Case family selection.
    pub family: SweepFamily,
}

/// Parsed `xtalk screen` invocation: full-deck screen-then-escalate.
#[derive(Debug, Clone)]
pub struct ScreenCmdArgs {
    /// Path to the (possibly extractor-shaped) SPICE deck.
    pub deck_path: String,
    /// Aggressor input slew (s).
    pub slew: f64,
    /// Aggressor input arrival (s).
    pub arrival: f64,
    /// Aggressor input shape.
    pub shape: Shape,
    /// Failure threshold (× Vdd) nets are ranked against.
    pub threshold: f64,
    /// Escalate nets whose `vp/threshold` reaches this ratio.
    pub escalate_ratio: f64,
    /// Skip the golden-simulation stage (rank only).
    pub no_escalate: bool,
    /// Strict mode: reject benign directives, forbid metric fallback.
    pub strict: bool,
    /// Worker-count policy; the ranked report and its JSON are
    /// byte-identical for every value.
    pub jobs: Jobs,
    /// Write the ranked JSON report to this path.
    pub json: Option<String>,
}

/// Which transport `xtalk serve` listens on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// Newline-delimited JSON over stdin/stdout — the default.
    Stdio,
    /// Listen on this TCP address (e.g. `127.0.0.1:7777`).
    Tcp(String),
    /// Listen on this Unix-domain socket path.
    Unix(String),
}

/// Parsed `xtalk serve` invocation: the resident analysis daemon.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Where to listen.
    pub transport: Transport,
    /// Bounded request-queue capacity; beyond it requests are shed with
    /// backpressure replies.
    pub queue_capacity: usize,
    /// Maximum request line length in bytes.
    pub max_request_bytes: usize,
    /// Default per-request deadline budget (ms) for requests that carry
    /// none of their own.
    pub deadline_ms: Option<f64>,
    /// Honor `boom` test-fault requests (panic-isolation testing).
    pub test_faults: bool,
    /// Worker pool size.
    pub jobs: Jobs,
    /// Flush the request-lifecycle event log (JSONL) to this path at
    /// shutdown.
    pub events_out: Option<String>,
}

/// Parsed `xtalk top` invocation: poll a running daemon's `stats` reply
/// and render a live dashboard.
#[derive(Debug, Clone)]
pub struct TopArgs {
    /// Daemon address (`--tcp` or `--unix`; `top` cannot attach to a
    /// stdio daemon).
    pub transport: Transport,
    /// Poll interval in milliseconds.
    pub interval_ms: u64,
    /// Poll once, print plainly (no screen refresh), and exit.
    pub once: bool,
}

/// Parsed `xtalk bench-diff` invocation: compare two `BENCH_*.json`
/// artifacts against regression thresholds.
#[derive(Debug, Clone)]
pub struct BenchDiffArgs {
    /// Baseline (old) benchmark JSON path.
    pub old_path: String,
    /// Candidate (new) benchmark JSON path.
    pub new_path: String,
    /// Relative regression tolerance in percent.
    pub max_regress_pct: f64,
    /// When non-empty, only paths containing one of these substrings
    /// are gated.
    pub fields: Vec<String>,
}

/// Parsed `xtalk optimize` invocation: the closed-loop noise-driven
/// optimizer over a generated Figure-4 coupled-lane cluster.
#[derive(Debug, Clone)]
pub struct OptimizeArgs {
    /// Lanes in the generated cluster.
    pub lanes: usize,
    /// Maximum optimization iterations (one accepted move each).
    pub iters: usize,
    /// Input ramp rise time in seconds.
    pub slew: f64,
    /// Worker threads for building the per-net analysis views.
    pub jobs: Jobs,
    /// When set, write the final noise report as deterministic JSON.
    pub json: Option<String>,
}

/// Result of parsing: either run an analysis or print help.
#[derive(Debug, Clone)]
pub enum ParseOutcome {
    /// Run this invocation.
    Run(Invocation),
    /// Run the differential accuracy audit.
    Audit(AuditArgs),
    /// Run the instrumented randomized sweep.
    Sweep(SweepCmdArgs),
    /// Run the analysis daemon.
    Serve(ServeArgs),
    /// Run the full-deck screening pipeline.
    Screen(ScreenCmdArgs),
    /// Poll a running daemon and render a live stats dashboard.
    Top(TopArgs),
    /// Diff two benchmark JSON artifacts against regression thresholds.
    BenchDiff(BenchDiffArgs),
    /// Run the closed-loop noise-driven optimizer demo.
    Optimize(OptimizeArgs),
    /// Print this help text and exit successfully.
    Help(String),
}

const HELP: &str = "\
xtalk — closed-form crosstalk noise and delay analysis

USAGE:
    xtalk info  <deck.sp>
    xtalk noise <deck.sp> [--slew T] [--arrival T] [--shape ramp|exp|step]
                          [--metric one|two|closed] [--golden] [--threshold V]
                          [--aggressor NAME] [--strict] [--jobs N|auto]
    xtalk delay <deck.sp> [--delay-metric elmore|d2m|two-pole]
    xtalk reduce <deck.sp> [--tau T]
    xtalk audit [--cases N] [--seed S] [--jobs N|auto] [--json PATH]
    xtalk sweep [--cases N] [--seed S] [--corners F]
                [--family far|near|tree|all] [--jobs N|auto]
    xtalk serve [--tcp ADDR | --unix PATH] [--jobs N|auto]
                [--queue-capacity N] [--max-request-bytes N]
                [--deadline-ms T] [--test-faults] [--events-out PATH]
    xtalk screen <deck.sp> [--slew T] [--arrival T] [--shape ramp|exp|step]
                 [--threshold V] [--escalate-ratio R] [--no-escalate]
                 [--strict] [--jobs N|auto] [--json PATH]
    xtalk top (--tcp ADDR | --unix PATH) [--interval MS] [--once]
    xtalk bench-diff <old.json> <new.json> [--max-regress-pct P]
                     [--fields SUBSTR[,SUBSTR...]]
    xtalk optimize [--lanes N] [--iters N] [--slew T] [--jobs N|auto]
                   [--json PATH]

The deck must use the subset written by xtalk's SPICE exporter (element
cards R/C/CC/CL/RDRV plus `*!` net-role directives). Times accept SPICE
suffixes (100p, 0.1n); defaults: --slew 100p, --arrival 0, ramp inputs,
metric II.

    --golden      also run the transient simulator and report errors
    --threshold V flag aggressors whose peak exceeds V (x Vdd)
    --tau T       reduction time-constant threshold (default: b1/1000)
    --strict      error out instead of degrading (no metric fallback,
                  validation warnings become fatal)
    --jobs N      analyze aggressors on N worker threads (default auto:
                  XTALK_JOBS env var, then hardware parallelism); the
                  report is identical for every value

Without --strict, noise analysis falls back along a chain of simpler
metrics when the preferred one fails; a run that used any fallback
completes normally but exits with code 2 and prints what degraded.

`xtalk audit` needs no deck: it generates randomized coupled RC cases
(--cases, default 48; --seed, default 1), checks the closed-form metrics
against golden transient simulations and paper-level invariants, prints
a human summary and exits with code 3 if any invariant was violated.
--json PATH additionally writes the full deterministic report (identical
bytes for every --jobs value). Deep runs use --cases 500.

`xtalk sweep` generates randomized coupled cases (--cases, default 48;
--seed; --corners corner fraction, default 0.2; --family far|near|tree|all,
default far), runs the fallback-chain degradation scan and the golden
evaluation, and prints accuracy tables. It exits with code 2 when any
case needed a fallback metric.

`xtalk serve` runs a resident analysis daemon speaking newline-delimited
JSON (one request object per line in, one reply per line out, replies in
request order per connection; protocol in DESIGN.md section 10). It
listens on stdin/stdout by default, or --tcp ADDR / --unix PATH. The
request queue is bounded (--queue-capacity, default 64); overload is
shed with `overloaded` replies carrying retry_after_ms hints. Request
lines above --max-request-bytes (default 4194304) are rejected without
buffering. --deadline-ms sets a default per-request budget: when golden
escalation would blow it, the reply degrades to closed-form results and
says so. Worker panics are caught per request; the pool survives.
SIGTERM (or stdin EOF) stops admission, drains in-flight work, flushes
--metrics-out, and exits 0. --test-faults enables the `boom` request
type that deliberately panics a worker (for fault-injection tests).
--events-out PATH writes the request-lifecycle event log (one JSON
object per line: admitted/shed/started/rung_degraded/deadline/
completed/panicked, each carrying the server-global request number and
per-stage latencies) at shutdown. The daemon's `stats` request returns
windowed telemetry: req/s and per-stage p50/p99 latencies over the
last ~60 s, fallback-rung and fast-tier counters, and event/trace
buffer occupancy.

`xtalk top` connects to a running daemon (--tcp ADDR or --unix PATH),
polls its `stats` reply every --interval MS (default 1000), and renders
a refreshing terminal dashboard: request rate, per-stage latency
quantiles, reply mix, degradation rungs, fast-tier hit rate, and buffer
health. --once polls a single time, prints without screen control (for
scripts and CI), and exits.

`xtalk bench-diff` compares two benchmark JSON artifacts (e.g. a
committed BENCH_serve.json against a freshly regenerated one). Every
numeric field is classified by naming convention: throughputs
(`*_per_s`, `*speedup`) must not drop, costs (`*_s`, `*_us`, `*_ms`,
`*_ns`, `peak_rss_bytes`) must not grow, by more than --max-regress-pct
(default 10). Other numerics are reported but never gated, as are
fields present in only one file. --fields SUBSTR,... restricts gating
to matching paths. Any regression exits with code 3.

`xtalk optimize` demonstrates the incremental what-if engine in a
closed loop: it generates a Figure-4 coupled-lane cluster (--lanes,
default 16), then repeatedly takes the noisiest net and tries one-edit
repairs — upsizing that net's driver or thinning its largest coupling
capacitor (wire spreading) — keeping whichever move lowers the
cluster-worst peak noise most and reverting the rest. Every trial is a
single-delta query against the memoized session, so the loop reports
its cache-hit rate alongside the noise improvement. --iters bounds the
accepted moves (default 20); the loop stops early once no candidate
improves. --json PATH writes the final ranked noise report
(byte-identical for every --jobs value).

`xtalk screen` streams a flat extracted deck (bounded memory — the whole
deck is never built as one network), partitions nets into coupling
islands, screens every net with the closed-form metrics, and ranks them
by peak-noise/threshold ratio. Nets at or above --escalate-ratio
(default 0.8) of --threshold (default 0.1 x Vdd) escalate to the tiered
golden simulator; --no-escalate ranks without simulating. The streaming
parser accepts `+` continuation lines, and skips benign directives
(.GLOBAL, .TEMP, .OPTION, .SUBCKT/.ENDS) with a counted warning;
--strict rejects them and forbids metric fallback. --json PATH writes
the ranked report (byte-identical for every --jobs value).

Exit codes (all commands):
    0  success
    1  error (bad arguments, unreadable or malformed deck, analysis
       failure, --strict degradation)
    2  completed, but only by degrading (fallback metrics used)
    3  audit invariant violations found
    4  fatal server error (xtalk serve could not start its transport)

Observability (accepted by every command):
    --metrics-out PATH  write the metrics snapshot as deterministic JSON
                        (byte-identical for every --jobs value)
    --trace-out PATH    write the span timeline as Chrome-trace JSON
                        (load in chrome://tracing or ui.perfetto.dev)
    --stats             print a metrics and timings table to stderr
    --quiet             silence warnings and progress (still counted in
                        the warnings.total metric)
    --solver KIND       simulator factorization backend: auto (default;
                        per-matrix heuristic), dense (LU), sparse (LDL^T
                        tree solver); overrides the XTALK_SOLVER env var
    --sim MODE          golden transient stepping: fixed (default) or
                        adaptive (trap-vs-BE error-controlled steps, same
                        base grid; several times faster on long tails);
                        overrides the XTALK_SIM env var
    --fast-tier MODE    analytic golden fast tier: off (default), auto
                        (closed-form pole superposition when its
                        conditioning gate admits the case), on (skip the
                        gate margins); overrides XTALK_FAST_TIER
    --metrics-full-out PATH
                        like --metrics-out plus performance-class data:
                        wall times, fast-tier hit/fallback counters,
                        adaptive step savings (not byte-stable)
";

/// Parses `argv` (program name excluded), returning the command outcome
/// plus the observability switches (which any command accepts anywhere
/// on the line).
///
/// # Errors
///
/// Returns a user-readable message for unknown commands/flags or
/// malformed values.
pub fn parse(argv: &[String]) -> Result<(ParseOutcome, ObsArgs), Box<dyn Error>> {
    let (rest, obs) = extract_obs(argv)?;
    Ok((parse_command(&rest)?, obs))
}

/// Pre-pass: strips the observability flags out of `argv` so the
/// per-command parsers never see them.
fn extract_obs(argv: &[String]) -> Result<(Vec<String>, ObsArgs), Box<dyn Error>> {
    let mut obs = ObsArgs::default();
    let mut rest = Vec::with_capacity(argv.len());
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || -> Result<String, Box<dyn Error>> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value").into())
        };
        match arg.as_str() {
            "--metrics-out" => obs.metrics_out = Some(value()?),
            "--trace-out" => obs.trace_out = Some(value()?),
            "--stats" => obs.stats = true,
            "--quiet" => obs.quiet = true,
            "--solver" => {
                let v = value()?;
                obs.solver = Some(
                    SolverKind::parse(&v)
                        .ok_or_else(|| format!("unknown solver {v:?}; expected auto|dense|sparse"))?,
                );
            }
            "--sim" => {
                let v = value()?;
                obs.sim = Some(
                    SimMode::parse(&v)
                        .ok_or_else(|| format!("unknown sim mode {v:?}; expected fixed|adaptive"))?,
                );
            }
            "--fast-tier" => {
                let v = value()?;
                obs.fast_tier = Some(
                    FastTier::parse(&v)
                        .ok_or_else(|| format!("unknown fast tier {v:?}; expected off|on|auto"))?,
                );
            }
            "--metrics-full-out" => obs.metrics_full_out = Some(value()?),
            _ => rest.push(arg.clone()),
        }
    }
    Ok((rest, obs))
}

fn parse_command(argv: &[String]) -> Result<ParseOutcome, Box<dyn Error>> {
    let mut it = argv.iter().peekable();
    let command = match it.next().map(String::as_str) {
        None | Some("--help") | Some("-h") | Some("help") => {
            return Ok(ParseOutcome::Help(HELP.to_string()))
        }
        Some("info") => Command::Info,
        Some("noise") => Command::Noise,
        Some("delay") => Command::Delay,
        Some("reduce") => Command::Reduce,
        Some("audit") => return parse_audit(it),
        Some("sweep") => return parse_sweep(it),
        Some("serve") => return parse_serve(it),
        Some("screen") => return parse_screen(it),
        Some("top") => return parse_top(it),
        Some("bench-diff") => return parse_bench_diff(it),
        Some("optimize") => return parse_optimize(it),
        Some(other) => return Err(format!("unknown command {other:?}; try --help").into()),
    };
    let deck_path = it
        .next()
        .ok_or("missing deck path; try --help")?
        .to_string();

    let mut inv = Invocation {
        command,
        deck_path,
        slew: 100e-12,
        arrival: 0.0,
        shape: Shape::default(),
        metric: MetricArg::default(),
        delay_metric: DelayMetricArg::default(),
        golden: false,
        threshold: None,
        reduce_tau: None,
        aggressor: None,
        strict: false,
        jobs: Jobs::Auto,
    };

    while let Some(flag) = it.next() {
        let mut value = || -> Result<&String, Box<dyn Error>> {
            it.next().ok_or_else(|| format!("{flag} needs a value").into())
        };
        match flag.as_str() {
            "--slew" => {
                inv.slew = parse_si_value(value()?)
                    .ok_or_else(|| "bad --slew value".to_string())?;
            }
            "--arrival" => {
                inv.arrival = parse_si_value(value()?)
                    .ok_or_else(|| "bad --arrival value".to_string())?;
            }
            "--shape" => {
                inv.shape = parse_shape(value()?)?;
            }
            "--metric" => {
                inv.metric = match value()?.as_str() {
                    "one" | "1" | "I" => MetricArg::One,
                    "two" | "2" | "II" => MetricArg::Two,
                    "closed" => MetricArg::Closed,
                    other => return Err(format!("unknown metric {other:?}").into()),
                };
            }
            "--delay-metric" => {
                inv.delay_metric = match value()?.as_str() {
                    "elmore" => DelayMetricArg::Elmore,
                    "d2m" => DelayMetricArg::D2m,
                    "two-pole" => DelayMetricArg::TwoPole,
                    other => return Err(format!("unknown delay metric {other:?}").into()),
                };
            }
            "--golden" => inv.golden = true,
            "--strict" => inv.strict = true,
            "--jobs" => inv.jobs = Jobs::parse(value()?)?,
            "--aggressor" => inv.aggressor = Some(value()?.to_string()),
            "--tau" => {
                inv.reduce_tau = Some(
                    parse_si_value(value()?).ok_or_else(|| "bad --tau value".to_string())?,
                );
            }
            "--threshold" => {
                inv.threshold = Some(
                    value()?
                        .parse()
                        .map_err(|_| "bad --threshold value".to_string())?,
                );
            }
            "--help" | "-h" => return Ok(ParseOutcome::Help(HELP.to_string())),
            other => return Err(format!("unknown flag {other:?}; try --help").into()),
        }
    }
    if !(inv.slew.is_finite() && inv.slew > 0.0) && inv.shape != Shape::Step {
        return Err("--slew must be positive".into());
    }
    Ok(ParseOutcome::Run(inv))
}

fn parse_audit(
    mut it: std::iter::Peekable<std::slice::Iter<'_, String>>,
) -> Result<ParseOutcome, Box<dyn Error>> {
    let mut audit = AuditArgs {
        cases: 48,
        seed: 1,
        jobs: Jobs::Auto,
        json: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || -> Result<&String, Box<dyn Error>> {
            it.next().ok_or_else(|| format!("{flag} needs a value").into())
        };
        match flag.as_str() {
            "--cases" => {
                audit.cases = value()?
                    .parse()
                    .map_err(|_| "bad --cases value".to_string())?;
                if audit.cases == 0 {
                    return Err("--cases must be at least 1".into());
                }
            }
            "--seed" => {
                audit.seed = value()?
                    .parse()
                    .map_err(|_| "bad --seed value".to_string())?;
            }
            "--jobs" => audit.jobs = Jobs::parse(value()?)?,
            "--json" => audit.json = Some(value()?.to_string()),
            "--help" | "-h" => return Ok(ParseOutcome::Help(HELP.to_string())),
            other => return Err(format!("unknown flag {other:?}; try --help").into()),
        }
    }
    Ok(ParseOutcome::Audit(audit))
}

fn parse_sweep(
    mut it: std::iter::Peekable<std::slice::Iter<'_, String>>,
) -> Result<ParseOutcome, Box<dyn Error>> {
    let mut sweep = SweepCmdArgs {
        cases: 48,
        seed: 0x2002_da7e,
        corners: 0.2,
        jobs: Jobs::Auto,
        family: SweepFamily::default(),
    };
    while let Some(flag) = it.next() {
        let mut value = || -> Result<&String, Box<dyn Error>> {
            it.next().ok_or_else(|| format!("{flag} needs a value").into())
        };
        match flag.as_str() {
            "--cases" => {
                sweep.cases = value()?
                    .parse()
                    .map_err(|_| "bad --cases value".to_string())?;
                if sweep.cases == 0 {
                    return Err("--cases must be at least 1".into());
                }
            }
            "--seed" => {
                sweep.seed = value()?
                    .parse()
                    .map_err(|_| "bad --seed value".to_string())?;
            }
            "--corners" => {
                sweep.corners = value()?
                    .parse()
                    .map_err(|_| "bad --corners value".to_string())?;
                if !(0.0..=1.0).contains(&sweep.corners) {
                    return Err("--corners must be a fraction in [0, 1]".into());
                }
            }
            "--family" => {
                sweep.family = match value()?.as_str() {
                    "far" => SweepFamily::Far,
                    "near" => SweepFamily::Near,
                    "tree" => SweepFamily::Tree,
                    "all" => SweepFamily::All,
                    other => return Err(format!("unknown sweep family {other:?}").into()),
                };
            }
            "--jobs" => sweep.jobs = Jobs::parse(value()?)?,
            "--help" | "-h" => return Ok(ParseOutcome::Help(HELP.to_string())),
            other => return Err(format!("unknown flag {other:?}; try --help").into()),
        }
    }
    Ok(ParseOutcome::Sweep(sweep))
}

/// `--shape ramp|exp|step`.
fn parse_shape(name: &str) -> Result<Shape, Box<dyn Error>> {
    Shape::parse(name).ok_or_else(|| format!("unknown shape {name:?}").into())
}

fn parse_screen(
    mut it: std::iter::Peekable<std::slice::Iter<'_, String>>,
) -> Result<ParseOutcome, Box<dyn Error>> {
    let mut screen = ScreenCmdArgs {
        deck_path: it
            .next()
            .ok_or("missing deck path; try --help")?
            .to_string(),
        slew: 100e-12,
        arrival: 0.0,
        shape: Shape::default(),
        threshold: 0.1,
        escalate_ratio: 0.8,
        no_escalate: false,
        strict: false,
        jobs: Jobs::Auto,
        json: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || -> Result<&String, Box<dyn Error>> {
            it.next().ok_or_else(|| format!("{flag} needs a value").into())
        };
        match flag.as_str() {
            "--slew" => {
                screen.slew = parse_si_value(value()?)
                    .ok_or_else(|| "bad --slew value".to_string())?;
            }
            "--arrival" => {
                screen.arrival = parse_si_value(value()?)
                    .ok_or_else(|| "bad --arrival value".to_string())?;
            }
            "--shape" => {
                screen.shape = parse_shape(value()?)?;
            }
            "--threshold" => {
                screen.threshold = value()?
                    .parse()
                    .map_err(|_| "bad --threshold value".to_string())?;
                if !(screen.threshold.is_finite() && screen.threshold > 0.0) {
                    return Err("--threshold must be positive".into());
                }
            }
            "--escalate-ratio" => {
                screen.escalate_ratio = value()?
                    .parse()
                    .map_err(|_| "bad --escalate-ratio value".to_string())?;
                if !(screen.escalate_ratio.is_finite() && screen.escalate_ratio > 0.0) {
                    return Err("--escalate-ratio must be positive".into());
                }
            }
            "--no-escalate" => screen.no_escalate = true,
            "--strict" => screen.strict = true,
            "--jobs" => screen.jobs = Jobs::parse(value()?)?,
            "--json" => screen.json = Some(value()?.to_string()),
            "--help" | "-h" => return Ok(ParseOutcome::Help(HELP.to_string())),
            other => return Err(format!("unknown flag {other:?}; try --help").into()),
        }
    }
    if !(screen.slew.is_finite() && screen.slew > 0.0) && screen.shape != Shape::Step {
        return Err("--slew must be positive".into());
    }
    Ok(ParseOutcome::Screen(screen))
}

fn parse_serve(
    mut it: std::iter::Peekable<std::slice::Iter<'_, String>>,
) -> Result<ParseOutcome, Box<dyn Error>> {
    let mut serve = ServeArgs {
        transport: Transport::Stdio,
        queue_capacity: 64,
        max_request_bytes: 4 << 20,
        deadline_ms: None,
        test_faults: false,
        jobs: Jobs::Auto,
        events_out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || -> Result<&String, Box<dyn Error>> {
            it.next().ok_or_else(|| format!("{flag} needs a value").into())
        };
        match flag.as_str() {
            "--stdio" => serve.transport = Transport::Stdio,
            "--tcp" => serve.transport = Transport::Tcp(value()?.to_string()),
            "--unix" => serve.transport = Transport::Unix(value()?.to_string()),
            "--queue-capacity" => {
                serve.queue_capacity = value()?
                    .parse()
                    .map_err(|_| "bad --queue-capacity value".to_string())?;
                if serve.queue_capacity == 0 {
                    return Err("--queue-capacity must be at least 1".into());
                }
            }
            "--max-request-bytes" => {
                serve.max_request_bytes = value()?
                    .parse()
                    .map_err(|_| "bad --max-request-bytes value".to_string())?;
                if serve.max_request_bytes < 64 {
                    return Err("--max-request-bytes must be at least 64".into());
                }
            }
            "--deadline-ms" => {
                let ms: f64 = value()?
                    .parse()
                    .map_err(|_| "bad --deadline-ms value".to_string())?;
                if !(ms.is_finite() && ms > 0.0) {
                    return Err("--deadline-ms must be positive".into());
                }
                serve.deadline_ms = Some(ms);
            }
            "--test-faults" => serve.test_faults = true,
            "--jobs" => serve.jobs = Jobs::parse(value()?)?,
            "--events-out" => serve.events_out = Some(value()?.to_string()),
            "--help" | "-h" => return Ok(ParseOutcome::Help(HELP.to_string())),
            other => return Err(format!("unknown flag {other:?}; try --help").into()),
        }
    }
    Ok(ParseOutcome::Serve(serve))
}

fn parse_top(
    mut it: std::iter::Peekable<std::slice::Iter<'_, String>>,
) -> Result<ParseOutcome, Box<dyn Error>> {
    let mut transport = None;
    let mut top = TopArgs {
        transport: Transport::Stdio, // replaced below; stdio is rejected
        interval_ms: 1000,
        once: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || -> Result<&String, Box<dyn Error>> {
            it.next().ok_or_else(|| format!("{flag} needs a value").into())
        };
        match flag.as_str() {
            "--tcp" => transport = Some(Transport::Tcp(value()?.to_string())),
            "--unix" => transport = Some(Transport::Unix(value()?.to_string())),
            "--interval" => {
                top.interval_ms = value()?
                    .parse()
                    .map_err(|_| "bad --interval value".to_string())?;
                if top.interval_ms == 0 {
                    return Err("--interval must be at least 1 (ms)".into());
                }
            }
            "--once" => top.once = true,
            "--help" | "-h" => return Ok(ParseOutcome::Help(HELP.to_string())),
            other => return Err(format!("unknown flag {other:?}; try --help").into()),
        }
    }
    top.transport =
        transport.ok_or("xtalk top needs a daemon address: --tcp ADDR or --unix PATH")?;
    Ok(ParseOutcome::Top(top))
}

fn parse_bench_diff(
    mut it: std::iter::Peekable<std::slice::Iter<'_, String>>,
) -> Result<ParseOutcome, Box<dyn Error>> {
    let mut paths = Vec::new();
    let mut diff = BenchDiffArgs {
        old_path: String::new(),
        new_path: String::new(),
        max_regress_pct: 10.0,
        fields: Vec::new(),
    };
    while let Some(arg) = it.next() {
        let mut value = || -> Result<&String, Box<dyn Error>> {
            it.next().ok_or_else(|| format!("{arg} needs a value").into())
        };
        match arg.as_str() {
            "--max-regress-pct" => {
                diff.max_regress_pct = value()?
                    .parse()
                    .map_err(|_| "bad --max-regress-pct value".to_string())?;
                if !(diff.max_regress_pct.is_finite() && diff.max_regress_pct >= 0.0) {
                    return Err("--max-regress-pct must be a non-negative percent".into());
                }
            }
            "--fields" => {
                diff.fields.extend(
                    value()?
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_string),
                );
            }
            "--help" | "-h" => return Ok(ParseOutcome::Help(HELP.to_string())),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag:?}; try --help").into())
            }
            path => paths.push(path.to_string()),
        }
    }
    if paths.len() != 2 {
        return Err("bench-diff needs exactly two paths: <old.json> <new.json>".into());
    }
    diff.new_path = paths.pop().unwrap_or_default();
    diff.old_path = paths.pop().unwrap_or_default();
    Ok(ParseOutcome::BenchDiff(diff))
}

fn parse_optimize(
    mut it: std::iter::Peekable<std::slice::Iter<'_, String>>,
) -> Result<ParseOutcome, Box<dyn Error>> {
    let mut opt = OptimizeArgs {
        lanes: 16,
        iters: 20,
        slew: 100e-12,
        jobs: Jobs::Auto,
        json: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || -> Result<&String, Box<dyn Error>> {
            it.next().ok_or_else(|| format!("{flag} needs a value").into())
        };
        match flag.as_str() {
            "--lanes" => {
                opt.lanes = value()?
                    .parse()
                    .map_err(|_| "bad --lanes value".to_string())?;
                if opt.lanes < 2 {
                    return Err("--lanes must be at least 2 (need a coupled pair)".into());
                }
            }
            "--iters" => {
                opt.iters = value()?
                    .parse()
                    .map_err(|_| "bad --iters value".to_string())?;
                if opt.iters == 0 {
                    return Err("--iters must be at least 1".into());
                }
            }
            "--slew" => {
                opt.slew = parse_si_value(value()?)
                    .ok_or_else(|| "bad --slew value".to_string())?;
                if !(opt.slew.is_finite() && opt.slew > 0.0) {
                    return Err("--slew must be positive".into());
                }
            }
            "--jobs" => opt.jobs = Jobs::parse(value()?)?,
            "--json" => opt.json = Some(value()?.to_string()),
            "--help" | "-h" => return Ok(ParseOutcome::Help(HELP.to_string())),
            other => return Err(format!("unknown flag {other:?}; try --help").into()),
        }
    }
    Ok(ParseOutcome::Optimize(opt))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_outcome(args: &[&str]) -> Result<(ParseOutcome, ObsArgs), Box<dyn Error>> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn parse_ok(args: &[&str]) -> Invocation {
        match parse_outcome(args).unwrap().0 {
            ParseOutcome::Run(inv) => inv,
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn defaults_are_sane() {
        let inv = parse_ok(&["noise", "deck.sp"]);
        assert_eq!(inv.command, Command::Noise);
        assert_eq!(inv.deck_path, "deck.sp");
        assert!((inv.slew - 100e-12).abs() < 1e-20);
        assert_eq!(inv.metric, MetricArg::Two);
        assert!(!inv.golden);
        assert!(inv.threshold.is_none());
        assert!(!inv.strict);
    }

    #[test]
    fn si_suffixes_accepted() {
        let inv = parse_ok(&["noise", "d.sp", "--slew", "250p", "--arrival", "0.1n"]);
        assert!((inv.slew - 250e-12).abs() < 1e-20);
        assert!((inv.arrival - 0.1e-9).abs() < 1e-20);
    }

    #[test]
    fn all_flags_parse() {
        let inv = parse_ok(&[
            "noise", "d.sp", "--shape", "exp", "--metric", "closed", "--golden",
            "--threshold", "0.15", "--strict",
        ]);
        assert_eq!(inv.shape, Shape::Exp);
        assert_eq!(inv.metric, MetricArg::Closed);
        assert!(inv.golden);
        assert!(inv.strict);
        assert_eq!(inv.threshold, Some(0.15));
        let inv = parse_ok(&["delay", "d.sp", "--delay-metric", "elmore"]);
        assert_eq!(inv.delay_metric, DelayMetricArg::Elmore);
    }

    #[test]
    fn jobs_flag_parses() {
        let inv = parse_ok(&["noise", "d.sp"]);
        assert_eq!(inv.jobs, Jobs::Auto);
        let inv = parse_ok(&["noise", "d.sp", "--jobs", "4"]);
        assert_eq!(inv.jobs, Jobs::Count(4));
        let inv = parse_ok(&["noise", "d.sp", "--jobs", "auto"]);
        assert_eq!(inv.jobs, Jobs::Auto);
        assert!(parse_outcome(&["noise", "d.sp", "--jobs", "0"]).is_err());
    }

    #[test]
    fn audit_flags_parse() {
        let audit = match parse_outcome(&["audit"]).unwrap().0 {
            ParseOutcome::Audit(a) => a,
            other => panic!("expected Audit, got {other:?}"),
        };
        assert_eq!(audit.cases, 48);
        assert_eq!(audit.seed, 1);
        assert_eq!(audit.jobs, Jobs::Auto);
        assert!(audit.json.is_none());

        let audit = match parse_outcome(&[
            "audit", "--cases", "500", "--seed", "7", "--jobs", "2", "--json", "out.json",
        ])
        .unwrap()
        .0
        {
            ParseOutcome::Audit(a) => a,
            other => panic!("expected Audit, got {other:?}"),
        };
        assert_eq!(audit.cases, 500);
        assert_eq!(audit.seed, 7);
        assert_eq!(audit.jobs, Jobs::Count(2));
        assert_eq!(audit.json.as_deref(), Some("out.json"));

        assert!(parse_outcome(&["audit", "--cases", "0"]).is_err());
        assert!(parse_outcome(&["audit", "--seed", "x"]).is_err());
        assert!(parse_outcome(&["audit", "deck.sp"]).is_err());
    }

    #[test]
    fn sweep_flags_parse() {
        let sweep = match parse_outcome(&["sweep"]).unwrap().0 {
            ParseOutcome::Sweep(s) => s,
            other => panic!("expected Sweep, got {other:?}"),
        };
        assert_eq!(sweep.cases, 48);
        assert_eq!(sweep.family, SweepFamily::Far);
        assert!((sweep.corners - 0.2).abs() < 1e-12);
        assert_eq!(sweep.jobs, Jobs::Auto);

        let sweep = match parse_outcome(&[
            "sweep", "--cases", "12", "--seed", "9", "--corners", "0.5", "--family", "tree",
            "--jobs", "3",
        ])
        .unwrap()
        .0
        {
            ParseOutcome::Sweep(s) => s,
            other => panic!("expected Sweep, got {other:?}"),
        };
        assert_eq!(sweep.cases, 12);
        assert_eq!(sweep.seed, 9);
        assert!((sweep.corners - 0.5).abs() < 1e-12);
        assert_eq!(sweep.family, SweepFamily::Tree);
        assert_eq!(sweep.jobs, Jobs::Count(3));

        assert!(parse_outcome(&["sweep", "--cases", "0"]).is_err());
        assert!(parse_outcome(&["sweep", "--corners", "1.5"]).is_err());
        assert!(parse_outcome(&["sweep", "--family", "wide"]).is_err());
        assert!(parse_outcome(&["sweep", "deck.sp"]).is_err());
    }

    #[test]
    fn obs_flags_extracted_from_any_command() {
        let (outcome, obs) = parse_outcome(&[
            "noise", "d.sp", "--metrics-out", "m.json", "--golden", "--stats", "--quiet",
        ])
        .unwrap();
        let inv = match outcome {
            ParseOutcome::Run(inv) => inv,
            other => panic!("expected Run, got {other:?}"),
        };
        assert!(inv.golden);
        assert_eq!(obs.metrics_out.as_deref(), Some("m.json"));
        assert!(obs.trace_out.is_none());
        assert!(obs.stats);
        assert!(obs.quiet);
        assert!(obs.wants_metrics());

        // Position-independent: obs flags may precede the command.
        let (outcome, obs) =
            parse_outcome(&["--trace-out", "t.json", "sweep", "--cases", "4"]).unwrap();
        assert!(matches!(outcome, ParseOutcome::Sweep(_)));
        assert_eq!(obs.trace_out.as_deref(), Some("t.json"));
        assert!(!obs.wants_metrics());

        assert!(parse_outcome(&["sweep", "--metrics-out"]).is_err());
        assert!(parse_outcome(&["sweep", "--trace-out"]).is_err());

        let (_, obs) = parse_outcome(&["audit", "--cases", "2"]).unwrap();
        assert_eq!(obs, ObsArgs::default());
    }

    #[test]
    fn solver_flag_parses_and_validates() {
        let (_, obs) = parse_outcome(&["sweep", "--cases", "4", "--solver", "sparse"]).unwrap();
        assert_eq!(obs.solver, Some(SolverKind::Sparse));
        let (_, obs) = parse_outcome(&["--solver", "DENSE", "noise", "d.sp"]).unwrap();
        assert_eq!(obs.solver, Some(SolverKind::Dense));
        let (_, obs) = parse_outcome(&["audit", "--solver", "auto"]).unwrap();
        assert_eq!(obs.solver, Some(SolverKind::Auto));
        let (_, obs) = parse_outcome(&["audit"]).unwrap();
        assert_eq!(obs.solver, None);

        assert!(parse_outcome(&["sweep", "--solver"]).is_err());
        assert!(parse_outcome(&["sweep", "--solver", "cholesky"]).is_err());
    }

    #[test]
    fn sim_and_fast_tier_flags_parse() {
        let (_, obs) = parse_outcome(&["sweep", "--cases", "4", "--sim", "adaptive"]).unwrap();
        assert_eq!(obs.sim, Some(SimMode::Adaptive));
        assert_eq!(obs.fast_tier, None);
        let (_, obs) =
            parse_outcome(&["--sim", "FIXED", "--fast-tier", "auto", "noise", "d.sp"]).unwrap();
        assert_eq!(obs.sim, Some(SimMode::Fixed));
        assert_eq!(obs.fast_tier, Some(FastTier::Auto));
        let (_, obs) = parse_outcome(&["audit", "--fast-tier", "off"]).unwrap();
        assert_eq!(obs.fast_tier, Some(FastTier::Off));
        let (_, obs) = parse_outcome(&["audit", "--fast-tier", "on"]).unwrap();
        assert_eq!(obs.fast_tier, Some(FastTier::On));
        let (_, obs) = parse_outcome(&["audit"]).unwrap();
        assert_eq!(obs.sim, None);
        assert_eq!(obs.fast_tier, None);

        assert!(parse_outcome(&["sweep", "--sim"]).is_err());
        assert!(parse_outcome(&["sweep", "--sim", "euler"]).is_err());
        assert!(parse_outcome(&["sweep", "--fast-tier", "maybe"]).is_err());
    }

    #[test]
    fn metrics_full_out_extracts_and_wants_metrics() {
        let (outcome, obs) =
            parse_outcome(&["sweep", "--cases", "4", "--metrics-full-out", "full.json"]).unwrap();
        assert!(matches!(outcome, ParseOutcome::Sweep(_)));
        assert_eq!(obs.metrics_full_out.as_deref(), Some("full.json"));
        assert!(obs.metrics_out.is_none());
        assert!(obs.wants_metrics());
        assert!(parse_outcome(&["sweep", "--metrics-full-out"]).is_err());
    }

    #[test]
    fn serve_flags_parse() {
        let serve = match parse_outcome(&["serve"]).unwrap().0 {
            ParseOutcome::Serve(s) => s,
            other => panic!("expected Serve, got {other:?}"),
        };
        assert_eq!(serve.transport, Transport::Stdio);
        assert_eq!(serve.queue_capacity, 64);
        assert_eq!(serve.max_request_bytes, 4 << 20);
        assert_eq!(serve.deadline_ms, None);
        assert!(!serve.test_faults);
        assert_eq!(serve.jobs, Jobs::Auto);

        let serve = match parse_outcome(&[
            "serve",
            "--tcp",
            "127.0.0.1:7777",
            "--queue-capacity",
            "8",
            "--max-request-bytes",
            "1024",
            "--deadline-ms",
            "250",
            "--test-faults",
            "--jobs",
            "2",
        ])
        .unwrap()
        .0
        {
            ParseOutcome::Serve(s) => s,
            other => panic!("expected Serve, got {other:?}"),
        };
        assert_eq!(serve.transport, Transport::Tcp("127.0.0.1:7777".into()));
        assert_eq!(serve.queue_capacity, 8);
        assert_eq!(serve.max_request_bytes, 1024);
        assert_eq!(serve.deadline_ms, Some(250.0));
        assert!(serve.test_faults);
        assert_eq!(serve.jobs, Jobs::Count(2));

        let serve = match parse_outcome(&["serve", "--unix", "/tmp/x.sock"]).unwrap().0 {
            ParseOutcome::Serve(s) => s,
            other => panic!("expected Serve, got {other:?}"),
        };
        assert_eq!(serve.transport, Transport::Unix("/tmp/x.sock".into()));

        assert!(parse_outcome(&["serve", "--queue-capacity", "0"]).is_err());
        assert!(parse_outcome(&["serve", "--max-request-bytes", "1"]).is_err());
        assert!(parse_outcome(&["serve", "--deadline-ms", "0"]).is_err());
        assert!(parse_outcome(&["serve", "--deadline-ms", "inf"]).is_err());
        assert!(parse_outcome(&["serve", "deck.sp"]).is_err());
    }

    #[test]
    fn screen_flags_parse() {
        let screen = match parse_outcome(&["screen", "chip.sp"]).unwrap().0 {
            ParseOutcome::Screen(s) => s,
            other => panic!("expected Screen, got {other:?}"),
        };
        assert_eq!(screen.deck_path, "chip.sp");
        assert!((screen.slew - 100e-12).abs() < 1e-20);
        assert!((screen.threshold - 0.1).abs() < 1e-12);
        assert!((screen.escalate_ratio - 0.8).abs() < 1e-12);
        assert!(!screen.no_escalate);
        assert!(!screen.strict);
        assert_eq!(screen.jobs, Jobs::Auto);
        assert!(screen.json.is_none());

        let screen = match parse_outcome(&[
            "screen", "chip.sp", "--slew", "250p", "--shape", "exp", "--threshold", "0.15",
            "--escalate-ratio", "0.5", "--no-escalate", "--strict", "--jobs", "2", "--json",
            "rank.json",
        ])
        .unwrap()
        .0
        {
            ParseOutcome::Screen(s) => s,
            other => panic!("expected Screen, got {other:?}"),
        };
        assert!((screen.slew - 250e-12).abs() < 1e-20);
        assert_eq!(screen.shape, Shape::Exp);
        assert!((screen.threshold - 0.15).abs() < 1e-12);
        assert!((screen.escalate_ratio - 0.5).abs() < 1e-12);
        assert!(screen.no_escalate);
        assert!(screen.strict);
        assert_eq!(screen.jobs, Jobs::Count(2));
        assert_eq!(screen.json.as_deref(), Some("rank.json"));

        assert!(parse_outcome(&["screen"]).is_err());
        assert!(parse_outcome(&["screen", "c.sp", "--threshold", "0"]).is_err());
        assert!(parse_outcome(&["screen", "c.sp", "--escalate-ratio", "-1"]).is_err());
        assert!(parse_outcome(&["screen", "c.sp", "--wat"]).is_err());
    }

    #[test]
    fn serve_events_out_parses() {
        let serve = match parse_outcome(&["serve", "--events-out", "ev.jsonl"]).unwrap().0 {
            ParseOutcome::Serve(s) => s,
            other => panic!("expected Serve, got {other:?}"),
        };
        assert_eq!(serve.events_out.as_deref(), Some("ev.jsonl"));
        let serve = match parse_outcome(&["serve"]).unwrap().0 {
            ParseOutcome::Serve(s) => s,
            other => panic!("expected Serve, got {other:?}"),
        };
        assert!(serve.events_out.is_none());
        assert!(parse_outcome(&["serve", "--events-out"]).is_err());
    }

    #[test]
    fn top_flags_parse() {
        let top = match parse_outcome(&["top", "--tcp", "127.0.0.1:7777"]).unwrap().0 {
            ParseOutcome::Top(t) => t,
            other => panic!("expected Top, got {other:?}"),
        };
        assert_eq!(top.transport, Transport::Tcp("127.0.0.1:7777".into()));
        assert_eq!(top.interval_ms, 1000);
        assert!(!top.once);

        let top = match parse_outcome(&[
            "top", "--unix", "/tmp/x.sock", "--interval", "250", "--once",
        ])
        .unwrap()
        .0
        {
            ParseOutcome::Top(t) => t,
            other => panic!("expected Top, got {other:?}"),
        };
        assert_eq!(top.transport, Transport::Unix("/tmp/x.sock".into()));
        assert_eq!(top.interval_ms, 250);
        assert!(top.once);

        assert!(parse_outcome(&["top"]).is_err(), "an address is mandatory");
        assert!(parse_outcome(&["top", "--interval", "0"]).is_err());
        assert!(parse_outcome(&["top", "--tcp", "x", "--wat"]).is_err());
    }

    #[test]
    fn bench_diff_flags_parse() {
        let d = match parse_outcome(&["bench-diff", "old.json", "new.json"]).unwrap().0 {
            ParseOutcome::BenchDiff(d) => d,
            other => panic!("expected BenchDiff, got {other:?}"),
        };
        assert_eq!(d.old_path, "old.json");
        assert_eq!(d.new_path, "new.json");
        assert!((d.max_regress_pct - 10.0).abs() < 1e-12);
        assert!(d.fields.is_empty());

        let d = match parse_outcome(&[
            "bench-diff", "a.json", "b.json", "--max-regress-pct", "25",
            "--fields", "p99,req_per_s",
        ])
        .unwrap()
        .0
        {
            ParseOutcome::BenchDiff(d) => d,
            other => panic!("expected BenchDiff, got {other:?}"),
        };
        assert!((d.max_regress_pct - 25.0).abs() < 1e-12);
        assert_eq!(d.fields, vec!["p99".to_string(), "req_per_s".to_string()]);

        assert!(parse_outcome(&["bench-diff"]).is_err());
        assert!(parse_outcome(&["bench-diff", "only.json"]).is_err());
        assert!(parse_outcome(&["bench-diff", "a", "b", "c"]).is_err());
        assert!(parse_outcome(&["bench-diff", "a", "b", "--max-regress-pct", "-5"]).is_err());
        assert!(parse_outcome(&["bench-diff", "a", "b", "--wat"]).is_err());
    }

    #[test]
    fn optimize_flags_parse() {
        let o = match parse_outcome(&["optimize"]).unwrap().0 {
            ParseOutcome::Optimize(o) => o,
            other => panic!("expected Optimize, got {other:?}"),
        };
        assert_eq!(o.lanes, 16);
        assert_eq!(o.iters, 20);
        assert!((o.slew - 100e-12).abs() < 1e-18);
        assert_eq!(o.jobs, Jobs::Auto);
        assert!(o.json.is_none());

        let o = match parse_outcome(&[
            "optimize", "--lanes", "8", "--iters", "5", "--slew", "200p",
            "--jobs", "2", "--json", "out.json",
        ])
        .unwrap()
        .0
        {
            ParseOutcome::Optimize(o) => o,
            other => panic!("expected Optimize, got {other:?}"),
        };
        assert_eq!(o.lanes, 8);
        assert_eq!(o.iters, 5);
        assert!((o.slew - 200e-12).abs() < 1e-18);
        assert_eq!(o.jobs, Jobs::Count(2));
        assert_eq!(o.json.as_deref(), Some("out.json"));

        assert!(parse_outcome(&["optimize", "--lanes", "1"]).is_err());
        assert!(parse_outcome(&["optimize", "--iters", "0"]).is_err());
        assert!(parse_outcome(&["optimize", "--slew", "-1n"]).is_err());
        assert!(parse_outcome(&["optimize", "--wat"]).is_err());
        assert!(matches!(
            parse_outcome(&["optimize", "--help"]).unwrap().0,
            ParseOutcome::Help(_)
        ));
    }

    #[test]
    fn help_and_errors() {
        assert!(matches!(
            parse_outcome(&["--help"]).unwrap().0,
            ParseOutcome::Help(_)
        ));
        assert!(matches!(parse_outcome(&[]).unwrap().0, ParseOutcome::Help(_)));
        assert!(parse_outcome(&["bogus"]).is_err());
        assert!(parse_outcome(&["noise"]).is_err());
        assert!(parse_outcome(&["noise", "d.sp", "--slew", "fast"]).is_err());
        assert!(parse_outcome(&["noise", "d.sp", "--wat"]).is_err());
    }
}
