//! The `xtalk` command line: one flag table per command, one table of
//! global flags, and one reader that walks `argv` once against them.
//! The USAGE lines of `xtalk --help` are built from the same tables, so
//! a flag cannot be accepted without being listed.

use std::cmp::Ordering;
use std::error::Error;
use std::slice::Iter;
use xtalk_circuit::signal::Shape;
use xtalk_circuit::spice::parse_si_value;
use xtalk_exec::Jobs;
use xtalk_sim::{FastTier, SimMode};
use xtalk_tech::sweep::SweepConfig;
use xtalk_tech::PexDeckSpec;

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
/// from the deck commands' `Invocation`.
#[derive(Debug, Clone, Default)]
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

impl MetricArg {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "one" | "1" | "I" => Some(MetricArg::One),
            "two" | "2" | "II" => Some(MetricArg::Two),
            "closed" => Some(MetricArg::Closed),
            _ => None,
        }
    }
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

impl DelayMetricArg {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "elmore" => Some(DelayMetricArg::Elmore),
            "d2m" => Some(DelayMetricArg::D2m),
            "two-pole" => Some(DelayMetricArg::TwoPole),
            _ => None,
        }
    }
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

impl Invocation {
    /// `command` with every flag at its default and no deck path yet.
    pub(crate) fn new(command: Command) -> Self {
        Invocation {
            command,
            deck_path: String::new(),
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
        }
    }
}

/// Observability switches — the global flags, accepted by every
/// sub-command anywhere on the line, so `--metrics-out` works identically
/// on `noise`, `sweep` and `audit`.
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
    /// Golden stepping mode (`--sim fixed|adaptive`); `None` steps
    /// fixed. The closed-form metric outputs are identical either way;
    /// the flag trades golden-simulation wall time against the adaptive
    /// march's LTE-bounded waveform differences.
    pub sim: Option<SimMode>,
    /// Analytic fast-tier policy (`--fast-tier off|on|auto`); `None`
    /// leaves it off. `auto` uses closed-form pole superposition instead
    /// of a transient sim wherever the conditioning gate admits it.
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

    fn parse(name: &str) -> Option<Self> {
        [
            SweepFamily::Far,
            SweepFamily::Near,
            SweepFamily::Tree,
            SweepFamily::All,
        ]
        .into_iter()
        .find(|family| family.name() == name)
    }
}

/// Parsed `xtalk sweep` invocation: an instrumented randomized accuracy
/// sweep (generation + degradation scan + golden evaluation). `xtalk
/// lambda` and `xtalk delay-table` read the same fields (not `family`).
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

impl SweepCmdArgs {
    /// The case-generation settings.
    pub(crate) fn config(&self) -> SweepConfig {
        SweepConfig {
            cases: self.cases,
            seed: self.seed,
            corner_fraction: self.corners,
        }
    }
}

/// Parsed `xtalk screen` invocation: full-deck screen-then-escalate.
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Transport {
    /// Newline-delimited JSON over stdin/stdout — the default.
    #[default]
    Stdio,
    /// Listen on this TCP address (e.g. `127.0.0.1:7777`).
    Tcp(String),
    /// Listen on this Unix-domain socket path.
    Unix(String),
}

/// Parsed `xtalk serve` invocation: the resident analysis daemon.
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Default)]
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

/// Parsed `xtalk pexgen` invocation: a PEX-shaped bus-array deck.
#[derive(Debug, Clone)]
pub struct PexgenArgs {
    /// Deck shape.
    pub spec: PexDeckSpec,
    /// Write the deck to this path instead of stdout.
    pub out: Option<String>,
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
    /// Regenerate Figure 5 over this many coupling locations.
    Figure5(usize),
    /// Run metric II's λ ablation.
    Lambda(SweepCmdArgs),
    /// Run the crosstalk-delay evaluation table.
    DelayTable(SweepCmdArgs),
    /// Write a PEX-shaped bus-array deck.
    Pexgen(PexgenArgs),
    /// Print this help text and exit successfully.
    Help(String),
}

/// Checks a flag's value and stores it; a failed check returns a phrase
/// that the reader prefixes with the flag name ("must be ...").
type Setter<A> = fn(&mut A, &str) -> Result<(), String>;

/// One accepted flag and what follows it on the command line.
struct Flag<A> {
    name: &'static str,
    arity: Arity<A>,
}

enum Arity<A> {
    /// Nothing follows: the flag is a switch.
    Switch(fn(&mut A)),
    /// A value follows, shown in the usage as the placeholder.
    Value(&'static str, Setter<A>),
}

impl<A> Flag<A> {
    const fn switch(name: &'static str, set: fn(&mut A)) -> Self {
        Flag {
            name,
            arity: Arity::Switch(set),
        }
    }

    const fn value(name: &'static str, placeholder: &'static str, set: Setter<A>) -> Self {
        Flag {
            name,
            arity: Arity::Value(placeholder, set),
        }
    }
}

/// A path, address or name: any non-empty text.
fn text(v: &str) -> Result<String, String> {
    if v.is_empty() {
        Err("must not be empty".into())
    } else {
        Ok(v.to_string())
    }
}

/// `N`: a whole number of at least `min`.
fn count(v: &str, min: usize) -> Result<usize, String> {
    v.parse()
        .ok()
        .filter(|&n| n >= min)
        .ok_or_else(|| format!("must be a whole number >= {min}, got {v:?}"))
}

fn seed(v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("must be an unsigned 64-bit integer, got {v:?}"))
}

/// A finite number above zero.
fn positive(v: &str) -> Result<f64, String> {
    v.parse()
        .ok()
        .filter(|x: &f64| x.is_finite() && *x > 0.0)
        .ok_or_else(|| format!("must be a finite number > 0, got {v:?}"))
}

/// A finite number at or above zero.
fn non_negative(v: &str) -> Result<f64, String> {
    v.parse()
        .ok()
        .filter(|x: &f64| x.is_finite() && *x >= 0.0)
        .ok_or_else(|| format!("must be a finite number >= 0, got {v:?}"))
}

/// A time in seconds, SPICE suffixes allowed: finite and at or above zero.
fn time(v: &str) -> Result<f64, String> {
    parse_si_value(v)
        .filter(|t| t.is_finite() && *t >= 0.0)
        .ok_or_else(|| format!("must be a finite time >= 0 such as 100p, got {v:?}"))
}

fn fraction(v: &str) -> Result<f64, String> {
    v.parse()
        .ok()
        .filter(|x| (0.0..=1.0).contains(x))
        .ok_or_else(|| format!("must be a fraction in [0, 1], got {v:?}"))
}

/// A value `parse` accepted, or an error naming the `expected` choices.
fn choice<T>(v: &str, parse: fn(&str) -> Option<T>, expected: &str) -> Result<T, String> {
    parse(v).ok_or_else(|| format!("must be {expected}, got {v:?}"))
}

fn jobs(v: &str) -> Result<Jobs, String> {
    choice(v, |v| Jobs::parse(v).ok(), "a count >= 1 or \"auto\"")
}

/// The cross-flag check on `--slew`: only a step has no transition time.
fn check_slew(slew: f64, shape: Shape) -> Result<(), String> {
    if slew > 0.0 || shape == Shape::Step {
        Ok(())
    } else {
        Err("--slew must be positive unless --shape step".into())
    }
}

const DECK: &[&str] = &["<deck.sp>"];
const JOBS: &str = "N|auto";
const SHAPES: &str = "ramp|exp|step";
const METRICS: &str = "one|two|closed";
const DELAY_METRICS: &str = "elmore|d2m|two-pole";
const FAMILIES: &str = "far|near|tree|all";
const SIM_MODES: &str = "fixed|adaptive";
const FAST_TIERS: &str = "off|on|auto";
/// Default and cap of `--cases` for `lambda` and `delay-table`.
const EVAL_CASES: usize = 300;

/// The global flags: accepted by every command, before or after its name.
#[rustfmt::skip]
const GLOBAL: &[Flag<ObsArgs>] = &[
    Flag::value("--metrics-out", "PATH", |o, v| text(v).map(|s| o.metrics_out = Some(s))),
    Flag::value("--trace-out", "PATH", |o, v| text(v).map(|s| o.trace_out = Some(s))),
    Flag::switch("--stats", |o| o.stats = true),
    Flag::switch("--quiet", |o| o.quiet = true),
    Flag::value("--sim", SIM_MODES,
        |o, v| choice(v, SimMode::parse, SIM_MODES).map(|m| o.sim = Some(m))),
    Flag::value("--fast-tier", FAST_TIERS,
        |o, v| choice(v, FastTier::parse, FAST_TIERS).map(|t| o.fast_tier = Some(t))),
    Flag::value("--metrics-full-out", "PATH",
        |o, v| text(v).map(|s| o.metrics_full_out = Some(s))),
];

/// One command's grammar: the positionals it takes, its flag table, its
/// defaults, and the cross-flag checks that run after the last flag.
struct Spec<A: 'static> {
    name: &'static str,
    positionals: &'static [&'static str],
    flags: &'static [Flag<A>],
    init: fn() -> A,
    finish: fn(A, Vec<String>) -> Result<ParseOutcome, String>,
}

/// A [`Spec`] with its argument type erased, so one table lists every
/// command.
trait Subcommand {
    fn name(&self) -> &'static str;
    /// The command's USAGE line(s) for `--help`.
    fn usage(&self) -> String;
    /// Reads the rest of `argv` after the command name; global flags go
    /// to `obs`.
    fn read(&self, argv: &mut Iter<'_, String>, obs: &mut ObsArgs) -> Result<ParseOutcome, String>;
}

impl<A> Subcommand for Spec<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    /// `    xtalk NAME POSITIONALS [--flag V] ...`, wrapped under the first
    /// flag at 78 columns.
    fn usage(&self) -> String {
        let mut out = format!("    xtalk {}", self.name);
        for p in self.positionals {
            out.push(' ');
            out.push_str(p);
        }
        let indent = out.len();
        let mut width = indent;
        for flag in self.flags {
            let item = match flag.arity {
                Arity::Switch(_) => format!("[{}]", flag.name),
                Arity::Value(placeholder, _) => format!("[{} {placeholder}]", flag.name),
            };
            if width + 1 + item.len() > 78 {
                out.push('\n');
                out.push_str(&" ".repeat(indent));
                width = indent;
            }
            out.push(' ');
            out.push_str(&item);
            width += 1 + item.len();
        }
        out
    }

    fn read(&self, argv: &mut Iter<'_, String>, obs: &mut ObsArgs) -> Result<ParseOutcome, String> {
        let mut args = (self.init)();
        let mut positionals = Vec::new();
        while let Some(arg) = argv.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(ParseOutcome::Help(help()));
            }
            if let Some(flag) = find(self.flags, arg) {
                apply(flag, &mut args, argv)?;
            } else if let Some(flag) = find(GLOBAL, arg) {
                apply(flag, obs, argv)?;
            } else if arg.starts_with('-') {
                return Err(format!(
                    "unknown flag {arg:?} for xtalk {}; try --help",
                    self.name
                ));
            } else {
                positionals.push(arg.clone());
            }
        }
        match positionals.len().cmp(&self.positionals.len()) {
            Ordering::Less => Err(format!(
                "xtalk {} needs {}; try --help",
                self.name,
                self.positionals.join(" ")
            )),
            Ordering::Greater => Err(format!(
                "unexpected argument {:?} for xtalk {}; try --help",
                positionals[self.positionals.len()],
                self.name
            )),
            Ordering::Equal => (self.finish)(args, positionals),
        }
    }
}

fn find<'t, A>(flags: &'t [Flag<A>], arg: &str) -> Option<&'t Flag<A>> {
    flags.iter().find(|flag| flag.name == arg)
}

/// Runs `flag`'s setter on `target`, taking its value from `argv`.
fn apply<A>(flag: &Flag<A>, target: &mut A, argv: &mut Iter<'_, String>) -> Result<(), String> {
    match flag.arity {
        Arity::Switch(set) => {
            set(target);
            Ok(())
        }
        Arity::Value(_, set) => {
            let value = argv
                .next()
                .ok_or_else(|| format!("{} needs a value", flag.name))?;
            set(target, value).map_err(|e| format!("{} {e}", flag.name))
        }
    }
}

/// `info`, `noise`, `delay` and `reduce`: one deck path, then the
/// `--slew` cross-check.
fn deck_command(mut inv: Invocation, mut positionals: Vec<String>) -> Result<ParseOutcome, String> {
    inv.deck_path = positionals.pop().unwrap_or_default();
    check_slew(inv.slew, inv.shape)?;
    Ok(ParseOutcome::Run(inv))
}

/// `sweep`, `lambda` and `delay-table` defaults: `SweepConfig`'s seed and
/// corner fraction.
fn sweep_args(cases: usize) -> SweepCmdArgs {
    let config = SweepConfig::default();
    SweepCmdArgs {
        cases,
        seed: config.seed,
        corners: config.corner_fraction,
        jobs: Jobs::Auto,
        family: SweepFamily::default(),
    }
}

// The flag tables, one row per flag; `--help` lists the rows in order.

const INFO: Spec<Invocation> = Spec {
    name: "info",
    positionals: DECK,
    flags: &[],
    init: || Invocation::new(Command::Info),
    finish: deck_command,
};

#[rustfmt::skip]
const NOISE: Spec<Invocation> = Spec {
    name: "noise",
    positionals: DECK,
    flags: &[
        Flag::value("--slew", "T", |a, v| time(v).map(|t| a.slew = t)),
        Flag::value("--arrival", "T", |a, v| time(v).map(|t| a.arrival = t)),
        Flag::value("--shape", SHAPES, |a, v| choice(v, Shape::parse, SHAPES).map(|s| a.shape = s)),
        Flag::value("--metric", METRICS,
            |a, v| choice(v, MetricArg::parse, METRICS).map(|m| a.metric = m)),
        Flag::switch("--golden", |a| a.golden = true),
        Flag::value("--threshold", "V", |a, v| positive(v).map(|t| a.threshold = Some(t))),
        Flag::value("--aggressor", "NAME", |a, v| text(v).map(|s| a.aggressor = Some(s))),
        Flag::switch("--strict", |a| a.strict = true),
        Flag::value("--jobs", JOBS, |a, v| jobs(v).map(|j| a.jobs = j)),
    ],
    init: || Invocation::new(Command::Noise),
    finish: deck_command,
};

#[rustfmt::skip]
const DELAY: Spec<Invocation> = Spec {
    name: "delay",
    positionals: DECK,
    flags: &[
        Flag::value("--delay-metric", DELAY_METRICS,
            |a, v| choice(v, DelayMetricArg::parse, DELAY_METRICS).map(|m| a.delay_metric = m)),
    ],
    init: || Invocation::new(Command::Delay),
    finish: deck_command,
};

#[rustfmt::skip]
const REDUCE: Spec<Invocation> = Spec {
    name: "reduce",
    positionals: DECK,
    flags: &[Flag::value("--tau", "T", |a, v| time(v).map(|t| a.reduce_tau = Some(t)))],
    init: || Invocation::new(Command::Reduce),
    finish: deck_command,
};

#[rustfmt::skip]
const AUDIT: Spec<AuditArgs> = Spec {
    name: "audit",
    positionals: &[],
    flags: &[
        Flag::value("--cases", "N", |a, v| count(v, 1).map(|n| a.cases = n)),
        Flag::value("--seed", "S", |a, v| seed(v).map(|s| a.seed = s)),
        Flag::value("--jobs", JOBS, |a, v| jobs(v).map(|j| a.jobs = j)),
        Flag::value("--json", "PATH", |a, v| text(v).map(|s| a.json = Some(s))),
    ],
    init: || AuditArgs { cases: 48, seed: 1, ..Default::default() },
    finish: |a, _| Ok(ParseOutcome::Audit(a)),
};

// Rows shared by the `sweep`, `lambda` and `delay-table` tables.
const CASES: Flag<SweepCmdArgs> =
    Flag::value("--cases", "N", |a, v| count(v, 1).map(|n| a.cases = n));
const SEED: Flag<SweepCmdArgs> = Flag::value("--seed", "S", |a, v| seed(v).map(|s| a.seed = s));
const CORNERS: Flag<SweepCmdArgs> =
    Flag::value("--corners", "F", |a, v| fraction(v).map(|f| a.corners = f));
const SWEEP_JOBS: Flag<SweepCmdArgs> =
    Flag::value("--jobs", JOBS, |a, v| jobs(v).map(|j| a.jobs = j));

#[rustfmt::skip]
const SWEEP: Spec<SweepCmdArgs> = Spec {
    name: "sweep",
    positionals: &[],
    flags: &[
        CASES,
        SEED,
        CORNERS,
        Flag::value("--family", FAMILIES,
            |a, v| choice(v, SweepFamily::parse, FAMILIES).map(|f| a.family = f)),
        SWEEP_JOBS,
    ],
    init: || sweep_args(48),
    finish: |a, _| Ok(ParseOutcome::Sweep(a)),
};

#[rustfmt::skip]
const SERVE: Spec<ServeArgs> = Spec {
    name: "serve",
    positionals: &[],
    flags: &[
        Flag::switch("--stdio", |a| a.transport = Transport::Stdio),
        Flag::value("--tcp", "ADDR", |a, v| text(v).map(|s| a.transport = Transport::Tcp(s))),
        Flag::value("--unix", "PATH", |a, v| text(v).map(|s| a.transport = Transport::Unix(s))),
        Flag::value("--jobs", JOBS, |a, v| jobs(v).map(|j| a.jobs = j)),
        Flag::value("--queue-capacity", "N", |a, v| count(v, 1).map(|n| a.queue_capacity = n)),
        Flag::value("--max-request-bytes", "N",
            |a, v| count(v, 64).map(|n| a.max_request_bytes = n)),
        Flag::value("--deadline-ms", "MS", |a, v| positive(v).map(|ms| a.deadline_ms = Some(ms))),
        Flag::switch("--test-faults", |a| a.test_faults = true),
        Flag::value("--events-out", "PATH", |a, v| text(v).map(|s| a.events_out = Some(s))),
    ],
    init: || ServeArgs { queue_capacity: 64, max_request_bytes: 4 << 20, ..Default::default() },
    finish: |a, _| Ok(ParseOutcome::Serve(a)),
};

#[rustfmt::skip]
const SCREEN: Spec<ScreenCmdArgs> = Spec {
    name: "screen",
    positionals: DECK,
    flags: &[
        Flag::value("--slew", "T", |a, v| time(v).map(|t| a.slew = t)),
        Flag::value("--arrival", "T", |a, v| time(v).map(|t| a.arrival = t)),
        Flag::value("--shape", SHAPES, |a, v| choice(v, Shape::parse, SHAPES).map(|s| a.shape = s)),
        Flag::value("--threshold", "V", |a, v| positive(v).map(|t| a.threshold = t)),
        Flag::value("--escalate-ratio", "R", |a, v| positive(v).map(|r| a.escalate_ratio = r)),
        Flag::switch("--no-escalate", |a| a.no_escalate = true),
        Flag::switch("--strict", |a| a.strict = true),
        Flag::value("--jobs", JOBS, |a, v| jobs(v).map(|j| a.jobs = j)),
        Flag::value("--json", "PATH", |a, v| text(v).map(|s| a.json = Some(s))),
    ],
    init: || ScreenCmdArgs {
        slew: 100e-12, threshold: 0.1, escalate_ratio: 0.8, ..Default::default()
    },
    finish: |mut a, mut positionals| {
        a.deck_path = positionals.pop().unwrap_or_default();
        check_slew(a.slew, a.shape)?;
        Ok(ParseOutcome::Screen(a))
    },
};

#[rustfmt::skip]
const TOP: Spec<TopArgs> = Spec {
    name: "top",
    positionals: &[],
    flags: &[
        Flag::value("--tcp", "ADDR", |a, v| text(v).map(|s| a.transport = Transport::Tcp(s))),
        Flag::value("--unix", "PATH", |a, v| text(v).map(|s| a.transport = Transport::Unix(s))),
        Flag::value("--interval", "MS", |a, v| count(v, 1).map(|ms| a.interval_ms = ms as u64)),
        Flag::switch("--once", |a| a.once = true),
    ],
    // Stdio stands for "no address yet"; `top` cannot attach to it.
    init: || TopArgs { interval_ms: 1000, ..Default::default() },
    finish: |a, _| {
        if a.transport == Transport::Stdio {
            return Err("xtalk top needs a daemon address: --tcp ADDR or --unix PATH".into());
        }
        Ok(ParseOutcome::Top(a))
    },
};

#[rustfmt::skip]
const BENCH_DIFF: Spec<BenchDiffArgs> = Spec {
    name: "bench-diff",
    positionals: &["<old.json>", "<new.json>"],
    flags: &[
        Flag::value("--max-regress-pct", "P",
            |a, v| non_negative(v).map(|p| a.max_regress_pct = p)),
        Flag::value("--fields", "SUBSTR[,SUBSTR...]", |a, v| {
            a.fields.extend(v.split(',').filter(|s| !s.is_empty()).map(str::to_string));
            Ok(())
        }),
    ],
    init: || BenchDiffArgs { max_regress_pct: 10.0, ..Default::default() },
    finish: |mut a, mut positionals| {
        a.new_path = positionals.pop().unwrap_or_default();
        a.old_path = positionals.pop().unwrap_or_default();
        Ok(ParseOutcome::BenchDiff(a))
    },
};

#[rustfmt::skip]
const OPTIMIZE: Spec<OptimizeArgs> = Spec {
    name: "optimize",
    positionals: &[],
    flags: &[
        Flag::value("--lanes", "N", |a, v| count(v, 2).map(|n| a.lanes = n)),
        Flag::value("--iters", "N", |a, v| count(v, 1).map(|n| a.iters = n)),
        Flag::value("--slew", "T", |a, v| time(v).map(|t| a.slew = t)),
        Flag::value("--jobs", JOBS, |a, v| jobs(v).map(|j| a.jobs = j)),
        Flag::value("--json", "PATH", |a, v| text(v).map(|s| a.json = Some(s))),
    ],
    init: || OptimizeArgs { lanes: 16, iters: 20, slew: 100e-12, ..Default::default() },
    // The optimizer drives ramps, so its slew must be positive.
    finish: |a, _| {
        check_slew(a.slew, Shape::Ramp)?;
        Ok(ParseOutcome::Optimize(a))
    },
};

#[rustfmt::skip]
const FIGURE5: Spec<usize> = Spec {
    name: "figure5",
    positionals: &[],
    flags: &[Flag::value("--points", "N", |points, v| count(v, 2).map(|n| *points = n))],
    init: || 10,
    finish: |points, _| Ok(ParseOutcome::Figure5(points)),
};

const LAMBDA: Spec<SweepCmdArgs> = Spec {
    name: "lambda",
    positionals: &[],
    flags: &[CASES, SEED, CORNERS, SWEEP_JOBS],
    init: || sweep_args(EVAL_CASES),
    finish: |mut a, _| {
        a.cases = a.cases.min(EVAL_CASES);
        Ok(ParseOutcome::Lambda(a))
    },
};

const DELAY_TABLE: Spec<SweepCmdArgs> = Spec {
    name: "delay-table",
    positionals: &[],
    flags: &[CASES, SEED, CORNERS],
    init: || sweep_args(EVAL_CASES),
    finish: |mut a, _| {
        a.cases = a.cases.min(EVAL_CASES);
        Ok(ParseOutcome::DelayTable(a))
    },
};

#[rustfmt::skip]
const PEXGEN: Spec<PexgenArgs> = Spec {
    name: "pexgen",
    positionals: &[],
    flags: &[
        Flag::value("--buses", "N", |a, v| count(v, 1).map(|n| a.spec.buses = n)),
        Flag::value("--bits", "N", |a, v| count(v, 1).map(|n| a.spec.bits = n)),
        Flag::value("--segments", "N", |a, v| count(v, 1).map(|n| a.spec.segments = n)),
        Flag::value("--weak-every", "N", |a, v| count(v, 0).map(|n| a.spec.weak_every = n)),
        Flag::switch("--fold", |a| a.spec.fold_cards = true),
        Flag::switch("--benign", |a| a.spec.benign_directives = true),
        Flag::value("--out", "PATH", |a, v| text(v).map(|s| a.out = Some(s))),
    ],
    init: || PexgenArgs { spec: PexDeckSpec::new(8, 16, 4), out: None },
    finish: |mut a, _| {
        a.spec.victim = (0, a.spec.bits / 2);
        Ok(ParseOutcome::Pexgen(a))
    },
};

/// Every command, in `--help` order.
#[rustfmt::skip]
const COMMANDS: &[&dyn Subcommand] = &[
    &INFO, &NOISE, &DELAY, &REDUCE, &AUDIT, &SWEEP, &SERVE, &SCREEN, &TOP, &BENCH_DIFF, &OPTIMIZE,
    &FIGURE5, &LAMBDA, &DELAY_TABLE, &PEXGEN,
];

/// Parses `argv` (program name excluded), returning the command outcome
/// plus the global flags (which any command accepts anywhere on the
/// line, before its name too).
///
/// # Errors
///
/// Returns a user-readable message for unknown commands/flags or
/// malformed values.
pub fn parse(argv: &[String]) -> Result<(ParseOutcome, ObsArgs), Box<dyn Error>> {
    let mut obs = ObsArgs::default();
    let mut argv = argv.iter();
    let outcome = loop {
        let Some(arg) = argv.next() else {
            break ParseOutcome::Help(help());
        };
        if let Some(flag) = find(GLOBAL, arg) {
            apply(flag, &mut obs, &mut argv)?;
            continue;
        }
        if matches!(arg.as_str(), "--help" | "-h" | "help") {
            break ParseOutcome::Help(help());
        }
        let command = COMMANDS
            .iter()
            .find(|command| command.name() == arg)
            .ok_or_else(|| format!("unknown command {arg:?}; try --help"))?;
        break command.read(&mut argv, &mut obs)?;
    };
    Ok((outcome, obs))
}

/// `xtalk --help`: the USAGE lines from the flag tables, then the prose.
fn help() -> String {
    let mut out =
        String::from("xtalk — closed-form crosstalk noise and delay analysis\n\nUSAGE:\n");
    for command in COMMANDS {
        out.push_str(&command.usage());
        out.push('\n');
    }
    out.push('\n');
    out.push_str(HELP_PROSE);
    out
}

const HELP_PROSE: &str = "\
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
evaluation, and prints accuracy tables: far, near and tree are the
paper's Tables 1, 2 and 3 (--cases 1000 or more for stable extremes).
Each table ends with metric II's Vp error range and whether it stays
conservative (no error below -5%). It exits with code 2 when any case
needed a fallback metric.

`xtalk figure5` regenerates the paper's Figure 5, peak noise against
coupling location (--points, default 10), as a table and an ASCII plot.
`xtalk lambda` sweeps metric II's shape factor around the eq.-7 default
over near-end cases, and `xtalk delay-table` scores the three delay
metrics against co-switching simulation (both: --cases, default and cap
300; --seed; --corners; both step as --sim says; --fast-tier has no
delay tier). `xtalk pexgen` writes a PEX-shaped bus-array deck to --out
PATH or stdout: --buses x --bits lanes (default 8 x 16) of --segments
segments (default 4), every --weak-every-th lane driven weak (default
16, 0 for none); --fold splits coupling cards with `+` continuation
lines and --benign adds .GLOBAL/.TEMP/.SUBCKT front matter.

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

Global flags (accepted by every command):
    --metrics-out PATH  write the metrics snapshot as deterministic JSON
                        (byte-identical for every --jobs value)
    --trace-out PATH    write the span timeline as Chrome-trace JSON
                        (load in chrome://tracing or ui.perfetto.dev)
    --stats             print a metrics and timings table to stderr
    --quiet             silence warnings and progress (still counted in
                        the warnings.total metric)
    --sim MODE          golden transient stepping: fixed (default) or
                        adaptive (trap-vs-BE error-controlled steps, same
                        base grid; several times faster on long tails)
    --fast-tier MODE    analytic golden fast tier: off (default), auto
                        (closed-form pole superposition when its
                        conditioning gate admits the case), on (skip the
                        gate margins)
    --metrics-full-out PATH
                        like --metrics-out plus performance-class data:
                        wall times, fast-tier hit/fallback counters,
                        adaptive step savings (not byte-stable)
";
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
    fn solver_flag_is_unknown() {
        let err = parse_err(&["sweep", "--cases", "4", "--solver", "sparse"]);
        assert!(
            err.contains("unknown flag \"--solver\" for xtalk sweep"),
            "{err}"
        );
        let err = parse_err(&["--solver", "dense", "sweep", "--cases", "4"]);
        assert!(err.contains("unknown command \"--solver\""), "{err}");
        assert!(!help().contains("--solver"));
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

    fn parse_err(args: &[&str]) -> String {
        match parse_outcome(args) {
            Ok((outcome, _)) => panic!("{args:?} parsed as {outcome:?}"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn tau_and_threshold_are_validated() {
        // `reduce_quick_nodes` asserts a finite, non-negative threshold.
        for bad in ["-1", "1e400", "nan", "inf", "fast"] {
            let err = parse_err(&["reduce", "d.sp", "--tau", bad]);
            assert!(err.contains("--tau"), "{err}");
        }
        assert_eq!(
            parse_ok(&["reduce", "d.sp", "--tau", "0"]).reduce_tau,
            Some(0.0)
        );
        let tau = parse_ok(&["reduce", "d.sp", "--tau", "1p"])
            .reduce_tau
            .unwrap();
        assert!((tau - 1e-12).abs() < 1e-24);
        // A negative budget flags every aggressor, NaN and inf none.
        for bad in ["-1", "0", "nan", "inf", "-inf"] {
            let err = parse_err(&["noise", "d.sp", "--threshold", bad]);
            assert!(err.contains("--threshold"), "{err}");
        }
        for bad in ["-1n", "nan", "1e400"] {
            let err = parse_err(&["noise", "d.sp", "--arrival", bad]);
            assert!(err.contains("--arrival"), "{err}");
        }
    }

    #[test]
    fn each_command_rejects_flags_it_never_reads() {
        for (args, flag) in [
            (&["delay", "d.sp", "--golden"][..], "--golden"),
            (&["delay", "d.sp", "--jobs", "3"], "--jobs"),
            (&["delay", "d.sp", "--strict"], "--strict"),
            (&["delay", "d.sp", "--slew", "5n"], "--slew"),
            (&["delay", "d.sp", "--metric", "elmore"], "--metric"),
            (&["noise", "d.sp", "--tau", "1p"], "--tau"),
            (
                &["noise", "d.sp", "--delay-metric", "d2m"],
                "--delay-metric",
            ),
            (&["info", "d.sp", "--strict"], "--strict"),
            (&["reduce", "d.sp", "--shape", "exp"], "--shape"),
            (&["audit", "--corners", "0.5"], "--corners"),
            (&["delay-table", "--jobs", "2"], "--jobs"),
            (&["figure5", "--cases", "4"], "--cases"),
        ] {
            let err = parse_err(args);
            assert!(err.contains(&format!("unknown flag {flag:?}")), "{err}");
        }
        let inv = parse_ok(&["delay", "d.sp", "--delay-metric", "d2m"]);
        assert_eq!(inv.delay_metric, DelayMetricArg::D2m);
    }

    #[test]
    fn experiment_commands_parse_with_their_defaults_and_caps() {
        let parsed = |args: &[&str]| parse_outcome(args).unwrap().0;
        assert!(matches!(parsed(&["figure5"]), ParseOutcome::Figure5(10)));
        assert!(matches!(
            parsed(&["figure5", "--points", "2"]),
            ParseOutcome::Figure5(2)
        ));
        for bad in ["0", "1", "x"] {
            assert!(parse_err(&["figure5", "--points", bad]).contains("--points"));
        }

        let ParseOutcome::Lambda(lambda) = parsed(&["lambda"]) else {
            panic!("lambda")
        };
        assert_eq!(lambda.cases, 300);
        assert_eq!(lambda.seed, 0x2002_da7e);
        assert!((lambda.corners - 0.2).abs() < 1e-12);
        assert_eq!(lambda.jobs, Jobs::Auto);
        let ParseOutcome::Lambda(lambda) = parsed(&["lambda", "--cases", "500", "--jobs", "2"])
        else {
            panic!("lambda")
        };
        assert_eq!(lambda.cases, 300, "capped");
        assert_eq!(lambda.jobs, Jobs::Count(2));
        let ParseOutcome::DelayTable(delay) = parsed(&["delay-table", "--cases", "24"]) else {
            panic!("delay-table")
        };
        assert_eq!(delay.cases, 24);
        for command in ["lambda", "delay-table", "sweep"] {
            assert!(parse_err(&[command, "--cases", "0"]).contains("--cases"));
            assert!(parse_err(&[command, "--corners", "7"]).contains("--corners"));
        }

        let ParseOutcome::Pexgen(pex) = parsed(&["pexgen"]) else {
            panic!("pexgen")
        };
        assert_eq!(
            (pex.spec.buses, pex.spec.bits, pex.spec.segments),
            (8, 16, 4)
        );
        assert_eq!((pex.spec.weak_every, pex.spec.victim), (16, (0, 8)));
        assert!(!pex.spec.fold_cards && !pex.spec.benign_directives && pex.out.is_none());
        let ParseOutcome::Pexgen(pex) = parsed(&[
            "pexgen",
            "--buses",
            "1",
            "--bits",
            "4",
            "--segments",
            "2",
            "--weak-every",
            "0",
            "--fold",
            "--benign",
            "--out",
            "d.sp",
        ]) else {
            panic!("pexgen")
        };
        assert_eq!(
            (pex.spec.buses, pex.spec.bits, pex.spec.segments),
            (1, 4, 2)
        );
        assert_eq!((pex.spec.weak_every, pex.spec.victim), (0, (0, 2)));
        assert!(pex.spec.fold_cards && pex.spec.benign_directives);
        assert_eq!(pex.out.as_deref(), Some("d.sp"));
        for flag in ["--buses", "--bits", "--segments"] {
            assert!(parse_err(&["pexgen", flag, "0"]).contains(flag));
        }
    }

    #[test]
    fn help_lists_every_command_and_global_flag() {
        let help = help();
        for command in COMMANDS {
            assert!(
                help.contains(&format!("    xtalk {} ", command.name())),
                "{}",
                command.name()
            );
        }
        for flag in GLOBAL {
            assert!(
                help.contains(&format!("    {}", flag.name)),
                "{}",
                flag.name
            );
        }
        let (_, obs) = parse_outcome(&["pexgen", "--quiet", "--metrics-out", "m.json"]).unwrap();
        assert!(obs.quiet);
        assert_eq!(obs.metrics_out.as_deref(), Some("m.json"));
    }
}
