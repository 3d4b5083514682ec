//! One seeded benchmark for the xtalk workspace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload screen_pex --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `screen_pex`, `sweep_fig4`, `serve_mixed`, `whatif_incr`
//! (see `benchmark/README.md`). With `--trace 0` a run prints every
//! end-to-end metric; with `--trace 1` it replays the workload one
//! public call at a time under an in-memory span recorder and prints
//! every per-layer metric. The last stdout line is one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`. A wrong
//! output exits with code 1 after printing that line.

mod screen;
mod serve;
mod sweep;
mod trace;
mod util;
mod whatif;

use std::process::ExitCode;
use xtalk_sim::{set_fast_tier_override, set_sim_mode_override, FastTier, SimMode};

/// Golden tier pinned for every workload (the production fast path).
pub const SIM_MODE: SimMode = SimMode::Adaptive;
pub const FAST_TIER: FastTier = FastTier::Auto;

/// Seconds of busy cores before any measurement (see `util::warm_cpus`).
const WARM_S: f64 = 2.0;
/// Fresh processes that each time their workload's set-up once, cold;
/// `setup_s` is their median.
const SETUP_PROBES: usize = 9;

/// End-to-end metrics every workload prints with `--trace 0`. Tail
/// latencies are printed as notes only: on a shared 2-vCPU host a p99
/// follows the host's stalls, not the program.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("peak_rss_bytes", "bytes"),
    ("vp_err_mean_pct", "%"),
];

/// Per-layer metrics every workload prints with `--trace 1`; layers a
/// workload does not reach read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuit.stream_s", "s"),
    ("circuit.partition_s", "s"),
    ("circuit.materialize_s", "s"),
    ("circuit.materialize_calls", "count"),
    ("circuit.island_nodes", "count"),
    ("circuit.validate_s", "s"),
    ("circuit.parse_deck_s", "s"),
    ("moments.factor_s", "s"),
    ("moments.factor_calls", "count"),
    ("moments.dense_bytes", "bytes"),
    ("moments.solve_s", "s"),
    ("core.chain_s", "s"),
    ("core.chain_calls", "count"),
    ("core.metric2_frac", "ratio"),
    ("core.clamp_frac", "ratio"),
    ("core.superpose_s", "s"),
    ("core.baselines_s", "s"),
    ("core.batch_s", "s"),
    ("sim.golden_s", "s"),
    ("sim.golden_calls", "count"),
    ("sim.analytic_frac", "ratio"),
    ("tech.generate_s", "s"),
    ("eval.report_s", "s"),
    ("exec.parallel_eff", "ratio"),
    ("serve.proto_parse_s", "s"),
    ("serve.analyze_s", "s"),
    ("serve.wire_us", "us"),
    ("serve.shed", "count"),
    ("incr.session_s", "s"),
    ("incr.apply_s", "s"),
    ("incr.hit_frac", "ratio"),
    ("incr.memo_hit_frac", "ratio"),
    ("incr.invalidated_per_delta", "count"),
    ("incr.rebuild_s", "s"),
    ("screen.escalated_frac", "ratio"),
    ("screen.size_exponent", "ratio"),
    ("screen.nonconservative_nets", "count"),
    ("trace.coverage", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.mismatched", "count"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub jobs: usize,
    /// Internal: time the workload's set-up once in this fresh process,
    /// print the seconds and exit.
    pub setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0_f64;
    let mut trace = false;
    let mut setup_probe = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}: expected 0 or 1")),
                }
            }
            "--setup-probe" => setup_probe = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        // Every core the host grants, and at least two so the threaded
        // paths always run.
        jobs: util::host_parallelism().max(2),
        setup_probe,
    })
}

/// Best-effort source revision; a checkout without git metadata reads
/// `unknown`.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Times the workload's set-up in [`SETUP_PROBES`] fresh processes of
/// this binary (each one cold, before any other program call) and
/// returns the median seconds.
fn probe_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut walls = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let seed = args.seed.to_string();
        let probe = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed])
            .args(["--setup-probe", "1"])
            .output()
            .map_err(|e| format!("set-up probe did not start: {e}"))?;
        let stdout = String::from_utf8_lossy(&probe.stdout);
        let wall = stdout
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|_| probe.status.success());
        match wall {
            Some(w) => walls.push(w),
            None => {
                return Err(format!(
                    "set-up probe failed: {}{}",
                    stdout.trim(),
                    String::from_utf8_lossy(&probe.stderr).trim()
                ))
            }
        }
    }
    Ok(util::median(&walls))
}

/// One cold set-up of `workload`, in seconds.
fn setup_once(args: &Args) -> Result<f64, String> {
    match args.workload.as_str() {
        "screen_pex" => Ok(screen::setup(args.jobs)),
        "sweep_fig4" => Ok(sweep::setup(args.jobs)),
        "serve_mixed" => serve::setup(args.jobs),
        "whatif_incr" => whatif::setup(args.jobs),
        other => Err(format!("unknown workload {other}")),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Pin what is measured: explicit golden tier (the XTALK_SIM and
    // XTALK_FAST_TIER variables are ignored once an override is set),
    // explicit worker counts everywhere, and xtalk-obs metrics left off.
    set_sim_mode_override(SIM_MODE);
    set_fast_tier_override(FAST_TIER);
    xtalk_obs::set_quiet(true);
    if args.setup_probe {
        return match setup_once(&args) {
            Ok(wall) => {
                println!("{wall}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    util::warm_cpus(WARM_S);
    let setup = (!args.trace).then(|| probe_setup(&args));

    let mut outcome = match (args.workload.as_str(), args.trace) {
        ("screen_pex", false) => screen::run(&args),
        ("screen_pex", true) => screen::trace(&args),
        ("sweep_fig4", false) => sweep::run(&args),
        ("sweep_fig4", true) => sweep::trace(&args),
        ("serve_mixed", false) => serve::run(&args),
        ("serve_mixed", true) => serve::trace(&args),
        ("whatif_incr", false) => whatif::run(&args),
        ("whatif_incr", true) => whatif::trace(&args),
        (other, _) => {
            eprintln!("benchmark: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    match setup {
        Some(Ok(setup_s)) => outcome.metric("setup_s", setup_s, "s"),
        Some(Err(e)) => outcome.errors.push(e),
        None => {}
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, _, _) in &outcome.metrics {
        if !wanted.iter().any(|(w, _)| w == name) {
            outcome
                .errors
                .push(format!("workload reported undeclared metric {name}"));
        }
    }
    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match outcome.metrics.iter().find(|(n, _, _)| *n == name) {
            Some(&(_, v, _)) => v,
            None if args.trace => 0.0,
            None => {
                outcome
                    .errors
                    .push(format!("workload did not report {name}"));
                f64::NAN
            }
        };
        if !value.is_finite() {
            outcome.errors.push(format!("{name} is not finite"));
        }
        println!("metric {name} = {} {unit}", json_number(value));
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for line in &outcome.notes {
        println!("{line}");
    }
    println!(
        "provenance {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"jobs\": {}, \"host_parallelism\": {}, \"git_revision\": \"{}\", \
         \"sim_mode\": \"{}\", \"fast_tier\": \"{}\", \"obs_metrics\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.jobs,
        util::host_parallelism(),
        git_revision(),
        SIM_MODE.as_str(),
        FAST_TIER.as_str(),
        xtalk_obs::metrics_enabled(),
    );
    for e in &outcome.errors {
        println!("WRONG OUTPUT: {e}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
