//! Evaluation harness for the crosstalk-delay extension: compares the
//! three closed-form delay metrics against transient simulation with the
//! victim and its aggressor actually co-switching, over the same seeded
//! two-pin workloads the noise tables use.

use crate::ErrorStats;
use std::fmt::Write as _;
use xtalk_circuit::{signal::InputSignal, NetId, Network};
use xtalk_delay::{DelayAnalyzer, DelayMetric, SwitchFactor};
use xtalk_sim::{sim_mode, SimOptions, SimWorkspace, TransientSim};
use xtalk_tech::sweep::{two_pin_cases, SweepConfig};
use xtalk_tech::{CouplingDirection, Technology};

/// Error statistics of one delay metric under one switching scenario.
#[derive(Debug, Clone)]
pub struct DelayRow {
    /// The metric evaluated.
    pub metric: DelayMetric,
    /// Scenario name (`"quiet"`, `"along"`, `"against"`).
    pub scenario: &'static str,
    /// Error statistics vs. co-switching simulation.
    pub stats: ErrorStats,
}

/// Simulated victim 50% delay with the aggressor quiet / rising along /
/// falling against a rising victim edge (fast 50 ps edge).
fn simulated_delay(net: &Network, agg: NetId, scenario: &str) -> Option<f64> {
    let victim_in = InputSignal::rising_ramp(0.0, 50e-12);
    let mut stim = vec![(net.victim(), victim_in)];
    match scenario {
        "quiet" => {}
        "along" => stim.push((agg, InputSignal::rising_ramp(0.0, 50e-12))),
        "against" => stim.push((agg, InputSignal::falling_ramp(0.0, 50e-12))),
        _ => unreachable!("unknown scenario"),
    }
    let sim = TransientSim::new(net).ok()?;
    let opts = SimOptions::auto(net, &stim);
    let run = sim
        .run_full_with(&stim, &opts, sim_mode(), &mut SimWorkspace::new())
        .ok()?;
    let w = run.probe(net.victim_output())?;
    let t50 = w.crossing_after(0.0, 0.5, true)?;
    Some(t50 - victim_in.crossing_time(0.5))
}

/// Runs the delay evaluation: `config.cases` random two-pin circuits,
/// three metrics × three scenarios, stepped as `--sim` says ([`sim_mode`]).
pub fn run_delay_table(tech: &Technology, config: &SweepConfig) -> Vec<DelayRow> {
    let run = two_pin_cases(tech, CouplingDirection::FarEnd, config);
    if !run.is_complete() {
        xtalk_obs::warn!("delay sweep degraded: {}", run.summary());
    }
    let cases = run.cases;
    let scenarios: [(&'static str, SwitchFactor); 3] = [
        ("along", SwitchFactor::SameDirection),
        ("quiet", SwitchFactor::Quiet),
        ("against", SwitchFactor::Opposite),
    ];
    let metrics = [DelayMetric::Elmore, DelayMetric::D2m, DelayMetric::TwoPole];

    let mut rows: Vec<DelayRow> = metrics
        .iter()
        .flat_map(|&metric| {
            scenarios.iter().map(move |&(scenario, _)| DelayRow {
                metric,
                scenario,
                stats: ErrorStats::default(),
            })
        })
        .collect();

    for case in &cases {
        let analyzer = DelayAnalyzer::new(&case.network);
        for (scenario, factor) in scenarios {
            let Some(golden) = simulated_delay(&case.network, case.aggressor, scenario)
            else {
                continue;
            };
            if golden < 1e-12 {
                continue; // degenerate: delay below measurement resolution
            }
            for metric in metrics {
                let Ok(est) = analyzer.delay(&[(case.aggressor, factor)], metric) else {
                    continue;
                };
                let row = rows
                    .iter_mut()
                    .find(|r| r.metric == metric && r.scenario == scenario)
                    .expect("row exists");
                row.stats.record((est - golden) / golden * 100.0);
            }
        }
    }
    rows
}

/// Renders the delay table.
pub fn render_delay_table(rows: &[DelayRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "coupling-aware delay metrics vs co-switching simulation — error %"
    );
    let _ = writeln!(
        out,
        "{:<10} {:<10} {:>10} {:>10} {:>10} {:>8}",
        "metric", "scenario", "min", "max", "ave |%|", "cases"
    );
    for r in rows {
        if r.stats.count() == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:>10.1} {:>10.1} {:>10.1} {:>8}",
            format!("{:?}", r.metric),
            r.scenario,
            r.stats.max_neg(),
            r.stats.max_pos(),
            r.stats.avg_abs(),
            r.stats.count()
        );
    }
    out
}
