use crate::args::{DelayMetricArg, Invocation, MetricArg};
use std::error::Error;
use std::fmt::Write as _;
use xtalk_circuit::{NetId, Network, Severity};
use xtalk_core::victim::{aggressor_nets, AggressorNoise, VictimNoise};
use xtalk_core::{FallbackPolicy, MetricKind, RobustAnalyzer};
use xtalk_delay::{DelayAnalyzer, DelayMetric};
use xtalk_exec::par_map_indexed_with;
use xtalk_sim::{golden_noise_tiered, GoldenOpts, SimWorkspace};

/// `info` sub-command: structure summary.
pub fn info_report(network: &Network) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} nodes, {} nets, {} resistors, {} ground caps, {} coupling caps",
        network.node_count(),
        network.net_count(),
        network.resistors().len(),
        network.ground_caps().len(),
        network.coupling_caps().len()
    );
    for (id, net) in network.nets() {
        let cc: f64 = network
            .coupling_caps()
            .iter()
            .filter(|c| network.node_net(c.a) == id || network.node_net(c.b) == id)
            .map(|c| c.farads)
            .sum();
        let _ = writeln!(
            out,
            "  {:<12} {:?}: {} nodes, driver {:.0} ohm, R {:.0} ohm, C {:.1} fF, coupling {:.1} fF",
            net.name(),
            net.role(),
            net.nodes().len(),
            net.driver().ohms,
            network.net_total_res(id),
            network.net_total_cap(id) * 1e15,
            cc * 1e15
        );
    }
    let _ = writeln!(
        out,
        "victim output: {}",
        network.node_name(network.victim_output())
    );
    out
}

/// `noise` sub-command: per-aggressor estimates (each aggressor switching
/// alone), optional golden cross-check and budget flags.
///
/// The rows come from the shared victim pipeline
/// ([`RobustAnalyzer::analyze_victim`]): the default metric II path
/// degrades rung by rung instead of aborting, annotates each degraded row,
/// and the returned flag tells the binary to exit with code 2.
/// `--metric one|closed` run as asked, with no fallback. Under `--strict`
/// any degradation (including deck validation warnings) is a hard error
/// instead. A failed golden cross-check degrades its row and never aborts
/// the report.
///
/// # Errors
///
/// Propagates analysis failures; under `--strict`, also any condition
/// that would otherwise merely degrade the run.
pub fn noise_report(network: &Network, inv: &Invocation) -> Result<(String, bool), Box<dyn Error>> {
    let robust = RobustAnalyzer::with_policy(network, FallbackPolicy::for_strict(inv.strict))?;
    let input = inv.shape.input(inv.arrival, inv.slew);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "noise at victim output {} ({:?} input, slew {:.0} ps, metric {:?}{}):",
        network.node_name(network.victim_output()),
        inv.shape,
        inv.slew * 1e12,
        inv.metric,
        if inv.strict { ", strict" } else { "" }
    );
    let warnings: Vec<String> = robust
        .validation()
        .with_severity(Severity::Warning)
        .map(ToString::to_string)
        .collect();
    if !warnings.is_empty() {
        let _ = writeln!(out, "deck validation: {} warning(s)", warnings.len());
        for w in &warnings {
            let _ = writeln!(out, "  - {w}");
        }
    }
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "aggressor", "Vp(Vdd)", "Tp (ps)", "Wn (ps)", "T1 (ps)", "flag"
    );

    let aggressors = aggressor_nets(network, inv.aggressor.as_deref());
    let victim = match inv.metric {
        // The default metric runs through the fallback chain.
        MetricArg::Two => robust.analyze_victim(&aggressors, &input),
        // Explicitly requested metrics run as asked, with no fallback.
        MetricArg::One | MetricArg::Closed => {
            VictimNoise::collect(&aggressors, inv.strict, |agg| {
                let inner = robust.inner();
                AggressorNoise::from_metric(if inv.metric == MetricArg::One {
                    inner.analyze(agg, &input, MetricKind::One)
                } else {
                    inner.analyze_closed_form(agg, &input, MetricKind::Two)
                })
            })
        }
    };
    if let Some(failure) = victim.first_failure().filter(|_| inv.strict) {
        return Err(failure.into());
    }

    // Golden cross-checks fan out over the workers; rows are rendered
    // serially in net order afterwards, which keeps the report
    // byte-identical for every --jobs value.
    let checked: Vec<NetId> = victim
        .rows
        .iter()
        .filter(|(_, row)| inv.golden && matches!(row, AggressorNoise::Estimate(..)))
        .map(|&(agg, _)| agg)
        .collect();
    let mut golden = par_map_indexed_with(&checked, inv.jobs, SimWorkspace::new, |ws, _, &agg| {
        golden_noise_tiered(
            network,
            &[(agg, input)],
            network.victim_output(),
            ws,
            &GoldenOpts::from_globals(),
        )
    })?
    .into_iter();

    let mut degraded = victim.degraded();
    let mut any = false;
    for (agg, row) in &victim.rows {
        let name = network.net(*agg).name();
        match row {
            AggressorNoise::Estimate(est, provenance) => {
                any = true;
                let flag = match inv.threshold {
                    Some(budget) if est.vp > budget => "VIOLATION",
                    Some(_) => "ok",
                    None => "",
                };
                let _ = writeln!(
                    out,
                    "{:<14} {:>8.4} {:>10.1} {:>10.1} {:>10.1} {:>9}",
                    name,
                    est.vp,
                    est.tp * 1e12,
                    est.wn * 1e12,
                    est.t1 * 1e12,
                    flag
                );
                if let Some(p) = provenance.as_ref().filter(|p| p.degraded()) {
                    let _ = writeln!(out, "  warning: {p}");
                }
                match golden.next() {
                    Some(Ok((golden, _))) => {
                        let _ = writeln!(
                            out,
                            "{:<14} {:>8.4} {:>10.1} {:>10.1} {:>10.1} {:>9}",
                            "  (simulated)",
                            golden.vp,
                            golden.tp * 1e12,
                            golden.wn * 1e12,
                            golden.t1 * 1e12,
                            format!("{:+.0}%", (est.vp - golden.vp) / golden.vp * 100.0)
                        );
                    }
                    Some(Err(e)) => {
                        degraded = true;
                        let _ = writeln!(
                            out,
                            "{:<14} {:>8} golden cross-check failed: {e}",
                            "  (simulated)", "-"
                        );
                    }
                    None => {}
                }
            }
            AggressorNoise::NoCoupling => {
                let _ = writeln!(
                    out,
                    "{:<14} {:>8} (no coupling into the victim output)",
                    name,
                    "-"
                );
            }
            AggressorNoise::Failed(msg) => {
                any = true;
                let _ = writeln!(out, "{:<14} {:>8} analysis failed: {msg}", name, "-");
            }
        }
    }
    if !any {
        let _ = writeln!(
            out,
            "no coupled aggressors found{}",
            inv.aggressor
                .as_deref()
                .map(|n| format!(" matching {n:?}"))
                .unwrap_or_default()
        );
    }
    if degraded {
        let _ = writeln!(
            out,
            "NOTE: run degraded (fallback metrics or failed rows above); exit code 2"
        );
    }
    Ok((out, degraded))
}

/// `delay` sub-command: victim delay window under switch factors.
///
/// # Errors
///
/// Propagates analysis failures.
pub fn delay_report(network: &Network, inv: &Invocation) -> Result<String, Box<dyn Error>> {
    let metric = match inv.delay_metric {
        DelayMetricArg::Elmore => DelayMetric::Elmore,
        DelayMetricArg::D2m => DelayMetric::D2m,
        DelayMetricArg::TwoPole => DelayMetric::TwoPole,
    };
    let analyzer = DelayAnalyzer::new(network);
    let quiet = analyzer.delay(&[], metric)?;
    let (best, worst) = analyzer.delay_window(metric)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "victim 50% delay to {} ({:?} metric):",
        network.node_name(network.victim_output()),
        inv.delay_metric
    );
    let _ = writeln!(out, "  best case (all aggressors along):  {:.1} ps", best * 1e12);
    let _ = writeln!(out, "  quiet aggressors:                  {:.1} ps", quiet * 1e12);
    let _ = writeln!(out, "  worst case (all against):          {:.1} ps", worst * 1e12);
    let _ = writeln!(
        out,
        "  coupling-induced uncertainty:      {:.1} ps ({:.0}%)",
        (worst - best) * 1e12,
        (worst - best) / quiet * 100.0
    );
    if let Ok(slew) = analyzer.slew(&[]) {
        let _ = writeln!(
            out,
            "  output transition (quiet, 10-90%): {:.1} ps",
            slew * 1e12
        );
    }
    Ok(out)
}

/// `reduce` sub-command: TICER quick-node elimination; the reduced deck
/// goes to stdout so it can be piped into a file or another tool.
///
/// # Errors
///
/// Propagates reduction failures.
pub fn reduce_report(network: &Network, inv: &Invocation) -> Result<String, Box<dyn Error>> {
    let tau = inv
        .reduce_tau
        .unwrap_or_else(|| xtalk_moments::tree::open_circuit_b1(network) * 1e-3);
    let reduced = xtalk_circuit::reduce::reduce_quick_nodes(network, tau)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "* xtalk reduce: {} -> {} nodes (tau threshold {:.3e} s)",
        network.node_count(),
        reduced.node_count(),
        tau
    );
    out.push_str(&xtalk_circuit::spice::write_deck(&reduced));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{Command, Invocation};
    use xtalk_circuit::signal::Shape;
    use xtalk_circuit::{NetRole, NetworkBuilder};

    fn sample_network() -> Network {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("victim", NetRole::Victim);
        let a = b.add_net("agg0", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let v1 = b.add_node(v, "v1");
        let a0 = b.add_node(a, "a0");
        b.add_driver(v, v0, 300.0).unwrap();
        b.add_driver(a, a0, 150.0).unwrap();
        b.add_resistor(v0, v1, 60.0).unwrap();
        b.add_ground_cap(v0, 2e-15).unwrap();
        b.add_ground_cap(v1, 8e-15).unwrap();
        b.add_sink(v1, 12e-15).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        b.add_coupling_cap(a0, v1, 25e-15).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn info_lists_nets_and_totals() {
        let report = info_report(&sample_network());
        assert!(report.contains("victim"));
        assert!(report.contains("agg0"));
        assert!(report.contains("coupling"));
        assert!(report.contains("victim output: v1"));
    }

    #[test]
    fn noise_report_contains_estimates() {
        let net = sample_network();
        let (report, degraded) = noise_report(&net, &Invocation::new(Command::Noise)).unwrap();
        assert!(report.contains("agg0"));
        assert!(report.contains("Vp"));
        assert!(!report.contains("VIOLATION"));
        assert!(!degraded, "healthy deck must not be flagged degraded");
        assert!(!report.contains("warning:"));
    }

    #[test]
    fn threshold_flags_violations() {
        let net = sample_network();
        let mut inv = Invocation::new(Command::Noise);
        inv.threshold = Some(1e-6); // everything violates
        let (report, _) = noise_report(&net, &inv).unwrap();
        assert!(report.contains("VIOLATION"));
        inv.threshold = Some(0.99); // nothing violates
        let (report, _) = noise_report(&net, &inv).unwrap();
        assert!(report.contains("ok"));
    }

    #[test]
    fn golden_flag_adds_simulated_row() {
        let net = sample_network();
        let mut inv = Invocation::new(Command::Noise);
        inv.golden = true;
        let (report, _) = noise_report(&net, &inv).unwrap();
        assert!(report.contains("(simulated)"));
        assert!(report.contains('%'));
    }

    #[test]
    fn closed_form_metric_works_through_cli_path() {
        let net = sample_network();
        let mut inv = Invocation::new(Command::Noise);
        inv.metric = MetricArg::Closed;
        let (report, degraded) = noise_report(&net, &inv).unwrap();
        assert!(report.contains("agg0"));
        assert!(!degraded);
    }

    #[test]
    fn aggressor_filter_limits_the_report() {
        let net = sample_network();
        let mut inv = Invocation::new(Command::Noise);
        inv.aggressor = Some("agg0".into());
        let (report, _) = noise_report(&net, &inv).unwrap();
        assert!(report.contains("agg0"));
        inv.aggressor = Some("nonexistent".into());
        let (report, _) = noise_report(&net, &inv).unwrap();
        assert!(report.contains("no coupled aggressors found matching"));
    }

    #[test]
    fn step_input_degrades_and_annotates_the_row() {
        // An ideal step defeats metric II's eq.-54 seeding; the robust
        // chain falls back to the symmetric metric I rung and the run is
        // flagged degraded so the binary can exit with code 2.
        let net = sample_network();
        let mut inv = Invocation::new(Command::Noise);
        inv.shape = Shape::Step;
        let (report, degraded) = noise_report(&net, &inv).unwrap();
        assert!(degraded, "fallback must flag the run degraded");
        assert!(report.contains("warning: degraded to metric I"), "{report}");
        assert!(report.contains("exit code 2"), "{report}");
    }

    #[test]
    fn strict_mode_refuses_to_degrade() {
        let net = sample_network();
        let mut inv = Invocation::new(Command::Noise);
        inv.shape = Shape::Step;
        inv.strict = true;
        let err = noise_report(&net, &inv).unwrap_err().to_string();
        assert!(err.contains("strict"), "{err}");
    }

    #[test]
    fn reduce_report_emits_a_parseable_smaller_deck() {
        // A chain with removable internal nodes.
        let mut b = NetworkBuilder::new();
        let v = b.add_net("victim", NetRole::Victim);
        let a = b.add_net("agg0", NetRole::Aggressor);
        let mut vp = b.add_node(v, "v0");
        b.add_driver(v, vp, 300.0).unwrap();
        for i in 1..=8 {
            let n = b.add_node(v, format!("v{i}"));
            b.add_resistor(vp, n, 10.0).unwrap();
            b.add_ground_cap(n, 1e-15).unwrap();
            vp = n;
        }
        b.add_sink(vp, 10e-15).unwrap();
        let a0 = b.add_node(a, "a0");
        b.add_driver(a, a0, 150.0).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        b.add_coupling_cap(a0, vp, 20e-15).unwrap();
        let net = b.build().unwrap();

        let report = reduce_report(&net, &Invocation::new(Command::Reduce)).unwrap();
        assert!(report.contains("-> "));
        // The emitted deck parses back and is smaller.
        let deck: String = report
            .lines()
            .skip(1)
            .collect::<Vec<_>>()
            .join("\n");
        let reduced = xtalk_circuit::spice::parse_deck(&deck).unwrap();
        assert!(reduced.node_count() < net.node_count());
    }

    #[test]
    fn delay_report_orders_window() {
        let net = sample_network();
        let report = delay_report(&net, &Invocation::new(Command::Delay)).unwrap();
        assert!(report.contains("best case"));
        assert!(report.contains("worst case"));
        // Extract the three numbers and check ordering.
        let ps: Vec<f64> = report
            .lines()
            .filter_map(|l| l.split_whitespace().rev().nth(1)?.parse().ok())
            .collect();
        assert!(ps.len() >= 3);
        assert!(ps[0] < ps[1] && ps[1] < ps[2], "{ps:?}");
    }
}
