//! One victim against its aggressors: the analysis every front end shares.
//!
//! `xtalk noise`, the `serve` daemon and the chip `screen` ask the same
//! question — how much noise does each aggressor put on this victim? —
//! and render the answer differently. This module makes the decisions
//! they share, so identical decks get identical answers:
//!
//! * which aggressors a victim gets: every aggressor net, optionally one
//!   by name ([`aggressor_nets`]), or the nets that share a coupling
//!   capacitor with it ([`coupled_nets`]);
//! * how each aggressor's result is classified ([`AggressorNoise`]: an
//!   estimate, no coupling, or failed);
//! * which policy a strict flag selects
//!   ([`FallbackPolicy::for_strict`](crate::FallbackPolicy::for_strict))
//!   and where a strict run stops: at the first failing aggressor
//!   ([`VictimNoise::collect`]);
//! * when a victim counts as degraded ([`VictimNoise::degraded`]);
//! * how the estimates superpose and which rung was the worst
//!   ([`VictimNoise::combined`], [`VictimNoise::worst_rung`]).
//!
//! Golden cross-checks, deadlines and rendering stay with each front end.
//!
//! # Examples
//!
//! ```
//! use xtalk_circuit::{signal::InputSignal, NetRole, NetworkBuilder};
//! use xtalk_core::victim::{aggressor_nets, AggressorNoise};
//! use xtalk_core::{FallbackPolicy, RobustAnalyzer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetworkBuilder::new();
//! let v = b.add_net("victim", NetRole::Victim);
//! let a = b.add_net("agg", NetRole::Aggressor);
//! let vn = b.add_node(v, "v0");
//! let an = b.add_node(a, "a0");
//! b.add_driver(v, vn, 500.0)?;
//! b.add_driver(a, an, 500.0)?;
//! b.add_sink(vn, 20e-15)?;
//! b.add_sink(an, 20e-15)?;
//! b.add_coupling_cap(vn, an, 30e-15)?;
//! let network = b.build()?;
//!
//! let robust = RobustAnalyzer::with_policy(&network, FallbackPolicy::for_strict(false))?;
//! let aggressors = aggressor_nets(&network, None);
//! let victim = robust.analyze_victim(&aggressors, &InputSignal::rising_ramp(0.0, 1e-10));
//! assert!(matches!(victim.rows[0].1, AggressorNoise::Estimate(..)));
//! assert!(!victim.degraded());
//! assert!(victim.combined().is_some_and(|c| c.vp > 0.0));
//! # Ok(())
//! # }
//! ```

use crate::superpose::{worst_case, CombinedNoise, TimingWindow};
use crate::{
    MetricError, MomentSource, NoiseEstimate, Provenance, RobustAnalyzer, RobustError,
    RobustEstimate, Rung,
};
use xtalk_circuit::{signal::InputSignal, NetId, Network};

/// What one aggressor's analysis resolved to.
#[derive(Debug, Clone, PartialEq)]
pub enum AggressorNoise {
    /// A noise estimate, with its fallback provenance when it came
    /// through the rung chain (`None` for a metric run as asked).
    Estimate(NoiseEstimate, Option<Provenance>),
    /// The aggressor puts no noise on the victim output.
    NoCoupling,
    /// Every permitted path failed; the text says why.
    Failed(String),
}

impl AggressorNoise {
    /// Classifies one result of the fallback chain: an error that only
    /// says "no noise" ([`RobustError::is_no_noise`]) means no coupling.
    fn from_chain(result: Result<RobustEstimate, RobustError>) -> Self {
        match result {
            Ok(re) => AggressorNoise::Estimate(re.estimate, Some(re.provenance)),
            Err(e) if e.is_no_noise() => AggressorNoise::NoCoupling,
            Err(e) => AggressorNoise::Failed(e.to_string()),
        }
    }

    /// Classifies one result of a metric run as asked, outside the chain.
    pub fn from_metric(result: Result<NoiseEstimate, MetricError>) -> Self {
        match result {
            Ok(estimate) => AggressorNoise::Estimate(estimate, None),
            Err(MetricError::NoNoise) => AggressorNoise::NoCoupling,
            Err(e) => AggressorNoise::Failed(e.to_string()),
        }
    }

    /// `true` for a failed row and for an estimate whose provenance is
    /// degraded.
    fn degraded(&self) -> bool {
        match self {
            AggressorNoise::Estimate(_, provenance) => {
                provenance.as_ref().is_some_and(Provenance::degraded)
            }
            AggressorNoise::NoCoupling => false,
            AggressorNoise::Failed(_) => true,
        }
    }
}

/// Per-aggressor results for one victim, in aggressor order.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimNoise {
    /// One row per analyzed aggressor. A strict run that failed ends at
    /// its first failing aggressor.
    pub rows: Vec<(NetId, AggressorNoise)>,
}

impl VictimNoise {
    /// Runs `row` over `aggressors` in order. A `strict` run stops after
    /// the first failing aggressor.
    pub fn collect(
        aggressors: &[NetId],
        strict: bool,
        mut row: impl FnMut(NetId) -> AggressorNoise,
    ) -> Self {
        let mut rows = Vec::with_capacity(aggressors.len());
        for &agg in aggressors {
            let noise = row(agg);
            let stop = strict && matches!(noise, AggressorNoise::Failed(_));
            rows.push((agg, noise));
            if stop {
                break;
            }
        }
        VictimNoise { rows }
    }

    /// `true` when any row failed or carries an estimate whose provenance
    /// is degraded.
    pub fn degraded(&self) -> bool {
        self.rows.iter().any(|(_, row)| row.degraded())
    }

    /// The text of the first failed row, in aggressor order.
    pub fn first_failure(&self) -> Option<&str> {
        self.rows.iter().find_map(|(_, row)| match row {
            AggressorNoise::Failed(detail) => Some(detail.as_str()),
            _ => None,
        })
    }

    /// The lowest-fidelity rung any estimate came from (`None` when no
    /// row carries a chain estimate).
    pub fn worst_rung(&self) -> Option<Rung> {
        self.rows
            .iter()
            .filter_map(|(_, row)| match row {
                AggressorNoise::Estimate(_, Some(provenance)) => Some(provenance.rung()),
                _ => None,
            })
            .max()
    }

    /// Worst-case superposition of every estimate, each pulse pinned at
    /// its own arrival (`None` when no row carries an estimate).
    pub fn combined(&self) -> Option<CombinedNoise> {
        let contributions: Vec<(NoiseEstimate, TimingWindow)> = self
            .rows
            .iter()
            .filter_map(|(_, row)| match row {
                AggressorNoise::Estimate(estimate, _) => Some((*estimate, TimingWindow::pinned())),
                _ => None,
            })
            .collect();
        (!contributions.is_empty()).then(|| worst_case(&contributions))
    }
}

impl<M: MomentSource> RobustAnalyzer<'_, M> {
    /// Every aggressor of `aggressors` switching alone with `input`,
    /// through the fallback chain; a strict policy stops at the first
    /// failing aggressor.
    pub fn analyze_victim(&self, aggressors: &[NetId], input: &InputSignal) -> VictimNoise {
        VictimNoise::collect(aggressors, self.policy().strict, |agg| {
            AggressorNoise::from_chain(self.analyze(agg, input))
        })
    }
}

/// The aggressors `noise` and `serve` analyze: every aggressor net in
/// net order, or only the one called `name`.
pub fn aggressor_nets(network: &Network, name: Option<&str>) -> Vec<NetId> {
    network
        .aggressor_nets()
        .filter(|(_, net)| name.map_or(true, |wanted| net.name() == wanted))
        .map(|(id, _)| id)
        .collect()
}

/// For each net, the other nets it shares a coupling capacitor with,
/// ascending: the aggressors `screen` analyzes for that net as victim.
/// The rest of an island couples through them and is already part of the
/// victim's moment model. Victim designation does not change the result.
pub fn coupled_nets(network: &Network) -> Vec<Vec<NetId>> {
    let mut coupled = vec![Vec::new(); network.net_count()];
    for cc in network.coupling_caps() {
        let (a, b) = (network.node_net(cc.a), network.node_net(cc.b));
        if a != b {
            coupled[a.index()].push(b);
            coupled[b.index()].push(a);
        }
    }
    for nets in &mut coupled {
        nets.sort_unstable();
        nets.dedup();
    }
    coupled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FallbackPolicy;
    use xtalk_circuit::{NetRole, NetworkBuilder};

    /// A victim with two coupled aggressors and one that is not coupled.
    fn three_aggressors() -> (Network, [NetId; 3]) {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("victim", NetRole::Victim);
        let v0 = b.add_node(v, "v0");
        b.add_driver(v, v0, 300.0).unwrap();
        b.add_sink(v0, 10e-15).unwrap();
        let mut aggs = [v; 3];
        for (k, agg) in aggs.iter_mut().enumerate() {
            *agg = b.add_net(format!("agg{k}"), NetRole::Aggressor);
            let a0 = b.add_node(*agg, format!("a{k}"));
            b.add_driver(*agg, a0, 150.0).unwrap();
            b.add_sink(a0, 10e-15).unwrap();
            if k != 1 {
                b.add_coupling_cap(a0, v0, (10.0 + 5.0 * k as f64) * 1e-15)
                    .unwrap();
            }
        }
        (b.build().unwrap(), aggs)
    }

    #[test]
    fn aggressor_selection_by_name_and_by_coupling() {
        let (net, aggs) = three_aggressors();
        assert_eq!(aggressor_nets(&net, None), aggs.to_vec());
        assert_eq!(aggressor_nets(&net, Some("agg1")), vec![aggs[1]]);
        assert!(aggressor_nets(&net, Some("nope")).is_empty());
        let coupled = coupled_nets(&net);
        assert_eq!(coupled[net.victim().index()], vec![aggs[0], aggs[2]]);
        assert_eq!(coupled[aggs[0].index()], vec![net.victim()]);
        assert!(coupled[aggs[1].index()].is_empty());
    }

    #[test]
    fn rows_classify_and_superpose() {
        let (net, aggs) = three_aggressors();
        let robust = RobustAnalyzer::new(&net).unwrap();
        let input = InputSignal::rising_ramp(0.0, 1e-10);
        let victim = robust.analyze_victim(&aggs, &input);
        assert_eq!(victim.rows.len(), 3);
        assert!(matches!(victim.rows[1].1, AggressorNoise::NoCoupling));
        assert!(!victim.degraded());
        assert_eq!(victim.first_failure(), None);
        assert_eq!(victim.worst_rung(), Some(Rung::MetricTwo));
        let single = |agg| robust.analyze(agg, &input).unwrap().estimate;
        let expected = worst_case(&[
            (single(aggs[0]), TimingWindow::pinned()),
            (single(aggs[2]), TimingWindow::pinned()),
        ]);
        assert_eq!(victim.combined(), Some(expected));
    }

    #[test]
    fn steps_degrade_and_strict_runs_stop_at_the_first_failure() {
        let (net, aggs) = three_aggressors();
        let step = InputSignal::step(0.0);
        let lenient = RobustAnalyzer::new(&net)
            .unwrap()
            .analyze_victim(&aggs, &step);
        assert!(lenient.degraded());
        assert_eq!(lenient.worst_rung(), Some(Rung::MetricOneSymmetric));

        let strict = RobustAnalyzer::with_policy(&net, FallbackPolicy::for_strict(true)).unwrap();
        let victim = strict.analyze_victim(&aggs, &step);
        assert_eq!(victim.rows.len(), 1, "strict stops at the first failure");
        assert!(victim.degraded());
        let failure = victim.first_failure().expect("step fails metric II");
        assert!(
            failure.contains("strict policy forbids degradation"),
            "{failure}"
        );
        assert_eq!(victim.combined(), None);
    }

    #[test]
    fn metric_rows_carry_no_provenance() {
        assert_eq!(
            AggressorNoise::from_metric(Err(MetricError::NoNoise)),
            AggressorNoise::NoCoupling
        );
        let (net, aggs) = three_aggressors();
        let robust = RobustAnalyzer::new(&net).unwrap();
        let input = InputSignal::rising_ramp(0.0, 1e-10);
        let victim = VictimNoise::collect(&aggs, false, |agg| {
            AggressorNoise::from_metric(robust.inner().analyze(agg, &input, crate::MetricKind::One))
        });
        assert!(matches!(
            victim.rows[0].1,
            AggressorNoise::Estimate(_, None)
        ));
        assert_eq!(victim.worst_rung(), None);
        assert!(victim.combined().is_some());
    }
}
