use crate::metrics::step_delay;
use crate::{DelayError, DelayMetric, SwitchFactor};
use std::collections::HashMap;
use xtalk_circuit::{NetId, NetRole, Network, NetworkBuilder, NodeId};
use xtalk_moments::TreeMomentEngine;

/// Coupling-aware delay analysis of the victim net.
///
/// For a switching scenario (one [`SwitchFactor`] per aggressor, quiet by
/// default) the analyzer *decouples* the network — every coupling
/// capacitor becomes an effective grounded capacitor `k·Cc` on its
/// victim-side node — and evaluates a closed-form delay metric on the
/// resulting single-net RC tree. See the [crate-level example](crate).
#[derive(Debug)]
pub struct DelayAnalyzer<'a> {
    network: &'a Network,
}

impl<'a> DelayAnalyzer<'a> {
    /// Wraps a validated network.
    pub fn new(network: &'a Network) -> Self {
        DelayAnalyzer { network }
    }

    /// The analyzed network.
    pub fn network(&self) -> &Network {
        self.network
    }

    /// 50% step delay from the victim driver to the victim output under
    /// the given switching scenario. Aggressors absent from `scenario`
    /// are quiet (`k = 1`).
    ///
    /// # Errors
    ///
    /// * [`DelayError::NotAnAggressor`] / [`DelayError::DuplicateScenarioEntry`]
    ///   — malformed scenario.
    /// * [`DelayError::NoCrossing`] — degenerate reduced model.
    pub fn delay(
        &self,
        scenario: &[(NetId, SwitchFactor)],
        metric: DelayMetric,
    ) -> Result<f64, DelayError> {
        self.delay_at(scenario, metric, self.network.victim_output())
    }

    /// Like [`DelayAnalyzer::delay`], observed at an arbitrary victim
    /// node.
    ///
    /// # Errors
    ///
    /// As [`DelayAnalyzer::delay`].
    pub fn delay_at(
        &self,
        scenario: &[(NetId, SwitchFactor)],
        metric: DelayMetric,
        node: NodeId,
    ) -> Result<f64, DelayError> {
        let h = self.victim_transfer(scenario, node)?;
        step_delay(metric, &h)
    }

    /// Output transition time (10–90% extrapolated) of the victim's step
    /// response at the output under the scenario — the edge-rate
    /// degradation the coupled load causes.
    ///
    /// # Errors
    ///
    /// As [`DelayAnalyzer::delay`].
    pub fn slew(&self, scenario: &[(NetId, SwitchFactor)]) -> Result<f64, DelayError> {
        let h = self.victim_transfer(scenario, self.network.victim_output())?;
        crate::metrics::step_slew(&h)
    }

    /// Best-case / worst-case delay pair: every aggressor switching with
    /// the victim (`k = 0`) vs. against it (`k = 2`).
    ///
    /// # Errors
    ///
    /// As [`DelayAnalyzer::delay`].
    pub fn delay_window(&self, metric: DelayMetric) -> Result<(f64, f64), DelayError> {
        let aggs: Vec<NetId> = self.network.aggressor_nets().map(|(id, _)| id).collect();
        let best: Vec<_> = aggs
            .iter()
            .map(|&a| (a, SwitchFactor::SameDirection))
            .collect();
        let worst: Vec<_> = aggs.iter().map(|&a| (a, SwitchFactor::Opposite)).collect();
        Ok((self.delay(&best, metric)?, self.delay(&worst, metric)?))
    }

    /// Taylor coefficients `h0..h3` of the decoupled victim's own transfer
    /// function to `node` under the scenario (exposed for custom metrics).
    ///
    /// # Errors
    ///
    /// As [`DelayAnalyzer::delay`].
    pub fn victim_transfer(
        &self,
        scenario: &[(NetId, SwitchFactor)],
        node: NodeId,
    ) -> Result<Vec<f64>, DelayError> {
        let mut factors: HashMap<NetId, f64> = HashMap::new();
        for (net, sf) in scenario {
            if self.network.net(*net).role() != NetRole::Aggressor {
                return Err(DelayError::NotAnAggressor(*net));
            }
            if factors.insert(*net, sf.factor()).is_some() {
                return Err(DelayError::DuplicateScenarioEntry(*net));
            }
        }

        let (decoupled, node_map) = self.decoupled_victim(&factors)?;
        let engine = TreeMomentEngine::new(&decoupled);
        let out = node_map[&node];
        Ok(engine.transfer_taylor(decoupled.victim(), out, 4)?)
    }

    /// Builds the victim-only equivalent: victim topology verbatim, each
    /// coupling capacitor replaced by `k·Cc` to ground at its victim-side
    /// node (`k = 0` drops it). Returns the network plus an old→new node
    /// map.
    fn decoupled_victim(
        &self,
        factors: &HashMap<NetId, f64>,
    ) -> Result<(Network, HashMap<NodeId, NodeId>), DelayError> {
        let victim_id = self.network.victim();
        let victim = self.network.victim_net();
        let mut b = NetworkBuilder::new();
        let v = b.add_net(victim.name(), NetRole::Victim);
        let mut map: HashMap<NodeId, NodeId> = HashMap::new();
        for &old in victim.nodes() {
            let new = b.add_node(v, self.network.node_name(old));
            map.insert(old, new);
        }
        b.add_driver(v, map[&victim.driver().node], victim.driver().ohms)?;
        for r in self.network.resistors() {
            if self.network.node_net(r.a) == victim_id {
                b.add_resistor(map[&r.a], map[&r.b], r.ohms)?;
            }
        }
        for gc in self.network.ground_caps() {
            if self.network.node_net(gc.node) == victim_id {
                b.add_ground_cap(map[&gc.node], gc.farads)?;
            }
        }
        for s in victim.sinks() {
            b.add_sink(map[&s.node], s.farads)?;
        }
        for cc in self.network.coupling_caps() {
            let (victim_node, other_net) = if self.network.node_net(cc.a) == victim_id {
                (cc.a, self.network.node_net(cc.b))
            } else if self.network.node_net(cc.b) == victim_id {
                (cc.b, self.network.node_net(cc.a))
            } else {
                continue; // aggressor-aggressor coupling: invisible here
            };
            let k = factors.get(&other_net).copied().unwrap_or(1.0);
            let eff = k * cc.farads;
            if eff > 0.0 {
                b.add_ground_cap(map[&victim_node], eff)?;
            }
        }
        b.set_victim_output(map[&self.network.victim_output()]);
        Ok((b.build()?, map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coupled_line() -> (Network, NetId) {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let v1 = b.add_node(v, "v1");
        let v2 = b.add_node(v, "v2");
        let a0 = b.add_node(a, "a0");
        b.add_driver(v, v0, 250.0).unwrap();
        b.add_driver(a, a0, 150.0).unwrap();
        b.add_resistor(v0, v1, 60.0).unwrap();
        b.add_resistor(v1, v2, 60.0).unwrap();
        b.add_ground_cap(v1, 8e-15).unwrap();
        b.add_sink(v2, 15e-15).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        b.add_coupling_cap(a0, v1, 25e-15).unwrap();
        b.add_coupling_cap(a0, v2, 10e-15).unwrap();
        let net = b.build().unwrap();
        let agg = net.aggressor_nets().next().unwrap().0;
        (net, agg)
    }

    #[test]
    fn switching_direction_orders_delays() {
        let (net, agg) = coupled_line();
        let analyzer = DelayAnalyzer::new(&net);
        for metric in [DelayMetric::Elmore, DelayMetric::D2m, DelayMetric::TwoPole] {
            let same = analyzer
                .delay(&[(agg, SwitchFactor::SameDirection)], metric)
                .unwrap();
            let quiet = analyzer.delay(&[(agg, SwitchFactor::Quiet)], metric).unwrap();
            let opp = analyzer
                .delay(&[(agg, SwitchFactor::Opposite)], metric)
                .unwrap();
            assert!(same < quiet && quiet < opp, "{metric:?}: {same} {quiet} {opp}");
        }
    }

    #[test]
    fn empty_scenario_means_quiet() {
        let (net, agg) = coupled_line();
        let analyzer = DelayAnalyzer::new(&net);
        let implicit = analyzer.delay(&[], DelayMetric::Elmore).unwrap();
        let explicit = analyzer
            .delay(&[(agg, SwitchFactor::Quiet)], DelayMetric::Elmore)
            .unwrap();
        assert!((implicit - explicit).abs() < 1e-20);
    }

    #[test]
    fn elmore_matches_hand_computation_quiet() {
        // Quiet: caps at v1: 8f + 25f, at v2: 15f + 10f.
        // Elmore at v2: (Rd+R1)(C_v1) + (Rd+R1+R2)(C_v2).
        let (net, _) = coupled_line();
        let analyzer = DelayAnalyzer::new(&net);
        let d = analyzer.delay(&[], DelayMetric::Elmore).unwrap();
        let expect = 310.0 * 33e-15 + 370.0 * 25e-15;
        assert!((d - expect).abs() < 1e-9 * expect, "{d} vs {expect}");
    }

    #[test]
    fn custom_factor_interpolates() {
        let (net, agg) = coupled_line();
        let analyzer = DelayAnalyzer::new(&net);
        let quiet = analyzer.delay(&[], DelayMetric::Elmore).unwrap();
        let mid = analyzer
            .delay(&[(agg, SwitchFactor::Custom(1.5))], DelayMetric::Elmore)
            .unwrap();
        let opp = analyzer
            .delay(&[(agg, SwitchFactor::Opposite)], DelayMetric::Elmore)
            .unwrap();
        assert!(quiet < mid && mid < opp);
    }

    #[test]
    fn delay_window_brackets_quiet() {
        let (net, _) = coupled_line();
        let analyzer = DelayAnalyzer::new(&net);
        let (best, worst) = analyzer.delay_window(DelayMetric::TwoPole).unwrap();
        let quiet = analyzer.delay(&[], DelayMetric::TwoPole).unwrap();
        assert!(best < quiet && quiet < worst);
    }

    #[test]
    fn slew_orders_with_switch_factor_and_exceeds_nothing_unphysical() {
        let (net, agg) = coupled_line();
        let analyzer = DelayAnalyzer::new(&net);
        let s_same = analyzer.slew(&[(agg, SwitchFactor::SameDirection)]).unwrap();
        let s_quiet = analyzer.slew(&[(agg, SwitchFactor::Quiet)]).unwrap();
        let s_opp = analyzer.slew(&[(agg, SwitchFactor::Opposite)]).unwrap();
        assert!(
            s_same < s_quiet && s_quiet < s_opp,
            "{s_same} {s_quiet} {s_opp}"
        );
        // Transition time and 50% delay share the time scale.
        let d_quiet = analyzer.delay(&[], DelayMetric::TwoPole).unwrap();
        assert!(s_quiet > 0.2 * d_quiet && s_quiet < 20.0 * d_quiet);
    }

    #[test]
    fn scenario_validation() {
        let (net, agg) = coupled_line();
        let analyzer = DelayAnalyzer::new(&net);
        assert!(matches!(
            analyzer.delay(&[(net.victim(), SwitchFactor::Quiet)], DelayMetric::Elmore),
            Err(DelayError::NotAnAggressor(_))
        ));
        assert!(matches!(
            analyzer.delay(
                &[(agg, SwitchFactor::Quiet), (agg, SwitchFactor::Opposite)],
                DelayMetric::Elmore
            ),
            Err(DelayError::DuplicateScenarioEntry(_))
        ));
    }

    #[test]
    fn metric_ordering_on_decoupled_tree() {
        let (net, agg) = coupled_line();
        let analyzer = DelayAnalyzer::new(&net);
        let scenario = [(agg, SwitchFactor::Opposite)];
        let elmore = analyzer.delay(&scenario, DelayMetric::Elmore).unwrap();
        let two = analyzer.delay(&scenario, DelayMetric::TwoPole).unwrap();
        assert!(elmore > two, "Elmore bounds the 50% delay: {elmore} vs {two}");
    }
}
