//! Closed-form tree formulas for the dominant transfer-function
//! coefficients.
//!
//! These are the `O(n)` path-tracing expressions the paper cites instead of
//! running a full moment recursion:
//!
//! * [`coupling_a1`] — the numerator coefficient `a1` of the
//!   aggressor→victim transfer function (paper ref. \[13\]): every coupling
//!   capacitor `Cc` injects its charge at its victim-side node, and the
//!   victim tree carries it to the output through the transfer resistance
//!   (driver resistance + common-path resistance);
//! * [`open_circuit_b1`] — the denominator coefficient `b1` as the sum of
//!   open-circuit time constants over *all* capacitors of the coupled
//!   network (paper ref. \[11\]);
//! * [`elmore_delay`] — the classical Elmore delay of a net node with all
//!   coupling capacitance grounded (the lumped-aggressor convention).
//!
//! All three are validated against the exact moments of the dense oracle
//! engine in this crate's integration tests.

use crate::TwoPoleFit;
use xtalk_circuit::{NetId, Network, NodeId};

/// The paper's fully closed-form FrontEnd: a two-pole model of the
/// aggressor→victim transfer assembled **without any matrix solve** —
/// `a1` from [`coupling_a1`] (ref. \[13\]), `b1` from [`open_circuit_b1`]
/// and `b2` from [`short_circuit_b2`] (ref. \[11\]).
///
/// Relative to [`crate::TreeMomentEngine`]'s exact Taylor coefficients this
/// truncates the numerator at first order (the `a2`, `a3` terms the paper
/// also drops, §2.1.2), trading a few percent of accuracy for `O(n + k²)`
/// evaluation with the five basic operations only — the configuration the
/// paper actually proposes for optimization inner loops.
///
/// # Panics
///
/// Panics if `output` is not on the victim net or `aggressor` is out of
/// bounds.
pub fn closed_form_fit(network: &Network, aggressor: NetId, output: NodeId) -> TwoPoleFit {
    TwoPoleFit::from_coeffs(
        coupling_a1(network, aggressor, output),
        open_circuit_b1(network),
        short_circuit_b2(network),
    )
}

/// Closed-form `a1` coefficient of the transfer function from `aggressor`'s
/// source to the victim node `output`:
///
/// ```text
/// a1 = Σ_cc  Cc · ( Rd_victim + R_common(victim_node(cc), output) )
/// ```
///
/// where the sum runs over coupling capacitors between `aggressor` and the
/// victim, and `R_common` is the victim-tree common-path resistance.
/// Equals the exact `h1` Taylor coefficient (first moment) of the transfer
/// function.
///
/// # Panics
///
/// Panics if `output` is not on the victim net or `aggressor` is out of
/// bounds.
pub fn coupling_a1(network: &Network, aggressor: NetId, output: NodeId) -> f64 {
    let victim = network.victim();
    let rd = network.victim_net().driver().ohms;
    let tree = network.tree(victim);
    network
        .couplings_between(aggressor, victim)
        .map(|(_, victim_node, farads)| {
            farads * (rd + tree.common_path_resistance(victim_node, output))
        })
        .sum()
}

/// Closed-form shared-denominator coefficient `b1`: the sum of
/// open-circuit time constants of every capacitor in the coupled network.
///
/// For a grounded capacitor `C` at node `i` the open-circuit resistance is
/// `Rd + R_path(i)`; for a coupling capacitor between nodes `i` and `j` of
/// two different nets it is the sum of both sides' resistances (the nets
/// are resistively disjoint, so the cross term vanishes). Equals the exact
/// `tr(G⁻¹C)`, which the tests take from the dense oracle engine.
pub fn open_circuit_b1(network: &Network) -> f64 {
    let mut b1 = 0.0;
    let r_to_ground = |node: NodeId| -> f64 {
        let net = network.node_net(node);
        network.net(net).driver().ohms + network.tree(net).path_resistance(node)
    };
    for gc in network.ground_caps() {
        b1 += gc.farads * r_to_ground(gc.node);
    }
    for (_, net) in network.nets() {
        for s in net.sinks() {
            b1 += s.farads * r_to_ground(s.node);
        }
    }
    for cc in network.coupling_caps() {
        b1 += cc.farads * (r_to_ground(cc.a) + r_to_ground(cc.b));
    }
    b1
}

/// Closed-form shared-denominator coefficient `b2`: the sum over cap
/// pairs of products of open-circuit and short-circuit time constants
/// (paper ref. \[11\], Millman & Grabel).
///
/// For RC networks the classical pairwise form reduces to
///
/// ```text
/// b2 = Σ_{i<j}  C_i·C_j · ( R_ii·R_jj − R_ij² )
/// ```
///
/// where `R_ii` is cap `i`'s open-circuit driving-point resistance and
/// `R_ij` the transfer resistance between the two caps' terminal pairs
/// (`R_jj − R_ij²/R_ii` being exactly cap `j`'s time constant with cap `i`
/// shorted). On resistively-disjoint coupled trees every `R` term is a
/// driver resistance plus a common-path resistance, so the whole
/// coefficient is closed-form — together with [`coupling_a1`] and
/// [`open_circuit_b1`] this gives the paper's entire FrontEnd without a
/// matrix solve. Equals the exact second invariant of `G⁻¹C`, which the
/// tests take from the dense oracle engine.
///
/// Complexity: `O(k²)` over the `k` capacitors.
pub fn short_circuit_b2(network: &Network) -> f64 {
    // Each capacitor as a terminal pair (positive node, optional negative
    // node; None = ground).
    struct CapTerm {
        p: NodeId,
        q: Option<NodeId>,
        farads: f64,
    }
    let mut caps: Vec<CapTerm> = Vec::new();
    for gc in network.ground_caps() {
        caps.push(CapTerm {
            p: gc.node,
            q: None,
            farads: gc.farads,
        });
    }
    for (_, net) in network.nets() {
        for s in net.sinks() {
            caps.push(CapTerm {
                p: s.node,
                q: None,
                farads: s.farads,
            });
        }
    }
    for cc in network.coupling_caps() {
        caps.push(CapTerm {
            p: cc.a,
            q: Some(cc.b),
            farads: cc.farads,
        });
    }

    // Node-pair resistance R(x, y) = u_xᵀ G⁻¹ u_y for unit injections:
    // driver resistance + common-path resistance when x and y share a
    // net, zero across nets (nets are resistively disjoint).
    let r_nodes = |x: NodeId, y: NodeId| -> f64 {
        let nx = network.node_net(x);
        if nx != network.node_net(y) {
            return 0.0;
        }
        network.net(nx).driver().ohms + network.tree(nx).common_path_resistance(x, y)
    };
    // Generalized resistance between two capacitor terminal pairs.
    let r_caps = |a: &CapTerm, b: &CapTerm| -> f64 {
        let mut r = r_nodes(a.p, b.p);
        if let Some(bq) = b.q {
            r -= r_nodes(a.p, bq);
        }
        if let Some(aq) = a.q {
            r -= r_nodes(aq, b.p);
            if let Some(bq) = b.q {
                r += r_nodes(aq, bq);
            }
        }
        r
    };

    let r_self: Vec<f64> = caps.iter().map(|c| r_caps(c, c)).collect();
    let mut b2 = 0.0;
    for i in 0..caps.len() {
        for j in (i + 1)..caps.len() {
            let r_ij = r_caps(&caps[i], &caps[j]);
            b2 += caps[i].farads * caps[j].farads * (r_self[i] * r_self[j] - r_ij * r_ij);
        }
    }
    b2
}

/// Elmore delay (first moment of the impulse response, negated) at `node`
/// of its own net, with every coupling capacitor treated as grounded:
///
/// ```text
/// T_elmore(node) = Σ_k C_k · ( Rd + R_common(node, k) )
/// ```
///
/// summed over all capacitance `C_k` on the net (wire, sink and coupling).
/// This is the standard conservative delay metric used to size the victim
/// net before any noise analysis.
///
/// # Panics
///
/// Panics if `node` is out of bounds.
pub fn elmore_delay(network: &Network, node: NodeId) -> f64 {
    let net = network.node_net(node);
    let rd = network.net(net).driver().ohms;
    let tree = network.tree(net);
    let mut delay = 0.0;
    let mut add = |at: NodeId, farads: f64| {
        delay += farads * (rd + tree.common_path_resistance(node, at));
    };
    for gc in network.ground_caps() {
        if network.node_net(gc.node) == net {
            add(gc.node, gc.farads);
        }
    }
    for s in network.net(net).sinks() {
        add(s.node, s.farads);
    }
    for cc in network.coupling_caps() {
        if network.node_net(cc.a) == net {
            add(cc.a, cc.farads);
        } else if network.node_net(cc.b) == net {
            add(cc.b, cc.farads);
        }
    }
    delay
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_circuit::{NetRole, NetworkBuilder};

    /// Victim: root -10Ω- v1 -20Ω- v2(out, 5fF); cap 3fF at v1.
    /// Aggressor: a0 -15Ω- a1 (4fF sink); couplings a1-v1 (6fF), a1-v2 (2fF).
    fn sample() -> (Network, [NodeId; 5]) {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let v1 = b.add_node(v, "v1");
        let v2 = b.add_node(v, "v2");
        let a0 = b.add_node(a, "a0");
        let a1 = b.add_node(a, "a1");
        b.add_driver(v, v0, 100.0).unwrap();
        b.add_driver(a, a0, 50.0).unwrap();
        b.add_resistor(v0, v1, 10.0).unwrap();
        b.add_resistor(v1, v2, 20.0).unwrap();
        b.add_resistor(a0, a1, 15.0).unwrap();
        b.add_ground_cap(v1, 3e-15).unwrap();
        b.add_sink(v2, 5e-15).unwrap();
        b.add_sink(a1, 4e-15).unwrap();
        b.add_coupling_cap(a1, v1, 6e-15).unwrap();
        b.add_coupling_cap(a1, v2, 2e-15).unwrap();
        (b.build().unwrap(), [v0, v1, v2, a0, a1])
    }

    #[test]
    fn a1_sums_injections_times_transfer_resistance() {
        let (net, [_, _, v2, _, _]) = sample();
        let agg = net.aggressor_nets().next().unwrap().0;
        // cc at v1: R = 100 + 10; cc at v2: R = 100 + 30.
        let expect = 6e-15 * 110.0 + 2e-15 * 130.0;
        let got = coupling_a1(&net, agg, v2);
        assert!((got - expect).abs() < 1e-18 * expect.abs().max(1.0));
    }

    #[test]
    fn a1_at_intermediate_node_uses_common_path() {
        let (net, [_, v1, _, _, _]) = sample();
        let agg = net.aggressor_nets().next().unwrap().0;
        // Observation at v1: both couplings see R_common = 110.
        let expect = 6e-15 * 110.0 + 2e-15 * 110.0;
        assert!((coupling_a1(&net, agg, v1) - expect).abs() < 1e-25);
    }

    #[test]
    fn b2_matches_analytic_coupled_pair() {
        // Symmetric pair: b2 = Rd²(Cg² + 2·Cg·Cc) (see engine tests).
        let (rd, cg, cc) = (120.0, 18e-15, 7e-15);
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let vn = b.add_node(v, "v0");
        let an = b.add_node(a, "a0");
        b.add_driver(v, vn, rd).unwrap();
        b.add_driver(a, an, rd).unwrap();
        b.add_sink(vn, cg).unwrap();
        b.add_sink(an, cg).unwrap();
        b.add_coupling_cap(vn, an, cc).unwrap();
        let net = b.build().unwrap();
        let expect = rd * rd * (cg * cg + 2.0 * cg * cc);
        let got = short_circuit_b2(&net);
        assert!((got - expect).abs() < 1e-9 * expect, "{got} vs {expect}");
    }

    #[test]
    fn b1_sums_open_circuit_time_constants() {
        let (net, _) = sample();
        let expect = 3e-15 * 110.0    // v1 wire cap
            + 5e-15 * 130.0           // v2 sink
            + 4e-15 * 65.0            // a1 sink
            + 6e-15 * (65.0 + 110.0)  // coupling a1-v1
            + 2e-15 * (65.0 + 130.0); // coupling a1-v2
        let got = open_circuit_b1(&net);
        assert!((got - expect).abs() < 1e-25, "{got} vs {expect}");
    }

    #[test]
    fn elmore_delay_grounds_coupling_caps() {
        let (net, [_, _, v2, _, _]) = sample();
        // At v2: wire cap v1 (3f, R=110), sink v2 (5f, R=130),
        // couplings at v1 (6f, R=110) and v2 (2f, R=130).
        let expect = 3e-15 * 110.0 + 5e-15 * 130.0 + 6e-15 * 110.0 + 2e-15 * 130.0;
        let got = elmore_delay(&net, v2);
        assert!((got - expect).abs() < 1e-25, "{got} vs {expect}");
    }

    #[test]
    fn aggressor_elmore_counts_its_side() {
        let (net, [.., a1]) = sample();
        // At a1: sink (4f, R=65) + couplings at a1 (6f+2f, R=65).
        let expect = 12e-15 * 65.0;
        assert!((elmore_delay(&net, a1) - expect).abs() < 1e-25);
    }
}
