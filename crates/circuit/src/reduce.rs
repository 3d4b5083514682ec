//! Network reduction: TICER-style elimination of electrically "quick"
//! internal nodes.
//!
//! Finely segmented distributed wires carry many more nodes than the
//! analysis needs. This pass eliminates internal chain nodes whose local
//! time constant is far below the scale of interest, rewiring their
//! resistors in series and redistributing their capacitance onto the
//! neighbours with conductance weights (the TICER rule specialized to
//! degree-2 tree nodes):
//!
//! ```text
//!  u ──r₁── n ──r₂── v    (cap c at n)
//!        ⇓
//!  u ──(r₁+r₂)── v        c·r₂/(r₁+r₂) at u,  c·r₁/(r₁+r₂) at v
//! ```
//!
//! On RC trees this redistribution preserves the first moments **exactly**
//! — both the shared denominator coefficient `b1` (every open-circuit
//! time constant is conserved) and every aggressor→victim numerator `a1`
//! (the split coupling charge arrives through the same common-path
//! resistance). Higher moments change by `O(τ_n/τ_net)`, which is why the
//! elimination is gated on the node's local time constant.
//!
//! Driver nodes, sinks, and branch points are never eliminated.
//!
//! # Examples
//!
//! ```
//! use xtalk_circuit::{reduce::reduce_quick_nodes, NetRole, NetworkBuilder};
//!
//! # fn main() -> Result<(), xtalk_circuit::CircuitError> {
//! let mut b = NetworkBuilder::new();
//! let v = b.add_net("v", NetRole::Victim);
//! let n0 = b.add_node(v, "n0");
//! let n1 = b.add_node(v, "n1");
//! let n2 = b.add_node(v, "n2");
//! b.add_driver(v, n0, 100.0)?;
//! b.add_resistor(n0, n1, 10.0)?;
//! b.add_resistor(n1, n2, 10.0)?;
//! b.add_ground_cap(n1, 1e-15)?;
//! b.add_sink(n2, 5e-15)?;
//! let network = b.build()?;
//!
//! // n1's local time constant (~5 fs) is far below 1 ps: eliminated.
//! let reduced = reduce_quick_nodes(&network, 1e-12)?;
//! assert_eq!(reduced.node_count(), 2);
//! # Ok(())
//! # }
//! ```

use crate::{CircuitError, Network, NetworkBuilder, NodeId};
use std::collections::HashMap;

/// Reduces `network` by eliminating internal degree-2 nodes whose local
/// time constant `c_node·(r₁·r₂)/(r₁+r₂)` is below `min_time_constant`
/// (seconds). Repeats until no candidate remains.
///
/// Moment guarantees on the result: `a1` and `b1` exact; `b2` and higher
/// perturbed by at most the eliminated time constants.
///
/// # Errors
///
/// Propagates rebuild failures (cannot occur for validated inputs unless
/// the reduction is buggy — treat an error as such).
pub fn reduce_quick_nodes(
    network: &Network,
    min_time_constant: f64,
) -> Result<Network, CircuitError> {
    assert!(
        min_time_constant.is_finite() && min_time_constant >= 0.0,
        "threshold must be non-negative and finite"
    );

    // Mutable element view of the network.
    let n = network.node_count();
    let mut alive = vec![true; n];
    // Resistor adjacency as an edge list we can rewrite.
    #[derive(Clone, Copy)]
    struct Edge {
        a: usize,
        b: usize,
        ohms: f64,
        dead: bool,
    }
    let mut edges: Vec<Edge> = network
        .resistors()
        .iter()
        .map(|r| Edge {
            a: r.a.index(),
            b: r.b.index(),
            ohms: r.ohms,
            dead: false,
        })
        .collect();
    let mut ground: Vec<f64> = vec![0.0; n];
    for gc in network.ground_caps() {
        ground[gc.node.index()] += gc.farads;
    }
    // Coupling caps as (this-node, other-node, farads); symmetric pairs.
    let mut couplings: Vec<(usize, usize, f64)> = network
        .coupling_caps()
        .iter()
        .map(|cc| (cc.a.index(), cc.b.index(), cc.farads))
        .collect();

    // Nodes that must survive: drivers, sinks, and (recomputed each pass)
    // non-degree-2 nodes.
    let mut pinned = vec![false; n];
    for (_, net) in network.nets() {
        pinned[net.driver().node.index()] = true;
        for s in net.sinks() {
            pinned[s.node.index()] = true;
        }
    }

    loop {
        // Degree and incident edges per node.
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (k, e) in edges.iter().enumerate() {
            if !e.dead {
                incident[e.a].push(k);
                incident[e.b].push(k);
            }
        }
        // Total capacitance per node (ground + couplings touching it).
        let mut total_cap = ground.clone();
        for &(a, b, f) in &couplings {
            total_cap[a] += f;
            total_cap[b] += f;
        }

        let mut candidate = None;
        for node in 0..n {
            if !alive[node] || pinned[node] || incident[node].len() != 2 {
                continue;
            }
            let (e1, e2) = (incident[node][0], incident[node][1]);
            let (r1, r2) = (edges[e1].ohms, edges[e2].ohms);
            let tau = total_cap[node] * (r1 * r2) / (r1 + r2);
            if tau < min_time_constant {
                candidate = Some((node, e1, e2));
                break;
            }
        }
        let Some((node, e1, e2)) = candidate else {
            break;
        };

        let other = |k: usize| -> usize {
            if edges[k].a == node {
                edges[k].b
            } else {
                edges[k].a
            }
        };
        let (u, v) = (other(e1), other(e2));
        let (r1, r2) = (edges[e1].ohms, edges[e2].ohms);
        let w_u = r2 / (r1 + r2);
        let w_v = r1 / (r1 + r2);

        // Series-merge the resistors.
        edges[e1] = Edge {
            a: u,
            b: v,
            ohms: r1 + r2,
            dead: false,
        };
        edges[e2].dead = true;

        // Redistribute the grounded capacitance.
        let c = ground[node];
        ground[node] = 0.0;
        ground[u] += c * w_u;
        ground[v] += c * w_v;

        // Split coupling caps touching the node.
        let mut extra = Vec::new();
        for cc in couplings.iter_mut() {
            let (a, b, f) = *cc;
            if a == node || b == node {
                let far = if a == node { b } else { a };
                *cc = (u, far, f * w_u);
                extra.push((v, far, f * w_v));
            }
        }
        couplings.extend(extra);
        alive[node] = false;
    }

    // Rebuild through the validating builder.
    let mut b = NetworkBuilder::new();
    let mut net_map = HashMap::new();
    for (id, net) in network.nets() {
        net_map.insert(id, b.add_net(net.name(), net.role()));
    }
    let mut node_map: HashMap<usize, NodeId> = HashMap::new();
    for (id, net) in network.nets() {
        for &old in net.nodes() {
            if alive[old.index()] {
                node_map.insert(
                    old.index(),
                    b.add_node(net_map[&id], network.node_name(old)),
                );
            }
        }
        let d = net.driver();
        b.add_driver(net_map[&id], node_map[&d.node.index()], d.ohms)?;
        for s in net.sinks() {
            b.add_sink(node_map[&s.node.index()], s.farads)?;
        }
    }
    for e in &edges {
        if !e.dead {
            b.add_resistor(node_map[&e.a], node_map[&e.b], e.ohms)?;
        }
    }
    for (node, farads) in ground.iter().enumerate() {
        if alive[node] && *farads > 0.0 {
            b.add_ground_cap(node_map[&node], *farads)?;
        }
    }
    for &(a, bb, f) in &couplings {
        if f > 0.0 {
            b.add_coupling_cap(node_map[&a], node_map[&bb], f)?;
        }
    }
    b.set_victim_output(node_map[&network.victim_output().index()]);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetRole, NetworkBuilder};

    /// A 10-segment victim chain coupled to a 10-segment aggressor.
    fn segmented() -> Network {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let mut vp = b.add_node(v, "v0");
        let mut ap = b.add_node(a, "a0");
        b.add_driver(v, vp, 200.0).unwrap();
        b.add_driver(a, ap, 150.0).unwrap();
        for i in 1..=10 {
            let vn = b.add_node(v, format!("v{i}"));
            let an = b.add_node(a, format!("a{i}"));
            b.add_resistor(vp, vn, 8.0).unwrap();
            b.add_resistor(ap, an, 8.0).unwrap();
            b.add_ground_cap(vn, 2e-15).unwrap();
            b.add_ground_cap(an, 2e-15).unwrap();
            if i % 2 == 0 {
                b.add_coupling_cap(an, vn, 4e-15).unwrap();
            }
            vp = vn;
            ap = an;
        }
        b.add_sink(vp, 10e-15).unwrap();
        b.add_sink(ap, 10e-15).unwrap();
        b.set_victim_output(vp);
        b.build().unwrap()
    }

    #[test]
    fn reduction_shrinks_the_node_count() {
        let net = segmented();
        let reduced = reduce_quick_nodes(&net, 1e-9).unwrap();
        assert!(
            reduced.node_count() < net.node_count() / 2,
            "{} -> {}",
            net.node_count(),
            reduced.node_count()
        );
        // Pinned nodes survive: drivers and sinks.
        assert_eq!(reduced.victim_net().sinks().len(), 1);
    }

    #[test]
    fn total_resistance_and_capacitance_are_conserved() {
        let net = segmented();
        let reduced = reduce_quick_nodes(&net, 1e-9).unwrap();
        let (orig_id, red_id) = (net.victim(), reduced.victim());
        assert!((net.net_total_res(orig_id) - reduced.net_total_res(red_id)).abs() < 1e-9);
        assert!((net.net_total_cap(orig_id) - reduced.net_total_cap(red_id)).abs() < 1e-27);
        // Total coupling conserved too.
        let cc = |n: &Network| -> f64 { n.coupling_caps().iter().map(|c| c.farads).sum() };
        assert!((cc(&net) - cc(&reduced)).abs() < 1e-27);
    }

    #[test]
    fn zero_threshold_is_identity() {
        let net = segmented();
        let reduced = reduce_quick_nodes(&net, 0.0).unwrap();
        assert_eq!(reduced.node_count(), net.node_count());
        assert_eq!(reduced.resistors().len(), net.resistors().len());
    }

    #[test]
    fn branch_points_are_preserved() {
        // Y-tree: the branch node must survive any threshold.
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let root = b.add_node(v, "root");
        let mid = b.add_node(v, "mid");
        let l = b.add_node(v, "l");
        let r = b.add_node(v, "r");
        b.add_driver(v, root, 100.0).unwrap();
        b.add_resistor(root, mid, 10.0).unwrap();
        b.add_resistor(mid, l, 10.0).unwrap();
        b.add_resistor(mid, r, 10.0).unwrap();
        b.add_ground_cap(mid, 1e-15).unwrap();
        b.add_sink(l, 1e-15).unwrap();
        b.add_sink(r, 1e-15).unwrap();
        let net = b.build().unwrap();
        let reduced = reduce_quick_nodes(&net, 1.0).unwrap();
        // Nothing is degree-2 internal here except… mid has degree 3: kept.
        assert_eq!(reduced.node_count(), 4);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_threshold_panics() {
        let net = segmented();
        let _ = reduce_quick_nodes(&net, -1.0);
    }
}
