use crate::Technology;
use rand::rngs::StdRng;
use rand::Rng;
use xtalk_circuit::{CircuitError, NetId, NetRole, Network, NetworkBuilder, NodeId};

/// A coupled RC-tree circuit: a victim *tree* (trunk plus side branches,
/// one sink per branch end) with an aggressor coupled along a window of
/// the trunk — the "tree structures" workload of the paper's Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeSpec {
    /// Trunk length from driver to the primary (observed) sink (m).
    pub trunk: f64,
    /// Side branches as `(attach_position, branch_length)` in meters;
    /// `attach_position` is measured along the trunk from the driver.
    pub branches: Vec<(f64, f64)>,
    /// Coupling window `(start, length)` along the trunk (m).
    pub coupling: (f64, f64),
    /// Victim equivalent driver resistance (Ω).
    pub victim_driver: f64,
    /// Aggressor equivalent driver resistance (Ω).
    pub aggressor_driver: f64,
    /// Load at the primary sink and each branch sink (F).
    pub load: f64,
    /// Aggressor receiver load (F).
    pub aggressor_load: f64,
    /// `true` → far-end orientation (aggressor driver on the victim-driver
    /// side of the window).
    pub far_end: bool,
    /// Spatial discretization (segments per mm).
    pub segments_per_mm: usize,
}

impl TreeSpec {
    /// Builds the coupled network. Returns `(network, aggressor_net)`.
    ///
    /// # Errors
    ///
    /// Propagates element validation failures.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (window or attachments outside the
    /// trunk, non-positive lengths).
    pub fn build(&self, tech: &Technology) -> Result<(Network, NetId), CircuitError> {
        assert!(self.trunk > 0.0, "trunk length must be positive");
        let (c_start, c_len) = self.coupling;
        assert!(c_len > 0.0, "coupling length must be positive");
        assert!(
            c_start >= 0.0 && c_start + c_len <= self.trunk * (1.0 + 1e-9),
            "coupling window outside the trunk"
        );
        for &(at, len) in &self.branches {
            assert!(
                (0.0..=self.trunk).contains(&at) && len > 0.0,
                "branch attachment outside the trunk or non-positive length"
            );
        }
        assert!(self.segments_per_mm > 0, "need at least one segment per mm");

        let mut b = NetworkBuilder::new();
        let vic = b.add_net("victim", NetRole::Victim);
        let agg = b.add_net("aggressor", NetRole::Aggressor);

        let seg_len = 1e-3 / self.segments_per_mm as f64;
        let n_trunk = ((self.trunk / seg_len).ceil() as usize).max(2);
        let seg = self.trunk / n_trunk as f64;

        // Trunk chain; remember each node's position.
        let root = b.add_node(vic, "v_drv");
        b.add_driver(vic, root, self.victim_driver)?;
        let mut trunk_nodes: Vec<(f64, NodeId)> = vec![(0.0, root)];
        for i in 1..=n_trunk {
            let node = b.add_node(vic, format!("v_t{i}"));
            b.add_resistor(trunk_nodes[i - 1].1, node, tech.wire_r(seg))?;
            b.add_ground_cap(node, tech.wire_c(seg))?;
            trunk_nodes.push((i as f64 * seg, node));
        }
        let out = trunk_nodes[n_trunk].1;
        b.add_sink(out, self.load)?;
        b.set_victim_output(out);

        // Side branches: attach at the nearest trunk node.
        for (bi, &(at, len)) in self.branches.iter().enumerate() {
            let attach = trunk_nodes
                .iter()
                .min_by(|a, c| {
                    (a.0 - at)
                        .abs()
                        .partial_cmp(&(c.0 - at).abs())
                        .expect("positions are finite")
                })
                .expect("trunk has nodes")
                .1;
            let n = ((len / seg_len).ceil() as usize).max(1);
            let bseg = len / n as f64;
            let mut prev = attach;
            for i in 0..n {
                let node = b.add_node(vic, format!("v_b{bi}_{i}"));
                b.add_resistor(prev, node, tech.wire_r(bseg))?;
                b.add_ground_cap(node, tech.wire_c(bseg))?;
                prev = node;
            }
            b.add_sink(prev, self.load)?;
        }

        // Aggressor along the coupling window of the trunk.
        let coupled: Vec<NodeId> = trunk_nodes
            .iter()
            .filter(|(pos, _)| *pos > c_start && *pos <= c_start + c_len + seg * 0.5)
            .map(|&(_, n)| n)
            .collect();
        assert!(
            !coupled.is_empty(),
            "coupling window too short for the discretization"
        );
        let n_c = coupled.len();
        let aseg = c_len / n_c as f64;
        let mut agg_nodes = Vec::with_capacity(n_c + 1);
        agg_nodes.push(b.add_node(agg, "a_0"));
        for i in 1..=n_c {
            let node = b.add_node(agg, format!("a_{i}"));
            b.add_resistor(agg_nodes[i - 1], node, tech.wire_r(aseg))?;
            b.add_ground_cap(node, tech.wire_c(aseg))?;
            agg_nodes.push(node);
        }
        let (drv, load) = if self.far_end {
            (agg_nodes[0], agg_nodes[n_c])
        } else {
            (agg_nodes[n_c], agg_nodes[0])
        };
        b.add_driver(agg, drv, self.aggressor_driver)?;
        b.add_sink(load, self.aggressor_load)?;
        for (i, &vn) in coupled.iter().enumerate() {
            b.add_coupling_cap(agg_nodes[i + 1], vn, tech.wire_cc(aseg))?;
        }

        let network = b.build()?;
        Ok((network, agg))
    }
}

/// Draws a random [`TreeSpec`] in the paper's sweep ranges: trunk
/// 0.5–2.5 mm, 1–3 side branches, coupling window 0.1–2.0 mm clamped to
/// the trunk, drivers and loads from `tech`'s ranges.
pub fn random_tree(rng: &mut StdRng, tech: &Technology, far_end: bool) -> TreeSpec {
    let trunk = rng.random_range(0.5e-3..2.5e-3);
    let n_branches = rng.random_range(1..4);
    let branches = (0..n_branches)
        .map(|_| {
            (
                rng.random_range(0.1..0.9) * trunk,
                rng.random_range(0.1e-3..0.8e-3),
            )
        })
        .collect();
    let window: f64 = rng.random_range(0.1e-3..2.0e-3);
    let c_len = window.min(trunk * rng.random_range(0.3..1.0));
    // The draw range has a 1 µm floor so it is never empty; clamping the
    // draw to the slack keeps the window on the trunk when the slack is
    // smaller, without changing the RNG stream.
    let slack = trunk - c_len;
    let c_start = rng.random_range(0.0..slack.max(1e-6)).min(slack);
    TreeSpec {
        trunk,
        branches,
        coupling: (c_start, c_len),
        victim_driver: rng.random_range(tech.driver_range.0..tech.driver_range.1),
        aggressor_driver: rng.random_range(tech.driver_range.0..tech.driver_range.1),
        load: rng.random_range(tech.load_range.0..tech.load_range.1),
        aggressor_load: rng.random_range(tech.load_range.0..tech.load_range.1),
        far_end,
        segments_per_mm: 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn spec() -> TreeSpec {
        TreeSpec {
            trunk: 1.5e-3,
            branches: vec![(0.5e-3, 0.4e-3), (1.0e-3, 0.3e-3)],
            coupling: (0.4e-3, 0.6e-3),
            victim_driver: 250.0,
            aggressor_driver: 180.0,
            load: 15e-15,
            aggressor_load: 12e-15,
            far_end: true,
            segments_per_mm: 8,
        }
    }

    #[test]
    fn tree_builds_with_branch_sinks() {
        let (net, agg) = spec().build(&Technology::p25()).unwrap();
        // One primary + two branch sinks on the victim.
        assert_eq!(net.victim_net().sinks().len(), 3);
        assert_eq!(net.net(agg).sinks().len(), 1);
        // Coupling total tracks the window length.
        let tech = Technology::p25();
        let cc: f64 = net
            .couplings_between(agg, net.victim())
            .map(|(_, _, f)| f)
            .sum();
        assert!((cc - tech.wire_cc(0.6e-3)).abs() < 0.05 * cc, "cc = {cc}");
    }

    #[test]
    fn victim_resistance_includes_branches() {
        let tech = Technology::p25();
        let (net, _) = spec().build(&tech).unwrap();
        let expect = tech.wire_r(1.5e-3 + 0.4e-3 + 0.3e-3);
        let got = net.net_total_res(net.victim());
        assert!((got - expect).abs() < 0.02 * expect, "{got} vs {expect}");
    }

    #[test]
    fn random_trees_build_and_validate() {
        let tech = Technology::p25();
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..100 {
            let spec = random_tree(&mut rng, &tech, i % 2 == 0);
            let (net, agg) = spec.build(&tech).unwrap();
            assert!(net.node_count() > 4, "case {i}");
            assert!(net.couplings_between(agg, net.victim()).count() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "coupling window outside")]
    fn window_beyond_trunk_panics() {
        let mut s = spec();
        s.coupling = (1.2e-3, 0.6e-3);
        let _ = s.build(&Technology::p25());
    }
}
