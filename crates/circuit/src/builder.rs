#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
use crate::error::{check_non_negative, check_positive};
use crate::network::{Net, NetRole, Network};
use crate::tree::NetTree;
use crate::{CircuitError, CouplingCap, Driver, GroundCap, NetId, NodeId, Resistor, Sink};
use std::collections::HashMap;

/// Incremental, validating constructor for [`Network`].
///
/// Elements are checked as they are added (values positive/finite, nodes on
/// the right nets); the structural invariants — each net a connected
/// resistive tree, exactly one victim, drivers/sinks present — are checked
/// by [`NetworkBuilder::build`].
///
/// See the [crate-level example](crate) for end-to-end usage.
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    net_names: Vec<String>,
    net_roles: Vec<NetRole>,
    node_names: Vec<String>,
    node_net: Vec<NetId>,
    resistors: Vec<Resistor>,
    ground_caps: Vec<GroundCap>,
    coupling_caps: Vec<CouplingCap>,
    drivers: Vec<Driver>,
    sinks: Vec<Sink>,
    victim_output: Option<NodeId>,
    skip_value_checks: bool,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        NetworkBuilder::default()
    }

    /// Creates a builder that skips the per-element *value* checks
    /// (positivity / finiteness) while keeping every structural check
    /// (tree shape, driver/sink presence, net membership).
    ///
    /// This exists so tests and fault-injection harnesses can construct
    /// networks carrying NaN, negative, or zero element values and then
    /// exercise [`crate::Network::validate`] and downstream degraded-mode
    /// handling. Production callers should use [`NetworkBuilder::new`];
    /// a permissively built network only reveals its corruption through
    /// `validate()`, not through the type system.
    pub fn permissive() -> Self {
        NetworkBuilder {
            skip_value_checks: true,
            ..NetworkBuilder::default()
        }
    }

    fn check_value(
        &self,
        check: impl FnOnce() -> Result<(), CircuitError>,
    ) -> Result<(), CircuitError> {
        if self.skip_value_checks {
            Ok(())
        } else {
            check()
        }
    }

    /// Declares a net; returns its handle.
    pub fn add_net(&mut self, name: impl Into<String>, role: NetRole) -> NetId {
        self.net_names.push(name.into());
        self.net_roles.push(role);
        NetId((self.net_names.len() - 1) as u32)
    }

    /// Adds a node to `net`; returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `net` was not created by this builder.
    pub fn add_node(&mut self, net: NetId, name: impl Into<String>) -> NodeId {
        assert!(
            net.index() < self.net_names.len(),
            "net {net} does not belong to this builder"
        );
        self.node_names.push(name.into());
        self.node_net.push(net);
        NodeId((self.node_names.len() - 1) as u32)
    }

    /// Adds a wire resistor between two nodes of the same net.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidValue`] — `ohms` not positive/finite.
    /// * [`CircuitError::UnknownNode`] — a terminal is foreign.
    /// * [`CircuitError::SelfLoop`] — `a == b`.
    /// * [`CircuitError::ResistorAcrossNets`] — terminals on different nets.
    pub fn add_resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> Result<(), CircuitError> {
        self.check_value(|| check_positive("resistor", ohms))?;
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(CircuitError::SelfLoop(a));
        }
        if self.node_net[a.index()] != self.node_net[b.index()] {
            return Err(CircuitError::ResistorAcrossNets { a, b });
        }
        self.resistors.push(Resistor { a, b, ohms });
        Ok(())
    }

    /// Adds a grounded (wire-to-substrate) capacitor.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidValue`] — `farads` not positive/finite.
    /// * [`CircuitError::UnknownNode`] — `node` is foreign.
    pub fn add_ground_cap(&mut self, node: NodeId, farads: f64) -> Result<(), CircuitError> {
        self.check_value(|| check_positive("ground capacitor", farads))?;
        self.check_node(node)?;
        self.ground_caps.push(GroundCap { node, farads });
        Ok(())
    }

    /// Adds a coupling capacitor between nodes of two different nets.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidValue`] — `farads` not positive/finite.
    /// * [`CircuitError::UnknownNode`] — a terminal is foreign.
    /// * [`CircuitError::SelfLoop`] — `a == b`.
    /// * [`CircuitError::CouplingWithinNet`] — terminals on the same net.
    pub fn add_coupling_cap(
        &mut self,
        a: NodeId,
        b: NodeId,
        farads: f64,
    ) -> Result<(), CircuitError> {
        self.check_value(|| check_positive("coupling capacitor", farads))?;
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(CircuitError::SelfLoop(a));
        }
        if self.node_net[a.index()] == self.node_net[b.index()] {
            return Err(CircuitError::CouplingWithinNet { a, b });
        }
        self.coupling_caps.push(CouplingCap { a, b, farads });
        Ok(())
    }

    /// Attaches the net's linearized driver (its tree root).
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidValue`] — `ohms` not positive/finite.
    /// * [`CircuitError::UnknownNet`] / [`CircuitError::UnknownNode`].
    /// * [`CircuitError::DriverNodeOffNet`] — `node` not on `net`.
    /// * [`CircuitError::DriverCount`] — the net already has a driver.
    pub fn add_driver(&mut self, net: NetId, node: NodeId, ohms: f64) -> Result<(), CircuitError> {
        self.check_value(|| check_positive("driver resistance", ohms))?;
        self.check_net(net)?;
        self.check_node(node)?;
        if self.node_net[node.index()] != net {
            return Err(CircuitError::DriverNodeOffNet { net, node });
        }
        if self.drivers.iter().any(|d| d.net == net) {
            return Err(CircuitError::DriverCount { net, found: 2 });
        }
        self.drivers.push(Driver { net, node, ohms });
        Ok(())
    }

    /// Attaches a receiver (load capacitance) at `node`. A zero load models
    /// an ideal probe.
    ///
    /// The first sink added on the victim net becomes the default noise
    /// observation node (override with
    /// [`NetworkBuilder::set_victim_output`]).
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidValue`] — `farads` negative or non-finite.
    /// * [`CircuitError::UnknownNode`] — `node` is foreign.
    pub fn add_sink(&mut self, node: NodeId, farads: f64) -> Result<(), CircuitError> {
        self.check_value(|| check_non_negative("sink load", farads))?;
        self.check_node(node)?;
        self.sinks.push(Sink { node, farads });
        Ok(())
    }

    /// Chooses the victim observation node explicitly. It must carry a sink
    /// on the victim net by the time [`NetworkBuilder::build`] runs.
    pub fn set_victim_output(&mut self, node: NodeId) {
        self.victim_output = Some(node);
    }

    /// Validates the accumulated structure and produces the immutable
    /// [`Network`].
    ///
    /// # Errors
    ///
    /// * [`CircuitError::VictimCount`] — not exactly one victim net.
    /// * [`CircuitError::EmptyNet`] / [`CircuitError::NoSink`] /
    ///   [`CircuitError::DriverCount`] — per-net completeness.
    /// * [`CircuitError::NotATree`] — a net's resistor graph has a cycle or
    ///   is disconnected.
    /// * [`CircuitError::UnknownNode`] — the chosen victim output is not a
    ///   victim sink node.
    pub fn build(self) -> Result<Network, CircuitError> {
        let victims: Vec<NetId> = (0..self.net_roles.len())
            .filter(|&i| self.net_roles[i] == NetRole::Victim)
            .map(|i| NetId(i as u32))
            .collect();
        if victims.len() != 1 {
            return Err(CircuitError::VictimCount {
                found: victims.len(),
            });
        }
        let victim = victims[0];

        // Group nodes by net.
        let mut net_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); self.net_names.len()];
        for (i, net) in self.node_net.iter().enumerate() {
            net_nodes[net.index()].push(NodeId(i as u32));
        }

        let mut nets = Vec::with_capacity(self.net_names.len());
        let mut trees = Vec::with_capacity(self.net_names.len());
        for i in 0..self.net_names.len() {
            let net_id = NetId(i as u32);
            let nodes = std::mem::take(&mut net_nodes[i]);
            if nodes.is_empty() {
                return Err(CircuitError::EmptyNet(net_id));
            }
            let driver = self
                .drivers
                .iter()
                .find(|d| d.net == net_id)
                .copied()
                .ok_or(CircuitError::DriverCount {
                    net: net_id,
                    found: 0,
                })?;
            let sinks: Vec<Sink> = self
                .sinks
                .iter()
                .filter(|s| self.node_net[s.node.index()] == net_id)
                .copied()
                .collect();
            if sinks.is_empty() {
                return Err(CircuitError::NoSink(net_id));
            }
            trees.push(self.build_tree(net_id, driver.node, &nodes)?);
            nets.push(Net {
                name: self.net_names[i].clone(),
                role: self.net_roles[i],
                nodes,
                driver,
                sinks,
            });
        }

        let mut network = Network {
            node_names: self.node_names,
            node_net: self.node_net,
            nets,
            resistors: self.resistors,
            ground_caps: self.ground_caps,
            coupling_caps: self.coupling_caps,
            victim,
            victim_output: NodeId(0),
            trees,
        };
        // Victim observation node: explicit choice or first victim sink.
        network.set_victim(victim, self.victim_output)?;
        Ok(network)
    }

    /// BFS from the driver root over the net's resistors; verifies the
    /// spanning-tree property and records parent links.
    fn build_tree(
        &self,
        net: NetId,
        root: NodeId,
        nodes: &[NodeId],
    ) -> Result<NetTree, CircuitError> {
        // Adjacency restricted to this net.
        let mut adj: HashMap<NodeId, Vec<(NodeId, f64)>> = HashMap::new();
        let mut edge_count = 0usize;
        for r in &self.resistors {
            if self.node_net[r.a.index()] == net {
                adj.entry(r.a).or_default().push((r.b, r.ohms));
                adj.entry(r.b).or_default().push((r.a, r.ohms));
                edge_count += 1;
            }
        }
        if edge_count != nodes.len() - 1 {
            return Err(CircuitError::NotATree {
                net,
                detail: format!(
                    "{} resistors for {} nodes (a spanning tree needs {})",
                    edge_count,
                    nodes.len(),
                    nodes.len() - 1
                ),
            });
        }

        let mut parents: HashMap<NodeId, (NodeId, f64)> = HashMap::new();
        let mut order = vec![root];
        let mut visited: HashMap<NodeId, bool> = HashMap::new();
        visited.insert(root, true);
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            if let Some(neighbors) = adj.get(&u) {
                for &(v, r) in neighbors {
                    if visited.insert(v, true).is_none() {
                        parents.insert(v, (u, r));
                        order.push(v);
                    }
                }
            }
        }
        if order.len() != nodes.len() {
            let missing = nodes
                .iter()
                .find(|n| !visited.contains_key(n))
                .expect("some node unvisited");
            return Err(CircuitError::NotATree {
                net,
                detail: format!("node {missing} unreachable from the driver root {root}"),
            });
        }
        Ok(NetTree::from_parents(net, root, order, &parents))
    }

    fn check_node(&self, node: NodeId) -> Result<(), CircuitError> {
        if node.index() < self.node_names.len() {
            Ok(())
        } else {
            Err(CircuitError::UnknownNode(node))
        }
    }

    fn check_net(&self, net: NetId) -> Result<(), CircuitError> {
        if net.index() < self.net_names.len() {
            Ok(())
        } else {
            Err(CircuitError::UnknownNet(net))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_net_builder() -> (NetworkBuilder, NetId, NetId, NodeId, NodeId) {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let vn = b.add_node(v, "v0");
        let an = b.add_node(a, "a0");
        (b, v, a, vn, an)
    }

    #[test]
    fn minimal_valid_network_builds() {
        let (mut b, v, a, vn, an) = two_net_builder();
        b.add_driver(v, vn, 100.0).unwrap();
        b.add_driver(a, an, 100.0).unwrap();
        b.add_sink(vn, 1e-15).unwrap();
        b.add_sink(an, 1e-15).unwrap();
        b.add_coupling_cap(vn, an, 1e-15).unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.node_count(), 2);
        assert_eq!(net.victim_output(), vn);
        assert_eq!(net.couplings_between(net.victim(), a).count(), 1);
    }

    #[test]
    fn resistor_across_nets_rejected() {
        let (mut b, _, _, vn, an) = two_net_builder();
        let err = b.add_resistor(vn, an, 10.0).unwrap_err();
        assert!(matches!(err, CircuitError::ResistorAcrossNets { .. }));
    }

    #[test]
    fn coupling_within_net_rejected() {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let n0 = b.add_node(v, "n0");
        let n1 = b.add_node(v, "n1");
        let err = b.add_coupling_cap(n0, n1, 1e-15).unwrap_err();
        assert!(matches!(err, CircuitError::CouplingWithinNet { .. }));
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let n0 = b.add_node(v, "n0");
        assert!(matches!(
            b.add_resistor(n0, n0, 1.0),
            Err(CircuitError::SelfLoop(_))
        ));
    }

    #[test]
    fn negative_and_nan_values_rejected() {
        let (mut b, v, _, vn, _) = two_net_builder();
        assert!(b.add_driver(v, vn, -5.0).is_err());
        assert!(b.add_ground_cap(vn, f64::NAN).is_err());
        assert!(b.add_ground_cap(vn, 0.0).is_err());
        assert!(b.add_sink(vn, -1.0).is_err());
        // Zero sink load is a legal ideal probe.
        assert!(b.add_sink(vn, 0.0).is_ok());
    }

    #[test]
    fn double_driver_rejected() {
        let (mut b, v, _, vn, _) = two_net_builder();
        b.add_driver(v, vn, 10.0).unwrap();
        assert!(matches!(
            b.add_driver(v, vn, 10.0),
            Err(CircuitError::DriverCount { found: 2, .. })
        ));
    }

    #[test]
    fn driver_off_net_rejected() {
        let (mut b, v, _, _, an) = two_net_builder();
        assert!(matches!(
            b.add_driver(v, an, 10.0),
            Err(CircuitError::DriverNodeOffNet { .. })
        ));
    }

    #[test]
    fn missing_driver_fails_build() {
        let (mut b, v, a, vn, an) = two_net_builder();
        b.add_driver(v, vn, 10.0).unwrap();
        b.add_sink(vn, 1e-15).unwrap();
        b.add_sink(an, 1e-15).unwrap();
        let _ = a;
        assert!(matches!(
            b.build(),
            Err(CircuitError::DriverCount { found: 0, .. })
        ));
    }

    #[test]
    fn missing_sink_fails_build() {
        let (mut b, v, a, vn, an) = two_net_builder();
        b.add_driver(v, vn, 10.0).unwrap();
        b.add_driver(a, an, 10.0).unwrap();
        b.add_sink(vn, 1e-15).unwrap();
        assert!(matches!(b.build(), Err(CircuitError::NoSink(_))));
    }

    #[test]
    fn two_victims_rejected() {
        let mut b = NetworkBuilder::new();
        b.add_net("v1", NetRole::Victim);
        b.add_net("v2", NetRole::Victim);
        assert!(matches!(
            b.build(),
            Err(CircuitError::VictimCount { found: 2 })
        ));
    }

    #[test]
    fn cycle_rejected() {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let n0 = b.add_node(v, "n0");
        let n1 = b.add_node(v, "n1");
        let n2 = b.add_node(v, "n2");
        b.add_driver(v, n0, 10.0).unwrap();
        b.add_sink(n2, 1e-15).unwrap();
        b.add_resistor(n0, n1, 1.0).unwrap();
        b.add_resistor(n1, n2, 1.0).unwrap();
        b.add_resistor(n2, n0, 1.0).unwrap();
        match b.build() {
            Err(CircuitError::NotATree { detail, .. }) => {
                assert!(detail.contains("3 resistors"), "{detail}")
            }
            other => panic!("expected NotATree, got {other:?}"),
        }
    }

    #[test]
    fn disconnected_net_rejected() {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let n0 = b.add_node(v, "n0");
        let n1 = b.add_node(v, "n1");
        let n2 = b.add_node(v, "n2");
        let n3 = b.add_node(v, "n3");
        b.add_driver(v, n0, 10.0).unwrap();
        b.add_sink(n0, 1e-15).unwrap();
        b.add_resistor(n0, n1, 1.0).unwrap();
        // n2-n3 form an island, and a spurious extra edge keeps the count right.
        b.add_resistor(n2, n3, 1.0).unwrap();
        b.add_resistor(n0, n1, 1.0).unwrap();
        match b.build() {
            Err(CircuitError::NotATree { detail, .. }) => {
                assert!(detail.contains("unreachable"), "{detail}")
            }
            other => panic!("expected NotATree, got {other:?}"),
        }
    }

    #[test]
    fn victim_output_override_validated() {
        let (mut b, v, a, vn, an) = two_net_builder();
        let v1 = b.add_node(v, "v1");
        b.add_driver(v, vn, 10.0).unwrap();
        b.add_driver(a, an, 10.0).unwrap();
        b.add_resistor(vn, v1, 5.0).unwrap();
        b.add_sink(vn, 1e-15).unwrap();
        b.add_sink(v1, 1e-15).unwrap();
        b.add_sink(an, 1e-15).unwrap();
        b.set_victim_output(v1);
        let net = b.build().unwrap();
        assert_eq!(net.victim_output(), v1);
    }

    #[test]
    fn victim_output_must_be_a_victim_sink() {
        let (mut b, v, a, vn, an) = two_net_builder();
        b.add_driver(v, vn, 10.0).unwrap();
        b.add_driver(a, an, 10.0).unwrap();
        b.add_sink(vn, 1e-15).unwrap();
        b.add_sink(an, 1e-15).unwrap();
        b.set_victim_output(an); // aggressor node: invalid
        assert!(matches!(b.build(), Err(CircuitError::UnknownNode(_))));
    }

    #[test]
    fn net_totals_sum_elements() {
        let (mut b, v, a, vn, an) = two_net_builder();
        let v1 = b.add_node(v, "v1");
        b.add_driver(v, vn, 10.0).unwrap();
        b.add_driver(a, an, 10.0).unwrap();
        b.add_resistor(vn, v1, 7.0).unwrap();
        b.add_ground_cap(v1, 2e-15).unwrap();
        b.add_sink(v1, 3e-15).unwrap();
        b.add_sink(an, 1e-15).unwrap();
        b.add_coupling_cap(v1, an, 4e-15).unwrap();
        let net = b.build().unwrap();
        let vic = net.victim();
        assert!((net.net_total_res(vic) - 7.0).abs() < 1e-12);
        assert!((net.net_total_cap(vic) - 9e-15).abs() < 1e-27);
        assert!((net.node_total_cap(v1) - 9e-15).abs() < 1e-27);
    }
}
