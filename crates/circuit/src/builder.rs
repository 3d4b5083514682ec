#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
use crate::error::{check_non_negative, check_positive};
use crate::network::{Net, NetRole, Network, NodeNames};
use crate::tree::NetTree;
use crate::{CircuitError, CouplingCap, Driver, GroundCap, NetId, NodeId, Resistor, Sink};
use std::sync::Arc;

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
    node_names: NodeNames,
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

    /// An empty builder with room for the given element counts, so a
    /// caller that knows them up front builds without regrowing.
    pub(crate) fn with_capacity(
        nets: usize,
        nodes: usize,
        resistors: usize,
        ground_caps: usize,
        sinks: usize,
        coupling_caps: usize,
    ) -> Self {
        NetworkBuilder {
            net_names: Vec::with_capacity(nets),
            net_roles: Vec::with_capacity(nets),
            node_names: NodeNames::with_capacity(nodes),
            node_net: Vec::with_capacity(nodes),
            resistors: Vec::with_capacity(resistors),
            ground_caps: Vec::with_capacity(ground_caps),
            coupling_caps: Vec::with_capacity(coupling_caps),
            drivers: Vec::with_capacity(nets),
            sinks: Vec::with_capacity(sinks),
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
    pub fn add_node(&mut self, net: NetId, name: impl AsRef<str>) -> NodeId {
        assert!(
            net.index() < self.net_names.len(),
            "net {net} does not belong to this builder"
        );
        self.node_names.push(name.as_ref());
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
        let net_count = self.net_names.len();

        // Group nodes, drivers, sinks and resistors by net, one pass each
        // (after one counting pass, so every group is allocated once).
        let mut counts = vec![(0usize, 0usize); net_count];
        for net in &self.node_net {
            counts[net.index()].0 += 1;
        }
        for s in &self.sinks {
            counts[self.node_net[s.node.index()].index()].1 += 1;
        }
        let mut net_nodes: Vec<Vec<NodeId>> =
            counts.iter().map(|&(n, _)| Vec::with_capacity(n)).collect();
        for (i, net) in self.node_net.iter().enumerate() {
            net_nodes[net.index()].push(NodeId(i as u32));
        }
        let mut net_driver: Vec<Option<Driver>> = vec![None; net_count];
        for d in &self.drivers {
            net_driver[d.net.index()].get_or_insert(*d);
        }
        let mut net_sinks: Vec<Vec<Sink>> =
            counts.iter().map(|&(_, n)| Vec::with_capacity(n)).collect();
        for s in &self.sinks {
            net_sinks[self.node_net[s.node.index()].index()].push(*s);
        }
        let mut net_edges = vec![0usize; net_count];
        for r in &self.resistors {
            net_edges[self.node_net[r.a.index()].index()] += 1;
        }
        let adjacency = Adjacency::new(
            self.node_names.len(),
            self.resistors.iter().map(|r| (r.a.0, r.b.0)),
        );
        let mut bfs = TreeSearch::new(self.node_names.len());

        let mut nets = Vec::with_capacity(net_count);
        let mut searched = Vec::with_capacity(net_count);
        for i in 0..net_count {
            let net_id = NetId(i as u32);
            let nodes = std::mem::take(&mut net_nodes[i]);
            if nodes.is_empty() {
                return Err(CircuitError::EmptyNet(net_id));
            }
            let driver = net_driver[i].ok_or(CircuitError::DriverCount {
                net: net_id,
                found: 0,
            })?;
            let sinks = std::mem::take(&mut net_sinks[i]);
            if sinks.is_empty() {
                return Err(CircuitError::NoSink(net_id));
            }
            if net_edges[i] != nodes.len() - 1 {
                return Err(CircuitError::NotATree {
                    net: net_id,
                    detail: format!(
                        "{} resistors for {} nodes (a spanning tree needs {})",
                        net_edges[i],
                        nodes.len(),
                        nodes.len() - 1
                    ),
                });
            }
            searched.push(bfs.search(net_id, driver.node, &nodes, &adjacency, &self.resistors)?);
            nets.push(Net {
                name: self.net_names[i].clone(),
                role: self.net_roles[i],
                nodes,
                driver,
                sinks,
            });
        }

        let slot: Arc<[u32]> = bfs.slot.into();
        let trees = searched
            .into_iter()
            .enumerate()
            .map(|(i, (order, parent))| {
                let (net, root) = (NetId(i as u32), nets[i].driver.node);
                NetTree::from_bfs(net, root, order, parent, Arc::clone(&slot))
            })
            .collect();
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

/// An undirected graph in CSR (compressed sparse row) form: the edges at
/// node `u` are `at(u)`, as `(neighbour, edge index)` pairs in edge order.
pub(crate) struct Adjacency {
    start: Vec<usize>,
    edges: Vec<(u32, u32)>,
}

impl Adjacency {
    /// The graph on `nodes` nodes whose edge `k` joins the `k`-th pair of
    /// `ends`.
    pub(crate) fn new(nodes: usize, ends: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut start = vec![0usize; nodes + 1];
        for (a, b) in ends.clone() {
            start[a as usize + 1] += 1;
            start[b as usize + 1] += 1;
        }
        for u in 0..nodes {
            start[u + 1] += start[u];
        }
        let mut fill = start.clone();
        let mut edges = vec![(0, 0); start[nodes]];
        for (k, (a, b)) in ends.enumerate() {
            edges[fill[a as usize]] = (b, k as u32);
            fill[a as usize] += 1;
            edges[fill[b as usize]] = (a, k as u32);
            fill[b as usize] += 1;
        }
        Adjacency { start, edges }
    }

    pub(crate) fn at(&self, u: u32) -> &[(u32, u32)] {
        &self.edges[self.start[u as usize]..self.start[u as usize + 1]]
    }
}

/// Breadth-first search state shared by every net of one build: each
/// node is visited once over the whole network.
struct TreeSearch {
    /// Each visited node's slot in its net's root-first order;
    /// `UNVISITED` until the search reaches it.
    slot: Vec<u32>,
}

const UNVISITED: u32 = u32::MAX;

/// One net's BFS result: nodes root first, and each one's parent slot
/// with the connecting resistance (`None` for the root).
type Searched = (Vec<NodeId>, Vec<Option<(usize, f64)>>);

impl TreeSearch {
    fn new(nodes: usize) -> Self {
        TreeSearch {
            slot: vec![UNVISITED; nodes],
        }
    }

    /// BFS from the driver root over the net's resistors; verifies the
    /// spanning-tree property (the edge count was checked by the caller)
    /// and records parent links.
    fn search(
        &mut self,
        net: NetId,
        root: NodeId,
        nodes: &[NodeId],
        adjacency: &Adjacency,
        resistors: &[Resistor],
    ) -> Result<Searched, CircuitError> {
        let mut order = Vec::with_capacity(nodes.len());
        let mut parent = Vec::with_capacity(nodes.len());
        self.slot[root.index()] = 0;
        order.push(root);
        parent.push(None);
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            for &(v, k) in adjacency.at(u.0) {
                let (v, r) = (NodeId(v), resistors[k as usize].ohms);
                if self.slot[v.index()] == UNVISITED {
                    self.slot[v.index()] = order.len() as u32;
                    parent.push(Some((self.slot[u.index()] as usize, r)));
                    order.push(v);
                }
            }
        }
        if order.len() != nodes.len() {
            let missing = nodes
                .iter()
                .find(|n| self.slot[n.index()] == UNVISITED)
                .expect("some node unvisited");
            return Err(CircuitError::NotATree {
                net,
                detail: format!("node {missing} unreachable from the driver root {root}"),
            });
        }
        Ok((order, parent))
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
