use crate::tree::NetTree;
use crate::{CircuitError, CouplingCap, Driver, GroundCap, NetId, NodeId, Resistor, Sink};

/// Role of a net in the coupling analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetRole {
    /// The quiet net whose noise response is analyzed.
    Victim,
    /// A switching net injecting noise through coupling capacitance.
    Aggressor,
}

/// A single net of the coupled network: name, role, member nodes, driver
/// and sinks.
#[derive(Debug, Clone)]
pub struct Net {
    pub(crate) name: String,
    pub(crate) role: NetRole,
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) driver: Driver,
    pub(crate) sinks: Vec<Sink>,
}

impl Net {
    /// Net name as given to [`crate::NetworkBuilder::add_net`].
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Role (victim or aggressor).
    pub fn role(&self) -> NetRole {
        self.role
    }

    /// Member nodes, in creation order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The net's (single) linearized driver.
    pub fn driver(&self) -> &Driver {
        &self.driver
    }

    /// Receiver sinks on this net.
    pub fn sinks(&self) -> &[Sink] {
        &self.sinks
    }
}

/// Node names stored back to back in one string: one allocation for a
/// network's names instead of one per node. Indexing past the end
/// panics, as `Vec` indexing does.
#[derive(Clone, Default)]
pub(crate) struct NodeNames {
    text: String,
    /// `ends[i]` is where name `i` ends in `text`.
    ends: Vec<usize>,
}

impl NodeNames {
    pub(crate) fn with_capacity(names: usize) -> Self {
        NodeNames {
            text: String::new(),
            ends: Vec::with_capacity(names),
        }
    }

    pub(crate) fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(self.text.len());
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    pub(crate) fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }
}

impl std::fmt::Debug for NodeNames {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|i| self.get(i)))
            .finish()
    }
}

/// A validated coupled distributed-RC network.
///
/// Constructed through [`crate::NetworkBuilder`]; construction guarantees
/// the invariants the analysis engines rely on:
///
/// * exactly one [`NetRole::Victim`] net; any number of aggressors;
/// * every net is a connected resistive *tree* rooted at its driver node;
/// * nets are resistively disjoint; coupling capacitors bridge distinct nets;
/// * all element values are finite and positive (sink loads may be zero);
/// * every net has exactly one driver and at least one sink.
///
/// See the [crate-level example](crate) for construction.
#[derive(Debug, Clone)]
pub struct Network {
    pub(crate) node_names: NodeNames,
    pub(crate) node_net: Vec<NetId>,
    pub(crate) nets: Vec<Net>,
    pub(crate) resistors: Vec<Resistor>,
    pub(crate) ground_caps: Vec<GroundCap>,
    pub(crate) coupling_caps: Vec<CouplingCap>,
    pub(crate) victim: NetId,
    pub(crate) victim_output: NodeId,
    pub(crate) trees: Vec<NetTree>,
}

impl Network {
    /// Total number of nodes (ground excluded).
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// The net a node belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds (ids from another network).
    pub fn node_net(&self, node: NodeId) -> NetId {
        self.node_net[node.index()]
    }

    /// The user-supplied node name.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.node_names.get(node.index())
    }

    /// All nets with their ids.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets.iter().enumerate().map(|(i, n)| (NetId(i as u32), n))
    }

    /// A net by id.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of bounds.
    pub fn net(&self, net: NetId) -> &Net {
        &self.nets[net.index()]
    }

    /// Id of the victim net.
    pub fn victim(&self) -> NetId {
        self.victim
    }

    /// The victim net.
    pub fn victim_net(&self) -> &Net {
        &self.nets[self.victim.index()]
    }

    /// All aggressor nets with their ids, in creation order.
    ///
    /// The position in this iteration is the aggressor's *ordinal* `j`
    /// used throughout the metric formulas (superscript `(j)`).
    pub fn aggressor_nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets().filter(|(_, n)| n.role == NetRole::Aggressor)
    }

    /// The designated victim observation node (a victim sink; defaults to
    /// the first sink added, see [`crate::NetworkBuilder::set_victim_output`]).
    pub fn victim_output(&self) -> NodeId {
        self.victim_output
    }

    /// Re-designates the victim: `victim` becomes the victim and every
    /// other net an aggressor, observed at `output` — which must carry a
    /// sink on `victim` — or else at its first sink, as
    /// [`crate::NetworkBuilder::build`] chooses. On error the network is
    /// unchanged.
    ///
    /// Elements, node and net order stay as they are, so the result is
    /// the network the builder would produce with these roles.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownNode`] when `output` is not a sink node of
    /// `victim`.
    pub(crate) fn set_victim(
        &mut self,
        victim: NetId,
        output: Option<NodeId>,
    ) -> Result<(), CircuitError> {
        let sinks = &self.nets[victim.index()].sinks;
        let output = match output {
            Some(node) if !sinks.iter().any(|s| s.node == node) => {
                return Err(CircuitError::UnknownNode(node));
            }
            Some(node) => node,
            None => sinks[0].node,
        };
        self.nets[self.victim.index()].role = NetRole::Aggressor;
        self.nets[victim.index()].role = NetRole::Victim;
        self.victim = victim;
        self.victim_output = output;
        Ok(())
    }

    /// All wire resistors.
    pub fn resistors(&self) -> &[Resistor] {
        &self.resistors
    }

    /// All grounded wire capacitors (excluding sink loads — see
    /// [`Net::sinks`], which are also capacitances to ground).
    pub fn ground_caps(&self) -> &[GroundCap] {
        &self.ground_caps
    }

    /// All coupling capacitors.
    pub fn coupling_caps(&self) -> &[CouplingCap] {
        &self.coupling_caps
    }

    /// Rooted-tree view of a net (parents, traversal order, path
    /// resistances).
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of bounds.
    pub fn tree(&self, net: NetId) -> &NetTree {
        &self.trees[net.index()]
    }

    /// Coupling capacitors that bridge the given pair of nets, as
    /// `(node_on_a, node_on_b, farads)`.
    pub fn couplings_between(
        &self,
        net_a: NetId,
        net_b: NetId,
    ) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.coupling_caps.iter().filter_map(move |cc| {
            let na = self.node_net(cc.a);
            let nb = self.node_net(cc.b);
            if na == net_a && nb == net_b {
                Some((cc.a, cc.b, cc.farads))
            } else if na == net_b && nb == net_a {
                Some((cc.b, cc.a, cc.farads))
            } else {
                None
            }
        })
    }

    /// Total capacitance attached to a node: grounded wire caps, sink
    /// loads, and coupling caps (counted fully, as for a grounded-aggressor
    /// lumped estimate).
    pub fn node_total_cap(&self, node: NodeId) -> f64 {
        let mut c = 0.0;
        for gc in &self.ground_caps {
            if gc.node == node {
                c += gc.farads;
            }
        }
        for net in &self.nets {
            for s in &net.sinks {
                if s.node == node {
                    c += s.farads;
                }
            }
        }
        for cc in &self.coupling_caps {
            if cc.a == node || cc.b == node {
                c += cc.farads;
            }
        }
        c
    }

    /// Sum of all capacitance (ground + sink + coupling) on a net, in
    /// farads. Coupling caps count fully.
    pub fn net_total_cap(&self, net: NetId) -> f64 {
        self.net(net)
            .nodes
            .iter()
            .map(|&n| self.node_total_cap(n))
            .sum()
    }

    /// Sum of wire resistance on a net, in ohms (driver resistance
    /// excluded).
    pub fn net_total_res(&self, net: NetId) -> f64 {
        self.resistors
            .iter()
            .filter(|r| self.node_net(r.a) == net)
            .map(|r| r.ohms)
            .sum()
    }
}
