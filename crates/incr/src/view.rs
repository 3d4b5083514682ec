//! Per-net truncated analysis views and the base→view delta routing
//! table.
//!
//! A [`View`] re-roles one base net as the victim and keeps only its
//! *directly coupled* neighbours as aggressors — the paper's locality
//! assumption made structural: noise is injected exclusively through
//! coupling capacitors, and second-hop nets perturb the victim only
//! through their (small) loading of the first-hop aggressors. Truncating
//! at one hop makes each view O(neighbourhood) instead of O(cluster),
//! which is where the incremental engine's asymptotic win comes from on
//! chain-coupled clusters that form one giant coupling island.
//!
//! Building a view lists every element it holds that a [`Delta`] can
//! name — a net's driver, a sink node, a resistor, a ground cap, a
//! coupling cap — with its id in the base and in the view. [`Routes`]
//! gathers those lists into one flat table keyed by base element.
//! Routing a delta answers two questions at once: *which views does
//! this edit affect* (exact invalidation — a view without a route is
//! provably untouched), and *what is the equivalent edit inside each*.
//! It visits only the delta's own routes, never the views it misses.

use std::sync::Arc;
use xtalk_circuit::{CircuitError, Delta, NetId, NetRole, Network, NetworkBuilder, NodeId};
use xtalk_moments::IncrTreeEngine;

/// Taylor order the noise pipeline consumes (`h0..h3`).
pub(crate) const MOMENT_ORDER: usize = 4;

/// One net's truncated analysis view: the re-roled victim, its 1-hop
/// aggressors and a moment engine over the view network.
#[derive(Debug)]
pub(crate) struct View {
    /// The base net this view analyzes as victim.
    pub target: NetId,
    /// The victim's name, shared by every report row of this view.
    pub name: Arc<str>,
    /// The truncated network (victim + direct neighbours).
    pub network: Network,
    /// Moment engine over `network`, kept at its values by the routed
    /// deltas and re-run whenever the view is recomputed.
    pub engine: IncrTreeEngine,
}

/// The value slot a [`Delta`] writes, named in one network's ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Target {
    Driver(NetId),
    Sink(NodeId),
    Resistor(usize),
    GroundCap(usize),
    CouplingCap(usize),
}

impl Target {
    /// The slot `delta` writes and the value it writes there.
    fn of(delta: &Delta) -> (Target, f64) {
        match *delta {
            Delta::ResizeDriver { net, ohms } => (Target::Driver(net), ohms),
            Delta::SetSinkCap { node, farads } => (Target::Sink(node), farads),
            Delta::SetResistor { index, ohms } => (Target::Resistor(index), ohms),
            Delta::SetGroundCap { index, farads } => (Target::GroundCap(index), farads),
            Delta::SetCouplingCap { index, farads } => (Target::CouplingCap(index), farads),
        }
    }

    /// The delta writing `value` into this slot.
    fn delta(self, value: f64) -> Delta {
        match self {
            Target::Driver(net) => Delta::ResizeDriver { net, ohms: value },
            Target::Sink(node) => Delta::SetSinkCap {
                node,
                farads: value,
            },
            Target::Resistor(index) => Delta::SetResistor { index, ohms: value },
            Target::GroundCap(index) => Delta::SetGroundCap {
                index,
                farads: value,
            },
            Target::CouplingCap(index) => Delta::SetCouplingCap {
                index,
                farads: value,
            },
        }
    }
}

/// Every delta target a view holds: `(base slot, view slot)` pairs.
pub(crate) type Held = Vec<(Target, Target)>;

/// Each base net's elements, listed once per session so that building a
/// view visits only the elements of the nets it includes.
#[derive(Debug)]
pub(crate) struct NetIndex {
    /// Per net, ascending: the resistors, ground caps and coupling caps
    /// with an end on one of its nodes.
    resistors: Vec<Vec<usize>>,
    ground_caps: Vec<Vec<usize>>,
    coupling_caps: Vec<Vec<usize>>,
    /// Each node's position in its net's node list.
    slot: Vec<usize>,
}

impl NetIndex {
    pub fn new(base: &Network) -> NetIndex {
        let nets = base.net_count();
        let mut index = NetIndex {
            resistors: vec![Vec::new(); nets],
            ground_caps: vec![Vec::new(); nets],
            coupling_caps: vec![Vec::new(); nets],
            slot: vec![0; base.node_count()],
        };
        for (_, net) in base.nets() {
            for (k, &node) in net.nodes().iter().enumerate() {
                index.slot[node.index()] = k;
            }
        }
        // An element between two nets is listed under both.
        fn list(lists: &mut [Vec<usize>], i: usize, a: NetId, b: NetId) {
            lists[a.index()].push(i);
            if b != a {
                lists[b.index()].push(i);
            }
        }
        for (i, r) in base.resistors().iter().enumerate() {
            list(&mut index.resistors, i, base.node_net(r.a), base.node_net(r.b));
        }
        for (i, gc) in base.ground_caps().iter().enumerate() {
            let net = base.node_net(gc.node);
            list(&mut index.ground_caps, i, net, net);
        }
        for (i, cc) in base.coupling_caps().iter().enumerate() {
            list(&mut index.coupling_caps, i, base.node_net(cc.a), base.node_net(cc.b));
        }
        index
    }

    /// The elements of `lists` listed under any of `nets`, in base order.
    fn merged(lists: &[Vec<usize>], nets: &[NetId]) -> Vec<usize> {
        let mut merged: Vec<usize> = nets
            .iter()
            .flat_map(|net| lists[net.index()].iter().copied())
            .collect();
        merged.sort_unstable();
        merged.dedup();
        merged
    }
}

impl View {
    /// Builds the view of `target` over `base`, with the delta targets
    /// it holds, visiting only the elements `index` lists under the
    /// included nets. Element iteration follows the base table order
    /// throughout, so two builds of the same view are identical and the
    /// view-local ids are index-stable.
    pub fn build(
        base: &Network,
        index: &NetIndex,
        target: NetId,
    ) -> Result<(View, Held), CircuitError> {
        let mut included = vec![target];
        for &i in &index.coupling_caps[target.index()] {
            let cc = &base.coupling_caps()[i];
            included.extend([base.node_net(cc.a), base.node_net(cc.b)]);
        }
        included.sort_unstable();
        included.dedup();

        let mut b = NetworkBuilder::new();
        let mut held = Held::new();
        // The view's nodes of each included net, in its node order.
        let mut view_nodes: Vec<Vec<NodeId>> = Vec::with_capacity(included.len());
        for &id in &included {
            let net = base.net(id);
            let role = if id == target {
                NetRole::Victim
            } else {
                NetRole::Aggressor
            };
            let view_net = b.add_net(net.name(), role);
            held.push((Target::Driver(id), Target::Driver(view_net)));
            let nodes: Vec<NodeId> = net
                .nodes()
                .iter()
                .map(|&node| b.add_node(view_net, base.node_name(node)))
                .collect();
            let at = |node: NodeId| nodes[index.slot[node.index()]];
            let driver = net.driver();
            b.add_driver(view_net, at(driver.node), driver.ohms)?;
            for (k, s) in net.sinks().iter().enumerate() {
                let snode = at(s.node);
                b.add_sink(snode, s.farads)?;
                // A sink delta names the first sink at its node.
                if net.sinks()[..k].iter().all(|p| p.node != s.node) {
                    held.push((Target::Sink(s.node), Target::Sink(snode)));
                }
            }
            view_nodes.push(nodes);
        }
        let node_map = |node: NodeId| {
            let k = included.binary_search(&base.node_net(node)).ok()?;
            Some(view_nodes[k][index.slot[node.index()]])
        };

        let mut local = 0usize;
        for i in NetIndex::merged(&index.resistors, &included) {
            let r = &base.resistors()[i];
            if let (Some(a), Some(bb)) = (node_map(r.a), node_map(r.b)) {
                held.push((Target::Resistor(i), Target::Resistor(local)));
                local += 1;
                b.add_resistor(a, bb, r.ohms)?;
            }
        }
        local = 0;
        for i in NetIndex::merged(&index.ground_caps, &included) {
            let gc = &base.ground_caps()[i];
            let node = node_map(gc.node).expect("listed under an included net");
            held.push((Target::GroundCap(i), Target::GroundCap(local)));
            local += 1;
            b.add_ground_cap(node, gc.farads)?;
        }
        local = 0;
        for i in NetIndex::merged(&index.coupling_caps, &included) {
            let cc = &base.coupling_caps()[i];
            if let (Some(a), Some(bb)) = (node_map(cc.a), node_map(cc.b)) {
                held.push((Target::CouplingCap(i), Target::CouplingCap(local)));
                local += 1;
                b.add_coupling_cap(a, bb, cc.farads)?;
            }
        }

        if target == base.victim() {
            if let Some(out) = node_map(base.victim_output()) {
                b.set_victim_output(out);
            }
        }
        // Re-roled nets observe at the builder default: the victim's
        // first sink — the same convention the screening views use.

        let network = b.build()?;
        let engine = IncrTreeEngine::new(&network, MOMENT_ORDER);
        let view = View {
            target,
            name: Arc::from(base.net(target).name()),
            network,
            engine,
        };
        Ok((view, held))
    }
}

/// The flat base→view routing table: the routes of flat key `k` are
/// `entries[starts[k]..starts[k + 1]]`, views ascending. Keys number the
/// drivers by net, then the sinks by node, then the resistor, ground-cap
/// and coupling-cap tables by index.
#[derive(Debug)]
pub(crate) struct Routes {
    /// First key of the sink, resistor, ground-cap and coupling-cap
    /// kinds (drivers start at 0).
    first: [usize; 4],
    starts: Vec<usize>,
    /// `(view index, view slot)` per route.
    entries: Vec<(usize, Target)>,
}

impl Routes {
    /// Gathers the views' held targets (`held[v]` from view `v`) into one
    /// table over `base`'s elements.
    pub fn new(base: &Network, held: &[Held]) -> Routes {
        let sinks = base.net_count();
        let resistors = sinks + base.node_count();
        let ground_caps = resistors + base.resistors().len();
        let coupling_caps = ground_caps + base.ground_caps().len();
        let keys = coupling_caps + base.coupling_caps().len();
        let mut routes = Routes {
            first: [sinks, resistors, ground_caps, coupling_caps],
            starts: vec![0; keys + 1],
            entries: Vec::new(),
        };
        for &(b, _) in held.iter().flatten() {
            let k = routes.key(b);
            routes.starts[k + 1] += 1;
        }
        for k in 0..keys {
            routes.starts[k + 1] += routes.starts[k];
        }
        // Each route goes to its key's next free slot (every slot is
        // written once); views are visited in order, so each key's
        // routes stay in view order.
        let mut next = routes.starts.clone();
        let mut entries = vec![(0, Target::Resistor(0)); routes.starts[keys]];
        for (v, h) in held.iter().enumerate() {
            for &(b, local) in h {
                let k = routes.key(b);
                entries[next[k]] = (v, local);
                next[k] += 1;
            }
        }
        routes.entries = entries;
        routes
    }

    fn key(&self, target: Target) -> usize {
        match target {
            Target::Driver(net) => net.index(),
            Target::Sink(node) => self.first[0] + node.index(),
            Target::Resistor(i) => self.first[1] + i,
            Target::GroundCap(i) => self.first[2] + i,
            Target::CouplingCap(i) => self.first[3] + i,
        }
    }

    /// The views a base-network delta touches, in view order, each with
    /// the equivalent view-local delta. `delta` must name an element of
    /// the base (one [`Network::apply_delta`] accepted).
    pub fn route<'a>(&'a self, delta: &Delta) -> impl Iterator<Item = (usize, Delta)> + 'a {
        let (target, value) = Target::of(delta);
        let k = self.key(target);
        self.entries[self.starts[k]..self.starts[k + 1]]
            .iter()
            .map(move |&(view, local)| (view, local.delta(value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_tech::{ClusterSpec, Technology};

    fn cluster(lanes: usize) -> (Network, Vec<NetId>) {
        ClusterSpec::figure4_family(lanes)
            .build(&Technology::p25())
            .unwrap()
    }

    /// Every view of `base`, in net order, and the routes over them.
    fn views(base: &Network) -> (Vec<View>, Routes) {
        let (views, held): (Vec<View>, Vec<Held>) = base
            .nets()
            .map(|(id, _)| View::build(base, &NetIndex::new(base), id).unwrap())
            .unzip();
        let routes = Routes::new(base, &held);
        (views, routes)
    }

    /// A target's element by the names of its net or nodes, which a view
    /// copies from the base.
    fn names(net: &Network, target: Target) -> String {
        match target {
            Target::Driver(id) => net.net(id).name().to_string(),
            Target::Sink(node) => net.node_name(node).to_string(),
            Target::Resistor(i) => {
                let r = &net.resistors()[i];
                format!("{}-{}", net.node_name(r.a), net.node_name(r.b))
            }
            Target::GroundCap(i) => net.node_name(net.ground_caps()[i].node).to_string(),
            Target::CouplingCap(i) => {
                let cc = &net.coupling_caps()[i];
                format!("{}~{}", net.node_name(cc.a), net.node_name(cc.b))
            }
        }
    }

    #[test]
    fn view_keeps_only_one_hop_neighbours() {
        let (base, lanes) = cluster(6);
        let (v, _) = View::build(&base, &NetIndex::new(&base), lanes[2]).unwrap();
        // Lane 2 couples to lanes 1 and 3 only.
        assert_eq!(v.network.net_count(), 3);
        assert_eq!(v.network.victim_net().name(), base.net(lanes[2]).name());
        assert_eq!(&*v.name, base.net(lanes[2]).name());
        let (end, _) = View::build(&base, &NetIndex::new(&base), lanes[0]).unwrap();
        assert_eq!(end.network.net_count(), 2);
    }

    #[test]
    fn view_of_base_victim_preserves_output_node() {
        let (base, _) = cluster(4);
        let (v, _) = View::build(&base, &NetIndex::new(&base), base.victim()).unwrap();
        assert_eq!(
            v.network.node_name(v.network.victim_output()),
            base.node_name(base.victim_output())
        );
    }

    #[test]
    fn routes_are_exact_per_element() {
        let (base, lanes) = cluster(6);
        let (_, routes) = views(&base);
        let touched = |d: Delta| routes.route(&d).map(|(v, _)| v).collect::<Vec<_>>();
        let lane = |i: usize| lanes[i].index();
        // Lane 1's driver is in the views of lanes 0, 1 and 2; an edge
        // lane's in its own and its one neighbour's.
        assert_eq!(
            touched(Delta::ResizeDriver {
                net: lanes[1],
                ohms: 50.0
            }),
            [lane(0), lane(1), lane(2)]
        );
        assert_eq!(
            touched(Delta::ResizeDriver {
                net: lanes[0],
                ohms: 50.0
            }),
            [lane(0), lane(1)]
        );
        // Couplings between lanes 0-1 are the first `segments` caps; the
        // lane 1-2 caps are outside lane 0's view.
        let segs = base.couplings_between(lanes[0], lanes[1]).count();
        assert_eq!(
            touched(Delta::SetCouplingCap {
                index: 0,
                farads: 1e-15
            }),
            [lane(0), lane(1)]
        );
        assert_eq!(
            touched(Delta::SetCouplingCap {
                index: segs,
                farads: 1e-15
            }),
            [lane(1), lane(2)]
        );
    }

    #[test]
    fn routes_reach_exactly_the_views_holding_each_element() {
        let (base, _) = cluster(6);
        let (views, routes) = views(&base);
        let mut deltas: Vec<Delta> = Vec::new();
        for (id, net) in base.nets() {
            deltas.push(Delta::ResizeDriver { net: id, ohms: 1.0 });
            for s in net.sinks() {
                deltas.push(Delta::SetSinkCap {
                    node: s.node,
                    farads: 1e-15,
                });
            }
        }
        deltas.extend(
            (0..base.resistors().len()).map(|index| Delta::SetResistor { index, ohms: 1.0 }),
        );
        deltas.extend(
            (0..base.ground_caps().len()).map(|index| Delta::SetGroundCap {
                index,
                farads: 1e-15,
            }),
        );
        deltas.extend(
            (0..base.coupling_caps().len()).map(|index| Delta::SetCouplingCap {
                index,
                farads: 1e-15,
            }),
        );
        // A view holds an element iff it holds every net the element
        // touches.
        let holds = |v: &View, id: NetId| {
            v.network
                .nets()
                .any(|(_, n)| n.name() == base.net(id).name())
        };
        for d in deltas {
            let (a, b) = d.touched_nets(&base).unwrap();
            let expected: Vec<usize> = (0..views.len())
                .filter(|&v| holds(&views[v], a) && b.map_or(true, |b| holds(&views[v], b)))
                .collect();
            let routed: Vec<(usize, Delta)> = routes.route(&d).collect();
            let reached: Vec<usize> = routed.iter().map(|&(v, _)| v).collect();
            assert_eq!(reached, expected, "{d}");
            let (target, value) = Target::of(&d);
            for (v, local) in routed {
                let (local_target, local_value) = Target::of(&local);
                assert_eq!(local_value.to_bits(), value.to_bits());
                assert_eq!(
                    names(&views[v].network, local_target),
                    names(&base, target),
                    "{d} in view {v}"
                );
            }
        }
    }

    #[test]
    fn routed_delta_applies_with_matching_values() {
        let (mut base, lanes) = cluster(4);
        let (mut views, routes) = views(&base);
        let d = Delta::SetResistor {
            index: 3,
            ohms: 99.0,
        };
        let (v, vd) = routes
            .route(&d)
            .find(|&(v, _)| v == lanes[1].index())
            .expect("lane 1's own resistor is in its view");
        base.apply_delta(&d).unwrap();
        views[v].network.apply_delta(&vd).unwrap();
        // The routed resistor carries the same new value.
        let Delta::SetResistor { index, .. } = vd else {
            unreachable!()
        };
        assert_eq!(views[v].network.resistors()[index].ohms, 99.0);
        assert_eq!(base.resistors()[3].ohms, 99.0);
        // And a rebuild of the view from the edited base matches element
        // for element.
        let (fresh, _) = View::build(&base, &NetIndex::new(&base), lanes[1]).unwrap();
        assert_eq!(fresh.network.resistors(), views[v].network.resistors());
        assert_eq!(
            fresh.network.coupling_caps(),
            views[v].network.coupling_caps()
        );
    }
}
