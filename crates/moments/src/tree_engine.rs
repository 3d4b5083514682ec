use crate::MomentError;
use xtalk_circuit::{NetId, Network, NodeId};
use xtalk_linalg::LinalgError;

/// Linear-time moment engine for coupled RC trees — the one every
/// production path uses.
///
/// The conductance matrix of a coupled-tree network is block-diagonal per
/// net (nets are resistively disjoint), and each block is tree-structured,
/// so `G·x = b` solves in two `O(n)` passes per net:
///
/// 1. leaves→root: accumulate the subtree injection sums `S_i`;
/// 2. top-down: `V_root = R_drv·S_root`, then `V_i = V_parent + r_i·S_i`.
///
/// The capacitance matvec in the moment recursion `G·m_k = −C·m_{k−1}` is
/// `O(#caps)`, so the whole transfer-function evaluation is
/// `O(order · (n + k))`, with no factorization and no dense matrix. Every
/// [`Network`] is a resistive forest (the builder rejects anything else),
/// so the engine covers every input. The dense [`crate::MomentEngine`]
/// is kept only as the oracle the tests compare this engine against.
///
/// The engine owns its tables and borrows nothing from the network it
/// was built from: one engine can outlive re-designations of that
/// network's victim, because moments depend on element values and net
/// order alone.
///
/// # Examples
///
/// ```
/// use xtalk_circuit::{NetRole, NetworkBuilder};
/// use xtalk_moments::TreeMomentEngine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetworkBuilder::new();
/// let v = b.add_net("v", NetRole::Victim);
/// let a = b.add_net("a", NetRole::Aggressor);
/// let vn = b.add_node(v, "v0");
/// let an = b.add_node(a, "a0");
/// b.add_driver(v, vn, 100.0)?;
/// b.add_driver(a, an, 100.0)?;
/// b.add_sink(vn, 10e-15)?;
/// b.add_sink(an, 10e-15)?;
/// b.add_coupling_cap(vn, an, 20e-15)?;
/// let network = b.build()?;
///
/// let engine = TreeMomentEngine::new(&network);
/// let h = engine.transfer_taylor(a, network.victim_output(), 4)?;
/// assert!((h[1] - 20e-15 * 100.0).abs() < 1e-18); // a1 = Cc·Rd
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TreeMomentEngine {
    /// Per node: its tree parent (unused for roots).
    pub(crate) parent: Vec<usize>,
    /// Per node: resistance to its tree parent (unused for roots).
    pub(crate) parent_res: Vec<f64>,
    /// Every node, each net contiguous and root (driver node) first.
    order: Vec<usize>,
    /// Per net: its `[start, end)` slice of `order`.
    net_ranges: Vec<(usize, usize)>,
    /// Per net: driver resistance.
    pub(crate) driver_ohms: Vec<f64>,
    /// Capacitance matrix as (row, col, value) triplets: ground caps,
    /// sinks net by net, then the four stamps of each coupling cap.
    pub(crate) c_entries: Vec<(usize, usize, f64)>,
}

impl TreeMomentEngine {
    /// Builds the traversal tables (no factorization — `O(n + k)`).
    pub fn new(network: &Network) -> Self {
        let _span = xtalk_obs::span!("moments.tree_build");
        xtalk_obs::counter!("moments.tree.builds").add(1);
        let n = network.node_count();
        let mut parent = vec![usize::MAX; n];
        let mut parent_res = vec![0.0; n];
        let mut order = Vec::with_capacity(n);
        let mut net_ranges = Vec::with_capacity(network.net_count());
        let mut driver_ohms = Vec::with_capacity(network.net_count());
        for (id, net) in network.nets() {
            let tree = network.tree(id);
            let start = order.len();
            for &node in tree.order() {
                order.push(node.index());
                if let Some((p, r)) = tree.parent(node) {
                    parent[node.index()] = p.index();
                    parent_res[node.index()] = r;
                }
            }
            net_ranges.push((start, order.len()));
            driver_ohms.push(net.driver().ohms);
        }

        let mut c_entries = Vec::new();
        for gc in network.ground_caps() {
            c_entries.push((gc.node.index(), gc.node.index(), gc.farads));
        }
        for (_, net) in network.nets() {
            for s in net.sinks() {
                c_entries.push((s.node.index(), s.node.index(), s.farads));
            }
        }
        for cc in network.coupling_caps() {
            let (a, b) = (cc.a.index(), cc.b.index());
            c_entries.push((a, a, cc.farads));
            c_entries.push((b, b, cc.farads));
            c_entries.push((a, b, -cc.farads));
            c_entries.push((b, a, -cc.farads));
        }

        TreeMomentEngine {
            parent,
            parent_res,
            order,
            net_ranges,
            driver_ohms,
            c_entries,
        }
    }

    /// Number of nodes in the underlying network.
    pub(crate) fn node_count(&self) -> usize {
        self.order.len()
    }

    /// Solves net `net`'s block of `G·x = b` in place: on entry `x` holds
    /// `b` on that net's nodes, on exit their voltages. Other nets'
    /// entries are untouched, so solving every block in turn solves the
    /// whole system.
    fn solve_net(&self, net: usize, x: &mut [f64]) {
        let (start, end) = self.net_ranges[net];
        let (&root, rest) = self.order[start..end]
            .split_first()
            .expect("every net has its driver node");
        // Pass 1: subtree injection sums, children before parents.
        for &node in rest.iter().rev() {
            x[self.parent[node]] += x[node];
        }
        // Pass 2: voltages, parents before children.
        x[root] *= self.driver_ohms[net];
        for &node in rest {
            x[node] = x[self.parent[node]] + self.parent_res[node] * x[node];
        }
    }

    /// The moment recursion for a unit input at the source of net
    /// `source`: overwrites `out[k]` with `m_k` for every
    /// `k < out.len()`, with no argument or finiteness checks. Each
    /// vector holds one entry per node. The one kernel behind
    /// [`TreeMomentEngine::moment_vectors`] and
    /// [`crate::IncrTreeEngine`]'s queries.
    pub(crate) fn recursion(&self, source: usize, out: &mut [Vec<f64>]) {
        let Some((m0, _)) = out.split_first_mut() else {
            return;
        };
        // Only the source net's block of m0 is non-zero: one driver
        // conductance at its root, then that block's solve.
        m0.fill(0.0);
        m0[self.order[self.net_ranges[source].0]] = 1.0 / self.driver_ohms[source];
        self.solve_net(source, m0);
        for k in 1..out.len() {
            let (done, rest) = out.split_at_mut(k);
            let (prev, next) = (&done[k - 1], &mut rest[0]);
            next.fill(0.0);
            for &(i, j, c) in &self.c_entries {
                next[i] -= c * prev[j];
            }
            for net in 0..self.net_ranges.len() {
                self.solve_net(net, next);
            }
        }
    }

    /// Taylor-coefficient vectors `m_0 … m_{order−1}` of all node voltages
    /// for a unit input at the source of `net` (all other sources quiet).
    ///
    /// # Errors
    ///
    /// [`MomentError::ZeroOrder`] when `order == 0`;
    /// [`MomentError::Numerical`] when an entry is not finite (a
    /// non-finite or zero-ohm element value in a network built without
    /// value checks).
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of bounds for the engine's network.
    pub fn moment_vectors(&self, net: NetId, order: usize) -> Result<Vec<Vec<f64>>, MomentError> {
        if order == 0 {
            return Err(MomentError::ZeroOrder);
        }
        xtalk_obs::counter!("moments.tree.moment_vectors").add(1);
        let mut out = vec![vec![0.0; self.node_count()]; order];
        self.recursion(net.index(), &mut out);
        if out.iter().flatten().any(|x| !x.is_finite()) {
            return Err(MomentError::Numerical(LinalgError::NonFinite {
                context: format!("the moment vectors of net {net}"),
            }));
        }
        Ok(out)
    }

    /// Taylor coefficients `h_0 … h_{order−1}` of the transfer function
    /// from the source of `net` to `output`.
    ///
    /// For an aggressor source and a victim observation node, `h0 = 0`
    /// and `h1` is the paper's `a1` coefficient.
    ///
    /// # Errors
    ///
    /// As [`TreeMomentEngine::moment_vectors`].
    ///
    /// # Panics
    ///
    /// Panics if `net` or `output` is out of bounds.
    pub fn transfer_taylor(
        &self,
        net: NetId,
        output: NodeId,
        order: usize,
    ) -> Result<Vec<f64>, MomentError> {
        let vectors = self.moment_vectors(net, order)?;
        Ok(vectors.iter().map(|m| m[output.index()]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MomentEngine;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xtalk_circuit::{NetRole, NetworkBuilder};

    fn random_coupled_tree(rng: &mut StdRng) -> Network {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let n_victim = rng.random_range(3..12);
        let mut vnodes = vec![b.add_node(v, "v0")];
        b.add_driver(v, vnodes[0], rng.random_range(50.0..1000.0)).unwrap();
        for i in 1..n_victim {
            let parent = vnodes[rng.random_range(0..vnodes.len())];
            let node = b.add_node(v, format!("v{i}"));
            b.add_resistor(parent, node, rng.random_range(2.0..150.0)).unwrap();
            b.add_ground_cap(node, rng.random_range(1e-15..20e-15)).unwrap();
            vnodes.push(node);
        }
        b.add_sink(*vnodes.last().unwrap(), rng.random_range(2e-15..30e-15)).unwrap();
        b.set_victim_output(*vnodes.last().unwrap());

        let mut ap = b.add_node(a, "a0");
        b.add_driver(a, ap, rng.random_range(50.0..1000.0)).unwrap();
        for i in 1..rng.random_range(2..8) {
            let node = b.add_node(a, format!("a{i}"));
            b.add_resistor(ap, node, rng.random_range(2.0..150.0)).unwrap();
            b.add_ground_cap(node, rng.random_range(1e-15..20e-15)).unwrap();
            if rng.random_bool(0.7) {
                let vn = vnodes[rng.random_range(0..vnodes.len())];
                b.add_coupling_cap(node, vn, rng.random_range(2e-15..40e-15)).unwrap();
            }
            ap = node;
        }
        b.add_sink(ap, rng.random_range(2e-15..30e-15)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn matches_dense_engine_on_random_networks() {
        let mut rng = StdRng::seed_from_u64(0x7e3e);
        for case in 0..100 {
            let net = random_coupled_tree(&mut rng);
            let dense = MomentEngine::new(&net).unwrap();
            let fast = TreeMomentEngine::new(&net);
            for (src, _) in net.nets() {
                let hd = dense.transfer_taylor(src, net.victim_output(), 5).unwrap();
                let hf = fast.transfer_taylor(src, net.victim_output(), 5).unwrap();
                for k in 0..5 {
                    assert!(
                        (hd[k] - hf[k]).abs() <= 1e-9 * hd[k].abs().max(1e-40),
                        "case {case} h[{k}]: dense {} vs tree {}",
                        hd[k],
                        hf[k]
                    );
                }
            }
        }
    }

    #[test]
    fn dc_solution_is_indicator_of_driven_net() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = random_coupled_tree(&mut rng);
        let fast = TreeMomentEngine::new(&net);
        let agg = net.aggressor_nets().next().unwrap().0;
        let m = fast.moment_vectors(agg, 1).unwrap();
        for (id, info) in net.nets() {
            let expect = if id == agg { 1.0 } else { 0.0 };
            for &node in info.nodes() {
                assert!(
                    (m[0][node.index()] - expect).abs() < 1e-12,
                    "node {node} of {id}"
                );
            }
        }
    }

    #[test]
    fn zero_order_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = random_coupled_tree(&mut rng);
        let fast = TreeMomentEngine::new(&net);
        assert!(matches!(
            fast.moment_vectors(net.victim(), 0),
            Err(MomentError::ZeroOrder)
        ));
    }

    #[test]
    fn scales_to_thousands_of_nodes() {
        // A 4000-node pair of coupled chains: far beyond what the dense
        // engine could factor in reasonable test time.
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let mut vp = b.add_node(v, "v0");
        let mut ap = b.add_node(a, "a0");
        b.add_driver(v, vp, 200.0).unwrap();
        b.add_driver(a, ap, 200.0).unwrap();
        let n = 2000;
        for i in 1..=n {
            let vn = b.add_node(v, format!("v{i}"));
            let an = b.add_node(a, format!("a{i}"));
            b.add_resistor(vp, vn, 1.0).unwrap();
            b.add_resistor(ap, an, 1.0).unwrap();
            b.add_ground_cap(vn, 0.5e-15).unwrap();
            b.add_ground_cap(an, 0.5e-15).unwrap();
            b.add_coupling_cap(an, vn, 0.8e-15).unwrap();
            vp = vn;
            ap = an;
        }
        b.add_sink(vp, 10e-15).unwrap();
        b.add_sink(ap, 10e-15).unwrap();
        b.set_victim_output(vp);
        let net = b.build().unwrap();

        let fast = TreeMomentEngine::new(&net);
        let agg = net.aggressor_nets().next().unwrap().0;
        let h = fast.transfer_taylor(agg, net.victim_output(), 4).unwrap();
        // a1 equals the closed form on this monster too.
        let a1 = crate::tree::coupling_a1(&net, agg, net.victim_output());
        assert!((h[1] - a1).abs() < 1e-9 * a1);
    }
}
