//! What-if moment engine: a tree engine whose values follow value edits.
//!
//! A what-if loop (move one wire, resize one driver) edits one element
//! value and re-queries the few views the edit reaches.
//! [`IncrTreeEngine`] owns a [`TreeMomentEngine`] and on
//! [`IncrTreeEngine::update`] writes one [`xtalk_circuit::Delta`]'s value
//! into the one slot it names (topology is frozen — the delta contract):
//! the net's driver ohms, the parent resistance of the resistor's child
//! node, or the capacitor's stamps in the `C` triplets (one for a ground
//! or sink cap, four for a coupling cap). Slot maps built with the engine
//! find each slot without a search, so an update costs the same on any
//! network; the build checks once that the tree engine's triplets are
//! laid out as the maps assume.
//!
//! **Bit-identity.** Every query re-runs the tree engine's moment
//! recursion from the source, refilling one scratch buffer the engine
//! keeps between queries. A slot write stores exactly the value a
//! rebuild would read from the edited network, so a query runs the float
//! operations of a from-scratch [`TreeMomentEngine`] on that network and
//! returns its bits — the property the `incremental` audit family
//! enforces end to end.

use crate::TreeMomentEngine;
use xtalk_circuit::{Delta, NetId, Network, NodeId};

/// A [`crate::TreeMomentEngine`] that takes value-only network edits in
/// place and recomputes moments per query into a reused buffer (see the
/// [module docs](self) for the slot maps and the bit-identity argument).
///
/// # Examples
///
/// ```
/// use xtalk_circuit::{Delta, NetRole, NetworkBuilder};
/// use xtalk_moments::{IncrTreeEngine, TreeMomentEngine};
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
/// let mut network = b.build()?;
///
/// let mut incr = IncrTreeEngine::new(&network, 4);
/// let before = incr.transfer_taylor(a, network.victim_output());
///
/// let delta = Delta::SetCouplingCap { index: 0, farads: 30e-15 };
/// network.apply_delta(&delta)?;
/// incr.update(&delta);
/// let after = incr.transfer_taylor(a, network.victim_output());
///
/// // The edited engine answers bit for bit as a fresh build does.
/// let full = TreeMomentEngine::new(&network)
///     .transfer_taylor(a, network.victim_output(), 4)?;
/// assert!(after.iter().zip(&full).all(|(x, y)| x.to_bits() == y.to_bits()));
/// assert!(before[1] < after[1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IncrTreeEngine {
    /// The tree engine whose recursion answers every query; `update`
    /// keeps its values current.
    tree: TreeMomentEngine,
    /// Per resistor: the node whose parent edge it is.
    res_child: Vec<usize>,
    /// Per node: the `C` triplet of its first sink, if it has one.
    sink_slot: Vec<Option<usize>>,
    /// The first of the four `C` triplets of coupling cap 0.
    coupling_slot: usize,
    /// `m_0 … m_{order−1}` of the last query, refilled by every query.
    moments: Vec<Vec<f64>>,
}

impl IncrTreeEngine {
    /// Builds the tree engine and the slot maps; no moments are computed
    /// until the first query.
    ///
    /// # Panics
    ///
    /// Panics when `moment_order == 0`; at least `h0` is required. Also
    /// panics if the tree engine's capacitor triplets are not laid out
    /// as the slot maps assume (a bug, not an input error).
    #[must_use]
    pub fn new(network: &Network, moment_order: usize) -> Self {
        assert!(moment_order > 0, "taylor order must be at least 1");
        let _span = xtalk_obs::span!("moments.incr_build");
        let tree = TreeMomentEngine::new(network);

        // A resistor is the parent edge of whichever endpoint hangs
        // below the other.
        let res_child = network
            .resistors()
            .iter()
            .map(|r| {
                let (a, b) = (r.a.index(), r.b.index());
                if tree.parent[b] == a {
                    b
                } else {
                    a
                }
            })
            .collect();
        // The slots assume the tree engine's triplet layout: the ground
        // caps, then the sinks net by net, then the stamps
        // `(a,a) (b,b) (a,b) (b,a)` of each coupling cap. Check it once
        // per build, so that a changed layout panics here instead of
        // letting `update` write the wrong triplet.
        let c = &tree.c_entries;
        let stamp = |slot: usize, i: usize, j: usize| {
            assert!(
                c.get(slot).is_some_and(|e| (e.0, e.1) == (i, j)),
                "capacitor table changed layout: triplet {slot} is not ({i},{j})"
            );
        };
        for (slot, gc) in network.ground_caps().iter().enumerate() {
            stamp(slot, gc.node.index(), gc.node.index());
        }
        // A delta names the first sink at its node.
        let mut slot = network.ground_caps().len();
        let mut sink_slot = vec![None; tree.node_count()];
        for s in network.nets().flat_map(|(_, net)| net.sinks()) {
            let node = s.node.index();
            stamp(slot, node, node);
            sink_slot[node].get_or_insert(slot);
            slot += 1;
        }
        let coupling_slot = slot;
        for cc in network.coupling_caps() {
            let (a, b) = (cc.a.index(), cc.b.index());
            for (i, j) in [(a, a), (b, b), (a, b), (b, a)] {
                stamp(slot, i, j);
                slot += 1;
            }
        }
        assert_eq!(slot, c.len(), "capacitor table changed layout");

        let moments = vec![vec![0.0; tree.node_count()]; moment_order];
        IncrTreeEngine {
            tree,
            res_child,
            sink_slot,
            coupling_slot,
            moments,
        }
    }

    /// Writes `delta`'s value into the slot it names. `delta` must
    /// already have been accepted by the engine's network
    /// ([`Network::apply_delta`]), so the engine and the network keep
    /// equal values.
    ///
    /// # Panics
    ///
    /// Panics if the delta names an element the network does not have
    /// (for a sink, a node without one).
    pub fn update(&mut self, delta: &Delta) {
        let tree = &mut self.tree;
        match *delta {
            Delta::ResizeDriver { net, ohms } => tree.driver_ohms[net.index()] = ohms,
            Delta::SetResistor { index, ohms } => tree.parent_res[self.res_child[index]] = ohms,
            Delta::SetGroundCap { index, farads } => tree.c_entries[index].2 = farads,
            Delta::SetSinkCap { node, farads } => {
                let slot = self.sink_slot[node.index()].expect("the delta names a sink node");
                tree.c_entries[slot].2 = farads;
            }
            Delta::SetCouplingCap { index, farads } => {
                // The four stamps `(a,a) (b,b) (a,b) (b,a)` of one cap.
                let slot = self.coupling_slot + 4 * index;
                let stamps = [farads, farads, -farads, -farads];
                for (entry, value) in tree.c_entries[slot..slot + 4].iter_mut().zip(stamps) {
                    entry.2 = value;
                }
            }
        }
    }

    /// Taylor coefficients `h_0 … h_{order−1}` of the transfer function
    /// from the source of `net` to `output`, at the order fixed in
    /// [`IncrTreeEngine::new`]. Like a fresh build, the engine does not
    /// check the coefficients' finiteness; callers that need finite
    /// moments check them.
    ///
    /// # Panics
    ///
    /// Panics if `net` or `output` is out of bounds.
    pub fn transfer_taylor(&mut self, net: NetId, output: NodeId) -> Vec<f64> {
        self.tree.recursion(net.index(), &mut self.moments);
        self.moments.iter().map(|m| m[output.index()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeMomentEngine;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xtalk_circuit::{Delta, NetRole, NetworkBuilder};

    /// A chain-coupled cluster: `lanes` parallel wires of `segs` RC
    /// segments each, lane 0 the victim, each lane coupled to the next.
    fn chain_cluster(lanes: usize, segs: usize) -> Network {
        let mut b = NetworkBuilder::new();
        let mut last = Vec::new();
        let mut lane_nodes = Vec::new();
        for l in 0..lanes {
            let role = if l == 0 { NetRole::Victim } else { NetRole::Aggressor };
            let net = b.add_net(format!("n{l}"), role);
            let mut prev = b.add_node(net, format!("l{l}_0"));
            b.add_driver(net, prev, 80.0 + 7.0 * l as f64).unwrap();
            let mut nodes = vec![prev];
            for i in 1..=segs {
                let node = b.add_node(net, format!("l{l}_{i}"));
                b.add_resistor(prev, node, 12.0 + i as f64).unwrap();
                b.add_ground_cap(node, (3.0 + 0.1 * i as f64) * 1e-15).unwrap();
                nodes.push(node);
                prev = node;
            }
            b.add_sink(prev, 9e-15).unwrap();
            if l == 0 {
                b.set_victim_output(prev);
            }
            last.push(prev);
            lane_nodes.push(nodes);
        }
        for l in 1..lanes {
            #[allow(clippy::needless_range_loop)]
            for i in 1..=segs {
                b.add_coupling_cap(lane_nodes[l - 1][i], lane_nodes[l][i], 5e-15)
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    /// The engine's value tables equal those of an engine built fresh on
    /// `net`: what the update must keep true after every delta.
    fn assert_tables_match(incr: &IncrTreeEngine, net: &Network) {
        let fresh = IncrTreeEngine::new(net, incr.moments.len());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&incr.tree.driver_ohms), bits(&fresh.tree.driver_ohms));
        assert_eq!(bits(&incr.tree.parent_res), bits(&fresh.tree.parent_res));
        let triplets = |v: &[(usize, usize, f64)]| {
            v.iter()
                .map(|&(i, j, c)| (i, j, c.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            triplets(&incr.tree.c_entries),
            triplets(&fresh.tree.c_entries)
        );
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len());
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: h[{k}] differs: {x:e} vs {y:e}"
            );
        }
    }

    #[test]
    fn fresh_compute_is_bit_identical_to_tree_engine() {
        for (lanes, segs) in [(2, 3), (4, 5), (6, 2)] {
            let net = chain_cluster(lanes, segs);
            let reference = TreeMomentEngine::new(&net);
            let mut incr = IncrTreeEngine::new(&net, 4);
            for (src, _) in net.nets() {
                let hr = reference
                    .transfer_taylor(src, net.victim_output(), 4)
                    .unwrap();
                let hi = incr.transfer_taylor(src, net.victim_output());
                assert_bits_eq(&hr, &hi, "fresh");
            }
        }
    }

    #[test]
    fn update_of_each_delta_kind_is_bit_identical_to_full() {
        let mut net = chain_cluster(4, 4);
        let victim = net.victim();
        let sink_node = net.net(victim).sinks()[0].node;
        let mut incr = IncrTreeEngine::new(&net, 4);
        let sources: Vec<_> = net.nets().map(|(id, _)| id).collect();
        for &s in &sources {
            incr.transfer_taylor(s, net.victim_output());
        }
        let deltas = [
            Delta::ResizeDriver { net: victim, ohms: 133.0 },
            Delta::SetSinkCap { node: sink_node, farads: 11e-15 },
            Delta::SetCouplingCap { index: 2, farads: 8e-15 },
            Delta::SetResistor { index: 5, ohms: 44.0 },
            Delta::SetGroundCap { index: 3, farads: 2e-15 },
        ];
        for d in deltas {
            net.apply_delta(&d).unwrap();
            incr.update(&d);
            assert_tables_match(&incr, &net);
            let reference = TreeMomentEngine::new(&net);
            for &s in &sources {
                let hr = reference
                    .transfer_taylor(s, net.victim_output(), 4)
                    .unwrap();
                let hi = incr.transfer_taylor(s, net.victim_output());
                assert_bits_eq(&hr, &hi, "after delta");
            }
        }
    }

    #[test]
    fn random_delta_revert_sequences_stay_bit_identical() {
        let mut rng = StdRng::seed_from_u64(0x1234);
        let mut net = chain_cluster(5, 3);
        let mut incr = IncrTreeEngine::new(&net, 4);
        let sources: Vec<_> = net.nets().map(|(id, _)| id).collect();
        let mut undo = Vec::new();
        for step in 0..60 {
            let d = if !undo.is_empty() && rng.random_bool(0.3) {
                let d: Delta = undo.pop().unwrap();
                net.apply_delta(&d).unwrap();
                d
            } else {
                let d = match rng.random_range(0..5) {
                    0 => Delta::ResizeDriver {
                        net: sources[rng.random_range(0..sources.len())],
                        ohms: rng.random_range(40.0..400.0),
                    },
                    1 => Delta::SetCouplingCap {
                        index: rng.random_range(0..net.coupling_caps().len()),
                        farads: rng.random_range(1e-15..20e-15),
                    },
                    2 => Delta::SetResistor {
                        index: rng.random_range(0..net.resistors().len()),
                        ohms: rng.random_range(5.0..80.0),
                    },
                    3 => Delta::SetGroundCap {
                        index: rng.random_range(0..net.ground_caps().len()),
                        farads: rng.random_range(1e-15..6e-15),
                    },
                    _ => {
                        let lane = sources[rng.random_range(0..sources.len())];
                        Delta::SetSinkCap {
                            node: net.net(lane).sinks()[0].node,
                            farads: rng.random_range(2e-15..20e-15),
                        }
                    }
                };
                undo.push(net.apply_delta(&d).unwrap());
                d
            };
            incr.update(&d);
            assert_tables_match(&incr, &net);
            // A freshly drawn query order per step, so one source's
            // moments left in the shared scratch buffer cannot pass for
            // another's.
            let mut order = sources.clone();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
            let reference = TreeMomentEngine::new(&net);
            for &s in &order {
                let hr = reference
                    .transfer_taylor(s, net.victim_output(), 4)
                    .unwrap();
                let hi = incr.transfer_taylor(s, net.victim_output());
                assert_bits_eq(&hr, &hi, &format!("step {step}, source {s}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "taylor order must be at least 1")]
    fn zero_order_panics() {
        let net = chain_cluster(2, 2);
        let _ = IncrTreeEngine::new(&net, 0);
    }
}
