//! Incrementally-repairable tree moment engine.
//!
//! [`TreeMomentEngine`] recomputes every moment
//! vector from scratch on each call — `O(order · (n + k))` over the whole
//! network. Inside a what-if loop (move one wire, resize one driver) that
//! is pure waste: the conductance matrix is block-diagonal per net, so a
//! value change on net *B* can only perturb
//!
//! * the `G`-solve of *B*'s own block (driver or wire resistance), and
//! * the `−C·m_{k−1}` right-hand sides whose *rows* live on *B* (its own
//!   capacitors), which in turn feed nets coupled to *B* at the next
//!   moment order.
//!
//! [`IncrTreeEngine`] owns a tree engine, caches the full moment
//! vectors per driven (source) net, and on [`IncrTreeEngine::refresh`]
//! diffs element *values* against the network (topology is frozen —
//! the [`xtalk_circuit::Delta`] contract). A subsequent query repairs
//! only the dirty blocks per moment order using the propagation
//!
//! ```text
//! dirty₀ = {src} if the source driver changed, else ∅
//! dirtyₖ = dirtyₖ₋₁ ∪ N(dirtyₖ₋₁) ∪ gdirty ∪ cdirty      (k ≥ 1)
//! ```
//!
//! where `N(·)` is coupling adjacency, `gdirty` marks nets whose
//! conductances changed and `cdirty` nets whose capacitor rows changed.
//! Clean blocks are reused verbatim.
//!
//! **Bit-identity.** Fresh caches and per-block repairs both run the
//! kernel of the owned [`TreeMomentEngine`]:
//! a fresh cache is its whole recursion, and a repair re-solves single
//! net blocks with the same per-net solve. That solve never
//! crosses nets (parent links stay within a net), and the repair's rhs
//! accumulation preserves the per-row relative order of `C` entries. So
//! a repaired cache is bit-identical to a from-scratch recompute — the
//! property the `incremental` audit family enforces end to end. The
//! dirty sets are conservative supersets; recomputing a block whose
//! inputs did not change reproduces the identical bits.

use crate::{MomentError, TreeMomentEngine};
use std::collections::HashMap;
use xtalk_circuit::{NetId, Network, NodeId};

/// Moment-block repair statistics for one engine (monotonic totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Per-net moment blocks recomputed (full builds and repairs).
    pub blocks_recomputed: u64,
    /// Per-net moment blocks reused verbatim from cache during repair.
    pub blocks_reused: u64,
    /// `refresh` calls that found at least one changed value.
    pub refreshes_dirty: u64,
    /// `refresh` calls that found nothing changed.
    pub refreshes_clean: u64,
}

/// Cache-carrying wrapper of a [`crate::TreeMomentEngine`] that
/// repairs its moment vectors after value-only network edits instead of
/// recomputing them (see the [module docs](self) for the invalidation
/// rule and the bit-identity argument).
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
/// let before = incr.transfer_taylor(a, network.victim_output())?;
///
/// network.apply_delta(&Delta::SetCouplingCap { index: 0, farads: 30e-15 })?;
/// incr.refresh(&network);
/// let after = incr.transfer_taylor(a, network.victim_output())?;
///
/// // Repaired answer is bit-identical to a from-scratch recompute.
/// let full = TreeMomentEngine::new(&network)
///     .transfer_taylor(a, network.victim_output(), 4)?;
/// assert!(after.iter().zip(&full).all(|(x, y)| x.to_bits() == y.to_bits()));
/// assert!(before[1] < after[1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IncrTreeEngine {
    /// The tree engine whose kernel computes fresh caches and repairs;
    /// `refresh` keeps its values current.
    tree: TreeMomentEngine,
    moment_order: usize,
    /// Per node: owning-net index.
    node_net: Vec<usize>,
    /// The tree engine's capacitance triplets grouped by *row* net,
    /// relative order preserved.
    net_c_entries: Vec<Vec<(usize, usize, f64)>>,
    /// Coupling adjacency over nets (sorted, deduplicated).
    net_neighbors: Vec<Vec<usize>>,
    /// Cached moment vectors per driven (source) net.
    cache: HashMap<usize, Vec<Vec<f64>>>,
    /// Nets whose conductances (driver or wire R) changed since repair.
    gdirty: Vec<bool>,
    cdirty: Vec<bool>,
    any_dirty: bool,
    stats: IncrStats,
}

impl IncrTreeEngine {
    /// Builds the traversal structures; no moments are computed until
    /// the first query (demand-driven).
    ///
    /// # Panics
    ///
    /// Panics when `moment_order == 0`; at least `h0` is required.
    #[must_use]
    pub fn new(network: &Network, moment_order: usize) -> Self {
        assert!(moment_order > 0, "taylor order must be at least 1");
        let _span = xtalk_obs::span!("moments.incr_build");
        let tree = TreeMomentEngine::new(network);
        let num_nets = tree.net_count();
        let mut node_net = vec![0usize; tree.node_count()];
        for (net, &(start, end)) in tree.net_ranges.iter().enumerate() {
            for &node in &tree.order[start..end] {
                node_net[node] = net;
            }
        }
        let mut net_c_entries = vec![Vec::new(); num_nets];
        for &(i, j, c) in &tree.c_entries {
            net_c_entries[node_net[i]].push((i, j, c));
        }

        let mut net_neighbors = vec![Vec::new(); num_nets];
        for cc in network.coupling_caps() {
            let (na, nb) = (node_net[cc.a.index()], node_net[cc.b.index()]);
            if na != nb {
                net_neighbors[na].push(nb);
                net_neighbors[nb].push(na);
            }
        }
        for nb in &mut net_neighbors {
            nb.sort_unstable();
            nb.dedup();
        }

        IncrTreeEngine {
            tree,
            moment_order,
            node_net,
            net_c_entries,
            net_neighbors,
            cache: HashMap::new(),
            gdirty: vec![false; num_nets],
            cdirty: vec![false; num_nets],
            any_dirty: false,
            stats: IncrStats::default(),
        }
    }

    /// Diffs element values against `network` (same topology — the
    /// [`xtalk_circuit::Delta`] contract) and marks the touched nets
    /// dirty. Cached moments are repaired lazily on the next query.
    /// Returns `true` when at least one value changed.
    ///
    /// # Panics
    ///
    /// Panics if the network's node or net count differs from the one
    /// the engine was built on (a topology change, which deltas never
    /// produce).
    pub fn refresh(&mut self, network: &Network) -> bool {
        assert_eq!(
            network.node_count(),
            self.tree.node_count(),
            "topology changed under engine"
        );
        assert_eq!(network.net_count(), self.tree.net_count());
        let mut changed = false;
        for (id, net) in network.nets() {
            let k = id.index();
            let ohms = net.driver().ohms;
            if ohms.to_bits() != self.tree.driver_ohms[k].to_bits() {
                self.tree.driver_ohms[k] = ohms;
                self.gdirty[k] = true;
                changed = true;
            }
            let tree = network.tree(id);
            for &node in tree.order() {
                if let Some((_, r)) = tree.parent(node) {
                    if r.to_bits() != self.tree.parent_res[node.index()].to_bits() {
                        self.tree.parent_res[node.index()] = r;
                        self.gdirty[k] = true;
                        changed = true;
                    }
                }
            }
        }

        // Walk the C triplets in their construction order against the
        // network's current values.
        let mut idx = 0usize;
        let mut diff_c = |entries: &mut [(usize, usize, f64)],
                          cdirty: &mut [bool],
                          node_net: &[usize],
                          value: f64| {
            let (row, _, stored) = &mut entries[idx];
            if value.to_bits() != stored.to_bits() {
                *stored = value;
                cdirty[node_net[*row]] = true;
                changed = true;
            }
            idx += 1;
        };
        let entries = &mut self.tree.c_entries;
        for gc in network.ground_caps() {
            diff_c(entries, &mut self.cdirty, &self.node_net, gc.farads);
        }
        for (_, net) in network.nets() {
            for s in net.sinks() {
                diff_c(entries, &mut self.cdirty, &self.node_net, s.farads);
            }
        }
        for cc in network.coupling_caps() {
            diff_c(entries, &mut self.cdirty, &self.node_net, cc.farads);
            diff_c(entries, &mut self.cdirty, &self.node_net, cc.farads);
            diff_c(entries, &mut self.cdirty, &self.node_net, -cc.farads);
            diff_c(entries, &mut self.cdirty, &self.node_net, -cc.farads);
        }
        assert_eq!(idx, entries.len(), "capacitor table changed shape");

        if changed {
            // Regroup only the rows of nets whose C values moved.
            for k in 0..self.net_c_entries.len() {
                if self.cdirty[k] {
                    self.net_c_entries[k].clear();
                }
            }
            for &(i, j, c) in entries.iter() {
                if self.cdirty[self.node_net[i]] {
                    self.net_c_entries[self.node_net[i]].push((i, j, c));
                }
            }
            self.any_dirty = true;
            self.stats.refreshes_dirty += 1;
        } else {
            self.stats.refreshes_clean += 1;
        }
        changed
    }

    /// Taylor coefficients `h_0 … h_{order−1}` of the transfer function
    /// from the source of `net` to `output`, served from the
    /// per-source-net cache (repaired first when dirty).
    ///
    /// # Errors
    ///
    /// Currently infallible for validated networks; the `Result` mirrors
    /// [`crate::TreeMomentEngine::transfer_taylor`] so callers can treat
    /// the engines interchangeably.
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of bounds.
    pub fn transfer_taylor(&mut self, net: NetId, output: NodeId) -> Result<Vec<f64>, MomentError> {
        let vectors = self.moment_vectors(net)?;
        Ok(vectors.iter().map(|m| m[output.index()]).collect())
    }

    /// The cached moment vectors for driven net `net`, computing or
    /// repairing as needed. Same contract as
    /// [`crate::TreeMomentEngine::moment_vectors`] at the order fixed in
    /// [`IncrTreeEngine::new`].
    ///
    /// # Errors
    ///
    /// Currently infallible for validated networks (see
    /// [`IncrTreeEngine::transfer_taylor`]).
    pub fn moment_vectors(&mut self, net: NetId) -> Result<&[Vec<f64>], MomentError> {
        if self.any_dirty {
            self.repair_all();
        }
        let src = net.index();
        if !self.cache.contains_key(&src) {
            let vectors = self.tree.recursion(src, self.moment_order);
            self.stats.blocks_recomputed += (self.moment_order * self.tree.net_count()) as u64;
            self.cache.insert(src, vectors);
        }
        Ok(self.cache.get(&src).expect("just inserted"))
    }

    /// Monotonic repair statistics.
    #[must_use]
    pub fn stats(&self) -> IncrStats {
        self.stats
    }

    /// Repairs every cached source net against the accumulated dirty
    /// flags, then clears them.
    fn repair_all(&mut self) {
        let _span = xtalk_obs::span!("moments.incr_repair");
        let num_nets = self.tree.net_count();
        let sources: Vec<usize> = self.cache.keys().copied().collect();
        let mut recomputed = 0u64;
        let mut reused = 0u64;
        for src in sources {
            let mut vectors = self.cache.remove(&src).expect("listed source");
            // m0 depends only on the source net's driver (R·(1/R) is not
            // always exactly 1.0), so its sole non-zero block is dirty
            // iff that net's conductances changed.
            let mut dirty_prev = vec![false; num_nets];
            if self.gdirty[src] {
                self.tree.solve_source(src, &mut vectors[0]);
                dirty_prev[src] = true;
                recomputed += 1;
                reused += (num_nets - 1) as u64;
            } else {
                reused += num_nets as u64;
            }
            for k in 1..self.moment_order {
                let mut dirty = self.gdirty.clone();
                for b in 0..num_nets {
                    if self.cdirty[b] || dirty_prev[b] {
                        dirty[b] = true;
                    }
                    if dirty_prev[b] {
                        for &nb in &self.net_neighbors[b] {
                            dirty[nb] = true;
                        }
                    }
                }
                let (prev, rest) = vectors.split_at_mut(k);
                let prev = &prev[k - 1];
                let cur = &mut rest[0];
                #[allow(clippy::needless_range_loop)]
                for b in 0..num_nets {
                    if !dirty[b] {
                        reused += 1;
                        continue;
                    }
                    recomputed += 1;
                    // The block's rhs −C·m_{k−1} is accumulated in place
                    // and then solved.
                    let (s, e) = self.tree.net_ranges[b];
                    for &node in &self.tree.order[s..e] {
                        cur[node] = 0.0;
                    }
                    for &(i, j, c) in &self.net_c_entries[b] {
                        cur[i] -= c * prev[j];
                    }
                    self.tree.solve_net(b, cur);
                }
                dirty_prev = dirty;
            }
            self.cache.insert(src, vectors);
        }
        self.stats.blocks_recomputed += recomputed;
        self.stats.blocks_reused += reused;
        xtalk_obs::counter!(perf: "incr.moments.blocks.recomputed").add(recomputed);
        xtalk_obs::counter!(perf: "incr.moments.blocks.reused").add(reused);
        self.gdirty.fill(false);
        self.cdirty.fill(false);
        self.any_dirty = false;
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
                let hi = incr.transfer_taylor(src, net.victim_output()).unwrap();
                assert_bits_eq(&hr, &hi, "fresh");
            }
        }
    }

    #[test]
    fn repair_after_each_delta_kind_is_bit_identical_to_full() {
        let mut net = chain_cluster(4, 4);
        let victim = net.victim();
        let sink_node = net.net(victim).sinks()[0].node;
        let mut incr = IncrTreeEngine::new(&net, 4);
        let sources: Vec<_> = net.nets().map(|(id, _)| id).collect();
        for &s in &sources {
            incr.transfer_taylor(s, net.victim_output()).unwrap();
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
            assert!(incr.refresh(&net), "{d} should dirty the engine");
            let reference = TreeMomentEngine::new(&net);
            for &s in &sources {
                let hr = reference
                    .transfer_taylor(s, net.victim_output(), 4)
                    .unwrap();
                let hi = incr.transfer_taylor(s, net.victim_output()).unwrap();
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
            if !undo.is_empty() && rng.random_bool(0.3) {
                let d: Delta = undo.pop().unwrap();
                net.apply_delta(&d).unwrap();
            } else {
                let d = match rng.random_range(0..3) {
                    0 => Delta::ResizeDriver {
                        net: sources[rng.random_range(0..sources.len())],
                        ohms: rng.random_range(40.0..400.0),
                    },
                    1 => Delta::SetCouplingCap {
                        index: rng.random_range(0..net.coupling_caps().len()),
                        farads: rng.random_range(1e-15..20e-15),
                    },
                    _ => Delta::SetResistor {
                        index: rng.random_range(0..net.resistors().len()),
                        ohms: rng.random_range(5.0..80.0),
                    },
                };
                undo.push(net.apply_delta(&d).unwrap());
            }
            incr.refresh(&net);
            let reference = TreeMomentEngine::new(&net);
            for &s in &sources {
                let hr = reference
                    .transfer_taylor(s, net.victim_output(), 4)
                    .unwrap();
                let hi = incr.transfer_taylor(s, net.victim_output()).unwrap();
                assert_bits_eq(&hr, &hi, &format!("step {step}"));
            }
        }
    }

    #[test]
    fn distant_edit_reuses_most_blocks() {
        // 8-lane chain: an edit on lane 7's driver cannot reach lane 0's
        // block before moment order runs out, so most blocks are reused.
        let mut net = chain_cluster(8, 3);
        let far = net.nets().last().unwrap().0;
        let mut incr = IncrTreeEngine::new(&net, 4);
        let victim = net.victim();
        incr.transfer_taylor(victim, net.victim_output()).unwrap();
        let before = incr.stats();
        net.apply_delta(&Delta::ResizeDriver { net: far, ohms: 500.0 }).unwrap();
        incr.refresh(&net);
        incr.transfer_taylor(victim, net.victim_output()).unwrap();
        let after = incr.stats();
        let recomputed = after.blocks_recomputed - before.blocks_recomputed;
        let reused = after.blocks_reused - before.blocks_reused;
        assert!(reused > recomputed, "reused {reused} vs recomputed {recomputed}");
        // Lane 7 dirty at k=1 spreads one lane per order: blocks 7,{6,7},{5..7}
        // plus m0's reuse of all 8 — well under half recomputed.
        assert!(recomputed <= 7, "recomputed {recomputed}");
    }

    #[test]
    fn clean_refresh_touches_nothing() {
        let net = chain_cluster(3, 3);
        let mut incr = IncrTreeEngine::new(&net, 4);
        incr.transfer_taylor(net.victim(), net.victim_output()).unwrap();
        let before = incr.stats();
        assert!(!incr.refresh(&net));
        incr.transfer_taylor(net.victim(), net.victim_output()).unwrap();
        let after = incr.stats();
        assert_eq!(before.blocks_recomputed, after.blocks_recomputed);
        assert_eq!(after.refreshes_clean, before.refreshes_clean + 1);
    }

    #[test]
    #[should_panic(expected = "taylor order must be at least 1")]
    fn zero_order_panics() {
        let net = chain_cluster(2, 2);
        let _ = IncrTreeEngine::new(&net, 0);
    }
}
