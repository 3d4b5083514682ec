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
//! vectors per driven (source) net, and on [`IncrTreeEngine::update`]
//! writes one [`xtalk_circuit::Delta`]'s value into the one slot it
//! names (topology is frozen — the delta contract): the net's driver
//! ohms, the parent resistance of the resistor's child node, or the
//! capacitor's stamps in the `C` triplets (one for a ground or sink cap,
//! four for a coupling cap) and their row-grouped copies. Slot maps
//! built with the engine find each slot without a search, so an update
//! costs the same on any network; the build checks once that the tree
//! engine's triplets are laid out as the maps assume. A subsequent
//! query repairs only the dirty blocks per moment order using the
//! propagation
//!
//! ```text
//! dirty₀ = {src} if the source driver changed, else ∅
//! dirtyₖ = dirtyₖ₋₁ ∪ N(dirtyₖ₋₁) ∪ gdirty ∪ cdirty      (k ≥ 1)
//! ```
//!
//! where `N(·)` is coupling adjacency, `gdirty` marks nets whose
//! conductances changed and `cdirty` nets whose capacitor rows changed.
//! A value written with the bits already stored marks nothing. Clean
//! blocks are reused verbatim.
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
use xtalk_circuit::{Delta, NetId, Network, NodeId};

/// Moment-block repair statistics for one engine (monotonic totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Per-net moment blocks recomputed (full builds and repairs).
    pub blocks_recomputed: u64,
    /// Per-net moment blocks reused verbatim from cache during repair.
    pub blocks_reused: u64,
    /// `update` calls that changed at least one stored value.
    pub updates_dirty: u64,
    /// `update` calls that wrote the bits already stored.
    pub updates_clean: u64,
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
/// let delta = Delta::SetCouplingCap { index: 0, farads: 30e-15 };
/// network.apply_delta(&delta)?;
/// incr.update(&delta);
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
    /// `update` keeps its values current.
    tree: TreeMomentEngine,
    moment_order: usize,
    /// Per node: owning-net index.
    node_net: Vec<usize>,
    /// The tree engine's capacitance triplets grouped by *row* net,
    /// relative order preserved.
    net_c_entries: Vec<Vec<(usize, usize, f64)>>,
    /// Per `C` triplet: its position in its row net's `net_c_entries`.
    c_pos: Vec<usize>,
    /// Per resistor: the node whose parent edge it is.
    res_child: Vec<usize>,
    /// Per node: the `C` triplet of its first sink, if it has one.
    sink_slot: Vec<Option<usize>>,
    /// The first of the four `C` triplets of coupling cap 0.
    coupling_slot: usize,
    /// Coupling adjacency over nets (sorted, deduplicated).
    net_neighbors: Vec<Vec<usize>>,
    /// Cached moment vectors per driven (source) net.
    cache: Vec<Option<Vec<Vec<f64>>>>,
    /// Nets whose conductances (driver or wire R) changed since repair.
    gdirty: Vec<bool>,
    cdirty: Vec<bool>,
    any_dirty: bool,
    stats: IncrStats,
}

impl IncrTreeEngine {
    /// Builds the traversal structures and slot maps; no moments are
    /// computed until the first query (demand-driven).
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
        let num_nets = tree.net_count();
        let mut node_net = vec![0usize; tree.node_count()];
        for (net, &(start, end)) in tree.net_ranges.iter().enumerate() {
            for &node in &tree.order[start..end] {
                node_net[node] = net;
            }
        }
        let mut net_c_entries = vec![Vec::new(); num_nets];
        let mut c_pos = Vec::with_capacity(tree.c_entries.len());
        for &(i, j, c) in &tree.c_entries {
            let row = &mut net_c_entries[node_net[i]];
            c_pos.push(row.len());
            row.push((i, j, c));
        }

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
            c_pos,
            res_child,
            sink_slot,
            coupling_slot,
            net_neighbors,
            cache: vec![None; num_nets],
            gdirty: vec![false; num_nets],
            cdirty: vec![false; num_nets],
            any_dirty: false,
            stats: IncrStats::default(),
        }
    }

    /// Writes `delta`'s value into the slot it names and marks the
    /// touched nets dirty; cached moments are repaired lazily on the
    /// next query. `delta` must already have been accepted by the
    /// engine's network ([`Network::apply_delta`]), so the engine and
    /// the network keep equal values. Returns `true` when a stored
    /// value changed (its bits differ from the new value's).
    ///
    /// # Panics
    ///
    /// Panics if the delta names an element the network does not have
    /// (for a sink, a node without one).
    pub fn update(&mut self, delta: &Delta) -> bool {
        let changed = match *delta {
            Delta::ResizeDriver { net, ohms } => {
                let k = net.index();
                let changed = replace(&mut self.tree.driver_ohms[k], ohms);
                self.gdirty[k] |= changed;
                changed
            }
            Delta::SetResistor { index, ohms } => {
                let node = self.res_child[index];
                let changed = replace(&mut self.tree.parent_res[node], ohms);
                self.gdirty[self.node_net[node]] |= changed;
                changed
            }
            Delta::SetGroundCap { index, farads } => self.set_c(index, farads),
            Delta::SetSinkCap { node, farads } => {
                let slot = self.sink_slot[node.index()].expect("the delta names a sink node");
                self.set_c(slot, farads)
            }
            Delta::SetCouplingCap { index, farads } => {
                // The four stamps `(a,a) (b,b) (a,b) (b,a)` of one cap.
                let slot = self.coupling_slot + 4 * index;
                let mut changed = self.set_c(slot, farads);
                changed |= self.set_c(slot + 1, farads);
                changed |= self.set_c(slot + 2, -farads);
                changed |= self.set_c(slot + 3, -farads);
                changed
            }
        };
        if changed {
            self.any_dirty = true;
            self.stats.updates_dirty += 1;
        } else {
            self.stats.updates_clean += 1;
        }
        changed
    }

    /// Writes `value` into `C` triplet `slot` and its row-grouped copy;
    /// marks the row's net dirty when the bits change.
    fn set_c(&mut self, slot: usize, value: f64) -> bool {
        let (row, _, stored) = &mut self.tree.c_entries[slot];
        if !replace(stored, value) {
            return false;
        }
        let net = self.node_net[*row];
        self.net_c_entries[net][self.c_pos[slot]].2 = value;
        self.cdirty[net] = true;
        true
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
        let (tree, order, stats) = (&self.tree, self.moment_order, &mut self.stats);
        let vectors = self.cache[src].get_or_insert_with(|| {
            stats.blocks_recomputed += (order * tree.net_count()) as u64;
            tree.recursion(src, order)
        });
        Ok(vectors.as_slice())
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
        let mut recomputed = 0u64;
        let mut reused = 0u64;
        let mut dirty_prev = vec![false; num_nets];
        let mut dirty = vec![false; num_nets];
        for (src, cached) in self.cache.iter_mut().enumerate() {
            let Some(vectors) = cached else { continue };
            // m0 depends only on the source net's driver (R·(1/R) is not
            // always exactly 1.0), so its sole non-zero block is dirty
            // iff that net's conductances changed.
            dirty_prev.fill(false);
            if self.gdirty[src] {
                self.tree.solve_source(src, &mut vectors[0]);
                dirty_prev[src] = true;
                recomputed += 1;
                reused += (num_nets - 1) as u64;
            } else {
                reused += num_nets as u64;
            }
            for k in 1..self.moment_order {
                dirty.copy_from_slice(&self.gdirty);
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
                std::mem::swap(&mut dirty_prev, &mut dirty);
            }
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

/// Stores `value` in `slot`; `true` when the stored bits changed.
fn replace(slot: &mut f64, value: f64) -> bool {
    let changed = slot.to_bits() != value.to_bits();
    *slot = value;
    changed
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
        let fresh = IncrTreeEngine::new(net, incr.moment_order);
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
        for (a, b) in incr.net_c_entries.iter().zip(&fresh.net_c_entries) {
            assert_eq!(triplets(a), triplets(b));
        }
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
            assert!(incr.update(&d), "{d} should dirty the engine");
            assert_tables_match(&incr, &net);
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
        let d = Delta::ResizeDriver {
            net: far,
            ohms: 500.0,
        };
        net.apply_delta(&d).unwrap();
        incr.update(&d);
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
    fn clean_update_touches_nothing() {
        let net = chain_cluster(3, 3);
        let mut incr = IncrTreeEngine::new(&net, 4);
        incr.transfer_taylor(net.victim(), net.victim_output())
            .unwrap();
        let before = incr.stats();
        // Every kind, each writing the value already stored.
        let victim = net.net(net.victim());
        let deltas = [
            Delta::ResizeDriver {
                net: net.victim(),
                ohms: victim.driver().ohms,
            },
            Delta::SetSinkCap {
                node: victim.sinks()[0].node,
                farads: victim.sinks()[0].farads,
            },
            Delta::SetResistor {
                index: 1,
                ohms: net.resistors()[1].ohms,
            },
            Delta::SetGroundCap {
                index: 2,
                farads: net.ground_caps()[2].farads,
            },
            Delta::SetCouplingCap {
                index: 0,
                farads: net.coupling_caps()[0].farads,
            },
        ];
        for d in deltas {
            assert!(!incr.update(&d), "{d} rewrites a stored value");
        }
        incr.transfer_taylor(net.victim(), net.victim_output())
            .unwrap();
        let after = incr.stats();
        assert_eq!(before.blocks_recomputed, after.blocks_recomputed);
        assert_eq!(after.updates_clean, before.updates_clean + 5);
        assert_eq!(after.updates_dirty, before.updates_dirty);
    }

    #[test]
    #[should_panic(expected = "taylor order must be at least 1")]
    fn zero_order_panics() {
        let net = chain_cluster(2, 2);
        let _ = IncrTreeEngine::new(&net, 0);
    }
}
