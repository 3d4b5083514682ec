//! Coupled-cluster partitioning of a streamed deck.
//!
//! Full-chip screening needs to analyze every net of a flat extracted
//! deck as a victim in turn, but closed-form metrics only see a victim
//! plus its capacitively coupled aggressors. [`CouplingClusters`]
//! partitions the deck's nets into *coupling islands* — the connected
//! components of the graph whose edges are coupling capacitors — with a
//! union-find sweep over the element table of a
//! [`DeckIndex`](crate::spice::stream::DeckIndex). Nets in different
//! islands interact through no element, so each island can be
//! materialized and analyzed independently (and in parallel) with
//! results bit-identical to a whole-deck analysis.
//!
//! # Examples
//!
//! ```
//! use xtalk_circuit::cluster::CouplingClusters;
//! use xtalk_circuit::spice::stream::{DeckIndex, StreamOptions};
//!
//! // Two coupled pairs: nets {0,1} and {2,3} form separate islands.
//! let deck = "\
//! *! net 0 victim v\n*! net 1 aggressor a\n\
//! *! net 2 aggressor b\n*! net 3 aggressor c\n\
//! RDRV0 s0 n0 100\nRDRV1 s1 n1 100\nRDRV2 s2 n2 100\nRDRV3 s3 n3 100\n\
//! CL0 n0 0 10f\nCL1 n1 0 10f\nCL2 n2 0 10f\nCL3 n3 0 10f\n\
//! CC0 n0 n1 5f\nCC1 n2 n3 5f\n.end\n";
//! let index = DeckIndex::from_reader(deck.as_bytes(), StreamOptions::default())?;
//! let clusters = CouplingClusters::partition(&index);
//! assert_eq!(clusters.len(), 2);
//! assert_eq!(clusters.members(clusters.cluster_of(3).unwrap()), &[2, 3]);
//!
//! // Materialize net 3's island with net 3 as the victim.
//! let network = clusters.victim_network(&index, 3)?;
//! assert_eq!(network.net_count(), 2);
//! # Ok::<(), xtalk_circuit::spice::SpiceParseError>(())
//! ```

use crate::spice::stream::{DeckIndex, NodeUse, Rows};
use crate::spice::SpiceParseError;
use crate::{NetId, Network, NodeId};

/// Union-find parent array with path halving.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins, so representatives are
            // stable regardless of edge order.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// Items grouped by island, CSR style: island `c` holds
/// `items[start[c]..start[c + 1]]`, in input order.
#[derive(Debug, Clone)]
struct Buckets {
    start: Vec<usize>,
    items: Vec<u32>,
}

impl Buckets {
    /// Stable counting sort of `(item, island)` pairs; items in no island
    /// (`None`) are dropped.
    fn new(islands: usize, keyed: impl Iterator<Item = (u32, Option<u32>)>) -> Self {
        let keyed: Vec<(u32, u32)> = keyed.filter_map(|(item, c)| Some((item, c?))).collect();
        let mut start = vec![0usize; islands + 1];
        for &(_, c) in &keyed {
            start[c as usize + 1] += 1;
        }
        for c in 0..islands {
            start[c + 1] += start[c];
        }
        let mut fill = start.clone();
        let mut items = vec![0u32; keyed.len()];
        for (item, c) in keyed {
            items[fill[c as usize]] = item;
            fill[c as usize] += 1;
        }
        Buckets { start, items }
    }

    fn get(&self, c: usize) -> &[u32] {
        &self.items[self.start[c]..self.start[c + 1]]
    }
}

/// The deck's nets partitioned into coupling islands, with every island's
/// nodes and element rows bucketed so that materializing one island
/// costs time in proportion to the island, not the deck.
///
/// Cluster ids are dense, `0..len()`, ordered by each island's smallest
/// member net index; member lists are ascending. Both properties make
/// reports deterministic for any traversal order.
#[derive(Debug, Clone)]
pub struct CouplingClusters {
    cluster_of_net: Vec<u32>,
    members: Buckets,
    /// Owned nodes, name-sorted within each island.
    nodes: Buckets,
    /// Each owned node's position in its island's `nodes` bucket.
    node_slot: Vec<u32>,
    /// Row indices into each element table, deck order within each
    /// island. A row is in an island when every node it references is.
    resistors: Buckets,
    ground_caps: Buckets,
    sinks: Buckets,
    coupling_caps: Buckets,
}

impl CouplingClusters {
    /// Partitions `index`'s nets by union-find over its coupling
    /// capacitors and buckets each island's nodes and element rows.
    /// Elements with an endpoint on a node unreachable from any driver
    /// couple nothing and belong to no island (whole-deck
    /// materialization rejects them; island materialization never sees
    /// them).
    #[must_use]
    pub fn partition(index: &DeckIndex) -> Self {
        let n = index.net_count();
        let mut uf = UnionFind::new(n);
        for (a, b, _) in &index.coupling_caps {
            let (Some(na), Some(nb)) = (
                index.node_net[a.node as usize],
                index.node_net[b.node as usize],
            ) else {
                continue;
            };
            uf.union(na, nb);
        }
        // Dense cluster ids in order of first appearance over ascending
        // net index == ordered by smallest member.
        let mut cluster_of_net = vec![u32::MAX; n];
        let mut islands = 0u32;
        for net in 0..n as u32 {
            let root = uf.find(net);
            if cluster_of_net[root as usize] == u32::MAX {
                cluster_of_net[root as usize] = islands;
                islands += 1;
            }
            cluster_of_net[net as usize] = cluster_of_net[root as usize];
        }
        let islands = islands as usize;

        let island_of =
            |nu: &NodeUse| index.node_net[nu.node as usize].map(|net| cluster_of_net[net as usize]);
        let pair = |a: &NodeUse, b: &NodeUse| match (island_of(a), island_of(b)) {
            (Some(x), Some(y)) if x == y => Some(x),
            _ => None,
        };
        let row = |k: usize| u32::try_from(k).unwrap_or(u32::MAX);
        let one = |rows: &[(NodeUse, f64)]| {
            let keyed = rows
                .iter()
                .enumerate()
                .map(|(k, (a, _))| (row(k), island_of(a)));
            Buckets::new(islands, keyed)
        };
        let two = |rows: &[(NodeUse, NodeUse, f64)]| {
            let keyed = rows
                .iter()
                .enumerate()
                .map(|(k, (a, b, _))| (row(k), pair(a, b)));
            Buckets::new(islands, keyed)
        };
        let members = Buckets::new(
            islands,
            (0..n as u32).map(|net| (net, Some(cluster_of_net[net as usize]))),
        );
        let nodes = Buckets::new(
            islands,
            index.owned_nodes_by_name().into_iter().map(|id| {
                let owner = index.node_net[id as usize].expect("owned nodes have a net");
                (id, Some(cluster_of_net[owner as usize]))
            }),
        );
        let node_slot = index.slots((0..islands).map(|c| nodes.get(c)));
        let (resistors, ground_caps) = (two(&index.resistors), one(&index.ground_caps));
        let (sinks, coupling_caps) = (one(&index.sinks), two(&index.coupling_caps));
        CouplingClusters {
            cluster_of_net,
            members,
            nodes,
            node_slot,
            resistors,
            ground_caps,
            sinks,
            coupling_caps,
        }
    }

    /// Number of islands.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.start.len() - 1
    }

    /// True when the deck declared no nets at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The island containing `net`, or `None` when `net` is out of
    /// range.
    #[must_use]
    pub fn cluster_of(&self, net: usize) -> Option<usize> {
        self.cluster_of_net.get(net).map(|&c| c as usize)
    }

    /// Ascending net indices of island `cluster`.
    ///
    /// # Panics
    ///
    /// Panics when `cluster >= len()`.
    #[must_use]
    pub fn members(&self, cluster: usize) -> &[u32] {
        self.members.get(cluster)
    }

    /// Materializes island `cluster` once, from its own buckets, with its
    /// first member as the victim; [`Island::designate`] then makes any
    /// member the victim without rebuilding anything.
    ///
    /// # Errors
    ///
    /// [`SpiceParseError::Invalid`] when the island fails
    /// [`NetworkBuilder::build`](crate::NetworkBuilder::build)
    /// validation (e.g. a member net without sinks). Such failures do not
    /// depend on the victim designation.
    ///
    /// # Panics
    ///
    /// Panics when `cluster >= len()` or `index` is not the index this
    /// partition was built from.
    pub fn island<'c>(
        &'c self,
        index: &DeckIndex,
        cluster: usize,
    ) -> Result<Island<'c>, SpiceParseError> {
        let members = self.members.get(cluster);
        let rows = Rows {
            nets: members,
            nodes: self.nodes.get(cluster),
            slot: &self.node_slot,
            resistors: self.resistors.get(cluster),
            ground_caps: self.ground_caps.get(cluster),
            sinks: self.sinks.get(cluster),
            coupling_caps: self.coupling_caps.get(cluster),
        };
        let (network, output) = index.materialize(rows, Some(members[0]))?;
        Ok(Island {
            members,
            network,
            output,
        })
    }

    /// Materializes the island containing `net` as a standalone
    /// [`Network`] with `net` as the victim and every other member as an
    /// aggressor — the unit of work for screen-then-escalate analysis.
    ///
    /// The construction order matches whole-deck materialization
    /// restricted to the island, so analysis results are bit-identical
    /// to running the full deck with the same victim designation. Cost is
    /// proportional to the island.
    ///
    /// # Errors
    ///
    /// As [`CouplingClusters::island`] and [`Island::designate`].
    ///
    /// # Panics
    ///
    /// Panics when `net` is out of range for the index this partition
    /// was built from.
    pub fn victim_network(
        &self,
        index: &DeckIndex,
        net: usize,
    ) -> Result<Network, SpiceParseError> {
        let cluster = self.cluster_of(net).expect("net index out of range");
        let mut island = self.island(index, cluster)?;
        island.designate(net)?;
        Ok(island.network)
    }
}

/// One coupling island materialized once. Designating a victim changes
/// only roles and the observation node — never element or node order —
/// so the island network under designation `v` is exactly
/// [`CouplingClusters::victim_network`] for `v`, and one moment-engine
/// factorization of it serves every designation.
#[derive(Debug, Clone)]
pub struct Island<'c> {
    members: &'c [u32],
    network: Network,
    /// Local id of the deck's `*! output` node, when it lies here.
    output: Option<NodeId>,
}

impl Island<'_> {
    /// The island network under the current designation.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Makes deck net `net` the victim and every other member an
    /// aggressor. The deck's `*! output` node is the observation node
    /// when it lies on `net`; otherwise `net`'s first sink is.
    ///
    /// # Errors
    ///
    /// [`SpiceParseError::Invalid`] when the `*! output` node lies on
    /// `net` but carries no sink; the designation is then unchanged.
    ///
    /// # Panics
    ///
    /// Panics when `net` is not a member of this island.
    pub fn designate(&mut self, net: usize) -> Result<&Network, SpiceParseError> {
        let local = self
            .members
            .binary_search(&u32::try_from(net).unwrap_or(u32::MAX))
            .expect("net is a member of this island");
        let victim = NetId(u32::try_from(local).unwrap_or(u32::MAX));
        let output = self
            .output
            .filter(|&out| self.network.node_net(out) == victim);
        self.network.set_victim(victim, output)?;
        Ok(&self.network)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spice::stream::StreamOptions;
    use crate::spice::{parse_deck, write_deck};
    use crate::{NetRole, NetworkBuilder};

    /// Two independent coupled pairs plus one uncoupled net.
    fn five_net_deck() -> String {
        let mut out = String::new();
        for (i, role) in [
            (0, "victim"),
            (1, "aggressor"),
            (2, "aggressor"),
            (3, "aggressor"),
            (4, "aggressor"),
        ] {
            out.push_str(&format!("*! net {i} {role} net{i}\n"));
        }
        for i in 0..5 {
            out.push_str(&format!("RDRV{i} s{i} n{i} 10{i}\n"));
            out.push_str(&format!("CL{i} n{i} 0 1{i}f\n"));
        }
        out.push_str("CC0 n0 n1 5f\nCC1 n2 n3 7f\n.end\n");
        out
    }

    fn index_of(deck: &str) -> DeckIndex {
        DeckIndex::from_reader(deck.as_bytes(), StreamOptions::default()).unwrap()
    }

    #[test]
    fn partitions_into_islands_with_singletons() {
        let index = index_of(&five_net_deck());
        let clusters = CouplingClusters::partition(&index);
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters.members(0), &[0, 1]);
        assert_eq!(clusters.members(1), &[2, 3]);
        assert_eq!(clusters.members(2), &[4]);
        assert_eq!(clusters.cluster_of(3), Some(1));
        assert_eq!(clusters.cluster_of(4), Some(2));
        assert_eq!(clusters.cluster_of(5), None);
        assert!(!clusters.is_empty());
    }

    #[test]
    fn transitive_coupling_merges_islands() {
        // 0-1, 1-2 coupled: one island of three.
        let deck = "\
*! net 0 victim v\n*! net 1 aggressor a\n*! net 2 aggressor b\n\
RDRV0 s0 n0 100\nRDRV1 s1 n1 100\nRDRV2 s2 n2 100\n\
CL0 n0 0 10f\nCL1 n1 0 10f\nCL2 n2 0 10f\n\
CC0 n0 n1 5f\nCC1 n1 n2 5f\n";
        let clusters = CouplingClusters::partition(&index_of(deck));
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters.members(0), &[0, 1, 2]);
    }

    #[test]
    fn victim_network_reroles_members() {
        let index = index_of(&five_net_deck());
        let clusters = CouplingClusters::partition(&index);
        // Net 3 (declared aggressor) becomes the victim of its island.
        let network = clusters.victim_network(&index, 3).unwrap();
        assert_eq!(network.net_count(), 2);
        assert_eq!(network.victim().index(), 1); // net 3 is second member
        assert_eq!(network.coupling_caps().len(), 1);
        // The singleton materializes too (no aggressors, no couplings).
        let lone = clusters.victim_network(&index, 4).unwrap();
        assert_eq!(lone.net_count(), 1);
        assert!(lone.coupling_caps().is_empty());
    }

    #[test]
    fn unreachable_elements_are_skipped_in_islands_but_fatal_whole() {
        // `stray` hangs off no driver: its ground cap and the coupling cap
        // reaching it belong to no island.
        let deck = "\
*! net 0 victim v\n*! net 1 aggressor a\n\
RDRV0 s0 n0 100\nRDRV1 s1 n1 100\n\
CL0 n0 0 10f\nCL1 n1 0 10f\n\
CC0 n0 n1 5f\nCC1 n1 stray 2f\nC0 stray 0 3f\n.end\n";
        let index = index_of(deck);
        assert_eq!(index.unassigned_nodes(), 1);
        let clusters = CouplingClusters::partition(&index);
        assert_eq!(clusters.len(), 1);
        for net in 0..2 {
            let island = clusters.victim_network(&index, net).unwrap();
            assert_eq!(island.node_count(), 2);
            assert!(island.ground_caps().is_empty());
            assert_eq!(island.coupling_caps().len(), 1);
        }
        // The whole deck errors at the first unreachable token in
        // materialization order: ground caps before coupling caps.
        let err = index.into_network().unwrap_err();
        assert_eq!(err.position(), Some((9, 4)), "{err}");
        assert!(err.to_string().contains("\"stray\" not reachable"), "{err}");
    }

    #[test]
    fn output_directive_applies_only_to_its_own_net() {
        let deck = |output: &str| {
            format!(
                "*! net 0 victim v\n*! net 1 aggressor a\n*! output {output}\n\
RDRV0 s0 v_near 100\nRDRV1 s1 a0 100\n\
R0 v_near v_far 50\nR1 a0 a_far 40\n\
CL0 v_near 0 4f\nCL1 v_far 0 6f\nCL2 a_far 0 10f\n\
CC0 v_far a_far 5f\n.end\n"
            )
        };
        let output_name =
            |network: &Network| network.node_name(network.victim_output()).to_string();

        // `v_far` is net 0's second sink: the observation node only while
        // net 0 is the victim.
        let index = index_of(&deck("v_far"));
        let clusters = CouplingClusters::partition(&index);
        assert_eq!(
            output_name(&clusters.victim_network(&index, 0).unwrap()),
            "v_far"
        );
        assert_eq!(
            output_name(&clusters.victim_network(&index, 1).unwrap()),
            "a_far"
        );
        // Re-designating one island gives the same networks.
        let mut island = clusters.island(&index, 0).unwrap();
        assert_eq!(output_name(island.designate(1).unwrap()), "a_far");
        let network = island.designate(0).unwrap();
        assert_eq!(output_name(network), "v_far");
        assert_eq!(network.victim().index(), 0);
        assert_eq!(network.aggressor_nets().count(), 1);

        // `a0` carries no sink: designating its net fails, the other
        // net is unaffected.
        let index = index_of(&deck("a0"));
        let clusters = CouplingClusters::partition(&index);
        assert_eq!(
            output_name(&clusters.victim_network(&index, 0).unwrap()),
            "v_near"
        );
        let err = clusters.victim_network(&index, 1).unwrap_err();
        assert!(matches!(err, SpiceParseError::Invalid(_)), "{err}");
        let mut island = clusters.island(&index, 0).unwrap();
        assert!(island.designate(1).is_err());
        assert_eq!(island.network().victim().index(), 0);
    }

    #[test]
    fn island_networks_carry_exactly_their_elements() {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("vic", NetRole::Victim);
        let a = b.add_net("agg", NetRole::Aggressor);
        let x = b.add_net("far", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let v1 = b.add_node(v, "v1");
        let a0 = b.add_node(a, "a0");
        let x0 = b.add_node(x, "x0");
        b.add_driver(v, v0, 150.0).unwrap();
        b.add_driver(a, a0, 90.0).unwrap();
        b.add_driver(x, x0, 80.0).unwrap();
        b.add_resistor(v0, v1, 25.0).unwrap();
        b.add_ground_cap(v1, 8e-15).unwrap();
        b.add_sink(v1, 12e-15).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        b.add_sink(x0, 9e-15).unwrap();
        b.add_coupling_cap(v1, a0, 22e-15).unwrap();
        let deck = write_deck(&b.build().unwrap());
        let index = index_of(&deck);
        let clusters = CouplingClusters::partition(&index);
        assert_eq!(clusters.len(), 2);
        let island = clusters.victim_network(&index, 0).unwrap();
        let whole = parse_deck(&deck).unwrap();
        // The island is the whole network minus the uncoupled net.
        assert_eq!(island.net_count(), 2);
        assert_eq!(island.node_count(), whole.node_count() - 1);
        assert_eq!(island.resistors(), whole.resistors());
        assert_eq!(island.coupling_caps().len(), 1);
        assert_eq!(
            island.node_name(island.victim_output()),
            whole.node_name(whole.victim_output()),
        );
    }
}
