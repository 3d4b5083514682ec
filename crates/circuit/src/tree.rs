use crate::{NetId, NodeId};
use std::sync::Arc;

/// Rooted-tree view of one net's resistive graph.
///
/// The tree is rooted at the driver node. It answers the structural
/// queries the closed-form moment formulas need in O(depth):
///
/// * [`NetTree::path_resistance`] — wire resistance from the root to a node
///   (the classic Elmore "upstream resistance", driver resistance excluded);
/// * [`NetTree::common_path_resistance`] — resistance of the shared part of
///   the root→`a` and root→`b` paths, i.e. the tree transfer resistance
///   (again excluding the driver resistance, which is common to every pair
///   and added by the caller).
///
/// Instances are built by [`crate::NetworkBuilder::build`] and obtained via
/// [`crate::Network::tree`].
#[derive(Debug, Clone)]
pub struct NetTree {
    net: NetId,
    root: NodeId,
    /// Global node id -> local slot in its own net's tree, shared by
    /// every tree of the network; `order[slot]` confirms membership.
    slot: Arc<[u32]>,
    /// Local: node ids in topological (root-first) order.
    order: Vec<NodeId>,
    /// Local slot -> (parent local slot, resistance to parent). Root: None.
    parent: Vec<Option<(usize, f64)>>,
    /// Local slot -> depth (root = 0).
    depth: Vec<usize>,
    /// Local slot -> wire resistance from root.
    path_res: Vec<f64>,
}

impl NetTree {
    /// Builds the rooted view from the builder's BFS: `order` lists the
    /// nodes root first, `parent[i]` is node `order[i]`'s parent slot in
    /// `order` with the connecting resistance (`None` for the root), and
    /// `slot` maps every node of the network to its slot in its own net.
    pub(crate) fn from_bfs(
        net: NetId,
        root: NodeId,
        order: Vec<NodeId>,
        parent: Vec<Option<(usize, f64)>>,
        slot: Arc<[u32]>,
    ) -> Self {
        let mut depth = vec![0usize; order.len()];
        let mut path_res = vec![0.0; order.len()];
        for (i, link) in parent.iter().enumerate() {
            if let Some((pi, r)) = *link {
                depth[i] = depth[pi] + 1;
                path_res[i] = path_res[pi] + r;
            }
        }
        NetTree {
            net,
            root,
            slot,
            order,
            parent,
            depth,
            path_res,
        }
    }

    /// The net this tree describes.
    pub fn net(&self) -> NetId {
        self.net
    }

    /// The root node (driver attachment point).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Nodes in topological, root-first order.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of nodes in this net.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when the net has no nodes (never the case for a validated
    /// [`crate::Network`]).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// `true` when the node belongs to this net.
    pub fn contains(&self, node: NodeId) -> bool {
        self.find(node).is_some()
    }

    /// Parent of `node` and the connecting resistance; `None` for the root.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not on this net.
    pub fn parent(&self, node: NodeId) -> Option<(NodeId, f64)> {
        let i = self.slot(node);
        self.parent[i].map(|(pi, r)| (self.order[pi], r))
    }

    /// Depth of `node` below the root (root = 0).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not on this net.
    pub fn node_depth(&self, node: NodeId) -> usize {
        self.depth[self.slot(node)]
    }

    /// Wire resistance along the unique root→`node` path (ohms), driver
    /// resistance excluded.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not on this net.
    pub fn path_resistance(&self, node: NodeId) -> f64 {
        self.path_res[self.slot(node)]
    }

    /// Lowest common ancestor of two nodes.
    ///
    /// # Panics
    ///
    /// Panics if either node is not on this net.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let mut x = self.slot(a);
        let mut y = self.slot(b);
        while self.depth[x] > self.depth[y] {
            x = self.parent[x].expect("non-root node has parent").0;
        }
        while self.depth[y] > self.depth[x] {
            y = self.parent[y].expect("non-root node has parent").0;
        }
        while x != y {
            x = self.parent[x].expect("non-root node has parent").0;
            y = self.parent[y].expect("non-root node has parent").0;
        }
        self.order[x]
    }

    /// Resistance of the common part of the root→`a` and root→`b` paths —
    /// the tree transfer resistance `R(a, b)` (ohms), driver resistance
    /// excluded.
    ///
    /// For `a == b` this is [`NetTree::path_resistance`].
    ///
    /// # Panics
    ///
    /// Panics if either node is not on this net.
    pub fn common_path_resistance(&self, a: NodeId, b: NodeId) -> f64 {
        self.path_resistance(self.lca(a, b))
    }

    /// Updates the resistance of the tree edge between `a` and `b` (one
    /// must be the other's parent) and refreshes the cached root-path
    /// sums. Used by [`crate::Network::apply_delta`] to keep the tree
    /// view truthful across a resistor value delta; topology is
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if either node is not on this net or the pair is not a
    /// tree edge.
    pub(crate) fn set_edge_resistance(&mut self, a: NodeId, b: NodeId, ohms: f64) {
        let (sa, sb) = (self.slot(a), self.slot(b));
        let child = if self.parent[sa].is_some_and(|(p, _)| p == sb) {
            sa
        } else if self.parent[sb].is_some_and(|(p, _)| p == sa) {
            sb
        } else {
            panic!("nodes {a} and {b} are not a tree edge of net {}", self.net)
        };
        let (p, _) = self.parent[child].expect("child has a parent");
        self.parent[child] = Some((p, ohms));
        // Root-first order guarantees parents are refreshed before
        // children, so one pass rebuilds every affected path sum.
        for i in 0..self.order.len() {
            if let Some((pi, r)) = self.parent[i] {
                self.path_res[i] = self.path_res[pi] + r;
            }
        }
    }

    fn find(&self, node: NodeId) -> Option<usize> {
        let slot = *self.slot.get(node.index())? as usize;
        (self.order.get(slot) == Some(&node)).then_some(slot)
    }

    fn slot(&self, node: NodeId) -> usize {
        self.find(node)
            .unwrap_or_else(|| panic!("node {node} is not on net {}", self.net))
    }
}

#[cfg(test)]
mod tests {
    use crate::{NetRole, NetworkBuilder};

    /// Builds a Y-shaped victim tree:
    ///
    /// ```text
    ///   root --10-- mid --20-- left(sink)
    ///                 \--30-- right(sink)
    /// ```
    fn y_tree() -> (crate::Network, [crate::NodeId; 4]) {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let root = b.add_node(v, "root");
        let mid = b.add_node(v, "mid");
        let left = b.add_node(v, "left");
        let right = b.add_node(v, "right");
        b.add_driver(v, root, 100.0).unwrap();
        b.add_resistor(root, mid, 10.0).unwrap();
        b.add_resistor(mid, left, 20.0).unwrap();
        b.add_resistor(mid, right, 30.0).unwrap();
        b.add_sink(left, 1e-15).unwrap();
        b.add_sink(right, 2e-15).unwrap();
        let net = b.build().unwrap();
        (net, [root, mid, left, right])
    }

    #[test]
    fn path_resistance_accumulates_along_branches() {
        let (net, [root, mid, left, right]) = y_tree();
        let t = net.tree(net.victim());
        assert_eq!(t.path_resistance(root), 0.0);
        assert_eq!(t.path_resistance(mid), 10.0);
        assert_eq!(t.path_resistance(left), 30.0);
        assert_eq!(t.path_resistance(right), 40.0);
    }

    #[test]
    fn lca_and_common_path() {
        let (net, [root, mid, left, right]) = y_tree();
        let t = net.tree(net.victim());
        assert_eq!(t.lca(left, right), mid);
        assert_eq!(t.common_path_resistance(left, right), 10.0);
        assert_eq!(t.common_path_resistance(left, left), 30.0);
        assert_eq!(t.common_path_resistance(root, right), 0.0);
        assert_eq!(t.lca(mid, left), mid);
        assert_eq!(t.common_path_resistance(mid, left), 10.0);
    }

    #[test]
    fn order_is_root_first_topological() {
        let (net, [root, ..]) = y_tree();
        let t = net.tree(net.victim());
        assert_eq!(t.order()[0], root);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        // Every node appears after its parent.
        for &n in t.order() {
            if let Some((p, _)) = t.parent(n) {
                let pos =
                    |x| t.order().iter().position(|&o| o == x).unwrap();
                assert!(pos(p) < pos(n));
            }
        }
    }

    #[test]
    fn depth_counts_edges_from_root() {
        let (net, [root, mid, left, _]) = y_tree();
        let t = net.tree(net.victim());
        assert_eq!(t.node_depth(root), 0);
        assert_eq!(t.node_depth(mid), 1);
        assert_eq!(t.node_depth(left), 2);
    }

    #[test]
    #[should_panic(expected = "is not on net")]
    fn foreign_node_panics() {
        let (net, _) = y_tree();
        let (net2, [other_root, ..]) = y_tree();
        let _ = net2; // other_root has the same numeric id; craft one out of range instead
        let _ = other_root;
        // A node id beyond this network's count is certainly foreign.
        let foreign = {
            let mut b = NetworkBuilder::new();
            let v = b.add_net("v", NetRole::Victim);
            for i in 0..10 {
                b.add_node(v, format!("x{i}"));
            }
            b.add_node(v, "far")
        };
        net.tree(net.victim()).path_resistance(foreign);
    }
}
