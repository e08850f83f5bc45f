//! Rooted spanning trees.
//!
//! The shortcut framework fixes a rooted spanning tree `T ⊆ G` (in practice a
//! BFS tree, whose depth is at most the diameter `D` of `G`) and restricts
//! every shortcut subgraph to edges of `T`. [`RootedTree`] is the
//! representation used everywhere downstream: it knows, for every node, its
//! parent, parent edge, depth and children, and can enumerate nodes bottom-up
//! (deepest first), which is the schedule both `CoreSlow` and `CoreFast`
//! follow.

use crate::{EdgeId, Graph, GraphError, NodeId, Result};

/// A rooted spanning tree of a connected graph.
#[derive(Debug, Clone)]
pub struct RootedTree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    parent_edge: Vec<Option<EdgeId>>,
    depth: Vec<u32>,
    /// `child_start[v]..child_start[v + 1]` indexes `child`: the children
    /// of `v`, ascending (the CSR layout [`Graph`] uses for adjacency).
    child_start: Vec<u32>,
    child: Vec<NodeId>,
    /// Nodes ordered by nonincreasing depth (deepest first), ascending id
    /// within a depth. Processing nodes in this order guarantees children
    /// are handled before their parents.
    bottom_up: Vec<NodeId>,
    /// Marker: `is_tree_edge[e]` for every edge id of the original graph.
    is_tree_edge: Vec<bool>,
    depth_of_tree: u32,
}

impl RootedTree {
    /// Builds a BFS spanning tree of `graph` rooted at `root`.
    ///
    /// The BFS tree has the asymptotically smallest possible depth among
    /// spanning trees rooted at `root` (its depth equals the eccentricity of
    /// `root`, which is at most the diameter `D`).
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range or if the graph is not connected.
    pub fn bfs(graph: &Graph, root: NodeId) -> Self {
        Self::try_bfs(graph, root).expect("graph must be connected to admit a spanning tree")
    }

    /// Fallible variant of [`RootedTree::bfs`].
    ///
    /// One breadth-first search records each node's parent, parent edge and
    /// depth when it is discovered; the children and the bottom-up order
    /// are then laid out by counting sorts, on parent and on depth.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotConnected`] if some node is unreachable from
    /// `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range.
    pub fn try_bfs(graph: &Graph, root: NodeId) -> Result<Self> {
        let n = graph.node_count();
        assert!(root.index() < n, "source {root} out of range");
        let mut parent = vec![None; n];
        let mut parent_edge = vec![None; n];
        let mut depth = vec![u32::MAX; n];
        let mut is_tree_edge = vec![false; graph.edge_count()];
        // The discovery order doubles as the BFS queue.
        let mut queue: Vec<NodeId> = Vec::with_capacity(n);
        depth[root.index()] = 0;
        queue.push(root);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let next = depth[u.index()] + 1;
            for (v, e) in graph.neighbors(u) {
                if depth[v.index()] == u32::MAX {
                    depth[v.index()] = next;
                    parent[v.index()] = Some(u);
                    parent_edge[v.index()] = Some(e);
                    is_tree_edge[e.index()] = true;
                    queue.push(v);
                }
            }
        }
        if queue.len() != n {
            return Err(GraphError::NotConnected);
        }
        let depth_of_tree = depth[queue[n - 1].index()];

        let (child_start, child) = bucket_nodes(n, n, |v| parent[v].map(NodeId::index));
        // Deepest bucket first.
        let (_, bottom_up) = bucket_nodes(depth_of_tree as usize + 1, n, |v| {
            Some((depth_of_tree - depth[v]) as usize)
        });

        Ok(RootedTree {
            root,
            parent,
            parent_edge,
            depth,
            child_start,
            child,
            bottom_up,
            is_tree_edge,
            depth_of_tree,
        })
    }

    /// The root node of the tree.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes spanned by the tree.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// Depth of the tree: the maximum node depth (root has depth zero).
    ///
    /// For a BFS tree this equals the eccentricity of the root and is
    /// therefore at most the graph diameter `D`; the paper denotes both by
    /// `D`.
    pub fn depth_of_tree(&self) -> u32 {
        self.depth_of_tree
    }

    /// Parent of `v`, or `None` for the root.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// The graph edge connecting `v` to its parent, or `None` for the root.
    pub fn parent_edge(&self, v: NodeId) -> Option<EdgeId> {
        self.parent_edge[v.index()]
    }

    /// Depth of node `v` (root has depth zero).
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v.index()]
    }

    /// Children of `v` in the tree, ascending.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.child[self.child_start[v.index()] as usize..self.child_start[v.index() + 1] as usize]
    }

    /// Returns `true` if the given graph edge is one of the `n - 1` tree
    /// edges.
    pub fn is_tree_edge(&self, e: EdgeId) -> bool {
        self.is_tree_edge[e.index()]
    }

    /// Iterator over all tree edge ids.
    pub fn tree_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.is_tree_edge
            .iter()
            .enumerate()
            .filter(|(_, &t)| t)
            .map(|(i, _)| EdgeId::new(i))
    }

    /// Nodes ordered deepest-first. Children always appear before their
    /// parents, which is the processing schedule of the bottom-up core
    /// subroutines (Algorithms 1 and 2 of the paper).
    pub fn nodes_bottom_up(&self) -> &[NodeId] {
        &self.bottom_up
    }

    /// Iterator over the ancestors of `v` starting with `v` itself and
    /// ending at the root.
    pub fn path_to_root(&self, v: NodeId) -> PathToRoot<'_> {
        PathToRoot {
            tree: self,
            current: Some(v),
        }
    }

    /// The child endpoint (lower endpoint) of a tree edge: the endpoint whose
    /// parent edge is `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a tree edge.
    pub fn lower_endpoint(&self, graph: &Graph, e: EdgeId) -> NodeId {
        assert!(self.is_tree_edge(e), "edge {e} is not a tree edge");
        let edge = graph.edge(e);
        if self.parent_edge(edge.u) == Some(e) {
            edge.u
        } else {
            edge.v
        }
    }
}

/// Counting sort of node ids into `buckets` buckets: every node `v` of
/// `0..node_count` with `bucket(v) = Some(b)` lands in bucket `b`,
/// ascending within it. Returns the CSR pair: `start[b]..start[b + 1]` is
/// bucket `b`'s slice of the node array.
pub(crate) fn bucket_nodes(
    buckets: usize,
    node_count: usize,
    bucket: impl Fn(usize) -> Option<usize>,
) -> (Vec<u32>, Vec<NodeId>) {
    let mut start = vec![0u32; buckets + 1];
    let mut total = 0;
    for b in (0..node_count).filter_map(&bucket) {
        start[b + 1] += 1;
        total += 1;
    }
    // Exclusive offsets, shifted by one: `start[b + 1]` is where bucket `b`
    // begins and, while filling, its write cursor. After the fill it holds
    // where `b` ends, which is where `b + 1` begins.
    let mut begin = 0;
    for slot in &mut start[1..] {
        let count = *slot;
        *slot = begin;
        begin += count;
    }
    let mut nodes = vec![NodeId::default(); total];
    for v in 0..node_count {
        if let Some(b) = bucket(v) {
            let cursor = &mut start[b + 1];
            nodes[*cursor as usize] = NodeId::new(v);
            *cursor += 1;
        }
    }
    (start, nodes)
}

/// Iterator over the tree path from a node up to the root.
///
/// Produced by [`RootedTree::path_to_root`].
#[derive(Debug, Clone)]
pub struct PathToRoot<'a> {
    tree: &'a RootedTree,
    current: Option<NodeId>,
}

impl Iterator for PathToRoot<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let v = self.current?;
        self.current = self.tree.parent(v);
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_tree_of_path_is_the_path() {
        let g = generators::path(6);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        assert_eq!(t.root(), NodeId::new(0));
        assert_eq!(t.depth_of_tree(), 5);
        assert_eq!(t.depth(NodeId::new(3)), 3);
        assert_eq!(t.parent(NodeId::new(3)), Some(NodeId::new(2)));
        assert_eq!(t.children(NodeId::new(2)), &[NodeId::new(3)]);
        assert_eq!(t.parent(NodeId::new(0)), None);
        assert!(t.parent_edge(NodeId::new(0)).is_none());
    }

    #[test]
    fn bfs_tree_depth_is_root_eccentricity() {
        let g = generators::grid(5, 9);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        // Root is a corner of the grid, so its eccentricity is (5-1)+(9-1).
        assert_eq!(t.depth_of_tree(), 12);
        // Every non-root node's depth is parent depth + 1.
        for v in g.nodes() {
            match t.parent(v) {
                Some(p) => assert_eq!(t.depth(v), t.depth(p) + 1),
                None => assert_eq!(v, t.root()),
            }
        }
    }

    #[test]
    fn tree_edges_count_and_membership() {
        let g = generators::grid(4, 4);
        let t = RootedTree::bfs(&g, NodeId::new(5));
        let tree_edges: Vec<EdgeId> = t.tree_edges().collect();
        assert_eq!(tree_edges.len(), g.node_count() - 1);
        for e in &tree_edges {
            assert!(t.is_tree_edge(*e));
        }
        let non_tree = g.edge_ids().filter(|e| !t.is_tree_edge(*e)).count();
        assert_eq!(non_tree, g.edge_count() - (g.node_count() - 1));
    }

    #[test]
    fn bottom_up_order_processes_children_before_parents() {
        let g = generators::grid(6, 6);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let mut seen = vec![false; g.node_count()];
        for &v in t.nodes_bottom_up() {
            for &c in t.children(v) {
                assert!(
                    seen[c.index()],
                    "child {c} must be processed before parent {v}"
                );
            }
            seen[v.index()] = true;
        }
    }

    #[test]
    fn path_to_root_walks_up() {
        let g = generators::path(4);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let path: Vec<NodeId> = t.path_to_root(NodeId::new(3)).collect();
        assert_eq!(
            path,
            vec![
                NodeId::new(3),
                NodeId::new(2),
                NodeId::new(1),
                NodeId::new(0)
            ]
        );
    }

    #[test]
    fn lower_endpoint_is_the_deeper_endpoint() {
        let g = generators::grid(3, 3);
        let t = RootedTree::bfs(&g, NodeId::new(4));
        for e in t.tree_edges() {
            let lower = t.lower_endpoint(&g, e);
            let upper = g.edge(e).other(lower);
            assert_eq!(t.depth(lower), t.depth(upper) + 1);
            assert_eq!(t.parent(lower), Some(upper));
        }
    }

    #[test]
    fn disconnected_graph_yields_error() {
        let g = Graph::from_edges(3, &[(NodeId::new(0), NodeId::new(1))]).unwrap();
        assert!(matches!(
            RootedTree::try_bfs(&g, NodeId::new(0)),
            Err(GraphError::NotConnected)
        ));
    }

    #[test]
    fn single_node_tree() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let t = RootedTree::bfs(&g, NodeId::new(0));
        assert_eq!(t.depth_of_tree(), 0);
        assert_eq!(t.nodes_bottom_up(), &[NodeId::new(0)]);
    }
}
