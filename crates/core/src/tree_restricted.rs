//! Tree-restricted shortcuts (Definitions 2 and 3 of the paper).

use lcs_graph::{EdgeId, Graph, NodeId, PartId, Partition, RootedTree, UnionFind};

use crate::quality::{self, ShortcutQuality};
use crate::{CoreError, Result, Shortcut};

/// One block component of a part's shortcut subgraph (Definition 3): a
/// connected component of the spanning subgraph `(V, H_i)` that intersects
/// `P_i`. Block components are subtrees of `T`; their shallowest node is the
/// *block root*, whose depth is the routing priority of Lemma 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockComponent {
    /// The part this block belongs to.
    pub part: PartId,
    /// The shallowest node of the block (its root within `T`).
    pub root: NodeId,
    /// Depth of the block root in `T`.
    pub root_depth: u32,
    /// All nodes of the block (part members and Steiner nodes), sorted.
    pub nodes: Vec<NodeId>,
    /// The tree edges of the block, sorted.
    pub edges: Vec<EdgeId>,
}

impl BlockComponent {
    /// Number of nodes in the block.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A block always contains at least one node.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns `true` if `node` belongs to this block.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }
}

/// A `T`-restricted shortcut (Definition 2): every shortcut subgraph `H_i`
/// consists solely of edges of the fixed rooted spanning tree `T`.
///
/// The structure is stored in both directions — per part ("which tree edges
/// may part `i` use") and per edge ("which parts may use this tree edge") —
/// because the construction algorithms write per edge while the routing
/// algorithms read per part. The distributed representation described in
/// Section 4.1 of the paper is exactly the per-edge view restricted to each
/// node's parent edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeShortcut {
    part_count: usize,
    /// `parts_on_edge[e]` — sorted list of parts assigned to tree edge `e`
    /// (empty for non-tree edges).
    parts_on_edge: Vec<Vec<PartId>>,
    /// `edges_of[p]` — sorted list of tree edges assigned to part `p`.
    edges_of: Vec<Vec<EdgeId>>,
}

impl TreeShortcut {
    /// Creates the empty `T`-restricted shortcut (`H_i = ∅`).
    pub fn empty(graph: &Graph, partition: &Partition) -> Self {
        TreeShortcut {
            part_count: partition.part_count(),
            parts_on_edge: vec![Vec::new(); graph.edge_count()],
            edges_of: vec![Vec::new(); partition.part_count()],
        }
    }

    /// Builds a shortcut from its per-edge view in one pass. Every list must
    /// be sorted and deduplicated, name parts below `part_count`, and sit on
    /// a tree edge. Walking the edges in id order yields each `edges_of`
    /// list already sorted, and each nonempty list is allocated once at its
    /// final length.
    pub(crate) fn from_parts_on_edge(part_count: usize, parts_on_edge: Vec<Vec<PartId>>) -> Self {
        let mut lengths = vec![0usize; part_count];
        for parts in &parts_on_edge {
            debug_assert!(parts.windows(2).all(|w| w[0] < w[1]));
            for p in parts {
                lengths[p.index()] += 1;
            }
        }
        let mut edges_of: Vec<Vec<EdgeId>> = lengths.into_iter().map(Vec::with_capacity).collect();
        for (e, parts) in parts_on_edge.iter().enumerate() {
            for p in parts {
                edges_of[p.index()].push(EdgeId::new(e));
            }
        }
        TreeShortcut {
            part_count,
            parts_on_edge,
            edges_of,
        }
    }

    /// Builds a shortcut from its per-part view in one pass: `edges_of(p)`
    /// is `H_p` for every part below `part_count`, sorted, deduplicated
    /// and on tree edges below `edge_count`. Walking the parts in id order
    /// yields every per-edge list already sorted, each allocated once at
    /// its final length.
    pub(crate) fn from_part_edges<'e>(
        edge_count: usize,
        part_count: usize,
        edges_of: impl Fn(PartId) -> &'e [EdgeId],
    ) -> Self {
        let mut load = vec![0usize; edge_count];
        for p in (0..part_count).map(PartId::new) {
            for e in edges_of(p) {
                load[e.index()] += 1;
            }
        }
        let mut parts_on_edge: Vec<Vec<PartId>> =
            load.into_iter().map(Vec::with_capacity).collect();
        for p in (0..part_count).map(PartId::new) {
            for e in edges_of(p) {
                parts_on_edge[e.index()].push(p);
            }
        }
        Self::from_parts_on_edge(part_count, parts_on_edge)
    }

    /// Number of parts the shortcut is defined for.
    pub fn part_count(&self) -> usize {
        self.part_count
    }

    /// Assigns tree edge `edge` to part `part`'s shortcut subgraph.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotATreeEdge`] if `edge` is not an edge of
    /// `tree` and [`CoreError::PartOutOfRange`] if the part does not exist.
    pub fn assign(&mut self, tree: &RootedTree, part: PartId, edge: EdgeId) -> Result<()> {
        if !tree.is_tree_edge(edge) {
            return Err(CoreError::NotATreeEdge { edge, part });
        }
        if part.index() >= self.part_count {
            return Err(CoreError::PartOutOfRange {
                part,
                part_count: self.part_count,
            });
        }
        if let Err(pos) = self.parts_on_edge[edge.index()].binary_search(&part) {
            self.parts_on_edge[edge.index()].insert(pos, part);
        }
        if let Err(pos) = self.edges_of[part.index()].binary_search(&edge) {
            self.edges_of[part.index()].insert(pos, edge);
        }
        Ok(())
    }

    /// The parts assigned to tree edge `e` (sorted).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn parts_on_edge(&self, e: EdgeId) -> &[PartId] {
        &self.parts_on_edge[e.index()]
    }

    /// The tree edges assigned to part `p` (sorted). This is `H_p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn edges_of(&self, p: PartId) -> &[EdgeId] {
        &self.edges_of[p.index()]
    }

    /// Returns `true` if tree edge `e` belongs to `H_p`.
    pub fn contains(&self, p: PartId, e: EdgeId) -> bool {
        self.edges_of[p.index()].binary_search(&e).is_ok()
    }

    /// Total number of `(part, edge)` assignments.
    pub fn assignment_count(&self) -> usize {
        self.edges_of.iter().map(Vec::len).sum()
    }

    /// Merges another shortcut over the same graph and partition into this
    /// one (`H_i ← H_i ∪ H'_i`). Used by `FindShortcut`, which fixes the
    /// subgraphs of "good" parts across iterations; the congestion of the
    /// union is at most the sum of the congestions.
    ///
    /// # Panics
    ///
    /// Panics if the two shortcuts disagree on the number of parts or edges.
    pub fn merge(&mut self, other: &TreeShortcut) {
        assert_eq!(self.part_count, other.part_count, "part counts must match");
        assert_eq!(
            self.parts_on_edge.len(),
            other.parts_on_edge.len(),
            "edge counts must match"
        );
        for (p_idx, edges) in other.edges_of.iter().enumerate() {
            for &e in edges {
                let part = PartId::new(p_idx);
                if let Err(pos) = self.parts_on_edge[e.index()].binary_search(&part) {
                    self.parts_on_edge[e.index()].insert(pos, part);
                }
                if let Err(pos) = self.edges_of[p_idx].binary_search(&e) {
                    self.edges_of[p_idx].insert(pos, e);
                }
            }
        }
    }

    /// Replaces part `p`'s subgraph with the given edge set. Used when a
    /// part's tentative subgraph is fixed by the verification step.
    ///
    /// # Errors
    ///
    /// Same as [`TreeShortcut::assign`].
    pub fn set_part_edges(&mut self, tree: &RootedTree, p: PartId, edges: &[EdgeId]) -> Result<()> {
        // Remove existing assignments of p.
        for e in std::mem::take(&mut self.edges_of[p.index()]) {
            self.parts_on_edge[e.index()].retain(|&q| q != p);
        }
        for &e in edges {
            self.assign(tree, p, e)?;
        }
        Ok(())
    }

    /// Validates that every assigned edge is a tree edge and every part id
    /// is in range for `partition`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, tree: &RootedTree, partition: &Partition) -> Result<()> {
        if self.part_count != partition.part_count() {
            return Err(CoreError::InconsistentInputs {
                reason: format!(
                    "shortcut built for {} parts but partition has {}",
                    self.part_count,
                    partition.part_count()
                ),
            });
        }
        for (p_idx, edges) in self.edges_of.iter().enumerate() {
            for &e in edges {
                if !tree.is_tree_edge(e) {
                    return Err(CoreError::NotATreeEdge {
                        edge: e,
                        part: PartId::new(p_idx),
                    });
                }
            }
        }
        Ok(())
    }

    /// Converts into a general [`Shortcut`] (forgetting the tree structure).
    pub fn to_shortcut(&self) -> Shortcut {
        Shortcut::from_edge_sets(self.edges_of.clone())
    }

    /// Number of block components of part `p` (Definition 3): connected
    /// components of `(V, H_p)` that intersect `P_p`. Isolated part members
    /// count as singleton blocks.
    pub fn block_count(&self, graph: &Graph, partition: &Partition, p: PartId) -> usize {
        let mut ws = quality::QualityWorkspace::new(graph);
        self.local_components(graph, partition, p, &mut ws).len()
    }

    /// Block-component counts for every part, sharing one epoch-stamped
    /// scratch across the sweep.
    pub fn block_counts(&self, graph: &Graph, partition: &Partition) -> Vec<usize> {
        let mut ws = quality::QualityWorkspace::new(graph);
        self.block_counts_with(graph, partition, &mut ws)
    }

    /// [`TreeShortcut::block_counts`] against a caller-provided scratch.
    fn block_counts_with(
        &self,
        graph: &Graph,
        partition: &Partition,
        ws: &mut quality::QualityWorkspace,
    ) -> Vec<usize> {
        partition
            .parts()
            .map(|p| self.local_components(graph, partition, p, ws).len())
            .collect()
    }

    /// The block parameter `b`: the maximum block-component count over all
    /// parts (Definition 3).
    pub fn block_parameter(&self, graph: &Graph, partition: &Partition) -> usize {
        self.block_counts(graph, partition)
            .into_iter()
            .max()
            .unwrap_or(0)
    }

    /// The full block-component structure of part `p`, each block annotated
    /// with its root (shallowest node) and the root's depth — the
    /// information the Lemma 2 routing priority needs.
    pub fn block_components(
        &self,
        graph: &Graph,
        tree: &RootedTree,
        partition: &Partition,
        p: PartId,
    ) -> Vec<BlockComponent> {
        let mut ws = quality::QualityWorkspace::new(graph);
        self.block_components_with(graph, tree, partition, p, &mut ws)
    }

    /// Block components of every part (inactive parts get an empty list),
    /// sharing one epoch-stamped scratch across the whole sweep — the bulk
    /// entry point `lcs_dist::BlockFamily` builds its per-node views from.
    ///
    /// # Panics
    ///
    /// Panics if `active.len()` differs from the partition's part count.
    pub fn active_block_components(
        &self,
        graph: &Graph,
        tree: &RootedTree,
        partition: &Partition,
        active: &[bool],
    ) -> Vec<Vec<BlockComponent>> {
        assert_eq!(
            active.len(),
            partition.part_count(),
            "one active flag per part is required"
        );
        let mut ws = quality::QualityWorkspace::new(graph);
        partition
            .parts()
            .map(|p| {
                if active[p.index()] {
                    self.block_components_with(graph, tree, partition, p, &mut ws)
                } else {
                    Vec::new()
                }
            })
            .collect()
    }

    /// [`TreeShortcut::block_components`] against a caller-provided
    /// scratch workspace (shared across parts by the sweeping callers).
    pub(crate) fn block_components_with(
        &self,
        graph: &Graph,
        tree: &RootedTree,
        partition: &Partition,
        p: PartId,
        ws: &mut quality::QualityWorkspace,
    ) -> Vec<BlockComponent> {
        let groups = self.local_components(graph, partition, p, ws);
        let mut blocks = Vec::with_capacity(groups.len());
        for mut nodes in groups {
            nodes.sort();
            nodes.dedup();
            let root = *nodes
                .iter()
                .min_by_key(|v| (tree.depth(**v), **v))
                .expect("blocks are nonempty");
            let mut edges: Vec<EdgeId> = self
                .edges_of(p)
                .iter()
                .copied()
                .filter(|&e| {
                    let edge = graph.edge(e);
                    nodes.binary_search(&edge.u).is_ok() && nodes.binary_search(&edge.v).is_ok()
                })
                .collect();
            edges.sort();
            blocks.push(BlockComponent {
                part: p,
                root,
                root_depth: tree.depth(root),
                nodes,
                edges,
            });
        }
        // Deterministic order: by root depth, then root id.
        blocks.sort_by_key(|b| (b.root_depth, b.root));
        blocks
    }

    /// Measures congestion, dilation and block parameter in one pass. The
    /// dilation sweep runs parallel-over-parts when `LCS_THREADS` is set;
    /// the measured values are identical for every thread count.
    pub fn quality(&self, graph: &Graph, partition: &Partition) -> ShortcutQuality {
        let threads = lcs_graph::configured_threads();
        self.quality_with(
            graph,
            partition,
            &mut quality::QualityPool::new(graph, threads),
        )
    }

    /// [`TreeShortcut::quality`] against a caller-provided
    /// [`crate::QualityPool`], whose scratch arrays and worker-thread
    /// count are reused across calls — the measurement path a serving
    /// session keeps warm. The measured values are identical to
    /// [`TreeShortcut::quality`] for every pool size.
    pub fn quality_with(
        &self,
        graph: &Graph,
        partition: &Partition,
        pool: &mut quality::QualityPool,
    ) -> ShortcutQuality {
        let per_part_blocks = {
            let ws = pool.primary();
            self.block_counts_with(graph, partition, ws)
        };
        ShortcutQuality {
            congestion: quality::congestion_with(graph, partition, |p| self.edges_of(p), pool),
            dilation: quality::dilation_with(graph, partition, |p| self.edges_of(p), pool),
            block_parameter: per_part_blocks.iter().copied().max().unwrap_or(0),
            per_part_blocks,
        }
    }

    /// Groups the nodes relevant to part `p` (members plus `H_p` endpoints)
    /// into connected components of `(V, H_p)`, returning only the
    /// components that contain at least one part member. The cost is
    /// proportional to `|P_p| + |H_p|`, not `n`: the node interning runs on
    /// the workspace's epoch-stamped marks (no per-part hash map or clear).
    fn local_components(
        &self,
        graph: &Graph,
        partition: &Partition,
        p: PartId,
        ws: &mut quality::QualityWorkspace,
    ) -> Vec<Vec<NodeId>> {
        ws.begin_local();
        for &v in partition.members(p) {
            ws.intern(v);
        }
        for &e in self.edges_of(p) {
            let edge = graph.edge(e);
            ws.intern(edge.u);
            ws.intern(edge.v);
        }
        let count = ws.local_nodes().len();
        let mut uf = UnionFind::new(count);
        for &e in self.edges_of(p) {
            let edge = graph.edge(e);
            let (u, v) = (ws.intern(edge.u), ws.intern(edge.v));
            uf.union(u, v);
        }
        // Collect components that contain a part member, grouped by
        // union-find representative in first-seen order (the final order is
        // fixed by the sort below, exactly as the seed implementation's).
        let mut group_of_rep: Vec<u32> = vec![u32::MAX; count];
        let mut groups: Vec<Vec<NodeId>> = Vec::new();
        for i in 0..count {
            let rep = uf.find(i);
            let g = if group_of_rep[rep] == u32::MAX {
                group_of_rep[rep] = groups.len() as u32;
                groups.push(Vec::new());
                groups.len() - 1
            } else {
                group_of_rep[rep] as usize
            };
            groups[g].push(ws.local_nodes()[i]);
        }
        let mut result: Vec<Vec<NodeId>> = groups
            .into_iter()
            .filter(|group| group.iter().any(|&v| partition.part_of(v) == Some(p)))
            .collect();
        result.sort_by_key(|g| g.iter().min().copied());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::generators;

    fn grid_setup() -> (Graph, RootedTree, Partition) {
        let g = generators::grid(4, 4);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(4, 4);
        (g, t, p)
    }

    #[test]
    fn empty_shortcut_blocks_are_singleton_members() {
        let (g, _t, p) = grid_setup();
        let s = TreeShortcut::empty(&g, &p);
        // Every part has 4 members and no shortcut edges, so every member is
        // its own block component.
        assert_eq!(s.block_counts(&g, &p), vec![4; 4]);
        assert_eq!(s.block_parameter(&g, &p), 4);
        assert_eq!(s.assignment_count(), 0);
    }

    #[test]
    fn assign_rejects_non_tree_edges_and_bad_parts() {
        let (g, t, p) = grid_setup();
        let mut s = TreeShortcut::empty(&g, &p);
        let non_tree = g
            .edge_ids()
            .find(|&e| !t.is_tree_edge(e))
            .expect("a grid has non-tree edges");
        let err = s.assign(&t, PartId::new(0), non_tree).unwrap_err();
        assert!(matches!(err, CoreError::NotATreeEdge { .. }));

        let tree_edge = t.tree_edges().next().unwrap();
        let err = s.assign(&t, PartId::new(99), tree_edge).unwrap_err();
        assert!(matches!(err, CoreError::PartOutOfRange { .. }));
    }

    #[test]
    fn assigning_a_connecting_path_reduces_block_count() {
        // Column 3 of the 4x4 grid: nodes 3, 7, 11, 15. The BFS tree from
        // node 0 connects them through row 0, so assigning the column's own
        // vertical tree edges merges blocks.
        let (g, t, p) = grid_setup();
        let part = PartId::new(3);
        let mut s = TreeShortcut::empty(&g, &p);
        // Assign every tree edge whose lower endpoint lies in column 3.
        for e in t.tree_edges() {
            let lower = t.lower_endpoint(&g, e);
            if p.part_of(lower) == Some(part) {
                s.assign(&t, part, e).unwrap();
            }
        }
        let before = TreeShortcut::empty(&g, &p).block_count(&g, &p, part);
        let after = s.block_count(&g, &p, part);
        assert!(
            after < before,
            "assigning ancestor edges must merge blocks ({after} < {before})"
        );
        s.validate(&t, &p).unwrap();
    }

    #[test]
    fn block_components_report_roots_and_steiner_nodes() {
        let (g, t, p) = grid_setup();
        let part = PartId::new(2);
        let mut s = TreeShortcut::empty(&g, &p);
        // Assign the full tree path from each member of column 2 to the
        // root; all members join one block rooted at the tree root.
        for &v in p.members(part) {
            for node in t.path_to_root(v) {
                if let Some(e) = t.parent_edge(node) {
                    s.assign(&t, part, e).unwrap();
                }
            }
        }
        let blocks = s.block_components(&g, &t, &p, part);
        assert_eq!(blocks.len(), 1);
        let block = &blocks[0];
        assert_eq!(block.root, t.root());
        assert_eq!(block.root_depth, 0);
        assert!(!block.is_empty());
        // Contains the members and at least one Steiner node (the root,
        // which is in column 0, not column 2).
        for &v in p.members(part) {
            assert!(block.contains(v));
        }
        assert!(block.contains(t.root()));
        assert!(block.len() > p.members(part).len());
        assert_eq!(s.block_count(&g, &p, part), 1);
    }

    #[test]
    fn merge_unions_assignments() {
        let (g, t, p) = grid_setup();
        let e0 = t.tree_edges().next().unwrap();
        let e1 = t.tree_edges().nth(1).unwrap();
        let mut a = TreeShortcut::empty(&g, &p);
        a.assign(&t, PartId::new(0), e0).unwrap();
        let mut b = TreeShortcut::empty(&g, &p);
        b.assign(&t, PartId::new(1), e0).unwrap();
        b.assign(&t, PartId::new(0), e1).unwrap();
        a.merge(&b);
        assert!(a.contains(PartId::new(0), e0));
        assert!(a.contains(PartId::new(0), e1));
        assert!(a.contains(PartId::new(1), e0));
        assert_eq!(a.parts_on_edge(e0), &[PartId::new(0), PartId::new(1)]);
        assert_eq!(a.assignment_count(), 3);
    }

    #[test]
    fn set_part_edges_replaces_previous_assignment() {
        let (g, t, p) = grid_setup();
        let edges: Vec<EdgeId> = t.tree_edges().take(3).collect();
        let mut s = TreeShortcut::empty(&g, &p);
        s.assign(&t, PartId::new(1), edges[0]).unwrap();
        s.set_part_edges(&t, PartId::new(1), &edges[1..]).unwrap();
        assert!(!s.contains(PartId::new(1), edges[0]));
        assert!(s.contains(PartId::new(1), edges[1]));
        assert!(s.contains(PartId::new(1), edges[2]));
        assert!(s.parts_on_edge(edges[0]).is_empty());
    }

    #[test]
    fn quality_satisfies_lemma1_on_wheel_hub_shortcut() {
        let n = 21;
        let g = generators::wheel(n);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        assert_eq!(t.depth_of_tree(), 1);
        let p = generators::partitions::wheel_arcs(n, 4);
        let mut s = TreeShortcut::empty(&g, &p);
        // The BFS tree from the hub is exactly the star of spokes; assign
        // each arc its members' spokes.
        for part in p.parts() {
            for &v in p.members(part) {
                let spoke = t.parent_edge(v).expect("rim nodes have the hub as parent");
                s.assign(&t, part, spoke).unwrap();
            }
        }
        let q = s.quality(&g, &p);
        assert_eq!(q.block_parameter, 1);
        assert_eq!(q.congestion, 1);
        assert_eq!(q.dilation, 2);
        assert!(q.satisfies_lemma1(t.depth_of_tree()));
    }

    #[test]
    fn to_shortcut_preserves_edge_sets() {
        let (g, t, p) = grid_setup();
        let mut s = TreeShortcut::empty(&g, &p);
        let e = t.tree_edges().next().unwrap();
        s.assign(&t, PartId::new(2), e).unwrap();
        let general = s.to_shortcut();
        assert_eq!(general.edges_of(PartId::new(2)), &[e]);
        assert_eq!(general.part_count(), 4);
    }

    #[test]
    fn validate_detects_partition_mismatch() {
        let (g, t, p) = grid_setup();
        let s = TreeShortcut::empty(&g, &p);
        let other = generators::partitions::grid_rows(4, 4);
        assert!(s.validate(&t, &other).is_ok()); // same part count (4): fine
        let tiny = generators::partitions::grid_columns(4, 2);
        // Partition over a different graph/size: part count differs.
        assert!(matches!(
            s.validate(&t, &tiny),
            Err(CoreError::InconsistentInputs { .. })
        ));
    }
}
