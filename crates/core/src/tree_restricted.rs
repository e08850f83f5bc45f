//! Tree-restricted shortcuts (Definitions 2 and 3 of the paper).

use lcs_graph::{EdgeId, Graph, PartId, Partition, RootedTree, UnionFind};

use crate::quality::{self, ShortcutQuality};
use crate::{CoreError, Result};

/// A `T`-restricted shortcut (Definition 2): every shortcut subgraph `H_i`
/// consists solely of edges of the fixed rooted spanning tree `T`.
///
/// The structure is stored in both directions — per part ("which tree edges
/// may part `i` use") and per edge ("which parts may use this tree edge") —
/// because the construction algorithms write per edge while the routing
/// algorithms read per part. The distributed representation described in
/// Section 4.1 of the paper is exactly the per-edge view restricted to each
/// node's parent edge.
///
/// Each direction is one compressed sparse row (CSR) relation, the layout
/// [`Graph`] uses for adjacency: an offset array plus one flat id array, so
/// a shortcut is four allocations whatever its size. One side is laid out
/// by the constructor and the other is its transpose, built by one counting
/// pass. A shortcut is immutable once built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeShortcut {
    /// `part_start[p]..part_start[p + 1]` indexes `part_edge`: the sorted
    /// tree edges of `H_p`. Length `part_count + 1`.
    part_start: Vec<u32>,
    part_edge: Vec<EdgeId>,
    /// `edge_start[e]..edge_start[e + 1]` indexes `edge_part`: the sorted
    /// parts assigned to edge `e` (none for non-tree edges). Length
    /// `edge_count + 1`.
    edge_start: Vec<u32>,
    edge_part: Vec<PartId>,
}

impl TreeShortcut {
    /// Creates the empty shortcut (`H_i = ∅`).
    pub fn empty(graph: &Graph, partition: &Partition) -> Self {
        Self::from_part_csr(
            graph.edge_count(),
            vec![0; partition.part_count() + 1],
            Vec::new(),
        )
    }

    /// Builds a shortcut from per-part edge sets: the `i`-th set is `H_i`,
    /// and parts after the last set get empty subgraphs. Each set is sorted
    /// and deduplicated.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotATreeEdge`] for the first edge, in part
    /// order, that is not an edge of `tree`, and
    /// [`CoreError::PartOutOfRange`] if there are more sets than
    /// `partition` has parts.
    ///
    /// # Panics
    ///
    /// Panics if an edge id is out of range for `graph`.
    pub fn from_edge_sets(
        graph: &Graph,
        tree: &RootedTree,
        partition: &Partition,
        edge_sets: impl IntoIterator<Item = impl IntoIterator<Item = EdgeId>>,
    ) -> Result<Self> {
        let part_count = partition.part_count();
        let mut part_start = Vec::with_capacity(part_count + 1);
        part_start.push(0);
        let mut part_edge = Vec::new();
        for (i, set) in edge_sets.into_iter().enumerate() {
            let part = PartId::new(i);
            if i >= part_count {
                return Err(CoreError::PartOutOfRange { part, part_count });
            }
            let start = part_edge.len();
            for edge in set {
                if !tree.is_tree_edge(edge) {
                    return Err(CoreError::NotATreeEdge { edge, part });
                }
                part_edge.push(edge);
            }
            part_edge[start..].sort_unstable();
            let len = dedup_sorted(&mut part_edge[start..]);
            part_edge.truncate(start + len);
            part_start.push(to_u32(part_edge.len()));
        }
        part_start.resize(part_count + 1, to_u32(part_edge.len()));
        Ok(Self::from_part_csr(
            graph.edge_count(),
            part_start,
            part_edge,
        ))
    }

    /// Builds a shortcut from its per-edge CSR: `edge_start` has one entry
    /// per edge plus one, and every edge's slice of `edge_part` is sorted,
    /// deduplicated, below `part_count`, and empty unless the edge is a tree
    /// edge.
    pub(crate) fn from_edge_csr(
        part_count: usize,
        edge_start: Vec<u32>,
        edge_part: Vec<PartId>,
    ) -> Self {
        let (part_start, part_edge) = transpose(&edge_start, &edge_part, part_count, EdgeId::new);
        TreeShortcut {
            part_start,
            part_edge,
            edge_start,
            edge_part,
        }
    }

    /// [`TreeShortcut::from_edge_csr`] from the per-part side.
    fn from_part_csr(edge_count: usize, part_start: Vec<u32>, part_edge: Vec<EdgeId>) -> Self {
        let (edge_start, edge_part) = transpose(&part_start, &part_edge, edge_count, PartId::new);
        TreeShortcut {
            part_start,
            part_edge,
            edge_start,
            edge_part,
        }
    }

    /// Number of parts the shortcut is defined for.
    pub fn part_count(&self) -> usize {
        self.part_start.len() - 1
    }

    /// The parts assigned to tree edge `e` (sorted).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn parts_on_edge(&self, e: EdgeId) -> &[PartId] {
        &self.edge_part
            [self.edge_start[e.index()] as usize..self.edge_start[e.index() + 1] as usize]
    }

    /// The tree edges assigned to part `p` (sorted). This is `H_p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn edges_of(&self, p: PartId) -> &[EdgeId] {
        &self.part_edge
            [self.part_start[p.index()] as usize..self.part_start[p.index() + 1] as usize]
    }

    /// Returns `true` if tree edge `e` belongs to `H_p`.
    pub fn contains(&self, p: PartId, e: EdgeId) -> bool {
        self.edges_of(p).binary_search(&e).is_ok()
    }

    /// Total number of `(part, edge)` assignments.
    pub fn assignment_count(&self) -> usize {
        self.part_edge.len()
    }

    /// Validates that every assigned edge is a tree edge and every part id
    /// is in range for `partition`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, tree: &RootedTree, partition: &Partition) -> Result<()> {
        if self.part_count() != partition.part_count() {
            return Err(CoreError::InconsistentInputs {
                reason: format!(
                    "shortcut built for {} parts but partition has {}",
                    self.part_count(),
                    partition.part_count()
                ),
            });
        }
        for p in partition.parts() {
            if let Some(&e) = self.edges_of(p).iter().find(|&&e| !tree.is_tree_edge(e)) {
                return Err(CoreError::NotATreeEdge { edge: e, part: p });
            }
        }
        Ok(())
    }

    /// Number of block components of part `p` (Definition 3): connected
    /// components of `(V, H_p)` that intersect `P_p`. Isolated part members
    /// count as singleton blocks.
    pub fn block_count(&self, graph: &Graph, partition: &Partition, p: PartId) -> usize {
        let mut ws = quality::QualityWorkspace::new(graph);
        self.block_count_with(graph, partition, p, &mut ws)
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
            .map(|p| self.block_count_with(graph, partition, p, ws))
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

    /// [`TreeShortcut::block_count`] against a caller-provided scratch:
    /// interns the nodes relevant to part `p` (members plus `H_p`
    /// endpoints), joins the `H_p` edges in a union-find over them and
    /// counts the components that hold a member. The cost is proportional
    /// to `|P_p| + |H_p|`, not `n`: the node interning runs on the
    /// workspace's epoch-stamped marks (no per-part hash map or clear).
    pub(crate) fn block_count_with(
        &self,
        graph: &Graph,
        partition: &Partition,
        p: PartId,
        ws: &mut quality::QualityWorkspace,
    ) -> usize {
        ws.begin_local();
        // Members first: they take local indices `0..members.len()`.
        let members = partition.members(p);
        for &v in members {
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
        let mut counted = vec![false; count];
        (0..members.len())
            .filter(|&i| !std::mem::replace(&mut counted[uf.find(i)], true))
            .count()
    }
}

/// Transposes a CSR relation: row `r` lists `items[start[r]..start[r + 1]]`,
/// and the result lists, for every column below `width`, the rows that name
/// it. Rows are visited in order, so every column's list comes out sorted.
fn transpose<C, R>(
    start: &[u32],
    items: &[C],
    width: usize,
    row: impl Fn(usize) -> R,
) -> (Vec<u32>, Vec<R>)
where
    C: Copy + Into<usize>,
    R: Copy + Default,
{
    let mut column_start = vec![0u32; width + 1];
    for &c in items {
        column_start[c.into() + 1] += 1;
    }
    // Exclusive offsets, shifted by one: `column_start[c + 1]` is where
    // column `c` begins and, while filling, its write cursor. After the fill
    // it holds where `c` ends, which is where `c + 1` begins.
    let mut begin = 0;
    for slot in &mut column_start[1..] {
        let count = *slot;
        *slot = begin;
        begin += count;
    }
    let mut rows = vec![R::default(); items.len()];
    for (r, span) in start.windows(2).enumerate() {
        for &c in &items[span[0] as usize..span[1] as usize] {
            let cursor = &mut column_start[c.into() + 1];
            rows[*cursor as usize] = row(r);
            *cursor += 1;
        }
    }
    (column_start, rows)
}

/// Moves the distinct values of the sorted `list` to its front and returns
/// how many there are.
pub(crate) fn dedup_sorted<T: Copy + PartialEq>(list: &mut [T]) -> usize {
    let mut len = 0;
    for i in 0..list.len() {
        if len == 0 || list[i] != list[len - 1] {
            list[len] = list[i];
            len += 1;
        }
    }
    len
}

pub(crate) fn to_u32(x: usize) -> u32 {
    u32::try_from(x).expect("CSR offsets fit in u32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{generators, NodeId};

    fn grid_setup() -> (Graph, RootedTree, Partition) {
        let g = generators::grid(4, 4);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(4, 4);
        (g, t, p)
    }

    /// The shortcut giving part `part` the edge set `edges` and every other
    /// part nothing.
    fn one_part(
        g: &Graph,
        t: &RootedTree,
        p: &Partition,
        part: PartId,
        edges: Vec<EdgeId>,
    ) -> TreeShortcut {
        let mut sets = vec![Vec::new(); p.part_count()];
        sets[part.index()] = edges;
        TreeShortcut::from_edge_sets(g, t, p, sets).unwrap()
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
    fn from_edge_sets_rejects_non_tree_edges_and_bad_parts() {
        let (g, t, p) = grid_setup();
        let non_tree = g
            .edge_ids()
            .find(|&e| !t.is_tree_edge(e))
            .expect("a grid has non-tree edges");
        let tree_edge = t.tree_edges().next().unwrap();
        let err = TreeShortcut::from_edge_sets(&g, &t, &p, [vec![tree_edge], vec![non_tree]])
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::NotATreeEdge {
                edge: non_tree,
                part: PartId::new(1)
            }
        );

        let mut sets = vec![Vec::new(); 5];
        sets[4].push(tree_edge);
        let err = TreeShortcut::from_edge_sets(&g, &t, &p, sets).unwrap_err();
        assert_eq!(
            err,
            CoreError::PartOutOfRange {
                part: PartId::new(4),
                part_count: 4
            }
        );
    }

    #[test]
    fn from_edge_sets_sorts_deduplicates_and_transposes() {
        let (g, t, p) = grid_setup();
        let e0 = t.tree_edges().next().unwrap();
        let e1 = t.tree_edges().nth(1).unwrap();
        // Fewer sets than parts: parts 2 and 3 get nothing.
        let s = TreeShortcut::from_edge_sets(&g, &t, &p, [vec![e1, e0, e1, e0], vec![e0]]).unwrap();
        assert_eq!(s.part_count(), 4);
        assert_eq!(s.edges_of(PartId::new(0)), &[e0, e1]);
        assert_eq!(s.edges_of(PartId::new(1)), &[e0]);
        assert!(s.edges_of(PartId::new(2)).is_empty());
        assert!(s.contains(PartId::new(0), e1));
        assert!(!s.contains(PartId::new(1), e1));
        assert_eq!(s.parts_on_edge(e0), &[PartId::new(0), PartId::new(1)]);
        assert_eq!(s.parts_on_edge(e1), &[PartId::new(0)]);
        assert_eq!(s.assignment_count(), 3);
        // The same sets in another order build an equal shortcut.
        let again = TreeShortcut::from_edge_sets(&g, &t, &p, [vec![e0, e1], vec![e0], vec![]]);
        assert_eq!(again.unwrap(), s);
    }

    #[test]
    fn assigning_a_connecting_path_reduces_block_count() {
        // Column 3 of the 4x4 grid: nodes 3, 7, 11, 15. The BFS tree from
        // node 0 connects them through row 0, so assigning the column's own
        // vertical tree edges merges blocks.
        let (g, t, p) = grid_setup();
        let part = PartId::new(3);
        // Assign every tree edge whose lower endpoint lies in column 3.
        let edges = t
            .tree_edges()
            .filter(|&e| p.part_of(t.lower_endpoint(&g, e)) == Some(part))
            .collect();
        let s = one_part(&g, &t, &p, part, edges);
        let before = TreeShortcut::empty(&g, &p).block_count(&g, &p, part);
        let after = s.block_count(&g, &p, part);
        assert!(
            after < before,
            "assigning ancestor edges must merge blocks ({after} < {before})"
        );
        s.validate(&t, &p).unwrap();
    }

    #[test]
    fn quality_satisfies_lemma1_on_wheel_hub_shortcut() {
        let n = 21;
        let g = generators::wheel(n);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        assert_eq!(t.depth_of_tree(), 1);
        let p = generators::partitions::wheel_arcs(n, 4);
        // The BFS tree from the hub is exactly the star of spokes; assign
        // each arc its members' spokes.
        let spokes = p.parts().map(|part| {
            p.members(part)
                .iter()
                .map(|&v| t.parent_edge(v).expect("rim nodes have the hub as parent"))
        });
        let s = TreeShortcut::from_edge_sets(&g, &t, &p, spokes).unwrap();
        let q = s.quality(&g, &p);
        assert_eq!(q.block_parameter, 1);
        assert_eq!(q.congestion, 1);
        assert_eq!(q.dilation, 2);
        assert!(q.satisfies_lemma1(t.depth_of_tree()));
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
