//! The core undirected graph representation.

use crate::{EdgeId, GraphError, NodeId, Result};

/// An undirected edge between two nodes.
///
/// Edges are stored with `u <= v` normalization applied by [`Graph`]
/// construction; the original insertion order determines the [`EdgeId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// First endpoint (the smaller node id).
    pub u: NodeId,
    /// Second endpoint (the larger node id).
    pub v: NodeId,
}

impl Edge {
    /// Creates a normalized edge with `u <= v`.
    pub fn new(a: NodeId, b: NodeId) -> Self {
        if a <= b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// Returns the endpoint different from `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of the edge.
    pub fn other(&self, from: NodeId) -> NodeId {
        if from == self.u {
            self.v
        } else if from == self.v {
            self.u
        } else {
            panic!(
                "node {from} is not an endpoint of edge {{{}, {}}}",
                self.u, self.v
            )
        }
    }
}

/// A finite, undirected, simple graph.
///
/// The representation is a compressed sparse row (CSR) adjacency, immutable
/// after construction (build graphs with [`crate::GraphBuilder`] or the
/// [`crate::generators`]): `first_out[v]..first_out[v + 1]` indexes the flat
/// `neighbor`/`edge_id` arrays, which hold node `v`'s incident `(neighbor,
/// edge)` pairs contiguously, in edge-insertion order. The layout keeps the
/// per-node neighborhood a pair of cache-linear slices — the hot-path shape
/// the CONGEST simulator and the quality BFS both iterate millions of times
/// — instead of one heap allocation per node. Node ids are
/// `0..node_count()` and edge ids are `0..edge_count()`, which lets callers
/// use plain `Vec`s as node- or edge-indexed maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    edges: Vec<Edge>,
    /// CSR offsets: `first_out[v]..first_out[v + 1]` is node `v`'s slice of
    /// the two flat arrays below. Length `node_count + 1`.
    first_out: Vec<u32>,
    /// Flat neighbor array, length `2 * edge_count`.
    neighbor: Vec<NodeId>,
    /// Flat incident-edge array, parallel to `neighbor`.
    edge_id: Vec<EdgeId>,
    /// `reverse[p]`: for the CSR slot `p` of node `v` pointing at `w`, the
    /// slot of `w` pointing back at `v`. An involution, parallel to
    /// `neighbor`.
    reverse: Vec<u32>,
}

impl Graph {
    /// Creates a graph with `node_count` nodes and the given undirected
    /// edges.
    ///
    /// Duplicate detection is sort-based (no hash set): the normalized
    /// endpoint pairs are packed into `u64` keys and sorted, so large
    /// generator outputs validate with one cache-friendly pass instead of a
    /// per-edge hash probe.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range, an edge is a
    /// self-loop, or the same undirected edge appears twice.
    pub fn from_edges(node_count: usize, edge_list: &[(NodeId, NodeId)]) -> Result<Self> {
        let mut edges = Vec::with_capacity(edge_list.len());
        for &(a, b) in edge_list {
            for node in [a, b] {
                if node.index() >= node_count {
                    return Err(GraphError::NodeOutOfRange { node, node_count });
                }
            }
            if a == b {
                return Err(GraphError::SelfLoop { node: a });
            }
            edges.push(Edge::new(a, b));
        }
        // Node indices are u32 by construction (NodeId::new panics above
        // u32::MAX), so the two halves of the packed key cannot overlap.
        let mut keys: Vec<u64> = edges
            .iter()
            .map(|e| ((e.u.index() as u64) << 32) | e.v.index() as u64)
            .collect();
        keys.sort_unstable();
        if let Some(w) = keys.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::DuplicateEdge {
                u: NodeId::new((w[0] >> 32) as usize),
                v: NodeId::new((w[0] & u64::from(u32::MAX)) as usize),
            });
        }
        Ok(Self::from_deduped_edges(node_count, edges))
    }

    /// Builds the CSR arrays from a validated, duplicate-free edge list.
    /// The counting sort is stable in edge order, so every adjacency slice
    /// lists its `(neighbor, edge)` pairs in edge-insertion order — the
    /// same order the previous adjacency-list representation produced. It
    /// places both slots of every edge at once, so it also records each
    /// slot's reverse.
    pub(crate) fn from_deduped_edges(node_count: usize, edges: Vec<Edge>) -> Self {
        let total = 2 * edges.len();
        assert!(
            total <= u32::MAX as usize,
            "graph too large for u32 CSR offsets"
        );
        let mut first_out = vec![0u32; node_count + 1];
        for e in &edges {
            first_out[e.u.index() + 1] += 1;
            first_out[e.v.index() + 1] += 1;
        }
        for i in 0..node_count {
            first_out[i + 1] += first_out[i];
        }
        let mut cursor: Vec<u32> = first_out[..node_count].to_vec();
        let mut neighbor = vec![NodeId::default(); total];
        let mut edge_id = vec![EdgeId::default(); total];
        let mut reverse = vec![0u32; total];
        for (i, e) in edges.iter().enumerate() {
            let id = EdgeId::new(i);
            let (su, sv) = (cursor[e.u.index()], cursor[e.v.index()]);
            cursor[e.u.index()] += 1;
            cursor[e.v.index()] += 1;
            neighbor[su as usize] = e.v;
            neighbor[sv as usize] = e.u;
            edge_id[su as usize] = id;
            edge_id[sv as usize] = id;
            reverse[su as usize] = sv;
            reverse[sv as usize] = su;
        }
        Graph {
            edges,
            first_out,
            neighbor,
            edge_id,
            reverse,
        }
    }

    /// Number of nodes in the graph.
    pub fn node_count(&self) -> usize {
        self.first_out.len() - 1
    }

    /// Number of undirected edges in the graph.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids, in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterator over all edge ids, in increasing order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edge_count()).map(EdgeId::new)
    }

    /// Iterator over `(EdgeId, Edge)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &e)| (EdgeId::new(i), e))
    }

    /// Returns the endpoints of the given edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge id is out of range.
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.index()]
    }

    /// The CSR index range of `node`'s adjacency slice.
    #[inline]
    fn adjacency_range(&self, node: NodeId) -> std::ops::Range<usize> {
        self.first_out[node.index()] as usize..self.first_out[node.index() + 1] as usize
    }

    /// Degree of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency_range(node).len()
    }

    /// The neighbors of `node` as a contiguous slice (parallel to
    /// [`Graph::incident_edge_ids`]).
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    #[inline]
    pub fn neighbor_ids(&self, node: NodeId) -> &[NodeId] {
        &self.neighbor[self.adjacency_range(node)]
    }

    /// The edges incident to `node` as a contiguous slice (parallel to
    /// [`Graph::neighbor_ids`]: `incident_edge_ids(v)[k]` connects `v` to
    /// `neighbor_ids(v)[k]`).
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    #[inline]
    pub fn incident_edge_ids(&self, node: NodeId) -> &[EdgeId] {
        &self.edge_id[self.adjacency_range(node)]
    }

    /// Iterator over `(neighbor, edge id)` pairs incident to `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let range = self.adjacency_range(node);
        self.neighbor[range.clone()]
            .iter()
            .copied()
            .zip(self.edge_id[range].iter().copied())
    }

    /// Looks up the edge id connecting `a` and `b`, if any.
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        if a.index() >= self.node_count() || b.index() >= self.node_count() {
            return None;
        }
        // Scan the smaller adjacency slice.
        let (from, to) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        let pos = self.neighbor_ids(from).iter().position(|&n| n == to)?;
        Some(self.incident_edge_ids(from)[pos])
    }

    /// Returns `true` if nodes `a` and `b` are adjacent.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.edge_between(a, b).is_some()
    }

    /// The CSR slot offsets: `slot_offsets()[v]..slot_offsets()[v + 1]`
    /// are node `v`'s slots, one per incident edge in the order of
    /// [`Graph::neighbor_ids`]. Length `node_count + 1`, ascending.
    #[inline]
    pub fn slot_offsets(&self) -> &[u32] {
        &self.first_out
    }

    /// The reverse of a CSR slot: for slot `slot` of node `v`, the entry
    /// `k` of `v`'s adjacency pointing at `w`, the slot of `w` whose entry
    /// points back at `v`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below `2 · edge_count`.
    #[inline]
    pub fn reverse_slot(&self, slot: usize) -> usize {
        self.reverse[slot] as usize
    }

    /// Maximum degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.first_out
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(
            3,
            &[
                (NodeId::new(0), NodeId::new(1)),
                (NodeId::new(1), NodeId::new(2)),
                (NodeId::new(2), NodeId::new(0)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn edge_normalizes_endpoints() {
        let e = Edge::new(NodeId::new(5), NodeId::new(2));
        assert_eq!(e.u, NodeId::new(2));
        assert_eq!(e.v, NodeId::new(5));
        assert_eq!(e.other(NodeId::new(2)), NodeId::new(5));
        assert_eq!(e.other(NodeId::new(5)), NodeId::new(2));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        Edge::new(NodeId::new(0), NodeId::new(1)).other(NodeId::new(2));
    }

    #[test]
    fn triangle_counts_and_adjacency() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(NodeId::new(0)), 2);
        assert_eq!(g.max_degree(), 2);
        assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(0)));
        let neighbors: Vec<NodeId> = g.neighbors(NodeId::new(1)).map(|(n, _)| n).collect();
        assert_eq!(neighbors.len(), 2);
        assert!(neighbors.contains(&NodeId::new(0)));
        assert!(neighbors.contains(&NodeId::new(2)));
    }

    #[test]
    fn csr_slices_are_parallel_and_in_insertion_order() {
        let g = triangle();
        // Node 0 gains edge e0 (to node 1) first and e2 (to node 2) second.
        assert_eq!(
            g.neighbor_ids(NodeId::new(0)),
            &[NodeId::new(1), NodeId::new(2)]
        );
        assert_eq!(
            g.incident_edge_ids(NodeId::new(0)),
            &[EdgeId::new(0), EdgeId::new(2)]
        );
        for v in g.nodes() {
            assert_eq!(g.neighbor_ids(v).len(), g.degree(v));
            let pairs: Vec<(NodeId, EdgeId)> = g.neighbors(v).collect();
            for (k, &(n, e)) in pairs.iter().enumerate() {
                assert_eq!(g.neighbor_ids(v)[k], n);
                assert_eq!(g.incident_edge_ids(v)[k], e);
                assert_eq!(g.edge(e).other(v), n);
                // The reverse slot is `n`'s entry for the same edge back to
                // `v`, and reversing it returns to `v`'s slot.
                let slot = g.slot_offsets()[v.index()] as usize + k;
                let back = g.reverse_slot(slot);
                let start = g.slot_offsets()[n.index()] as usize;
                assert_eq!(g.neighbor_ids(n)[back - start], v);
                assert_eq!(g.incident_edge_ids(n)[back - start], e);
                assert_eq!(g.reverse_slot(back), slot);
            }
        }
    }

    #[test]
    fn edge_between_returns_consistent_id() {
        let g = triangle();
        let id = g.edge_between(NodeId::new(2), NodeId::new(1)).unwrap();
        let e = g.edge(id);
        assert_eq!(e, Edge::new(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(2, &[(NodeId::new(1), NodeId::new(1))]).unwrap_err();
        assert_eq!(
            err,
            GraphError::SelfLoop {
                node: NodeId::new(1)
            }
        );
    }

    #[test]
    fn rejects_duplicate_edge_in_either_orientation() {
        let err = Graph::from_edges(
            3,
            &[
                (NodeId::new(0), NodeId::new(1)),
                (NodeId::new(1), NodeId::new(0)),
            ],
        )
        .unwrap_err();
        assert_eq!(
            err,
            GraphError::DuplicateEdge {
                u: NodeId::new(0),
                v: NodeId::new(1)
            }
        );
    }

    #[test]
    fn rejects_duplicate_edge_among_many() {
        // The duplicate is buried in the middle; the sort-based detector
        // still names its normalized endpoints.
        let err = Graph::from_edges(
            5,
            &[
                (NodeId::new(0), NodeId::new(1)),
                (NodeId::new(3), NodeId::new(2)),
                (NodeId::new(1), NodeId::new(4)),
                (NodeId::new(2), NodeId::new(3)),
            ],
        )
        .unwrap_err();
        assert_eq!(
            err,
            GraphError::DuplicateEdge {
                u: NodeId::new(2),
                v: NodeId::new(3)
            }
        );
    }

    #[test]
    fn rejects_out_of_range_endpoint() {
        let err = Graph::from_edges(2, &[(NodeId::new(0), NodeId::new(2))]).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: NodeId::new(2),
                node_count: 2
            }
        );
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn edges_iterator_yields_ids_in_insertion_order() {
        let g = triangle();
        let collected: Vec<(EdgeId, Edge)> = g.edges().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[0].0, EdgeId::new(0));
        assert_eq!(collected[2].0, EdgeId::new(2));
    }
}
