//! Centralized graph traversals: BFS, connectivity, components.
//!
//! These are *reference* (sequential) algorithms. The distributed
//! counterparts live in `lcs-congest`; tests compare the two.

use std::collections::VecDeque;

use crate::{Graph, NodeId};

/// Result of a breadth-first search from a single source.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// `dist[v]` is the hop distance from the source, or `None` if `v` is
    /// unreachable.
    pub dist: Vec<Option<u32>>,
    /// `parent[v]` is the BFS-tree parent of `v`, or `None` for the source
    /// and unreachable nodes.
    pub parent: Vec<Option<NodeId>>,
    /// Nodes in the order they were dequeued (i.e. by nondecreasing
    /// distance).
    pub order: Vec<NodeId>,
}

impl BfsResult {
    /// Largest finite distance reached (the source's eccentricity within its
    /// component). Zero for a single-node component.
    pub fn max_distance(&self) -> u32 {
        self.dist.iter().flatten().copied().max().unwrap_or(0)
    }

    /// Number of nodes reachable from the source (including the source).
    pub fn reachable_count(&self) -> usize {
        self.order.len()
    }
}

/// Runs a breadth-first search from `source` over the whole graph.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs_distances(graph: &Graph, source: NodeId) -> BfsResult {
    bfs_filtered(graph, source, |_| true)
}

/// Runs a breadth-first search from `source` restricted to nodes for which
/// `allow` returns `true`. The source is always visited, even if `allow`
/// rejects it.
///
/// This is the primitive used to measure the diameter of an *induced*
/// subgraph `G[P_i]`, which is what the paper's notion of part diameter
/// refers to.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs_filtered<F>(graph: &Graph, source: NodeId, allow: F) -> BfsResult
where
    F: Fn(NodeId) -> bool,
{
    let n = graph.node_count();
    assert!(source.index() < n, "source {source} out of range");
    let mut dist = vec![None; n];
    let mut parent = vec![None; n];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();

    dist[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        let du = dist[u.index()].expect("queued nodes have distances");
        for (v, _) in graph.neighbors(u) {
            if dist[v.index()].is_none() && allow(v) {
                dist[v.index()] = Some(du + 1);
                parent[v.index()] = Some(u);
                queue.push_back(v);
            }
        }
    }

    BfsResult {
        dist,
        parent,
        order,
    }
}

/// Returns `true` if the graph is connected. The empty graph counts as
/// connected.
pub fn is_connected(graph: &Graph) -> bool {
    if graph.node_count() == 0 {
        return true;
    }
    bfs_distances(graph, NodeId::new(0)).reachable_count() == graph.node_count()
}

/// Computes connected components.
///
/// Returns `(component_of, component_count)` where `component_of[v]` is a
/// dense component index in `0..component_count`.
pub fn connected_components(graph: &Graph) -> (Vec<usize>, usize) {
    let n = graph.node_count();
    let mut component_of = vec![usize::MAX; n];
    let mut count = 0;
    for start in graph.nodes() {
        if component_of[start.index()] != usize::MAX {
            continue;
        }
        let result = bfs_distances(graph, start);
        for v in result.order {
            component_of[v.index()] = count;
        }
        count += 1;
    }
    (component_of, count)
}

/// Returns `true` if the node set `nodes` induces a connected subgraph of
/// `graph`. An empty set is considered *not* connected (the paper requires
/// parts to be nonempty).
pub fn induces_connected_subgraph(graph: &Graph, nodes: &[NodeId]) -> bool {
    if nodes.is_empty() {
        return false;
    }
    let mut member = vec![false; graph.node_count()];
    for &v in nodes {
        member[v.index()] = true;
    }
    let result = bfs_filtered(graph, nodes[0], |v| member[v.index()]);
    nodes.iter().all(|v| result.dist[v.index()].is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path_gives_linear_distances() {
        let g = generators::path(5);
        let r = bfs_distances(&g, NodeId::new(0));
        assert_eq!(r.dist[4], Some(4));
        assert_eq!(r.max_distance(), 4);
        assert_eq!(r.reachable_count(), 5);
        assert_eq!(r.parent[0], None);
        assert_eq!(r.parent[1], Some(NodeId::new(0)));
        assert_eq!(r.order[0], NodeId::new(0));
    }

    #[test]
    fn bfs_order_has_nondecreasing_distance() {
        let g = generators::grid(5, 7);
        let r = bfs_distances(&g, NodeId::new(3));
        let mut last = 0;
        for v in &r.order {
            let d = r.dist[v.index()].unwrap();
            assert!(d >= last);
            last = d;
        }
    }

    #[test]
    fn connectivity_of_grid_and_disjoint_union() {
        let g = generators::grid(4, 4);
        assert!(is_connected(&g));

        // Two isolated nodes are not connected.
        let g2 = crate::Graph::from_edges(2, &[]).unwrap();
        assert!(!is_connected(&g2));
        let (comp, count) = connected_components(&g2);
        assert_eq!(count, 2);
        assert_ne!(comp[0], comp[1]);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = crate::Graph::from_edges(0, &[]).unwrap();
        assert!(is_connected(&g));
        assert_eq!(connected_components(&g).1, 0);
    }

    #[test]
    fn filtered_bfs_respects_mask() {
        // Path 0-1-2-3-4, disallow node 2: node 4 unreachable from 0.
        let g = generators::path(5);
        let r = bfs_filtered(&g, NodeId::new(0), |v| v.index() != 2);
        assert!(r.dist[4].is_none());
        assert_eq!(r.reachable_count(), 2);
    }

    #[test]
    fn induced_connectivity() {
        let g = generators::grid(3, 3);
        // Left column: nodes 0, 3, 6 in row-major indexing — connected.
        let col = vec![NodeId::new(0), NodeId::new(3), NodeId::new(6)];
        assert!(induces_connected_subgraph(&g, &col));
        // Two opposite corners are not connected without the rest.
        let corners = vec![NodeId::new(0), NodeId::new(8)];
        assert!(!induces_connected_subgraph(&g, &corners));
        assert!(!induces_connected_subgraph(&g, &[]));
    }
}
