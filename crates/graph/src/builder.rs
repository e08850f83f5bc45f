//! Incremental graph construction.

use std::collections::HashSet;

use crate::graph::Edge;
use crate::{Graph, GraphError, NodeId, Result};

/// Incremental builder for [`Graph`].
///
/// The builder tolerates edges being added before their endpoints exist (it
/// grows the node count as needed) and silently ignores exact duplicate
/// edges, which makes writing generators much less error-prone than the
/// strict [`Graph::from_edges`] constructor.
///
/// # Example
///
/// ```
/// use lcs_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new();
/// let u = b.add_node();
/// let v = b.add_node();
/// b.add_edge(u, v).unwrap();
/// let graph = b.build();
/// assert_eq!(graph.node_count(), 2);
/// assert_eq!(graph.edge_count(), 1);
/// assert!(graph.has_edge(NodeId::new(0), NodeId::new(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<Edge>,
    seen: HashSet<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with `node_count` isolated nodes and room for
    /// `edge_capacity` edges. Generators that know their exact edge count
    /// use this to avoid reallocation during construction.
    pub fn with_capacity(node_count: usize, edge_capacity: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: Vec::with_capacity(edge_capacity),
            seen: HashSet::with_capacity(edge_capacity),
        }
    }

    /// Adds a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.node_count);
        self.node_count += 1;
        id
    }

    /// Ensures the builder has at least `count` nodes.
    pub fn ensure_nodes(&mut self, count: usize) {
        self.node_count = self.node_count.max(count);
    }

    /// Current number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Current number of (distinct) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge, growing the node count if necessary.
    ///
    /// Duplicate edges are ignored; the call still succeeds.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `a == b`.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<()> {
        if a == b {
            return Err(GraphError::SelfLoop { node: a });
        }
        self.ensure_nodes(a.index().max(b.index()) + 1);
        let edge = Edge::new(a, b);
        if self.seen.insert((edge.u, edge.v)) {
            self.edges.push(edge);
        }
        Ok(())
    }

    /// Returns `true` if the (undirected) edge is already present.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.seen.contains(&key)
    }

    /// Finalizes the builder into an immutable [`Graph`].
    ///
    /// The builder has already normalized and deduplicated its edges, so
    /// this goes straight to the CSR construction without re-validating.
    pub fn build(self) -> Graph {
        Graph::from_deduped_edges(self.node_count, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_grows_nodes_on_demand() {
        let mut b = GraphBuilder::new();
        b.add_edge(NodeId::new(3), NodeId::new(7)).unwrap();
        assert_eq!(b.node_count(), 8);
        let g = b.build();
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut b = GraphBuilder::with_capacity(2, 2);
        b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        b.add_edge(NodeId::new(1), NodeId::new(0)).unwrap();
        assert_eq!(b.edge_count(), 1);
        assert!(b.has_edge(NodeId::new(1), NodeId::new(0)));
        assert_eq!(b.build().edge_count(), 1);
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut b = GraphBuilder::with_capacity(1, 0);
        let err = b.add_edge(NodeId::new(0), NodeId::new(0)).unwrap_err();
        assert_eq!(
            err,
            GraphError::SelfLoop {
                node: NodeId::new(0)
            }
        );
    }

    #[test]
    fn with_capacity_creates_isolated_nodes() {
        let g = GraphBuilder::with_capacity(5, 3).build();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn add_node_returns_sequential_ids() {
        let mut b = GraphBuilder::new();
        assert_eq!(b.add_node(), NodeId::new(0));
        assert_eq!(b.add_node(), NodeId::new(1));
        assert_eq!(b.add_node(), NodeId::new(2));
    }
}
