//! Distributed breadth-first-search tree construction.
//!
//! The standard `O(D)`-round flood: the root announces level 0; every node
//! adopts the first announcement it hears as its parent and re-announces its
//! own level in the next round. The shortcut framework runs this once to fix
//! the spanning tree `T` (Section 5.2 of the paper: "Computing a BFS tree
//! `T` … is a standard subroutine and can be computed in `O(D)` rounds").

use lcs_graph::{Graph, NodeId};

use crate::{Incoming, NodeContext, NodeProtocol, Outgoing, SimStats, Simulator};

/// Per-node state of the BFS protocol.
#[derive(Debug, Clone)]
pub struct DistributedBfs {
    root: NodeId,
    /// Depth of this node once joined.
    depth: Option<u32>,
    /// Chosen parent once joined (`None` for the root).
    parent: Option<NodeId>,
    /// Whether the node still has to announce its level.
    must_announce: bool,
}

/// Result of running [`DistributedBfs`] on a graph.
#[derive(Debug, Clone)]
pub struct BfsOutcome {
    /// The root the tree was grown from.
    pub root: NodeId,
    /// BFS depth of every node (indexed by node id).
    pub depths: Vec<u32>,
    /// BFS parent of every node (`None` for the root), indexed by node id.
    pub parents: Vec<Option<NodeId>>,
    /// Simulation statistics (the protocol terminates in `eccentricity + 1`
    /// rounds).
    pub stats: SimStats,
}

impl DistributedBfs {
    /// Runs the protocol on the simulator's graph from `root` and collects
    /// the distributed outputs into a [`BfsOutcome`].
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (the protocol itself never violates the
    /// CONGEST constraints) and reports a protocol error if the graph is
    /// disconnected.
    pub fn run(sim: &Simulator<'_>, root: NodeId) -> crate::Result<BfsOutcome> {
        let outcome = sim.run(|ctx| DistributedBfs {
            root,
            depth: if ctx.node == root { Some(0) } else { None },
            parent: None,
            must_announce: ctx.node == root,
        })?;
        let mut depths = Vec::with_capacity(outcome.nodes.len());
        let mut parents = Vec::with_capacity(outcome.nodes.len());
        for (i, node) in outcome.nodes.iter().enumerate() {
            let depth = node.depth.ok_or_else(|| crate::SimError::Protocol {
                reason: format!("node v{i} was never reached; the graph is disconnected"),
            })?;
            depths.push(depth);
            parents.push(node.parent);
        }
        Ok(BfsOutcome {
            root,
            depths,
            parents,
            stats: outcome.stats,
        })
    }

    /// Convenience wrapper: build a simulator with the default configuration
    /// and run the protocol.
    ///
    /// # Errors
    ///
    /// Same as [`DistributedBfs::run`].
    pub fn run_on(graph: &Graph, root: NodeId) -> crate::Result<BfsOutcome> {
        let sim = Simulator::new(graph, crate::SimConfig::for_graph(graph));
        Self::run(&sim, root)
    }
}

impl NodeProtocol for DistributedBfs {
    type Message = u32;

    fn init(&mut self, ctx: &NodeContext<'_>, out: &mut Vec<Outgoing<u32>>) {
        if ctx.node == self.root {
            self.must_announce = false;
            out.extend(ctx.neighbor_ids().iter().map(|&v| Outgoing::new(v, 0)));
        }
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        _round: u64,
        incoming: &[Incoming<u32>],
        out: &mut Vec<Outgoing<u32>>,
    ) {
        if self.depth.is_none() {
            // Adopt the first (and therefore smallest-level) announcement;
            // ties are broken by the smallest sender id for determinism.
            if let Some(best) = incoming.iter().min_by_key(|m| (m.msg, m.from)) {
                self.depth = Some(best.msg + 1);
                self.parent = Some(best.from);
                self.must_announce = true;
            }
        }
        if self.must_announce {
            self.must_announce = false;
            let level = self.depth.expect("announcing nodes have joined");
            out.extend(
                ctx.neighbor_ids()
                    .iter()
                    .filter(|&&v| Some(v) != self.parent)
                    .map(|&v| Outgoing::new(v, level)),
            );
        }
    }

    fn is_done(&self) -> bool {
        self.depth.is_some() && !self.must_announce
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{bfs_distances, generators, RootedTree};

    #[test]
    fn bfs_depths_match_centralized_reference() {
        let g = generators::grid(7, 5);
        let root = NodeId::new(17);
        let outcome = DistributedBfs::run_on(&g, root).unwrap();
        let reference = bfs_distances(&g, root);
        for v in g.nodes() {
            assert_eq!(Some(outcome.depths[v.index()]), reference.dist[v.index()]);
        }
        assert_eq!(outcome.parents[root.index()], None);
    }

    #[test]
    fn bfs_parents_form_a_valid_tree() {
        let g = generators::torus(6, 6);
        let root = NodeId::new(0);
        let outcome = DistributedBfs::run_on(&g, root).unwrap();
        for v in g.nodes() {
            match outcome.parents[v.index()] {
                Some(p) => {
                    assert!(g.has_edge(v, p));
                    assert_eq!(outcome.depths[v.index()], outcome.depths[p.index()] + 1);
                }
                None => assert_eq!(v, root),
            }
        }
    }

    #[test]
    fn bfs_round_count_is_linear_in_eccentricity() {
        let g = generators::path(40);
        let outcome = DistributedBfs::run_on(&g, NodeId::new(0)).unwrap();
        // The wave reaches depth d in round d, so the protocol quiesces in
        // exactly eccentricity(root) rounds.
        assert_eq!(outcome.stats.rounds, 39);
        let tree = RootedTree::bfs(&g, NodeId::new(0));
        assert_eq!(
            outcome.depths.iter().copied().max().unwrap(),
            tree.depth_of_tree()
        );
    }

    #[test]
    fn bfs_on_disconnected_graph_reports_an_error() {
        // The unreachable node never joins the tree, so the protocol never
        // quiesces and the round cap fires.
        let g = lcs_graph::Graph::from_edges(3, &[(NodeId::new(0), NodeId::new(1))]).unwrap();
        let err = DistributedBfs::run_on(&g, NodeId::new(0)).unwrap_err();
        assert!(matches!(err, crate::SimError::RoundLimitExceeded { .. }));
    }

    #[test]
    fn bfs_message_count_is_bounded_by_twice_edge_count() {
        let g = generators::grid(10, 10);
        let outcome = DistributedBfs::run_on(&g, NodeId::new(0)).unwrap();
        // Every node announces once over each incident edge except towards
        // its parent, so at most 2m messages total.
        assert!(outcome.stats.messages <= 2 * g.edge_count() as u64);
    }
}
