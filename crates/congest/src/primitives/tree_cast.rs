//! Convergecast and broadcast along a fixed rooted tree.
//!
//! Given an already-computed rooted spanning tree, a convergecast aggregates
//! one `O(log n)`-bit value per node up to the root in `depth(T)` rounds
//! (values are combined with an associative, commutative operator on the
//! way), and a broadcast pushes one value from the root to every node in
//! `depth(T)` rounds. These are the `O(D)` "coordination" steps that the
//! shortcut construction of the paper performs between its iterations
//! ("the check can be executed via a `O(D)` convergecast on the entire tree
//! `T`").

use lcs_graph::{Graph, NodeId, RootedTree};

use crate::{Incoming, NodeContext, NodeProtocol, Outgoing, SimConfig, SimStats, Simulator};

/// Associative, commutative operators available for tree aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateOp {
    /// Sum of the values.
    Sum,
    /// Minimum of the values.
    Min,
    /// Maximum of the values.
    Max,
}

impl AggregateOp {
    /// Applies the operator to two values.
    pub fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            AggregateOp::Sum => a + b,
            AggregateOp::Min => a.min(b),
            AggregateOp::Max => a.max(b),
        }
    }
}

/// Per-node state of the convergecast protocol.
#[derive(Debug, Clone)]
struct ConvergecastNode {
    parent: Option<NodeId>,
    pending_children: usize,
    accumulator: u64,
    op: AggregateOp,
    sent: bool,
}

impl NodeProtocol for ConvergecastNode {
    type Message = u64;

    fn init(&mut self, _ctx: &NodeContext, out: &mut Vec<Outgoing<u64>>) {
        self.maybe_send(out);
    }

    fn on_round(
        &mut self,
        _ctx: &NodeContext,
        _round: u64,
        incoming: &[Incoming<u64>],
        out: &mut Vec<Outgoing<u64>>,
    ) {
        for msg in incoming {
            self.accumulator = self.op.combine(self.accumulator, msg.msg);
            self.pending_children -= 1;
        }
        self.maybe_send(out);
    }

    fn is_done(&self) -> bool {
        self.pending_children == 0 && (self.sent || self.parent.is_none())
    }
}

impl ConvergecastNode {
    fn maybe_send(&mut self, out: &mut Vec<Outgoing<u64>>) {
        if self.pending_children == 0 && !self.sent {
            if let Some(parent) = self.parent {
                self.sent = true;
                out.push(Outgoing::new(parent, self.accumulator));
            }
        }
    }
}

/// Result of a tree aggregation.
#[derive(Debug, Clone)]
pub struct TreeAggregateOutcome {
    /// The aggregate of all node values, available at the root.
    pub value: u64,
    /// Simulation statistics (the protocol takes `depth(T) + 1` rounds on a
    /// nontrivial tree).
    pub stats: SimStats,
}

/// Aggregates `values[v]` over all nodes `v` up the tree to the root using
/// `op`, exactly as a distributed convergecast would.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if `values.len()` differs from the graph's node count.
pub fn tree_aggregate(
    graph: &Graph,
    tree: &RootedTree,
    values: &[u64],
    op: AggregateOp,
) -> crate::Result<TreeAggregateOutcome> {
    assert_eq!(
        values.len(),
        graph.node_count(),
        "one value per node is required"
    );
    let sim = Simulator::new(graph, SimConfig::for_graph(graph));
    let outcome = sim.run(|ctx| ConvergecastNode {
        parent: tree.parent(ctx.node),
        pending_children: tree.children(ctx.node).len(),
        accumulator: values[ctx.node.index()],
        op,
        sent: false,
    })?;
    let value = outcome.nodes[tree.root().index()].accumulator;
    Ok(TreeAggregateOutcome {
        value,
        stats: outcome.stats,
    })
}

/// Per-node state of the broadcast protocol.
#[derive(Debug, Clone)]
struct BroadcastNode {
    children: Vec<NodeId>,
    received: Option<u64>,
    forwarded: bool,
}

impl NodeProtocol for BroadcastNode {
    type Message = u64;

    fn init(&mut self, _ctx: &NodeContext, out: &mut Vec<Outgoing<u64>>) {
        self.maybe_forward(out);
    }

    fn on_round(
        &mut self,
        _ctx: &NodeContext,
        _round: u64,
        incoming: &[Incoming<u64>],
        out: &mut Vec<Outgoing<u64>>,
    ) {
        if let Some(first) = incoming.first() {
            self.received.get_or_insert(first.msg);
        }
        self.maybe_forward(out);
    }

    fn is_done(&self) -> bool {
        self.received.is_some() && self.forwarded
    }
}

impl BroadcastNode {
    fn maybe_forward(&mut self, out: &mut Vec<Outgoing<u64>>) {
        if let (Some(value), false) = (self.received, self.forwarded) {
            self.forwarded = true;
            out.extend(self.children.iter().map(|&c| Outgoing::new(c, value)));
        }
    }
}

/// Result of a tree broadcast.
#[derive(Debug, Clone)]
pub struct TreeBroadcastOutcome {
    /// The value received by every node (indexed by node id); equal to the
    /// broadcast value everywhere.
    pub received: Vec<u64>,
    /// Simulation statistics (the protocol takes `depth(T)` rounds).
    pub stats: SimStats,
}

/// Broadcasts `value` from the root of `tree` to every node.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn tree_broadcast(
    graph: &Graph,
    tree: &RootedTree,
    value: u64,
) -> crate::Result<TreeBroadcastOutcome> {
    let sim = Simulator::new(graph, SimConfig::for_graph(graph));
    let outcome = sim.run(|ctx| BroadcastNode {
        children: tree.children(ctx.node).to_vec(),
        received: if ctx.node == tree.root() {
            Some(value)
        } else {
            None
        },
        forwarded: false,
    })?;
    let received = outcome
        .nodes
        .iter()
        .map(|n| n.received.unwrap_or(0))
        .collect();
    Ok(TreeBroadcastOutcome {
        received,
        stats: outcome.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::generators;

    fn setup(rows: usize, cols: usize) -> (Graph, RootedTree) {
        let g = generators::grid(rows, cols);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        (g, t)
    }

    #[test]
    fn sum_aggregation_matches_arithmetic() {
        let (g, t) = setup(6, 6);
        let values: Vec<u64> = (0..g.node_count() as u64).collect();
        let outcome = tree_aggregate(&g, &t, &values, AggregateOp::Sum).unwrap();
        assert_eq!(outcome.value, (0..36u64).sum());
        // Convergecast completes within depth + 1 rounds.
        assert!(outcome.stats.rounds <= u64::from(t.depth_of_tree()) + 1);
    }

    #[test]
    fn min_and_max_aggregation() {
        let (g, t) = setup(4, 9);
        let values: Vec<u64> = (0..g.node_count() as u64).map(|v| 1000 - v).collect();
        assert_eq!(
            tree_aggregate(&g, &t, &values, AggregateOp::Min)
                .unwrap()
                .value,
            1000 - 35
        );
        assert_eq!(
            tree_aggregate(&g, &t, &values, AggregateOp::Max)
                .unwrap()
                .value,
            1000
        );
    }

    #[test]
    fn aggregation_message_count_is_one_per_non_root_node() {
        let (g, t) = setup(5, 5);
        let values = vec![1u64; g.node_count()];
        let outcome = tree_aggregate(&g, &t, &values, AggregateOp::Sum).unwrap();
        assert_eq!(outcome.value, 25);
        assert_eq!(outcome.stats.messages, (g.node_count() - 1) as u64);
    }

    #[test]
    fn broadcast_reaches_every_node_in_depth_rounds() {
        let (g, t) = setup(8, 3);
        let outcome = tree_broadcast(&g, &t, 42).unwrap();
        assert!(outcome.received.iter().all(|&v| v == 42));
        assert_eq!(outcome.stats.rounds, u64::from(t.depth_of_tree()));
        assert_eq!(outcome.stats.messages, (g.node_count() - 1) as u64);
    }

    #[test]
    fn single_node_tree_aggregate_and_broadcast() {
        let g = lcs_graph::Graph::from_edges(1, &[]).unwrap();
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let agg = tree_aggregate(&g, &t, &[7], AggregateOp::Sum).unwrap();
        assert_eq!(agg.value, 7);
        assert_eq!(agg.stats.rounds, 0);
        let bc = tree_broadcast(&g, &t, 9).unwrap();
        assert_eq!(bc.received, vec![9]);
    }

    #[test]
    #[should_panic(expected = "one value per node")]
    fn aggregate_requires_one_value_per_node() {
        let (g, t) = setup(3, 3);
        let _ = tree_aggregate(&g, &t, &[1, 2, 3], AggregateOp::Sum);
    }
}
