//! Per-node protocol interface.

use lcs_graph::{EdgeId, NodeId};

/// Static information a node knows about itself at wake-up time.
///
/// This mirrors the paper's model: "initially, nodes only know their
/// immediate neighbors" plus a polynomially tight bound on `n` (needed to
/// size `O(log n)`-bit messages).
///
/// The neighbor lists are borrowed directly from the graph's CSR arrays —
/// the simulator hands every node a view into the same flat memory instead
/// of cloning one `Vec` per node per run.
#[derive(Debug, Clone, Copy)]
pub struct NodeContext<'g> {
    /// This node's identifier.
    pub node: NodeId,
    /// Adjacent node ids (parallel to `edges`).
    neighbors: &'g [NodeId],
    /// Incident edge ids (parallel to `neighbors`).
    edges: &'g [EdgeId],
    /// A publicly known upper bound on the number of nodes in the network.
    pub node_count_bound: usize,
}

impl<'g> NodeContext<'g> {
    /// Creates a context from parallel neighbor/edge slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn new(
        node: NodeId,
        neighbors: &'g [NodeId],
        edges: &'g [EdgeId],
        node_count_bound: usize,
    ) -> Self {
        assert_eq!(
            neighbors.len(),
            edges.len(),
            "neighbor and edge slices must be parallel"
        );
        NodeContext {
            node,
            neighbors,
            edges,
            node_count_bound,
        }
    }

    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Adjacent node ids, in edge-insertion order (parallel to
    /// [`NodeContext::incident_edge_ids`]).
    pub fn neighbor_ids(&self) -> &'g [NodeId] {
        self.neighbors
    }

    /// Incident edge ids (parallel to [`NodeContext::neighbor_ids`]).
    pub fn incident_edge_ids(&self) -> &'g [EdgeId] {
        self.edges
    }

    /// Iterator over adjacent `(neighbor, edge)` pairs.
    pub fn neighbors(&self) -> impl Iterator<Item = (NodeId, EdgeId)> + 'g {
        self.neighbors
            .iter()
            .copied()
            .zip(self.edges.iter().copied())
    }

    /// Position of `neighbor` in the adjacency slices, if adjacent.
    pub fn position_of(&self, neighbor: NodeId) -> Option<usize> {
        self.neighbors.iter().position(|&v| v == neighbor)
    }

    /// Returns the edge towards `neighbor`, if adjacent.
    pub fn edge_to(&self, neighbor: NodeId) -> Option<EdgeId> {
        self.position_of(neighbor).map(|i| self.edges[i])
    }
}

/// A message being sent by a node during a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing<M> {
    /// The neighbor the message is addressed to.
    pub to: NodeId,
    /// The message payload.
    pub msg: M,
}

impl<M> Outgoing<M> {
    /// Convenience constructor.
    pub fn new(to: NodeId, msg: M) -> Self {
        Outgoing { to, msg }
    }
}

/// A message received by a node at the start of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incoming<M> {
    /// The neighbor the message came from.
    pub from: NodeId,
    /// The edge it traveled over.
    pub edge: EdgeId,
    /// The message payload.
    pub msg: M,
}

/// A per-node state machine executed by the [`crate::Simulator`].
///
/// The simulator calls [`NodeProtocol::init`] once for every node before the
/// first round and then [`NodeProtocol::on_round`] every round the node is
/// *scheduled*, passing the messages delivered to the node in that round.
/// Execution stops when every node reports [`NodeProtocol::is_done`] and no
/// messages are in flight.
///
/// **Outbox contract:** both calls send by pushing onto `out`, a buffer the
/// engine owns and reuses for every poll. It arrives empty; after the call
/// the engine validates and posts its messages in push order and leaves it
/// empty again, so a protocol never allocates to send.
pub trait NodeProtocol {
    /// The message type exchanged by this protocol.
    type Message: Clone + crate::MessageBits;

    /// Called once before round 1; may already send messages by pushing
    /// them onto `out` (empty on entry, posted in push order).
    fn init(&mut self, ctx: &NodeContext<'_>, out: &mut Vec<Outgoing<Self::Message>>);

    /// Called once per scheduled round with all messages delivered this
    /// round; sends by pushing onto `out` (empty on entry, posted in push
    /// order).
    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        round: u64,
        incoming: &[Incoming<Self::Message>],
        out: &mut Vec<Outgoing<Self::Message>>,
    );

    /// Whether this node has reached a quiescent state. A quiescent node may
    /// still be woken again by incoming messages in later rounds.
    ///
    /// **Scheduling contract:** the simulator does not poll a node that
    /// reported `is_done()` after its last `init`/`on_round` call until a
    /// message arrives for it. Reporting done therefore promises that, absent
    /// incoming messages, the node will neither send nor change observable
    /// state in any later round — quiescence must be message-driven, not
    /// round-driven. (This is what makes skipping idle nodes a pure speed
    /// optimization: polling a done node with an empty inbox must be a
    /// no-op anyway.)
    fn is_done(&self) -> bool;

    /// Scheduling hint for a node that is *not* done: the earliest future
    /// round at which it may act on its own (send a message or change
    /// observable state) without first receiving one. Called after every
    /// `init`/`on_round` while `is_done()` is `false`; `now` is the round
    /// that was just executed (`0` for `init`).
    ///
    /// * `None` (the default) — poll again next round, the classic
    ///   synchronous behavior. Always correct.
    /// * `Some(r)` with `r > now` — the node promises that, absent incoming
    ///   messages, polling it in rounds `now + 1 .. r` is a no-op; the
    ///   simulator skips those polls. An incoming message still wakes it
    ///   immediately, and a spurious early wake must be harmless (the hint
    ///   is an optimization, never a correctness lever: all emissions must
    ///   be gated on the round number or on node state, not on "I was
    ///   polled exactly when I asked").
    ///
    /// Round-driven protocols (the `lcs_dist` superstep engine) use this to
    /// sleep through the bulk of each window; message-driven protocols never
    /// need to implement it.
    fn next_wake(&self, now: u64) -> Option<u64> {
        let _ = now;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_context_lookup() {
        let neighbors = [NodeId::new(1), NodeId::new(5)];
        let edges = [EdgeId::new(0), EdgeId::new(7)];
        let ctx = NodeContext::new(NodeId::new(3), &neighbors, &edges, 10);
        assert_eq!(ctx.degree(), 2);
        assert_eq!(ctx.edge_to(NodeId::new(5)), Some(EdgeId::new(7)));
        assert_eq!(ctx.edge_to(NodeId::new(2)), None);
        assert_eq!(ctx.position_of(NodeId::new(1)), Some(0));
        let pairs: Vec<(NodeId, EdgeId)> = ctx.neighbors().collect();
        assert_eq!(
            pairs,
            vec![
                (NodeId::new(1), EdgeId::new(0)),
                (NodeId::new(5), EdgeId::new(7))
            ]
        );
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn node_context_rejects_mismatched_slices() {
        let neighbors = [NodeId::new(1)];
        let _ = NodeContext::new(NodeId::new(0), &neighbors, &[], 2);
    }

    #[test]
    fn outgoing_constructor() {
        let out = Outgoing::new(NodeId::new(2), 7u32);
        assert_eq!(out.to, NodeId::new(2));
        assert_eq!(out.msg, 7);
    }
}
