//! Lemma 2 as message passing: part-parallel block convergecast over a
//! tree-restricted shortcut.
//!
//! [`block_convergecast`] aggregates one optional value per part member up
//! to each block's root, every block of the family in parallel, forwarding
//! with the `BlockRootDepth` priority. Because the greedy rule is exactly
//! the schedule `lcs_core`'s Lemma 2 scheduler simulates centrally
//! ([`BlockFamily::schedule`]), the executed round count *equals* the
//! scheduled one (and is therefore within the Lemma 2 bound `D + c`).

use lcs_congest::{SimConfig, SimStats};
use lcs_graph::{Graph, LcsResult};

use crate::engine::{run_engine, EngineSpec, NodeProgram, NodeView};
use crate::invariant_violated;
use crate::knowledge::{BlockFamily, NodeInfo};

/// Associative, commutative operators a block cast aggregates with.
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

/// Result of a family-wide convergecast.
#[derive(Debug, Clone)]
pub struct BlockCastOutcome {
    /// Aggregate per family block (`None` when no member carried a value).
    pub per_block: Vec<Option<u64>>,
    /// Simulation statistics of the executed protocol.
    pub stats: SimStats,
}

/// One node's program: contribute the node's value to its own-part block,
/// combine with the aggregation operator, remember what was agreed.
#[derive(Debug, Clone)]
struct CastProgram {
    value: Option<u64>,
    op: AggregateOp,
    /// `(membership index, agreed)` pairs recorded by this node.
    agreed: Vec<(usize, Option<u64>)>,
}

impl NodeProgram for CastProgram {
    type Val = Option<u64>;
    type Cross = ();

    fn contribution(&mut self, _view: NodeView<'_>, own: bool, _step: u64) -> Option<u64> {
        if own {
            self.value
        } else {
            None
        }
    }

    fn combine(&self, _step: u64, a: &Option<u64>, b: &Option<u64>) -> Option<u64> {
        match (a, b) {
            (Some(x), Some(y)) => Some(self.op.combine(*x, *y)),
            (Some(x), None) | (None, Some(x)) => Some(*x),
            (None, None) => None,
        }
    }

    fn on_agreed(
        &mut self,
        _view: NodeView<'_>,
        member: usize,
        _own: bool,
        val: &Option<u64>,
        _step: u64,
    ) {
        self.agreed.push((member, *val));
    }

    fn cross_message(&mut self, _to: lcs_graph::NodeId, _step: u64) -> Option<()> {
        None
    }

    fn on_cross(&mut self, _view: NodeView<'_>, _from: lcs_graph::NodeId, _msg: (), _step: u64) {}

    fn val_bits(&self) -> usize {
        1 + 64
    }

    fn cross_bits(&self) -> usize {
        1
    }
}

/// Runs the Lemma 2 parallel convergecast as real message passing: one
/// optional `u64` per node, combined with `op` within each node's own-part
/// block, aggregate delivered to every block root.
///
/// The executed round count equals the exact centralized schedule length
/// ([`BlockFamily::schedule`]) and therefore respects `D + c`.
///
/// # Errors
///
/// Simulator errors as [`lcs_graph::LcsError::Simulation`]; a protocol
/// invariant violation ([`lcs_graph::LcsError::Protocol`]) if a block root
/// ends without an aggregate.
///
/// # Panics
///
/// Panics if `values.len()` differs from the graph's node count.
pub fn block_convergecast(
    graph: &Graph,
    family: &BlockFamily,
    values: &[Option<u64>],
    op: AggregateOp,
    config: Option<SimConfig>,
) -> LcsResult<BlockCastOutcome> {
    assert_eq!(
        values.len(),
        graph.node_count(),
        "one optional value per node is required"
    );
    let spec = EngineSpec {
        steps: 1,
        broadcast_down: false,
        stretch: 1,
    };
    let obs = lcs_obs::Obs::off();
    let outcome = run_engine(graph, family, spec, config, &obs, |info: &NodeInfo<'_>| {
        CastProgram {
            value: values[info.node.index()],
            op,
            agreed: Vec::new(),
        }
    })?;

    let per_block = (0..family.block_count())
        .map(|b_idx| {
            let root = family.block(b_idx).root;
            let m_idx = family
                .info(root)
                .memberships
                .iter()
                .position(|m| m.block == b_idx)
                .ok_or_else(|| {
                    invariant_violated(format!("block {b_idx} root lacks a membership"))
                })?;
            let agreed = outcome.nodes[root.index()]
                .agreed
                .iter()
                .find(|(i, _)| *i == m_idx)
                .ok_or_else(|| invariant_violated(format!("block {b_idx} root never agreed")))?;
            Ok(agreed.1)
        })
        .collect::<LcsResult<Vec<_>>>()?;
    Ok(BlockCastOutcome {
        per_block,
        stats: outcome.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_core::existential::ancestor_shortcut;
    use lcs_core::TreeShortcut;
    use lcs_graph::{generators, NodeId, Partition, RootedTree};

    fn grid_setup(side: usize) -> (Graph, RootedTree, Partition) {
        let g = generators::grid(side, side);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(side, side);
        (g, t, p)
    }

    #[test]
    fn convergecast_rounds_equal_the_exact_schedule() {
        let (g, t, p) = grid_setup(6);
        let s = ancestor_shortcut(&g, &t, &p);
        let family = BlockFamily::new(&g, &t, &p, &s);
        let ones: Vec<Option<u64>> = g.nodes().map(|v| p.part_of(v).map(|_| 1)).collect();
        let outcome = block_convergecast(&g, &family, &ones, AggregateOp::Sum, None).unwrap();
        assert_eq!(outcome.stats.rounds, family.schedule().rounds);
        assert!(outcome.stats.rounds <= family.lemma2_bound());
        // Each part is one block here, so the per-block sums are the part
        // sizes.
        assert_eq!(family.block_count(), p.part_count());
        for b_idx in 0..family.block_count() {
            let part = family.block(b_idx).part;
            assert_eq!(outcome.per_block[b_idx], Some(p.members(part).len() as u64));
        }
    }

    #[test]
    fn empty_shortcut_casts_are_free() {
        let (g, t, p) = grid_setup(4);
        let s = TreeShortcut::empty(&g, &p);
        let family = BlockFamily::new(&g, &t, &p, &s);
        let ones: Vec<Option<u64>> = g.nodes().map(|_| Some(1)).collect();
        let outcome = block_convergecast(&g, &family, &ones, AggregateOp::Sum, None).unwrap();
        assert_eq!(outcome.stats.rounds, 0);
        assert!(outcome.per_block.iter().all(|v| *v == Some(1)));
    }

    #[test]
    #[should_panic(expected = "one optional value per node")]
    fn convergecast_validates_input_length() {
        let (g, t, p) = grid_setup(4);
        let s = ancestor_shortcut(&g, &t, &p);
        let family = BlockFamily::new(&g, &t, &p, &s);
        let _ = block_convergecast(&g, &family, &[None], AggregateOp::Sum, None);
    }
}
