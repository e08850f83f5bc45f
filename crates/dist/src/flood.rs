//! Theorem 2 as message passing: part-wise minimum flooding.
//!
//! One value per part member; after `b` supersteps of intra-block agreement
//! (convergecast + reversed broadcast) interleaved with one round of
//! exchange over same-part graph edges, every member of every part knows
//! the minimum over its part. Flooding a minimum subsumes the Theorem 2
//! primitives this crate needs operationally:
//!
//! * **leader election** ([`part_leaders`]) — flood the member ids; the
//!   minimum is the leader every scheduled primitive elects;
//! * **minimum outgoing edge** ([`part_min_edges`]) — flood `(weight,
//!   edge)` pairs; the lexicographic minimum is the Boruvka phase result,
//!   already known to every member (aggregation and broadcast in one).
//!
//! The executed round count is at most `b·(2L + 1)`, the operational form
//! of the Theorem 2 `O(b(D + c))` bound (`L ≤ D + c` is the family's exact
//! Lemma 2 schedule length).

use lcs_congest::{bits_for_count, SimConfig, SimStats};
use lcs_graph::{EdgeId, Graph, LcsResult, NodeId, Partition};

use crate::engine::{run_epochs, Epoch, EpochRun, NodeProgram, NodeView};
use crate::invariant_violated;
use crate::knowledge::{BlockFamily, NodeInfo};

/// Per-part minimum-outgoing-edge candidates, as returned by
/// [`part_min_edges`].
pub type PartMinEdges = Vec<Option<(u64, EdgeId)>>;

/// Result of a part-wise minimum flood.
#[derive(Debug, Clone)]
pub struct PartFloodOutcome {
    /// The agreed minimum per part (`None` when no member carried a value).
    pub per_part: Vec<Option<(u64, u64)>>,
    /// Number of supersteps executed (`b`).
    pub supersteps: u64,
    /// Simulation statistics of the executed protocol, summed over every
    /// epoch under a fault plan.
    pub stats: SimStats,
}

#[derive(Debug, Clone)]
struct FloodProgram {
    current: Option<(u64, u64)>,
    value_bits: usize,
}

fn min_opt(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> Option<(u64, u64)> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

impl NodeProgram for FloodProgram {
    type Val = Option<(u64, u64)>;
    type Cross = (u64, u64);

    fn contribution(&mut self, _view: NodeView<'_>, own: bool, _step: u64) -> Self::Val {
        if own {
            self.current
        } else {
            None
        }
    }

    fn combine(&self, _step: u64, a: &Self::Val, b: &Self::Val) -> Self::Val {
        min_opt(*a, *b)
    }

    fn on_agreed(
        &mut self,
        _view: NodeView<'_>,
        _member: usize,
        own: bool,
        val: &Self::Val,
        _step: u64,
    ) {
        if own {
            self.current = min_opt(self.current, *val);
        }
    }

    fn cross_message(&mut self, _to: NodeId, _step: u64) -> Option<(u64, u64)> {
        self.current
    }

    fn on_cross(&mut self, _view: NodeView<'_>, _from: NodeId, msg: (u64, u64), _step: u64) {
        self.current = min_opt(self.current, Some(msg));
    }

    fn val_bits(&self) -> usize {
        1 + self.value_bits
    }

    fn cross_bits(&self) -> usize {
        self.value_bits
    }
}

/// Floods the part-wise minimum of `values` (lexicographic order on the
/// pair) to every part member, as real message passing.
///
/// `value_bits` is the declared encoded width of a value pair — e.g.
/// `⌈log₂ n⌉` for node ids, or weight bits plus edge-id bits for Boruvka
/// candidates; the simulator rejects the run if a message exceeds the
/// CONGEST bandwidth, so undersized declarations fail loudly.
///
/// Under an active fault plan on `config` the flood runs in the engine's
/// epochs until every member of every active part agrees. Agreement is
/// enough: the member holding its part's minimum never raises its value,
/// so members that agree hold the true minimum. The returned statistics
/// cover every epoch.
///
/// # Errors
///
/// Simulator errors as [`lcs_graph::LcsError::Simulation`];
/// [`lcs_graph::LcsError::Degraded`] when every epoch of a fault-injected
/// flood ends with some part's members disagreeing; without a plan, a
/// protocol invariant violation ([`lcs_graph::LcsError::Protocol`]) if they
/// disagree (which would indicate an engine bug).
///
/// # Panics
///
/// Panics if `values.len()` differs from the graph's node count.
pub fn part_flood_min(
    graph: &Graph,
    partition: &Partition,
    family: &BlockFamily,
    values: &[Option<(u64, u64)>],
    value_bits: usize,
    config: Option<SimConfig>,
) -> LcsResult<PartFloodOutcome> {
    assert_eq!(
        values.len(),
        graph.node_count(),
        "one optional value per node is required"
    );
    let supersteps = family.block_parameter().max(1) as u64;
    let obs = lcs_obs::Obs::off();
    let flood = |epoch: EpochRun| -> lcs_congest::Result<Epoch<_>> {
        let outcome = epoch.run(graph, family, &obs, |info: &NodeInfo<'_>| FloodProgram {
            current: values[info.node.index()],
            value_bits,
        })?;
        let per_node: Vec<_> = outcome.nodes.iter().map(|n| n.current).collect();
        let per_part = agreed(partition, family, &per_node);
        Ok(Epoch {
            complete: per_part.is_ok(),
            stats: outcome.stats,
            answer: per_part,
        })
    };
    let (per_part, stats, _) = run_epochs(family, supersteps, config, &obs, "dist/flood", flood)?;
    Ok(PartFloodOutcome {
        per_part: per_part.map_err(invariant_violated)?,
        supersteps,
        stats,
    })
}

/// The value every member of each active part holds, or how two members
/// of a part disagree.
fn agreed(
    partition: &Partition,
    family: &BlockFamily,
    per_node: &[Option<(u64, u64)>],
) -> std::result::Result<Vec<Option<(u64, u64)>>, String> {
    let mut per_part = vec![None; partition.part_count()];
    for p in partition.parts() {
        let members = partition.members(p);
        // Skip parts outside the family's view (inactive parts).
        if members.iter().all(|&v| family.info(v).part.is_none()) {
            continue;
        }
        let first = per_node[members[0].index()];
        if let Some(&v) = members.iter().find(|v| per_node[v.index()] != first) {
            return Err(format!(
                "members of part {p} disagree after flooding: {first:?} vs {:?} at {v}",
                per_node[v.index()]
            ));
        }
        per_part[p.index()] = first;
    }
    Ok(per_part)
}

/// Elects every part's leader (its minimum member id) by distributed
/// flooding. Returns the leaders and the executed statistics.
///
/// # Errors
///
/// Same as [`part_flood_min`].
pub fn part_leaders(
    graph: &Graph,
    partition: &Partition,
    family: &BlockFamily,
    config: Option<SimConfig>,
) -> LcsResult<(Vec<NodeId>, SimStats)> {
    let values: Vec<Option<(u64, u64)>> = graph
        .nodes()
        .map(|v| partition.part_of(v).map(|_| (v.index() as u64, 0)))
        .collect();
    let value_bits = lcs_congest::bits_for_node_count(graph.node_count()) + 1;
    let outcome = part_flood_min(graph, partition, family, &values, value_bits, config)?;
    let mut leaders = Vec::with_capacity(partition.part_count());
    for p in partition.parts() {
        let (id, _) = outcome.per_part[p.index()]
            .ok_or_else(|| invariant_violated(format!("part {p} elected no leader")))?;
        leaders.push(NodeId::new(id as usize));
    }
    Ok((leaders, outcome.stats))
}

/// Computes every part's minimum-weight outgoing edge candidate — the
/// Boruvka phase primitive — by distributed flooding of `(weight, edge)`
/// pairs. Every member ends up knowing its part's minimum, so the result
/// covers both the Theorem 2 aggregation *and* the broadcast back.
///
/// # Errors
///
/// Same as [`part_flood_min`].
///
/// # Panics
///
/// Panics if `candidates.len()` differs from the graph's node count.
pub fn part_min_edges(
    graph: &Graph,
    partition: &Partition,
    family: &BlockFamily,
    candidates: &[Option<(u64, EdgeId)>],
    config: Option<SimConfig>,
) -> LcsResult<(PartMinEdges, SimStats)> {
    let values: Vec<Option<(u64, u64)>> = candidates
        .iter()
        .map(|c| c.map(|(w, e)| (w, e.index() as u64)))
        .collect();
    // Weights are assumed to fit in O(log n) bits, the standard CONGEST
    // convention; declare the width actually needed so the bandwidth check
    // stays meaningful.
    let max_weight = candidates
        .iter()
        .flatten()
        .map(|(w, _)| *w)
        .max()
        .unwrap_or(0);
    let weight_bits = (64 - max_weight.leading_zeros() as usize).max(1);
    let edge_bits = bits_for_count(graph.edge_count().max(2));
    let outcome = part_flood_min(
        graph,
        partition,
        family,
        &values,
        weight_bits + edge_bits,
        config,
    )?;
    let per_part = outcome
        .per_part
        .iter()
        .map(|v| v.map(|(w, e)| (w, EdgeId::new(e as usize))))
        .collect();
    Ok((per_part, outcome.stats))
}

/// Per-node Boruvka candidates for a weighted instance: every part
/// member's minimum-weight edge leaving its part (`None` for nodes outside
/// every part or without an outgoing edge). This is the local computation
/// each node performs after the one-round part-id exchange of a Boruvka
/// phase — the input [`part_min_edges`] floods.
pub fn min_edge_candidates(
    graph: &Graph,
    partition: &Partition,
    weights: &lcs_graph::EdgeWeights,
) -> Vec<Option<(u64, EdgeId)>> {
    graph
        .nodes()
        .map(|v| {
            let my = partition.part_of(v)?;
            graph
                .neighbors(v)
                .filter(|&(u, _)| partition.part_of(u) != Some(my))
                .map(|(_, e)| (weights.weight(e), e))
                .min()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_core::existential::ancestor_shortcut;
    use lcs_core::routing::PartRouter;
    use lcs_core::TreeShortcut;
    use lcs_graph::{generators, RootedTree};

    #[test]
    fn leaders_match_the_scheduled_election_on_the_wheel() {
        let g = generators::wheel(41);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::wheel_arcs(41, 5);
        let s = ancestor_shortcut(&g, &t, &p);
        let family = BlockFamily::new(&g, &t, &p, &s);
        let router = PartRouter::new(&g, &t, &p, &s);
        let scheduled = router.elect_leaders();
        let (leaders, stats) = part_leaders(&g, &p, &family, None).unwrap();
        assert_eq!(leaders, scheduled.values);
        // Executed rounds respect the Theorem 2 operational bound.
        let l = family.schedule().rounds;
        let b = family.block_parameter() as u64;
        assert!(stats.rounds <= b * (2 * l + 1));
    }

    #[test]
    fn flooding_over_an_empty_shortcut_still_converges() {
        // No shortcut edges: blocks are singleton members, agreement happens
        // purely over same-part graph edges, one hop per superstep.
        let g = generators::grid(4, 4);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(4, 4);
        let s = TreeShortcut::empty(&g, &p);
        let family = BlockFamily::new(&g, &t, &p, &s);
        let (leaders, _) = part_leaders(&g, &p, &family, None).unwrap();
        for q in p.parts() {
            assert_eq!(leaders[q.index()], *p.members(q).iter().min().unwrap());
        }
    }

    #[test]
    fn min_edge_candidates_flood_to_the_true_minimum() {
        let g = generators::grid(5, 5);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(5, 5);
        let s = ancestor_shortcut(&g, &t, &p);
        let family = BlockFamily::new(&g, &t, &p, &s);
        let w = lcs_graph::EdgeWeights::random_permutation(&g, 3);
        let candidates = min_edge_candidates(&g, &p, &w);
        let (per_part, _) = part_min_edges(&g, &p, &family, &candidates, None).unwrap();
        for q in p.parts() {
            let expected = p
                .members(q)
                .iter()
                .filter_map(|&v| candidates[v.index()])
                .min();
            assert_eq!(per_part[q.index()], expected);
        }
    }
}
