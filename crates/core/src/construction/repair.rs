//! Part-scoped construction and incremental repair (the customization
//! split).
//!
//! [`ShortcutCorpus`] is the cached per-partition "customization" state a
//! serving session keeps warm: for every part, the shortcut edge set, its
//! exact congestion contribution (the sorted edge set `H_p ∪ G[P_p]`), its
//! measured dilation and block count, and the rounds charged building it —
//! plus the aggregated per-edge load vector so congestion can be
//! re-aggregated by exact subtraction when parts change.
//!
//! Every part is built by its own run of the Appendix A loop
//! ([`doubling_search`] with a singleton active mask). The per-part base
//! seed is anchored at the part's minimum member node — not its positional
//! id — and the iteration budget is pinned to the graph's node count, so a
//! part's construction is a pure function of `(graph, tree, member set,
//! config)`. That invariance is what makes repair exact: after a
//! [`lcs_graph::PartitionDelta`], reused parts (same member set, possibly
//! renumbered) keep their cached state verbatim, edited parts are rebuilt,
//! and the result is byte-identical to rebuilding every part from scratch.

use lcs_graph::{EdgeId, Graph, LcsError, LcsResult, PartId, Partition, RootedTree};

use super::doubling::{doubling_search, DoublingConfig};
use super::find_shortcut::Verifier;
use crate::quality::QualityPool;
use crate::{ShortcutQuality, TreeShortcut};

/// Golden-ratio odd multiplier used to spread the min-member node id into
/// the per-part seed space.
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Cached construction state of one part.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartState {
    /// The shortcut edge set `H_p` (sorted).
    pub edges: Vec<EdgeId>,
    /// Exact congestion contribution: `H_p ∪ G[P_p]`, sorted and
    /// deduplicated — the part adds one unit of load to each listed edge.
    pub uses: Vec<EdgeId>,
    /// Measured diameter of `G[P_p] + H_p`.
    pub dilation: u32,
    /// Measured block-component count of `H_p`.
    pub blocks: usize,
    /// `true` if the part verified good within its attempt budget.
    pub good: bool,
    /// Rounds charged across every attempt for this part.
    pub rounds: u64,
    /// Number of doubling attempts consumed.
    pub attempts: usize,
}

/// Outcome counters of a corpus build or repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairStats {
    /// Parts (re)built by scoped construction runs.
    pub repaired_parts: usize,
    /// Parts whose cached state was reused verbatim.
    pub reused_parts: usize,
    /// Rounds charged for the (re)built parts.
    pub rounds: u64,
}

/// The per-partition customization corpus: every part's cached state plus
/// the aggregated per-edge load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortcutCorpus {
    parts: Vec<PartState>,
    /// `edge_load[e]` = number of parts using edge `e`; its maximum is the
    /// congestion. Maintained by exact subtract/add when parts change.
    edge_load: Vec<u32>,
}

impl ShortcutCorpus {
    /// The cached per-part states, indexed by part id.
    pub fn parts(&self) -> &[PartState] {
        &self.parts
    }

    /// `true` if every part verified good.
    pub fn all_good(&self) -> bool {
        self.parts.iter().all(|p| p.good)
    }

    /// Total rounds charged across all cached parts.
    pub fn total_rounds(&self) -> u64 {
        self.parts.iter().map(|p| p.rounds).sum()
    }

    /// Assembles the corpus into a [`TreeShortcut`] for `partition`, built
    /// once from the cached per-part edge sets.
    ///
    /// # Errors
    ///
    /// The [`TreeShortcut::from_edge_sets`] errors — impossible when the
    /// corpus was built for this `(graph, tree, partition)` triple.
    pub fn assemble(
        &self,
        graph: &Graph,
        tree: &RootedTree,
        partition: &Partition,
    ) -> LcsResult<TreeShortcut> {
        let edge_sets = self.parts.iter().map(|part| part.edges.iter().copied());
        TreeShortcut::from_edge_sets(graph, tree, partition, edge_sets)
    }

    /// The aggregated quality, assembled from the cached per-part
    /// measurements: identical to measuring the assembled shortcut with
    /// [`TreeShortcut::quality_with`].
    pub fn quality(&self) -> ShortcutQuality {
        ShortcutQuality {
            congestion: self.edge_load.iter().copied().max().unwrap_or(0) as usize,
            dilation: self.parts.iter().map(|p| p.dilation).max().unwrap_or(0),
            block_parameter: self.parts.iter().map(|p| p.blocks).max().unwrap_or(0),
            per_part_blocks: self.parts.iter().map(|p| p.blocks).collect(),
        }
    }
}

/// Iteration budget pinned to the node count so it is invariant under
/// partition edits (the driver default depends on the part count, which a
/// delta changes).
fn scoped_iteration_budget(graph: &Graph) -> usize {
    2 * (usize::BITS - graph.node_count().max(2).leading_zeros()) as usize + 8
}

/// Builds one part's cached state by a scoped doubling search: singleton
/// active mask, a base seed anchored at the part's minimum member (so it
/// survives renumbering), node-count iteration budget.
fn build_part<V: Verifier>(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    part: PartId,
    config: &DoublingConfig,
    pool: &mut QualityPool,
    verifier: &mut V,
) -> LcsResult<PartState> {
    let members = partition.members(part);
    let min_member = members
        .iter()
        .map(|v| v.index() as u64)
        .min()
        .expect("parts are nonempty");
    let mut mask = vec![false; partition.part_count()];
    mask[part.index()] = true;
    let part_config = DoublingConfig {
        seed: config.seed ^ min_member.wrapping_mul(SEED_MIX),
        ..*config
    };
    let result = doubling_search(
        graph,
        tree,
        partition,
        &mask,
        &part_config,
        Some(scoped_iteration_budget(graph)),
        &mut *verifier,
    )?;
    let edges = result.shortcut.edges_of(part).to_vec();
    let blocks = result
        .shortcut
        .block_count_with(graph, partition, part, pool.primary());
    // Floor 0: the bounded sweep measures this part's diameter exactly.
    let dilation = pool
        .primary()
        .part_diameter(graph, partition, part, &edges, 0);
    let mut uses = edges.clone();
    for &v in members {
        for (u, e) in graph.neighbors(v) {
            if u > v && partition.part_of(u) == Some(part) {
                uses.push(e);
            }
        }
    }
    uses.sort_unstable();
    uses.dedup();

    Ok(PartState {
        edges,
        uses,
        dilation,
        blocks,
        good: result.all_parts_good,
        rounds: result.total_rounds(),
        attempts: result.attempts.len(),
    })
}

fn aggregate_load(edge_count: usize, parts: &[PartState]) -> Vec<u32> {
    let mut load = vec![0u32; edge_count];
    for part in parts {
        for &e in &part.uses {
            load[e.index()] += 1;
        }
    }
    load
}

/// Builds the full customization corpus: every part through the scoped
/// construction path.
///
/// # Errors
///
/// Propagates verifier and input-consistency errors of the scoped runs.
pub fn build_corpus<V: Verifier>(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    config: &DoublingConfig,
    pool: &mut QualityPool,
    mut verifier: V,
) -> LcsResult<ShortcutCorpus> {
    let parts = partition
        .parts()
        .map(|p| build_part(graph, tree, partition, p, config, pool, &mut verifier))
        .collect::<LcsResult<Vec<_>>>()?;
    let edge_load = aggregate_load(graph.edge_count(), &parts);
    Ok(ShortcutCorpus { parts, edge_load })
}

/// Repairs `prev` (built for the pre-delta partition) into a corpus for
/// `partition` (the post-delta one): reused parts — `origin[p] =
/// Some(old)` — take `prev`'s state for `old` verbatim; parts with no
/// origin are rebuilt by scoped runs. Congestion is re-aggregated
/// exactly: the edge loads of old parts with no surviving slot are
/// subtracted, those of rebuilt parts added — no full recount.
///
/// `origin` must be the map [`Partition::apply_tracked`] returned for the
/// delta on `prev`'s partition. This function never sees that partition,
/// so it cannot check that a reused part's member set is unchanged; any
/// other origin map yields a corpus whose cached measurements do not
/// describe `partition`.
///
/// # Errors
///
/// [`LcsError::InconsistentInputs`] if `origin` does not cover
/// `partition`'s part count or a reused part points outside `prev`; plus
/// the scoped-run errors.
#[allow(clippy::too_many_arguments)]
pub fn repair_corpus<V: Verifier>(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    prev: &ShortcutCorpus,
    origin: &[Option<PartId>],
    config: &DoublingConfig,
    pool: &mut QualityPool,
    mut verifier: V,
) -> LcsResult<(ShortcutCorpus, RepairStats)> {
    let part_count = partition.part_count();
    if origin.len() != part_count {
        return Err(LcsError::InconsistentInputs {
            reason: format!(
                "origin map covers {} parts, but the partition has {part_count}",
                origin.len()
            ),
        });
    }
    let mut survived = vec![false; prev.parts.len()];
    for (i, &old) in origin.iter().enumerate() {
        let Some(old) = old else { continue };
        if old.index() >= prev.parts.len() {
            return Err(LcsError::InconsistentInputs {
                reason: format!(
                    "part {} claims origin {old} but the previous corpus has {} parts",
                    PartId::new(i),
                    prev.parts.len()
                ),
            });
        }
        survived[old.index()] = true;
    }

    let mut edge_load = prev.edge_load.clone();
    for (old, part) in prev.parts.iter().enumerate() {
        if !survived[old] {
            for &e in &part.uses {
                edge_load[e.index()] -= 1;
            }
        }
    }

    let mut parts = Vec::with_capacity(part_count);
    let mut stats = RepairStats {
        repaired_parts: 0,
        reused_parts: 0,
        rounds: 0,
    };
    for (i, o) in origin.iter().enumerate() {
        let state = match *o {
            Some(old) => {
                stats.reused_parts += 1;
                prev.parts[old.index()].clone()
            }
            None => {
                let state = build_part(
                    graph,
                    tree,
                    partition,
                    PartId::new(i),
                    config,
                    pool,
                    &mut verifier,
                )?;
                stats.repaired_parts += 1;
                stats.rounds += state.rounds;
                for &e in &state.uses {
                    edge_load[e.index()] += 1;
                }
                state
            }
        };
        parts.push(state);
    }

    Ok((ShortcutCorpus { parts, edge_load }, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::scheduled;
    use lcs_graph::{generators, NodeId, PartitionDelta};

    fn setup(rows: usize, cols: usize) -> (Graph, RootedTree, Partition) {
        let g = generators::grid(rows, cols);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(rows, cols);
        (g, t, p)
    }

    fn config() -> DoublingConfig {
        DoublingConfig {
            congestion: 1,
            block: 1,
            use_fast_core: true,
            max_doublings: 24,
            seed: 11,
        }
    }

    #[test]
    fn corpus_quality_matches_direct_measurement() {
        let (g, t, p) = setup(8, 8);
        let mut pool = QualityPool::new(&g, 1);
        let corpus = build_corpus(&g, &t, &p, &config(), &mut pool, scheduled).unwrap();
        assert!(corpus.all_good());
        let shortcut = corpus.assemble(&g, &t, &p).unwrap();
        let direct = shortcut.quality_with(&g, &p, &mut pool);
        assert_eq!(corpus.quality(), direct);
    }

    #[test]
    fn repair_equals_full_rebuild_after_a_move() {
        let (g, t, p) = setup(8, 8);
        let mut pool = QualityPool::new(&g, 1);
        let cfg = config();
        let corpus = build_corpus(&g, &t, &p, &cfg, &mut pool, scheduled).unwrap();
        let delta = PartitionDelta::new().move_nodes(vec![NodeId::new(1)], PartId::new(0));
        let applied = p.apply_tracked(&g, &delta).unwrap();
        applied.partition.validate(&g).unwrap();
        let (repaired, stats) = repair_corpus(
            &g,
            &t,
            &applied.partition,
            &corpus,
            &applied.origin,
            &cfg,
            &mut pool,
            scheduled,
        )
        .unwrap();
        let rebuilt = build_corpus(&g, &t, &applied.partition, &cfg, &mut pool, scheduled).unwrap();
        assert_eq!(repaired, rebuilt);
        let rebuilt_parts = applied.origin.iter().filter(|o| o.is_none()).count();
        assert_eq!(stats.repaired_parts, rebuilt_parts);
        assert_eq!(
            stats.reused_parts,
            applied.partition.part_count() - rebuilt_parts
        );
    }

    #[test]
    fn inconsistent_origin_maps_are_rejected() {
        let (g, t, p) = setup(4, 4);
        let mut pool = QualityPool::new(&g, 1);
        let cfg = config();
        let corpus = build_corpus(&g, &t, &p, &cfg, &mut pool, scheduled).unwrap();
        let out_of_range = [Some(PartId::new(9)), None, None, None];
        for origin in [&[None; 2][..], &out_of_range] {
            let err =
                repair_corpus(&g, &t, &p, &corpus, origin, &cfg, &mut pool, scheduled).unwrap_err();
            assert!(matches!(err, LcsError::InconsistentInputs { .. }));
        }
    }
}
