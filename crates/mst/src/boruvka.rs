//! Distributed Boruvka MST on low-congestion shortcuts (Lemma 4).
//!
//! The algorithm runs in phases. Each phase starts with a partition of the
//! nodes into connected parts (initially singletons), all of which already
//! agree on their part id. The phase then:
//!
//! 1. constructs a tree-restricted shortcut for the current partition
//!    according to the chosen [`ShortcutStrategy`],
//! 2. lets every part compute its minimum-weight outgoing edge via the
//!    Theorem 2 convergecast (the cut property guarantees every such edge is
//!    an MST edge),
//! 3. merges parts along those edges in randomized star shapes: every part
//!    flips a fair coin to become a *head* or a *tail*, and a tail merges
//!    into the head at the other end of its minimum outgoing edge. Star
//!    merges keep the new parts shallow so part ids can be re-agreed in a
//!    constant number of shortcut broadcasts; every minimum edge is used
//!    with probability at least 1/4, so the number of parts drops by a
//!    constant factor in expectation and `O(log n)` phases suffice.
//!
//! Merge edges are exactly the edges reported in the output; when the
//! partition collapses to a single part they form the (unique, for distinct
//! weights) minimum spanning tree.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use lcs_congest::{RoundCost, SimConfig};
use lcs_core::construction::{doubling_search, DoublingConfig, Verifier};
use lcs_core::routing::PartRouter;
use lcs_core::TreeShortcut;
use lcs_dist::{min_edge_candidates, part_leaders, part_min_edges, BlockFamily};
use lcs_graph::{EdgeId, EdgeWeights, Graph, NodeId, PartId, Partition, RootedTree, UnionFind};

use crate::Result;

/// How each Boruvka phase obtains the shortcut it routes over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShortcutStrategy {
    /// The paper's Theorem 3 construction with known canonical parameters
    /// `(congestion, block)`.
    FindShortcut {
        /// Canonical congestion passed to the construction.
        congestion: usize,
        /// Canonical block parameter passed to the construction.
        block: usize,
    },
    /// The Appendix A doubling search (no parameters needed). This is the
    /// configuration a user who knows nothing about the topology would run.
    Doubling,
    /// Baseline: no shortcut at all. Every part communicates inside
    /// `G[P_i]` only, so a phase costs the maximum *part* diameter — the
    /// slow behaviour the paper's introduction motivates against.
    NoShortcut,
    /// Baseline: every part may use the entire spanning tree
    /// (`H_i = E(T)`). Block parameter 1 but congestion `N`, demonstrating
    /// why congestion must be bounded.
    WholeTree,
}

/// Hard cap on the number of phases: the expected number is `O(log n)`;
/// the cap only exists so that misuse fails loudly.
const MAX_PHASES: usize = 400;

/// Result of the distributed MST computation.
#[derive(Debug, Clone)]
pub struct MstOutcome {
    /// The MST edges, sorted by edge id.
    pub edges: Vec<EdgeId>,
    /// Total weight of the returned edges.
    pub weight: u64,
    /// Number of Boruvka phases executed.
    pub phases: usize,
    /// Exact round cost, broken down per phase and per step.
    pub cost: RoundCost,
}

impl MstOutcome {
    /// Total number of CONGEST rounds.
    pub fn total_rounds(&self) -> u64 {
        self.cost.total()
    }
}

/// Runs distributed Boruvka MST over `graph` with the given edge weights,
/// routing every phase over `tree`.
///
/// Phase `k` constructs its shortcut with the one Appendix A loop
/// ([`doubling_search`]) seeded at `seed + k` and verified by `verifier`,
/// so the caller's verification back-end (scheduled or message passing)
/// runs inside every phase. `sim` selects how the per-part routing
/// executes: `None` charges the exact Theorem 2 schedules; `Some(config)`
/// runs leader election and min-edge aggregation as real message passing
/// in the CONGEST simulator (`lcs_dist`) with that configuration and
/// charges the executed rounds. The [`ShortcutStrategy::NoShortcut`]
/// baseline always uses its part-internal schedule. The `bfs-tree` and
/// `termination-check` charges are the depth of `tree`.
///
/// # Errors
///
/// Propagates shortcut-construction errors; reports
/// [`lcs_core::CoreError::IterationBudgetExhausted`] when a
/// [`ShortcutStrategy::Doubling`] phase leaves parts bad after its
/// doublings, or when the phase cap is hit before the partition collapses
/// to a single part.
///
/// # Panics
///
/// Panics if the graph is empty or not connected.
pub fn boruvka_mst<V: Verifier>(
    graph: &Graph,
    tree: &RootedTree,
    weights: &EdgeWeights,
    strategy: ShortcutStrategy,
    seed: u64,
    sim: Option<SimConfig>,
    mut verifier: V,
) -> Result<MstOutcome> {
    assert!(graph.node_count() > 0, "the graph must be nonempty");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut cost = RoundCost::new();

    // The tree is fixed once; building it is O(D) rounds.
    cost.charge("bfs-tree", u64::from(tree.depth_of_tree()));

    let mut partition = Partition::singletons(graph);
    let mut chosen: Vec<EdgeId> = Vec::new();
    let mut phases = 0;

    while partition.part_count() > 1 {
        if phases >= MAX_PHASES {
            return Err(lcs_core::CoreError::IterationBudgetExhausted {
                iterations: phases,
                remaining_bad: partition.part_count(),
            });
        }
        phases += 1;
        let label = |step: &str| format!("phase-{phases}/{step}");

        // 1. Shortcut construction for the current partition.
        let shortcut = build_shortcut(
            graph,
            tree,
            &partition,
            strategy,
            seed.wrapping_add(phases as u64),
            &mut cost,
            &label("shortcut"),
            &mut verifier,
        )?;

        // 2. Minimum-weight outgoing edge per part. Every node first learns
        //    its neighbors' part ids (one round), computes its local
        //    candidate, and the candidates are convergecast to the leaders.
        cost.charge(label("exchange-part-ids"), 1);
        let candidates = min_edge_candidates(graph, &partition, weights);

        let (min_outgoing, routing_rounds) = match (strategy, sim) {
            (ShortcutStrategy::NoShortcut, _) => {
                // Baseline: convergecast + broadcast inside G[P_i] costs the
                // part diameter (twice), all parts in parallel.
                let per_part = aggregate_directly(&partition, &candidates);
                let diameter = u64::from(partition.max_part_diameter(graph));
                (per_part, 4 * diameter + 2)
            }
            (_, None) => {
                let router = PartRouter::new(graph, tree, &partition, &shortcut);
                let leaders = router.elect_leaders();
                let aggregated = router.aggregate_to_leaders(&candidates, |a, b| *a.min(b));
                let broadcast_back = router.exchange_rounds();
                (
                    aggregated.values,
                    leaders.rounds + aggregated.rounds + broadcast_back,
                )
            }
            (_, Some(sim)) => {
                // Real message passing: the flood both aggregates the
                // candidates and disseminates the result to every member,
                // so no separate broadcast-back is charged. Leader election
                // runs as its own protocol, mirroring the scheduled cost
                // structure.
                let family = BlockFamily::new(graph, tree, &partition, &shortcut);
                let (_, leader_stats) = part_leaders(graph, &partition, &family, Some(sim))?;
                let (per_part, min_stats) =
                    part_min_edges(graph, &partition, &family, &candidates, Some(sim))?;
                (per_part, leader_stats.rounds + min_stats.rounds)
            }
        };
        cost.charge(label("min-outgoing-edge"), routing_rounds);

        // 3. Star merges: heads and tails.
        let heads: Vec<bool> = (0..partition.part_count())
            .map(|_| rng.gen_bool(0.5))
            .collect();
        let mut uf = UnionFind::new(partition.part_count());
        let mut merge_edges = Vec::new();
        for p in partition.parts() {
            if heads[p.index()] {
                continue;
            }
            let Some((_, edge)) = min_outgoing[p.index()] else {
                continue;
            };
            let e = graph.edge(edge);
            // The endpoint outside p tells us which part we merge into.
            let other_part = [e.u, e.v]
                .into_iter()
                .filter_map(|v| partition.part_of(v))
                .find(|&q| q != p);
            let Some(target) = other_part else { continue };
            if heads[target.index()] && uf.union(p.index(), target.index()) {
                merge_edges.push(edge);
            }
        }
        // Re-agreeing on part ids after a star merge: one broadcast over the
        // merged parts' shortcuts plus a constant number of rounds over the
        // merge edges themselves.
        cost.charge(label("merge"), routing_rounds / 2 + 2);
        // Termination check: a whole-tree convergecast.
        cost.charge(label("termination-check"), u64::from(tree.depth_of_tree()));

        if !merge_edges.is_empty() {
            chosen.extend(merge_edges.iter().copied());
            partition = merge_partition(&partition, &mut uf);
        }
    }

    chosen.sort();
    chosen.dedup();
    let weight = weights.total(chosen.iter().copied());
    Ok(MstOutcome {
        edges: chosen,
        weight,
        phases,
        cost,
    })
}

/// Builds the per-phase shortcut according to the strategy.
#[allow(clippy::too_many_arguments)]
fn build_shortcut<V: Verifier>(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    strategy: ShortcutStrategy,
    seed: u64,
    cost: &mut RoundCost,
    label: &str,
    verifier: &mut V,
) -> Result<TreeShortcut> {
    let (config, budget_is_error) = match strategy {
        // Known parameters: the loop with no doublings; a part still bad
        // after the driver's iteration budget routes over its partial
        // shortcut.
        ShortcutStrategy::FindShortcut { congestion, block } => (
            DoublingConfig {
                congestion,
                block,
                use_fast_core: true,
                max_doublings: 0,
                seed,
            },
            false,
        ),
        ShortcutStrategy::Doubling => (
            DoublingConfig {
                seed,
                ..DoublingConfig::default()
            },
            true,
        ),
        ShortcutStrategy::NoShortcut => {
            cost.charge(label.to_string(), 0);
            return Ok(TreeShortcut::empty(graph, partition));
        }
        ShortcutStrategy::WholeTree => {
            // Every part gets the entire tree; announcing "use everything"
            // costs a single broadcast over T.
            let shortcut = TreeShortcut::from_edge_sets(
                graph,
                tree,
                partition,
                partition.parts().map(|_| tree.tree_edges()),
            )
            .expect("tree edges and valid parts");
            cost.charge(label.to_string(), u64::from(tree.depth_of_tree()));
            return Ok(shortcut);
        }
    };
    let active = vec![true; partition.part_count()];
    let result = doubling_search(graph, tree, partition, &active, &config, None, verifier)?;
    if budget_is_error && !result.all_parts_good {
        return Err(lcs_core::CoreError::IterationBudgetExhausted {
            iterations: result.attempts.len(),
            remaining_bad: result.remaining_bad,
        });
    }
    cost.charge(label.to_string(), result.total_rounds());
    Ok(result.shortcut)
}

/// Reference aggregation used by the no-shortcut baseline: combine the
/// candidates of each part directly (the rounds are charged separately by
/// the caller, based on the part diameters).
fn aggregate_directly(
    partition: &Partition,
    candidates: &[Option<(u64, EdgeId)>],
) -> Vec<Option<(u64, EdgeId)>> {
    let mut per_part: Vec<Option<(u64, EdgeId)>> = vec![None; partition.part_count()];
    for p in partition.parts() {
        for &v in partition.members(p) {
            if let Some(candidate) = candidates[v.index()] {
                per_part[p.index()] = Some(match per_part[p.index()] {
                    None => candidate,
                    Some(best) => best.min(candidate),
                });
            }
        }
    }
    per_part
}

/// Contracts the partition along the merges recorded in `uf`: merged
/// parts are numbered by their first old part, and every node moves to its
/// old part's merged part.
fn merge_partition(partition: &Partition, uf: &mut UnionFind) -> Partition {
    let mut new_of_rep: Vec<Option<PartId>> = vec![None; partition.part_count()];
    let mut next = 0;
    let new_of_old: Vec<PartId> = partition
        .parts()
        .map(|p| {
            *new_of_rep[uf.find(p.index())].get_or_insert_with(|| {
                next += 1;
                PartId::new(next - 1)
            })
        })
        .collect();
    let assignment = (0..partition.node_count())
        .map(|v| {
            partition
                .part_of(NodeId::new(v))
                .map(|p| new_of_old[p.index()])
        })
        .collect();
    Partition::from_assignment(partition.node_count(), assignment)
        .expect("merged parts are densely numbered and nonempty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduled;
    use crate::verify::is_spanning_tree;
    use lcs_graph::{generators, kruskal_mst};

    /// Scheduled Boruvka over the BFS tree from node 0.
    fn mst(
        graph: &Graph,
        weights: &EdgeWeights,
        strategy: ShortcutStrategy,
        seed: u64,
    ) -> Result<MstOutcome> {
        let tree = RootedTree::bfs(graph, NodeId::new(0));
        boruvka_mst(graph, &tree, weights, strategy, seed, None, scheduled)
    }

    fn check_matches_kruskal(graph: &Graph, weights: &EdgeWeights, strategy: ShortcutStrategy) {
        let outcome = mst(graph, weights, strategy, 3).expect("construction succeeds");
        let reference = kruskal_mst(graph, weights);
        assert_eq!(outcome.edges, reference, "strategy {strategy:?}");
        assert_eq!(outcome.weight, weights.total(reference));
        assert!(is_spanning_tree(graph, &outcome.edges));
        assert!(outcome.phases >= 1);
        assert!(outcome.total_rounds() > 0);
    }

    #[test]
    fn mst_on_grid_matches_kruskal_for_every_strategy() {
        let g = generators::grid(5, 5);
        let w = EdgeWeights::random_permutation(&g, 11);
        check_matches_kruskal(&g, &w, ShortcutStrategy::Doubling);
        check_matches_kruskal(&g, &w, ShortcutStrategy::NoShortcut);
        check_matches_kruskal(&g, &w, ShortcutStrategy::WholeTree);
        check_matches_kruskal(
            &g,
            &w,
            ShortcutStrategy::FindShortcut {
                congestion: 8,
                block: 2,
            },
        );
    }

    #[test]
    fn mst_on_wheel_and_torus() {
        let g = generators::wheel(33);
        let w = EdgeWeights::random_permutation(&g, 5);
        check_matches_kruskal(&g, &w, ShortcutStrategy::Doubling);

        let g = generators::torus(5, 6);
        let w = EdgeWeights::random_permutation(&g, 6);
        check_matches_kruskal(&g, &w, ShortcutStrategy::Doubling);
    }

    #[test]
    fn mst_on_random_graphs_across_seeds() {
        for seed in 0..4 {
            let g = generators::random_connected(40, 40, seed);
            let w = EdgeWeights::random_permutation(&g, seed + 100);
            check_matches_kruskal(&g, &w, ShortcutStrategy::Doubling);
        }
    }

    #[test]
    fn simulated_execution_matches_kruskal_and_scheduled_results() {
        let g = generators::grid(5, 5);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let w = EdgeWeights::random_permutation(&g, 11);
        let sim = Some(SimConfig::for_graph(&g));
        let strategy = ShortcutStrategy::FindShortcut {
            congestion: 8,
            block: 2,
        };
        let scheduled_run = mst(&g, &w, strategy, 3).unwrap();
        let simulated = boruvka_mst(&g, &t, &w, strategy, 3, sim, scheduled).unwrap();
        // Same seeds, same merges: the edge sets agree with each other and
        // with Kruskal, only the charged routing rounds differ.
        assert_eq!(simulated.edges, scheduled_run.edges);
        assert_eq!(simulated.edges, kruskal_mst(&g, &w));
        assert!(is_spanning_tree(&g, &simulated.edges));
        assert!(simulated.total_rounds() > 0);

        // Message-passing verification inside every phase's doubling loop
        // classifies exactly like the scheduled one: same phases, same
        // edges.
        let simulated_verifier = |graph: &Graph,
                                  tree: &RootedTree,
                                  partition: &Partition,
                                  shortcut: &TreeShortcut,
                                  threshold: usize,
                                  active: &[bool]| {
            let question = lcs_dist::BlockCounting {
                graph,
                tree,
                partition,
                shortcut,
                threshold,
                active,
            };
            lcs_dist::verification_simulated(&question, sim, &lcs_obs::Obs::off())
                .map(|run| run.outcome)
                .map_err(lcs_core::CoreError::from)
        };
        let doubling = ShortcutStrategy::Doubling;
        let outcome = boruvka_mst(&g, &t, &w, doubling, 5, sim, simulated_verifier).unwrap();
        assert_eq!(outcome.edges, kruskal_mst(&g, &w));
        let reference = boruvka_mst(&g, &t, &w, doubling, 5, sim, scheduled).unwrap();
        assert_eq!(outcome.phases, reference.phases);
    }

    #[test]
    fn phase_count_is_logarithmic() {
        let g = generators::grid(8, 8);
        let w = EdgeWeights::random_permutation(&g, 2);
        let outcome = mst(&g, &w, ShortcutStrategy::Doubling, 0).unwrap();
        // 64 nodes; with star merges the expected reduction is ~1/4 per
        // phase, so a generous logarithmic cap:
        assert!(outcome.phases <= 40, "took {} phases", outcome.phases);
    }

    #[test]
    fn shortcut_strategies_beat_the_no_shortcut_baseline_on_the_wheel() {
        // Wheel: network diameter 2, arcs get long as parts merge, so the
        // no-shortcut baseline pays the arc diameter every phase while the
        // shortcut-based algorithm keeps phases cheap.
        let g = generators::wheel(129);
        let w = EdgeWeights::random_permutation(&g, 9);
        let with_shortcuts = mst(
            &g,
            &w,
            ShortcutStrategy::FindShortcut {
                congestion: 2,
                block: 2,
            },
            1,
        )
        .unwrap();
        let without = mst(&g, &w, ShortcutStrategy::NoShortcut, 1).unwrap();
        assert_eq!(with_shortcuts.edges, without.edges);
        // Compare only the routing cost (shortcut construction excluded):
        // the baseline's part-internal routing must be strictly more
        // expensive than the shortcut routing.
        let routing_with: u64 = with_shortcuts
            .cost
            .entries()
            .iter()
            .filter(|(l, _)| l.contains("min-outgoing-edge"))
            .map(|(_, r)| r)
            .sum();
        let routing_without: u64 = without
            .cost
            .entries()
            .iter()
            .filter(|(l, _)| l.contains("min-outgoing-edge"))
            .map(|(_, r)| r)
            .sum();
        assert!(
            routing_with < routing_without,
            "shortcut routing {routing_with} should beat baseline {routing_without}"
        );
    }

    #[test]
    fn single_node_graph_needs_no_phases() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let w = EdgeWeights::uniform(&g);
        let outcome = mst(&g, &w, ShortcutStrategy::Doubling, 0).unwrap();
        assert!(outcome.edges.is_empty());
        assert_eq!(outcome.phases, 0);
    }

    #[test]
    fn cost_breakdown_covers_every_phase() {
        let g = generators::grid(4, 4);
        let w = EdgeWeights::random_permutation(&g, 1);
        let outcome = mst(&g, &w, ShortcutStrategy::Doubling, 0).unwrap();
        for phase in 1..=outcome.phases {
            assert!(
                outcome.cost.total_for_prefix(&format!("phase-{phase}/")) > 0,
                "phase {phase} missing from the cost breakdown"
            );
        }
    }
}
