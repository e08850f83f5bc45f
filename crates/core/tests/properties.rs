//! Property-based tests for the shortcut framework invariants.
//!
//! These check the paper's structural guarantees on randomized instances:
//! Lemma 1 (dilation vs block parameter), Lemma 7 / Lemma 5 (core subroutine
//! guarantees), Theorem 3 (FindShortcut output quality), and the internal
//! consistency of the block-component decomposition.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use lcs_core::construction::{
    core_fast, core_slow, doubling_search, verification, CoreFastConfig, DoublingConfig,
    FindShortcut, FindShortcutConfig, VerificationOutcome,
};
use lcs_core::existential::{ancestor_shortcut, reference_parameters};
use lcs_core::TreeShortcut;
use lcs_graph::{generators, EdgeId, Graph, NodeId, PartId, Partition, RootedTree};

/// The scheduled Lemma 3 verification as a construction verifier.
fn scheduled(
    g: &lcs_graph::Graph,
    t: &RootedTree,
    p: &Partition,
    s: &TreeShortcut,
    threshold: usize,
    active: &[bool],
) -> lcs_graph::LcsResult<VerificationOutcome> {
    Ok(verification(g, t, p, s, threshold, active))
}

/// A random connected instance: graph, BFS tree and a BFS-ball partition.
fn random_instance(
    n: usize,
    extra: usize,
    parts: usize,
    seed: u64,
) -> (lcs_graph::Graph, RootedTree, Partition) {
    let graph = generators::random_connected(n, extra, seed);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let parts = parts.clamp(1, n);
    let partition = generators::partitions::random_bfs_balls(&graph, parts, seed ^ 0x5a5a);
    (graph, tree, partition)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lemma 1: for any tree-restricted shortcut, dilation ≤ b(2D + 1).
    /// Checked on the ancestor reference shortcut and on the empty shortcut.
    #[test]
    fn lemma1_dilation_bound(
        n in 6usize..40,
        extra in 0usize..30,
        parts in 1usize..8,
        seed in 0u64..500,
    ) {
        let (graph, tree, partition) = random_instance(n, extra, parts, seed);
        let depth = tree.depth_of_tree();

        let reference = ancestor_shortcut(&graph, &tree, &partition);
        let q = reference.quality(&graph, &partition);
        prop_assert!(q.satisfies_lemma1(depth), "ancestor shortcut: {q:?}, depth {depth}");

        let empty = TreeShortcut::empty(&graph, &partition);
        let q = empty.quality(&graph, &partition);
        prop_assert!(q.satisfies_lemma1(depth), "empty shortcut: {q:?}, depth {depth}");
    }

    /// Lemma 7: CoreSlow respects the 2c assignment cap and leaves at least
    /// half the parts with block parameter ≤ 3b, for (c, b) certified by the
    /// ancestor reference shortcut.
    #[test]
    fn core_slow_guarantees(
        n in 8usize..40,
        extra in 0usize..25,
        parts in 2usize..8,
        seed in 0u64..500,
    ) {
        let (graph, tree, partition) = random_instance(n, extra, parts, seed);
        let (_, reference) = reference_parameters(&graph, &tree, &partition);
        let c = reference.congestion.max(1);
        let b = reference.block_parameter.max(1);
        let active = vec![true; partition.part_count()];

        let outcome = core_slow(&graph, &tree, &partition, c, &active);
        prop_assert!(outcome.shortcut.validate(&tree, &partition).is_ok());
        // Assignment cap 2c on every edge.
        for e in graph.edge_ids() {
            prop_assert!(outcome.shortcut.parts_on_edge(e).len() <= 2 * c);
        }
        // At least half the parts good.
        let good = outcome
            .shortcut
            .block_counts(&graph, &partition)
            .into_iter()
            .filter(|&k| k <= 3 * b)
            .count();
        prop_assert!(2 * good >= partition.part_count());
        // Unusable edges carry no assignment.
        for e in outcome.unusable_edges() {
            prop_assert!(outcome.shortcut.parts_on_edge(e).is_empty());
        }
        // Round count respects the level-synchronous schedule bounds.
        let depth = u64::from(tree.depth_of_tree());
        prop_assert!(outcome.rounds >= depth);
        prop_assert!(outcome.rounds <= depth * (2 * c as u64).max(1));
    }

    /// Lemma 5 (structure only): CoreFast produces a valid tree-restricted
    /// shortcut, never assigns unusable edges, and with the reference
    /// parameters at least half the parts are good for most seeds (checked
    /// deterministically per seed since the instance and seed are both
    /// drawn by proptest).
    #[test]
    fn core_fast_guarantees(
        n in 8usize..40,
        extra in 0usize..25,
        parts in 2usize..8,
        seed in 0u64..500,
    ) {
        let (graph, tree, partition) = random_instance(n, extra, parts, seed);
        let (_, reference) = reference_parameters(&graph, &tree, &partition);
        let c = reference.congestion.max(1);
        let active = vec![true; partition.part_count()];

        let outcome = core_fast(
            &graph,
            &tree,
            &partition,
            &CoreFastConfig::new(c).with_seed(seed),
            &active,
        );
        prop_assert!(outcome.shortcut.validate(&tree, &partition).is_ok());
        for e in outcome.unusable_edges() {
            prop_assert!(outcome.shortcut.parts_on_edge(e).is_empty());
        }
        // The sampling threshold is at least log n, so with the reference
        // congestion every edge assignment stays below threshold * c-ish;
        // at minimum the shortcut must not assign an edge to more parts
        // than exist.
        for e in graph.edge_ids() {
            prop_assert!(outcome.shortcut.parts_on_edge(e).len() <= partition.part_count());
        }
    }

    /// Theorem 3 via the doubling search: the construction terminates on
    /// random connected instances and its output block parameter is at most
    /// 3 times the successful guess.
    #[test]
    fn doubling_search_output_quality(
        n in 8usize..32,
        extra in 0usize..20,
        parts in 1usize..6,
        seed in 0u64..200,
    ) {
        let (graph, tree, partition) = random_instance(n, extra, parts, seed);
        let result = doubling_search(
            &graph,
            &tree,
            &partition,
            &vec![true; partition.part_count()],
            &DoublingConfig { seed, ..DoublingConfig::default() },
            None,
            scheduled,
        )
        .unwrap();
        prop_assert!(
            result.all_parts_good,
            "doubling always succeeds eventually on small instances"
        );
        let q = result.shortcut.quality(&graph, &partition);
        let winning = result.attempts.last().unwrap();
        prop_assert!(q.block_parameter <= 3 * winning.block_guess);
        prop_assert!(q.satisfies_lemma1(tree.depth_of_tree()));
        prop_assert!(result.shortcut.validate(&tree, &partition).is_ok());
    }

    /// FindShortcut with exact reference parameters always succeeds and
    /// satisfies the Theorem 3 quality bounds.
    #[test]
    fn find_shortcut_with_reference_parameters(
        n in 8usize..32,
        extra in 0usize..20,
        parts in 1usize..6,
        seed in 0u64..200,
    ) {
        let (graph, tree, partition) = random_instance(n, extra, parts, seed);
        let (_, reference) = reference_parameters(&graph, &tree, &partition);
        let c = reference.congestion.max(1);
        let b = reference.block_parameter.max(1);
        let result = FindShortcut::new(FindShortcutConfig::new(c, b).with_seed(seed))
            .run(&graph, &tree, &partition, &vec![true; partition.part_count()], scheduled)
            .unwrap();
        prop_assert!(result.all_parts_good);
        let q = result.shortcut.quality(&graph, &partition);
        prop_assert!(q.block_parameter <= 3 * b);
        prop_assert!(q.congestion <= 8 * c * result.iterations + 1);
    }
}

/// One instance per generator family, about `size²` nodes (`size ≥ 3`):
/// the graph, its BFS tree from `root_choice` and a BFS-ball partition.
fn family_instance(
    family: usize,
    size: usize,
    parts: usize,
    seed: u64,
    root_choice: usize,
) -> (Graph, RootedTree, Partition) {
    let graph = match family {
        0 => generators::grid(size, size),
        1 => generators::torus(size, size),
        2 => generators::random_connected(size * size, 2 * size, seed),
        3 => generators::wheel(size * size + 1),
        4 => generators::path(size * size),
        5 => generators::caterpillar(3 * size, 2),
        _ => generators::lower_bound_graph(4, 2 * size).0,
    };
    let tree = RootedTree::bfs(&graph, NodeId::new(root_choice % graph.node_count()));
    let parts = parts.clamp(1, graph.node_count());
    let partition = generators::partitions::random_bfs_balls(&graph, parts, seed);
    (graph, tree, partition)
}

/// `edges_of` and `parts_on_edge` are exact transposes of each other, each
/// list sorted and deduplicated, and non-tree edges carry no part.
fn check_transposes(graph: &Graph, tree: &RootedTree, shortcut: &TreeShortcut) {
    let mut transposed: Vec<Vec<PartId>> = vec![Vec::new(); graph.edge_count()];
    for p in (0..shortcut.part_count()).map(PartId::new) {
        let edges = shortcut.edges_of(p);
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
        for &e in edges {
            transposed[e.index()].push(p);
        }
    }
    for e in graph.edge_ids() {
        assert_eq!(shortcut.parts_on_edge(e), &transposed[e.index()][..]);
        assert!(tree.is_tree_edge(e) || transposed[e.index()].is_empty());
    }
    let total: usize = transposed.iter().map(Vec::len).sum();
    assert_eq!(shortcut.assignment_count(), total);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A shortcut built from unsorted per-part edge sets with repeats holds
    /// each set sorted and deduplicated, and its per-edge side is the exact
    /// transpose. The same holds for `core_fast`'s shortcut, which is laid
    /// out from the per-edge side instead.
    #[test]
    fn shortcut_sides_are_sorted_exact_transposes(
        family in 0usize..7,
        size in 3usize..8,
        parts in 1usize..24,
        seed in 0u64..1_000,
        root_choice in 0usize..1_000,
        picks in 0usize..200,
    ) {
        let (graph, tree, partition) = family_instance(family, size, parts, seed, root_choice);
        let tree_edges: Vec<EdgeId> = tree.tree_edges().collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Some parts get no set at all: the sets stop at a random part.
        let set_count = rng.gen_range(0..=partition.part_count());
        let sets: Vec<Vec<EdgeId>> = (0..set_count)
            .map(|_| {
                (0..rng.gen_range(0..=picks.min(4 * tree_edges.len())))
                    .map(|_| tree_edges[rng.gen_range(0..tree_edges.len())])
                    .collect()
            })
            .collect();
        let shortcut = TreeShortcut::from_edge_sets(&graph, &tree, &partition, sets.clone())
            .expect("tree edges and parts in range");
        prop_assert_eq!(shortcut.part_count(), partition.part_count());
        for p in partition.parts() {
            let mut expected = sets.get(p.index()).cloned().unwrap_or_default();
            expected.sort();
            expected.dedup();
            prop_assert_eq!(shortcut.edges_of(p), &expected[..]);
        }
        check_transposes(&graph, &tree, &shortcut);

        let active = vec![true; partition.part_count()];
        let core = core_fast(&graph, &tree, &partition, &CoreFastConfig::new(2).with_seed(seed), &active);
        check_transposes(&graph, &tree, &core.shortcut);
    }
}
