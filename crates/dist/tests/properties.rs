//! Property-based tests: on randomized instances across the generator
//! families, every distributed protocol must agree with its centralized
//! counterpart and respect the paper's round bounds.

use std::collections::HashSet;

use proptest::prelude::*;

use lcs_core::construction::verification;
use lcs_core::existential::{ancestor_shortcut, truncated_ancestor_shortcut};
use lcs_core::routing::PartRouter;
use lcs_core::TreeShortcut;
use lcs_dist::{part_leaders, part_min_edges, AggregateOp, BlockFamily, CrossCheck};
use lcs_graph::{generators, EdgeWeights, Graph, NodeId, Partition, RootedTree};

/// One of the generator families, with a `random_bfs_balls` partition.
fn family_instance(which: usize, size: usize, parts: usize, seed: u64) -> (Graph, Partition) {
    let graph = match which % 4 {
        0 => generators::grid(size, size),
        1 => generators::torus(size, size),
        2 => generators::caterpillar(4 * size, 2),
        _ => generators::random_connected(size * size, size * size, seed),
    };
    let parts = parts.clamp(1, graph.node_count());
    let partition = generators::partitions::random_bfs_balls(&graph, parts, seed ^ 0x9e37);
    (graph, partition)
}

/// An interesting shortcut for the instance: the ancestor witness on even
/// seeds (block parameter 1, larger congestion), the empty shortcut on odd
/// seeds (many singleton blocks, zero congestion).
fn pick_shortcut(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    seed: u64,
) -> TreeShortcut {
    if seed.is_multiple_of(2) {
        ancestor_shortcut(graph, tree, partition)
    } else {
        TreeShortcut::empty(graph, partition)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lemma 2: distributed convergecast equals the centralized per-block
    /// aggregates and takes exactly the scheduled number of rounds.
    #[test]
    fn distributed_convergecast_agrees(
        which in 0usize..4,
        size in 4usize..8,
        parts in 2usize..9,
        seed in 0u64..300,
    ) {
        let (graph, partition) = family_instance(which, size, parts, seed);
        let tree = RootedTree::bfs(&graph, NodeId::new(0));
        let shortcut = pick_shortcut(&graph, &tree, &partition, seed);
        let check = CrossCheck::new(&graph, &tree, &partition, &shortcut).unwrap();
        let values: Vec<Option<u64>> = graph
            .nodes()
            .map(|v| partition.part_of(v).map(|_| v.index() as u64 + 1))
            .collect();
        for op in [AggregateOp::Sum, AggregateOp::Min, AggregateOp::Max] {
            let run = check.convergecast(&values, op).unwrap();
            prop_assert_eq!(run.charged, run.executed);
            prop_assert!(run.executed <= run.bound);
        }
    }

    /// Theorem 2(i): distributed leader election elects the scheduled
    /// leaders within the operational `b(2L + 1)` bound.
    #[test]
    fn distributed_leader_election_agrees(
        which in 0usize..4,
        size in 4usize..8,
        parts in 2usize..9,
        seed in 0u64..300,
    ) {
        let (graph, partition) = family_instance(which, size, parts, seed);
        let tree = RootedTree::bfs(&graph, NodeId::new(0));
        let shortcut = pick_shortcut(&graph, &tree, &partition, seed);
        let check = CrossCheck::new(&graph, &tree, &partition, &shortcut).unwrap();
        let run = check.leader_election().unwrap();
        prop_assert!(run.executed <= run.bound);
    }

    /// Theorem 2(ii): the distributed Boruvka min-edge primitive equals the
    /// scheduled aggregation on random weights.
    #[test]
    fn distributed_min_edge_agrees(
        which in 0usize..4,
        size in 4usize..8,
        parts in 2usize..9,
        seed in 0u64..300,
    ) {
        let (graph, partition) = family_instance(which, size, parts, seed);
        let tree = RootedTree::bfs(&graph, NodeId::new(0));
        let shortcut = pick_shortcut(&graph, &tree, &partition, seed);
        let check = CrossCheck::new(&graph, &tree, &partition, &shortcut).unwrap();
        let weights = EdgeWeights::random_permutation(&graph, seed ^ 0x51);
        let candidates = lcs_dist::min_edge_candidates(&graph, &partition, &weights);
        let run = check.min_edge(&candidates).unwrap();
        prop_assert!(run.executed <= run.bound);
    }

    /// Lemma 3: distributed block counting classifies every part exactly
    /// like the scheduled verification, across thresholds straddling the
    /// true block parameter.
    #[test]
    fn distributed_block_counts_agree(
        which in 0usize..4,
        size in 4usize..7,
        parts in 2usize..8,
        seed in 0u64..300,
    ) {
        let (graph, partition) = family_instance(which, size, parts, seed);
        let tree = RootedTree::bfs(&graph, NodeId::new(0));
        let shortcut = pick_shortcut(&graph, &tree, &partition, seed);
        let check = CrossCheck::new(&graph, &tree, &partition, &shortcut).unwrap();
        let b = check.family().block_parameter().max(1);
        for threshold in [1, b, b + 1] {
            let run = check.block_counts(threshold).unwrap();
            prop_assert!(run.executed <= run.bound);
        }
    }

    /// The flood protocols also work when the family is the whole partition
    /// with no shortcut at all (pure part-edge flooding), matching the
    /// centralized election and aggregation.
    #[test]
    fn no_shortcut_flooding_agrees(
        size in 4usize..8,
        parts in 2usize..9,
        seed in 0u64..200,
    ) {
        let graph = generators::grid(size, size);
        let partition =
            generators::partitions::random_bfs_balls(&graph, parts.min(graph.node_count()), seed);
        let tree = RootedTree::bfs(&graph, NodeId::new(0));
        let shortcut = TreeShortcut::empty(&graph, &partition);
        let family = lcs_dist::BlockFamily::new(&graph, &tree, &partition, &shortcut);
        let (leaders, _) = part_leaders(&graph, &partition, &family, None).unwrap();
        for p in partition.parts() {
            prop_assert_eq!(leaders[p.index()], *partition.members(p).iter().min().unwrap());
        }
        let weights = EdgeWeights::random_permutation(&graph, seed);
        let router = PartRouter::new(&graph, &tree, &partition, &shortcut);
        let candidates = lcs_dist::min_edge_candidates(&graph, &partition, &weights);
        let scheduled = router.aggregate_to_leaders(&candidates, |a, b| *a.min(b));
        let (per_part, _) =
            part_min_edges(&graph, &partition, &family, &candidates, None).unwrap();
        prop_assert_eq!(per_part, scheduled.values);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Block decomposition invariants, read from the family's rows under an
    /// active mask: a part's blocks are disjoint, every active member lies
    /// in exactly one block of its part, each block is a maximal subtree of
    /// `H_p` whose root is its shallowest node, and the per-part count
    /// equals both the union-find count (`TreeShortcut::block_count`) and
    /// scheduled `verification`'s.
    #[test]
    fn block_decomposition_invariants(
        n in 6usize..40,
        extra in 0usize..30,
        parts in 1usize..8,
        seed in 0u64..500,
        levels in 0u32..6,
        mask_bits in 0u64..u64::MAX,
    ) {
        let graph = generators::random_connected(n, extra, seed);
        let tree = RootedTree::bfs(&graph, NodeId::new(0));
        let partition =
            generators::partitions::random_bfs_balls(&graph, parts.clamp(1, n), seed ^ 0x5a5a);
        let shortcut = truncated_ancestor_shortcut(&graph, &tree, &partition, levels);
        let active: Vec<bool> = (0..partition.part_count())
            .map(|i| (mask_bits >> (i % 64)) & 1 == 1)
            .collect();
        let family = BlockFamily::new_active(&graph, &tree, &partition, &shortcut, &active);

        let mut nodes: Vec<Vec<NodeId>> = vec![Vec::new(); family.block_count()];
        for v in graph.nodes() {
            let info = family.info(v);
            for m in info.memberships {
                nodes[m.block].push(v);
            }
            match partition.part_of(v).filter(|p| active[p.index()]) {
                Some(p) => {
                    let own: Vec<usize> = info
                        .memberships
                        .iter()
                        .filter(|m| m.part == p)
                        .map(|m| m.block)
                        .collect();
                    prop_assert_eq!(own.len(), 1, "member {} of part {}", v, p);
                    prop_assert_eq!(info.own().map(|m| m.block), Some(own[0]));
                }
                None => prop_assert!(info.own().is_none()),
            }
        }

        let mut counts = vec![0usize; partition.part_count()];
        let mut seen = HashSet::new();
        for (b, block_nodes) in nodes.iter().enumerate() {
            let block = family.block(b);
            prop_assert!(active[block.part.index()]);
            counts[block.part.index()] += 1;
            prop_assert!(block_nodes.contains(&block.root));
            prop_assert_eq!(block.root_depth, tree.depth(block.root));
            // The root's parent edge leaves `H_p`; every other node hangs
            // off a deeper `H_p` edge below a node of the same block.
            let in_h = |v: NodeId| {
                tree.parent_edge(v).is_some_and(|e| shortcut.contains(block.part, e))
            };
            prop_assert!(!in_h(block.root));
            for &v in block_nodes {
                prop_assert!(seen.insert((block.part, v)), "node {} in two blocks", v);
                if v != block.root {
                    prop_assert!(tree.depth(v) > block.root_depth);
                    prop_assert!(in_h(v));
                    let parent = tree.parent(v).expect("non-root nodes have parents");
                    prop_assert!(block_nodes.contains(&parent));
                }
            }
        }
        let scheduled = verification(&graph, &tree, &partition, &shortcut, 1, &active);
        for p in partition.parts() {
            let expected = if active[p.index()] {
                shortcut.block_count(&graph, &partition, p)
            } else {
                0
            };
            prop_assert_eq!(counts[p.index()], expected, "part {}", p);
            prop_assert_eq!(scheduled.block_counts[p.index()], expected, "part {}", p);
        }

        // The router agrees with the decomposition and its supergraphs are
        // connected.
        let router = PartRouter::new(&graph, &tree, &partition, &shortcut);
        prop_assert!(router.supergraphs_connected());
        prop_assert_eq!(router.block_parameter(), shortcut.block_parameter(&graph, &partition));
    }
}
