//! Shard-count determinism properties for the superstep protocols: S = 1
//! and every S ≥ 2 must produce identical `SimStats` and identical computed
//! results, across the four generator families. The windowed engine is the
//! heaviest `next_wake` user in the workspace — every node sleeps through
//! most of each `2L + 1` window — so these properties pin the per-shard
//! wake-up calendars of S ≥ 2 against the single shard.

use proptest::prelude::*;

use lcs_congest::SimConfig;
use lcs_core::existential::ancestor_shortcut;
use lcs_core::TreeShortcut;
use lcs_dist::{part_leaders, part_min_edges, verification_simulated, BlockFamily};
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

/// A `SimConfig` pinned to a thread count (the generous generic round cap
/// is fine here — these properties compare engines, not budgets).
fn config(graph: &Graph, threads: usize) -> Option<SimConfig> {
    Some(SimConfig::for_graph(graph).with_threads(threads))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Leader election and min-edge flooding: identical stats and results
    /// for shard counts {1, 2, 3, 8}.
    #[test]
    fn part_flooding_is_engine_agnostic(
        which in 0usize..4,
        size in 4usize..8,
        parts in 2usize..9,
        seed in 0u64..300,
    ) {
        let (graph, partition) = family_instance(which, size, parts, seed);
        let tree = RootedTree::bfs(&graph, NodeId::new(0));
        let shortcut = pick_shortcut(&graph, &tree, &partition, seed);
        let family = BlockFamily::new(&graph, &tree, &partition, &shortcut);
        let weights = EdgeWeights::random_permutation(&graph, seed ^ 0xabcd);
        let candidates = lcs_dist::min_edge_candidates(&graph, &partition, &weights);

        let (leaders_ref, leader_stats_ref) =
            part_leaders(&graph, &partition, &family, config(&graph, 1)).unwrap();
        let (mins_ref, min_stats_ref) =
            part_min_edges(&graph, &partition, &family, &candidates, config(&graph, 1)).unwrap();

        for threads in [2usize, 3, 8] {
            let (leaders, leader_stats) =
                part_leaders(&graph, &partition, &family, config(&graph, threads)).unwrap();
            prop_assert_eq!(leader_stats, leader_stats_ref, "threads={}", threads);
            prop_assert_eq!(&leaders, &leaders_ref);

            let (mins, min_stats) =
                part_min_edges(&graph, &partition, &family, &candidates, config(&graph, threads))
                    .unwrap();
            prop_assert_eq!(min_stats, min_stats_ref, "threads={}", threads);
            prop_assert_eq!(&mins, &mins_ref);
        }
    }

    /// The Lemma 3 verification protocol (the longest superstep pipeline,
    /// `3T + 2` supersteps of timed wake-ups): identical stats, verdicts,
    /// and block counts for shard counts {1, 2, 3, 8}, including runs with
    /// inactive parts.
    #[test]
    fn verification_is_engine_agnostic(
        which in 0usize..4,
        size in 4usize..7,
        parts in 2usize..8,
        threshold in 1usize..5,
        seed in 0u64..300,
    ) {
        let (graph, partition) = family_instance(which, size, parts, seed);
        let tree = RootedTree::bfs(&graph, NodeId::new(0));
        let shortcut = pick_shortcut(&graph, &tree, &partition, seed);
        // Deactivate one part on some instances to cover the restricted
        // family path.
        let mut active = vec![true; partition.part_count()];
        if seed % 3 == 0 && partition.part_count() > 1 {
            active[seed as usize % partition.part_count()] = false;
        }

        let reference = verification_simulated(
            &graph, &tree, &partition, &shortcut, threshold, &active, config(&graph, 1),
        )
        .unwrap();
        for threads in [2usize, 3, 8] {
            let outcome = verification_simulated(
                &graph, &tree, &partition, &shortcut, threshold, &active,
                config(&graph, threads),
            )
            .unwrap();
            prop_assert_eq!(outcome.stats, reference.stats, "threads={}", threads);
            prop_assert_eq!(outcome.supersteps, reference.supersteps);
            prop_assert_eq!(&outcome.outcome.good, &reference.outcome.good);
            prop_assert_eq!(&outcome.outcome.block_counts, &reference.outcome.block_counts);
        }
    }

    /// Recording the verification run with a live [`lcs_obs::Obs`]: the
    /// counter half of the metrics snapshot (engine rounds/messages/bits,
    /// superstep and phase splits) is byte-identical for every shard count
    /// — counters are facts about the protocol, not about the schedule that
    /// executed it.
    #[test]
    fn verification_counters_are_engine_agnostic(
        which in 0usize..4,
        size in 4usize..7,
        parts in 2usize..8,
        threshold in 1usize..5,
        seed in 0u64..300,
    ) {
        let (graph, partition) = family_instance(which, size, parts, seed);
        let tree = RootedTree::bfs(&graph, NodeId::new(0));
        let shortcut = pick_shortcut(&graph, &tree, &partition, seed);
        let active = vec![true; partition.part_count()];

        let snapshot_at = |threads: usize| {
            let obs = lcs_obs::Obs::recording();
            lcs_dist::verification_simulated_obs(
                &graph, &tree, &partition, &shortcut, threshold, &active,
                config(&graph, threads), &obs,
            )
            .unwrap();
            obs.snapshot()
        };

        let reference = snapshot_at(1);
        let reference_text = reference.counters_text();
        prop_assert!(reference.counter("dist/verification/runs") == Some(1));
        for threads in [2usize, 3, 8] {
            let snap = snapshot_at(threads);
            prop_assert_eq!(snap.counters_text(), reference_text.clone(), "threads={}", threads);
            prop_assert_eq!(snap.counters_digest(), reference.counters_digest());
        }
    }
}
