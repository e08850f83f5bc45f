//! `FindShortcut`'s replay of repeated iterations against a driver that
//! runs every iteration.
//!
//! When the core ignores its seed (`CoreSlow`, or `CoreFast` at sampling
//! probability 1) and an iteration fixes no part, every later iteration
//! repeats it, so `FindShortcut::run` charges the rest of the budget
//! without running the core or the verifier again. The oracle below is the
//! driver without that shortcut: it recomputes every iteration and builds
//! its result part by part. Both must agree on every output and every cost
//! entry, and so must the doubling loop built on each.

use std::cell::Cell;

use proptest::prelude::*;

use lcs_core::construction::{
    core_fast, core_slow, doubling_search, verification, CoreFastConfig, DoublingAttempt,
    DoublingConfig, DoublingResult, FindShortcut, FindShortcutConfig, FindShortcutResult,
    VerificationOutcome,
};
use lcs_core::TreeShortcut;
use lcs_graph::{generators, Graph, NodeId, PartId, Partition, RootedTree};

/// The scheduled Lemma 3 verification as a construction verifier.
fn scheduled(
    g: &Graph,
    t: &RootedTree,
    p: &Partition,
    s: &TreeShortcut,
    threshold: usize,
    active: &[bool],
) -> lcs_graph::LcsResult<VerificationOutcome> {
    Ok(verification(g, t, p, s, threshold, active))
}

/// The Theorem 3 driver running every iteration of its budget.
fn oracle_find_shortcut(
    config: FindShortcutConfig,
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    initial_active: &[bool],
) -> FindShortcutResult {
    let part_count = partition.part_count();
    let budget = config
        .max_iterations
        .unwrap_or(2 * (usize::BITS - part_count.max(2).leading_zeros()) as usize + 8);
    let threshold = 3 * config.block.max(1);
    let mut edge_sets = vec![Vec::new(); part_count];
    let mut remaining = initial_active.to_vec();
    let active_count = remaining.iter().filter(|&&a| a).count();
    let mut remaining_count = active_count;
    let mut cost = lcs_congest::RoundCost::new();
    let mut good_after_iteration = Vec::new();
    let mut iterations = 0;
    while remaining_count > 0 && iterations < budget {
        iterations += 1;
        let core = if config.use_fast_core {
            let cfg = CoreFastConfig::new(config.congestion)
                .with_gamma(config.gamma)
                .with_seed(config.seed.wrapping_add(iterations as u64));
            core_fast(graph, tree, partition, &cfg, &remaining)
        } else {
            core_slow(graph, tree, partition, config.congestion, &remaining)
        };
        cost.charge(format!("iteration-{iterations}/core"), core.rounds);
        let verified = verification(
            graph,
            tree,
            partition,
            &core.shortcut,
            threshold,
            &remaining,
        );
        cost.charge(
            format!("iteration-{iterations}/verification"),
            verified.rounds,
        );
        for (p, still_remaining) in remaining.iter_mut().enumerate() {
            if *still_remaining && verified.good[p] {
                edge_sets[p] = core.shortcut.edges_of(PartId::new(p)).to_vec();
                *still_remaining = false;
                remaining_count -= 1;
            }
        }
        good_after_iteration.push(active_count - remaining_count);
    }
    FindShortcutResult {
        shortcut: TreeShortcut::from_edge_sets(graph, tree, partition, edge_sets)
            .expect("core output sits on tree edges"),
        iterations,
        all_parts_good: remaining_count == 0,
        good_after_iteration,
        cost,
    }
}

/// The Appendix A loop over [`oracle_find_shortcut`].
fn oracle_doubling(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    active: &[bool],
    config: &DoublingConfig,
    max_iterations: Option<usize>,
) -> DoublingResult {
    let (mut congestion, mut block) = (config.congestion.max(1), config.block.max(1));
    let mut attempts = Vec::new();
    loop {
        let seed = config.seed.wrapping_add(attempts.len() as u64 * 7919);
        let fs = FindShortcutConfig {
            use_fast_core: config.use_fast_core,
            max_iterations,
            ..FindShortcutConfig::new(congestion, block).with_seed(seed)
        };
        let result = oracle_find_shortcut(fs, graph, tree, partition, active);
        attempts.push(DoublingAttempt {
            congestion_guess: congestion,
            block_guess: block,
            succeeded: result.all_parts_good,
            rounds: result.total_rounds(),
        });
        if result.all_parts_good || attempts.len() > config.max_doublings {
            let active_count = active.iter().filter(|&&a| a).count();
            let good = result.good_after_iteration.last().copied().unwrap_or(0);
            return DoublingResult {
                shortcut: result.shortcut,
                iterations: result.iterations,
                all_parts_good: result.all_parts_good,
                remaining_bad: active_count - good,
                attempts,
            };
        }
        congestion *= 2;
        block *= 2;
    }
}

/// One instance per family: the graph, its BFS tree and its canonical
/// partition, with about `size²` nodes (the lower-bound instance is fixed).
fn family_instance(family: usize, size: usize, seed: u64) -> (Graph, RootedTree, Partition) {
    let balls = |g: Graph| {
        let p = generators::partitions::random_bfs_balls(&g, size, 0);
        (g, p)
    };
    let (g, partition) = match family {
        0 => (
            generators::grid(size, size),
            generators::partitions::grid_columns(size, size),
        ),
        1 => (
            generators::torus(size, size),
            generators::partitions::grid_columns(size, size),
        ),
        2 => balls(generators::random_connected(size * size, 2 * size, seed)),
        3 => balls(generators::caterpillar(3 * size, 2)),
        4 => (
            generators::wheel(size * size + 1),
            generators::partitions::wheel_arcs(size * size + 1, size),
        ),
        _ => {
            let (g, layout) = generators::lower_bound_graph(8, 16);
            let t = RootedTree::bfs(&g, layout.connector(0));
            return (g, t, generators::partitions::lower_bound_paths(&layout));
        }
    };
    let t = RootedTree::bfs(&g, NodeId::new(0));
    (g, t, partition)
}

/// The `(c, b)` settings. At the default `γ = 2`, `CoreFast` ignores its
/// seed at `c ≤ log₂ n`, which covers the small settings on most instances
/// here, and depends on it at `(64, 2)`.
const PARAMETERS: [(usize, usize); 5] = [(1, 1), (2, 2), (4, 4), (8, 8), (64, 2)];

/// Sampling constants for the direct driver runs. At `γ = 0.5` the
/// sampling probability is below 1 from `c = 2` on for every instance
/// here, where the small instances leave parts bad in some iterations and
/// not in others, so replaying a seed-dependent core would show.
const GAMMAS: [f64; 2] = [2.0, 0.5];

/// Compares the library with the oracles on one instance for every
/// `(c, b)`, core, active mask, iteration budget and sampling constant.
fn check_instance(g: &Graph, t: &RootedTree, p: &Partition, seed: u64, family: usize) {
    let full = vec![true; p.part_count()];
    let partial: Vec<bool> = (0..p.part_count()).map(|i| i % 3 != 1).collect();
    for (c, b) in PARAMETERS {
        for fast in [true, false] {
            for active in [&full, &partial] {
                for max_iterations in [None, Some(4)] {
                    let label = format!(
                        "family {family} parts {} (c, b) = ({c}, {b}) fast {fast} \
                         active {active:?} budget {max_iterations:?}",
                        p.part_count()
                    );
                    for gamma in GAMMAS {
                        let config = FindShortcutConfig {
                            use_fast_core: fast,
                            max_iterations,
                            ..FindShortcutConfig::new(c, b)
                                .with_seed(seed)
                                .with_gamma(gamma)
                        };
                        let lib = FindShortcut::new(config)
                            .run(g, t, p, active, scheduled)
                            .expect("scheduled verification does not fail");
                        let oracle = oracle_find_shortcut(config, g, t, p, active);
                        let label = format!("{label} gamma {gamma}");
                        assert_eq!(lib.shortcut, oracle.shortcut, "{label}");
                        assert_eq!(lib.iterations, oracle.iterations, "{label}");
                        assert_eq!(lib.all_parts_good, oracle.all_parts_good, "{label}");
                        assert_eq!(
                            lib.good_after_iteration, oracle.good_after_iteration,
                            "{label}"
                        );
                        assert_eq!(lib.cost.entries(), oracle.cost.entries(), "{label}");
                    }

                    let doubling = DoublingConfig {
                        congestion: c,
                        block: b,
                        use_fast_core: fast,
                        max_doublings: 2,
                        seed,
                    };
                    let lib =
                        doubling_search(g, t, p, active, &doubling, max_iterations, scheduled)
                            .expect("scheduled verification does not fail");
                    let oracle = oracle_doubling(g, t, p, active, &doubling, max_iterations);
                    assert_eq!(lib.shortcut, oracle.shortcut, "{label}");
                    assert_eq!(lib.iterations, oracle.iterations, "{label}");
                    assert_eq!(lib.all_parts_good, oracle.all_parts_good, "{label}");
                    assert_eq!(lib.remaining_bad, oracle.remaining_bad, "{label}");
                    assert_eq!(lib.attempts, oracle.attempts, "{label}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Replaying `FindShortcut` and the doubling loop equal the oracles on
    /// every output and cost entry: six families × canonical and random
    /// BFS-ball partitions × five `(c, b)` × both cores × full and partial
    /// masks × default and 4-iteration budgets (× two sampling constants
    /// for the driver).
    #[test]
    fn replayed_iterations_equal_running_every_iteration(
        size in 3usize..7,
        parts in 1usize..10,
        seed in 0u64..1000,
    ) {
        for family in 0..6 {
            let (g, t, canonical) = family_instance(family, size, seed);
            let parts = parts.min(g.node_count());
            let balls = generators::partitions::random_bfs_balls(&g, parts, seed);
            check_instance(&g, &t, &canonical, seed, family);
            check_instance(&g, &t, &balls, seed, family);
        }
    }
}

/// On serve-build's torus corpus at `(1, 1)` the driver stops calling the
/// verifier once an iteration fixes no part, yet charges every iteration.
#[test]
fn a_fruitless_seedless_iteration_ends_the_verifier_calls() {
    let g = generators::torus(16, 16);
    let t = RootedTree::bfs(&g, NodeId::new(0));
    let p = generators::partitions::random_bfs_balls(&g, 16, 31);
    let calls = Cell::new(0usize);
    let counting = |g: &Graph,
                    t: &RootedTree,
                    p: &Partition,
                    s: &TreeShortcut,
                    threshold: usize,
                    active: &[bool]| {
        calls.set(calls.get() + 1);
        scheduled(g, t, p, s, threshold, active)
    };
    let config = FindShortcutConfig::new(1, 1);
    assert_eq!(
        CoreFastConfig::new(1).sampling_probability(g.node_count()),
        1.0
    );
    let active = vec![true; p.part_count()];
    let result = FindShortcut::new(config)
        .run(&g, &t, &p, &active, counting)
        .unwrap();
    assert!(
        calls.get() < result.iterations,
        "{} verifier calls for {} iterations",
        calls.get(),
        result.iterations
    );
    let oracle = oracle_find_shortcut(config, &g, &t, &p, &active);
    assert_eq!(result.iterations, oracle.iterations);
    assert_eq!(result.cost, oracle.cost);
    assert_eq!(result.shortcut, oracle.shortcut);
}
