//! Cross-crate integration tests: the full pipeline from graph generation
//! through shortcut construction and routing to the MST application,
//! validated against centralized references.
//!
//! The lower-layer entry points (`doubling_search`, `FindShortcut::run`,
//! `boruvka_mst`) are exercised directly with the scheduled verifier below,
//! beside the façade tests that run the same pipeline through a session.

use low_congestion_shortcuts::api;
use low_congestion_shortcuts::core::construction::{
    doubling_search, verification, DoublingConfig, DoublingResult, FindShortcut,
    FindShortcutConfig, FindShortcutResult, VerificationOutcome,
};
use low_congestion_shortcuts::core::existential::reference_parameters;
use low_congestion_shortcuts::core::routing::PartRouter;
use low_congestion_shortcuts::core::TreeShortcut;
use low_congestion_shortcuts::graph::{
    diameter_exact, generators, kruskal_mst, EdgeWeights, Graph, NodeId, Partition, RootedTree,
};
use low_congestion_shortcuts::mst::{
    boruvka_mst, part_aggregate, verify, MstOutcome, ShortcutStrategy,
};

/// The scheduled Lemma 3 verification as a construction verifier.
fn scheduled(
    g: &Graph,
    t: &RootedTree,
    p: &Partition,
    s: &TreeShortcut,
    threshold: usize,
    active: &[bool],
) -> low_congestion_shortcuts::core::Result<VerificationOutcome> {
    Ok(verification(g, t, p, s, threshold, active))
}

/// The default doubling search (start at `(1, 1)`, seed 0) on every part.
fn doubling(graph: &Graph, tree: &RootedTree, partition: &Partition) -> DoublingResult {
    let active = vec![true; partition.part_count()];
    let result = doubling_search(
        graph,
        tree,
        partition,
        &active,
        &DoublingConfig::default(),
        None,
        scheduled,
    )
    .unwrap();
    assert!(result.all_parts_good);
    result
}

/// `FindShortcut` at known parameters on every part.
fn find_shortcut(
    config: FindShortcutConfig,
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
) -> FindShortcutResult {
    let active = vec![true; partition.part_count()];
    FindShortcut::new(config)
        .run(graph, tree, partition, &active, scheduled)
        .unwrap()
}

/// Scheduled Boruvka (seed 0) over the BFS tree from node 0.
fn mst(graph: &Graph, weights: &EdgeWeights, strategy: ShortcutStrategy) -> MstOutcome {
    let tree = RootedTree::bfs(graph, NodeId::new(0));
    boruvka_mst(graph, &tree, weights, strategy, 0, None, scheduled).unwrap()
}

/// End-to-end pipeline on a planar grid: generate, construct shortcuts with
/// the doubling search, route, and solve MST — everything must agree with
/// the centralized references.
#[test]
fn full_pipeline_on_planar_grid() {
    let graph = generators::grid(10, 10);
    let partition = generators::partitions::grid_columns(10, 10);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));

    // Shortcut construction without knowing (c, b).
    let constructed = doubling(&graph, &tree, &partition);
    let quality = constructed.shortcut.quality(&graph, &partition);
    let winning = constructed.attempts.last().unwrap();
    assert!(quality.block_parameter <= 3 * winning.block_guess);
    assert!(quality.satisfies_lemma1(tree.depth_of_tree()));

    // Routing on the constructed shortcut: per-part member counts.
    let router = PartRouter::new(&graph, &tree, &partition, &constructed.shortcut);
    assert!(router.supergraphs_connected());
    let ones: Vec<Option<u64>> = graph
        .nodes()
        .map(|v| partition.part_of(v).map(|_| 1))
        .collect();
    let sums = router.aggregate_to_leaders(&ones, |a, b| a + b);
    for p in partition.parts() {
        assert_eq!(
            sums.values[p.index()],
            Some(partition.members(p).len() as u64)
        );
    }

    // Distributed MST matches Kruskal.
    let weights = EdgeWeights::random_permutation(&graph, 99);
    let outcome = mst(&graph, &weights, ShortcutStrategy::Doubling);
    assert_eq!(outcome.edges, kruskal_mst(&graph, &weights));
    assert!(verify::is_minimum_spanning_tree(
        &graph,
        &weights,
        &outcome.edges
    ));
}

/// The headline separation: on a wheel (network diameter 2, long rim arcs)
/// the shortcut-based MST routing beats the part-internal baseline, and both
/// compute the same (correct) tree.
#[test]
fn shortcut_mst_beats_baseline_routing_on_low_diameter_planar_graphs() {
    let graph = generators::wheel(257);
    assert_eq!(diameter_exact(&graph), 2);
    let weights = EdgeWeights::random_permutation(&graph, 5);

    let with_shortcuts = mst(
        &graph,
        &weights,
        ShortcutStrategy::FindShortcut {
            congestion: 2,
            block: 2,
        },
    );
    let baseline = mst(&graph, &weights, ShortcutStrategy::NoShortcut);

    assert_eq!(with_shortcuts.edges, baseline.edges);
    assert_eq!(with_shortcuts.edges, kruskal_mst(&graph, &weights));

    let routing = |outcome: &low_congestion_shortcuts::mst::MstOutcome| -> u64 {
        outcome
            .cost
            .entries()
            .iter()
            .filter(|(label, _)| label.contains("min-outgoing-edge"))
            .map(|(_, rounds)| rounds)
            .sum()
    };
    assert!(
        routing(&with_shortcuts) < routing(&baseline),
        "shortcut routing ({}) must beat the baseline ({})",
        routing(&with_shortcuts),
        routing(&baseline)
    );
}

/// Theorem 3 guarantee, cross-checked through the public API only, on a
/// genus-1 (toroidal) instance.
#[test]
fn theorem3_on_torus_with_reference_parameters() {
    let graph = generators::torus(10, 10);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let partition = generators::partitions::random_bfs_balls(&graph, 10, 1);
    let (_, reference) = reference_parameters(&graph, &tree, &partition);

    let result = find_shortcut(
        FindShortcutConfig::new(
            reference.congestion.max(1),
            reference.block_parameter.max(1),
        ),
        &graph,
        &tree,
        &partition,
    );

    assert!(result.all_parts_good);
    let quality = result.shortcut.quality(&graph, &partition);
    assert!(quality.block_parameter <= 3 * reference.block_parameter.max(1));
    assert!(quality.congestion <= 8 * reference.congestion.max(1) * result.iterations + 1);
}

/// The lower-bound instance: the framework does not (and should not) help,
/// but everything still runs and produces correct results.
#[test]
fn lower_bound_instance_still_computes_correct_mst() {
    let (graph, _layout) = generators::lower_bound_graph(6, 24);
    let weights = EdgeWeights::random_permutation(&graph, 13);
    let outcome = mst(&graph, &weights, ShortcutStrategy::Doubling);
    assert_eq!(outcome.edges, kruskal_mst(&graph, &weights));
}

/// Part-wise aggregation through the umbrella API on a genus-g handle graph.
#[test]
fn part_aggregate_on_genus_graph() {
    let graph = generators::genus_handles(10, 10, 3);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let partition = generators::partitions::grid_columns(10, 10);
    let constructed = doubling(&graph, &tree, &partition);

    // Every member contributes its degree; the per-part sums must match a
    // direct computation.
    let degrees: Vec<Option<u64>> = graph
        .nodes()
        .map(|v| partition.part_of(v).map(|_| graph.degree(v) as u64))
        .collect();
    let outcome = part_aggregate(
        &graph,
        &tree,
        &partition,
        &constructed.shortcut,
        &degrees,
        |a, b| a + b,
    );
    for p in partition.parts() {
        let expected: u64 = partition
            .members(p)
            .iter()
            .map(|&v| graph.degree(v) as u64)
            .sum();
        assert_eq!(outcome.values[p.index()], Some(expected));
    }
    assert!(outcome.rounds > 0);
}

/// Round counts reported by the construction are internally consistent: the
/// per-iteration breakdown sums to the total, and more parts cannot make the
/// empty-work case cheaper than the real one.
#[test]
fn round_accounting_is_consistent() {
    let graph = generators::grid(12, 12);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let partition = generators::partitions::grid_columns(12, 12);
    let (_, reference) = reference_parameters(&graph, &tree, &partition);
    let result = find_shortcut(
        FindShortcutConfig::new(
            reference.congestion.max(1),
            reference.block_parameter.max(1),
        ),
        &graph,
        &tree,
        &partition,
    );

    let breakdown_sum: u64 = result.cost.entries().iter().map(|(_, r)| r).sum();
    assert_eq!(breakdown_sum, result.total_rounds());
    assert!(result.cost.total_for_prefix("iteration-1/") > 0);
    // Every executed iteration appears in the breakdown.
    for i in 1..=result.iterations {
        assert!(result.cost.total_for_prefix(&format!("iteration-{i}/")) > 0);
    }
}

/// The distributed protocol layer end to end through the umbrella API: the
/// whole pipeline — shortcut construction with simulated verification,
/// cross-checked routing primitives, and Boruvka with simulated per-part
/// communication and simulated verification in every phase — agrees with
/// the centralized references.
#[test]
fn simulated_execution_pipeline_agrees_with_centralized_references() {
    use low_congestion_shortcuts::api::ExecutionMode;
    use low_congestion_shortcuts::dist;

    // FindShortcut with the message-passing verification drop-in: the same
    // cores and the same classification of good parts, hence the same
    // shortcut and iteration count; only the charged rounds may differ.
    let fixed_shortcut = |graph: &Graph, partition: &Partition, seed: u64| {
        let tree = RootedTree::bfs(graph, NodeId::new(0));
        let (_, reference) = reference_parameters(graph, &tree, partition);
        let b = reference.block_parameter.max(1);
        let fixed = api::Strategy::Fixed {
            congestion: reference.congestion.max(1),
            block: b,
        };
        let run = |mode| {
            api::Pipeline::on(graph)
                .execution(mode)
                .seed(seed)
                .build()
                .unwrap()
                .shortcut(partition, fixed)
                .unwrap()
        };
        let scheduled_run = run(ExecutionMode::Scheduled);
        let simulated = run(ExecutionMode::Simulated);
        assert!(scheduled_run.report.all_parts_good);
        assert!(simulated.report.all_parts_good);
        assert_eq!(simulated.shortcut, scheduled_run.shortcut);
        assert_eq!(simulated.report.iterations, scheduled_run.report.iterations);
        let q = simulated.shortcut.quality(graph, partition);
        assert!(q.block_parameter <= 3 * b);
        simulated.shortcut
    };
    let grid6 = generators::grid(6, 6);
    fixed_shortcut(&grid6, &generators::partitions::grid_columns(6, 6), 7);

    let graph = generators::grid(8, 8);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let partition = generators::partitions::random_bfs_balls(&graph, 8, 2);
    let (_, reference) = reference_parameters(&graph, &tree, &partition);
    let shortcut = fixed_shortcut(&graph, &partition, 4);

    // Cross-check every routing primitive on the constructed shortcut.
    let check = dist::CrossCheck::new(&graph, &tree, &partition, &shortcut).unwrap();
    check.leader_election().unwrap();
    let weights = EdgeWeights::random_permutation(&graph, 21);
    let candidates = dist::min_edge_candidates(&graph, &partition, &weights);
    check.min_edge(&candidates).unwrap();
    check
        .block_counts(3 * reference.block_parameter.max(1))
        .unwrap();

    // Boruvka with simulated per-part communication and simulated
    // verification still equals Kruskal.
    let outcome = api::Pipeline::on(&graph)
        .execution(ExecutionMode::Simulated)
        .seed(2)
        .build()
        .unwrap()
        .mst(&weights, ShortcutStrategy::Doubling)
        .unwrap();
    assert_eq!(outcome.edges, kruskal_mst(&graph, &weights));
}

/// The same full pipeline through the `api` front door: one session serves
/// construction, quality, verification and MST, and every result agrees
/// with the direct calls exercised by the tests above.
#[test]
fn full_pipeline_through_the_api_facade() {
    let graph = generators::grid(10, 10);
    let partition = generators::partitions::grid_columns(10, 10);
    let mut session = api::Pipeline::on(&graph)
        .build()
        .expect("the grid is connected");

    // Construction without knowing (c, b), equal to the direct search.
    let run = session
        .shortcut(&partition, api::Strategy::doubling())
        .unwrap();
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let direct = doubling(&graph, &tree, &partition);
    assert_eq!(run.shortcut, direct.shortcut);
    assert_eq!(run.report.attempts, direct.attempts);
    assert!(run.report.all_parts_good);

    // Quality through the session's reusable workspaces.
    let quality = session.quality(&run.shortcut, &partition).unwrap();
    assert_eq!(quality, direct.shortcut.quality(&graph, &partition));
    let (_, b) = run.winning_guess().unwrap();
    assert!(quality.block_parameter <= 3 * b);

    // Verification in both execution modes classifies identically.
    let scheduled = session.verify(&run.shortcut, &partition, 3 * b).unwrap();
    session.set_execution(api::ExecutionMode::Simulated);
    let simulated = session.verify(&run.shortcut, &partition, 3 * b).unwrap();
    assert_eq!(scheduled.good, simulated.good);
    assert!(simulated.report.sim.is_some());
    session.set_execution(api::ExecutionMode::Scheduled);

    // MST through the session equals Kruskal.
    let weights = EdgeWeights::random_permutation(&graph, 99);
    let mst = session
        .mst(&weights, api::ShortcutStrategy::Doubling)
        .unwrap();
    assert_eq!(mst.edges, kruskal_mst(&graph, &weights));

    // The unified report serializes as JSON without external dependencies.
    let json = run.report.to_json();
    assert!(json.starts_with("{\"operation\":\"shortcut\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

/// The unified error type carries every layer's failures through one enum.
#[test]
fn unified_error_spans_the_pipeline_layers() {
    use low_congestion_shortcuts::graph::LcsError;

    // Config: zero threads is rejected at the parse surface.
    let err = low_congestion_shortcuts::graph::Threads::parse("0").unwrap_err();
    assert!(matches!(err, LcsError::Config { .. }));

    // Budget: the lower-bound instance cannot be served at (1, 1).
    let (graph, layout) = generators::lower_bound_graph(6, 16);
    let partition = generators::partitions::lower_bound_paths(&layout);
    let session = api::Pipeline::on(&graph)
        .tree(api::TreeSpec::Bfs(layout.connector(0)))
        .build()
        .unwrap();
    let err = session
        .shortcut(
            &partition,
            api::Strategy::Doubling(api::DoublingSpec {
                max_doublings: 0,
                ..api::DoublingSpec::default()
            }),
        )
        .unwrap_err();
    assert!(matches!(err, LcsError::BudgetExhausted { .. }));

    // Inconsistent inputs: a partition over the wrong node count.
    let other = generators::partitions::grid_columns(3, 3);
    let err = session
        .shortcut(&other, api::Strategy::doubling())
        .unwrap_err();
    assert!(matches!(err, LcsError::InconsistentInputs { .. }));
}
