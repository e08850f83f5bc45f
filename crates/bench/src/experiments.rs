//! The experiment tables E1–E17.
//!
//! Every table is produced through the `lcs_api` façade: one
//! [`Pipeline`]-built [`Session`] per instance graph, queried for
//! shortcuts, quality, verification and MST, so per-graph state (tree,
//! quality workspaces) is built once per session instead of once per
//! measurement. A table names its wall-clock columns
//! ([`Table::wall_clock`]); every other cell is a value, the same on every
//! run and at every thread count, which `.github/scripts/values.py check`
//! compares with the committed `.github/reference/values.json`.

use lcs_api::dist::{min_edge_candidates, AggregateOp};
use lcs_api::existential::reference_parameters;
use lcs_api::graph::{
    diameter_exact, generators, EdgeWeights, Graph, NodeId, Partition, RootedTree,
};
use lcs_api::routing::{convergecast_rounds, RoutingPriority, SubtreeSpec};
use lcs_api::{
    CoreKind, CoreOutcome, CrossCheck, ExecutionMode, MstRun, Pipeline, Session, ShortcutStrategy,
    Strategy,
};

/// A rendered experiment table: a title, column headers and string rows,
/// plus what only the JSON artifact carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment identifier and short description.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// One row per measurement.
    pub rows: Vec<Vec<String>>,
    /// Headers of the columns that hold wall-clock measurements. Every
    /// other cell is a value, identical across reruns and thread counts.
    pub wall_clock: Vec<String>,
    /// A JSON document written under the table's `"extra"` key of the
    /// `--json` artifact and never printed: what the rows cannot hold,
    /// such as latency histograms and metric snapshots, one entry per row.
    pub extra: Option<String>,
}

/// Owned column names, for [`Table::headers`] and [`Table::wall_clock`].
fn columns(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// Renders a [`Table`] as aligned plain text.
pub fn render_table(table: &Table) -> String {
    let mut widths: Vec<usize> = table.headers.iter().map(String::len).collect();
    for row in &table.rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(&format!("## {}\n", table.title));
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(&table.headers));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in &table.rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

fn grid_instance(side: usize) -> (Graph, Partition) {
    let graph = generators::grid(side, side);
    let partition = generators::partitions::grid_columns(side, side);
    (graph, partition)
}

/// A session with the experiments' standard shape: BFS tree rooted at node
/// 0, auto threads, scheduled execution, the given seed.
fn session_on(graph: &Graph, seed: u64) -> Session<'_> {
    Pipeline::on(graph)
        .seed(seed)
        .build()
        .expect("experiment instances are nonempty and connected")
}

/// E1 — Theorem 1 / Corollary 1 shape: quality of constructed shortcuts on
/// planar and genus-`g` families (grid-column partitions, doubling
/// construction).
pub fn e1_quality_table() -> Table {
    let mut rows = Vec::new();
    let mut push_row = |family: String, graph: &Graph, partition: &Partition| {
        let session = session_on(graph, 0);
        let run = session
            .shortcut(partition, Strategy::doubling())
            .expect("families in E1 admit shortcuts");
        let q = session
            .quality(&run.shortcut, partition)
            .expect("partition matches the session graph");
        rows.push(vec![
            family,
            graph.node_count().to_string(),
            diameter_exact(graph).to_string(),
            partition.part_count().to_string(),
            q.congestion.to_string(),
            q.block_parameter.to_string(),
            q.dilation.to_string(),
            run.total_rounds().to_string(),
        ]);
    };

    for side in [8usize, 12, 16, 24] {
        let (graph, partition) = grid_instance(side);
        push_row(format!("grid {side}x{side} (genus 0)"), &graph, &partition);
    }
    for genus in [1usize, 2, 4, 8] {
        let graph = generators::genus_handles(16, 16, genus);
        let partition = generators::partitions::grid_columns(16, 16);
        push_row(
            format!("16x16 + {genus} handles (genus <= {genus})"),
            &graph,
            &partition,
        );
    }
    {
        let graph = generators::torus(16, 16);
        let partition = generators::partitions::grid_columns(16, 16);
        push_row("torus 16x16 (genus 1)".to_string(), &graph, &partition);
    }
    {
        let graph = generators::wheel(257);
        let partition = generators::partitions::wheel_arcs(257, 16);
        push_row("wheel W_257 (planar, D=2)".to_string(), &graph, &partition);
    }

    Table {
        title: "E1: shortcut quality on planar / genus-g families (doubling construction)"
            .to_string(),
        headers: columns(&[
            "family",
            "n",
            "D",
            "N",
            "congestion",
            "block",
            "dilation",
            "rounds",
        ]),
        rows,
        wall_clock: Vec::new(),
        extra: None,
    }
}

/// E2 — Theorem 3 shape: FindShortcut round count as the instance grows
/// (grid side sweep and part-count sweep).
pub fn e2_findshortcut_table() -> Table {
    let mut rows = Vec::new();
    for side in [8usize, 12, 16, 24, 32] {
        let (graph, partition) = grid_instance(side);
        let session = session_on(&graph, 1);
        let (_, reference) = reference_parameters(&graph, session.tree(), &partition);
        let (c, b) = (
            reference.congestion.max(1),
            reference.block_parameter.max(1),
        );
        let run = session
            .shortcut(
                &partition,
                Strategy::Fixed {
                    congestion: c,
                    block: b,
                },
            )
            .unwrap();
        let q = session.quality(&run.shortcut, &partition).unwrap();
        rows.push(vec![
            format!("grid {side}x{side}, columns"),
            graph.node_count().to_string(),
            session.tree().depth_of_tree().to_string(),
            partition.part_count().to_string(),
            format!("({}, {})", reference.congestion, reference.block_parameter),
            run.report.iterations.to_string(),
            run.total_rounds().to_string(),
            q.congestion.to_string(),
            q.block_parameter.to_string(),
            run.report.all_parts_good.to_string(),
        ]);
    }
    // Part-count sweep at fixed size: random BFS-ball partitions, all rows
    // served by one session (the multi-query shape the façade exists for).
    let side = 20usize;
    let graph = generators::grid(side, side);
    let session = session_on(&graph, 2);
    for parts in [5usize, 10, 20, 40, 80] {
        let partition = generators::partitions::random_bfs_balls(&graph, parts, 7);
        let (_, reference) = reference_parameters(&graph, session.tree(), &partition);
        let (c, b) = (
            reference.congestion.max(1),
            reference.block_parameter.max(1),
        );
        let run = session
            .shortcut(
                &partition,
                Strategy::Fixed {
                    congestion: c,
                    block: b,
                },
            )
            .unwrap();
        let q = session.quality(&run.shortcut, &partition).unwrap();
        rows.push(vec![
            format!("grid {side}x{side}, {parts} BFS balls"),
            graph.node_count().to_string(),
            session.tree().depth_of_tree().to_string(),
            parts.to_string(),
            format!("({}, {})", reference.congestion, reference.block_parameter),
            run.report.iterations.to_string(),
            run.total_rounds().to_string(),
            q.congestion.to_string(),
            q.block_parameter.to_string(),
            run.report.all_parts_good.to_string(),
        ]);
    }
    Table {
        title: "E2: FindShortcut (Theorem 3) scaling — rounds vs n, D and N".to_string(),
        headers: columns(&[
            "instance",
            "n",
            "depth(T)",
            "N",
            "(c, b) ref",
            "iterations",
            "rounds",
            "out congestion",
            "out block",
            "all good",
        ]),
        rows,
        wall_clock: Vec::new(),
        extra: None,
    }
}

/// E3 — Lemma 2 / Theorem 2 shape: routing rounds versus `D + c`.
pub fn e3_routing_table() -> Table {
    let mut rows = Vec::new();
    // Overlapping copies of a path subtree: congestion grows, depth fixed.
    let graph = generators::path(200);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let all: Vec<NodeId> = graph.nodes().collect();
    for c in [1usize, 2, 4, 8, 16, 32] {
        let family: Vec<SubtreeSpec> = (0..c)
            .map(|_| SubtreeSpec::new(&tree, all.clone()))
            .collect();
        let lemma2 = convergecast_rounds(&tree, &family, RoutingPriority::BlockRootDepth);
        let reverse = convergecast_rounds(&tree, &family, RoutingPriority::ReverseDepth);
        rows.push(vec![
            format!("path_200, {c} overlapping subtrees"),
            tree.depth_of_tree().to_string(),
            c.to_string(),
            lemma2.rounds.to_string(),
            (u64::from(tree.depth_of_tree()) + c as u64).to_string(),
            reverse.rounds.to_string(),
        ]);
    }
    // Nested suffixes on a deeper path: priority rule matters more.
    let graph = generators::path(240);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    for c in [8usize, 16, 32] {
        let family: Vec<SubtreeSpec> = (0..c)
            .map(|k| SubtreeSpec::new(&tree, (k * (240 / c)..240).map(NodeId::new).collect()))
            .collect();
        let lemma2 = convergecast_rounds(&tree, &family, RoutingPriority::BlockRootDepth);
        let reverse = convergecast_rounds(&tree, &family, RoutingPriority::ReverseDepth);
        rows.push(vec![
            format!("path_240, {c} nested suffixes"),
            tree.depth_of_tree().to_string(),
            lemma2.max_edge_load.to_string(),
            lemma2.rounds.to_string(),
            (u64::from(tree.depth_of_tree()) + lemma2.max_edge_load as u64).to_string(),
            reverse.rounds.to_string(),
        ]);
    }
    Table {
        title: "E3: Lemma 2 tree routing — measured rounds vs the D + c bound (and the reverse-priority ablation)".to_string(),
        headers: columns(&["family", "D", "c", "rounds (Lemma 2 priority)", "D + c bound", "rounds (reverse priority)"]),
        rows,
        wall_clock: Vec::new(),
        extra: None,
    }
}

/// E4 — Lemma 4 shape: distributed MST rounds, shortcuts vs baselines.
///
/// Reports both the total rounds (which include the per-phase shortcut
/// construction) and the routing-only rounds (the cost of the per-part
/// minimum-outgoing-edge exchanges, the quantity Lemma 4's comparison is
/// about: `O(D·polylog)` with shortcuts versus the part diameter without).
pub fn e4_mst_table() -> Table {
    /// Sum of the "min-outgoing-edge" entries of a run's cost breakdown.
    fn routing_rounds(outcome: &MstRun) -> u64 {
        outcome
            .cost
            .entries()
            .iter()
            .filter(|(label, _)| label.contains("min-outgoing-edge"))
            .map(|(_, rounds)| rounds)
            .sum()
    }

    let mut rows = Vec::new();
    let mut push_row = |family: &str, graph: &Graph, seed: u64| {
        let weights = EdgeWeights::random_permutation(graph, seed);
        let reference = lcs_api::graph::kruskal_mst(graph, &weights);
        let session = session_on(graph, seed);
        let mut cells = vec![
            family.to_string(),
            graph.node_count().to_string(),
            diameter_exact(graph).to_string(),
        ];
        let mut routing = Vec::new();
        for strategy in [
            ShortcutStrategy::Doubling,
            ShortcutStrategy::NoShortcut,
            ShortcutStrategy::WholeTree,
        ] {
            let outcome = session.mst(&weights, strategy).expect("MST succeeds");
            assert_eq!(
                outcome.edges, reference,
                "distributed MST must match Kruskal"
            );
            cells.push(outcome.report.rounds_charged.to_string());
            if matches!(strategy, ShortcutStrategy::Doubling) {
                cells.push(outcome.phases.to_string());
            }
            if !matches!(strategy, ShortcutStrategy::WholeTree) {
                routing.push(routing_rounds(&outcome).to_string());
            }
        }
        cells.extend(routing);
        rows.push(cells);
    };

    push_row("wheel W_129 (D=2)", &generators::wheel(129), 3);
    push_row("wheel W_257 (D=2)", &generators::wheel(257), 4);
    push_row("wheel W_513 (D=2)", &generators::wheel(513), 5);
    push_row("wheel W_1025 (D=2)", &generators::wheel(1025), 10);
    push_row("grid 12x12", &generators::grid(12, 12), 6);
    push_row("grid 16x16", &generators::grid(16, 16), 7);
    push_row("torus 12x12 (genus 1)", &generators::torus(12, 12), 8);
    let (lb, _) = generators::lower_bound_graph(8, 32);
    push_row("lower-bound graph 8x32 (hard)", &lb, 9);

    Table {
        title: "E4: distributed Boruvka MST (Lemma 4) — rounds by shortcut strategy (totals include per-phase construction; 'routing' columns isolate the per-part min-edge exchanges)"
            .to_string(),
        headers: columns(&[
            "family", "n", "D", "doubling total", "phases", "no-shortcut total",
            "whole-tree total", "shortcut routing", "baseline routing",
        ]),
        rows,
        wall_clock: Vec::new(),
        extra: None,
    }
}

/// E5 — Lemmas 5 and 7: CoreSlow vs CoreFast rounds and output quality.
pub fn e5_core_table() -> Table {
    let mut rows = Vec::new();
    let side = 20usize;
    let graph = generators::grid(side, side);
    let session = session_on(&graph, 5);
    for parts in [10usize, 25, 50, 100, 200] {
        let partition = generators::partitions::random_bfs_balls(&graph, parts, 3);
        let (_, reference) = reference_parameters(&graph, session.tree(), &partition);
        let c = reference.congestion.max(1);
        let b = reference.block_parameter.max(1);
        let slow = session.core(&partition, CoreKind::Slow, c).unwrap();
        let fast = session.core(&partition, CoreKind::Fast, c).unwrap();
        let good = |shortcut: &lcs_api::TreeShortcut| {
            shortcut
                .block_counts(&graph, &partition)
                .iter()
                .filter(|&&k| k <= 3 * b)
                .count()
        };
        let max_assign = |outcome: &CoreOutcome| {
            graph
                .edge_ids()
                .map(|e| outcome.shortcut.parts_on_edge(e).len())
                .max()
                .unwrap_or(0)
        };
        rows.push(vec![
            format!("grid {side}x{side}, {parts} BFS balls"),
            format!("({c}, {b})"),
            slow.rounds.to_string(),
            fast.rounds.to_string(),
            format!("{}/{}", good(&slow.shortcut), parts),
            format!("{}/{}", good(&fast.shortcut), parts),
            format!("{} (<= {})", max_assign(&slow), 2 * c),
            max_assign(&fast).to_string(),
        ]);
    }
    Table {
        title:
            "E5: CoreSlow (Lemma 7) vs CoreFast (Lemma 5) — rounds, good parts, max edge assignment"
                .to_string(),
        headers: columns(&[
            "instance",
            "(c, b) ref",
            "slow rounds",
            "fast rounds",
            "slow good",
            "fast good",
            "slow max/edge",
            "fast max/edge",
        ]),
        rows,
        wall_clock: Vec::new(),
        extra: None,
    }
}

/// E6 — Appendix A: overhead of the doubling search versus known
/// parameters.
pub fn e6_doubling_table() -> Table {
    let mut rows = Vec::new();
    for side in [8usize, 16, 24] {
        let (graph, partition) = grid_instance(side);
        let session = session_on(&graph, 3);
        let (_, reference) = reference_parameters(&graph, session.tree(), &partition);
        let known = session
            .shortcut(
                &partition,
                Strategy::Fixed {
                    congestion: reference.congestion.max(1),
                    block: reference.block_parameter.max(1),
                },
            )
            .unwrap();
        let unknown = session.shortcut(&partition, Strategy::doubling()).unwrap();
        let (found_c, found_b) = unknown
            .winning_guess()
            .expect("the doubling search succeeded");
        rows.push(vec![
            format!("grid {side}x{side}, columns"),
            format!("({}, {})", reference.congestion, reference.block_parameter),
            known.total_rounds().to_string(),
            format!("({found_c}, {found_b})"),
            unknown.report.attempts.len().to_string(),
            unknown.total_rounds().to_string(),
            format!(
                "{:.2}",
                unknown.total_rounds() as f64 / known.total_rounds().max(1) as f64
            ),
        ]);
    }
    Table {
        title: "E6: Appendix A doubling search vs known parameters".to_string(),
        headers: columns(&[
            "instance",
            "(c, b) known",
            "rounds (known)",
            "(c, b) found",
            "attempts",
            "rounds (doubling)",
            "overhead",
        ]),
        rows,
        wall_clock: Vec::new(),
        extra: None,
    }
}

/// E7 — guarantee validation across families: congestion ≤ 8c·iterations,
/// block ≤ 3b, dilation ≤ b(2D+1).
pub fn e7_guarantees_table() -> Table {
    let mut rows = Vec::new();
    let mut check = |family: &str, graph: &Graph, partition: &Partition| {
        let session = session_on(graph, 9);
        let (_, reference) = reference_parameters(graph, session.tree(), partition);
        let c = reference.congestion.max(1);
        let b = reference.block_parameter.max(1);
        let run = session
            .shortcut(
                partition,
                Strategy::Fixed {
                    congestion: c,
                    block: b,
                },
            )
            .unwrap();
        let q = session.quality(&run.shortcut, partition).unwrap();
        let congestion_bound = 8 * c * run.report.iterations.max(1) + 1;
        rows.push(vec![
            family.to_string(),
            format!("({c}, {b})"),
            run.report.all_parts_good.to_string(),
            format!("{} <= {}", q.block_parameter, 3 * b),
            (q.block_parameter <= 3 * b).to_string(),
            format!("{} <= {}", q.congestion, congestion_bound),
            (q.congestion <= congestion_bound).to_string(),
            q.satisfies_lemma1(session.tree().depth_of_tree())
                .to_string(),
        ]);
    };

    for side in [8usize, 16] {
        let (graph, partition) = grid_instance(side);
        check(&format!("grid {side}x{side}, columns"), &graph, &partition);
    }
    {
        let graph = generators::torus(12, 12);
        let partition = generators::partitions::random_bfs_balls(&graph, 12, 2);
        check("torus 12x12, 12 BFS balls", &graph, &partition);
    }
    {
        let graph = generators::wheel(129);
        let partition = generators::partitions::wheel_arcs(129, 8);
        check("wheel W_129, 8 arcs", &graph, &partition);
    }
    {
        let graph = generators::genus_handles(16, 16, 4);
        let partition = generators::partitions::grid_columns(16, 16);
        check("16x16 + 4 handles, columns", &graph, &partition);
    }
    {
        let graph = generators::caterpillar(40, 3);
        let partition = generators::partitions::random_bfs_balls(&graph, 10, 4);
        check("caterpillar 40x3, 10 BFS balls", &graph, &partition);
    }

    Table {
        title: "E7: Theorem 3 / Lemma 1 guarantee validation across families".to_string(),
        headers: columns(&[
            "family",
            "(c, b) ref",
            "all good",
            "block <= 3b",
            "ok",
            "congestion <= 8c*iter",
            "ok",
            "Lemma 1",
        ]),
        rows,
        wall_clock: Vec::new(),
        extra: None,
    }
}

/// E8 — charged vs executed rounds: every distributed protocol of
/// `lcs_dist` cross-checked against its scheduled counterpart across the
/// generator families. Every row's results are asserted equal by the
/// [`CrossCheck`] harness (the builder panics otherwise) and the executed
/// round counts respect the Lemma 2 / Theorem 2 / Lemma 3 bounds; the
/// table shows how far the executed protocols sit from the charged
/// schedules.
pub fn e8_dist_table() -> Table {
    let mut rows = Vec::new();
    let mut push_row = |family_name: &str, graph: &Graph, partition: &Partition| {
        let session = session_on(graph, 0);
        let shortcut = session
            .shortcut(partition, Strategy::doubling())
            .expect("families in E8 admit shortcuts")
            .shortcut;
        let check = CrossCheck::new(graph, session.tree(), partition, &shortcut)
            .expect("the measured schedule respects Lemma 2");
        let b = check.family().block_parameter();
        let c = check.family().schedule().max_edge_load;

        let ones: Vec<Option<u64>> = graph
            .nodes()
            .map(|v| partition.part_of(v).map(|_| 1))
            .collect();
        let conv = check
            .convergecast(&ones, AggregateOp::Sum)
            .expect("convergecast results match");
        let leaders = check.leader_election().expect("leaders match");
        let weights = EdgeWeights::random_permutation(graph, 17);
        let candidates = min_edge_candidates(graph, partition, &weights);
        let min_edge = check.min_edge(&candidates).expect("min edges match");
        let threshold = 3 * b.max(1);
        let counts = check.block_counts(threshold).expect("block counts match");

        rows.push(vec![
            family_name.to_string(),
            graph.node_count().to_string(),
            u64::from(session.tree().depth_of_tree()).to_string(),
            partition.part_count().to_string(),
            format!("({c}, {b})"),
            format!("{}/{}", conv.charged, conv.executed),
            format!("{}/{}", leaders.charged, leaders.executed),
            format!("{}/{}", min_edge.charged, min_edge.executed),
            format!("{}/{}", counts.charged, counts.executed),
            "true".to_string(),
        ]);
    };

    {
        let graph = generators::grid(12, 12);
        let partition = generators::partitions::grid_columns(12, 12);
        push_row("grid 12x12, columns", &graph, &partition);
    }
    {
        let graph = generators::grid(16, 16);
        let partition = generators::partitions::random_bfs_balls(&graph, 16, 5);
        push_row("grid 16x16, 16 BFS balls", &graph, &partition);
    }
    {
        let graph = generators::torus(10, 10);
        let partition = generators::partitions::random_bfs_balls(&graph, 10, 2);
        push_row("torus 10x10, 10 BFS balls", &graph, &partition);
    }
    {
        let graph = generators::caterpillar(30, 3);
        let partition = generators::partitions::random_bfs_balls(&graph, 8, 4);
        push_row("caterpillar 30x3, 8 BFS balls", &graph, &partition);
    }
    {
        let graph = generators::random_connected(120, 120, 9);
        let partition = generators::partitions::random_bfs_balls(&graph, 12, 6);
        push_row("random n=120 m=+120, 12 BFS balls", &graph, &partition);
    }
    {
        let graph = generators::wheel(129);
        let partition = generators::partitions::wheel_arcs(129, 8);
        push_row("wheel W_129, 8 arcs", &graph, &partition);
    }

    Table {
        title: "E8: charged vs executed rounds — scheduled accounting vs real message passing (cells are charged/executed; results asserted equal)"
            .to_string(),
        headers: columns(&[
            "family",
            "n",
            "D",
            "N",
            "(c, b)",
            "convergecast",
            "leaders",
            "min edge",
            "verification",
            "results equal",
        ]),
        rows,
        wall_clock: Vec::new(),
        extra: None,
    }
}

/// One E9/E10 row: FindShortcut (scheduled) timed, then the Lemma 3
/// verification as real message passing timed, on one session per
/// instance. `cb` is the `(c, b)` guess; `None` takes the measured
/// `reference_parameters`.
fn scale_row(
    family: &str,
    graph: &Graph,
    partition: &Partition,
    cb: Option<(usize, usize)>,
) -> Vec<String> {
    let mut session = session_on(graph, 42);
    let (c, b) = cb.unwrap_or_else(|| {
        let (_, reference) = reference_parameters(graph, session.tree(), partition);
        (
            reference.congestion.max(1),
            reference.block_parameter.max(1),
        )
    });
    let fs_start = std::time::Instant::now();
    let run = session
        .shortcut(
            partition,
            Strategy::Fixed {
                congestion: c,
                block: b,
            },
        )
        .expect("scale families admit shortcuts");
    let fs_ms = fs_start.elapsed().as_secs_f64() * 1e3;

    session.set_execution(ExecutionMode::Simulated);
    let ver_start = std::time::Instant::now();
    let ver = session
        .verify(&run.shortcut, partition, 3 * b)
        .expect("verification protocol respects the CONGEST constraints");
    let ver_ms = ver_start.elapsed().as_secs_f64() * 1e3;
    let stats = ver
        .report
        .sim
        .expect("simulated verification records stats");
    let good = ver.good.iter().filter(|&&g| g).count();

    vec![
        family.to_string(),
        graph.node_count().to_string(),
        graph.edge_count().to_string(),
        partition.part_count().to_string(),
        format!("({c}, {b})"),
        run.total_rounds().to_string(),
        format!("{fs_ms:.0}"),
        stats.rounds.to_string(),
        stats.messages.to_string(),
        format!("{ver_ms:.0}"),
        format!("{}/{}", good, partition.part_count()),
    ]
}

/// The E9/E10 table around its [`scale_row`]s.
fn scale_table(title: String, rows: Vec<Vec<String>>) -> Table {
    Table {
        title,
        headers: columns(&[
            "family",
            "n",
            "m",
            "N",
            "(c, b)",
            "fs rounds",
            "fs ms",
            "ver rounds",
            "ver messages",
            "ver ms",
            "good",
        ]),
        rows,
        wall_clock: columns(&["fs ms", "ver ms"]),
        extra: None,
    }
}

/// E9 — the scale tier: FindShortcut plus the Lemma 3 distributed
/// verification protocol (real message passing) on instances two orders of
/// magnitude beyond E1–E8, with wall-clock columns. These are the rows the
/// flat-memory hot paths (CSR graph, zero-allocation simulator, quality
/// workspace) exist for; `BENCH_SCALE.json` tracks their timings across
/// PRs.
///
/// The random row uses the known-feasible parameters `(c, b) = (N, 1)`
/// instead of `reference_parameters`, which is not what this table times.
/// On a 2-vCPU host, measuring the existential ancestor shortcut's quality
/// at `n = 10⁵` takes about 9 s with the bounded dilation sweep (an
/// all-sources sweep extrapolates to about 70 s), against about 7 s for
/// the row's FindShortcut plus verification.
pub fn e9_scale_table() -> Table {
    let mut rows = Vec::new();
    {
        let graph = generators::grid(100, 100);
        let partition = generators::partitions::grid_columns(100, 100);
        rows.push(scale_row("grid 100x100, columns", &graph, &partition, None));
    }
    {
        let graph = generators::torus(64, 64);
        let partition = generators::partitions::random_bfs_balls(&graph, 64, 11);
        rows.push(scale_row(
            "torus 64x64, 64 BFS balls",
            &graph,
            &partition,
            None,
        ));
    }
    {
        let graph = generators::random_connected(100_000, 100_000, 13);
        let partition = generators::partitions::random_bfs_balls(&graph, 100, 7);
        let parts = partition.part_count();
        rows.push(scale_row(
            "random n=1e5 m=+1e5, 100 BFS balls",
            &graph,
            &partition,
            Some((parts, 1)),
        ));
    }
    scale_table(
        "E9: scale tier — FindShortcut + distributed verification at n = 10^4..10^5 (wall-clock ms per step)"
            .to_string(),
        rows,
    )
}

/// E10 — the 10⁶-node tier: the E9 pipeline (FindShortcut + Lemma 3
/// distributed verification as real message passing) one order of magnitude
/// up, run on the shard count selected by `LCS_THREADS` / `--threads`
/// (named in the title; the JSON document records it as `threads`). The
/// values of every row are byte-identical for every thread count — the
/// round loop's determinism invariant — so this table doubles as the
/// speedup-vs-threads measurement for `BENCH_SCALE.json`.
///
/// All rows use known-feasible parameters instead of
/// `reference_parameters`. Grid columns admit `(side - 1, 1)` (the measured
/// E9 pattern, and what `reference_parameters` returns here); the ball
/// partitions use the trivially feasible `(N, 1)`. On a 2-vCPU host,
/// `reference_parameters` with the bounded dilation sweep takes about 1 s
/// on the grid and torus rows, but it did not finish within 10 minutes on
/// the random row: that row's part subgraphs have many nodes whose
/// eccentricity is within one of the diameter, and only a BFS next to
/// such a node can drop it.
pub fn e10_scale_table() -> Table {
    let mut rows = Vec::new();
    {
        let graph = generators::grid(320, 320);
        let partition = generators::partitions::grid_columns(320, 320);
        rows.push(scale_row(
            "grid 320x320, columns",
            &graph,
            &partition,
            Some((319, 1)),
        ));
    }
    {
        let graph = generators::torus(256, 256);
        let partition = generators::partitions::random_bfs_balls(&graph, 256, 11);
        let parts = partition.part_count();
        rows.push(scale_row(
            "torus 256x256, 256 BFS balls",
            &graph,
            &partition,
            Some((parts, 1)),
        ));
    }
    {
        let graph = generators::random_connected(1_000_000, 1_000_000, 13);
        let partition = generators::partitions::random_bfs_balls(&graph, 128, 7);
        let parts = partition.part_count();
        rows.push(scale_row(
            "random n=1e6 m=+1e6, 128 BFS balls",
            &graph,
            &partition,
            Some((parts, 1)),
        ));
    }
    scale_table(
        format!(
            "E10: 10^6-node tier — FindShortcut + distributed verification on the sharded engine ({} thread(s); values identical for every thread count)",
            lcs_api::graph::configured_threads()
        ),
        rows,
    )
}

/// E11 — the serving tier: many queries over partitions of one graph,
/// answered *warm* (one [`Session`] serving the whole slice — tree, shard
/// map and quality workspaces built once and reused) versus *cold* (a
/// fresh pipeline per query, the shape E1–E10 rows used to emulate). Two
/// query shapes per family:
///
/// * **construct** — [`Session::batch`]: doubling construction plus
///   quality per partition. Construction dominates each query, so session
///   reuse only amortizes the per-graph setup — warm and cold should be
///   close, with warm never meaningfully behind.
/// * **consume** — the "one decomposition, many consumers" posture the
///   redesign exists for: verification queries answered from the
///   session's already-built decomposition corpus, versus a cold consumer
///   that must re-run the whole pipeline (setup + construction) before it
///   can answer. Reusing the decomposition is where serving wins big.
///
/// Every row warms up untimed first (both paths run identical code; the
/// warmup removes first-touch bias), and the warm/cold results are
/// asserted byte-identical — only the wall-clock may move.
pub fn e11_serving_table() -> Table {
    use std::time::Instant;

    let mut rows = Vec::new();
    let mut push_family = |family: &str, graph: &Graph, partitions: &[Partition]| {
        let refs: Vec<&Partition> = partitions.iter().collect();
        let queries = partitions.len();

        // -------- construct shape: Session::batch vs per-query sessions.
        let warmup = session_on(graph, 0)
            .batch(&refs, Strategy::doubling())
            .expect("serving families admit shortcuts");

        let warm_start = Instant::now();
        let session = session_on(graph, 0);
        let warm = session.batch(&refs, Strategy::doubling()).unwrap();
        let warm_ms = warm_start.elapsed().as_secs_f64() * 1e3;

        let cold_start = Instant::now();
        let mut cold = Vec::with_capacity(queries);
        for partition in partitions {
            let one_shot = session_on(graph, 0);
            let mut run = one_shot.shortcut(partition, Strategy::doubling()).unwrap();
            run.report.quality = Some(one_shot.quality(&run.shortcut, partition).unwrap());
            cold.push(run);
        }
        let cold_ms = cold_start.elapsed().as_secs_f64() * 1e3;

        let construct_equal = warm.iter().zip(&cold).zip(&warmup).all(|((w, c), u)| {
            w.shortcut == c.shortcut
                && w.shortcut == u.shortcut
                && w.report.quality == c.report.quality
                && w.report.attempts == c.report.attempts
                && w.report.rounds_charged == c.report.rounds_charged
        });
        rows.push(vec![
            family.to_string(),
            "construct".to_string(),
            graph.node_count().to_string(),
            queries.to_string(),
            format!("{:.2}", warm_ms / queries as f64),
            format!("{:.2}", cold_ms / queries as f64),
            format!("{:.2}", cold_ms / warm_ms.max(f64::MIN_POSITIVE)),
            construct_equal.to_string(),
        ]);

        // -------- consume shape: "one decomposition, many consumers".
        // The warm session answers verification queries against the
        // decomposition corpus it already built (the shortcuts from the
        // batch above); the cold consumer re-runs the whole pipeline —
        // session setup plus shortcut construction — before it can verify.
        let corpus: Vec<_> = warmup.iter().map(|run| &run.shortcut).collect();
        let threshold = 3;

        // Warmup pass (untimed) doubles as the reference results.
        let reference_session = session_on(graph, 0);
        let reference: Vec<_> = partitions
            .iter()
            .zip(&corpus)
            .map(|(p, sc)| {
                let v = reference_session.verify(sc, p, threshold).unwrap();
                (v.good, v.block_counts)
            })
            .collect();

        let warm_start = Instant::now();
        let session = session_on(graph, 0);
        let warm: Vec<_> = partitions
            .iter()
            .zip(&corpus)
            .map(|(p, sc)| {
                let v = session.verify(sc, p, threshold).unwrap();
                (v.good, v.block_counts)
            })
            .collect();
        let warm_ms = warm_start.elapsed().as_secs_f64() * 1e3;

        let cold_start = Instant::now();
        let cold: Vec<_> = partitions
            .iter()
            .map(|p| {
                let one_shot = session_on(graph, 0);
                let run = one_shot.shortcut(p, Strategy::doubling()).unwrap();
                let v = one_shot.verify(&run.shortcut, p, threshold).unwrap();
                (v.good, v.block_counts)
            })
            .collect();
        let cold_ms = cold_start.elapsed().as_secs_f64() * 1e3;

        let consume_equal = warm == cold && warm == reference;
        rows.push(vec![
            family.to_string(),
            "consume".to_string(),
            graph.node_count().to_string(),
            queries.to_string(),
            format!("{:.2}", warm_ms / queries as f64),
            format!("{:.2}", cold_ms / queries as f64),
            format!("{:.2}", cold_ms / warm_ms.max(f64::MIN_POSITIVE)),
            consume_equal.to_string(),
        ]);
    };

    {
        let graph = generators::grid(32, 32);
        let mut partitions = vec![generators::partitions::grid_columns(32, 32)];
        for seed in 0..7u64 {
            partitions.push(generators::partitions::random_bfs_balls(&graph, 32, seed));
        }
        push_family("grid 32x32, 8 partitions", &graph, &partitions);
    }
    {
        let graph = generators::torus(24, 24);
        let partitions: Vec<Partition> = (0..8u64)
            .map(|seed| generators::partitions::random_bfs_balls(&graph, 24, seed))
            .collect();
        push_family("torus 24x24, 8 ball partitions", &graph, &partitions);
    }
    {
        let graph = generators::wheel(257);
        let partitions: Vec<Partition> = [4usize, 8, 12, 16, 20, 24, 28, 32]
            .iter()
            .map(|&arcs| generators::partitions::wheel_arcs(257, arcs))
            .collect();
        push_family("wheel W_257, 8 arc partitions", &graph, &partitions);
    }

    Table {
        title: "E11: serving — warm Session reuse vs cold per-query pipeline setup (results asserted byte-identical; wall-clock ms per query)"
            .to_string(),
        headers: columns(&[
            "family",
            "shape",
            "n",
            "queries",
            "warm ms/q",
            "cold ms/q",
            "cold/warm",
            "equal",
        ]),
        rows,
        wall_clock: columns(&["warm ms/q", "cold ms/q", "cold/warm"]),
        extra: None,
    }
}

/// E13 — workload-driven serving: open- and closed-loop clients replaying
/// deterministic Zipf(θ) traffic over pre-built partition corpora, with
/// tail-latency (p50/p95/p99/max) and throughput columns.
///
/// Two corpora (grid 16×16, torus 12×12 — a planar family and a
/// higher-genus one, six partitions each) × two pacing modes × θ ∈ {0, 1}
/// × two query mixes ("consume" = verify/quality only; "mixed" adds a
/// construct/MST minority). Open loop paces Poisson arrivals at a fixed
/// mean and charges queueing delay to latency, so the expensive minority
/// of a mixed trace pushes p99 far past p50; the closed loop reports pure
/// service time for contrast. Every configuration is run twice and the
/// `det` column asserts the two result-value digests are identical — the
/// determinism contract the workload layer guarantees at any thread count;
/// `digest` prints that result-value digest.
///
/// The table's `extra` holds each row's *full* latency histogram, because
/// p50/p95/p99 alone cannot show a bimodal service-time split.
pub fn e13_workload_table() -> Table {
    use lcs_workload::{run_workload, Corpus, CorpusSpec, Family, Mode, QueryMix, WorkloadSpec};

    const QUERIES: usize = 160;
    const CLIENTS: usize = 4;
    const MEAN_INTERARRIVAL_NANOS: u64 = 500_000; // 0.5 ms — near saturation

    let corpora = [
        Corpus::build(&CorpusSpec {
            family: Family::Grid,
            size: 16,
            entries: 6,
            seed: 42,
        })
        .expect("grid corpus builds"),
        Corpus::build(&CorpusSpec {
            family: Family::Torus,
            size: 12,
            entries: 6,
            seed: 42,
        })
        .expect("torus corpus builds"),
    ];
    let modes = [
        Mode::Open {
            mean_interarrival_nanos: MEAN_INTERARRIVAL_NANOS,
        },
        Mode::Closed {
            clients: CLIENTS,
            think_nanos: 0,
        },
    ];

    let micros = |nanos: u64| format!("{:.1}", nanos as f64 / 1e3);
    let mut rows = Vec::new();
    let mut histograms = Vec::new();
    for corpus in &corpora {
        for &theta in &[0.0f64, 1.0] {
            for &mix in &[QueryMix::consume(), QueryMix::mixed()] {
                for &mode in &modes {
                    let spec = WorkloadSpec::new(mode, QUERIES, theta, mix, 17);
                    let outcome = run_workload(corpus, &spec).expect("workload runs");
                    let rerun = run_workload(corpus, &spec).expect("workload reruns");
                    let deterministic = outcome.digest == rerun.digest;
                    let h = &outcome.histogram;
                    rows.push(vec![
                        corpus.label().to_string(),
                        mode.label().to_string(),
                        format!("{theta:.0}"),
                        mix.label(),
                        outcome.queries.to_string(),
                        mode.clients().to_string(),
                        micros(h.quantile(0.50)),
                        micros(h.quantile(0.95)),
                        micros(h.quantile(0.99)),
                        micros(h.max()),
                        format!("{:.0}", outcome.throughput_qps()),
                        format!("{:016x}", outcome.digest),
                        deterministic.to_string(),
                    ]);
                    histograms.push(h.to_json());
                }
            }
        }
    }

    Table {
        title: "E13: workload serving — open/closed-loop clients, Zipf(theta) traffic over pre-built corpora (latency in microseconds; det = rerun digests identical)"
            .to_string(),
        headers: columns(&[
            "family", "mode", "theta", "mix", "queries", "clients", "p50 us", "p95 us", "p99 us",
            "max us", "qps", "digest", "det",
        ]),
        rows,
        wall_clock: columns(&["p50 us", "p95 us", "p99 us", "max us", "qps"]),
        extra: Some(format!("{{\"histograms\":[{}]}}", histograms.join(","))),
    }
}

/// One E14 measurement: the operation timed with instrumentation off and
/// on, plus the determinism evidence of the recording runs.
struct ObsRow {
    label: String,
    n: usize,
    off_ms: f64,
    on_ms: f64,
    snapshot: lcs_obs::MetricsSnapshot,
    /// Counter halves of two independent recording runs byte-identical.
    deterministic: bool,
}

impl ObsRow {
    fn overhead_pct(&self) -> f64 {
        if self.off_ms <= 0.0 {
            0.0
        } else {
            (self.on_ms - self.off_ms) / self.off_ms * 100.0
        }
    }
}

/// Times `run` twice with an off handle (min), then twice with fresh
/// recording registries (min), and checks the two recording snapshots'
/// counter halves are byte-identical — "timings are measurements; counts
/// are facts" as a measured table cell rather than a doc claim.
fn obs_row(label: &str, n: usize, mut run: impl FnMut(&lcs_obs::Obs)) -> ObsRow {
    let mut time_with = |obs: &lcs_obs::Obs| {
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let start = std::time::Instant::now();
            run(obs);
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
        best
    };
    let off_ms = time_with(&lcs_obs::Obs::off());
    let first = lcs_obs::Obs::recording();
    let second = lcs_obs::Obs::recording();
    let on_ms = time_with(&first).min(time_with(&second));
    let a = first.snapshot();
    let b = second.snapshot();
    ObsRow {
        label: label.to_string(),
        n,
        off_ms,
        on_ms,
        deterministic: a.counters_text() == b.counters_text(),
        snapshot: a,
    }
}

/// E14 — instrumentation overhead: representative E9/E13 operations timed
/// with the recorder off and on. The off column is the shipping
/// configuration (an [`lcs_obs::Obs::off`] handle: one branch per probe);
/// the on column attaches a fresh registry and pays for real counters,
/// gauges, timers, and spans. `det` asserts the counter half of the
/// snapshot is byte-identical across two independent recording runs —
/// counters are thread- and rerun-invariant facts, timers are
/// measurements. The table's `extra` holds each row's full
/// [`lcs_obs::MetricsSnapshot`].
pub fn e14_obs_table() -> Table {
    use lcs_workload::{
        run_workload_obs, Corpus, CorpusSpec, Family, Mode, QueryMix, WorkloadSpec,
    };

    let mut rows = Vec::new();
    let mut snapshots = Vec::new();
    let mut push = |row: ObsRow| {
        rows.push(vec![
            row.label.clone(),
            row.n.to_string(),
            format!("{:.1}", row.off_ms),
            format!("{:.1}", row.on_ms),
            format!("{:+.1}", row.overhead_pct()),
            row.snapshot.counters.len().to_string(),
            format!("{:016x}", row.snapshot.counters_digest()),
            row.deterministic.to_string(),
        ]);
        snapshots.push(row.snapshot.to_json());
    };

    // Simulated verification rows: the operation E9 times. The shortcut is
    // built once per instance, outside the measured region; each timed run
    // constructs a recorder-carrying session and serves one verify query.
    let mut verify_row = |label: &str, graph: &Graph, partition: &Partition, b: usize| {
        let setup = session_on(graph, 42);
        let run = setup
            .shortcut(
                partition,
                Strategy::Fixed {
                    congestion: partition.part_count(),
                    block: b,
                },
            )
            .expect("E14 instances admit shortcuts");
        push(obs_row(label, graph.node_count(), |obs| {
            let session = Pipeline::on(graph)
                .seed(42)
                .execution(ExecutionMode::Simulated)
                .recorder(obs.clone())
                .build()
                .expect("E14 instances are nonempty and connected");
            session
                .verify(&run.shortcut, partition, 3 * b)
                .expect("verification protocol respects the CONGEST constraints");
        }));
    };
    {
        let graph = generators::grid(64, 64);
        let partition = generators::partitions::grid_columns(64, 64);
        verify_row("grid 64x64 columns, sim verify", &graph, &partition, 1);
    }
    {
        let graph = generators::grid(100, 100);
        let partition = generators::partitions::grid_columns(100, 100);
        verify_row("grid 100x100 columns, sim verify", &graph, &partition, 1);
    }

    // Workload row: the E13 open-loop consume configuration on the grid
    // corpus — the driver adds its own probes (lag, queue depth) on top of
    // the per-query serve probes.
    {
        let corpus = Corpus::build(&CorpusSpec {
            family: Family::Grid,
            size: 16,
            entries: 6,
            seed: 42,
        })
        .expect("grid corpus builds");
        let spec = WorkloadSpec::new(
            Mode::Open {
                mean_interarrival_nanos: 500_000,
            },
            160,
            1.0,
            QueryMix::consume(),
            17,
        );
        push(obs_row(
            "grid16 corpus, open consume x160",
            corpus.graph().node_count(),
            |obs| {
                run_workload_obs(&corpus, &spec, obs).expect("workload runs");
            },
        ));
    }

    Table {
        title: "E14: instrumentation overhead — recorder off vs on (det = counter snapshots of two recording runs byte-identical)"
            .to_string(),
        headers: columns(&[
            "operation",
            "n",
            "off ms",
            "on ms",
            "overhead %",
            "counters",
            "ctr digest",
            "det",
        ]),
        rows,
        wall_clock: columns(&["off ms", "on ms", "overhead %"]),
        extra: Some(format!("{{\"snapshots\":[{}]}}", snapshots.join(","))),
    }
}

/// E15 — robustness tier: fault-injected simulated verification across
/// loss × latency × crash plans on the generator families. Every row runs
/// the verify query ([`lcs_api::Session::verify`] with a
/// [`lcs_api::FaultPlan`]) twice with the same seeded plan; `det` asserts
/// the two runs' digests (goods, counts, retry epochs/stalls, executed
/// rounds, counters) are byte-identical — fault draws are a pure function
/// of the plan, never of thread count or rerun. `inflate` is the
/// executed-round inflation over the fault-free simulated baseline.
/// `wrong` counts the parts whose verdict or count differs from the
/// fault-free run and is asserted 0 on every row: a faulty query answers
/// exactly or ends `Degraded`, which its row then says.
pub fn e15_faults_table() -> Table {
    use lcs_api::existential::ancestor_shortcut;
    use lcs_api::{FaultPlan, LcsError, ValueDigest, VerifyRun};

    fn metric(run: &VerifyRun, key: &str) -> Option<u64> {
        run.report
            .metrics
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    }
    // The digest covers the outcome (goods, counts, retry shape, executed
    // rounds) or the `Degraded` epochs and stalls, and the recorded counter
    // half of the metrics snapshot, which includes the `fault/*` event
    // counters — drops, duplicates, delays, crash drops, restarts are
    // thread-invariant facts of the plan.
    fn digest_of(run: &Result<VerifyRun, LcsError>, counters_digest: u64) -> u64 {
        let mut h = ValueDigest::new();
        match run {
            Ok(run) => {
                for &g in &run.good {
                    h.push(u64::from(g));
                }
                for &c in &run.block_counts {
                    h.push(c as u64);
                }
                h.push(metric(run, "retry_epochs").unwrap_or(1));
                h.push(metric(run, "retry_stalls").unwrap_or(0));
                h.push(run.report.rounds_executed.unwrap_or(0));
            }
            Err(LcsError::Degraded { epochs, stalls, .. }) => {
                h.push(u64::from(*epochs));
                h.push(u64::from(*stalls));
            }
            Err(other) => panic!("E15 fault plans may only degrade a query: {other}"),
        }
        h.push(counters_digest);
        h.value()
    }

    let mut rows = Vec::new();
    let mut instance =
        |label: &str, graph: &Graph, partition: &Partition, plans: &[(&str, FaultPlan)]| {
            let setup = session_on(graph, 42);
            let shortcut = ancestor_shortcut(graph, setup.tree(), partition);
            // Two supersteps of flood slack above the exact block parameter,
            // so the fault-free verdict is all-good with margin to spare.
            let threshold = setup
                .quality(&shortcut, partition)
                .expect("partition matches the instance graph")
                .block_parameter
                + 2;
            let plain_session = Pipeline::on(graph)
                .seed(42)
                .execution(ExecutionMode::Simulated)
                .build()
                .expect("E15 instances are nonempty and connected");
            let plain = plain_session
                .verify(&shortcut, partition, threshold)
                .expect("fault-free verification runs");
            assert!(
                plain.good.iter().all(|&g| g),
                "E15 baseline must verify all-good on {label}"
            );
            let plain_rounds = plain.report.rounds_executed.unwrap_or(0).max(1);
            for (fault_label, plan) in plans {
                let run_once = || {
                    let obs = lcs_obs::Obs::recording();
                    let session = Pipeline::on(graph)
                        .seed(42)
                        .execution(ExecutionMode::Simulated)
                        .fault(*plan)
                        .recorder(obs.clone())
                        .build()
                        .expect("E15 instances are nonempty and connected");
                    let run = session.verify(&shortcut, partition, threshold);
                    (run, obs.snapshot().counters_digest())
                };
                let (run, counters) = run_once();
                let (rerun, recounters) = run_once();
                let digest = digest_of(&run, counters);
                let deterministic = digest == digest_of(&rerun, recounters);
                let mut row = vec![
                    label.to_string(),
                    graph.node_count().to_string(),
                    fault_label.to_string(),
                    plain_rounds.to_string(),
                ];
                match &run {
                    Ok(run) => {
                        let wrong = (0..plain.good.len())
                            .filter(|&p| {
                                run.good[p] != plain.good[p]
                                    || run.block_counts[p] != plain.block_counts[p]
                            })
                            .count();
                        assert_eq!(
                            wrong, 0,
                            "E15 fault plan {fault_label} on {label} must answer exactly"
                        );
                        let rounds = run.report.rounds_executed.unwrap_or(0);
                        row.extend([
                            rounds.to_string(),
                            format!("{:.2}x", rounds as f64 / plain_rounds as f64),
                            metric(run, "retry_epochs").unwrap_or(1).to_string(),
                            metric(run, "retry_stalls").unwrap_or(0).to_string(),
                            run.good.iter().all(|&g| g).to_string(),
                            wrong.to_string(),
                        ]);
                    }
                    Err(LcsError::Degraded { epochs, stalls, .. }) => {
                        let (epochs, stalls) = (epochs.to_string(), stalls.to_string());
                        row.extend(["-", "-", &epochs, &stalls, "degraded", "-"].map(String::from));
                    }
                    Err(other) => panic!("E15 fault plans may only degrade a query: {other}"),
                }
                row.extend([format!("{digest:016x}"), deterministic.to_string()]);
                rows.push(row);
            }
        };

    // The full fault matrix on the grid family; crash schedules always
    // restart (a permanent crash is the degraded-error path, exercised by
    // the test suites, not a healable table row).
    {
        let (graph, partition) = grid_instance(12);
        let plans = [
            ("none", FaultPlan::new(21)),
            ("lat 2", FaultPlan::new(21).with_latency(2)),
            ("loss 1%", FaultPlan::new(21).with_loss_ppm(10_000)),
            (
                "loss 5% dup 1%",
                FaultPlan::new(21)
                    .with_loss_ppm(50_000)
                    .with_dup_ppm(10_000),
            ),
            ("loss 25%", FaultPlan::new(21).with_loss_ppm(250_000)),
            ("loss 40%", FaultPlan::new(21).with_loss_ppm(400_000)),
            ("crash 1@10 +40", FaultPlan::new(21).with_crashes(1, 10, 40)),
            (
                "lat1 loss1% strag crash",
                FaultPlan::new(21)
                    .with_latency(1)
                    .with_loss_ppm(10_000)
                    .with_stragglers(250_000, 2)
                    .with_crashes(1, 10, 40),
            ),
        ];
        instance("grid 12x12 columns", &graph, &partition, &plans);
    }
    // One combined plan per remaining family.
    let combined = |seed: u64| {
        FaultPlan::new(seed)
            .with_latency(2)
            .with_loss_ppm(10_000)
            .with_crashes(1, 10, 40)
    };
    {
        let graph = generators::torus(12, 12);
        let partition = generators::partitions::grid_columns(12, 12);
        instance(
            "torus 12x12 columns",
            &graph,
            &partition,
            &[("lat2 loss1% crash", combined(22))],
        );
    }
    {
        let graph = generators::genus_handles(12, 12, 2);
        let partition = generators::partitions::grid_columns(12, 12);
        instance(
            "12x12 + 2 handles",
            &graph,
            &partition,
            &[("lat2 loss1% crash", combined(23))],
        );
    }
    {
        let graph = generators::wheel(129);
        let partition = generators::partitions::wheel_arcs(129, 8);
        instance(
            "wheel 129 arcs",
            &graph,
            &partition,
            &[("lat2 loss1% crash", combined(24))],
        );
    }

    Table {
        title: "E15: robustness — fault-injected verification (wrong = parts whose verdict or count differs from the fault-free run, asserted 0; det = digests of two same-plan runs identical)"
            .to_string(),
        headers: columns(&[
            "instance",
            "n",
            "fault plan",
            "plain rds",
            "fault rds",
            "inflate",
            "epochs",
            "stalls",
            "good",
            "wrong",
            "digest",
            "det",
        ]),
        rows,
        wall_clock: Vec::new(),
        extra: None,
    }
}

/// E16 — update-vs-rebuild tier: incremental decomposition repair
/// ([`lcs_api::Session::repair_from`] on a tracked baseline) against a
/// from-scratch rebuild of the post-delta partition, on n >= 10^4
/// instances of three families. Each row applies a churn delta of
/// growing size (1 boundary node up to 50% of the parts dirtied), times
/// both paths, and computes
/// an FNV-1a digest over everything a repair returns (per-part shortcut
/// edge sets, the quality record, per-part verdicts); `det` asserts the
/// repaired and rebuilt digests are byte-identical — the part-scoped
/// seeds are anchored at each part's minimum member, so reuse never
/// changes a single byte.
pub fn e16_repair_table() -> Table {
    use lcs_api::{PartitionDelta, RepairRun, ValueDigest};

    fn digest_of(run: &RepairRun) -> u64 {
        let mut h = ValueDigest::new();
        for p in 0..run.shortcut.part_count() {
            let edges = run.shortcut.edges_of(lcs_api::graph::PartId::new(p));
            h.push(edges.len() as u64);
            for &e in edges {
                h.push(e.index() as u64);
            }
        }
        h.push(run.quality.congestion as u64);
        h.push(run.quality.dilation as u64);
        h.push(run.quality.block_parameter as u64);
        for &g in &run.good {
            h.push(u64::from(g));
        }
        h.value()
    }

    /// A churn delta moving `moved_target` boundary nodes into adjacent
    /// parts, each move validated to keep every part connected and
    /// nonempty. Deterministic: candidates are scanned in node-id order.
    fn churn_delta(graph: &Graph, partition: &Partition, moved_target: usize) -> PartitionDelta {
        let mut delta = PartitionDelta::new();
        let mut current = partition.apply(&delta).expect("the empty delta applies");
        let mut moved = 0usize;
        for index in 0..graph.node_count() {
            if moved == moved_target {
                break;
            }
            let v = NodeId::new(index);
            let Some(src) = current.part_of(v) else {
                continue;
            };
            if current.members(src).len() < 2 {
                continue;
            }
            let Some(dst) = graph
                .neighbors(v)
                .find_map(|(u, _)| current.part_of(u).filter(|&p| p != src))
            else {
                continue;
            };
            let trial = delta.clone().move_nodes(vec![v], dst);
            if let Ok(next) = partition.apply(&trial) {
                if next.validate(graph).is_ok() {
                    delta = trial;
                    current = next;
                    moved += 1;
                }
            }
        }
        assert!(
            moved == moved_target,
            "E16 churn delta found only {moved}/{moved_target} valid boundary moves"
        );
        delta
    }

    let mut rows = Vec::new();
    let mut instance = |label: &str, graph: &Graph, partition: &Partition, seed: u64| {
        let session = session_on(graph, seed);
        let baseline = session
            .track_partition(partition, Strategy::doubling())
            .expect("E16 instances admit good shortcuts")
            .baseline;
        let parts = partition.part_count();
        let shapes = [
            ("1 node", 1usize),
            ("1% parts", (parts / 100).max(1)),
            ("10% parts", (parts / 10).max(2)),
            ("50% parts", (parts / 2).max(3)),
        ];
        for (shape, moved) in shapes {
            let delta = churn_delta(graph, partition, moved);
            let target = partition.apply(&delta).expect("churn deltas are valid");
            let start = std::time::Instant::now();
            let repaired = session
                .repair_from(&baseline, &delta)
                .expect("valid deltas repair cleanly");
            let repair_ms = start.elapsed().as_secs_f64() * 1e3;

            let rebuild_session = session_on(graph, seed);
            let start = std::time::Instant::now();
            let rebuilt = rebuild_session
                .track_partition(&target, Strategy::doubling())
                .expect("the post-delta partition is valid");
            let rebuild_ms = start.elapsed().as_secs_f64() * 1e3;

            let digest = digest_of(&repaired);
            let deterministic = digest == digest_of(&rebuilt);
            assert!(
                deterministic,
                "E16 repair and rebuild diverged on {label} / {shape}"
            );
            rows.push(vec![
                label.to_string(),
                graph.node_count().to_string(),
                parts.to_string(),
                shape.to_string(),
                moved.to_string(),
                repaired.repaired_parts.to_string(),
                repaired.reused_parts.to_string(),
                format!("{repair_ms:.1}"),
                format!("{rebuild_ms:.1}"),
                format!("{:.1}x", rebuild_ms / repair_ms.max(1e-9)),
                format!("{digest:016x}"),
                deterministic.to_string(),
            ]);
        }
    };

    {
        let (graph, partition) = grid_instance(100);
        instance("grid 100x100 columns", &graph, &partition, 31);
    }
    {
        let graph = generators::torus(100, 100);
        let partition = generators::partitions::grid_columns(100, 100);
        instance("torus 100x100 columns", &graph, &partition, 32);
    }
    {
        let graph = generators::random_connected(10_000, 12_000, 33);
        let partition = generators::partitions::random_bfs_balls(&graph, 100, 33);
        instance("random n=10^4 bfs balls", &graph, &partition, 33);
    }

    Table {
        title: "E16: incremental repair — repair_from vs full rebuild (det = repaired and rebuilt digests identical)"
            .to_string(),
        headers: columns(&[
            "instance",
            "n",
            "parts",
            "delta",
            "moved",
            "repaired",
            "reused",
            "repair ms",
            "rebuild ms",
            "speedup",
            "digest",
            "det",
        ]),
        rows,
        wall_clock: columns(&["repair ms", "rebuild ms", "speedup"]),
        extra: None,
    }
}

/// A built table together with the wall-clock time it took to build — the
/// quantity the bench trajectory (`BENCH_SCALE.json`) tracks across PRs.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedTable {
    /// Experiment id (`"e1"` … `"e17"`).
    pub id: String,
    /// The rendered table.
    pub table: Table,
    /// Wall-clock build time in milliseconds.
    pub millis: f64,
}

/// Builds a table through `build`, measuring the wall-clock time.
pub fn timed_table(id: &str, build: impl FnOnce() -> Table) -> TimedTable {
    let start = std::time::Instant::now();
    let table = build();
    let millis = start.elapsed().as_secs_f64() * 1e3;
    TimedTable {
        id: id.to_string(),
        table,
        millis,
    }
}

/// Renders a list of tables as a single machine-readable JSON document
/// (hand-rolled writer: the build environment has no serde). Each table
/// entry carries its wall-clock build time in milliseconds, its
/// `wall_clock` column names and, verbatim, its `extra` document; the
/// document records the engine thread count the run used (`--threads` /
/// `LCS_THREADS`), so downstream consumers (the `BENCH_SCALE.json`
/// trajectory, CI artifacts) can attribute timings to an engine.
///
/// # Panics
///
/// If a table names a wall-clock column that is not one of its headers.
pub fn tables_to_json(tables: &[TimedTable], threads: usize) -> String {
    use lcs_obs::json::{escape as esc, string_array};

    let mut entries = Vec::new();
    for timed in tables {
        let table = &timed.table;
        for name in &table.wall_clock {
            assert!(
                table.headers.contains(name),
                "table {} declares wall-clock column {name:?}, which is not one of its headers",
                timed.id
            );
        }
        let rows: Vec<String> = table.rows.iter().map(|r| string_array(r)).collect();
        let extra = match &table.extra {
            Some(extra) => format!(",\"extra\":{extra}"),
            None => String::new(),
        };
        entries.push(format!(
            "{{\"id\":\"{}\",\"title\":\"{}\",\"millis\":{:.3},\"headers\":{},\"wall_clock\":{},\"rows\":[{}]{}}}",
            esc(&timed.id),
            esc(&table.title),
            timed.millis,
            string_array(&table.headers),
            string_array(&table.wall_clock),
            rows.join(","),
            extra
        ));
    }
    format!(
        "{{\"generator\":\"experiments\",\"threads\":{},\"tables\":[{}]}}\n",
        threads,
        entries.join(",")
    )
}

/// E17 — concurrent TCP serving: one warm session behind the
/// `lcs_server` loop, hammered over loopback at client counts {1, 4, 16}
/// × mixes {consume, mixed}, with p50/p95/p99 round-trip latency and
/// throughput columns.
///
/// Both sides go through `lcs_workload`'s one driver: the TCP rows replay
/// over `lcs_server::client::Tcp`, the baselines over warm in-process
/// sessions. The determinism claim is stronger than E13's rerun check:
/// for each mix, the trace is first replayed by one in-process client on
/// both engines (`Threads::Fixed(1)` and `Fixed(4)`), and the `det` column
/// asserts the TCP replay's digest multiset equals both baselines — the
/// wire and the worker interleaving add latency, never values. The
/// `digest` column is the FNV-1a fold of the *sorted* digest multiset
/// (order-independent, so the same for every client count and thread
/// count); the table's `extra` holds each row's full latency histogram.
pub fn e17_server_table() -> Table {
    use lcs_api::{Threads, ValueDigest};
    use lcs_obs::Obs;
    use lcs_server::{client, ServerConfig, ServerHandle};
    use lcs_workload::{
        generate_trace, replay, run_workload, Corpus, CorpusSpec, Family, Mode, QueryMix,
        WorkloadSpec,
    };

    const QUERIES: usize = 64;
    const SEED: u64 = 23;
    const CLIENT_COUNTS: [usize; 3] = [1, 4, 16];

    let corpus_spec = CorpusSpec {
        family: Family::Grid,
        size: 10,
        entries: 4,
        seed: SEED,
    };
    let corpus = Corpus::build(&corpus_spec).expect("grid corpus builds");

    // The server is connection-per-worker, so workers must cover the
    // largest concurrent client count.
    let server = ServerHandle::spawn(
        ServerConfig::new(vec![corpus_spec])
            .workers(*CLIENT_COUNTS.iter().max().expect("nonempty"))
            .seed(SEED),
    )
    .expect("server spawns");

    // Sorted digest multiset of a one-client in-process replay at a fixed
    // engine width.
    let baseline = |spec: &WorkloadSpec, threads: usize| -> Vec<u64> {
        let spec = spec.threads(Threads::Fixed(threads));
        let mut digests = run_workload(&corpus, &spec)
            .expect("baseline replay runs")
            .digests;
        digests.sort_unstable();
        digests
    };
    let fold = |sorted: &[u64]| -> u64 {
        let mut digest = ValueDigest::new();
        for &d in sorted {
            digest.push(d);
        }
        digest.value()
    };

    let micros = |nanos: u64| format!("{:.1}", nanos as f64 / 1e3);
    let mut rows = Vec::new();
    let mut histograms = Vec::new();
    for &mix in &[QueryMix::consume(), QueryMix::mixed()] {
        // Client count does not enter trace generation, so every client
        // count replays the same event sequence.
        let spec = WorkloadSpec::new(
            Mode::Closed {
                clients: 1,
                think_nanos: 0,
            },
            QUERIES,
            1.0,
            mix,
            SEED,
        );
        let serial = baseline(&spec, 1);
        let sharded = baseline(&spec, 4);
        let engines_agree = serial == sharded;
        let trace = generate_trace(&spec, corpus.len()).expect("trace generates");
        let tcp = client::Tcp::new(server.addr(), "grid");
        for &clients in &CLIENT_COUNTS {
            let mode = Mode::Closed {
                clients,
                think_nanos: 0,
            };
            let outcome = replay(&tcp, &trace, mode, &Obs::off()).expect("tcp replay runs");
            let mut served = outcome.digests.clone();
            served.sort_unstable();
            let deterministic = engines_agree && served == serial;
            let h = &outcome.histogram;
            rows.push(vec![
                mix.label(),
                clients.to_string(),
                outcome.queries.to_string(),
                micros(h.quantile(0.50)),
                micros(h.quantile(0.95)),
                micros(h.quantile(0.99)),
                format!("{:.0}", outcome.throughput_qps()),
                format!("{:016x}", fold(&served)),
                deterministic.to_string(),
            ]);
            histograms.push(h.to_json());
        }
    }
    client::shutdown(server.addr()).expect("server shuts down");
    server.join().expect("server drains");

    Table {
        title: "E17: concurrent TCP serving — one warm session, loopback clients (latency in microseconds; det = digest multiset equals sequential serve_shared on both engines)"
            .to_string(),
        headers: columns(&[
            "mix", "clients", "queries", "p50 us", "p95 us", "p99 us", "qps", "digest", "det",
        ]),
        rows,
        wall_clock: columns(&["p50 us", "p95 us", "p99 us", "qps"]),
        extra: Some(format!("{{\"histograms\":[{}]}}", histograms.join(","))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let table = Table {
            title: "demo".to_string(),
            headers: vec!["a".to_string(), "long-header".to_string()],
            rows: vec![vec!["1".to_string(), "2".to_string()]],
            wall_clock: Vec::new(),
            extra: None,
        };
        let text = render_table(&table);
        assert!(text.contains("## demo"));
        assert!(text.contains("long-header"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn e3_routing_table_respects_the_bound() {
        let table = e3_routing_table();
        assert!(!table.rows.is_empty());
        for row in &table.rows {
            let rounds: u64 = row[3].parse().unwrap();
            let bound: u64 = row[4].parse().unwrap();
            assert!(rounds <= bound, "{row:?}");
        }
    }

    #[test]
    fn e7_guarantees_all_hold() {
        let table = e7_guarantees_table();
        for row in &table.rows {
            assert_eq!(row[4], "true", "{row:?}");
            assert_eq!(row[6], "true", "{row:?}");
            assert_eq!(row[7], "true", "{row:?}");
        }
    }

    #[test]
    fn json_writer_escapes_and_structures() {
        let table = Table {
            title: "with \"quotes\" and\nnewline".to_string(),
            headers: vec!["a".to_string(), "ms".to_string()],
            rows: vec![vec!["x\\y".to_string(), "1.5".to_string()]],
            wall_clock: vec!["ms".to_string()],
            extra: None,
        };
        let json = tables_to_json(
            &[TimedTable {
                id: "t1".to_string(),
                table,
                millis: 12.5,
            }],
            4,
        );
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("x\\\\y"));
        assert!(json.contains("\"millis\":12.500"));
        assert!(json.contains("\"threads\":4"));
        assert!(json.contains("\"headers\":[\"a\",\"ms\"],\"wall_clock\":[\"ms\"],"));
        assert!(!json.contains("\"extra\""));
        assert!(json.starts_with("{\"generator\":\"experiments\""));
        assert!(json.trim_end().ends_with("]}"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_writer_embeds_extra_payloads_verbatim() {
        let timed = timed_table("e13", || Table {
            title: "t".to_string(),
            headers: vec!["h".to_string()],
            rows: vec![vec!["1".to_string()]],
            wall_clock: Vec::new(),
            extra: Some("{\"histograms\":[{\"p99\":7}]}".to_string()),
        });
        let json = tables_to_json(&[timed], 1);
        assert!(
            json.contains(",\"extra\":{\"histograms\":[{\"p99\":7}]}}"),
            "extra payload missing: {json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    #[should_panic(expected = "table e9 declares wall-clock column \"fs ms\"")]
    fn json_writer_rejects_a_wall_clock_column_that_is_not_a_header() {
        let timed = timed_table("e9", || Table {
            title: "t".to_string(),
            headers: vec!["fs rounds".to_string()],
            rows: vec![vec!["1".to_string()]],
            wall_clock: vec!["fs ms".to_string()],
            extra: None,
        });
        tables_to_json(&[timed], 1);
    }

    #[test]
    fn e8_simulated_boruvka_agrees_end_to_end() {
        // The acceptance check behind E8's contract: Boruvka with simulated
        // execution still verifies against Kruskal — through the façade.
        let g = generators::grid(4, 4);
        let w = EdgeWeights::random_permutation(&g, 2);
        let session = Pipeline::on(&g)
            .seed(1)
            .execution(ExecutionMode::Simulated)
            .build()
            .unwrap();
        let outcome = session.mst(&w, ShortcutStrategy::Doubling).unwrap();
        assert_eq!(outcome.edges, lcs_api::graph::kruskal_mst(&g, &w));
    }

    #[test]
    fn e11_serving_results_are_identical_warm_and_cold() {
        let table = e11_serving_table();
        // Three families, two query shapes each.
        assert_eq!(table.rows.len(), 6);
        for row in &table.rows {
            assert_eq!(row.last().map(String::as_str), Some("true"), "{row:?}");
        }
    }
}
