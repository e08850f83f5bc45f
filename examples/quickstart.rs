//! Quickstart: construct a tree-restricted shortcut on a planar grid and
//! inspect it — through the `api` front door.
//!
//! This example reproduces the situation of Figure 1 of the paper: a part of
//! a partitioned graph, its shortcut subgraph restricted to a BFS tree, and
//! the decomposition of that subgraph into block components.
//!
//! Run with: `cargo run --example quickstart`

use low_congestion_shortcuts::api::dist::BlockFamily;
use low_congestion_shortcuts::api::{Pipeline, Strategy};
use low_congestion_shortcuts::graph::{generators, PartId};

fn main() {
    // A 16x16 planar grid partitioned into its 16 columns.
    let (rows, cols) = (16usize, 16usize);
    let graph = generators::grid(rows, cols);
    let partition = generators::partitions::grid_columns(rows, cols);

    // One session owns the BFS tree, the shard map and the quality
    // workspaces; every query below reuses them.
    let session = Pipeline::on(&graph)
        .build()
        .expect("the grid is nonempty and connected");

    println!(
        "graph: {rows}x{cols} grid, n = {}, m = {}",
        graph.node_count(),
        graph.edge_count()
    );
    println!(
        "partition: {} parts (columns), max part diameter {}",
        partition.part_count(),
        partition.max_part_diameter(&graph)
    );
    println!("BFS tree depth D = {}", session.tree().depth_of_tree());
    println!();

    // Construct a shortcut without knowing the canonical parameters
    // (Appendix A doubling search over the Theorem 3 construction).
    let run = session
        .shortcut(&partition, Strategy::doubling())
        .expect("the grid admits good tree-restricted shortcuts");
    let quality = session
        .quality(&run.shortcut, &partition)
        .expect("the partition matches the session graph");

    let (c, b) = run.winning_guess().expect("the search succeeded");
    println!("doubling search succeeded at guesses (c = {c}, b = {b})");
    println!(
        "construction cost: {} CONGEST rounds over {} attempt(s)",
        run.total_rounds(),
        run.report.attempts.len()
    );
    println!(
        "measured quality: congestion = {}, block parameter = {}, dilation = {}",
        quality.congestion, quality.block_parameter, quality.dilation
    );
    println!(
        "Lemma 1 check (dilation <= b(2D+1)): {}",
        quality.satisfies_lemma1(session.tree().depth_of_tree())
    );
    println!();

    // The unified report serializes without any external dependency. Its
    // wall time is a measurement, so it gets a line of its own and the
    // report keeps 0 there: every other line is the same on every run.
    let mut report = run.report.clone();
    let wall_millis = std::mem::take(&mut report.wall_millis);
    println!("report: {}", report.to_json());
    println!("wall time: {wall_millis:.3} ms");
    println!();

    // Figure 1: the block decomposition of one part's shortcut subgraph,
    // read from the per-node views of its distributed representation.
    let part = PartId::new(cols / 2);
    let mut active = vec![false; partition.part_count()];
    active[part.index()] = true;
    let family =
        BlockFamily::new_active(&graph, session.tree(), &partition, &run.shortcut, &active);
    // (nodes, part members) per block, counted over the node rows.
    let mut sizes = vec![(0usize, 0usize); family.block_count()];
    for v in graph.nodes() {
        let info = family.info(v);
        for m in info.memberships {
            sizes[m.block].0 += 1;
        }
        if let Some(own) = info.own() {
            sizes[own.block].1 += 1;
        }
    }
    println!(
        "part {part} (column {}) uses {} tree edges, decomposed into {} block component(s):",
        cols / 2,
        run.shortcut.edges_of(part).len(),
        family.block_count()
    );
    for (i, (nodes, members)) in sizes.into_iter().enumerate() {
        let block = family.block(i);
        println!(
            "  block {i}: root {} at depth {}, {nodes} nodes ({members} of them part members)",
            block.root, block.root_depth,
        );
    }
}
