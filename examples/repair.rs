//! Incremental repair: repair a tracked decomposition through
//! `Session::repair_from` instead of rebuilding it from scratch.
//!
//! A 64x64 grid is partitioned into its 64 columns and tracked once; the
//! returned baseline holds every part's customization state. Three
//! partition deltas of growing size (1, 8, and 32 columns touched) are then
//! applied both ways — incrementally against that baseline, and by
//! tracking the post-delta partition in a fresh session. The repaired and
//! rebuilt decompositions are digest-equal by construction (part-scoped
//! seeds are anchored at each part's minimum member), while the repair only
//! pays for the dirty parts.
//!
//! Run with: `cargo run --release --example repair`

use std::time::Instant;

use low_congestion_shortcuts::api::{Pipeline, RepairRun, Session, Strategy, ValueDigest};
use low_congestion_shortcuts::graph::{generators, Graph, NodeId, PartId, Partition};

/// FNV-1a fold over everything a repair returns: the shortcut's per-part
/// edge sets, the quality record, and the per-part verdicts.
fn digest_of(run: &RepairRun) -> u64 {
    let mut digest = ValueDigest::new();
    for p in 0..run.shortcut.part_count() {
        let edges = run.shortcut.edges_of(PartId::new(p));
        digest.push(edges.len() as u64);
        for &e in edges {
            digest.push(e.index() as u64);
        }
    }
    digest.push(run.quality.congestion as u64);
    digest.push(run.quality.dilation as u64);
    digest.push(run.quality.block_parameter as u64);
    for &good in &run.good {
        digest.push(u64::from(good));
    }
    digest.value()
}

fn fresh_session(graph: &Graph) -> Session<'_> {
    Pipeline::on(graph)
        .seed(7)
        .build()
        .expect("the grid is nonempty and connected")
}

fn main() {
    let side = 64usize;
    let graph = generators::grid(side, side);
    let partition = generators::partitions::grid_columns(side, side);
    println!(
        "graph: {side}x{side} grid (n = {}), partition: {} columns",
        graph.node_count(),
        partition.part_count()
    );

    // Track the partition once; the returned baseline holds every part's
    // customization state (shortcut edges, congestion contribution,
    // quality numbers) for later repairs.
    let session = fresh_session(&graph);
    let start = Instant::now();
    let baseline = session
        .track_partition(&partition, Strategy::doubling())
        .expect("the grid admits good tree-restricted shortcuts")
        .baseline;
    println!(
        "tracked the full partition in {:.1} ms\n",
        start.elapsed().as_secs_f64() * 1e3
    );

    // Three deltas of growing size: move the row-0 node of columns
    // 1..=k into column 0 (the moved run stays connected to column 0,
    // and every source column keeps its remaining path intact).
    for k in [1usize, 8, 32] {
        let moved: Vec<NodeId> = (1..=k).map(NodeId::new).collect();
        let delta =
            low_congestion_shortcuts::api::PartitionDelta::new().move_nodes(moved, PartId::new(0));
        let repaired_partition: Partition = partition.apply(&delta).expect("the delta is valid");

        // Incremental: repair the tracked baseline through the delta.
        let start = Instant::now();
        let repaired = session
            .repair_from(&baseline, &delta)
            .expect("a valid delta repairs cleanly");
        let repair_ms = start.elapsed().as_secs_f64() * 1e3;

        // From scratch: a fresh session tracks the post-delta partition.
        let rebuild_session = fresh_session(&graph);
        let start = Instant::now();
        let rebuilt = rebuild_session
            .track_partition(&repaired_partition, Strategy::doubling())
            .expect("the repaired partition is valid");
        let rebuild_ms = start.elapsed().as_secs_f64() * 1e3;

        let repaired_digest = digest_of(&repaired);
        let rebuilt_digest = digest_of(&rebuilt);
        assert_eq!(
            repaired_digest, rebuilt_digest,
            "repair and rebuild must agree byte-for-byte"
        );
        println!(
            "delta: {k:2} node(s) moved | dirty {:2}/{} parts | \
             repair {repair_ms:8.1} ms vs rebuild {rebuild_ms:8.1} ms ({:4.1}x) | \
             digest {repaired_digest:016x} (equal)",
            repaired.repaired_parts,
            repaired_partition.part_count(),
            rebuild_ms / repair_ms.max(1e-9),
        );
    }
}
