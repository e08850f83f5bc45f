//! Property pins of the incremental repair path (DESIGN.md §1d).
//!
//! Three contracts:
//!
//! 1. **Repair ≡ rebuild** — `Session::repair_from(baseline, delta)` on
//!    a tracked baseline yields a byte-identical shortcut, quality record,
//!    and per-part verdicts to tracking the post-delta partition from
//!    scratch, and so does a second delta repaired from the first
//!    repair's returned baseline — across generator families, delta
//!    shapes, engine thread counts {1, 4}, and both execution modes.
//! 2. **Reused parts are verbatim** — every part to which
//!    `Partition::apply_tracked` assigns an origin keeps that old part's
//!    member set and induced edge set (up to renumbering), which is
//!    exactly the precondition the corpus reuse relies on.
//! 3. **Disconnecting deltas are rejected** — `apply_tracked` accepts a
//!    single-node move exactly when the moved partition validates.

use lcs_api::graph::{generators, EdgeId, Graph, NodeId, PartId, Partition};
use lcs_api::{ExecutionMode, PartitionDelta, Pipeline, Strategy, Threads};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A small family instance: the graph plus a valid starting partition.
fn family_instance(family: usize, seed: u64) -> (Graph, Partition) {
    match family % 4 {
        0 => (
            generators::grid(5, 5),
            generators::partitions::grid_columns(5, 5),
        ),
        1 => {
            let g = generators::torus(4, 4);
            let p = generators::partitions::random_bfs_balls(&g, 4, seed);
            (g, p)
        }
        2 => {
            let g = generators::random_connected(24, 30, seed);
            let p = generators::partitions::random_bfs_balls(&g, 4, seed ^ 1);
            (g, p)
        }
        _ => (
            generators::wheel(21),
            generators::partitions::wheel_arcs(21, 4),
        ),
    }
}

/// Draws a valid delta of the requested shape, falling back through
/// simpler shapes when the drawn one does not apply to this partition:
/// 0 = single boundary move, 1 = merge two adjacent parts, 2 = split a
/// part at a member, 3 = two stacked boundary moves.
fn valid_delta(graph: &Graph, partition: &Partition, shape: usize, seed: u64) -> PartitionDelta {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let try_move = |rng: &mut ChaCha8Rng| -> Option<PartitionDelta> {
        for _ in 0..64 {
            let v = NodeId::new(rng.gen_range(0..graph.node_count()));
            let Some(src) = partition.part_of(v) else {
                continue;
            };
            if partition.members(src).len() < 2 {
                continue;
            }
            let Some(dst) = graph
                .neighbors(v)
                .find_map(|(u, _)| partition.part_of(u).filter(|&p| p != src))
            else {
                continue;
            };
            let delta = PartitionDelta::new().move_nodes(vec![v], dst);
            if partition
                .apply(&delta)
                .is_ok_and(|p| p.validate(graph).is_ok())
            {
                return Some(delta);
            }
        }
        None
    };
    let merge = || -> Option<PartitionDelta> {
        for (_, edge) in graph.edges() {
            let (Some(a), Some(b)) = (partition.part_of(edge.u), partition.part_of(edge.v)) else {
                continue;
            };
            if a != b {
                return Some(PartitionDelta::new().merge_parts(a.min(b), a.max(b)));
            }
        }
        None
    };
    let split = |rng: &mut ChaCha8Rng| -> Option<PartitionDelta> {
        for _ in 0..64 {
            let v = NodeId::new(rng.gen_range(0..graph.node_count()));
            let Some(src) = partition.part_of(v) else {
                continue;
            };
            if partition.members(src).len() < 2 {
                continue;
            }
            let delta = PartitionDelta::new().split_part(src, vec![v]);
            if partition
                .apply(&delta)
                .is_ok_and(|p| p.validate(graph).is_ok())
            {
                return Some(delta);
            }
        }
        None
    };
    let stacked = |rng: &mut ChaCha8Rng| -> Option<PartitionDelta> {
        let first = try_move(rng)?;
        let mid = partition.apply(&first).ok()?;
        for _ in 0..64 {
            let v = NodeId::new(rng.gen_range(0..graph.node_count()));
            let Some(src) = mid.part_of(v) else {
                continue;
            };
            if mid.members(src).len() < 2 {
                continue;
            }
            let Some(dst) = graph
                .neighbors(v)
                .find_map(|(u, _)| mid.part_of(u).filter(|&p| p != src))
            else {
                continue;
            };
            let mut delta = first.clone();
            delta = delta.move_nodes(vec![v], dst);
            if partition
                .apply(&delta)
                .is_ok_and(|p| p.validate(graph).is_ok())
            {
                return Some(delta);
            }
        }
        Some(first)
    };
    let chosen = match shape % 4 {
        0 => try_move(&mut rng),
        1 => merge(),
        2 => split(&mut rng),
        _ => stacked(&mut rng),
    };
    chosen
        .or_else(merge)
        .expect("every multi-part partition admits at least an adjacent merge")
}

/// Sorted induced edge ids of one part's member set.
fn induced_edges(graph: &Graph, members: &[NodeId]) -> Vec<EdgeId> {
    let mut inside = vec![false; graph.node_count()];
    for &v in members {
        inside[v.index()] = true;
    }
    let mut edges: Vec<EdgeId> = Vec::new();
    for &v in members {
        for (u, e) in graph.neighbors(v) {
            if inside[u.index()] && u > v {
                edges.push(e);
            }
        }
    }
    edges.sort_unstable();
    edges
}

fn check_repair_equals_rebuild(
    family: usize,
    shape: usize,
    seed: u64,
    execution: ExecutionMode,
    threads: usize,
) {
    let (graph, partition) = family_instance(family, seed);
    let session_on = || {
        Pipeline::on(&graph)
            .seed(seed)
            .execution(execution)
            .threads(Threads::Fixed(threads))
            .build()
            .unwrap()
    };
    let session = session_on();
    let context = format!("family {family}, shape {shape}, seed {seed}, {execution:?}, t{threads}");

    // Incremental: track the original, then repair through two deltas,
    // the second from the baseline the first repair returned. Each repair
    // must equal a fresh session's track of its post-delta partition.
    let mut baseline = session
        .track_partition(&partition, Strategy::doubling())
        .unwrap()
        .baseline;
    for (step, salt) in [0xD317A_u64, 0x5EC0D].into_iter().enumerate() {
        let delta = valid_delta(&graph, baseline.partition(), shape + step, seed ^ salt);
        let target = baseline.partition().apply(&delta).unwrap();
        let repaired = session.repair_from(&baseline, &delta).unwrap();
        let rebuilt = session_on()
            .track_partition(&target, Strategy::doubling())
            .unwrap();
        assert_eq!(
            repaired.shortcut, rebuilt.shortcut,
            "repair {step} and rebuild disagree on the shortcut ({context})"
        );
        assert_eq!(
            repaired.quality, rebuilt.quality,
            "quality diverged ({context})"
        );
        assert_eq!(repaired.good, rebuilt.good, "verdicts diverged ({context})");
        assert_eq!(
            repaired.repaired_parts + repaired.reused_parts,
            target.part_count(),
            "repair accounting must cover every part"
        );
        assert_eq!(repaired.baseline.partition(), &target);
        baseline = repaired.baseline;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contract 1, scheduled mode: all four families × all delta shapes
    /// × thread counts 1 and 4.
    #[test]
    fn repair_equals_rebuild_scheduled(
        family in 0usize..4,
        shape in 0usize..4,
        seed in 0u64..1_000,
        four_threads in 0u8..2,
    ) {
        let threads = if four_threads == 1 { 4 } else { 1 };
        check_repair_equals_rebuild(family, shape, seed, ExecutionMode::Scheduled, threads);
    }

    /// Contract 2: a part with an origin keeps its member set and its
    /// induced edge set verbatim, located in the new partition via its
    /// origin map — the precondition for reusing its cached state.
    #[test]
    fn reused_parts_are_verbatim(
        family in 0usize..4,
        shape in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let (graph, partition) = family_instance(family, seed);
        let delta = valid_delta(&graph, &partition, shape, seed ^ 0xC105);
        let applied = partition.apply_tracked(&graph, &delta).unwrap();
        for p in applied.partition.parts() {
            let Some(origin) = applied.origin[p.index()] else {
                continue;
            };
            let old_members = partition.members(origin);
            let new_members = applied.partition.members(p);
            prop_assert_eq!(
                old_members, new_members,
                "reused part changed members"
            );
            prop_assert_eq!(
                induced_edges(&graph, old_members),
                induced_edges(&graph, new_members),
                "reused part changed induced edges"
            );
        }
    }

    /// Contract 3: a random single-node move, to a neighbor's part or to
    /// any part, passes `apply_tracked` iff `apply` succeeds and the
    /// result validates.
    #[test]
    fn tracked_moves_are_accepted_iff_the_result_validates(
        family in 0usize..4,
        seed in 0u64..10_000,
        to_neighbor in 0u8..2,
    ) {
        let (graph, partition) = family_instance(family, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x30E5);
        let v = NodeId::new(rng.gen_range(0..graph.node_count()));
        let to = if to_neighbor == 1 {
            let (u, _) = graph.neighbors(v).nth(rng.gen_range(0..graph.degree(v))).unwrap();
            partition.part_of(u).unwrap()
        } else {
            PartId::new(rng.gen_range(0..partition.part_count()))
        };
        let delta = PartitionDelta::new().move_nodes(vec![v], to);
        let valid = partition
            .apply(&delta)
            .is_ok_and(|p| p.validate(&graph).is_ok());
        prop_assert_eq!(partition.apply_tracked(&graph, &delta).is_ok(), valid);
    }
}

/// Contract 1, simulated mode: the CONGEST-simulator verification path is
/// expensive, so it runs as a fixed sweep rather than a proptest — one
/// case per family, covering both thread counts and two delta shapes.
#[test]
fn repair_equals_rebuild_simulated_sweep() {
    for family in 0..4 {
        let (shape, threads) = match family % 2 {
            0 => (0, 1),
            _ => (1, 4),
        };
        check_repair_equals_rebuild(
            family,
            shape,
            41 + family as u64,
            ExecutionMode::Simulated,
            threads,
        );
    }
}
