//! Partition generators matched to the graph families of
//! [`crate::generators`].
//!
//! Each generator documents which regime of the shortcut framework it
//! exercises: benign partitions whose parts already have small diameter, and
//! adversarial partitions whose parts have diameter much larger than the
//! network diameter `D` (the situation low-congestion shortcuts exist to
//! fix).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::grids::grid_node;
use super::lower_bound::LowerBoundLayout;
use crate::partition::bfs_ball_partition;
use crate::{Graph, NodeId, Partition, PartitionBuilder};

/// Every node is its own part (`N = n`). The starting partition of
/// Boruvka's algorithm.
pub fn singletons(graph: &Graph) -> Partition {
    Partition::singletons(graph)
}

/// Each column of a `rows × cols` grid is one part (`N = cols`). The part
/// diameter is `rows - 1`, comparable to the grid diameter — a benign
/// partition used for calibration.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid_columns(rows: usize, cols: usize) -> Partition {
    assert!(rows >= 1 && cols >= 1, "grid dimensions must be positive");
    let mut b = PartitionBuilder::new(rows * cols);
    for c in 0..cols {
        let members = (0..rows).map(|r| grid_node(rows, cols, r, c)).collect();
        b.add_part(members)
            .expect("columns are disjoint and nonempty");
    }
    b.build()
}

/// Each row of a `rows × cols` grid is one part (`N = rows`).
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid_rows(rows: usize, cols: usize) -> Partition {
    assert!(rows >= 1 && cols >= 1, "grid dimensions must be positive");
    let mut b = PartitionBuilder::new(rows * cols);
    for r in 0..rows {
        let members = (0..cols).map(|c| grid_node(rows, cols, r, c)).collect();
        b.add_part(members).expect("rows are disjoint and nonempty");
    }
    b.build()
}

/// The two interleaved "comb" parts of a `rows × cols` grid: part 0 is the
/// top row plus every odd column's interior, part 1 is the bottom row plus
/// every even column's interior. Both parts are connected and their
/// shortcut subgraphs necessarily compete for the same tree edges — the
/// classic congestion stress case.
///
/// # Panics
///
/// Panics if `rows < 3` or `cols < 2`.
pub fn grid_combs(rows: usize, cols: usize) -> Partition {
    assert!(rows >= 3, "combs need at least three rows");
    assert!(cols >= 2, "combs need at least two columns");
    let mut top = Vec::new();
    let mut bottom = Vec::new();
    for c in 0..cols {
        top.push(grid_node(rows, cols, 0, c));
        bottom.push(grid_node(rows, cols, rows - 1, c));
    }
    for r in 1..rows - 1 {
        for c in 0..cols {
            if c % 2 == 1 {
                top.push(grid_node(rows, cols, r, c));
            } else {
                bottom.push(grid_node(rows, cols, r, c));
            }
        }
    }
    let mut b = PartitionBuilder::new(rows * cols);
    b.add_part(top).expect("top comb is nonempty");
    b.add_part(bottom).expect("bottom comb is nonempty");
    b.build()
}

/// Splits the rim of a wheel on `n` nodes (see [`super::wheel`]) into
/// `num_parts` contiguous arcs; the hub belongs to no part. Each arc has
/// induced diameter about `(n - 1) / num_parts` while the wheel's diameter
/// is 2 — the extreme adversarial case for part-internal communication.
///
/// # Panics
///
/// Panics if `n < 5` or `num_parts` is zero or larger than the rim.
pub fn wheel_arcs(n: usize, num_parts: usize) -> Partition {
    assert!(n >= 5, "wheel needs at least five nodes");
    let rim = n - 1;
    assert!(num_parts >= 1 && num_parts <= rim, "need 1..=rim parts");
    let mut b = PartitionBuilder::new(n);
    for p in 0..num_parts {
        let start = p * rim / num_parts;
        let end = (p + 1) * rim / num_parts;
        let members = (start..end).map(|i| NodeId::new(1 + i)).collect();
        b.add_part(members).expect("arcs are disjoint and nonempty");
    }
    b.build()
}

/// The motivating partition of the lower-bound instance: each of the long
/// paths is one part; the highway connectors belong to no part.
pub fn lower_bound_paths(layout: &LowerBoundLayout) -> Partition {
    let mut b = PartitionBuilder::new(layout.node_count());
    for i in 0..layout.num_paths {
        let members = (0..layout.path_len)
            .map(|j| layout.path_node(i, j))
            .collect();
        b.add_part(members)
            .expect("paths are disjoint and nonempty");
    }
    b.build()
}

/// Random connected partition: grows `num_parts` parts by multi-source BFS
/// from uniformly random seed nodes. Every node ends up assigned.
///
/// # Panics
///
/// Panics if `num_parts` is zero or exceeds the node count.
pub fn random_bfs_balls(graph: &Graph, num_parts: usize, seed: u64) -> Partition {
    assert!(
        num_parts >= 1 && num_parts <= graph.node_count(),
        "need between 1 and n parts"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut nodes: Vec<NodeId> = graph.nodes().collect();
    nodes.shuffle(&mut rng);
    bfs_ball_partition(graph, &nodes[..num_parts])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::PartId;

    #[test]
    fn grid_columns_and_rows_are_valid() {
        let g = generators::grid(6, 9);
        let cols = grid_columns(6, 9);
        assert_eq!(cols.part_count(), 9);
        assert_eq!(cols.assigned_count(), 54);
        cols.validate(&g).unwrap();
        assert_eq!(cols.part_diameter(&g, PartId::new(0)), 5);

        let rows = grid_rows(6, 9);
        assert_eq!(rows.part_count(), 6);
        rows.validate(&g).unwrap();
        assert_eq!(rows.part_diameter(&g, PartId::new(0)), 8);
    }

    #[test]
    fn grid_combs_are_two_connected_parts_covering_everything() {
        let g = generators::grid(8, 10);
        let p = grid_combs(8, 10);
        assert_eq!(p.part_count(), 2);
        assert_eq!(p.assigned_count(), 80);
        p.validate(&g).unwrap();
    }

    #[test]
    fn wheel_arcs_leave_hub_unassigned() {
        let g = generators::wheel(21);
        let p = wheel_arcs(21, 4);
        assert_eq!(p.part_count(), 4);
        assert_eq!(p.assigned_count(), 20);
        assert_eq!(p.part_of(NodeId::new(0)), None);
        p.validate(&g).unwrap();
        // Arc diameter ≈ rim / parts - 1, much larger than the wheel
        // diameter of 2 once arcs are long.
        assert!(p.max_part_diameter(&g) >= 4);
    }

    #[test]
    fn lower_bound_paths_partition_matches_layout() {
        let (g, layout) = generators::lower_bound_graph(5, 12);
        let p = lower_bound_paths(&layout);
        assert_eq!(p.part_count(), 5);
        assert_eq!(p.assigned_count(), 60);
        p.validate(&g).unwrap();
        for j in 0..12 {
            assert_eq!(p.part_of(layout.connector(j)), None);
        }
    }

    #[test]
    fn random_bfs_balls_cover_and_validate() {
        let g = generators::torus(8, 8);
        for seed in 0..3 {
            let p = random_bfs_balls(&g, 7, seed);
            assert_eq!(p.part_count(), 7);
            assert_eq!(p.assigned_count(), 64);
            p.validate(&g).unwrap();
        }
    }

    #[test]
    fn wheel_arcs_with_one_part_is_whole_rim() {
        let g = generators::wheel(10);
        let p = wheel_arcs(10, 1);
        assert_eq!(p.part_count(), 1);
        assert_eq!(p.members(PartId::new(0)).len(), 9);
        p.validate(&g).unwrap();
    }
}
