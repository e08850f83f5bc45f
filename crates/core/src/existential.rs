//! Centralized reference constructions of tree-restricted shortcuts.
//!
//! Theorem 3 is *relative*: it finds a shortcut nearly as good as the best
//! tree-restricted shortcut that exists. To exercise and validate that
//! guarantee the tests and benchmarks need an explicit shortcut whose
//! parameters `(c, b)` they can measure and feed to the construction
//! algorithms. This module provides two such reference constructions:
//!
//! * [`ancestor_shortcut`] — `H_i` is the union of the tree paths from every
//!   member of `P_i` to the root of `T`. Block parameter exactly 1 (all
//!   members hang off one subtree containing the root); congestion can be as
//!   large as the number of parts whose members share an ancestor edge.
//! * [`truncated_ancestor_shortcut`] — the same but each member only walks
//!   `levels` tree edges towards the root, trading block parameter for
//!   congestion.
//!
//! Neither is the paper's Theorem 1 embedding-based construction (which is
//! exactly what this paper removes the need for); they simply witness
//! existence so that the *relative* guarantee of Theorem 3 can be tested
//! against a concrete `(c, b)` pair. On planar families such as grids and
//! wheels the ancestor shortcut is already good (congestion `O(D)` on grid
//! columns), matching the regime Theorem 1 promises.

use lcs_graph::{Graph, Partition, RootedTree};

use crate::{ShortcutQuality, TreeShortcut};

/// Builds the full-ancestor reference shortcut: every part may use every
/// tree edge on the path from any of its members to the root.
///
/// The resulting shortcut always has block parameter 1.
pub fn ancestor_shortcut(graph: &Graph, tree: &RootedTree, partition: &Partition) -> TreeShortcut {
    truncated_ancestor_shortcut(graph, tree, partition, u32::MAX)
}

/// Builds the truncated-ancestor reference shortcut: every member walks at
/// most `levels` tree edges towards the root and contributes those edges to
/// its part's subgraph.
///
/// `levels = 0` yields the empty shortcut; `levels = u32::MAX` yields
/// [`ancestor_shortcut`].
pub fn truncated_ancestor_shortcut(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    levels: u32,
) -> TreeShortcut {
    let edge_sets = partition.parts().map(|p| {
        partition.members(p).iter().flat_map(move |&member| {
            tree.path_to_root(member)
                .map_while(|node| tree.parent_edge(node))
                .take(levels as usize)
        })
    });
    TreeShortcut::from_edge_sets(graph, tree, partition, edge_sets)
        .expect("parent edges are tree edges and parts are in range")
}

/// Builds the ancestor reference shortcut and measures its quality, giving
/// the `(c, b)` pair that certifies existence for Theorem 3 on this
/// instance.
pub fn reference_parameters(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
) -> (TreeShortcut, ShortcutQuality) {
    let shortcut = ancestor_shortcut(graph, tree, partition);
    let quality = shortcut.quality(graph, partition);
    (shortcut, quality)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{generators, NodeId};

    #[test]
    fn ancestor_shortcut_has_block_parameter_one() {
        let g = generators::grid(6, 6);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(6, 6);
        let s = ancestor_shortcut(&g, &t, &p);
        s.validate(&t, &p).unwrap();
        assert_eq!(s.block_parameter(&g, &p), 1);
        let q = s.quality(&g, &p);
        assert!(q.satisfies_lemma1(t.depth_of_tree()));
        // Congestion on grid columns stays below the number of columns + 1.
        assert!(q.congestion <= 7);
    }

    #[test]
    fn truncation_interpolates_between_empty_and_full() {
        let g = generators::grid(5, 7);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(5, 7);
        let empty = truncated_ancestor_shortcut(&g, &t, &p, 0);
        assert_eq!(empty.assignment_count(), 0);
        let full = ancestor_shortcut(&g, &t, &p);
        let mut previous = 0;
        for levels in [1u32, 2, 4, 8, 16] {
            let s = truncated_ancestor_shortcut(&g, &t, &p, levels);
            assert!(s.assignment_count() >= previous);
            assert!(s.assignment_count() <= full.assignment_count());
            previous = s.assignment_count();
            // More levels can only reduce (or keep) the number of blocks.
            assert!(s.block_parameter(&g, &p) >= full.block_parameter(&g, &p));
        }
    }

    #[test]
    fn reference_parameters_reports_consistent_quality() {
        let g = generators::wheel(25);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::wheel_arcs(25, 4);
        let (s, q) = reference_parameters(&g, &t, &p);
        assert_eq!(q.block_parameter, 1);
        assert_eq!(q.congestion, s.quality(&g, &p).congestion);
        // On the wheel the spokes are private to their arcs: congestion 1.
        assert_eq!(q.congestion, 1);
        assert_eq!(q.dilation, 2);
    }

    #[test]
    fn lower_bound_instance_forces_high_congestion() {
        // On the lower-bound graph the ancestor shortcut routes every path
        // through the connector tree, so some tree edge near the root is
        // shared by (almost) all parts: congestion Ω(number of paths).
        let (g, layout) = generators::lower_bound_graph(8, 16);
        let t = RootedTree::bfs(&g, layout.connector(0));
        let p = generators::partitions::lower_bound_paths(&layout);
        let (_s, q) = reference_parameters(&g, &t, &p);
        assert!(
            q.congestion >= 8,
            "expected congestion >= 8, got {}",
            q.congestion
        );
        assert_eq!(q.block_parameter, 1);
    }
}
