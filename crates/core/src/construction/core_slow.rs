//! Algorithm 1: the deterministic `CoreSlow` subroutine.
//!
//! Tree edges are processed bottom-up. Every node `v` maintains the list
//! `L_v` of part ids its parent edge *can see* (a part is visible through an
//! edge if some member lies below the edge and no unusable edge separates
//! them). If more than `2c` parts try to use an edge it is declared
//! unusable; otherwise the edge is assigned to all of them. Lemma 7 shows
//! the result has congestion at most `2c` and at least half the parts end up
//! with block parameter at most `3b`, in `O(D·c)` rounds.

use lcs_graph::{Graph, Partition, RootedTree};

use super::id_arena::IdArena;
use super::CoreOutcome;

/// Runs `CoreSlow` (Algorithm 1) with congestion bound `c` on the parts for
/// which `active` is `true` (inactive parts neither contend for edges nor
/// receive assignments — `FindShortcut` deactivates parts once they are
/// verified good).
///
/// The reported round count is the exact length of the level-synchronous
/// schedule: the nodes of each tree level forward their lists in parallel,
/// one part id per round, so a level costs the length of the longest list
/// forwarded from it (at least one round per level).
///
/// # Panics
///
/// Panics if `active.len()` differs from the partition's part count or the
/// tree does not span `graph`.
pub fn core_slow(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    congestion_bound: usize,
    active: &[bool],
) -> CoreOutcome {
    assert_eq!(
        active.len(),
        partition.part_count(),
        "one active flag per part is required"
    );
    assert_eq!(
        tree.node_count(),
        graph.node_count(),
        "tree must span the graph"
    );
    let cap = 2 * congestion_bound.max(1);

    let mut unusable = vec![false; graph.edge_count()];
    // Rounds per tree level (index = depth of the *sending* nodes).
    let mut level_cost = vec![0u64; tree.depth_of_tree() as usize + 1];
    let lists = IdArena::bottom_up(
        tree,
        partition,
        &mut unusable,
        |p| active[p.index()],
        |v, len| {
            let cost = &mut level_cost[tree.depth(v) as usize];
            if len > cap {
                // Declaring an edge unusable costs one (silent) round slot.
                *cost = (*cost).max(1);
                false
            } else {
                *cost = (*cost).max(len.max(1) as u64);
                true
            }
        },
    );

    // Level 0 (the root) never sends.
    let rounds: u64 = level_cost.iter().skip(1).sum();
    CoreOutcome {
        shortcut: lists.shortcut(graph, tree, partition),
        unusable,
        rounds,
    }
}

/// Convenience: the "everything is active" flag vector.
#[cfg(test)]
pub(crate) fn all_active(partition: &Partition) -> Vec<bool> {
    vec![true; partition.part_count()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{generators, NodeId, PartId};

    /// Returns, for every node, the complete list of active parts its parent
    /// edge can see *ignoring* any congestion cap (the fixed point `CoreSlow`
    /// truncates).
    fn visible_parts(
        tree: &RootedTree,
        partition: &Partition,
        active: &[bool],
        unusable: &[bool],
    ) -> Vec<Vec<PartId>> {
        let mut lists: Vec<Vec<PartId>> = vec![Vec::new(); tree.node_count()];
        for &v in tree.nodes_bottom_up() {
            let mut list: Vec<PartId> = Vec::new();
            if let Some(p) = partition.part_of(v) {
                if active[p.index()] {
                    list.push(p);
                }
            }
            for &child in tree.children(v) {
                let child_edge = tree.parent_edge(child).expect("children have parent edges");
                if unusable[child_edge.index()] {
                    continue;
                }
                list.extend_from_slice(&lists[child.index()]);
            }
            list.sort();
            list.dedup();
            lists[v.index()] = list;
        }
        lists
    }

    fn setup_grid(rows: usize, cols: usize) -> (Graph, RootedTree, Partition) {
        let g = generators::grid(rows, cols);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(rows, cols);
        (g, t, p)
    }

    #[test]
    fn congestion_never_exceeds_twice_the_bound() {
        for c in [1usize, 2, 4, 8] {
            let (g, t, p) = setup_grid(6, 6);
            let outcome = core_slow(&g, &t, &p, c, &all_active(&p));
            outcome.shortcut.validate(&t, &p).unwrap();
            // Only the shortcut-assignment part of congestion is bounded by
            // 2c; measure it directly per edge.
            let worst = g
                .edge_ids()
                .map(|e| outcome.shortcut.parts_on_edge(e).len())
                .max()
                .unwrap();
            assert!(worst <= 2 * c, "c = {c}: {worst} > {}", 2 * c);
        }
    }

    #[test]
    fn generous_bound_assigns_all_ancestors_and_one_block() {
        // With a congestion bound of at least the number of columns no edge
        // is ever unusable, so every part sees all its ancestor edges and
        // has exactly one block component.
        let (g, t, p) = setup_grid(5, 5);
        let outcome = core_slow(&g, &t, &p, 8, &all_active(&p));
        assert!(outcome.unusable_edges().is_empty());
        assert_eq!(outcome.shortcut.block_parameter(&g, &p), 1);
    }

    #[test]
    fn at_least_half_the_parts_are_good_with_reference_parameters() {
        // Theorem guarantee: with (c, b) taken from an existing shortcut, at
        // least N/2 parts have block parameter <= 3b.
        let (g, t, p) = setup_grid(8, 8);
        let (_, reference) = crate::existential::reference_parameters(&g, &t, &p);
        let c = reference.congestion.max(1);
        let b = reference.block_parameter.max(1);
        let outcome = core_slow(&g, &t, &p, c, &all_active(&p));
        let counts = outcome.shortcut.block_counts(&g, &p);
        let good = counts.iter().filter(|&&k| k <= 3 * b).count();
        assert!(
            good * 2 >= p.part_count(),
            "only {good} of {} parts are good",
            p.part_count()
        );
    }

    #[test]
    fn tight_bound_marks_edges_unusable() {
        // With congestion bound 1 on the comb partition the shared tree
        // edges near the root must become unusable.
        let g = generators::grid(6, 8);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_combs(6, 8);
        let outcome = core_slow(&g, &t, &p, 1, &all_active(&p));
        // Both parts still respect the cap.
        let worst = g
            .edge_ids()
            .map(|e| outcome.shortcut.parts_on_edge(e).len())
            .max()
            .unwrap();
        assert!(worst <= 2);
        // The schedule is level-synchronous: at least one round per level,
        // at most 2c rounds per level.
        let d = u64::from(t.depth_of_tree());
        assert!(outcome.rounds >= d);
        assert!(outcome.rounds <= d * 2);
    }

    #[test]
    fn inactive_parts_are_ignored() {
        let (g, t, p) = setup_grid(4, 4);
        let mut active = all_active(&p);
        active[0] = false;
        active[2] = false;
        let outcome = core_slow(&g, &t, &p, 4, &active);
        assert!(outcome.shortcut.edges_of(PartId::new(0)).is_empty());
        assert!(outcome.shortcut.edges_of(PartId::new(2)).is_empty());
        assert!(!outcome.shortcut.edges_of(PartId::new(1)).is_empty());
    }

    #[test]
    fn rounds_scale_with_depth_times_congestion() {
        // Wheel arcs: depth 1, so the whole subroutine is a couple of
        // rounds; grids cost at least one round per level.
        let g = generators::wheel(33);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::wheel_arcs(33, 4);
        let outcome = core_slow(&g, &t, &p, 1, &all_active(&p));
        assert!(outcome.rounds <= 2);

        let (g, t, p) = setup_grid(10, 10);
        let outcome = core_slow(&g, &t, &p, 2, &all_active(&p));
        let d = u64::from(t.depth_of_tree());
        assert!(outcome.rounds >= d);
        assert!(outcome.rounds <= d * 4);
    }

    #[test]
    fn visible_parts_fixed_point_is_consistent_with_assignments() {
        let (g, t, p) = setup_grid(5, 5);
        let outcome = core_slow(&g, &t, &p, 100, &all_active(&p));
        // With no unusable edges, the assignment of each node's parent edge
        // equals the visible-part list of that node.
        let lists = visible_parts(&t, &p, &all_active(&p), &outcome.unusable);
        for v in g.nodes() {
            if let Some(e) = t.parent_edge(v) {
                assert_eq!(outcome.shortcut.parts_on_edge(e), &lists[v.index()][..]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "one active flag per part")]
    fn active_flags_must_match_part_count() {
        let (g, t, p) = setup_grid(3, 3);
        let _ = core_slow(&g, &t, &p, 1, &[true]);
    }
}
