//! The `Verification` subroutine (Lemmas 3 and 6).
//!
//! Given a tentative `T`-restricted shortcut, find every part whose shortcut
//! subgraph has at most `threshold` block components. The distributed
//! algorithm views each subgraph as a supergraph of block components,
//! floods leader ids for `threshold` supersteps, builds a BFS tree over the
//! supernodes and convergecasts the supernode count; each superstep is an
//! intra-block convergecast + broadcast scheduled by Lemma 2, so the whole
//! subroutine costs `O(threshold · (D + c))` rounds. The block counts and
//! the Lemma 2 family come from the flat block pass in `routing`, the same
//! one [`crate::routing::PartRouter`] is built on.

use lcs_graph::{Graph, Partition, RootedTree};

use crate::routing::MemberBlocks;
use crate::TreeShortcut;

/// Result of the verification subroutine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerificationOutcome {
    /// `good[p]` is `true` if part `p` was active and its subgraph has at
    /// most the threshold number of block components.
    pub good: Vec<bool>,
    /// The measured block-component count of every active part (0 for
    /// inactive parts).
    pub block_counts: Vec<usize>,
    /// Exact round count charged for the subroutine.
    pub rounds: u64,
}

/// Runs the verification subroutine on the active parts.
///
/// The round count charges `threshold + 2` supersteps (leader flooding, the
/// supergraph BFS and the count convergecast) where one superstep is twice
/// the exact Lemma 2 schedule length of the active parts' block family,
/// plus one whole-tree convergecast (`depth` rounds) for the global
/// "are any parts still bad?" check that `FindShortcut` performs after each
/// verification.
///
/// # Panics
///
/// Panics if `active.len()` differs from the partition's part count, or if
/// an active part's shortcut subgraph holds an edge that is not an edge of
/// `tree`.
pub fn verification(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    shortcut: &TreeShortcut,
    threshold: usize,
    active: &[bool],
) -> VerificationOutcome {
    assert_eq!(
        active.len(),
        partition.part_count(),
        "one active flag per part is required"
    );

    let blocks = MemberBlocks::new(graph, tree, partition, shortcut, |p| active[p.index()]);
    let good = blocks
        .counts
        .iter()
        .zip(active)
        .map(|(&count, &active)| active && count <= threshold)
        .collect();

    let superstep = 2 * blocks.schedule(tree).rounds;
    let rounds = (threshold as u64 + 2) * superstep + u64::from(tree.depth_of_tree());

    VerificationOutcome {
        good,
        block_counts: blocks.counts,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::core_slow::all_active;
    use crate::construction::{core_slow, CoreOutcome};
    use crate::existential::ancestor_shortcut;
    use lcs_graph::{generators, NodeId, PartId};

    fn setup_grid(rows: usize, cols: usize) -> (Graph, RootedTree, Partition) {
        let g = generators::grid(rows, cols);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(rows, cols);
        (g, t, p)
    }

    #[test]
    fn ancestor_shortcut_verifies_at_threshold_one() {
        let (g, t, p) = setup_grid(6, 6);
        let s = ancestor_shortcut(&g, &t, &p);
        let outcome = verification(&g, &t, &p, &s, 1, &all_active(&p));
        assert!(outcome.good.iter().all(|&g| g));
        assert!(outcome.block_counts.iter().all(|&k| k == 1));
        assert!(outcome.rounds > 0);
    }

    #[test]
    fn empty_shortcut_fails_small_thresholds_and_passes_large_ones() {
        let (g, t, p) = setup_grid(5, 5);
        let s = TreeShortcut::empty(&g, &p);
        // Each column has 5 singleton blocks, so threshold 4 must fail.
        let fail = verification(&g, &t, &p, &s, 4, &all_active(&p));
        assert!(fail.good.iter().all(|&g| !g));
        assert!(fail.block_counts.iter().all(|&k| k == 5));
        let pass = verification(&g, &t, &p, &s, 5, &all_active(&p));
        assert!(pass.good.iter().all(|&g| g));
    }

    #[test]
    fn inactive_parts_are_never_marked_good() {
        let (g, t, p) = setup_grid(4, 4);
        let s = ancestor_shortcut(&g, &t, &p);
        let mut active = all_active(&p);
        active[2] = false;
        let outcome = verification(&g, &t, &p, &s, 1, &active);
        assert!(!outcome.good[2]);
        assert_eq!(outcome.block_counts[2], 0);
        assert!(outcome.good[0] && outcome.good[1] && outcome.good[3]);
    }

    #[test]
    fn verification_agrees_with_direct_block_counts_on_core_output() {
        let (g, t, p) = setup_grid(8, 8);
        let CoreOutcome { shortcut, .. } = core_slow(&g, &t, &p, 2, &all_active(&p));
        let outcome = verification(&g, &t, &p, &shortcut, 3, &all_active(&p));
        for part in p.parts() {
            assert_eq!(
                outcome.block_counts[part.index()],
                shortcut.block_count(&g, &p, part),
            );
            assert_eq!(
                outcome.good[part.index()],
                shortcut.block_count(&g, &p, part) <= 3
            );
        }
    }

    #[test]
    fn rounds_grow_with_threshold() {
        let (g, t, p) = setup_grid(6, 6);
        let s = ancestor_shortcut(&g, &t, &p);
        let small = verification(&g, &t, &p, &s, 1, &all_active(&p));
        let large = verification(&g, &t, &p, &s, 10, &all_active(&p));
        assert!(large.rounds > small.rounds);
    }

    #[test]
    fn verification_with_no_active_parts_costs_only_the_tree_check() {
        let (g, t, p) = setup_grid(4, 4);
        let s = ancestor_shortcut(&g, &t, &p);
        let outcome = verification(&g, &t, &p, &s, 3, &vec![false; p.part_count()]);
        assert!(outcome.good.iter().all(|&g| !g));
        assert_eq!(outcome.rounds, u64::from(t.depth_of_tree()));
        assert_eq!(outcome.block_counts, vec![0; 4]);
        let _ = PartId::new(0);
    }
}
