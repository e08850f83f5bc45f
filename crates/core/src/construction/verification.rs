//! The `Verification` subroutine (Lemmas 3 and 6).
//!
//! Given a tentative `T`-restricted shortcut, find every part whose shortcut
//! subgraph has at most `threshold` block components. The distributed
//! algorithm views each subgraph as a supergraph of block components,
//! floods leader ids for `threshold` supersteps, builds a BFS tree over the
//! supernodes and convergecasts the supernode count; each superstep is an
//! intra-block convergecast + broadcast scheduled by Lemma 2, so the whole
//! subroutine costs `O(threshold · (D + c))` rounds.

use lcs_graph::{Graph, NodeId, Partition, RootedTree};

use crate::routing::{RoutingPriority, Slots};
use crate::TreeShortcut;

/// Result of the verification subroutine.
#[derive(Debug, Clone, PartialEq, Eq)]
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

    let mut good = vec![false; partition.part_count()];
    let mut block_counts = vec![0usize; partition.part_count()];
    let slot_capacity = partition
        .parts()
        .filter(|p| active[p.index()])
        .map(|p| shortcut.edges_of(p).len())
        .sum();
    let mut slots = Slots::with_capacity(slot_capacity);
    let mut blocks = BlockRoots::new(graph.node_count());
    for p in partition.parts() {
        if !active[p.index()] {
            continue;
        }
        let edges = shortcut.edges_of(p);
        blocks.begin(edges.iter().map(|&e| tree.lower_endpoint(graph, e)));
        let count = partition
            .members(p)
            .iter()
            .filter(|&&m| blocks.mark_member_block(tree, m))
            .count();
        block_counts[p.index()] = count;
        good[p.index()] = count <= threshold;

        // The Lemma 2 slots of the blocks that hold a member: every non-root
        // block node is the lower endpoint of one edge of `H_p`.
        let first = slots.len();
        for &e in edges {
            let v = tree.lower_endpoint(graph, e);
            let root = blocks.root(tree, v);
            if blocks.is_member_block(root) {
                let key = RoutingPriority::BlockRootDepth.key(tree.depth(root), p.index());
                let slot = slots.push(v, key);
                blocks.set_slot(v, slot);
            }
        }
        for slot in first..slots.len() {
            let parent = tree
                .parent(slots.node(slot))
                .expect("slot nodes have parents");
            if let Some(parent_slot) = blocks.slot(parent) {
                slots.set_parent(slot as u32, parent_slot);
            }
        }
    }

    let superstep = 2 * slots.schedule(graph.node_count()).rounds;
    let rounds = (threshold as u64 + 2) * superstep + u64::from(tree.depth_of_tree());

    VerificationOutcome {
        good,
        block_counts,
        rounds,
    }
}

/// Epoch-stamped per-node scratch that finds the blocks of one part at a
/// time. A block of `H_p` is a subtree of `T`, so a node's block root is
/// reached by climbing the parent edges that belong to `H_p`; each stamp
/// below is valid only while it equals the current epoch.
struct BlockRoots {
    epoch: u32,
    /// `in_h[v] == epoch`: `v`'s parent edge belongs to `H_p`.
    in_h: Vec<u32>,
    /// `member_block[r] == epoch`: `r` roots a block that holds a member.
    member_block: Vec<u32>,
    /// `epoch << 32 | root`: the memoized block root of `v`.
    memo: Vec<u64>,
    /// `epoch << 32 | slot`: the Lemma 2 slot of `v`.
    slot: Vec<u64>,
}

impl BlockRoots {
    fn new(node_count: usize) -> Self {
        BlockRoots {
            epoch: 0,
            in_h: vec![0; node_count],
            member_block: vec![0; node_count],
            memo: vec![0; node_count],
            slot: vec![0; node_count],
        }
    }

    /// The value stamped into `entry` in the current epoch, if any.
    fn stamped(&self, entry: u64) -> Option<u32> {
        (entry >> 32 == u64::from(self.epoch)).then_some(entry as u32)
    }

    fn stamp(&self, value: u32) -> u64 {
        u64::from(self.epoch) << 32 | u64::from(value)
    }

    /// Starts a part whose `H_p` edges have the given lower endpoints.
    fn begin(&mut self, lower_endpoints: impl Iterator<Item = NodeId>) {
        self.epoch += 1;
        for v in lower_endpoints {
            self.in_h[v.index()] = self.epoch;
        }
    }

    /// The root of `v`'s block, memoized along the climbed path.
    fn root(&mut self, tree: &RootedTree, v: NodeId) -> NodeId {
        let mut u = v;
        let root = loop {
            if let Some(root) = self.stamped(self.memo[u.index()]) {
                break NodeId::new(root as usize);
            }
            if self.in_h[u.index()] != self.epoch {
                break u;
            }
            u = tree.parent(u).expect("an edge of H_p leads to a parent");
        };
        let mut u = v;
        while self.stamped(self.memo[u.index()]).is_none() {
            self.memo[u.index()] = self.stamp(root.index() as u32);
            if u == root {
                break;
            }
            u = tree.parent(u).expect("the climb ends at the root");
        }
        root
    }

    /// Marks the block of member `m`; returns `true` the first time a
    /// block is marked.
    fn mark_member_block(&mut self, tree: &RootedTree, m: NodeId) -> bool {
        let root = self.root(tree, m);
        let mark = &mut self.member_block[root.index()];
        let first = *mark != self.epoch;
        *mark = self.epoch;
        first
    }

    fn is_member_block(&self, root: NodeId) -> bool {
        self.member_block[root.index()] == self.epoch
    }

    fn set_slot(&mut self, v: NodeId, slot: u32) {
        self.slot[v.index()] = self.stamp(slot);
    }

    fn slot(&self, v: NodeId) -> Option<u32> {
        self.stamped(self.slot[v.index()])
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
