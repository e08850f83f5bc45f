//! Lemma 3's flat block pass, shared by the verification subroutine and
//! [`super::PartRouter`].
//!
//! A block of `H_p` is a subtree of `T`, so a member's block root is
//! reached by climbing the parent edges that belong to `H_p`. One pass over
//! the active parts counts each part's member blocks (the blocks that hold
//! a part member) and lays those blocks out as one Lemma 2 convergecast
//! family: a slot per non-root block node, keyed by (root depth, part). No
//! `BlockComponent`, per-part workspace or node vector is built, so the
//! pass allocates the same number of buffers for any part count.

use lcs_graph::{Graph, NodeId, PartId, Partition, RootedTree};

use super::tree_routing::{RoutingPriority, Slots};
use crate::TreeShortcut;

/// The member blocks of the active parts: their count per part and their
/// Lemma 2 slot family.
pub(crate) struct MemberBlocks {
    /// Member-block count per part (0 for inactive parts).
    pub(crate) counts: Vec<usize>,
    /// One slot per non-root node of every member block, keyed by the
    /// block's root depth and its part.
    pub(crate) slots: Slots,
}

/// Counts the member blocks of every part for which `active` holds and
/// emits their Lemma 2 slots.
///
/// # Panics
///
/// Panics if an active part's shortcut subgraph holds an edge that is not
/// an edge of `tree`.
pub(crate) fn member_blocks(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    shortcut: &TreeShortcut,
    active: impl Fn(PartId) -> bool,
) -> MemberBlocks {
    let mut counts = vec![0usize; partition.part_count()];
    let slot_capacity = partition
        .parts()
        .filter(|&p| active(p))
        .map(|p| shortcut.edges_of(p).len())
        .sum();
    let mut slots = Slots::with_capacity(slot_capacity);
    let mut blocks = BlockRoots::new(graph.node_count());
    for p in partition.parts().filter(|&p| active(p)) {
        let edges = shortcut.edges_of(p);
        blocks.begin(edges.iter().map(|&e| tree.lower_endpoint(graph, e)));
        counts[p.index()] = partition
            .members(p)
            .iter()
            .filter(|&&m| blocks.mark_member_block(tree, m))
            .count();

        // The slots of the blocks that hold a member: every non-root block
        // node is the lower endpoint of one edge of `H_p`.
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
    MemberBlocks { counts, slots }
}

/// Epoch-stamped per-node scratch that finds the blocks of one part at a
/// time. Each stamp below is valid only while it equals the current epoch.
pub(super) struct BlockRoots {
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
    pub(super) fn new(node_count: usize) -> Self {
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
    pub(super) fn begin(&mut self, lower_endpoints: impl Iterator<Item = NodeId>) {
        self.epoch += 1;
        for v in lower_endpoints {
            self.in_h[v.index()] = self.epoch;
        }
    }

    /// The root of `v`'s block, memoized along the climbed path.
    pub(super) fn root(&mut self, tree: &RootedTree, v: NodeId) -> NodeId {
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
