//! Lemma 3's flat block pass, shared by the verification subroutine,
//! [`super::PartRouter`] and `lcs_dist::BlockFamily`.
//!
//! A block of `H_p` is a subtree of `T`, so a member's block root is
//! reached by climbing the parent edges that belong to `H_p`. One pass over
//! the active parts finds each part's member blocks (the blocks that hold
//! a part member), numbers them part by part and within a part by (root
//! depth, root id), and lays them out as one Lemma 2 convergecast family: a
//! slot per non-root block node, keyed by (root depth, block). No per-block
//! node list, per-part workspace or node vector is built, so the pass
//! allocates the same number of buffers for any part count.

use lcs_graph::{Graph, NodeId, PartId, Partition, RootedTree};

use super::tree_routing::{RoutingPriority, RoutingSchedule, Slots};
use crate::TreeShortcut;

/// The member blocks of the active parts and their Lemma 2 slot family,
/// from one climb per part.
#[derive(Debug)]
pub struct MemberBlocks {
    /// Member-block count per part (0 for inactive parts).
    pub counts: Vec<usize>,
    /// Each member block's root (its shallowest node), by block number:
    /// part by part, and within a part ascending by (root depth, root id).
    pub roots: Vec<NodeId>,
    /// One slot per non-root node of every member block, keyed by the
    /// block's root depth and number; a part's slots follow the previous
    /// part's.
    slots: Slots,
}

impl MemberBlocks {
    /// Finds the member blocks of every part for which `active` holds and
    /// lays out their Lemma 2 slots.
    ///
    /// # Panics
    ///
    /// Panics if an active part's shortcut subgraph holds an edge that is
    /// not an edge of `tree`.
    pub fn new(
        graph: &Graph,
        tree: &RootedTree,
        partition: &Partition,
        shortcut: &TreeShortcut,
        active: impl Fn(PartId) -> bool,
    ) -> Self {
        let mut counts = vec![0usize; partition.part_count()];
        // Every member block holds a member, and every slot node is the
        // lower endpoint of an `H_p` edge.
        let (mut root_capacity, mut slot_capacity) = (0, 0);
        for p in partition.parts().filter(|&p| active(p)) {
            root_capacity += partition.members(p).len();
            slot_capacity += shortcut.edges_of(p).len();
        }
        let mut roots = Vec::with_capacity(root_capacity);
        let mut slots = Slots::with_capacity(slot_capacity);
        let mut scratch = BlockRoots::new(graph.node_count());
        for p in partition.parts().filter(|&p| active(p)) {
            let edges = shortcut.edges_of(p);
            scratch.begin(edges.iter().map(|&e| tree.lower_endpoint(graph, e)));
            let first = roots.len();
            for &m in partition.members(p) {
                roots.extend(scratch.mark_member_block(tree, m));
            }
            let part_roots = &mut roots[first..];
            part_roots.sort_unstable_by_key(|&r| (tree.depth(r), r));
            for (i, &root) in part_roots.iter().enumerate() {
                scratch.number_member_block(root, first + i);
            }
            counts[p.index()] = part_roots.len();

            // The slots of the blocks that hold a member: every non-root
            // block node is the lower endpoint of one edge of `H_p`.
            let first = slots.len();
            for &e in edges {
                let v = tree.lower_endpoint(graph, e);
                let root = scratch.root(tree, v);
                if let Some(block) = scratch.member_block(root) {
                    let key = RoutingPriority::BlockRootDepth.key(tree.depth(root), block as usize);
                    let slot = slots.push(v, key);
                    scratch.set_slot(v, slot);
                }
            }
            for slot in first..slots.len() {
                let parent = tree
                    .parent(slots.node(slot))
                    .expect("slot nodes have parents");
                if let Some(parent_slot) = scratch.slot(parent) {
                    slots.set_parent(slot as u32, parent_slot);
                }
            }
        }
        MemberBlocks {
            counts,
            roots,
            slots,
        }
    }

    /// Number of slots: the non-root nodes summed over the member blocks.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Slot `slot`'s node and block.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn slot(&self, slot: usize) -> (NodeId, usize) {
        (self.slots.node(slot), self.slots.index(slot))
    }

    /// The exact Lemma 2 convergecast schedule of the member blocks on
    /// `tree`, the tree they were found in. One pass over its nodes,
    /// deepest first, times every node's slots, which gives the rounds of
    /// the synchronous greedy (see [`crate::routing::convergecast_rounds`]).
    pub fn schedule(&self, tree: &RootedTree) -> RoutingSchedule {
        self.slots.schedule(tree)
    }
}

/// Epoch-stamped per-node scratch that finds the blocks of one part at a
/// time. Each stamp below is valid only while it equals the current epoch.
pub(super) struct BlockRoots {
    epoch: u32,
    /// `in_h[v] == epoch`: `v`'s parent edge belongs to `H_p`.
    in_h: Vec<u32>,
    /// `epoch << 32 | block`: `r` roots member block `block`.
    member_block: Vec<u64>,
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

    /// Marks the block of member `m`; returns its root the first time the
    /// block is marked. The block is numbered once its part's blocks are
    /// sorted ([`BlockRoots::number_member_block`]).
    fn mark_member_block(&mut self, tree: &RootedTree, m: NodeId) -> Option<NodeId> {
        let root = self.root(tree, m);
        if self.member_block(root).is_some() {
            return None;
        }
        self.member_block[root.index()] = self.stamp(u32::MAX);
        Some(root)
    }

    fn number_member_block(&mut self, root: NodeId, block: usize) {
        let block = u32::try_from(block).expect("block ids fit in u32");
        self.member_block[root.index()] = self.stamp(block);
    }

    /// The number of the member block `root` roots, if it is one.
    fn member_block(&self, root: NodeId) -> Option<u32> {
        self.stamped(self.member_block[root.index()])
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
    use lcs_graph::generators;

    /// A part whose subgraph is the union of its members' root paths is
    /// one block rooted at the tree root, holding Steiner nodes: every
    /// block node but the root is a slot of that block.
    #[test]
    fn member_blocks_report_roots_and_steiner_nodes() {
        let g = generators::grid(4, 4);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(4, 4);
        let part = PartId::new(2);
        let edges: Vec<_> = p
            .members(part)
            .iter()
            .flat_map(|&v| t.path_to_root(v).filter_map(|node| t.parent_edge(node)))
            .collect();
        let mut sets = vec![Vec::new(); p.part_count()];
        sets[part.index()] = edges;
        let s = TreeShortcut::from_edge_sets(&g, &t, &p, sets).unwrap();
        let blocks = MemberBlocks::new(&g, &t, &p, &s, |q| q == part);
        assert_eq!(blocks.roots, [t.root()]);
        assert_eq!(blocks.counts, [0, 0, 1, 0]);
        assert_eq!(blocks.counts[part.index()], s.block_count(&g, &p, part));
        // The root is in column 0, so the block holds Steiner nodes.
        let nodes: Vec<NodeId> = (0..blocks.slot_count())
            .map(|slot| blocks.slot(slot))
            .inspect(|&(_, block)| assert_eq!(block, 0))
            .map(|(v, _)| v)
            .chain([t.root()])
            .collect();
        for &v in p.members(part) {
            assert!(nodes.contains(&v));
        }
        assert!(nodes.len() > p.members(part).len());
    }
}
