//! Per-node local knowledge about the block family.
//!
//! The paper's Section 4.1 represents a tree-restricted shortcut
//! distributedly: every node knows which parts are assigned to its parent
//! edge. From that representation each node can derive, with an `O(D)`
//! preprocessing convergecast per block, everything the routing protocols
//! need locally: which blocks it belongs to, whether it is the block's root
//! (the unique block node whose parent edge is not in the block), its
//! children within each block, and the block root's depth (the Lemma 2
//! priority key). [`BlockFamily`] precomputes exactly this per-node view —
//! it stands in for that preprocessing, and the protocols built on it touch
//! *only* a node's own [`NodeInfo`] plus the messages it receives.
//!
//! # Layout
//!
//! The family stores every node's view as compressed sparse rows in node
//! order, the way `lcs_graph::Graph` stores adjacency: one offset array per
//! relation plus one flat array, never a `Vec` per node or per membership.
//!
//! ```text
//! member_start:   [0   1     3   3 ...]     node v's memberships =
//! memberships:    [m0 | m1 m2 |  | ...]       member_start[v]..member_start[v+1]
//! parent_member:  [p0 | p1 p2 |  | ...]     parallel to memberships
//! children:       [c c | c | c c c | ...]   membership m's in-block children =
//! child_member:   [k k | k | k k k | ...]     m's child range, memberships in order
//! neighbor_start: [0   2     3 ...]         node v's same-part neighbors
//! part_neighbors: [(u, e) (u, e) | ... ]
//! ```
//!
//! Two index arrays tie the rows of neighboring tree nodes together:
//! `parent_member` holds, per membership, the index of the same block among
//! the in-block parent's memberships, and `child_member` holds, per
//! in-block child, the index of the same block among the child's
//! memberships. Each is what the receiving node's own lookup of a block id
//! in its row returns — local computation, which CONGEST does not charge —
//! so the superstep engine addresses every tree message by index and never
//! searches a row. Both come out of the build without a membership test: a
//! block is a subtree of `T` rooted at its shallowest node, so a non-root
//! block node's tree parent is in the block, and the children are the
//! inverse of that parent relation.
//!
//! A [`NodeInfo`] is a borrowed view of one node's rows, and a protocol run
//! reads each node's rows where the previous node's end.
//!
//! # Build
//!
//! The blocks come from `lcs_core::routing::MemberBlocks`, Lemma 3's flat
//! pass that the scheduled verification and `PartRouter` run too: one
//! climb of the parent edges per part finds every member block's root and
//! lays out a Lemma 2 slot per other block node, and the family's schedule
//! is that pass's schedule. The family turns those incidences (each block
//! root, each slot node) into its rows by one counting sort, part by part,
//! so the build allocates the same number of buffers for any part count
//! and keeps no per-block node list.

use std::ops::Range;

use lcs_core::routing::{MemberBlocks, RoutingSchedule};
use lcs_core::TreeShortcut;
use lcs_graph::{EdgeId, Graph, NodeId, PartId, Partition, RootedTree};

/// A missing membership index: the `own` entry of a node outside every
/// active part, and the parent index of a block root.
const NO_MEMBERSHIP: u32 = u32::MAX;

/// One block of the family: a block of `H_p` that holds a member of
/// `P_p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberBlock {
    /// The part the block belongs to.
    pub part: PartId,
    /// The block root: the block's shallowest node.
    pub root: NodeId,
    /// Depth of the block root in `T` (the Lemma 2 priority key).
    pub root_depth: u32,
}

/// A node's role within one block of the family.
///
/// The family keeps the same block's membership at the node's in-block
/// parent and at each in-block child linked to this one by index (see
/// [`BlockFamily`]), so a protocol reaches its block's neighbors without
/// searching their rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    /// Index of the block within the family (the Lemma 2 tie-break key).
    pub block: usize,
    /// The part the block belongs to.
    pub part: PartId,
    /// The block root (shallowest node; its id doubles as the block's
    /// globally unique identity in the counting protocols).
    pub root: NodeId,
    /// Depth of the block root in `T` (the Lemma 2 priority key).
    pub root_depth: u32,
    /// Whether this node is the block root.
    pub is_root: bool,
    /// The node's tree parent, when it lies inside the block (always
    /// `Some` unless this node is the block root).
    pub parent: Option<NodeId>,
    /// The node's tree children that lie inside the block, as a range of
    /// the family's child array (read them with [`NodeInfo::children`]).
    /// The same range of the family's `child_member` array holds each
    /// child's index of this block among its own memberships.
    children: (u32, u32),
}

/// Everything a single node knows locally when a protocol starts: a
/// borrowed view of the node's rows in its [`BlockFamily`].
#[derive(Debug, Clone, Copy)]
pub struct NodeInfo<'a> {
    /// The node itself.
    pub node: NodeId,
    /// The node's part, if any.
    pub part: Option<PartId>,
    /// The blocks this node belongs to (as a part member or Steiner node),
    /// strictly ascending by [`Membership::block`].
    pub memberships: &'a [Membership],
    /// Index into [`NodeInfo::memberships`] of the block of the node's own
    /// part (every part member lies in exactly one block of its part).
    pub own_membership: Option<usize>,
    /// `(neighbor, edge)` pairs towards graph neighbors in the same part —
    /// the edges over which the Theorem 2 supergraph steps exchange.
    pub part_neighbors: &'a [(NodeId, EdgeId)],
    /// Parallel to `memberships`: the index of the same block among the
    /// in-block parent's memberships ([`NO_MEMBERSHIP`] at a block root).
    parent_members: &'a [u32],
    /// The node's in-block children over all its memberships, one
    /// membership after the other.
    children: &'a [NodeId],
    /// Parallel to `children`: each child's index of the same block among
    /// the child's memberships.
    child_members: &'a [u32],
}

impl<'a> NodeInfo<'a> {
    /// The node's membership in its own part's block, if it is a part
    /// member.
    pub fn own(&self) -> Option<&'a Membership> {
        let memberships = self.memberships;
        self.own_membership.map(|i| &memberships[i])
    }

    /// The node's tree children inside the block of membership `member`
    /// (an index into [`NodeInfo::memberships`]), ascending. The family
    /// keeps, in parallel, each child's index of the same block among the
    /// child's own memberships, which the superstep engine addresses its
    /// downward messages with.
    pub fn children(&self, member: usize) -> &'a [NodeId] {
        &self.children[self.child_range(member)]
    }

    /// Parallel to [`NodeInfo::children`]: each child's index of the block
    /// of membership `member` among the child's memberships.
    pub(crate) fn child_members(&self, member: usize) -> &'a [u32] {
        &self.child_members[self.child_range(member)]
    }

    /// The index of membership `member`'s block among the in-block
    /// parent's memberships; `None` at the block root.
    pub(crate) fn parent_member(&self, member: usize) -> Option<u32> {
        let k = self.parent_members[member];
        (k != NO_MEMBERSHIP).then_some(k)
    }

    /// Membership `member`'s children as positions in the node's run.
    fn child_range(&self, member: usize) -> Range<usize> {
        // The first membership's range starts the node's run of children.
        let base = self.memberships[0].children.0;
        let (start, end) = self.memberships[member].children;
        (start - base) as usize..(end - base) as usize
    }
}

/// The block family of a tree-restricted shortcut, with the per-node local
/// views all protocols run on, plus the family's exact Lemma 2 schedule
/// (used both to size the superstep windows and as the charged-cost
/// reference in cross-checks).
///
/// Its blocks are the active parts' member blocks (the blocks of `H_p`
/// that hold a member of `P_p`), numbered by part, then root depth, then
/// root id ([`BlockFamily::block`]). The views are stored as compressed
/// sparse rows in node order (see the module docs);
/// [`BlockFamily::info`] hands out one node's rows as a
/// [`NodeInfo`]. Next to the rows the family keeps two index arrays that
/// link a membership to the same block's membership at its in-block
/// parent and at each in-block child, so the superstep engine dispatches
/// every tree message by index instead of searching a row for its block.
#[derive(Debug, Clone)]
pub struct BlockFamily {
    /// Each block's part, root and root depth, by block number.
    blocks: Vec<MemberBlock>,
    schedule: RoutingSchedule,
    block_parameter: usize,
    tree_depth: u32,
    /// Each node's active part.
    part: Vec<Option<PartId>>,
    /// Each node's own-part membership, as an index among its memberships
    /// ([`NO_MEMBERSHIP`] outside every active part).
    own: Vec<u32>,
    /// Node `v`'s memberships are `memberships[member_start[v]..
    /// member_start[v + 1]]`, ascending by block. Length `n + 1`.
    member_start: Vec<u32>,
    memberships: Vec<Membership>,
    /// Parallel to `memberships`: the index of the same block among the
    /// in-block parent's memberships ([`NO_MEMBERSHIP`] at a block root).
    parent_member: Vec<u32>,
    /// Every membership's in-block children, membership after membership,
    /// so each node's children are one contiguous run too.
    children: Vec<NodeId>,
    /// Parallel to `children`: each child's index of the same block among
    /// the child's memberships.
    child_member: Vec<u32>,
    /// Node `v`'s same-part neighbors are `part_neighbors[neighbor_start[v]..
    /// neighbor_start[v + 1]]`, in adjacency order. Length `n + 1`.
    neighbor_start: Vec<u32>,
    part_neighbors: Vec<(NodeId, EdgeId)>,
}

impl BlockFamily {
    /// Builds the family over every part of the partition.
    pub fn new(
        graph: &Graph,
        tree: &RootedTree,
        partition: &Partition,
        shortcut: &TreeShortcut,
    ) -> Self {
        let active = vec![true; partition.part_count()];
        Self::new_active(graph, tree, partition, shortcut, &active)
    }

    /// Builds the family restricted to the active parts (the verification
    /// subroutine only routes over the blocks of the parts still under
    /// construction).
    ///
    /// # Panics
    ///
    /// Panics if `active.len()` differs from the partition's part count.
    pub fn new_active(
        graph: &Graph,
        tree: &RootedTree,
        partition: &Partition,
        shortcut: &TreeShortcut,
        active: &[bool],
    ) -> Self {
        assert_eq!(
            active.len(),
            partition.part_count(),
            "one active flag per part is required"
        );
        // The flat Lemma 3 pass `PartRouter` and `verification` run, so
        // block numbers, schedule lengths and tie-breaks agree bit for bit.
        let pass = MemberBlocks::new(graph, tree, partition, shortcut, |p| active[p.index()]);
        let schedule = pass.schedule(tree);
        let block_parameter = pass.counts.iter().copied().max().unwrap_or(0);

        let n = graph.node_count();
        let part: Vec<Option<PartId>> = graph
            .nodes()
            .map(|v| partition.part_of(v).filter(|p| active[p.index()]))
            .collect();

        // Counting sort of the (node, block) incidences by node: each block
        // root, and each slot node (every other block node).
        let mut member_start = vec![0u32; n + 1];
        for root in &pass.roots {
            member_start[root.index() + 1] += 1;
        }
        for s in 0..pass.slot_count() {
            member_start[pass.slot(s).0.index() + 1] += 1;
        }
        for v in 0..n {
            member_start[v + 1] += member_start[v];
        }
        let total = member_start[n] as usize;
        let at = |v: NodeId, local: u32| (member_start[v.index()] + local) as usize;

        // Place the incidences part by part. Blocks are numbered part by
        // part and a node lies in at most one block of a part, so each row
        // comes out ascending by block, and once a part is placed, the last
        // entry of a block node's row (`placed[v] - 1`) is its membership
        // of that part. A block is a subtree of `T` rooted at its shallowest
        // node, so every other block node's tree parent lies in the block:
        // its parent index is one lookup, no search.
        let mut member_block = vec![0u32; total];
        let mut parent_member = vec![NO_MEMBERSHIP; total];
        let mut placed = vec![0u32; n];
        let mut blocks = Vec::with_capacity(pass.roots.len());
        let mut slot = 0;
        for (p, &count) in pass.counts.iter().enumerate() {
            let part_blocks = blocks.len()..blocks.len() + count;
            let roots = &pass.roots[part_blocks.clone()];
            blocks.extend(roots.iter().map(|&root| MemberBlock {
                part: PartId::new(p),
                root,
                root_depth: tree.depth(root),
            }));
            let first_slot = slot;
            while slot < pass.slot_count() && pass.slot(slot).1 < part_blocks.end {
                slot += 1;
            }
            let roots = roots.iter().copied().zip(part_blocks);
            for (v, b) in roots.chain((first_slot..slot).map(|s| pass.slot(s))) {
                member_block[at(v, placed[v.index()])] =
                    u32::try_from(b).expect("block ids fit in 32 bits");
                placed[v.index()] += 1;
            }
            for s in first_slot..slot {
                let v = pass.slot(s).0;
                let p = tree
                    .parent(v)
                    .expect("a non-root block node has a tree parent");
                let last = |v: NodeId| placed[v.index()] - 1;
                debug_assert_eq!(
                    member_block[at(p, last(p))],
                    member_block[at(v, last(v))],
                    "the tree parent of {v} lies outside its block"
                );
                parent_member[at(v, last(v))] = last(p);
            }
        }

        // The in-block children are the inverse of the parent relation:
        // count each membership's children, then fill them in ascending
        // node order, so every membership's children come out ascending.
        let parent_at = |v: NodeId, k: usize| {
            let p = tree
                .parent(v)
                .expect("a non-root block node has a tree parent");
            at(p, parent_member[k])
        };
        let mut child_start = vec![0u32; total + 1];
        for v in graph.nodes() {
            for k in at(v, 0)..member_start[v.index() + 1] as usize {
                if parent_member[k] != NO_MEMBERSHIP {
                    child_start[parent_at(v, k) + 1] += 1;
                }
            }
        }
        for k in 0..total {
            child_start[k + 1] += child_start[k];
        }
        let mut children = vec![NodeId::new(0); child_start[total] as usize];
        let mut child_member = vec![0u32; children.len()];
        let mut filled = child_start[..total].to_vec();
        for v in graph.nodes() {
            let row = at(v, 0)..member_start[v.index() + 1] as usize;
            for (i, k) in row.enumerate() {
                if parent_member[k] != NO_MEMBERSHIP {
                    let slot = &mut filled[parent_at(v, k)];
                    children[*slot as usize] = v;
                    child_member[*slot as usize] = i as u32;
                    *slot += 1;
                }
            }
        }

        let mut memberships: Vec<Membership> = Vec::with_capacity(total);
        let mut own = vec![NO_MEMBERSHIP; n];
        for v in graph.nodes() {
            let row = at(v, 0)..member_start[v.index() + 1] as usize;
            for (i, k) in row.enumerate() {
                let block = &blocks[member_block[k] as usize];
                if part[v.index()] == Some(block.part) {
                    own[v.index()] = i as u32;
                }
                let is_root = parent_member[k] == NO_MEMBERSHIP;
                memberships.push(Membership {
                    block: member_block[k] as usize,
                    part: block.part,
                    root: block.root,
                    root_depth: block.root_depth,
                    is_root,
                    parent: if is_root { None } else { tree.parent(v) },
                    children: (child_start[k], child_start[k + 1]),
                });
            }
        }

        // Room for every edge at an active member, so the row array is
        // one allocation however the parts split the adjacency.
        let mut neighbor_start: Vec<u32> = Vec::with_capacity(n + 1);
        neighbor_start.push(0);
        let mut part_neighbors: Vec<(NodeId, EdgeId)> = Vec::with_capacity(
            graph
                .nodes()
                .filter(|v| part[v.index()].is_some())
                .map(|v| graph.degree(v))
                .sum(),
        );
        for v in graph.nodes() {
            if let Some(p) = part[v.index()] {
                part_neighbors.extend(
                    graph
                        .neighbors(v)
                        .filter(|&(u, _)| part[u.index()] == Some(p)),
                );
            }
            neighbor_start
                .push(u32::try_from(part_neighbors.len()).expect("adjacency sizes fit in 32 bits"));
        }

        BlockFamily {
            blocks,
            schedule,
            block_parameter,
            tree_depth: tree.depth_of_tree(),
            part,
            own,
            member_start,
            memberships,
            parent_member,
            children,
            child_member,
            neighbor_start,
            part_neighbors,
        }
    }

    /// Number of blocks in the family.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Block `block`'s part, root and root depth.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn block(&self, block: usize) -> MemberBlock {
        self.blocks[block]
    }

    /// The exact Lemma 2 convergecast schedule of the family (its `rounds`
    /// is the window half-length `L`; its `max_edge_load` is the measured
    /// congestion `c`).
    pub fn schedule(&self) -> RoutingSchedule {
        self.schedule
    }

    /// The block parameter `b` of the (active part of the) shortcut.
    pub fn block_parameter(&self) -> usize {
        self.block_parameter
    }

    /// Depth of the spanning tree the family lives on.
    pub fn tree_depth(&self) -> u32 {
        self.tree_depth
    }

    /// The Lemma 2 round bound `D + c` for one parallel convergecast.
    pub fn lemma2_bound(&self) -> u64 {
        u64::from(self.tree_depth) + self.schedule.max_edge_load as u64
    }

    /// One node's local view.
    pub fn info(&self, v: NodeId) -> NodeInfo<'_> {
        let i = v.index();
        let own = self.own[i];
        let members = self.member_span(v);
        let children = self.child_span(v);
        NodeInfo {
            node: v,
            part: self.part[i],
            memberships: &self.memberships[members.clone()],
            own_membership: (own != NO_MEMBERSHIP).then_some(own as usize),
            part_neighbors: self.part_neighbors(v),
            parent_members: &self.parent_member[members],
            children: &self.children[children.clone()],
            child_members: &self.child_member[children],
        }
    }

    /// Node `v`'s `(neighbor, edge)` pairs towards graph neighbors in the
    /// same active part: [`NodeInfo::part_neighbors`] without the rest of
    /// the view.
    pub(crate) fn part_neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        let i = v.index();
        &self.part_neighbors[self.neighbor_start[i] as usize..self.neighbor_start[i + 1] as usize]
    }

    /// Number of nodes the family is defined over.
    pub fn node_count(&self) -> usize {
        self.part.len()
    }

    /// Total number of memberships over all nodes.
    pub(crate) fn membership_count(&self) -> usize {
        self.memberships.len()
    }

    /// Total number of in-block children over all memberships.
    pub(crate) fn child_count(&self) -> usize {
        self.children.len()
    }

    /// Node `v`'s row of memberships, as positions among all of them.
    pub(crate) fn member_span(&self, v: NodeId) -> Range<usize> {
        self.member_start[v.index()] as usize..self.member_start[v.index() + 1] as usize
    }

    /// Node `v`'s in-block children over all its memberships, as positions
    /// in the child array.
    pub(crate) fn child_span(&self, v: NodeId) -> Range<usize> {
        let at = |k: usize| {
            self.memberships
                .get(k)
                .map_or(self.children.len(), |m| m.children.0 as usize)
        };
        let row = self.member_span(v);
        at(row.start)..at(row.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_core::existential::{ancestor_shortcut, truncated_ancestor_shortcut};
    use lcs_graph::generators;

    fn grid_setup() -> (Graph, RootedTree, Partition) {
        let g = generators::grid(5, 5);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(5, 5);
        (g, t, p)
    }

    /// The nodes of part `part`'s block rooted at `root`, sorted: a BFS
    /// from `root` over the edges of `H_part`.
    fn block_nodes(g: &Graph, s: &TreeShortcut, part: PartId, root: NodeId) -> Vec<NodeId> {
        let mut nodes = vec![root];
        let mut next = 0;
        while let Some(&v) = nodes.get(next) {
            next += 1;
            for &e in s.edges_of(part) {
                let edge = g.edge(e);
                let u = match v {
                    _ if edge.u == v => edge.v,
                    _ if edge.v == v => edge.u,
                    _ => continue,
                };
                if !nodes.contains(&u) {
                    nodes.push(u);
                }
            }
        }
        nodes.sort();
        nodes
    }

    #[test]
    fn family_matches_centralized_block_structure() {
        let (g, t, p) = grid_setup();
        for s in [
            ancestor_shortcut(&g, &t, &p),
            truncated_ancestor_shortcut(&g, &t, &p, 1),
        ] {
            let family = BlockFamily::new(&g, &t, &p, &s);
            assert_eq!(family.block_parameter(), s.block_parameter(&g, &p));
            let total: usize = p.parts().map(|q| s.block_count(&g, &p, q)).sum();
            assert_eq!(family.block_count(), total);
            // Numbered by part, then root depth, then root id.
            let keys: Vec<_> = (0..family.block_count())
                .map(|b| family.block(b))
                .map(|block| (block.part, block.root_depth, block.root))
                .collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn memberships_are_locally_consistent() {
        let (g, t, p) = grid_setup();
        for s in [
            ancestor_shortcut(&g, &t, &p),
            truncated_ancestor_shortcut(&g, &t, &p, 1),
        ] {
            let family = BlockFamily::new(&g, &t, &p, &s);
            let nodes: Vec<Vec<NodeId>> = (0..family.block_count())
                .map(|b| family.block(b))
                .map(|block| block_nodes(&g, &s, block.part, block.root))
                .collect();
            for (b, block_nodes) in nodes.iter().enumerate() {
                // The root is the block's shallowest node.
                let block = family.block(b);
                assert_eq!(block.root_depth, t.depth(block.root));
                assert!(block_nodes.iter().all(|&v| t.depth(v) >= block.root_depth));
            }
            for v in g.nodes() {
                let info = family.info(v);
                assert_eq!(info.node, v);
                // Every part member has exactly one own-part membership.
                if info.part.is_some() {
                    let own = info.own().expect("members lie in an own-part block");
                    assert_eq!(Some(own.part), info.part);
                }
                // The rows hold exactly the blocks containing `v`, each with
                // exactly `v`'s tree children inside it, and the children of
                // one node's memberships are one contiguous run.
                let blocks: Vec<usize> = (0..family.block_count())
                    .filter(|&b| nodes[b].contains(&v))
                    .collect();
                let listed: Vec<usize> = info.memberships.iter().map(|m| m.block).collect();
                assert_eq!(listed, blocks, "node {v}");
                let mut run = Vec::new();
                for (i, m) in info.memberships.iter().enumerate() {
                    let block = &nodes[m.block];
                    assert_eq!(m.root, family.block(m.block).root);
                    assert_eq!(m.is_root, v == m.root);
                    if !m.is_root {
                        let parent = m.parent.expect("non-root block nodes have parents");
                        assert!(block.contains(&parent));
                        assert_eq!(t.parent(v), Some(parent));
                    }
                    let expected: Vec<NodeId> = t
                        .children(v)
                        .iter()
                        .copied()
                        .filter(|c| block.contains(c))
                        .collect();
                    assert_eq!(info.children(i), &expected[..], "node {v}");
                    run.extend_from_slice(info.children(i));
                }
                assert_eq!(&family.children[family.child_span(v)], &run[..]);
                assert_eq!(family.member_span(v).len(), info.memberships.len());
                assert_eq!(family.part_neighbors(v), info.part_neighbors);
                for &(u, e) in info.part_neighbors {
                    assert_eq!(p.part_of(u), p.part_of(v));
                    assert!(g.edge_between(v, u) == Some(e));
                }
            }
        }
    }

    #[test]
    fn inactive_parts_are_excluded() {
        let (g, t, p) = grid_setup();
        let s = ancestor_shortcut(&g, &t, &p);
        let mut active = vec![true; p.part_count()];
        active[0] = false;
        let family = BlockFamily::new_active(&g, &t, &p, &s, &active);
        for b in 0..family.block_count() {
            assert_ne!(family.block(b).part, PartId::new(0));
        }
        // Members of the inactive part have no part in this family's view.
        for &v in p.members(PartId::new(0)) {
            assert_eq!(family.info(v).part, None);
        }
    }

    #[test]
    fn empty_shortcut_gives_singleton_blocks_and_zero_schedule() {
        let (g, t, p) = grid_setup();
        let s = TreeShortcut::empty(&g, &p);
        let family = BlockFamily::new(&g, &t, &p, &s);
        assert_eq!(family.block_count(), g.node_count());
        assert_eq!(family.schedule().rounds, 0);
        assert_eq!(family.block_parameter(), 5);
    }
}
