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

use lcs_core::routing::{
    convergecast_rounds, subtree_specs_from_blocks, RoutingPriority, RoutingSchedule,
};
use lcs_core::{BlockComponent, TreeShortcut};
use lcs_graph::{EdgeId, Graph, NodeId, PartId, Partition, RootedTree};

/// A node's role within one block of the family.
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
    /// The node's tree children that lie inside the block.
    pub children: Vec<NodeId>,
}

/// Everything a single node knows locally when a protocol starts.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// The node itself.
    pub node: NodeId,
    /// The node's part, if any.
    pub part: Option<PartId>,
    /// The blocks this node belongs to (as a part member or Steiner node),
    /// strictly ascending by [`Membership::block`].
    pub memberships: Vec<Membership>,
    /// Index into [`NodeInfo::memberships`] of the block of the node's own
    /// part (every part member lies in exactly one block of its part).
    pub own_membership: Option<usize>,
    /// `(neighbor, edge)` pairs towards graph neighbors in the same part —
    /// the edges over which the Theorem 2 supergraph steps exchange.
    pub part_neighbors: Vec<(NodeId, EdgeId)>,
}

impl NodeInfo {
    /// The node's membership in its own part's block, if it is a part
    /// member.
    pub fn own(&self) -> Option<&Membership> {
        self.own_membership.map(|i| &self.memberships[i])
    }
}

/// The block family of a tree-restricted shortcut, with the per-node local
/// views all protocols run on, plus the family's exact Lemma 2 schedule
/// (used both to size the superstep windows and as the charged-cost
/// reference in cross-checks).
#[derive(Debug, Clone)]
pub struct BlockFamily {
    blocks: Vec<BlockComponent>,
    schedule: RoutingSchedule,
    node_info: Vec<NodeInfo>,
    block_parameter: usize,
    tree_depth: u32,
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
        // Flatten per-part blocks in partition order — the exact family
        // ordering `PartRouter` and `verification` use, so schedule lengths
        // and tie-breaks agree bit for bit. The bulk accessor shares one
        // epoch-stamped scratch across the whole partition.
        let mut blocks: Vec<BlockComponent> = Vec::new();
        let mut block_parameter = 0usize;
        for part_blocks in shortcut.active_block_components(graph, tree, partition, active) {
            block_parameter = block_parameter.max(part_blocks.len());
            blocks.extend(part_blocks);
        }

        let schedule = convergecast_rounds(
            tree,
            &subtree_specs_from_blocks(&blocks),
            RoutingPriority::BlockRootDepth,
        );

        let mut node_info: Vec<NodeInfo> = graph
            .nodes()
            .map(|v| NodeInfo {
                node: v,
                part: partition.part_of(v).filter(|p| active[p.index()]),
                memberships: Vec::new(),
                own_membership: None,
                part_neighbors: Vec::new(),
            })
            .collect();

        for (idx, block) in blocks.iter().enumerate() {
            for &v in &block.nodes {
                let parent = tree.parent(v).filter(|p| block.contains(*p));
                let children: Vec<NodeId> = tree
                    .children(v)
                    .iter()
                    .copied()
                    .filter(|c| block.contains(*c))
                    .collect();
                let info = &mut node_info[v.index()];
                if info.part == Some(block.part) {
                    info.own_membership = Some(info.memberships.len());
                }
                info.memberships.push(Membership {
                    block: idx,
                    part: block.part,
                    root: block.root,
                    root_depth: block.root_depth,
                    is_root: v == block.root,
                    parent,
                    children,
                });
            }
        }

        for v in graph.nodes() {
            let Some(part) = node_info[v.index()].part else {
                continue;
            };
            let same_part: Vec<(NodeId, EdgeId)> = graph
                .neighbors(v)
                .filter(|&(u, _)| node_info[u.index()].part == Some(part))
                .collect();
            node_info[v.index()].part_neighbors = same_part;
        }

        BlockFamily {
            blocks,
            schedule,
            node_info,
            block_parameter,
            tree_depth: tree.depth_of_tree(),
        }
    }

    /// The flattened block family.
    pub fn blocks(&self) -> &[BlockComponent] {
        &self.blocks
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
    pub fn info(&self, v: NodeId) -> &NodeInfo {
        &self.node_info[v.index()]
    }

    /// Number of nodes the family is defined over.
    pub fn node_count(&self) -> usize {
        self.node_info.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_core::existential::ancestor_shortcut;
    use lcs_graph::generators;

    fn grid_setup() -> (Graph, RootedTree, Partition) {
        let g = generators::grid(5, 5);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(5, 5);
        (g, t, p)
    }

    #[test]
    fn family_matches_centralized_block_structure() {
        let (g, t, p) = grid_setup();
        let s = ancestor_shortcut(&g, &t, &p);
        let family = BlockFamily::new(&g, &t, &p, &s);
        assert_eq!(family.block_parameter(), s.block_parameter(&g, &p));
        let total: usize = p
            .parts()
            .map(|q| s.block_components(&g, &t, &p, q).len())
            .sum();
        assert_eq!(family.blocks().len(), total);
    }

    #[test]
    fn memberships_are_locally_consistent() {
        let (g, t, p) = grid_setup();
        let s = ancestor_shortcut(&g, &t, &p);
        let family = BlockFamily::new(&g, &t, &p, &s);
        for v in g.nodes() {
            let info = family.info(v);
            assert_eq!(info.node, v);
            // Every part member has exactly one own-part membership.
            if info.part.is_some() {
                let own = info.own().expect("members lie in an own-part block");
                assert_eq!(Some(own.part), info.part);
            }
            for m in &info.memberships {
                let block = &family.blocks()[m.block];
                assert!(block.contains(v));
                assert_eq!(m.is_root, v == block.root);
                if !m.is_root {
                    let parent = m.parent.expect("non-root block nodes have parents");
                    assert!(block.contains(parent));
                    assert_eq!(t.parent(v), Some(parent));
                }
                for &c in &m.children {
                    assert_eq!(t.parent(c), Some(v));
                    assert!(block.contains(c));
                }
            }
            for &(u, e) in &info.part_neighbors {
                assert_eq!(p.part_of(u), p.part_of(v));
                assert!(g.edge_between(v, u) == Some(e));
            }
            // The engine finds a block's membership by binary search.
            assert!(
                info.memberships.windows(2).all(|w| w[0].block < w[1].block),
                "memberships of {v} must be strictly ascending by block"
            );
        }
    }

    #[test]
    fn inactive_parts_are_excluded() {
        let (g, t, p) = grid_setup();
        let s = ancestor_shortcut(&g, &t, &p);
        let mut active = vec![true; p.part_count()];
        active[0] = false;
        let family = BlockFamily::new_active(&g, &t, &p, &s, &active);
        for block in family.blocks() {
            assert_ne!(block.part, PartId::new(0));
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
        assert_eq!(family.blocks().len(), g.node_count());
        assert_eq!(family.schedule().rounds, 0);
        assert_eq!(family.block_parameter(), 5);
    }
}
