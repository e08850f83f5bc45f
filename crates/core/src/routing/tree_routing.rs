//! Lemma 2: deterministic routing on families of subtrees.
//!
//! Given a rooted tree `T` of depth `D` and a family of subtrees such that
//! any tree edge is contained in at most `c` subtrees, a convergecast on all
//! subtrees in parallel completes in `O(D + c)` rounds, provided messages
//! contending for the same edge are forwarded in order of (smallest depth of
//! the subtree root, smallest subtree id). This module computes the exact
//! round count of that synchronous greedy schedule, not the bound, in one
//! pass over the tree's nodes, deepest first: what a node sends in a round
//! depends only on when its own messages become ready, and that depends
//! only on when its children sent theirs, which the pass has already timed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lcs_graph::{NodeId, RootedTree};

/// One subtree of the family: its root (shallowest node), the root's depth
/// (the Lemma 2 priority key) and its node set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtreeSpec {
    /// The shallowest node of the subtree.
    pub root: NodeId,
    /// Depth of the root in `T`.
    pub root_depth: u32,
    /// All nodes of the subtree, sorted. Every non-root node's tree parent
    /// must also be in the set (the set must induce a subtree of `T`).
    pub nodes: Vec<NodeId>,
}

impl SubtreeSpec {
    /// Builds a spec from an unsorted node list.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(tree: &RootedTree, mut nodes: Vec<NodeId>) -> Self {
        assert!(!nodes.is_empty(), "a subtree needs at least one node");
        nodes.sort();
        nodes.dedup();
        let root = *nodes
            .iter()
            .min_by_key(|v| (tree.depth(**v), **v))
            .expect("nonempty");
        SubtreeSpec {
            root,
            root_depth: tree.depth(root),
            nodes,
        }
    }

    /// Returns `true` if `node` belongs to the subtree.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }
}

/// The forwarding priority used when several subtrees contend for the same
/// tree edge in the same round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPriority {
    /// The Lemma 2 rule: smallest subtree-root depth first, ties broken by
    /// smallest subtree index. Guarantees completion within `D + c` rounds.
    #[default]
    BlockRootDepth,
    /// Ablation: ignore the root depth and order by subtree index only.
    IndexOnly,
    /// Ablation: *deepest* subtree root first — the reverse of the Lemma 2
    /// rule, used to demonstrate that the priority matters.
    ReverseDepth,
}

impl RoutingPriority {
    /// The scheduler key of a subtree: smaller keys are forwarded first.
    /// `index` breaks ties (the subtree index, or a block's number) and is
    /// the key's low word under every priority.
    pub(crate) fn key(self, root_depth: u32, index: usize) -> u64 {
        let index = u64::from(u32::try_from(index).expect("subtree indices fit in u32"));
        match self {
            RoutingPriority::BlockRootDepth => u64::from(root_depth) << 32 | index,
            RoutingPriority::IndexOnly => index,
            RoutingPriority::ReverseDepth => u64::from(u32::MAX - root_depth) << 32 | index,
        }
    }
}

/// Result of simulating the Lemma 2 convergecast schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingSchedule {
    /// Number of rounds until every subtree's root has received the
    /// aggregate of its subtree.
    pub rounds: u64,
    /// The largest number of subtrees sharing a single tree edge (the `c` of
    /// Lemma 2).
    pub max_edge_load: usize,
    /// Total number of point-to-point message deliveries performed.
    pub deliveries: u64,
}

/// Times a convergecast on every subtree of the family in parallel and
/// returns the exact round count of the deterministic schedule.
///
/// In each round, every node picks — among the subtrees for which it has
/// already heard from all of its children and not yet forwarded — the one
/// with the highest priority and forwards a single (aggregated) message over
/// its tree parent edge. The broadcast direction is symmetric, so the same
/// count applies to broadcasts (Lemma 2 states both).
///
/// Every non-root node of every subtree is one *slot*, forwarded exactly
/// once. A slot is ready one round after its last in-subtree child was
/// sent, or in round 1 if it has none, and a node's choice in a round
/// depends only on the ready rounds of its own slots. So one pass over the
/// nodes, deepest first, times each node's slots on their own — one send
/// per round, the ready slot of highest priority first — and passes every
/// send round up to the parent's slot of the same subtree. The largest send
/// round is the round count of the synchronous greedy, because each node
/// makes the same choices as there, in the same rounds. Linking a node to
/// its parent costs one binary search in the subtree's node list; timing
/// costs one sort of each node's slots, plus a heap push and pop for each
/// slot still unsent when slots of a later ready round join it.
/// The same scheduler times the member-block family of
/// [`crate::routing::MemberBlocks`], which verification,
/// [`crate::routing::PartRouter`] and `lcs_dist::BlockFamily` build on;
/// this entry point serves explicit subtree families (experiment E3).
///
/// # Panics
///
/// Panics if a subtree is not actually a subtree of `tree` (a non-root node
/// whose parent is outside the node set).
pub fn convergecast_rounds(
    tree: &RootedTree,
    subtrees: &[SubtreeSpec],
    priority: RoutingPriority,
) -> RoutingSchedule {
    let mut slots = Slots::with_capacity(subtrees.iter().map(|s| s.nodes.len()).sum());
    for (index, spec) in subtrees.iter().enumerate() {
        let key = priority.key(spec.root_depth, index);
        slots.push_subtree(tree, spec.root, &spec.nodes, key, index);
    }
    slots.schedule(tree)
}

/// Marks a slot whose parent is its subtree's root: forwarding it completes
/// nothing further.
const NO_SLOT: u32 = u32::MAX;

/// A convergecast family in flat form for the Lemma 2 scheduler: one slot
/// per (subtree, non-root node), holding the node, the slot of the node's
/// parent in the same subtree and the subtree's priority key. At most one
/// slot per node may carry a given key.
#[derive(Debug)]
pub(crate) struct Slots {
    node: Vec<u32>,
    parent: Vec<u32>,
    key: Vec<u64>,
}

impl Slots {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Slots {
            node: Vec::with_capacity(capacity),
            parent: Vec::with_capacity(capacity),
            key: Vec::with_capacity(capacity),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.node.len()
    }

    /// Adds a slot for `node` whose parent is its subtree's root; returns
    /// the slot's id.
    pub(crate) fn push(&mut self, node: NodeId, key: u64) -> u32 {
        let id = u32::try_from(self.len()).expect("slot ids fit in u32");
        self.node.push(node.index() as u32);
        self.parent.push(NO_SLOT);
        self.key.push(key);
        id
    }

    /// The node of `slot`.
    pub(crate) fn node(&self, slot: usize) -> NodeId {
        NodeId::new(self.node[slot] as usize)
    }

    /// The tie-break index of `slot`'s key ([`RoutingPriority::key`] keeps
    /// it in the low word under every priority).
    pub(crate) fn index(&self, slot: usize) -> usize {
        self.key[slot] as u32 as usize
    }

    /// Points `slot` at the slot of its node's parent.
    pub(crate) fn set_parent(&mut self, slot: u32, parent: u32) {
        self.parent[slot as usize] = parent;
    }

    /// Adds the slots of one subtree given by its root and its sorted node
    /// set; `index` names the subtree in the panic message.
    ///
    /// # Panics
    ///
    /// Panics if a non-root node's tree parent is outside `nodes`.
    pub(crate) fn push_subtree(
        &mut self,
        tree: &RootedTree,
        root: NodeId,
        nodes: &[NodeId],
        key: u64,
        index: usize,
    ) {
        // Slot ids follow `nodes` order with the root skipped.
        let base = self.len();
        let root_pos = nodes.binary_search(&root).unwrap_or(nodes.len());
        let slot_at = |pos: usize| (base + pos - usize::from(pos > root_pos)) as u32;
        for &v in nodes {
            if v == root {
                continue;
            }
            let parent = tree
                .parent(v)
                .expect("non-root subtree nodes have tree parents");
            let Ok(pos) = nodes.binary_search(&parent) else {
                panic!("node {v} of subtree {index} has its tree parent outside the subtree");
            };
            let slot = self.push(v, key);
            if parent != root {
                self.set_parent(slot, slot_at(pos));
            }
        }
    }

    /// Times the schedule on `tree`, the tree whose nodes the slots name.
    pub(crate) fn schedule(&self, tree: &RootedTree) -> RoutingSchedule {
        let node_count = tree.node_count();
        let total = self.len();
        // Group slots per node by counting sort; afterwards node v's slots
        // are order[first[v]..first[v + 1]].
        let mut first = vec![0u32; node_count + 1];
        for &v in &self.node {
            first[v as usize] += 1;
        }
        let max_edge_load = first.iter().copied().max().unwrap_or(0) as usize;
        let mut end = 0;
        for f in first.iter_mut() {
            end += *f;
            *f = end;
        }
        let mut order = vec![0u32; total];
        for (s, &v) in self.node.iter().enumerate().rev() {
            first[v as usize] -= 1;
            order[first[v as usize] as usize] = s as u32;
        }

        // The first round each slot may be sent in: one round after its
        // last in-subtree child was sent, round 1 if it has none. Children
        // are timed before their parents, so a node's ready rounds are
        // final when the pass reaches it.
        let mut ready = vec![1u32; total];
        // One node's slots as (ready round, key, slot), and its unsent
        // slots of earlier ready rounds by key.
        let mut run: Vec<(u32, u64, u32)> = Vec::with_capacity(max_edge_load);
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(max_edge_load);
        let mut rounds = 0u32;
        for &v in tree.nodes_bottom_up() {
            let slots = &order[first[v.index()] as usize..first[v.index() + 1] as usize];
            run.clear();
            run.extend(
                slots
                    .iter()
                    .map(|&s| (ready[s as usize], self.key[s as usize], s)),
            );
            run.sort_unstable();
            // One send per round: the ready slot of smallest key. Slots
            // that became ready in the same round are in key order in the
            // run, so it is consumed one such group at a time, and only the
            // slots a newer group catches up with wait in the heap.
            let (mut round, mut next, mut end) = (0u32, 0, 0);
            while next < run.len() || !heap.is_empty() {
                round += 1;
                if next == end && heap.is_empty() {
                    round = round.max(run[next].0);
                }
                if run.get(end).is_some_and(|slot| slot.0 <= round) {
                    heap.extend(run[next..end].iter().map(|&(_, key, s)| Reverse((key, s))));
                    next = end;
                    while run.get(end).is_some_and(|slot| slot.0 == run[next].0) {
                        end += 1;
                    }
                }
                let head = run[next..end].first().map(|&(_, key, s)| (key, s));
                let (_, s) = match (head, heap.peek()) {
                    (Some(head), top) if top.is_none_or(|Reverse(top)| head < *top) => {
                        next += 1;
                        head
                    }
                    _ => heap.pop().expect("a slot is ready").0,
                };
                let p = self.parent[s as usize];
                if p != NO_SLOT {
                    debug_assert_eq!(Some(self.node(p as usize)), tree.parent(v));
                    ready[p as usize] = ready[p as usize].max(round + 1);
                }
            }
            rounds = rounds.max(round);
        }

        RoutingSchedule {
            rounds: u64::from(rounds),
            max_edge_load,
            deliveries: total as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::generators;

    /// Whole-tree convergecast: a single subtree covering T finishes in
    /// depth(T) rounds.
    #[test]
    fn single_subtree_takes_depth_rounds() {
        let g = generators::grid(5, 5);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let spec = SubtreeSpec::new(&t, g.nodes().collect());
        let schedule = convergecast_rounds(&t, &[spec], RoutingPriority::BlockRootDepth);
        assert_eq!(schedule.rounds, u64::from(t.depth_of_tree()));
        assert_eq!(schedule.max_edge_load, 1);
        assert_eq!(schedule.deliveries, (g.node_count() - 1) as u64);
    }

    /// c identical copies of a path subtree: the Lemma 2 bound D + c holds
    /// and is essentially tight.
    #[test]
    fn overlapping_copies_respect_depth_plus_congestion() {
        let g = generators::path(30);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let all: Vec<NodeId> = g.nodes().collect();
        for c in [1usize, 2, 5, 10] {
            let family: Vec<SubtreeSpec> =
                (0..c).map(|_| SubtreeSpec::new(&t, all.clone())).collect();
            let schedule = convergecast_rounds(&t, &family, RoutingPriority::BlockRootDepth);
            assert_eq!(schedule.max_edge_load, c);
            let d = u64::from(t.depth_of_tree());
            assert!(
                schedule.rounds <= d + c as u64,
                "c={c}: {} > D + c",
                schedule.rounds
            );
            assert!(schedule.rounds >= d);
        }
    }

    /// Disjoint subtrees route completely in parallel.
    #[test]
    fn disjoint_subtrees_run_in_parallel() {
        let g = generators::grid(6, 8);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        // One subtree per tree child of the root (each child's full subtree).
        let mut family = Vec::new();
        for &child in t.children(t.root()) {
            let mut nodes = vec![child];
            // Collect the child's descendants.
            let mut stack = vec![child];
            while let Some(v) = stack.pop() {
                for &c in t.children(v) {
                    nodes.push(c);
                    stack.push(c);
                }
            }
            family.push(SubtreeSpec::new(&t, nodes));
        }
        let schedule = convergecast_rounds(&t, &family, RoutingPriority::BlockRootDepth);
        assert_eq!(schedule.max_edge_load, 1);
        assert!(schedule.rounds <= u64::from(t.depth_of_tree()));
    }

    /// The Lemma 2 bound D + c holds for the canonical priority on nested
    /// subtree families, and the measured schedule never beats the trivial
    /// lower bound of the deepest subtree height.
    #[test]
    fn nested_subtrees_within_bound() {
        let g = generators::path(40);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        // Subtree k = suffix of the path starting at node 5k (rooted there).
        let family: Vec<SubtreeSpec> = (0..8)
            .map(|k| SubtreeSpec::new(&t, (5 * k..40).map(NodeId::new).collect()))
            .collect();
        let schedule = convergecast_rounds(&t, &family, RoutingPriority::BlockRootDepth);
        let c = schedule.max_edge_load as u64;
        assert_eq!(c, 8);
        assert!(schedule.rounds <= u64::from(t.depth_of_tree()) + c);
    }

    /// The reverse priority can only be worse (or equal), demonstrating that
    /// the priority rule carries real weight.
    #[test]
    fn reverse_priority_is_never_better() {
        let g = generators::path(40);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let family: Vec<SubtreeSpec> = (0..8)
            .map(|k| SubtreeSpec::new(&t, (5 * k..40).map(NodeId::new).collect()))
            .collect();
        let good = convergecast_rounds(&t, &family, RoutingPriority::BlockRootDepth);
        let bad = convergecast_rounds(&t, &family, RoutingPriority::ReverseDepth);
        assert!(bad.rounds >= good.rounds);
    }

    /// A slot that becomes ready later but has the smaller key overtakes
    /// slots that were ready earlier. On the path 0-1-2-3 rooted at 0,
    /// subtree A = {0, 1, 2, 3} (key depth 0) and B = C = {1, 2} (depth
    /// 1, indices 1 and 2) meet at node 2. There B and C are ready in round
    /// 1 and A only in round 2, after node 3 sent A in round 1. So node 2
    /// sends B, then A, then C; node 1 sends A in round 3, and the
    /// schedule takes 3 rounds. Sending B, C, A would take 4, which is what
    /// the reverse priority does: B, C, then A, with node 1 in round 4.
    #[test]
    fn later_ready_slot_with_smaller_key_overtakes() {
        let g = generators::path(4);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let family: Vec<SubtreeSpec> = [vec![0, 1, 2, 3], vec![1, 2], vec![1, 2]]
            .into_iter()
            .map(|nodes| SubtreeSpec::new(&t, nodes.into_iter().map(NodeId::new).collect()))
            .collect();
        let schedule = convergecast_rounds(&t, &family, RoutingPriority::BlockRootDepth);
        assert_eq!(schedule.rounds, 3);
        assert_eq!(schedule.max_edge_load, 3);
        assert_eq!(schedule.deliveries, 5);
        let reverse = convergecast_rounds(&t, &family, RoutingPriority::ReverseDepth);
        assert_eq!(reverse.rounds, 4);
    }

    #[test]
    fn empty_family_costs_nothing() {
        let g = generators::path(3);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let schedule = convergecast_rounds(&t, &[], RoutingPriority::BlockRootDepth);
        assert_eq!(schedule.rounds, 0);
        assert_eq!(schedule.deliveries, 0);
    }

    #[test]
    #[should_panic(expected = "outside the subtree")]
    fn malformed_subtree_is_rejected() {
        let g = generators::path(5);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        // Nodes 0 and 3: node 3's parent (2) is missing.
        let spec = SubtreeSpec::new(&t, vec![NodeId::new(0), NodeId::new(3)]);
        let _ = convergecast_rounds(&t, &[spec], RoutingPriority::BlockRootDepth);
    }

    #[test]
    fn singleton_subtrees_cost_zero_rounds() {
        let g = generators::grid(3, 3);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let family: Vec<SubtreeSpec> = g.nodes().map(|v| SubtreeSpec::new(&t, vec![v])).collect();
        let schedule = convergecast_rounds(&t, &family, RoutingPriority::BlockRootDepth);
        // A singleton subtree has nothing to forward.
        assert_eq!(schedule.rounds, 0);
        assert_eq!(schedule.max_edge_load, 0);
    }
}
