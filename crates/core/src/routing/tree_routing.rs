//! Lemma 2: deterministic routing on families of subtrees.
//!
//! Given a rooted tree `T` of depth `D` and a family of subtrees such that
//! any tree edge is contained in at most `c` subtrees, a convergecast on all
//! subtrees in parallel completes in `O(D + c)` rounds, provided messages
//! contending for the same edge are forwarded in order of (smallest depth of
//! the subtree root, smallest subtree id). This module simulates that
//! schedule edge-by-edge and round-by-round, so the reported round count is
//! the exact behaviour of the deterministic algorithm rather than the bound.

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

/// Simulates a convergecast on every subtree of the family in parallel and
/// returns the exact round count of the deterministic schedule.
///
/// In each round, every node picks — among the subtrees for which it has
/// already heard from all of its children and not yet forwarded — the one
/// with the highest priority and forwards a single (aggregated) message over
/// its tree parent edge. The broadcast direction is symmetric, so the same
/// count applies to broadcasts (Lemma 2 states both).
///
/// The simulation is event-driven: every non-root node of every subtree is
/// one *slot* that is forwarded exactly once, and becomes ready the moment
/// its last in-subtree child is heard from. Each node's slots are ranked in
/// priority order, and its ready slots are a bit set over those ranks, so
/// picking the best ready slot takes the lowest set bit. Readiness gained
/// during a round takes effect in the next round, which is exactly the
/// synchronous-rounds semantics. Linking a node to its parent costs one
/// binary search in the subtree's node list; scheduling costs one sort of
/// each node's slots plus a scan of the node's ready words per send. The
/// same scheduler times the member-block family of
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
    slots.schedule(tree.node_count())
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

    /// Runs the schedule over a tree of `node_count` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the schedule stalls before every slot was forwarded, which
    /// only a malformed family can cause.
    pub(crate) fn schedule(&self, node_count: usize) -> RoutingSchedule {
        let total = self.len();
        // Group slots per node by counting sort; afterwards node v's slots
        // are order[first[v]..first[v + 1]], sorted by key, and a slot's
        // rank in its node's run is its bit.
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
        let mut rank = vec![0u32; total];
        for v in 0..node_count {
            let run = &mut order[first[v] as usize..first[v + 1] as usize];
            if run.len() > 1 {
                run.sort_unstable_by_key(|&s| self.key[s as usize]);
            }
            for (r, &s) in run.iter().enumerate() {
                rank[s as usize] = r as u32;
            }
        }
        let mut ready = ReadySets::new(&first);

        let mut waiting = vec![0u32; total];
        for &p in &self.parent {
            if p != NO_SLOT {
                waiting[p as usize] += 1;
            }
        }
        // A node with slots is queued at most once per round, and a round
        // readies at most one parent slot per sender.
        let senders = node_count.min(total);
        let mut current: Vec<u32> = Vec::with_capacity(senders);
        let mut next: Vec<u32> = Vec::with_capacity(senders);
        let mut deferred: Vec<u32> = Vec::with_capacity(senders);
        for s in 0..total {
            if waiting[s] == 0 {
                ready.insert(self.node[s], rank[s], &mut current);
            }
        }

        let mut rounds = 0u64;
        let mut sent = 0usize;
        // Readiness earned during a round (`deferred`) only takes effect
        // next round.
        while sent < total {
            rounds += 1;
            if current.is_empty() {
                panic!("routing schedule stalled before completion");
            }
            for &v in &current {
                let s = order[(first[v as usize] + ready.pop(v)) as usize] as usize;
                let p = self.parent[s];
                if p != NO_SLOT {
                    let w = &mut waiting[p as usize];
                    *w = w.checked_sub(1).expect("no surplus child messages");
                    if *w == 0 {
                        deferred.push(p);
                    }
                }
                sent += 1;
            }
            for &v in &current {
                if ready.requeue(v) {
                    next.push(v);
                }
            }
            for p in deferred.drain(..) {
                let p = p as usize;
                ready.insert(self.node[p], rank[p], &mut next);
            }
            std::mem::swap(&mut current, &mut next);
            next.clear();
        }

        RoutingSchedule {
            rounds,
            max_edge_load,
            deliveries: total as u64,
        }
    }
}

/// Each node's ready slots as bit words over the node's slot ranks, plus
/// whether the node is queued to send.
struct ReadySets {
    /// Node `v` owns words `word_start[v]..word_start[v + 1]`.
    word_start: Vec<u32>,
    words: Vec<u64>,
    queued: Vec<bool>,
}

impl ReadySets {
    /// Sized from the per-node slot offsets of the scheduler.
    fn new(first: &[u32]) -> Self {
        let node_count = first.len() - 1;
        let mut word_start = Vec::with_capacity(node_count + 1);
        word_start.push(0u32);
        for v in 0..node_count {
            word_start.push(word_start[v] + (first[v + 1] - first[v]).div_ceil(64));
        }
        ReadySets {
            words: vec![0; word_start[node_count] as usize],
            word_start,
            queued: vec![false; node_count],
        }
    }

    fn of(&mut self, v: u32) -> &mut [u64] {
        let v = v as usize;
        &mut self.words[self.word_start[v] as usize..self.word_start[v + 1] as usize]
    }

    /// Marks the slot of rank `rank` at `v` ready, queueing `v` if needed.
    fn insert(&mut self, v: u32, rank: u32, queue: &mut Vec<u32>) {
        let r = rank as usize;
        self.of(v)[r / 64] |= 1 << (r % 64);
        if !self.queued[v as usize] {
            self.queued[v as usize] = true;
            queue.push(v);
        }
    }

    /// Takes the ready slot of lowest rank at `v`; returns its rank.
    fn pop(&mut self, v: u32) -> u32 {
        let (offset, word) = self
            .of(v)
            .iter_mut()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .expect("queued nodes have a ready slot");
        let bit = word.trailing_zeros();
        *word &= *word - 1;
        offset as u32 * 64 + bit
    }

    /// After `v` sent: keeps it queued if it still has a ready slot.
    fn requeue(&mut self, v: u32) -> bool {
        let keep = self.of(v).iter().any(|&w| w != 0);
        self.queued[v as usize] = keep;
        keep
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
