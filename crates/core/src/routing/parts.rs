//! Theorem 2: part-parallel primitives on a tree-restricted shortcut.
//!
//! Each part's shortcut subgraph is viewed as a *supergraph* whose
//! supernodes are the block components; two supernodes are adjacent if some
//! `G[P_i]` edge connects them. Leader election, convergecast and broadcast
//! run on this supergraph in `O(b)` supersteps, and every superstep is an
//! intra-block convergecast + broadcast scheduled by Lemma 2 over the whole
//! block family (all parts in parallel), so a superstep costs `O(D + c)`
//! rounds. The round counts reported here charge exactly that: the number
//! of supersteps actually performed times the exact Lemma 2 schedule length
//! measured on the actual block family. The router counts blocks and times
//! the family with verification's flat block pass; it keeps no block
//! component or supergraph.

use lcs_graph::{Graph, NodeId, Partition, RootedTree, UnionFind};

use super::blocks::{BlockRoots, MemberBlocks};
use crate::TreeShortcut;

/// The result of one part-parallel routing primitive: the per-part (or
/// per-node) outputs plus the number of CONGEST rounds charged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartRouterOutcome<T> {
    /// The primitive's output.
    pub values: T,
    /// Exact number of CONGEST rounds charged for the primitive.
    pub rounds: u64,
}

/// Routing engine for a fixed `(graph, tree, partition, shortcut)` tuple.
#[derive(Debug, Clone)]
pub struct PartRouter<'a> {
    graph: &'a Graph,
    tree: &'a RootedTree,
    partition: &'a Partition,
    shortcut: &'a TreeShortcut,
    /// The maximum block-component count over all parts.
    block_parameter: usize,
    /// Exact Lemma 2 schedule length for one intra-block convergecast over
    /// the entire block family (all parts in parallel).
    intra_block_rounds: u64,
    /// The measured maximum edge load of the family (the `c` of Lemma 2).
    max_edge_load: usize,
}

impl<'a> PartRouter<'a> {
    /// Builds the routing engine: counts every part's block components and
    /// measures the exact Lemma 2 schedule length of one intra-block
    /// communication step, with the same flat block pass the verification
    /// subroutine runs. No block component or supergraph is materialized.
    pub fn new(
        graph: &'a Graph,
        tree: &'a RootedTree,
        partition: &'a Partition,
        shortcut: &'a TreeShortcut,
    ) -> Self {
        let blocks = MemberBlocks::new(graph, tree, partition, shortcut, |_| true);
        let schedule = blocks.schedule();
        PartRouter {
            graph,
            tree,
            partition,
            shortcut,
            block_parameter: blocks.counts.iter().copied().max().unwrap_or(0),
            intra_block_rounds: schedule.rounds,
            max_edge_load: schedule.max_edge_load,
        }
    }

    /// The block parameter of the shortcut the router was built for: the
    /// maximum block-component count over all parts.
    pub fn block_parameter(&self) -> usize {
        self.block_parameter
    }

    /// The measured Lemma 2 congestion of the block family.
    pub fn max_edge_load(&self) -> usize {
        self.max_edge_load
    }

    /// Exact round cost of one superstep: an intra-block convergecast
    /// followed by an intra-block broadcast, both scheduled by Lemma 2 over
    /// the whole block family.
    pub fn superstep_rounds(&self) -> u64 {
        2 * self.intra_block_rounds
    }

    /// Theorem 2(i): elects a leader for every part in parallel. The leader
    /// is the smallest node id of the part (every supernode starts with the
    /// smallest id it contains and the minimum is flooded over the
    /// supergraph for `b` supersteps).
    pub fn elect_leaders(&self) -> PartRouterOutcome<Vec<NodeId>> {
        let b = self.block_parameter() as u64;
        let mut leaders = Vec::with_capacity(self.partition.part_count());
        for p in self.partition.parts() {
            // Flooding minima for `b` supersteps on a connected supergraph
            // of at most `b` supernodes converges to the global minimum of
            // the part members.
            let leader = self
                .partition
                .members(p)
                .iter()
                .copied()
                .min()
                .expect("parts are nonempty");
            leaders.push(leader);
        }
        PartRouterOutcome {
            values: leaders,
            rounds: b * self.superstep_rounds(),
        }
    }

    /// Theorem 2(ii): convergecasts one value per part member to the part's
    /// leader, combining values with `combine` (an associative, commutative
    /// operator). Nodes outside every part, or with `None`, contribute
    /// nothing. Returns the combined value per part (`None` for parts none
    /// of whose members carried a value — impossible if every member
    /// carries one).
    pub fn aggregate_to_leaders<T, F>(
        &self,
        values: &[Option<T>],
        combine: F,
    ) -> PartRouterOutcome<Vec<Option<T>>>
    where
        T: Clone,
        F: Fn(&T, &T) -> T,
    {
        assert_eq!(
            values.len(),
            self.graph.node_count(),
            "one optional value per node is required"
        );
        let mut per_part: Vec<Option<T>> = vec![None; self.partition.part_count()];
        for p in self.partition.parts() {
            for &v in self.partition.members(p) {
                if let Some(value) = &values[v.index()] {
                    per_part[p.index()] = Some(match &per_part[p.index()] {
                        None => value.clone(),
                        Some(acc) => combine(acc, value),
                    });
                }
            }
        }
        // A BFS over the supergraph from the leader block takes at most `b`
        // supersteps; values travel with it.
        let b = self.block_parameter() as u64;
        PartRouterOutcome {
            values: per_part,
            rounds: b * self.superstep_rounds(),
        }
    }

    /// Theorem 2(iii): broadcasts one value per part from the part's leader
    /// to every member. Returns the value received by every node (`None`
    /// for nodes outside every part).
    pub fn broadcast_from_leaders<T: Clone>(
        &self,
        per_part: &[T],
    ) -> PartRouterOutcome<Vec<Option<T>>> {
        assert_eq!(
            per_part.len(),
            self.partition.part_count(),
            "one value per part is required"
        );
        let mut per_node: Vec<Option<T>> = vec![None; self.graph.node_count()];
        for p in self.partition.parts() {
            for &v in self.partition.members(p) {
                per_node[v.index()] = Some(per_part[p.index()].clone());
            }
        }
        let b = self.block_parameter() as u64;
        PartRouterOutcome {
            values: per_node,
            rounds: b * self.superstep_rounds(),
        }
    }

    /// Returns `true` if every part's supergraph is connected — a structural
    /// invariant that must hold whenever the partition is valid (used by
    /// tests and debug assertions). The supergraph's supernodes are the
    /// part's block components, adjacent through `G[P_p]` edges, so it is
    /// connected exactly when joining the members of each block and the
    /// endpoints of each `G[P_p]` edge leaves the part in one set. Computed
    /// on each call.
    pub fn supergraphs_connected(&self) -> bool {
        let (graph, tree, partition) = (self.graph, self.tree, self.partition);
        let mut blocks = BlockRoots::new(graph.node_count());
        let mut sets = UnionFind::new(graph.node_count());
        let mut by_root: Vec<(NodeId, NodeId)> = Vec::new();
        partition.parts().all(|p| {
            let members = partition.members(p);
            let edges = self.shortcut.edges_of(p);
            blocks.begin(edges.iter().map(|&e| tree.lower_endpoint(graph, e)));
            by_root.clear();
            by_root.extend(members.iter().map(|&m| (blocks.root(tree, m), m)));
            by_root.sort_unstable();
            for pair in by_root.windows(2) {
                if pair[0].0 == pair[1].0 {
                    sets.union(pair[0].1.index(), pair[1].1.index());
                }
            }
            for &m in members {
                for (u, _) in graph.neighbors(m) {
                    if partition.part_of(u) == Some(p) {
                        sets.union(m.index(), u.index());
                    }
                }
            }
            let Some(&first) = members.first() else {
                return false;
            };
            let set = sets.find(first.index());
            members.iter().all(|m| sets.find(m.index()) == set)
        })
    }

    /// Total round cost of a full "aggregate then broadcast" exchange —
    /// the pattern every Boruvka phase performs.
    pub fn exchange_rounds(&self) -> u64 {
        2 * self.block_parameter() as u64 * self.superstep_rounds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::existential::ancestor_shortcut;
    use lcs_graph::generators;

    fn wheel_setup(n: usize, parts: usize) -> (Graph, RootedTree, Partition) {
        let g = generators::wheel(n);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::wheel_arcs(n, parts);
        (g, t, p)
    }

    #[test]
    fn wheel_router_has_single_blocks_and_small_supersteps() {
        let (g, t, p) = wheel_setup(41, 5);
        let s = ancestor_shortcut(&g, &t, &p);
        let router = PartRouter::new(&g, &t, &p, &s);
        assert_eq!(router.block_parameter(), 1);
        assert!(router.supergraphs_connected());
        // One block per part, rooted at the hub; the Lemma 2 congestion is
        // the number of parts because all blocks contain the hub's edges...
        // actually each spoke edge is in exactly one block, so the load is 1.
        assert_eq!(router.max_edge_load(), 1);
        let leaders = router.elect_leaders();
        // The leader of each arc is its smallest node id.
        for part in p.parts() {
            let expected = p.members(part).iter().copied().min().unwrap();
            assert_eq!(leaders.values[part.index()], expected);
        }
        assert!(leaders.rounds > 0);
    }

    #[test]
    fn aggregate_and_broadcast_round_trip() {
        let (g, t, p) = wheel_setup(21, 4);
        let s = ancestor_shortcut(&g, &t, &p);
        let router = PartRouter::new(&g, &t, &p, &s);

        // Every member contributes its node id; the per-part minimum must be
        // the leader id.
        let values: Vec<Option<u64>> = g
            .nodes()
            .map(|v| p.part_of(v).map(|_| v.index() as u64))
            .collect();
        let agg = router.aggregate_to_leaders(&values, |a, b| *a.min(b));
        let leaders = router.elect_leaders();
        for part in p.parts() {
            assert_eq!(
                agg.values[part.index()],
                Some(leaders.values[part.index()].index() as u64)
            );
        }

        // Broadcast the aggregates back: every member sees its part's value.
        let flat: Vec<u64> = agg.values.iter().map(|v| v.unwrap()).collect();
        let bc = router.broadcast_from_leaders(&flat);
        for v in g.nodes() {
            match p.part_of(v) {
                Some(part) => assert_eq!(bc.values[v.index()], Some(flat[part.index()])),
                None => assert_eq!(bc.values[v.index()], None),
            }
        }
        assert_eq!(agg.rounds, bc.rounds);
    }

    #[test]
    fn empty_shortcut_router_counts_singleton_blocks() {
        let g = generators::grid(4, 4);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(4, 4);
        let s = TreeShortcut::empty(&g, &p);
        let router = PartRouter::new(&g, &t, &p, &s);
        assert_eq!(router.block_parameter(), 4);
        assert!(router.supergraphs_connected());
        // With no shortcut edges there is nothing to route inside blocks.
        assert_eq!(router.superstep_rounds(), 0);
    }

    #[test]
    fn ancestor_shortcut_router_on_grid_reduces_blocks_to_one() {
        let g = generators::grid(5, 5);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(5, 5);
        let s = ancestor_shortcut(&g, &t, &p);
        let router = PartRouter::new(&g, &t, &p, &s);
        assert_eq!(router.block_parameter(), 1);
        assert!(router.supergraphs_connected());
        // The exchange cost of a Boruvka phase is positive and bounded by
        // 2 * b * 2 * (D + c), with b = 1 on this instance.
        let b = 1;
        let bound = 2 * b * 2 * (u64::from(t.depth_of_tree()) + router.max_edge_load() as u64);
        assert!(router.exchange_rounds() <= bound);
    }

    #[test]
    #[should_panic(expected = "one optional value per node")]
    fn aggregate_requires_per_node_values() {
        let (g, t, p) = wheel_setup(11, 2);
        let s = ancestor_shortcut(&g, &t, &p);
        let router = PartRouter::new(&g, &t, &p, &s);
        let _ = router.aggregate_to_leaders::<u64, _>(&[None, None], |a, _| *a);
    }
}
