//! Generic part-wise aggregation.
//!
//! A thin, documented wrapper over the Theorem 2 routing primitives of
//! `lcs-core`; it exists so that applications (and downstream users) can
//! run "every part computes a function of its members' values" without
//! touching the routing internals. Connectivity labeling, partwise counting
//! and the minimum-outgoing-edge step of Boruvka are all instances.

use lcs_core::routing::PartRouter;
use lcs_core::TreeShortcut;
use lcs_graph::{Graph, NodeId, Partition, RootedTree};

/// Result of a part-wise aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartAggregateOutcome<T> {
    /// The output values, one per part.
    pub values: Vec<T>,
    /// Leader node of every part (the smallest member id).
    pub leaders: Vec<NodeId>,
    /// Exact number of CONGEST rounds charged, including leader election.
    pub rounds: u64,
}

/// Aggregates one value per node into one value per part, combining with
/// `combine` (associative and commutative), using the given tree-restricted
/// shortcut for intra-part communication.
///
/// Nodes with `None` (including nodes outside every part) contribute
/// nothing; parts all of whose members are `None` yield `None`.
///
/// # Panics
///
/// Panics if `values.len()` differs from the graph's node count.
pub fn part_aggregate<T, F>(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    shortcut: &TreeShortcut,
    values: &[Option<T>],
    combine: F,
) -> PartAggregateOutcome<Option<T>>
where
    T: Clone,
    F: Fn(&T, &T) -> T,
{
    let router = PartRouter::new(graph, tree, partition, shortcut);
    let leaders = router.elect_leaders();
    let aggregated = router.aggregate_to_leaders(values, combine);
    PartAggregateOutcome {
        values: aggregated.values,
        leaders: leaders.values,
        rounds: leaders.rounds + aggregated.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduled;
    use lcs_core::construction::{FindShortcut, FindShortcutConfig};
    use lcs_graph::generators;

    fn setup() -> (Graph, RootedTree, Partition, TreeShortcut) {
        let g = generators::wheel(41);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::wheel_arcs(41, 5);
        let s = FindShortcut::new(FindShortcutConfig::new(1, 1))
            .run(&g, &t, &p, &vec![true; p.part_count()], scheduled)
            .unwrap()
            .shortcut;
        (g, t, p, s)
    }

    #[test]
    fn partwise_sum_counts_members() {
        let (g, t, p, s) = setup();
        let ones: Vec<Option<u64>> = g.nodes().map(|v| p.part_of(v).map(|_| 1)).collect();
        let outcome = part_aggregate(&g, &t, &p, &s, &ones, |a, b| a + b);
        for part in p.parts() {
            assert_eq!(
                outcome.values[part.index()],
                Some(p.members(part).len() as u64)
            );
        }
        assert!(outcome.rounds > 0);
    }

    #[test]
    fn partwise_max_and_leaders() {
        let (g, t, p, s) = setup();
        let ids: Vec<Option<u64>> = g
            .nodes()
            .map(|v| p.part_of(v).map(|_| v.index() as u64))
            .collect();
        let outcome = part_aggregate(&g, &t, &p, &s, &ids, |a, b| *a.max(b));
        for part in p.parts() {
            let expected = p.members(part).iter().map(|v| v.index() as u64).max();
            assert_eq!(outcome.values[part.index()], expected);
            assert_eq!(
                outcome.leaders[part.index()],
                *p.members(part).iter().min().unwrap()
            );
        }
    }

    #[test]
    fn nodes_without_values_are_skipped() {
        let (g, t, p, s) = setup();
        // Only the leader of each part carries a value.
        let leaders: Vec<NodeId> = p
            .parts()
            .map(|q| *p.members(q).iter().min().unwrap())
            .collect();
        let values: Vec<Option<u64>> = g
            .nodes()
            .map(|v| if leaders.contains(&v) { Some(7) } else { None })
            .collect();
        let outcome = part_aggregate(&g, &t, &p, &s, &values, |a, b| a + b);
        for part in p.parts() {
            assert_eq!(outcome.values[part.index()], Some(7));
        }
    }
}
