//! Node partitions: disjoint, individually connected parts.
//!
//! A [`Partition`] is the object low-congestion shortcuts are built *for*:
//! the graph's node set is subdivided into disjoint parts `P_1, …, P_N`,
//! each inducing a connected subgraph `G[P_i]`. Nodes are allowed to belong
//! to no part at all (the paper's construction algorithms explicitly handle
//! nodes outside every part, e.g. the "highway" nodes of the lower-bound
//! instance).

use std::collections::VecDeque;

use crate::traversal::{bfs_filtered, induces_connected_subgraph};
use crate::tree::bucket_nodes;
use crate::{Graph, GraphError, NodeId, PartId, Result};

/// A family of disjoint, individually connected node parts.
///
/// The member lists are one compressed sparse row (CSR) relation, laid out
/// by a counting sort over the per-node assignment: an offset array plus one
/// flat node array, so a partition is three allocations whatever its part
/// count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `part_of[v]` is the part containing `v`, or `None` if `v` is in no
    /// part.
    part_of: Vec<Option<PartId>>,
    /// `member_start[i]..member_start[i + 1]` indexes `member`: the nodes of
    /// part `i`, ascending. Length `part_count + 1`.
    member_start: Vec<u32>,
    member: Vec<NodeId>,
}

impl Partition {
    /// Builds a partition from a per-node assignment.
    ///
    /// Parts must be referenced densely: if any node maps to part `i`, then
    /// for every `j < i` some node maps to part `j`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyPart`] if the assignment skips a part id.
    pub fn from_assignment(node_count: usize, assignment: Vec<Option<PartId>>) -> Result<Self> {
        assert_eq!(
            assignment.len(),
            node_count,
            "assignment length must equal node count"
        );
        let part_count = assignment
            .iter()
            .flatten()
            .map(|p| p.index() + 1)
            .max()
            .unwrap_or(0);
        let (member_start, member) =
            bucket_nodes(part_count, node_count, |v| assignment[v].map(PartId::index));
        if let Some(i) = member_start.windows(2).position(|w| w[0] == w[1]) {
            return Err(GraphError::EmptyPart {
                part: PartId::new(i),
            });
        }
        Ok(Partition {
            part_of: assignment,
            member_start,
            member,
        })
    }

    /// Builds the trivial partition in which every node is its own part
    /// (the starting point of Boruvka's algorithm).
    pub fn singletons(graph: &Graph) -> Self {
        let assignment = (0..graph.node_count())
            .map(|v| Some(PartId::new(v)))
            .collect();
        Partition::from_assignment(graph.node_count(), assignment)
            .expect("singleton assignment is dense and nonempty")
    }

    /// Number of parts `N`.
    pub fn part_count(&self) -> usize {
        self.member_start.len() - 1
    }

    /// Number of nodes the partition was defined over.
    pub fn node_count(&self) -> usize {
        self.part_of.len()
    }

    /// The part containing `v`, or `None` if `v` belongs to no part.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn part_of(&self, v: NodeId) -> Option<PartId> {
        self.part_of[v.index()]
    }

    /// Members of part `p`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn members(&self, p: PartId) -> &[NodeId] {
        &self.member
            [self.member_start[p.index()] as usize..self.member_start[p.index() + 1] as usize]
    }

    /// Iterator over all part ids.
    pub fn parts(&self) -> impl Iterator<Item = PartId> + '_ {
        (0..self.part_count()).map(PartId::new)
    }

    /// Number of nodes assigned to some part.
    pub fn assigned_count(&self) -> usize {
        self.part_of.iter().flatten().count()
    }

    /// Size of the largest part.
    pub fn max_part_size(&self) -> usize {
        self.member_start
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Validates the partition against a graph: every part must be nonempty
    /// and induce a connected subgraph, and the assignment must be
    /// consistent with the member lists.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::PartNotConnected`] for the first disconnected
    /// part found, or [`GraphError::NodeOutOfRange`] if the partition was
    /// built for a different node count.
    pub fn validate(&self, graph: &Graph) -> Result<()> {
        if self.part_of.len() != graph.node_count() {
            return Err(GraphError::NodeOutOfRange {
                node: NodeId::new(self.part_of.len().saturating_sub(1)),
                node_count: graph.node_count(),
            });
        }
        for p in self.parts() {
            if self.members(p).is_empty() {
                return Err(GraphError::EmptyPart { part: p });
            }
            if !induces_connected_subgraph(graph, self.members(p)) {
                return Err(GraphError::PartNotConnected { part: p });
            }
        }
        Ok(())
    }

    /// Diameter of the induced subgraph `G[P_i]` (the "part diameter" the
    /// paper's introduction is concerned with).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or the part is not connected in
    /// `graph`.
    pub fn part_diameter(&self, graph: &Graph, p: PartId) -> u32 {
        let members = self.members(p);
        let mut in_part = vec![false; graph.node_count()];
        for &v in members {
            in_part[v.index()] = true;
        }
        let mut diameter = 0;
        for &v in members {
            let r = bfs_filtered(graph, v, |u| in_part[u.index()]);
            for &u in members {
                match r.dist[u.index()] {
                    Some(d) => diameter = diameter.max(d),
                    None => panic!("part {p} is not connected in the given graph"),
                }
            }
        }
        diameter
    }

    /// The largest part diameter over all parts.
    pub fn max_part_diameter(&self, graph: &Graph) -> u32 {
        self.parts()
            .map(|p| self.part_diameter(graph, p))
            .max()
            .unwrap_or(0)
    }
}

/// Incremental builder for [`Partition`].
///
/// # Example
///
/// ```
/// use lcs_graph::{generators, NodeId, PartitionBuilder};
///
/// let graph = generators::path(4);
/// let mut b = PartitionBuilder::new(graph.node_count());
/// b.add_part(vec![NodeId::new(0), NodeId::new(1)]).unwrap();
/// b.add_part(vec![NodeId::new(3)]).unwrap();
/// let partition = b.build();
/// assert_eq!(partition.part_count(), 2);
/// assert_eq!(partition.part_of(NodeId::new(2)), None);
/// partition.validate(&graph).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct PartitionBuilder {
    node_count: usize,
    assignment: Vec<Option<PartId>>,
    next_part: usize,
}

impl PartitionBuilder {
    /// Creates a builder for a graph with `node_count` nodes and no parts.
    pub fn new(node_count: usize) -> Self {
        PartitionBuilder {
            node_count,
            assignment: vec![None; node_count],
            next_part: 0,
        }
    }

    /// Adds a new part with the given members and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyPart`] if `members` is empty,
    /// [`GraphError::NodeOutOfRange`] if a member does not exist, and
    /// [`GraphError::OverlappingParts`] if a member already belongs to a
    /// part.
    pub fn add_part(&mut self, members: Vec<NodeId>) -> Result<PartId> {
        let part = PartId::new(self.next_part);
        if members.is_empty() {
            return Err(GraphError::EmptyPart { part });
        }
        for &v in &members {
            if v.index() >= self.node_count {
                return Err(GraphError::NodeOutOfRange {
                    node: v,
                    node_count: self.node_count,
                });
            }
            if let Some(first) = self.assignment[v.index()] {
                return Err(GraphError::OverlappingParts {
                    node: v,
                    first,
                    second: part,
                });
            }
        }
        for &v in &members {
            self.assignment[v.index()] = Some(part);
        }
        self.next_part += 1;
        Ok(part)
    }

    /// Finalizes the builder.
    pub fn build(self) -> Partition {
        Partition::from_assignment(self.node_count, self.assignment)
            .expect("builder assigns parts densely")
    }
}

/// Grows `num_parts` parts by multi-source BFS from the given seed nodes.
/// Every node ends up in exactly one part (the one whose BFS wave reached it
/// first, ties broken by part id); each part is connected by construction.
///
/// # Panics
///
/// Panics if `seeds` is empty, contains duplicates, or references nodes out
/// of range.
pub fn bfs_ball_partition(graph: &Graph, seeds: &[NodeId]) -> Partition {
    assert!(!seeds.is_empty(), "at least one seed is required");
    let n = graph.node_count();
    let mut part_of: Vec<Option<PartId>> = vec![None; n];
    let mut queue = VecDeque::new();
    for (i, &s) in seeds.iter().enumerate() {
        assert!(s.index() < n, "seed {s} out of range");
        assert!(part_of[s.index()].is_none(), "duplicate seed {s}");
        part_of[s.index()] = Some(PartId::new(i));
        queue.push_back(s);
    }
    while let Some(u) = queue.pop_front() {
        let part = part_of[u.index()];
        for (v, _) in graph.neighbors(u) {
            if part_of[v.index()].is_none() {
                part_of[v.index()] = part;
                queue.push_back(v);
            }
        }
    }
    Partition::from_assignment(n, part_of).expect("every seed claims at least itself")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn singleton_partition_covers_every_node() {
        let g = generators::grid(3, 3);
        let p = Partition::singletons(&g);
        assert_eq!(p.part_count(), 9);
        assert_eq!(p.assigned_count(), 9);
        assert_eq!(p.max_part_size(), 1);
        p.validate(&g).unwrap();
        for v in g.nodes() {
            assert_eq!(p.part_of(v), Some(PartId::new(v.index())));
            assert_eq!(p.members(PartId::new(v.index())), &[v]);
        }
    }

    #[test]
    fn builder_detects_overlap_and_empty_parts() {
        let mut b = PartitionBuilder::new(4);
        b.add_part(vec![NodeId::new(0), NodeId::new(1)]).unwrap();
        let err = b.add_part(vec![NodeId::new(1)]).unwrap_err();
        assert!(matches!(err, GraphError::OverlappingParts { .. }));
        let err = b.add_part(vec![]).unwrap_err();
        assert!(matches!(err, GraphError::EmptyPart { .. }));
        let err = b.add_part(vec![NodeId::new(9)]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { .. }));
    }

    #[test]
    fn validation_rejects_disconnected_part() {
        let g = generators::path(5);
        let mut b = PartitionBuilder::new(5);
        // Nodes 0 and 4 are not adjacent in the path: disconnected part.
        b.add_part(vec![NodeId::new(0), NodeId::new(4)]).unwrap();
        let p = b.build();
        assert_eq!(
            p.validate(&g).unwrap_err(),
            GraphError::PartNotConnected {
                part: PartId::new(0)
            }
        );
    }

    #[test]
    fn part_diameter_is_induced_not_ambient() {
        // On a cycle of 8 nodes, the arc {0,1,2,3} has induced diameter 3
        // even though in the full cycle node 0 and node 3 are 3 apart too;
        // but the arc {7,0,1} has induced diameter 2 while using the whole
        // cycle it would also be 2. Use a wheel to get a real difference:
        // spokes shorten ambient distances but are not inside the part.
        let g = generators::wheel(10);
        let arcs = generators::partitions::wheel_arcs(10, 3);
        arcs.validate(&g).unwrap();
        let d0 = arcs.part_diameter(&g, PartId::new(0));
        // Ambient diameter of the wheel is 2; the arc's induced diameter is
        // its length.
        assert!(d0 >= 2);
        assert!(arcs.max_part_diameter(&g) >= 2);
    }

    #[test]
    fn from_assignment_rejects_skipped_part_ids() {
        // Part 1 referenced but part 0 never used.
        let assignment = vec![Some(PartId::new(1)), None];
        let err = Partition::from_assignment(2, assignment).unwrap_err();
        assert_eq!(
            err,
            GraphError::EmptyPart {
                part: PartId::new(0)
            }
        );
    }

    #[test]
    fn bfs_ball_partition_covers_graph_with_connected_parts() {
        let g = generators::grid(8, 8);
        let seeds = vec![NodeId::new(0), NodeId::new(63), NodeId::new(28)];
        let p = bfs_ball_partition(&g, &seeds);
        assert_eq!(p.part_count(), 3);
        assert_eq!(p.assigned_count(), 64);
        p.validate(&g).unwrap();
    }

    #[test]
    #[should_panic(expected = "duplicate seed")]
    fn bfs_ball_partition_rejects_duplicate_seeds() {
        let g = generators::grid(2, 2);
        bfs_ball_partition(&g, &[NodeId::new(0), NodeId::new(0)]);
    }

    #[test]
    fn partition_mismatched_with_graph_fails_validation() {
        let g5 = generators::path(5);
        let g3 = generators::path(3);
        let p = Partition::singletons(&g5);
        assert!(p.validate(&g3).is_err());
    }
}
