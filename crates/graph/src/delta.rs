//! Incremental partition edits: [`PartitionDelta`] and the origin map.
//!
//! A delta is a sequence of edit ops (move nodes, split, merge) applied to
//! a [`Partition`]. [`Partition::apply`] validates every op against the
//! intermediate state and produces the edited partition;
//! [`Partition::apply_tracked`] additionally reports, for every new part
//! whose member set the delta left unchanged, the old part it descends
//! from — the origin map an incremental repair uses to reuse cached
//! per-part state verbatim. A part's induced edge set is a function of its
//! member set, so an unchanged part keeps its induced edges too.
//!
//! Part ids are positional: absorbing a part renumbers the last part into
//! the freed id (swap-remove), exactly like `Vec::swap_remove`.
//! Renumbering alone does not edit a part — its member set is untouched —
//! which is why the origin map, not id equality, is the reuse criterion.
//!
//! All structural violations (out-of-range ids, moving a node that is not
//! where the op claims, emptying a part by moving or splitting) surface as
//! typed [`LcsError::Config`] errors, and so does a tracked delta that
//! leaves an edited part disconnected; nothing is applied partially.

use crate::traversal::induces_connected_subgraph;
use crate::{Graph, LcsError, LcsResult, NodeId, PartId, Partition};

/// One edit op of a [`PartitionDelta`]. Ops apply sequentially; part ids
/// refer to the intermediate partition produced by the preceding ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Move each node to part `to` (from whatever part currently holds it).
    MoveNodes {
        /// The nodes to move; each must currently belong to some part
        /// other than `to`.
        nodes: Vec<NodeId>,
        /// The destination part.
        to: PartId,
    },
    /// Carve `nodes` out of `part` into a new part appended at the end.
    SplitPart {
        /// The part to split.
        part: PartId,
        /// The members to carve out (a proper, nonempty subset).
        nodes: Vec<NodeId>,
    },
    /// Absorb every member of `absorb` into `keep`, removing `absorb`
    /// (the last part is renumbered into the freed id).
    MergeParts {
        /// The surviving part.
        keep: PartId,
        /// The part dissolved into `keep`.
        absorb: PartId,
    },
}

/// An ordered sequence of [`DeltaOp`]s to apply to a [`Partition`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionDelta {
    ops: Vec<DeltaOp>,
}

impl PartitionDelta {
    /// The empty delta (applying it reproduces the partition unchanged).
    pub fn new() -> Self {
        PartitionDelta::default()
    }

    /// Appends a [`DeltaOp::MoveNodes`] op (builder style).
    pub fn move_nodes(mut self, nodes: Vec<NodeId>, to: PartId) -> Self {
        self.ops.push(DeltaOp::MoveNodes { nodes, to });
        self
    }

    /// Appends a [`DeltaOp::SplitPart`] op (builder style).
    pub fn split_part(mut self, part: PartId, nodes: Vec<NodeId>) -> Self {
        self.ops.push(DeltaOp::SplitPart { part, nodes });
        self
    }

    /// Appends a [`DeltaOp::MergeParts`] op (builder style).
    pub fn merge_parts(mut self, keep: PartId, absorb: PartId) -> Self {
        self.ops.push(DeltaOp::MergeParts { keep, absorb });
        self
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the delta contains no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The result of [`Partition::apply_tracked`]: the edited partition plus
/// the origin map an incremental repair reuses parts by.
#[derive(Debug, Clone)]
pub struct AppliedDelta {
    /// The edited partition.
    pub partition: Partition,
    /// `origin[p]` — the old part whose member set new part `p` carries
    /// unchanged (reusable verbatim), or `None` if the delta edited or
    /// created `p`, so it must be rebuilt.
    pub origin: Vec<Option<PartId>>,
}

/// Working state of the apply engine: the intermediate partition plus the
/// per-part origin tracked through swap-remove renumbering.
struct ApplyState {
    part_of: Vec<Option<PartId>>,
    members: Vec<Vec<NodeId>>,
    /// The old part this slot still mirrors member-for-member; `None` once
    /// the slot gains or loses a member, and for a split's new slot.
    origin: Vec<Option<PartId>>,
}

impl ApplyState {
    fn of(partition: &Partition) -> Self {
        let n = partition.node_count();
        ApplyState {
            part_of: (0..n).map(|v| partition.part_of(NodeId::new(v))).collect(),
            members: partition
                .parts()
                .map(|p| partition.members(p).to_vec())
                .collect(),
            origin: partition.parts().map(Some).collect(),
        }
    }

    fn config(reason: String) -> LcsError {
        LcsError::Config { reason }
    }

    fn check_part(&self, p: PartId, role: &str) -> LcsResult<()> {
        if p.index() >= self.members.len() {
            return Err(Self::config(format!(
                "delta references {role} part {p} but the partition has {} parts",
                self.members.len()
            )));
        }
        Ok(())
    }

    fn check_node(&self, v: NodeId) -> LcsResult<()> {
        if v.index() >= self.part_of.len() {
            return Err(Self::config(format!(
                "delta references node {v} but the partition covers {} nodes",
                self.part_of.len()
            )));
        }
        Ok(())
    }

    /// Marks slot `p` edited: it no longer mirrors any old part.
    fn touch(&mut self, p: PartId) {
        self.origin[p.index()] = None;
    }

    /// Detaches `v` from `members[src]` (linear scan — delta node lists are
    /// tiny compared to the parts they edit).
    fn detach(&mut self, v: NodeId, src: PartId) {
        let list = &mut self.members[src.index()];
        let pos = list.iter().position(|&u| u == v).expect("member is listed");
        list.remove(pos);
    }

    /// Removes part slot `p` by swap-remove, renumbering the former last
    /// part into `p`. The renumbered part keeps its origin — an id change
    /// alone is not an edit.
    fn swap_remove_part(&mut self, p: PartId) {
        let last = self.members.len() - 1;
        self.members.swap_remove(p.index());
        self.origin.swap_remove(p.index());
        if p.index() != last {
            for &v in &self.members[p.index()] {
                self.part_of[v.index()] = Some(p);
            }
        }
    }

    fn apply_op(&mut self, op: &DeltaOp) -> LcsResult<()> {
        match op {
            DeltaOp::MoveNodes { nodes, to } => {
                if nodes.is_empty() {
                    return Err(Self::config("MoveNodes with an empty node list".into()));
                }
                self.check_part(*to, "destination")?;
                for &v in nodes {
                    self.check_node(v)?;
                    let src = self.part_of[v.index()].ok_or_else(|| {
                        Self::config(format!("MoveNodes: node {v} belongs to no part"))
                    })?;
                    if src == *to {
                        return Err(Self::config(format!(
                            "MoveNodes: node {v} is already in part {to}"
                        )));
                    }
                    self.detach(v, src);
                    self.members[to.index()].push(v);
                    self.part_of[v.index()] = Some(*to);
                    self.touch(src);
                    self.touch(*to);
                    if self.members[src.index()].is_empty() {
                        return Err(Self::config(format!(
                            "MoveNodes would empty part {src}; use MergeParts"
                        )));
                    }
                }
            }
            DeltaOp::SplitPart { part, nodes } => {
                if nodes.is_empty() {
                    return Err(Self::config("SplitPart with an empty node list".into()));
                }
                self.check_part(*part, "split")?;
                let new_part = PartId::new(self.members.len());
                self.members.push(Vec::with_capacity(nodes.len()));
                self.origin.push(None);
                for &v in nodes {
                    self.check_node(v)?;
                    if self.part_of[v.index()] != Some(*part) {
                        return Err(Self::config(format!(
                            "SplitPart: node {v} is not a member of part {part}"
                        )));
                    }
                    self.detach(v, *part);
                    self.members[new_part.index()].push(v);
                    self.part_of[v.index()] = Some(new_part);
                }
                self.touch(*part);
                if self.members[part.index()].is_empty() {
                    return Err(Self::config(format!(
                        "SplitPart would take every member of part {part}; use SplitPart \
                         with a proper subset or rename via MergeParts"
                    )));
                }
            }
            DeltaOp::MergeParts { keep, absorb } => {
                self.check_part(*keep, "keep")?;
                self.check_part(*absorb, "absorb")?;
                if keep == absorb {
                    return Err(Self::config(format!(
                        "MergeParts: keep and absorb are both part {keep}"
                    )));
                }
                let absorbed = std::mem::take(&mut self.members[absorb.index()]);
                for &v in &absorbed {
                    self.part_of[v.index()] = Some(*keep);
                }
                self.members[keep.index()].extend(absorbed);
                self.touch(*keep);
                self.swap_remove_part(*absorb);
            }
        }
        Ok(())
    }

    fn run(partition: &Partition, delta: &PartitionDelta) -> LcsResult<ApplyState> {
        let mut state = ApplyState::of(partition);
        for op in delta.ops() {
            state.apply_op(op)?;
        }
        Ok(state)
    }

    fn into_partition(self) -> Partition {
        Partition::from_assignment(self.part_of.len(), self.part_of)
            .expect("the apply engine keeps every part nonempty and densely numbered")
    }
}

impl Partition {
    /// Applies `delta` and returns the edited partition. Structure only:
    /// connectivity is checked by [`Partition::apply_tracked`] for the
    /// parts a delta edits and by [`Partition::validate`] for any
    /// partition.
    ///
    /// # Errors
    ///
    /// [`LcsError::Config`] for any structurally invalid op: out-of-range
    /// node or part ids, moving a node that is not where the op claims,
    /// merging a part with itself, empty node lists, and any op that would
    /// leave a part with no members.
    pub fn apply(&self, delta: &PartitionDelta) -> LcsResult<Partition> {
        Ok(ApplyState::run(self, delta)?.into_partition())
    }

    /// [`Partition::apply`] plus the origin map: which old part each new
    /// part mirrors member-for-member, `None` for every part the delta
    /// edited or created. Each `None` part must induce a connected
    /// subgraph of `graph` (one BFS per edited part); unedited parts keep
    /// the member sets they had.
    ///
    /// # Errors
    ///
    /// The [`LcsError::Config`] errors of [`Partition::apply`], a
    /// [`LcsError::Config`] naming the first edited part left
    /// disconnected, and [`LcsError::InconsistentInputs`] if `graph`
    /// covers a different node count than the partition.
    pub fn apply_tracked(&self, graph: &Graph, delta: &PartitionDelta) -> LcsResult<AppliedDelta> {
        if graph.node_count() != self.node_count() {
            return Err(LcsError::InconsistentInputs {
                reason: format!(
                    "partition defined over {} nodes but the graph has {}",
                    self.node_count(),
                    graph.node_count()
                ),
            });
        }
        let mut state = ApplyState::run(self, delta)?;
        for (i, members) in state.members.iter().enumerate() {
            if state.origin[i].is_none() && !induces_connected_subgraph(graph, members) {
                return Err(ApplyState::config(format!(
                    "the delta leaves part {} disconnected",
                    PartId::new(i)
                )));
            }
        }
        let origin = std::mem::take(&mut state.origin);
        Ok(AppliedDelta {
            partition: state.into_partition(),
            origin,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn columns() -> (Graph, Partition) {
        (
            generators::grid(4, 4),
            generators::partitions::grid_columns(4, 4),
        )
    }

    fn assert_config(err: LcsError, needle: &str) {
        match err {
            LcsError::Config { reason } => {
                assert!(
                    reason.contains(needle),
                    "reason {reason:?} lacks {needle:?}"
                )
            }
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn move_nodes_reassigns_and_dirties_both_parts() {
        let (g, p) = columns();
        // Node 1 sits in column 1; move it to column 0 (they are adjacent).
        let delta = PartitionDelta::new().move_nodes(vec![NodeId::new(1)], PartId::new(0));
        let applied = p.apply_tracked(&g, &delta).unwrap();
        assert_eq!(
            applied.partition.part_of(NodeId::new(1)),
            Some(PartId::new(0))
        );
        assert_eq!(applied.partition.part_count(), 4);
        assert_eq!(applied.origin[0], None);
        assert_eq!(applied.origin[1], None);
        assert_eq!(applied.origin[2], Some(PartId::new(2)));
        assert_eq!(applied.origin[3], Some(PartId::new(3)));
        assert_eq!(p.apply(&delta).unwrap(), applied.partition);
    }

    #[test]
    fn split_appends_a_new_part() {
        let (g, p) = columns();
        // Column 2 holds nodes 2, 6, 10, 14; carve off its lower half.
        let delta = PartitionDelta::new()
            .split_part(PartId::new(2), vec![NodeId::new(10), NodeId::new(14)]);
        let applied = p.apply_tracked(&g, &delta).unwrap();
        assert_eq!(applied.partition.part_count(), 5);
        assert_eq!(
            applied.partition.members(PartId::new(4)),
            &[NodeId::new(10), NodeId::new(14)]
        );
        assert_eq!(applied.origin[2], None);
        assert_eq!(applied.origin[4], None);
        applied.partition.validate(&g).unwrap();
    }

    #[test]
    fn merge_renumbers_the_last_part_into_the_freed_slot() {
        let (g, p) = columns();
        let delta = PartitionDelta::new().merge_parts(PartId::new(0), PartId::new(1));
        let applied = p.apply_tracked(&g, &delta).unwrap();
        assert_eq!(applied.partition.part_count(), 3);
        // Old part 3 now answers to id 1, member set untouched: clean.
        assert_eq!(applied.origin[1], Some(PartId::new(3)));
        assert_eq!(
            applied.partition.members(PartId::new(1)),
            p.members(PartId::new(3))
        );
        assert_eq!(applied.origin[0], None);
        applied.partition.validate(&g).unwrap();
    }

    #[test]
    fn ops_compose_sequentially_over_the_intermediate_state() {
        let (g, p) = columns();
        // Split column 0, then merge the new piece into column 1: only the
        // ids valid at each step may be referenced.
        let delta = PartitionDelta::new()
            .split_part(PartId::new(0), vec![NodeId::new(12)])
            .merge_parts(PartId::new(1), PartId::new(4));
        let applied = p.apply_tracked(&g, &delta).unwrap();
        assert_eq!(applied.partition.part_count(), 4);
        assert_eq!(
            applied.partition.part_of(NodeId::new(12)),
            Some(PartId::new(1))
        );
        assert_eq!(applied.origin[0], None);
        assert_eq!(applied.origin[1], None);
    }

    #[test]
    fn emptying_moves_and_splits_are_rejected() {
        let g = generators::path(4);
        let mut b = crate::PartitionBuilder::new(4);
        b.add_part(vec![NodeId::new(0)]).unwrap();
        b.add_part(vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)])
            .unwrap();
        let p = b.build();
        let drain = PartitionDelta::new().move_nodes(vec![NodeId::new(0)], PartId::new(1));
        assert_config(p.apply(&drain).unwrap_err(), "would empty part");
        let _ = g;
        let take_all = PartitionDelta::new().split_part(
            PartId::new(1),
            vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)],
        );
        assert_config(p.apply(&take_all).unwrap_err(), "every member");
    }

    #[test]
    fn invalid_ops_are_typed_config_errors() {
        let (_, p) = columns();
        for (delta, needle) in [
            (
                PartitionDelta::new().move_nodes(vec![], PartId::new(0)),
                "empty node list",
            ),
            (
                PartitionDelta::new().move_nodes(vec![NodeId::new(99)], PartId::new(0)),
                "node v99",
            ),
            (
                PartitionDelta::new().move_nodes(vec![NodeId::new(0)], PartId::new(9)),
                "destination part",
            ),
            (
                PartitionDelta::new().move_nodes(vec![NodeId::new(0)], PartId::new(0)),
                "already in part",
            ),
            (
                PartitionDelta::new().split_part(PartId::new(0), vec![NodeId::new(1)]),
                "not a member",
            ),
            (
                PartitionDelta::new().split_part(PartId::new(7), vec![NodeId::new(0)]),
                "split part",
            ),
            (
                PartitionDelta::new().merge_parts(PartId::new(2), PartId::new(2)),
                "both part",
            ),
            (
                PartitionDelta::new().merge_parts(PartId::new(0), PartId::new(9)),
                "absorb part",
            ),
        ] {
            assert_config(p.apply(&delta).unwrap_err(), needle);
        }
    }

    #[test]
    fn unassigned_nodes_cannot_be_moved() {
        let g = generators::path(3);
        let mut b = crate::PartitionBuilder::new(3);
        b.add_part(vec![NodeId::new(0), NodeId::new(1)]).unwrap();
        let p = b.build();
        let _ = g;
        let delta = PartitionDelta::new().move_nodes(vec![NodeId::new(2)], PartId::new(0));
        assert_config(p.apply(&delta).unwrap_err(), "belongs to no part");
    }

    #[test]
    fn empty_delta_keeps_everything_clean() {
        let (g, p) = columns();
        let applied = p.apply_tracked(&g, &PartitionDelta::new()).unwrap();
        assert_eq!(applied.partition, p);
        for (i, o) in applied.origin.iter().enumerate() {
            assert_eq!(*o, Some(PartId::new(i)));
        }
    }

    #[test]
    fn dirty_closure_covers_every_part_with_changed_induced_edges() {
        let (g, p) = columns();
        let delta = PartitionDelta::new().move_nodes(vec![NodeId::new(1)], PartId::new(2));
        let applied = p.apply_tracked(&g, &delta).unwrap();
        // Exhaustive cross-check: recompute each part's induced edge set
        // before and after; any changed part must have lost its origin.
        for part in applied.partition.parts() {
            let induced_after: Vec<_> = g
                .edges()
                .filter(|(_, e)| {
                    applied.partition.part_of(e.u) == Some(part)
                        && applied.partition.part_of(e.v) == Some(part)
                })
                .map(|(id, _)| id)
                .collect();
            let induced_before: Vec<_> = match applied.origin[part.index()] {
                Some(old) => g
                    .edges()
                    .filter(|(_, e)| p.part_of(e.u) == Some(old) && p.part_of(e.v) == Some(old))
                    .map(|(id, _)| id)
                    .collect(),
                None => continue,
            };
            assert_eq!(
                induced_before, induced_after,
                "reused part {part} changed its induced edges"
            );
        }
    }

    #[test]
    fn a_delta_that_disconnects_a_part_is_rejected() {
        let (g, p) = columns();
        // Node 5 links column 1's top node 1 to the rest of the column.
        let delta = PartitionDelta::new().move_nodes(vec![NodeId::new(5)], PartId::new(0));
        assert_config(
            p.apply_tracked(&g, &delta).unwrap_err(),
            "leaves part P1 disconnected",
        );
        // `apply` checks structure only.
        assert!(p.apply(&delta).unwrap().validate(&g).is_err());
    }
}
