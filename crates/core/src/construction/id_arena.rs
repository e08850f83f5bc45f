//! The bottom-up part-id lists shared by `CoreSlow` and `CoreFast`.
//!
//! CoreSlow's `L_v`, CoreFast's sampled lists (phase 1) and CoreFast's
//! final id sets (what phase 2 delivers) are one computation: a node's
//! sorted, deduplicated union of its own part id, when that part takes
//! part, and its children's lists over usable child edges. CoreSlow and
//! phase 1 additionally cap the list and declare the node's parent edge
//! unusable when it is too long.
//!
//! All lists of one call live in a single `Vec<PartId>`, each node owning a
//! `(start, len)` span of it. A node whose parent edge is (or becomes)
//! unusable gives its span back at once, since no parent ever reads it, and
//! the root computes no list at all.

use lcs_graph::{Graph, NodeId, PartId, Partition, RootedTree};

use crate::tree_restricted::{dedup_sorted, to_u32};
use crate::TreeShortcut;

pub(crate) struct IdArena {
    ids: Vec<PartId>,
    /// `(start, len)` of each node's list in `ids`; empty for the root and
    /// for nodes whose parent edge is unusable.
    spans: Vec<(u32, u32)>,
}

impl IdArena {
    /// Builds every non-root node's list, deepest nodes first.
    ///
    /// `takes_part(p)` says whether a member of part `p` contributes its own
    /// id. Once a node's list is complete, `keep(v, len)` decides whether
    /// `v`'s parent edge stays usable; returning `false` marks the edge in
    /// `unusable` and drops the list. Nodes whose parent edge is already
    /// unusable on entry are skipped.
    pub(crate) fn bottom_up(
        tree: &RootedTree,
        partition: &Partition,
        unusable: &mut [bool],
        takes_part: impl Fn(PartId) -> bool,
        mut keep: impl FnMut(NodeId, usize) -> bool,
    ) -> Self {
        let n = tree.node_count();
        let mut ids: Vec<PartId> = Vec::with_capacity(n);
        let mut spans = vec![(0u32, 0u32); n];
        for &v in tree.nodes_bottom_up() {
            let Some(parent_edge) = tree.parent_edge(v) else {
                continue;
            };
            if unusable[parent_edge.index()] {
                continue;
            }
            let start = ids.len();
            if let Some(p) = partition.part_of(v) {
                if takes_part(p) {
                    ids.push(p);
                }
            }
            for &child in tree.children(v) {
                let child_edge = tree.parent_edge(child).expect("children have parent edges");
                if !unusable[child_edge.index()] {
                    let (s, len) = spans[child.index()];
                    ids.extend_from_within(s as usize..(s + len) as usize);
                }
            }
            ids[start..].sort_unstable();
            let len = dedup_sorted(&mut ids[start..]);
            if keep(v, len) {
                ids.truncate(start + len);
                spans[v.index()] = (to_u32(start), to_u32(len));
            } else {
                unusable[parent_edge.index()] = true;
                ids.truncate(start);
            }
        }
        IdArena { ids, spans }
    }

    /// The list of `v` (empty for the root and for dropped nodes).
    pub(crate) fn ids(&self, v: NodeId) -> &[PartId] {
        let (start, len) = self.spans[v.index()];
        &self.ids[start as usize..(start + len) as usize]
    }

    /// The shortcut that assigns every node's parent edge to the parts of
    /// its list. Its per-edge side is laid out straight from the spans:
    /// edge `e`'s slice is the list of `e`'s lower endpoint.
    pub(crate) fn shortcut(
        &self,
        graph: &Graph,
        tree: &RootedTree,
        partition: &Partition,
    ) -> TreeShortcut {
        let lists = || {
            graph.nodes().filter_map(|v| {
                let ids = self.ids(v);
                let e = tree.parent_edge(v)?;
                (!ids.is_empty()).then_some((e, ids))
            })
        };
        let mut edge_start = vec![0u32; graph.edge_count() + 1];
        for (e, ids) in lists() {
            edge_start[e.index() + 1] = to_u32(ids.len());
        }
        for i in 1..edge_start.len() {
            edge_start[i] += edge_start[i - 1];
        }
        debug_assert_eq!(edge_start[graph.edge_count()] as usize, self.ids.len());
        let mut edge_part = vec![PartId::default(); self.ids.len()];
        for (e, ids) in lists() {
            edge_part[edge_start[e.index()] as usize..edge_start[e.index() + 1] as usize]
                .copy_from_slice(ids);
        }
        TreeShortcut::from_edge_csr(partition.part_count(), edge_start, edge_part)
    }
}
