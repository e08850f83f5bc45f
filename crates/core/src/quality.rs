//! Quality measurement of tree-restricted shortcuts: congestion,
//! dilation, and their shared workspaces.
//!
//! The measurement routines are written for the scale tier: the BFS scratch
//! (distance array, queue, allowed-node/edge marks, eccentricity bounds)
//! lives in a [`QualityWorkspace`] that is allocated once per measurement
//! and reused across every part and every BFS source, with epoch stamps
//! standing in for `O(n)` clears. The per-part shortcut edge sets are taken
//! as slices (a [`crate::TreeShortcut`] stores them sorted and
//! deduplicated), so measuring never copies an edge set.
//!
//! Dilation is exact but does not run a BFS from every subgraph node: each
//! part's diameter comes from a bounded sweep that keeps per-node
//! eccentricity bounds and stops once no remaining node can raise the max
//! over parts (see [`QualityWorkspace::part_diameter`]).

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use lcs_graph::{EdgeId, Graph, NodeId, PartId, Partition};

/// Summary of the measured quality of a shortcut with respect to a graph
/// and partition.
///
/// * `congestion` — maximum number of subgraphs `G[P_i] + H_i` sharing one
///   edge (Definition 1(i)),
/// * `dilation` — maximum diameter of a subgraph `G[P_i] + H_i`
///   (Definition 1(ii)),
/// * `block_parameter` — maximum number of block components of any `H_i`
///   (Definition 3); only meaningful for tree-restricted shortcuts and `0`
///   when not measured,
/// * `per_part_blocks` — the individual block-component counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortcutQuality {
    /// Measured congestion.
    pub congestion: usize,
    /// Measured dilation.
    pub dilation: u32,
    /// Measured block parameter (0 if not applicable).
    pub block_parameter: usize,
    /// Block-component count per part (empty if not applicable).
    pub per_part_blocks: Vec<usize>,
}

impl ShortcutQuality {
    /// Checks Lemma 1: `dilation ≤ block_parameter · (2 · depth + 1)` for a
    /// tree of the given depth. Returns `true` when the inequality holds
    /// (or when the block parameter was not measured).
    pub fn satisfies_lemma1(&self, tree_depth: u32) -> bool {
        if self.block_parameter == 0 {
            return true;
        }
        u64::from(self.dilation) <= self.block_parameter as u64 * (2 * u64::from(tree_depth) + 1)
    }
}

/// Per-worker scratch of a [`QualityPool`]: the BFS workspace plus the
/// counter/stamp arrays of the congestion pass.
struct WorkerScratch {
    ws: QualityWorkspace,
    users: Vec<u32>,
    last_part: Vec<u32>,
}

impl WorkerScratch {
    fn new(graph: &Graph) -> Self {
        WorkerScratch {
            ws: QualityWorkspace::new(graph),
            users: vec![0; graph.edge_count()],
            last_part: vec![0; graph.edge_count()],
        }
    }
}

/// Reusable scratch for repeated quality measurements over one graph.
///
/// A pool is sized once — for a graph and a worker-thread count — and then
/// serves any number of [`crate::TreeShortcut::quality_with`] calls (and
/// the crate-internal congestion/dilation passes) without allocating: the
/// BFS workspaces are epoch-stamped (moving to the next part or query is a
/// counter bump), and the congestion counters are `O(m)` fills of arrays
/// that already exist. This is the state a serving `Session` (the
/// `lcs_api` façade) keeps warm across queries; the partition and shortcut
/// may differ from call to call, only the graph is fixed.
pub struct QualityPool {
    threads: usize,
    node_count: usize,
    edge_count: usize,
    /// One scratch per worker; index 0 doubles as the serial scratch.
    scratches: Vec<WorkerScratch>,
    /// `users[e]` accumulator of the congestion pass (also holds the
    /// induced-edge base counts).
    users: Vec<u32>,
    /// The part an edge is induced in (`u32::MAX` = none); per-query
    /// content, allocated once.
    induced_part: Vec<u32>,
}

impl QualityPool {
    /// Creates a pool for `graph` with `threads` workers (clamped to at
    /// least 1). The pool is only valid for graphs with the same node and
    /// edge counts as `graph` (checked at measurement time).
    pub fn new(graph: &Graph, threads: usize) -> Self {
        let threads = threads.max(1);
        QualityPool {
            threads,
            node_count: graph.node_count(),
            edge_count: graph.edge_count(),
            scratches: (0..threads).map(|_| WorkerScratch::new(graph)).collect(),
            users: vec![0; graph.edge_count()],
            induced_part: vec![u32::MAX; graph.edge_count()],
        }
    }

    /// The worker-thread count the pool was sized for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The primary BFS workspace (serial sweeps share this one scratch).
    pub(crate) fn primary(&mut self) -> &mut QualityWorkspace {
        &mut self.scratches[0].ws
    }

    fn assert_graph(&self, graph: &Graph) {
        assert_eq!(
            (self.node_count, self.edge_count),
            (graph.node_count(), graph.edge_count()),
            "QualityPool was sized for a different graph"
        );
    }
}

/// Computes congestion: for every edge, the number of parts `i` such that
/// the edge lies in `G[P_i] + H_i`. The per-part shortcut edge sets are
/// supplied by the `edges_of` accessor (a borrowed slice — no copy), so
/// tests can measure hand-built edge sets too. Repeated edges within
/// one part's slice are counted once (a per-edge part stamp, no sorting).
/// Runs in `O(m + Σ|H_i|)` work; with more than one pool worker the
/// per-part pass is split over contiguous part ranges on scoped workers
/// (each with its own stamp and counter arrays, merged by summation —
/// per-edge use counts are sums of per-part indicators, so the split
/// cannot change the result).
pub(crate) fn congestion_with<'a, F>(
    graph: &Graph,
    partition: &Partition,
    edges_of: F,
    pool: &mut QualityPool,
) -> usize
where
    F: Fn(PartId) -> &'a [EdgeId] + Sync,
{
    pool.assert_graph(graph);
    // users[e] = number of distinct parts using edge e. A part uses e either
    // because e ∈ H_i or because both endpoints of e lie in P_i; count each
    // part at most once per edge.
    let users = &mut pool.users;
    users.fill(0);
    // The part an edge is induced in (u32::MAX = none) — computed once,
    // reused by every worker.
    let induced_part = &mut pool.induced_part;
    induced_part.fill(u32::MAX);
    for (e, edge) in graph.edges() {
        if let Some(pu) = partition.part_of(edge.u) {
            if Some(pu) == partition.part_of(edge.v) {
                users[e.index()] += 1;
                induced_part[e.index()] = pu.index() as u32;
            }
        }
    }
    let induced_part: &[u32] = induced_part;

    // Adds the slice contributions of the parts in `range` to `users`.
    // last_part[e] = 1 + index of the last part whose slice listed e; the
    // stamp deduplicates within a part without sorting the slice.
    let count_range = |range: std::ops::Range<usize>, users: &mut [u32], last_part: &mut [u32]| {
        for pi in range {
            let p = PartId::new(pi);
            let stamp = pi as u32 + 1;
            for &e in edges_of(p) {
                if last_part[e.index()] == stamp {
                    continue;
                }
                last_part[e.index()] = stamp;
                if induced_part[e.index()] != pi as u32 {
                    users[e.index()] += 1;
                }
            }
        }
    };

    let parts = partition.part_count();
    let t = pool.threads.min(parts.max(1));
    if t <= 1 {
        let scratch = &mut pool.scratches[0];
        scratch.last_part.fill(0);
        count_range(0..parts, users, &mut scratch.last_part);
    } else {
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(t);
            for (k, scratch) in pool.scratches[..t].iter_mut().enumerate() {
                let count_range = &count_range;
                handles.push(scope.spawn(move || {
                    scratch.users.fill(0);
                    scratch.last_part.fill(0);
                    count_range(
                        parts * k / t..parts * (k + 1) / t,
                        &mut scratch.users,
                        &mut scratch.last_part,
                    );
                }));
            }
            for h in handles {
                h.join().expect("quality workers do not panic");
            }
        });
        for scratch in &pool.scratches[..t] {
            for (acc, w) in users.iter_mut().zip(&scratch.users) {
                *acc += w;
            }
        }
    }
    users.iter().copied().max().unwrap_or(0) as usize
}

/// One-shot [`congestion_with`] against a freshly allocated pool.
#[cfg(test)]
pub(crate) fn congestion<'a, F>(
    graph: &Graph,
    partition: &Partition,
    edges_of: F,
    threads: usize,
) -> usize
where
    F: Fn(PartId) -> &'a [EdgeId] + Sync,
{
    congestion_with(
        graph,
        partition,
        edges_of,
        &mut QualityPool::new(graph, threads),
    )
}

/// One node of the bounded dilation sweep whose eccentricity may still
/// exceed the best value found, with its current eccentricity bounds.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    node: NodeId,
    lo: u32,
    hi: u32,
}

/// Reusable scratch for the per-part diameter BFS sweeps. All arrays are
/// node- or edge-indexed and epoch-stamped: "allowed in the current part's
/// subgraph" is `mark == epoch`, and "visited from the current source" is
/// `visit == visit_epoch`, so moving to the next part or source is a
/// counter bump instead of an `O(n + m)` clear.
pub(crate) struct QualityWorkspace {
    node_mark: Vec<u32>,
    edge_mark: Vec<u32>,
    epoch: u32,
    visit: Vec<u32>,
    visit_epoch: u32,
    dist: Vec<u32>,
    /// Visit order of the last BFS; its unread suffix is the BFS queue.
    order: Vec<NodeId>,
    /// Nodes of the current part's subgraph (also the intern list of the
    /// current [`QualityWorkspace::begin_local`] epoch).
    nodes: Vec<NodeId>,
    /// Local index assigned to each node in the current interning epoch.
    node_pos: Vec<u32>,
    /// Candidate sources of the current bounded dilation sweep.
    candidates: Vec<Candidate>,
}

impl QualityWorkspace {
    pub(crate) fn new(graph: &Graph) -> Self {
        QualityWorkspace {
            node_mark: vec![0; graph.node_count()],
            edge_mark: vec![0; graph.edge_count()],
            epoch: 0,
            visit: vec![0; graph.node_count()],
            visit_epoch: 0,
            dist: vec![0; graph.node_count()],
            order: Vec::new(),
            nodes: Vec::new(),
            node_pos: vec![0; graph.node_count()],
            candidates: Vec::new(),
        }
    }

    /// Opens a fresh node-interning epoch (used by the block-component
    /// sweep of `TreeShortcut`, which maps the nodes relevant to one part
    /// onto dense local indices without a per-part hash map).
    pub(crate) fn begin_local(&mut self) {
        self.epoch += 1;
        self.nodes.clear();
    }

    /// Dense local index of `v` in the current interning epoch, assigning
    /// the next free index on first sight.
    pub(crate) fn intern(&mut self, v: NodeId) -> usize {
        if self.node_mark[v.index()] != self.epoch {
            self.node_mark[v.index()] = self.epoch;
            self.node_pos[v.index()] = self.nodes.len() as u32;
            self.nodes.push(v);
        }
        self.node_pos[v.index()] as usize
    }

    /// The nodes interned since [`QualityWorkspace::begin_local`], in
    /// interning order (their local indices).
    pub(crate) fn local_nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Marks the subgraph `G[P_p] + H_p` under a fresh epoch and lists its
    /// nodes in `self.nodes`. The allowed nodes are the part members plus
    /// the shortcut-edge endpoints; the allowed edges are the edges of `G`
    /// with both endpoints in `P_p` plus the shortcut edges themselves.
    fn mark_subgraph(
        &mut self,
        graph: &Graph,
        partition: &Partition,
        p: PartId,
        shortcut_edges: &[EdgeId],
    ) {
        self.epoch += 1;
        let epoch = self.epoch;
        self.nodes.clear();

        for &v in partition.members(p) {
            if self.node_mark[v.index()] != epoch {
                self.node_mark[v.index()] = epoch;
                self.nodes.push(v);
            }
        }
        for &e in shortcut_edges {
            let edge = graph.edge(e);
            for v in [edge.u, edge.v] {
                if self.node_mark[v.index()] != epoch {
                    self.node_mark[v.index()] = epoch;
                    self.nodes.push(v);
                }
            }
        }

        // Induced edges are found by scanning the members' incident slices
        // — O(vol(P_p)), not O(m).
        for &v in partition.members(p) {
            for &e in graph.incident_edge_ids(v) {
                if self.edge_mark[e.index()] != epoch {
                    let edge = graph.edge(e);
                    if partition.part_of(edge.u) == Some(p) && partition.part_of(edge.v) == Some(p)
                    {
                        self.edge_mark[e.index()] = epoch;
                    }
                }
            }
        }
        for &e in shortcut_edges {
            self.edge_mark[e.index()] = epoch;
        }
    }

    /// BFS from `source` over the subgraph marked by
    /// [`QualityWorkspace::mark_subgraph`], leaving the hop distances in
    /// `dist`. Returns the source's eccentricity and the number of nodes
    /// reached.
    fn bfs(&mut self, graph: &Graph, source: NodeId) -> (u32, usize) {
        self.visit_epoch += 1;
        let (epoch, visit_epoch) = (self.epoch, self.visit_epoch);
        self.visit[source.index()] = visit_epoch;
        self.dist[source.index()] = 0;
        self.order.clear();
        self.order.push(source);
        let mut head = 0;
        while let Some(&u) = self.order.get(head) {
            head += 1;
            let du = self.dist[u.index()];
            // Both endpoints of an allowed edge are allowed nodes, so the
            // edge mark alone decides.
            for (v, e) in graph.neighbors(u) {
                if self.edge_mark[e.index()] == epoch && self.visit[v.index()] != visit_epoch {
                    self.visit[v.index()] = visit_epoch;
                    self.dist[v.index()] = du + 1;
                    self.order.push(v);
                }
            }
        }
        let last = self.order[self.order.len() - 1];
        (self.dist[last.index()], self.order.len())
    }

    /// Diameter `D_p` of the subgraph `G[P_p] + H_p` (allowed nodes and
    /// edges as in [`QualityWorkspace::mark_subgraph`]) by one bounded BFS
    /// sweep (BoundingDiameters; Takes and Kosters, CIKM 2011).
    ///
    /// A BFS from a source `v` of eccentricity `ecc` tightens every
    /// candidate `w` at distance `d` to `lo(w) = max(lo(w), d, ecc − d)`
    /// and `hi(w) = min(hi(w), ecc + d)`, and drops `w` once
    /// `hi(w) ≤ max(best, floor)`, where `best` is the largest eccentricity
    /// measured in this part. The next source alternates between the
    /// largest `hi` and the smallest `lo`. The source itself always drops,
    /// so the sweep ends after at most one BFS per subgraph node.
    ///
    /// Correctness: every dropped node has eccentricity at most
    /// `max(best, floor)`, and `best` is a true eccentricity. So
    /// - if `D_p > floor`, the sweep returns exactly `D_p`;
    /// - otherwise it returns some true eccentricity, which is at most
    ///   `D_p ≤ floor`.
    ///
    /// Hence the max over parts is exact whenever each part's `floor` is at
    /// most the max of values already returned, at any worker count and
    /// under any schedule ([`dilation_with`]); `floor = 0` measures the
    /// part exactly.
    ///
    /// A subgraph the first BFS does not span is disconnected; by
    /// convention its diameter is reported as the graph's node count,
    /// larger than any connected diameter.
    pub(crate) fn part_diameter(
        &mut self,
        graph: &Graph,
        partition: &Partition,
        p: PartId,
        shortcut_edges: &[EdgeId],
        floor: u32,
    ) -> u32 {
        self.mark_subgraph(graph, partition, p, shortcut_edges);
        let Some(&first) = self.nodes.first() else {
            return 0;
        };
        let size = self.nodes.len();
        self.candidates.clear();
        self.candidates
            .extend(self.nodes.iter().map(|&node| Candidate {
                node,
                lo: 0,
                hi: u32::MAX,
            }));
        let mut source = first;
        let mut best = 0;
        let mut pick_high = true;
        loop {
            let (ecc, reached) = self.bfs(graph, source);
            if reached < size {
                return graph.node_count() as u32;
            }
            best = best.max(ecc);
            let cut = best.max(floor);
            // One pass: tighten the bounds, drop what cannot beat `cut`,
            // and choose the next source among the survivors by the larger
            // key (`hi`, or `MAX − lo`; a survivor's key is at least 1).
            let dist = &self.dist;
            let mut next = (0u32, source);
            self.candidates.retain_mut(|c| {
                let d = dist[c.node.index()];
                c.lo = c.lo.max(d).max(ecc - d);
                c.hi = c.hi.min(ecc + d);
                if c.hi <= cut {
                    return false;
                }
                let key = if pick_high { c.hi } else { u32::MAX - c.lo };
                if key > next.0 {
                    next = (key, c.node);
                }
                true
            });
            if next.0 == 0 {
                return best;
            }
            source = next.1;
            pick_high = !pick_high;
        }
    }

    /// The all-sources sweep the bounded one replaces: a BFS from every
    /// node of `G[P_p] + H_p`. Test-only oracle for
    /// [`QualityWorkspace::part_diameter`].
    #[cfg(test)]
    fn part_diameter_all_sources(
        &mut self,
        graph: &Graph,
        partition: &Partition,
        p: PartId,
        shortcut_edges: &[EdgeId],
    ) -> u32 {
        self.mark_subgraph(graph, partition, p, shortcut_edges);
        let nodes = std::mem::take(&mut self.nodes);
        let mut diameter = 0;
        for &source in &nodes {
            let (ecc, reached) = self.bfs(graph, source);
            if reached < nodes.len() {
                diameter = graph.node_count() as u32;
                break;
            }
            diameter = diameter.max(ecc);
        }
        self.nodes = nodes;
        diameter
    }
}

/// Diameter of the subgraph `G[P_p] + H_p` by the all-sources oracle, on a
/// fresh workspace.
#[cfg(test)]
pub(crate) fn part_subgraph_diameter(
    graph: &Graph,
    partition: &Partition,
    p: PartId,
    shortcut_edges: &[EdgeId],
) -> u32 {
    QualityWorkspace::new(graph).part_diameter_all_sources(graph, partition, p, shortcut_edges)
}

/// Computes dilation: the maximum subgraph diameter over all parts, by one
/// bounded sweep per part ([`QualityWorkspace::part_diameter`]). Workers
/// pull parts off a shared counter, each on its own pooled workspace; with
/// one worker it runs inline on the primary workspace. Every part's sweep
/// takes as its floor the running max of the parts already measured,
/// shared through an atomic, so a part that cannot raise the max stops
/// early. The result is the exact max for every thread count and schedule.
pub(crate) fn dilation_with<'a, F>(
    graph: &Graph,
    partition: &Partition,
    edges_of: F,
    pool: &mut QualityPool,
) -> u32
where
    F: Fn(PartId) -> &'a [EdgeId] + Sync,
{
    pool.assert_graph(graph);
    let parts = partition.part_count();
    let t = pool.threads.min(parts.max(1));
    // Relaxed: each atomic publishes only its own value, and the scope's
    // join orders the final read of `floor`.
    let next = AtomicUsize::new(0);
    let floor = AtomicU32::new(0);
    let sweep = |ws: &mut QualityWorkspace| loop {
        let pi = next.fetch_add(1, Ordering::Relaxed);
        if pi >= parts {
            return;
        }
        let p = PartId::new(pi);
        let d = ws.part_diameter(
            graph,
            partition,
            p,
            edges_of(p),
            floor.load(Ordering::Relaxed),
        );
        floor.fetch_max(d, Ordering::Relaxed);
    };
    if t <= 1 {
        sweep(&mut pool.scratches[0].ws);
    } else {
        std::thread::scope(|scope| {
            for scratch in pool.scratches[..t].iter_mut() {
                let sweep = &sweep;
                scope.spawn(move || sweep(&mut scratch.ws));
            }
        });
    }
    floor.into_inner()
}

/// One-shot [`dilation_with`] against a freshly allocated pool.
#[cfg(test)]
pub(crate) fn dilation<'a, F>(
    graph: &Graph,
    partition: &Partition,
    edges_of: F,
    threads: usize,
) -> u32
where
    F: Fn(PartId) -> &'a [EdgeId] + Sync,
{
    dilation_with(
        graph,
        partition,
        edges_of,
        &mut QualityPool::new(graph, threads),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::generators;

    #[test]
    fn congestion_of_induced_only_partition() {
        let g = generators::grid(3, 5);
        let p = generators::partitions::grid_rows(3, 5);
        // No shortcut edges at all: row edges have congestion 1, column
        // edges 0, so the measured congestion is 1.
        assert_eq!(congestion(&g, &p, |_| &[][..], 1), 1);
    }

    #[test]
    fn congestion_counts_shortcut_and_induced_use_together() {
        let g = generators::path(3);
        // Two parts: {0} and {1,2}. Edge (1,2) is induced for part 1; if we
        // also put it in part 0's shortcut the edge serves two subgraphs.
        let mut b = lcs_graph::PartitionBuilder::new(3);
        b.add_part(vec![NodeId::new(0)]).unwrap();
        b.add_part(vec![NodeId::new(1), NodeId::new(2)]).unwrap();
        let p = b.build();
        let shared = g.edge_between(NodeId::new(1), NodeId::new(2)).unwrap();
        // Listing an induced edge in the part's own shortcut must not
        // double-count it; listing it twice in one slice counts once.
        let sets: Vec<Vec<EdgeId>> = vec![vec![shared], vec![shared, shared]];
        let c = congestion(&g, &p, |part| sets[part.index()].as_slice(), 1);
        assert_eq!(c, 2);
    }

    #[test]
    fn subgraph_diameter_uses_shortcut_edges() {
        // Path 0-1-2-3-4 with part {0, 4}... is not connected, so instead
        // use part {0} and check that adding the whole path as shortcut
        // edges lets it reach node 4 in 4 hops.
        let g = generators::path(5);
        let mut b = lcs_graph::PartitionBuilder::new(5);
        b.add_part(vec![NodeId::new(0)]).unwrap();
        let p = b.build();
        let all_edges: Vec<EdgeId> = g.edge_ids().collect();
        assert_eq!(
            part_subgraph_diameter(&g, &p, PartId::new(0), &all_edges),
            4
        );
        assert_eq!(part_subgraph_diameter(&g, &p, PartId::new(0), &[]), 0);
    }

    #[test]
    fn disconnected_subgraph_is_flagged_with_a_large_diameter() {
        let g = generators::path(4);
        let mut b = lcs_graph::PartitionBuilder::new(4);
        b.add_part(vec![NodeId::new(0)]).unwrap();
        let p = b.build();
        // A single shortcut edge at the far end of the path is not connected
        // to the part member.
        let far = g.edge_between(NodeId::new(2), NodeId::new(3)).unwrap();
        let d = part_subgraph_diameter(&g, &p, PartId::new(0), &[far]);
        assert!(d >= g.node_count() as u32);
    }

    #[test]
    fn workspace_reuse_across_parts_matches_fresh_workspaces() {
        // The epoch-stamped workspace must behave as if freshly cleared for
        // every part, including when parts interleave disconnected and
        // connected subgraphs.
        let g = generators::grid(4, 4);
        let p = generators::partitions::grid_columns(4, 4);
        let mut ws = QualityWorkspace::new(&g);
        for part in p.parts() {
            let reused = ws.part_diameter(&g, &p, part, &[], 0);
            let fresh = part_subgraph_diameter(&g, &p, part, &[]);
            assert_eq!(reused, fresh);
        }
        // And a second sweep over the same parts gives the same answers.
        for part in p.parts() {
            let again = ws.part_diameter(&g, &p, part, &[], 0);
            assert_eq!(again, part_subgraph_diameter(&g, &p, part, &[]));
        }
    }

    #[test]
    fn parallel_quality_matches_serial_for_every_thread_count() {
        // Congestion and dilation are reductions (sum-of-indicators max,
        // max-of-maxima), so any worker split must reproduce the serial
        // values exactly.
        let g = generators::grid(6, 6);
        let p = generators::partitions::random_bfs_balls(&g, 7, 3);
        let tree = lcs_graph::RootedTree::bfs(&g, NodeId::new(0));
        let sets: Vec<Vec<EdgeId>> = p
            .parts()
            .map(|part| {
                // An arbitrary but deterministic per-part edge set: the
                // members' parent edges.
                let mut edges: Vec<EdgeId> = p
                    .members(part)
                    .iter()
                    .filter_map(|&v| tree.parent_edge(v))
                    .collect();
                edges.sort();
                edges
            })
            .collect();
        let edges_of = |part: PartId| sets[part.index()].as_slice();
        let c1 = congestion(&g, &p, edges_of, 1);
        let d1 = dilation(&g, &p, edges_of, 1);
        for threads in [2usize, 3, 8, 64] {
            assert_eq!(congestion(&g, &p, edges_of, threads), c1, "t={threads}");
            assert_eq!(dilation(&g, &p, edges_of, threads), d1, "t={threads}");
        }
    }

    #[test]
    fn pool_reuse_across_queries_matches_one_shot_measurement() {
        // One pool serving several different partitions over the same graph
        // (the façade's serving shape) must reproduce the one-shot values,
        // serially and with workers.
        let g = generators::grid(6, 6);
        let tree = lcs_graph::RootedTree::bfs(&g, NodeId::new(0));
        for threads in [1usize, 3] {
            let mut pool = QualityPool::new(&g, threads);
            for seed in 0..4u64 {
                let p = generators::partitions::random_bfs_balls(&g, 5 + seed as usize, seed);
                let sets: Vec<Vec<EdgeId>> = p
                    .parts()
                    .map(|part| {
                        let mut edges: Vec<EdgeId> = p
                            .members(part)
                            .iter()
                            .filter_map(|&v| tree.parent_edge(v))
                            .collect();
                        edges.sort();
                        edges
                    })
                    .collect();
                let edges_of = |part: PartId| sets[part.index()].as_slice();
                assert_eq!(
                    congestion_with(&g, &p, edges_of, &mut pool),
                    congestion(&g, &p, edges_of, 1),
                    "threads={threads} seed={seed}"
                );
                assert_eq!(
                    dilation_with(&g, &p, edges_of, &mut pool),
                    dilation(&g, &p, edges_of, 1),
                    "threads={threads} seed={seed}"
                );
            }
        }
    }

    /// One graph per family the oracle sweep covers, about `size²` nodes.
    fn family_graph(family: usize, size: usize, seed: u64) -> Graph {
        match family {
            0 => generators::grid(size, size),
            1 => generators::torus(size, size),
            2 => generators::random_connected(size * size, 2 * size, seed),
            3 => generators::caterpillar(3 * size, 2),
            _ => generators::wheel(size * size + 1),
        }
    }

    /// The shortcut shapes the oracle sweep covers: empty, truncated
    /// ancestor at levels 1 and 2, full ancestor, and doubling-built.
    fn shaped_shortcut(
        shape: usize,
        g: &Graph,
        tree: &lcs_graph::RootedTree,
        p: &Partition,
        seed: u64,
    ) -> crate::TreeShortcut {
        use crate::existential::{ancestor_shortcut, truncated_ancestor_shortcut};
        match shape {
            0 => crate::TreeShortcut::empty(g, p),
            1 | 2 => truncated_ancestor_shortcut(g, tree, p, shape as u32),
            3 => ancestor_shortcut(g, tree, p),
            _ => {
                let config = crate::construction::DoublingConfig {
                    seed,
                    ..Default::default()
                };
                let active = vec![true; p.part_count()];
                crate::construction::doubling_search(
                    g,
                    tree,
                    p,
                    &active,
                    &config,
                    None,
                    crate::construction::scheduled,
                )
                .expect("scheduled verification does not fail")
                .shortcut
            }
        }
    }

    /// Dilation by the all-sources oracle, part by part.
    fn oracle_dilation<'a>(
        g: &Graph,
        p: &Partition,
        edges_of: impl Fn(PartId) -> &'a [EdgeId],
    ) -> u32 {
        let mut ws = QualityWorkspace::new(g);
        p.parts()
            .map(|part| ws.part_diameter_all_sources(g, p, part, edges_of(part)))
            .max()
            .unwrap_or(0)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The bounded sweep equals the all-sources oracle: quality's
        /// dilation at pool sizes 1–3 for every family × shortcut shape,
        /// and repair's per-part dilation (floor 0) for every part.
        #[test]
        fn bounded_dilation_equals_the_all_sources_oracle(
            size in 3usize..9,
            parts in 1usize..10,
            seed in 0u64..1000,
        ) {
            for family in 0..5 {
                let g = family_graph(family, size, seed);
                let tree = lcs_graph::RootedTree::bfs(&g, NodeId::new(0));
                let p = generators::partitions::random_bfs_balls(&g, parts, seed);
                for shape in 0..5 {
                    let s = shaped_shortcut(shape, &g, &tree, &p, seed);
                    let oracle = oracle_dilation(&g, &p, |part| s.edges_of(part));
                    for threads in 1..=3 {
                        let mut pool = QualityPool::new(&g, threads);
                        proptest::prop_assert_eq!(
                            s.quality_with(&g, &p, &mut pool).dilation,
                            oracle,
                            "family {} shape {} threads {}",
                            family,
                            shape,
                            threads
                        );
                    }
                }
                let mut pool = QualityPool::new(&g, 1);
                let config = crate::construction::DoublingConfig {
                    seed,
                    ..Default::default()
                };
                let corpus = crate::construction::build_corpus(
                    &g,
                    &tree,
                    &p,
                    &config,
                    &mut pool,
                    crate::construction::scheduled,
                )
                .expect("scheduled verification does not fail");
                let mut ws = QualityWorkspace::new(&g);
                for (i, state) in corpus.parts().iter().enumerate() {
                    let part = PartId::new(i);
                    proptest::prop_assert_eq!(
                        state.dilation,
                        ws.part_diameter_all_sources(&g, &p, part, &state.edges),
                        "family {} part {}",
                        family,
                        i
                    );
                }
            }
        }
    }

    #[test]
    fn disconnected_subgraph_reports_the_node_count_at_every_pool_size() {
        // Path 0-1-2-3-4-5, parts {0}, {1,2}, {3}, {4,5}. Part 0's shortcut
        // is the far edge (4,5), so its subgraph is disconnected.
        let g = generators::path(6);
        let mut b = lcs_graph::PartitionBuilder::new(6);
        for members in [vec![0], vec![1, 2], vec![3], vec![4, 5]] {
            b.add_part(members.into_iter().map(NodeId::new).collect())
                .unwrap();
        }
        let p = b.build();
        let far = g.edge_between(NodeId::new(4), NodeId::new(5)).unwrap();
        let sets: Vec<Vec<EdgeId>> = vec![vec![far], vec![], vec![], vec![]];
        let edges_of = |part: PartId| sets[part.index()].as_slice();
        let mut ws = QualityWorkspace::new(&g);
        assert_eq!(ws.part_diameter(&g, &p, PartId::new(0), &[far], 0), 6);
        assert_eq!(oracle_dilation(&g, &p, edges_of), 6);
        for threads in 1..=3 {
            let mut pool = QualityPool::new(&g, threads);
            assert_eq!(dilation_with(&g, &p, edges_of, &mut pool), 6, "t={threads}");
        }
    }

    #[test]
    fn cycle_parts_without_pruning_stay_exact() {
        // Torus rows with an empty shortcut: every part is a cycle, every
        // node has the same eccentricity, and no bound prunes a source.
        let g = generators::torus(8, 8);
        let p = generators::partitions::grid_rows(8, 8);
        let mut ws = QualityWorkspace::new(&g);
        for part in p.parts() {
            assert_eq!(ws.part_diameter(&g, &p, part, &[], 0), 4);
        }
        assert_eq!(oracle_dilation(&g, &p, |_| &[][..]), 4);
        for threads in 1..=3 {
            let mut pool = QualityPool::new(&g, threads);
            assert_eq!(dilation_with(&g, &p, |_| &[][..], &mut pool), 4);
        }
    }

    #[test]
    #[should_panic(expected = "sized for a different graph")]
    fn pool_rejects_a_mismatched_graph() {
        let g = generators::grid(3, 3);
        let other = generators::grid(4, 4);
        let p = generators::partitions::grid_columns(4, 4);
        let mut pool = QualityPool::new(&g, 1);
        congestion_with(&other, &p, |_| &[][..], &mut pool);
    }

    #[test]
    fn quality_lemma1_check() {
        let q = ShortcutQuality {
            congestion: 3,
            dilation: 10,
            block_parameter: 2,
            per_part_blocks: vec![2, 1],
        };
        assert!(q.satisfies_lemma1(4)); // 10 <= 2 * 9
        assert!(!q.satisfies_lemma1(1)); // 10 > 2 * 3
        let unmeasured = ShortcutQuality {
            congestion: 1,
            dilation: 100,
            block_parameter: 0,
            per_part_blocks: vec![],
        };
        assert!(unmeasured.satisfies_lemma1(0));
    }
}
