//! Contiguous node sharding for parallel engines.
//!
//! The CSR layout (see [`crate::Graph`]) stores every node's adjacency in
//! one flat array, ordered by node id. A [`ShardMap`] cuts the node range
//! `0..n` into `S` contiguous intervals, so each shard also owns a
//! contiguous interval of the CSR arrays — the property the CONGEST round
//! loop relies on to give every worker thread an exclusive, cache-linear
//! mailbox region. Shard boundaries only affect *where* work executes,
//! never *what* is computed: every consumer of a `ShardMap` must produce
//! results independent of the shard count.

use crate::{Graph, LcsError, NodeId};

/// A partition of the node ids `0..n` into contiguous shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// `starts[s]..starts[s + 1]` is shard `s`'s node range. Length
    /// `shard_count + 1`; `starts[0] == 0` and the last entry is `n`.
    starts: Vec<u32>,
    /// Node → shard lookup, `n` entries. O(1) on the posting hot path.
    shard_of: Vec<u32>,
}

impl ShardMap {
    fn from_starts(starts: Vec<u32>) -> Self {
        let n = *starts.last().expect("starts is nonempty") as usize;
        let mut shard_of = vec![0u32; n];
        for s in 0..starts.len() - 1 {
            for v in starts[s]..starts[s + 1] {
                shard_of[v as usize] = s as u32;
            }
        }
        ShardMap { starts, shard_of }
    }

    /// Splits `0..node_count` into at most `shard_count` equally sized
    /// contiguous ranges (the last shards are one node smaller when the
    /// division is not exact). The number of shards is capped at
    /// `node_count` so every shard is nonempty, except that an empty graph
    /// yields a single empty shard.
    pub fn even(node_count: usize, shard_count: usize) -> Self {
        let s = shard_count.max(1).min(node_count.max(1));
        let mut starts = Vec::with_capacity(s + 1);
        for k in 0..=s {
            starts.push((node_count * k / s) as u32);
        }
        Self::from_starts(starts)
    }

    /// Splits the graph's nodes into at most `shard_count` contiguous
    /// ranges of roughly equal *volume* (nodes plus incident edge slots) —
    /// the quantity that actually bounds a shard's per-round work. Shards
    /// of a star graph's hub, for example, come out much smaller in node
    /// count than its leaf shards.
    pub fn by_volume(graph: &Graph, shard_count: usize) -> Self {
        let n = graph.node_count();
        let s = shard_count.max(1).min(n.max(1));
        let total: u64 = (n + 2 * graph.edge_count()) as u64;
        let mut starts = Vec::with_capacity(s + 1);
        starts.push(0u32);
        let mut acc: u64 = 0;
        let mut v = 0usize;
        for k in 1..s {
            // Close shard k-1 at the first node where the running volume
            // reaches the k-th equal share, leaving at least one node for
            // every remaining shard.
            let target = total * k as u64 / s as u64;
            let last_start = n - (s - k);
            while v < last_start && (acc < target || v < starts[k - 1] as usize + 1) {
                acc += 1 + graph.degree(NodeId::new(v)) as u64;
                v += 1;
            }
            starts.push(v as u32);
        }
        starts.push(n as u32);
        Self::from_starts(starts)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of nodes covered by the map.
    pub fn node_count(&self) -> usize {
        *self.starts.last().expect("starts is nonempty") as usize
    }

    /// The shard owning `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.shard_of[node.index()] as usize
    }

    /// The node range of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.starts[s] as usize..self.starts[s + 1] as usize
    }
}

/// The workspace-wide thread-count default: the `LCS_THREADS` environment
/// variable when set to a positive integer, otherwise `1` (serial). Both
/// the CONGEST simulator's shard count and the parallel quality
/// measurements consult this, so one variable switches the whole pipeline —
/// which is what lets CI run the identical test suite at S = 1 and S = 4.
///
/// This function is the *only* place in the workspace that reads
/// `LCS_THREADS`; everything downstream receives the count as a value (a
/// [`Threads`] or a plain `usize`). Because the ambient environment cannot
/// report errors to a caller, a malformed value here falls back to serial;
/// surfaces that *can* reject bad input — CLI flags, the `lcs_api` builder
/// — parse through [`Threads::parse`], which turns zero or non-numeric
/// counts into a clear error instead.
pub fn configured_threads() -> usize {
    threads_from(std::env::var("LCS_THREADS").ok().as_deref())
}

/// A worker-thread count carried as a value through the pipeline instead
/// of re-reading `LCS_THREADS` at every call site.
///
/// `Auto` defers to [`configured_threads`] at resolution time; `Fixed(n)`
/// pins the count. Construct a `Fixed` from untrusted text with
/// [`Threads::parse`], which rejects zero and non-numeric values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// Resolve from the `LCS_THREADS` environment variable (the default).
    #[default]
    Auto,
    /// A fixed worker count; must be at least 1 (enforced by
    /// [`Threads::parse`] and clamped by [`Threads::resolve`]).
    Fixed(usize),
}

impl Threads {
    /// Strictly parses a thread count: a positive integer is accepted,
    /// anything else — zero, negative, empty, or non-numeric — is a
    /// [`LcsError::Config`] naming the offending value. This is the
    /// parsing rule for surfaces that can report errors (the experiments
    /// binary's `--threads` flag, the `lcs_api` pipeline builder); the
    /// ambient `LCS_THREADS` fallback in [`configured_threads`] stays
    /// lenient because the environment has no error channel.
    pub fn parse(value: &str) -> Result<Threads, LcsError> {
        match value.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Threads::Fixed(n)),
            Ok(_) => Err(LcsError::Config {
                reason: "thread count must be at least 1 (got 0)".to_string(),
            }),
            Err(_) => Err(LcsError::Config {
                reason: format!("thread count must be a positive integer, got `{value}`"),
            }),
        }
    }

    /// Resolves to a concrete worker count: `Auto` consults
    /// [`configured_threads`], `Fixed(n)` clamps to at least 1.
    pub fn resolve(self) -> usize {
        match self {
            Threads::Auto => configured_threads(),
            Threads::Fixed(n) => n.max(1),
        }
    }
}

/// The `LCS_THREADS` parsing rule, separated from the ambient environment
/// so the fallback behavior stays testable even when the test process
/// itself runs under `LCS_THREADS` (as the CI engine matrix does): a
/// positive integer is taken as-is, anything else — unset, garbage, or
/// zero — falls back to 1, never 0.
fn threads_from(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn even_split_covers_all_nodes_contiguously() {
        let map = ShardMap::even(10, 3);
        assert_eq!(map.shard_count(), 3);
        assert_eq!(map.node_count(), 10);
        let mut covered = 0;
        for s in 0..map.shard_count() {
            let r = map.range(s);
            assert_eq!(r.start, covered);
            for v in r.clone() {
                assert_eq!(map.shard_of(NodeId::new(v)), s);
            }
            covered = r.end;
        }
        assert_eq!(covered, 10);
    }

    #[test]
    fn shard_count_is_capped_at_node_count() {
        let map = ShardMap::even(2, 8);
        assert_eq!(map.shard_count(), 2);
        let map = ShardMap::by_volume(&generators::path(3), 8);
        assert_eq!(map.shard_count(), 3);
        for s in 0..3 {
            assert_eq!(map.range(s).len(), 1);
        }
    }

    #[test]
    fn empty_graph_gets_a_single_empty_shard() {
        let map = ShardMap::even(0, 4);
        assert_eq!(map.shard_count(), 1);
        assert_eq!(map.range(0), 0..0);
    }

    #[test]
    fn volume_split_balances_a_skewed_degree_sequence() {
        // Wheel: the hub carries half the volume. A volume split puts the
        // hub (node 0) in a small first shard instead of n/S nodes.
        let g = generators::wheel(257);
        let map = ShardMap::by_volume(&g, 4);
        assert_eq!(map.shard_count(), 4);
        assert_eq!(map.node_count(), g.node_count());
        let volume = |r: std::ops::Range<usize>| -> u64 {
            r.map(|v| 1 + g.degree(NodeId::new(v)) as u64).sum()
        };
        let first = map.range(0);
        assert!(first.contains(&0));
        assert!(first.len() < g.node_count() / 4);
        // No shard exceeds twice the ideal share.
        let total: u64 = volume(0..g.node_count());
        for s in 0..map.shard_count() {
            assert!(volume(map.range(s)) <= total / 2);
        }
    }

    #[test]
    fn every_shard_is_nonempty_for_any_requested_count() {
        for n in 1..40usize {
            for s in 1..10usize {
                let g = generators::path(n);
                let map = ShardMap::by_volume(&g, s);
                for k in 0..map.shard_count() {
                    assert!(!map.range(k).is_empty(), "n={n} s={s} shard {k}");
                }
                assert_eq!(map.node_count(), n);
            }
        }
    }

    #[test]
    fn strict_parse_rejects_zero_and_garbage() {
        assert_eq!(Threads::parse("4"), Ok(Threads::Fixed(4)));
        assert_eq!(Threads::parse(" 8 "), Ok(Threads::Fixed(8)));
        for bad in ["0", "", "zero", "-3", "1.5"] {
            let err = Threads::parse(bad).unwrap_err();
            assert!(
                matches!(err, LcsError::Config { .. }),
                "`{bad}` must be rejected as a config error, got {err:?}"
            );
        }
        assert!(Threads::parse("0")
            .unwrap_err()
            .to_string()
            .contains("got 0"));
        assert!(Threads::parse("x").unwrap_err().to_string().contains("`x`"));
    }

    #[test]
    fn threads_resolution() {
        assert_eq!(Threads::Fixed(4).resolve(), 4);
        assert_eq!(Threads::Fixed(0).resolve(), 1);
        assert!(Threads::Auto.resolve() >= 1);
        assert_eq!(Threads::default(), Threads::Auto);
    }

    #[test]
    fn thread_parsing_falls_back_to_serial() {
        // The fallback must be 1 (never 0) for unset, garbage, and zero
        // values; tested against controlled inputs because the ambient
        // environment may legitimately carry LCS_THREADS (the CI engine
        // matrix exports it for the whole test run).
        assert_eq!(threads_from(None), 1);
        assert_eq!(threads_from(Some("")), 1);
        assert_eq!(threads_from(Some("zero")), 1);
        assert_eq!(threads_from(Some("0")), 1);
        assert_eq!(threads_from(Some("-3")), 1);
        assert_eq!(threads_from(Some("4")), 4);
        assert_eq!(threads_from(Some(" 8 ")), 8);
        assert!(configured_threads() >= 1);
    }
}
