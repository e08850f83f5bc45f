//! Algorithm 2: the randomized `CoreFast` subroutine.
//!
//! `CoreSlow` spends `Θ(c)` rounds per tree level because every level
//! forwards up to `2c` part ids serially. `CoreFast` avoids this by
//! *estimating* the number of contending parts through sampling: every part
//! becomes active with probability `p = γ·log n / (2c)`, only sampled ids
//! are forwarded bottom-up (at most `O(log n)` per level w.h.p.), and an
//! edge is declared unusable once `4c·p = Ω(log n)` sampled ids want to use
//! it. A second phase then routes the *complete* id sets up the tree until
//! the first unusable edge, which is a Lemma 2 routing problem costing
//! `O(D + c)` rounds. Lemma 5 shows congestion `8c` w.h.p. and at least half
//! the parts good, in `O(D log n + c)` rounds.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use lcs_graph::{Graph, NodeId, PartId, Partition, RootedTree};

use super::id_arena::IdArena;
use super::CoreOutcome;

/// Configuration of the `CoreFast` subroutine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreFastConfig {
    /// The congestion bound `c` of the canonical shortcut assumed to exist.
    pub congestion_bound: usize,
    /// The sampling constant `γ` in `p = γ·log n / (2c)`. Larger values
    /// sharpen the Chernoff concentration at the cost of more rounds per
    /// level; the paper only requires a "sufficiently large constant".
    pub gamma: f64,
    /// Seed for the shared randomness (the paper distributes `O(log² n)`
    /// shared random bits in `O(D + log n)` rounds; that cost is charged).
    pub seed: u64,
}

impl CoreFastConfig {
    /// Creates a configuration with the default `γ = 2` and seed 0.
    pub fn new(congestion_bound: usize) -> Self {
        CoreFastConfig {
            congestion_bound,
            gamma: 2.0,
            seed: 0,
        }
    }

    /// Overrides the sampling constant.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Overrides the shared-randomness seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The sampling probability `p = min(1, γ·log₂ n / (2c))`.
    pub fn sampling_probability(&self, node_count: usize) -> f64 {
        let log_n = (node_count.max(2) as f64).log2();
        (self.gamma * log_n / (2.0 * self.congestion_bound.max(1) as f64)).min(1.0)
    }

    /// The unusable-edge threshold `4c·p` (at least 1).
    pub fn unusable_threshold(&self, node_count: usize) -> usize {
        let p = self.sampling_probability(node_count);
        ((4.0 * self.congestion_bound.max(1) as f64 * p).ceil() as usize).max(1)
    }
}

/// Runs `CoreFast` (Algorithm 2) on the parts for which `active` is `true`.
///
/// The reported round count is the sum of
/// * the shared-randomness distribution (`depth + ⌈log₂ n⌉` rounds),
/// * the exact level-synchronous schedule of the sampled-id phase, and
/// * the exact length of the greedy id-forwarding schedule of the second
///   phase (each node forwards the smallest not-yet-forwarded id over its
///   usable parent edge, one id per round).
///
/// # Panics
///
/// Panics if `active.len()` differs from the partition's part count or the
/// tree does not span `graph`.
pub fn core_fast(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    config: &CoreFastConfig,
    active: &[bool],
) -> CoreOutcome {
    assert_eq!(
        active.len(),
        partition.part_count(),
        "one active flag per part is required"
    );
    assert_eq!(
        tree.node_count(),
        graph.node_count(),
        "tree must span the graph"
    );

    let n = graph.node_count();
    let p_sample = config.sampling_probability(n);
    let threshold = config.unusable_threshold(n);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

    // Shared randomness: every node of a part agrees on whether the part is
    // sampled. Cost of distributing the seed: D + ceil(log2 n) rounds.
    let sampled: Vec<bool> = (0..partition.part_count())
        .map(|i| active[i] && rng.gen_bool(p_sample))
        .collect();
    let seed_sharing_rounds =
        u64::from(tree.depth_of_tree()) + lcs_congest::bits_for_node_count(n) as u64;

    // ------------------------------------------------------------------
    // Phase 1: forward sampled ids bottom-up; declare edges unusable when
    // `threshold` sampled ids want to cross them.
    // ------------------------------------------------------------------
    let mut unusable = vec![false; graph.edge_count()];
    let mut level_cost = vec![0u64; tree.depth_of_tree() as usize + 1];
    let sampled_lists = IdArena::bottom_up(
        tree,
        partition,
        &mut unusable,
        |p| sampled[p.index()],
        |v, len| {
            let cost = &mut level_cost[tree.depth(v) as usize];
            if len >= threshold {
                *cost = (*cost).max(1);
                false
            } else {
                *cost = (*cost).max(len.max(1) as u64);
                true
            }
        },
    );
    let phase1_rounds: u64 = level_cost.iter().skip(1).sum();

    // ------------------------------------------------------------------
    // Phase 2: route the complete id sets up the tree until the first
    // unusable edge (greedy forwarding, smallest id first). What each node
    // ends up knowing is fixed by the unusable edges alone, so the final
    // sets are computed first and the greedy only has to be timed.
    //
    // When every active part was sampled (always at p = 1), phase 1
    // already built these sets: it took the same ids, and a node it kept
    // read its children over the edges that stayed usable, which are the
    // edges phase 2 reads, while a node it dropped has an unusable parent
    // edge, which phase 2 skips. So its lists are reused as they are.
    // ------------------------------------------------------------------
    let known = if sampled == active {
        sampled_lists
    } else {
        IdArena::bottom_up(
            tree,
            partition,
            &mut unusable,
            |p| active[p.index()],
            |_, _| true,
        )
    };
    let phase2_rounds = greedy_forwarding_rounds(tree, partition, active, &known);

    // Assignment: every id a node knows can use the node's parent edge,
    // unless that edge is unusable.
    CoreOutcome {
        shortcut: known.shortcut(graph, tree, partition),
        unusable,
        rounds: seed_sharing_rounds + phase1_rounds + phase2_rounds,
    }
}

/// Times phase 2: in every round each node with a usable parent edge sends
/// the smallest id it knows and has not yet sent, and ids received in a
/// round can be sent from the next round on.
///
/// The simulation is event-driven over the final id sets. A round visits
/// only the nodes that have something to send, and it applies the receipts
/// after every node has picked, which keeps the rounds synchronous.
fn greedy_forwarding_rounds(
    tree: &RootedTree,
    partition: &Partition,
    active: &[bool],
    sets: &IdArena,
) -> u64 {
    let n = tree.node_count();
    let mut state = Forwarding::new(sets, n);
    // A node is queued at most once per round and sends at most once.
    let mut current: Vec<NodeId> = Vec::with_capacity(n);
    let mut next: Vec<NodeId> = Vec::with_capacity(n);
    let mut sends: Vec<(NodeId, PartId)> = Vec::with_capacity(n);
    for v in (0..n).map(NodeId::new) {
        if let Some(p) = partition.part_of(v) {
            if active[p.index()] {
                state.learn(v, p, &mut current);
            }
        }
    }

    let mut rounds = 0u64;
    while !current.is_empty() {
        rounds += 1;
        for &v in &current {
            let parent = tree.parent(v).expect("nodes with sets have parents");
            sends.push((parent, state.pop(v)));
        }
        for &v in &current {
            if state.left[v.index()] > 0 {
                next.push(v);
            }
        }
        for (parent, id) in sends.drain(..) {
            state.learn(parent, id, &mut next);
        }
        std::mem::swap(&mut current, &mut next);
        next.clear();
    }
    rounds
}

/// Phase 2 state as bit words over the final id sets: bit `i` of a node's
/// words stands for the `i`-th id of its sorted set, so the smallest
/// pending id is the lowest set bit.
struct Forwarding<'a> {
    sets: &'a IdArena,
    /// Node `v` owns words `word_start[v]..word_start[v + 1]`.
    word_start: Vec<usize>,
    known: Vec<u64>,
    pending: Vec<u64>,
    /// Pending ids per node.
    left: Vec<u32>,
}

impl<'a> Forwarding<'a> {
    fn new(sets: &'a IdArena, n: usize) -> Self {
        let mut word_start: Vec<usize> = Vec::with_capacity(n + 1);
        word_start.push(0);
        for v in 0..n {
            let words = sets.ids(NodeId::new(v)).len().div_ceil(64);
            word_start.push(word_start[v] + words);
        }
        let total = word_start[n];
        Forwarding {
            sets,
            word_start,
            known: vec![0; total],
            pending: vec![0; total],
            left: vec![0; n],
        }
    }

    /// Node `v` learns `id`; queues `v` when it had nothing pending. Sets
    /// exist only at nodes that forward, so this is a no-op at the root and
    /// below unusable edges.
    fn learn(&mut self, v: NodeId, id: PartId, queue: &mut Vec<NodeId>) {
        let Ok(i) = self.sets.ids(v).binary_search(&id) else {
            return;
        };
        let (w, bit) = (self.word_start[v.index()] + i / 64, 1u64 << (i % 64));
        if self.known[w] & bit == 0 {
            self.known[w] |= bit;
            self.pending[w] |= bit;
            self.left[v.index()] += 1;
            if self.left[v.index()] == 1 {
                queue.push(v);
            }
        }
    }

    /// Takes `v`'s smallest pending id.
    fn pop(&mut self, v: NodeId) -> PartId {
        let start = self.word_start[v.index()];
        let words = &mut self.pending[start..self.word_start[v.index() + 1]];
        let (offset, word) = words
            .iter_mut()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .expect("queued nodes have a pending id");
        let bit = word.trailing_zeros() as usize;
        *word &= *word - 1;
        self.left[v.index()] -= 1;
        self.sets.ids(v)[offset * 64 + bit]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::core_slow;
    use crate::construction::core_slow::all_active;
    use lcs_graph::{generators, NodeId};

    fn setup_grid(rows: usize, cols: usize) -> (Graph, RootedTree, Partition) {
        let g = generators::grid(rows, cols);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(rows, cols);
        (g, t, p)
    }

    #[test]
    fn config_derived_quantities() {
        let config = CoreFastConfig::new(16).with_gamma(2.0);
        let p = config.sampling_probability(1024);
        assert!((p - 2.0 * 10.0 / 32.0).abs() < 1e-9);
        assert_eq!(config.unusable_threshold(1024), 40);
        // Tiny congestion bound caps the probability at 1.
        let config = CoreFastConfig::new(1);
        assert_eq!(config.sampling_probability(1024), 1.0);
        assert_eq!(config.unusable_threshold(1024), 4);
    }

    #[test]
    fn output_is_a_valid_tree_restricted_shortcut() {
        let (g, t, p) = setup_grid(8, 8);
        let outcome = core_fast(
            &g,
            &t,
            &p,
            &CoreFastConfig::new(4).with_seed(7),
            &all_active(&p),
        );
        outcome.shortcut.validate(&t, &p).unwrap();
        // Unusable edges carry no assignment.
        for e in outcome.unusable_edges() {
            assert!(outcome.shortcut.parts_on_edge(e).is_empty());
        }
    }

    #[test]
    fn generous_bound_matches_core_slow_exactly() {
        // When the congestion bound is generous enough that nothing is ever
        // unusable, both subroutines converge to the same fixed point: every
        // part gets all of its members' ancestor edges.
        let (g, t, p) = setup_grid(6, 6);
        let slow = core_slow(&g, &t, &p, 50, &all_active(&p));
        let fast = core_fast(
            &g,
            &t,
            &p,
            &CoreFastConfig::new(50).with_seed(3),
            &all_active(&p),
        );
        assert!(slow.unusable_edges().is_empty());
        assert!(fast.unusable_edges().is_empty());
        for part in p.parts() {
            assert_eq!(slow.shortcut.edges_of(part), fast.shortcut.edges_of(part));
        }
    }

    #[test]
    fn at_least_half_the_parts_are_good_with_reference_parameters() {
        let (g, t, p) = setup_grid(8, 8);
        let (_, reference) = crate::existential::reference_parameters(&g, &t, &p);
        let c = reference.congestion.max(1);
        let b = reference.block_parameter.max(1);
        for seed in 0..5 {
            let outcome = core_fast(
                &g,
                &t,
                &p,
                &CoreFastConfig::new(c).with_seed(seed),
                &all_active(&p),
            );
            let counts = outcome.shortcut.block_counts(&g, &p);
            let good = counts.iter().filter(|&&k| k <= 3 * b).count();
            assert!(
                good * 2 >= p.part_count(),
                "seed {seed}: only {good} good parts"
            );
        }
    }

    #[test]
    fn fast_is_cheaper_than_slow_when_congestion_is_large() {
        // On a long path partitioned into singleton-ish parts the slow core
        // pays Θ(D·c) while the fast core pays O(D log n + c).
        let g = generators::grid(12, 12);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::random_bfs_balls(&g, 36, 1);
        let c = 36;
        let slow = core_slow(&g, &t, &p, c, &all_active(&p));
        let fast = core_fast(
            &g,
            &t,
            &p,
            &CoreFastConfig::new(c).with_seed(1),
            &all_active(&p),
        );
        assert!(
            fast.rounds <= slow.rounds,
            "CoreFast ({}) should not exceed CoreSlow ({}) at large c",
            fast.rounds,
            slow.rounds
        );
    }

    #[test]
    fn inactive_parts_receive_no_assignments() {
        let (g, t, p) = setup_grid(4, 4);
        let mut active = all_active(&p);
        active[1] = false;
        let outcome = core_fast(&g, &t, &p, &CoreFastConfig::new(4), &active);
        assert!(outcome.shortcut.edges_of(PartId::new(1)).is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let (g, t, p) = setup_grid(6, 6);
        let a = core_fast(
            &g,
            &t,
            &p,
            &CoreFastConfig::new(3).with_seed(11),
            &all_active(&p),
        );
        let b = core_fast(
            &g,
            &t,
            &p,
            &CoreFastConfig::new(3).with_seed(11),
            &all_active(&p),
        );
        assert_eq!(a.shortcut, b.shortcut);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn rounds_include_seed_sharing_and_scale_with_depth() {
        let (g, t, p) = setup_grid(10, 10);
        let outcome = core_fast(&g, &t, &p, &CoreFastConfig::new(5), &all_active(&p));
        let d = u64::from(t.depth_of_tree());
        assert!(outcome.rounds >= d);
    }
}
