//! Randomized families for property-based tests and experiment sweeps.
//!
//! All generators are deterministic given the seed (they use a counter-based
//! ChaCha stream), so experiment tables and failing property tests are
//! reproducible.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{Graph, GraphBuilder, NodeId};

/// A uniformly random recursive tree on `n` nodes: node `i > 0` attaches to
/// a uniformly random earlier node. Expected depth `Θ(log n)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    assert!(n >= 1, "tree needs at least one node");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        b.add_edge(NodeId::new(parent), NodeId::new(i))
            .expect("parent < i");
    }
    b.build()
}

/// A connected random graph: a random recursive tree plus `extra_edges`
/// uniformly random additional edges (duplicates silently dropped, so the
/// final edge count is at most `n - 1 + extra_edges`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_connected(n: usize, extra_edges: usize, seed: u64) -> Graph {
    assert!(n >= 1, "graph needs at least one node");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n - 1 + extra_edges);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        b.add_edge(NodeId::new(parent), NodeId::new(i))
            .expect("parent < i");
    }
    if n >= 2 {
        for _ in 0..extra_edges {
            let a = rng.gen_range(0..n);
            let mut c = rng.gen_range(0..n);
            if a == c {
                c = (c + 1) % n;
            }
            b.add_edge(NodeId::new(a), NodeId::new(c))
                .expect("a != c by construction");
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_connected;

    #[test]
    fn random_tree_is_a_tree() {
        for seed in 0..10 {
            let t = random_tree(50, seed);
            assert_eq!(t.node_count(), 50);
            assert_eq!(t.edge_count(), 49);
            assert!(is_connected(&t));
        }
    }

    #[test]
    fn random_tree_is_deterministic_per_seed() {
        assert_eq!(random_tree(30, 7), random_tree(30, 7));
        assert_ne!(random_tree(30, 7), random_tree(30, 8));
    }

    #[test]
    fn random_connected_is_connected_with_bounded_edges() {
        for seed in 0..5 {
            let g = random_connected(40, 25, seed);
            assert!(is_connected(&g));
            assert!(g.edge_count() >= 39);
            assert!(g.edge_count() <= 39 + 25);
        }
    }

    #[test]
    fn single_node_graphs() {
        assert_eq!(random_tree(1, 0).edge_count(), 0);
        assert_eq!(random_connected(1, 10, 0).edge_count(), 0);
    }
}
