//! Edge weights for weighted problems (MST).
//!
//! Weights are kept separate from [`crate::Graph`] so that the purely
//! combinatorial machinery (trees, partitions, shortcuts) does not carry a
//! weight vector it never looks at. The MST application combines a graph
//! with an [`EdgeWeights`] table.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{EdgeId, Graph, GraphError, Result};

/// A table of edge weights indexed by [`EdgeId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeWeights {
    weights: Vec<u64>,
}

impl EdgeWeights {
    /// Creates a weight table from an explicit vector (entry `i` is the
    /// weight of edge `i`).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::WeightCountMismatch`] if the vector length does
    /// not equal the graph's edge count.
    pub fn from_vec(graph: &Graph, weights: Vec<u64>) -> Result<Self> {
        if weights.len() != graph.edge_count() {
            return Err(GraphError::WeightCountMismatch {
                weights: weights.len(),
                edges: graph.edge_count(),
            });
        }
        Ok(EdgeWeights { weights })
    }

    /// Assigns every edge the same unit weight.
    pub fn uniform(graph: &Graph) -> Self {
        EdgeWeights {
            weights: vec![1; graph.edge_count()],
        }
    }

    /// Assigns the edges a random permutation of `1..=m`, i.e. distinct
    /// weights. Distinct weights make the minimum spanning tree unique,
    /// which greatly simplifies validating distributed MST output against
    /// the centralized reference.
    pub fn random_permutation(graph: &Graph, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut weights: Vec<u64> = (1..=graph.edge_count() as u64).collect();
        weights.shuffle(&mut rng);
        EdgeWeights { weights }
    }

    /// Weight of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn weight(&self, e: EdgeId) -> u64 {
        self.weights[e.index()]
    }

    /// Number of weighted edges.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Returns `true` if there are no edges.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Total weight of a set of edges.
    pub fn total<I: IntoIterator<Item = EdgeId>>(&self, edges: I) -> u64 {
        edges.into_iter().map(|e| self.weight(e)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn uniform_weights_are_all_one() {
        let g = generators::cycle(5);
        let w = EdgeWeights::uniform(&g);
        assert_eq!(w.len(), 5);
        assert!(g.edge_ids().all(|e| w.weight(e) == 1));
        assert_eq!(w.total(g.edge_ids()), 5);
    }

    #[test]
    fn random_permutation_is_distinct_and_deterministic() {
        let g = generators::grid(5, 5);
        let w1 = EdgeWeights::random_permutation(&g, 42);
        let w2 = EdgeWeights::random_permutation(&g, 42);
        let w3 = EdgeWeights::random_permutation(&g, 43);
        assert_eq!(w1, w2);
        assert_ne!(w1, w3);
        let mut distinct: Vec<u64> = g.edge_ids().map(|e| w1.weight(e)).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), g.edge_count());
        assert_eq!(w1.len(), g.edge_count());
    }

    #[test]
    fn from_vec_checks_length() {
        let g = generators::path(3);
        assert!(EdgeWeights::from_vec(&g, vec![1, 2]).is_ok());
        let err = EdgeWeights::from_vec(&g, vec![1]).unwrap_err();
        assert_eq!(
            err,
            GraphError::WeightCountMismatch {
                weights: 1,
                edges: 2
            }
        );
    }

    #[test]
    fn empty_weights() {
        let g = crate::Graph::from_edges(1, &[]).unwrap();
        let w = EdgeWeights::uniform(&g);
        assert!(w.is_empty());
    }
}
