//! Reference distributed protocols.
//!
//! Single-source BFS-tree construction (`O(D)` rounds), the standard
//! CONGEST building block the paper takes for granted. Its round count has
//! a known closed form, so it validates the simulator itself, and the
//! engine's goldens and benchmarks run it.

mod bfs;

pub use bfs::{BfsOutcome, DistributedBfs};
