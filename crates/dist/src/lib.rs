//! Distributed protocol layer: the shortcut pipeline executed as real
//! CONGEST message passing.
//!
//! The seed reproduction computes the Theorem 2 / Lemma 3 primitives
//! centrally and charges rounds from the exact schedules they *would*
//! execute (see `DESIGN.md` §2). This crate closes that gap: the same
//! primitives run as per-node [`lcs_congest::NodeProtocol`] state machines
//! in the [`lcs_congest::Simulator`], with the per-edge `O(log n)`-bit
//! bandwidth enforced on every message, and return both their computed
//! results and the executed [`lcs_congest::SimStats`].
//!
//! * [`BlockFamily`] — per-node local knowledge over a tree-restricted
//!   shortcut's block components (the paper's Section 4.1 distributed
//!   representation plus its `O(D)` preprocessing);
//! * [`block_convergecast`] / [`block_exchange`] — Lemma 2 as message
//!   passing: part-parallel tree convergecast under the `BlockRootDepth`
//!   priority, and its time-reversed broadcast; the executed round count
//!   equals the exact centralized schedule;
//! * [`part_leaders`] / [`part_min_edges`] / [`part_flood_min`] —
//!   Theorem 2 as message passing: part-wise leader election and the
//!   Boruvka minimum-outgoing-edge primitive via `b` supersteps of
//!   intra-block agreement interleaved with supergraph exchanges;
//! * [`verification_simulated`] — Lemma 3 as message passing: distributed
//!   block-component counting of one [`BlockCounting`] question, a sound
//!   and complete drop-in for `lcs_core::construction::verification`. Under
//!   an active fault plan the same call retries stalled runs in epochs and
//!   reports [`DistError::Degraded`] when every epoch stalls. Wrapped in a
//!   closure, it is the `Simulated` [`lcs_core::construction::Verifier`]
//!   the Theorem 3 driver and the Appendix A loop run with (`lcs_api`'s
//!   session does this for every construction query, repair and Boruvka
//!   phase);
//! * [`CrossCheck`] — the harness asserting, per primitive, that the
//!   distributed execution equals the centralized result and respects the
//!   paper's round bounds (tabulated by experiment E8).
//!
//! # Example
//!
//! ```
//! use lcs_dist::{part_leaders, BlockFamily};
//! use lcs_core::existential::ancestor_shortcut;
//! use lcs_graph::{generators, NodeId, RootedTree};
//!
//! let graph = generators::wheel(33);
//! let tree = RootedTree::bfs(&graph, NodeId::new(0));
//! let partition = generators::partitions::wheel_arcs(33, 4);
//! let shortcut = ancestor_shortcut(&graph, &tree, &partition);
//! let family = BlockFamily::new(&graph, &tree, &partition, &shortcut);
//! let (leaders, stats) = part_leaders(&graph, &partition, &family, None).unwrap();
//! // Every arc elects its minimum member id, by real message passing.
//! for p in partition.parts() {
//!     assert_eq!(leaders[p.index()], *partition.members(p).iter().min().unwrap());
//! }
//! assert!(stats.rounds > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cast;
mod crosscheck;
mod engine;
mod error;
mod flood;
mod knowledge;
mod verification;

pub use cast::{block_convergecast, block_exchange, AggregateOp, BlockCastOutcome};
pub use crosscheck::{CheckedRun, CrossCheck};
pub use error::{DistError, Result};
pub use flood::{
    min_edge_candidates, part_flood_min, part_leaders, part_min_edges, PartFloodOutcome,
    PartMinEdges,
};
pub use knowledge::{BlockFamily, MemberBlock, Membership, NodeInfo};
pub use verification::{
    counting_supersteps, verification_simulated, BlockCounting, DistVerificationOutcome,
};
