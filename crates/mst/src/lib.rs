//! Distributed optimization applications built on low-congestion shortcuts.
//!
//! The paper's motivation for shortcuts is that distributed optimization
//! algorithms repeatedly need every part of a partition to compute a simple
//! function of its own data — and that doing so over `G[P_i]` alone costs
//! the *part* diameter, which can vastly exceed the *network* diameter `D`.
//! This crate contains the applications that exercise the framework:
//!
//! * [`boruvka_mst`] — Boruvka's minimum-spanning-tree algorithm (Lemma 4 of
//!   the paper): `O(log n)` phases, each phase computing every part's
//!   minimum-weight outgoing edge through the shortcut routing primitives
//!   and merging parts in randomized star shapes,
//! * [`ShortcutStrategy`] — how each phase obtains its shortcut: the paper's
//!   `FindShortcut`, the Appendix A doubling search, the *no-shortcut*
//!   baseline (communication restricted to `G[P_i]`, the slow algorithm the
//!   introduction argues against), or the *whole-tree* baseline (every part
//!   uses all of `T`, demonstrating why congestion must be controlled),
//! * [`part_aggregate`] — the generic part-wise aggregation primitive
//!   other applications (connectivity, partwise statistics) are built
//!   from,
//! * [`verify`] — cross-checks of the distributed outputs against the
//!   centralized references from `lcs-graph`.
//!
//! # Example
//!
//! ```
//! use lcs_core::construction::verification;
//! use lcs_mst::{boruvka_mst, ShortcutStrategy};
//! use lcs_graph::{generators, kruskal_mst, EdgeWeights, NodeId, RootedTree};
//!
//! let graph = generators::grid(6, 6);
//! let tree = RootedTree::bfs(&graph, NodeId::new(0));
//! let weights = EdgeWeights::random_permutation(&graph, 7);
//! // Scheduled routing (`None`) and the scheduled Lemma 3 verification.
//! let outcome = boruvka_mst(
//!     &graph,
//!     &tree,
//!     &weights,
//!     ShortcutStrategy::Doubling,
//!     0,
//!     None,
//!     |g, t, p, s, threshold, active| Ok(verification(g, t, p, s, threshold, active)),
//! )
//! .unwrap();
//! let reference = kruskal_mst(&graph, &weights);
//! assert_eq!(outcome.edges, reference);
//! ```
//!
//! `lcs_api`'s `Session::mst` runs the same call with the session's tree
//! and verifier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod boruvka;
pub mod verify;

pub use aggregate::{part_aggregate, PartAggregateOutcome};
pub use boruvka::{boruvka_mst, MstOutcome, ShortcutStrategy};

/// The scheduled Lemma 3 verification as a verifier, for unit tests.
#[cfg(test)]
fn scheduled(
    g: &lcs_graph::Graph,
    t: &lcs_graph::RootedTree,
    p: &lcs_graph::Partition,
    s: &lcs_core::TreeShortcut,
    threshold: usize,
    active: &[bool],
) -> lcs_graph::LcsResult<lcs_core::construction::VerificationOutcome> {
    Ok(lcs_core::construction::verification(
        g, t, p, s, threshold, active,
    ))
}
