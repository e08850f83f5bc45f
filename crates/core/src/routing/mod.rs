//! Deterministic routing on tree-restricted shortcuts.
//!
//! * [`convergecast_rounds`] — the Lemma 2 scheduler: given a family of
//!   subtrees of `T` such that every tree edge lies in at most `c` of them,
//!   a convergecast on all subtrees in parallel finishes within `D + c`
//!   rounds when messages are forwarded with the priority "smallest depth of
//!   the subtree root, ties by smallest subtree id".
//! * [`PartRouter`] — the Theorem 2 part-parallel primitives built on top:
//!   leader election, convergecast to the leaders and the cost of the
//!   broadcast back, plus the Lemma 3 block-component counting used by the
//!   verification subroutine. Each primitive reports the exact number of
//!   CONGEST rounds it would take, computed from the actually scheduled
//!   intra-block routings and the supergraph steps it performs.
//! * [`MemberBlocks`] — Lemma 3's flat block pass: one climb of the tree
//!   per part finds, counts and numbers every part's member blocks and lays
//!   out their Lemma 2 family (`blocks.rs`). The router,
//!   `construction::verification` and `lcs_dist::BlockFamily` all build on
//!   it, so one pass and one schedule serve every block consumer.

mod blocks;
mod parts;
mod tree_routing;

pub use blocks::MemberBlocks;
pub use parts::{PartRouter, PartRouterOutcome};
pub use tree_routing::{convergecast_rounds, RoutingPriority, RoutingSchedule, SubtreeSpec};

/// How a routing primitive or construction subroutine executes its
/// communication.
///
/// * [`ExecutionMode::Scheduled`] — the seed behaviour: results are computed
///   centrally and the round count is the exact length of the
///   level-synchronous schedule the primitive would execute (what
///   [`PartRouter`] and `construction::verification` report).
/// * [`ExecutionMode::Simulated`] — the primitive runs as a real
///   message-passing [`lcs_congest::NodeProtocol`] in the CONGEST simulator,
///   with per-edge bandwidth enforced; the round count is
///   `lcs_congest::SimStats::rounds` of the actual execution. The protocol
///   implementations live in the `lcs_dist` crate (which depends on this
///   one); entry points that accept an `ExecutionMode` dispatch to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Centralized results, exact scheduled round counts (the default).
    #[default]
    Scheduled,
    /// Real message-passing execution in the CONGEST simulator.
    Simulated,
}
