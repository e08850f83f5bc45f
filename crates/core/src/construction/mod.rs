//! Section 5 of the paper: constructing tree-restricted shortcuts.
//!
//! The framework has three layers:
//!
//! * a **core** subroutine that, assuming a `T`-restricted shortcut with
//!   congestion `c` and block parameter `b` exists, computes a tentative
//!   shortcut whose congestion is `O(c)` and in which at least half of the
//!   parts already have block parameter at most `3b`:
//!   [`core_slow`] (Algorithm 1, deterministic, `O(D·c)` rounds) and
//!   [`core_fast`] (Algorithm 2, randomized, `O(D log n + c)` rounds);
//! * a **verification** subroutine ([`verification`], Lemmas 3/6) that finds
//!   the parts whose tentative subgraph indeed has at most `3b` block
//!   components, in `O(b(D + c))` rounds;
//! * the **driver** [`FindShortcut`] (Theorem 3) that alternates the two,
//!   freezing the subgraphs of verified-good parts and re-running the core
//!   on the rest, until every part is good — `O(log N)` iterations with high
//!   probability — with the verification dropped in through one
//!   [`Verifier`] seam (scheduled here, message passing in `lcs_dist`);
//! * the Appendix A [`doubling_search`] that removes the need to know
//!   `(c, b)` in advance at the cost of an extra `log(bc)` factor. It is
//!   the one construction loop: shortcut queries, the per-part builds of
//!   [`build_corpus`] / [`repair_corpus`] and every Boruvka phase of
//!   `lcs_mst` run it.

mod core_fast;
mod core_slow;
mod doubling;
mod find_shortcut;
mod id_arena;
mod repair;
mod verification;

pub use core_fast::{core_fast, CoreFastConfig};
pub use core_slow::core_slow;
pub use doubling::{doubling_search, DoublingAttempt, DoublingConfig, DoublingResult};
pub use find_shortcut::{FindShortcut, FindShortcutConfig, FindShortcutResult, Verifier};
pub use repair::{build_corpus, repair_corpus, PartState, RepairStats, ShortcutCorpus};
pub use verification::{verification, VerificationOutcome};

use crate::TreeShortcut;
use lcs_graph::EdgeId;

/// The scheduled Lemma 3 verification as a [`Verifier`], for unit tests.
#[cfg(test)]
pub(crate) fn scheduled(
    g: &lcs_graph::Graph,
    t: &lcs_graph::RootedTree,
    p: &lcs_graph::Partition,
    s: &TreeShortcut,
    threshold: usize,
    active: &[bool],
) -> lcs_graph::LcsResult<VerificationOutcome> {
    Ok(verification(g, t, p, s, threshold, active))
}

/// Output of a core subroutine ([`core_slow`] or [`core_fast`]): a tentative
/// `T`-restricted shortcut, the set of edges declared unusable, and the
/// exact number of CONGEST rounds the subroutine took.
#[derive(Debug, Clone)]
pub struct CoreOutcome {
    /// The tentative shortcut `H'`.
    pub shortcut: TreeShortcut,
    /// `unusable[e]` is `true` if tree edge `e` was declared unusable
    /// because too many parts tried to use it.
    pub unusable: Vec<bool>,
    /// Exact round count of the subroutine.
    pub rounds: u64,
}

impl CoreOutcome {
    /// The edges declared unusable, as a list.
    pub fn unusable_edges(&self) -> Vec<EdgeId> {
        self.unusable
            .iter()
            .enumerate()
            .filter(|(_, &u)| u)
            .map(|(i, _)| EdgeId::new(i))
            .collect()
    }
}
