//! Builder-side configuration values of the façade: how the spanning tree
//! is obtained and which construction strategy a query runs.

use lcs_core::construction::DoublingConfig;
use lcs_graph::{NodeId, RootedTree};

/// How a [`crate::Session`] obtains the rooted spanning tree every
/// tree-restricted query routes over.
#[derive(Debug, Clone)]
pub enum TreeSpec {
    /// Build a BFS spanning tree rooted at the given node (the `O(D)`
    /// preprocessing every paper construction starts from). The default is
    /// `Bfs(node 0)`.
    Bfs(NodeId),
    /// Use a caller-provided rooted spanning tree. It must span exactly the
    /// session's graph; [`crate::Pipeline::build`] rejects a mismatch.
    Provided(RootedTree),
}

impl Default for TreeSpec {
    fn default() -> Self {
        TreeSpec::Bfs(NodeId::new(0))
    }
}

/// Parameters of the Appendix A doubling search, as accepted by
/// [`Strategy::Doubling`]. `Default` mirrors
/// `lcs_core::construction::DoublingConfig::default()`: start at `(1, 1)`
/// with 24 doublings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoublingSpec {
    /// Initial congestion guess (doubled on failure, clamped to ≥ 1).
    pub initial_congestion: usize,
    /// Initial block-parameter guess (doubled on failure, clamped to ≥ 1).
    pub initial_block: usize,
    /// Maximum number of doublings before the query reports
    /// [`lcs_graph::LcsError::BudgetExhausted`].
    pub max_doublings: usize,
}

impl Default for DoublingSpec {
    fn default() -> Self {
        DoublingSpec {
            initial_congestion: 1,
            initial_block: 1,
            max_doublings: 24,
        }
    }
}

/// How a shortcut query constructs its tree-restricted shortcut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The Appendix A doubling search over the randomized `CoreFast`
    /// subroutine: no parameters needed, `O(log(bc))` overhead. This is
    /// what a caller who knows nothing about the topology runs;
    /// [`Strategy::doubling`] is the all-defaults shorthand.
    Doubling(DoublingSpec),
    /// The Theorem 3 `FindShortcut` driver with known canonical parameters
    /// `(congestion, block)`.
    Fixed {
        /// The congestion `c` of the canonical shortcut assumed to exist.
        congestion: usize,
        /// The block parameter `b` of the canonical shortcut assumed to
        /// exist.
        block: usize,
    },
    /// The fully deterministic pipeline: the doubling search over the
    /// `CoreSlow` subroutine (Lemma 7), with the same starting guesses and
    /// budget knobs as [`Strategy::Doubling`]. Slower by a factor of
    /// roughly `c / log n` per attempt, but free of randomness — two runs
    /// with any seeds produce the identical shortcut.
    /// [`Strategy::slow_core`] is the all-defaults shorthand.
    SlowCore(DoublingSpec),
}

impl Strategy {
    /// The parameter-free default: [`Strategy::Doubling`] with
    /// [`DoublingSpec::default`].
    pub fn doubling() -> Self {
        Strategy::Doubling(DoublingSpec::default())
    }

    /// The parameter-free deterministic default: [`Strategy::SlowCore`]
    /// with [`DoublingSpec::default`].
    pub fn slow_core() -> Self {
        Strategy::SlowCore(DoublingSpec::default())
    }

    /// A short human-readable label for reports (`"doubling"`, `"fixed"`,
    /// `"slow-core"`).
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Doubling(_) => "doubling",
            Strategy::Fixed { .. } => "fixed",
            Strategy::SlowCore(_) => "slow-core",
        }
    }

    /// The Appendix A loop configuration this strategy runs with base
    /// `seed`, and whether a part still bad after the loop is an error.
    /// `Fixed` is a single attempt whose still-bad parts are not an error;
    /// the doubling strategies keep their budgets and escalate a still-bad
    /// part to [`lcs_graph::LcsError::BudgetExhausted`].
    pub(crate) fn doubling_config(self, seed: u64) -> (DoublingConfig, bool) {
        let (spec, use_fast_core) = match self {
            Strategy::Doubling(spec) => (spec, true),
            Strategy::SlowCore(spec) => (spec, false),
            Strategy::Fixed { congestion, block } => {
                let spec = DoublingSpec {
                    initial_congestion: congestion,
                    initial_block: block,
                    max_doublings: 0,
                };
                (spec, true)
            }
        };
        let config = DoublingConfig {
            congestion: spec.initial_congestion,
            block: spec.initial_block,
            use_fast_core,
            max_doublings: spec.max_doublings,
            seed,
        };
        (config, !matches!(self, Strategy::Fixed { .. }))
    }
}

/// Which core subroutine a [`crate::Session::core`] step runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreKind {
    /// `CoreSlow` (Algorithm 1 / Lemma 7): deterministic, `O(D·c)` rounds.
    Slow,
    /// `CoreFast` (Algorithm 2 / Lemma 5): sampled, `O(D log n + c)`
    /// rounds, good w.h.p. The sampling constant is the legacy default
    /// `γ = 2`; the seed is the session seed.
    Fast,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_mirror_the_legacy_configs() {
        let spec = DoublingSpec::default();
        assert_eq!(
            (
                spec.initial_congestion,
                spec.initial_block,
                spec.max_doublings
            ),
            (1, 1, 24)
        );
        assert!(matches!(TreeSpec::default(), TreeSpec::Bfs(root) if root == NodeId::new(0)));
        assert!(matches!(Strategy::doubling(), Strategy::Doubling(s) if s == spec));
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::doubling().label(), "doubling");
        assert_eq!(
            Strategy::Fixed {
                congestion: 2,
                block: 1
            }
            .label(),
            "fixed"
        );
        assert_eq!(Strategy::slow_core().label(), "slow-core");
        assert!(
            matches!(Strategy::slow_core(), Strategy::SlowCore(s) if s == DoublingSpec::default())
        );
    }
}
