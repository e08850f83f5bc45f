//! Appendix A: shortcut construction when `(c, b)` are unknown.
//!
//! The fixed-parameter `FindShortcut` needs upper bounds on the canonical
//! congestion `c` and block parameter `b`. Because the construction
//! inherently detects its own termination (a whole-tree convergecast tells
//! every node whether bad parts remain), the parameters can simply be
//! guessed and doubled on failure: start small, run `FindShortcut` with an
//! `O(log N)` iteration budget, and double both guesses whenever some part
//! remains bad. The extra cost is a `log(bc)` factor, and — as the paper
//! notes — the search frequently finds shortcuts *better* than the
//! theoretical bound because it succeeds as soon as any good-enough
//! parameters work.
//!
//! [`doubling_search`] is the one copy of this loop: shortcut queries, the
//! per-part builds of the repair corpus and every Boruvka phase run it,
//! each with its own tree, active parts, seed, iteration budget and
//! verifier. A fixed-parameter construction is the loop with zero
//! doublings.

use lcs_graph::{Graph, LcsResult, Partition, RootedTree};

use super::find_shortcut::{FindShortcut, FindShortcutConfig, Verifier};
use crate::TreeShortcut;

/// Configuration of the doubling loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoublingConfig {
    /// Initial congestion guess (doubled on failure, clamped to ≥ 1).
    pub congestion: usize,
    /// Initial block-parameter guess (doubled on failure, clamped to ≥ 1).
    pub block: usize,
    /// `CoreFast` (true) or the deterministic `CoreSlow`.
    pub use_fast_core: bool,
    /// Number of parameter doublings after the initial attempt; `0` makes
    /// the loop a single fixed-parameter attempt.
    pub max_doublings: usize,
    /// Base seed; attempt `i` runs `FindShortcut` with `seed + 7919·i`.
    pub seed: u64,
}

impl Default for DoublingConfig {
    /// Start at `(1, 1)` with the fast core, 24 doublings and seed 0.
    fn default() -> Self {
        DoublingConfig {
            congestion: 1,
            block: 1,
            use_fast_core: true,
            max_doublings: 24,
            seed: 0,
        }
    }
}

/// One attempt of the doubling search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoublingAttempt {
    /// Congestion guess used by the attempt.
    pub congestion_guess: usize,
    /// Block-parameter guess used by the attempt.
    pub block_guess: usize,
    /// Whether every part was verified good.
    pub succeeded: bool,
    /// Rounds spent by the attempt.
    pub rounds: u64,
}

/// Result of the doubling search: the last attempt's shortcut and
/// verdict, plus every attempt made.
#[derive(Debug, Clone)]
pub struct DoublingResult {
    /// The shortcut of the last attempt — the first successful one, or the
    /// partial shortcut of the final attempt when the budget ran out.
    pub shortcut: TreeShortcut,
    /// Core/verification iterations of the last attempt.
    pub iterations: usize,
    /// `true` if the last attempt verified every active part good.
    pub all_parts_good: bool,
    /// Active parts the last attempt left bad (0 when `all_parts_good`).
    pub remaining_bad: usize,
    /// Every attempt made, in order (failed attempts included — their
    /// work is genuinely spent).
    pub attempts: Vec<DoublingAttempt>,
}

impl DoublingResult {
    /// Total number of rounds across all attempts.
    pub fn total_rounds(&self) -> u64 {
        self.attempts.iter().map(|a| a.rounds).sum()
    }
}

/// Runs the Appendix A doubling loop on the parts flagged in `active`.
///
/// Attempt `i` runs [`FindShortcut`] at the guesses `(c, b)` doubled `i`
/// times with seed `config.seed + 7919·i`, verifying with `verifier`. The
/// loop stops at the first attempt where every active part is good, or
/// after `config.max_doublings` doublings. Running out of doublings is not
/// an error: the result carries the last attempt with
/// [`DoublingResult::all_parts_good`] `false`, and each caller decides
/// what that means. `max_iterations` bounds each attempt's
/// core/verification iterations; `None` keeps the driver's part-count
/// default.
///
/// Each attempt replays repeated iterations as [`FindShortcut::run`]
/// describes: once a seedless core (`CoreSlow`, or `CoreFast` at a guess
/// `c ≤ log₂ n` with the default `γ = 2`) fixes no part, the attempt
/// charges its remaining iterations without running the core or the
/// verifier again, so a low guess stops computing after its first
/// fruitless iteration. Every charged round, shortcut and verdict is the
/// same as running each iteration; a `Simulated` session's
/// `dist/verification/*` and `engine/*` counters count only the verifier
/// runs that executed.
///
/// # Errors
///
/// Propagates verifier errors and the input-consistency errors of
/// [`FindShortcut::run`].
pub fn doubling_search<V: Verifier>(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    active: &[bool],
    config: &DoublingConfig,
    max_iterations: Option<usize>,
    mut verifier: V,
) -> LcsResult<DoublingResult> {
    let mut congestion = config.congestion.max(1);
    let mut block = config.block.max(1);
    let mut attempts = Vec::new();
    loop {
        let seed = config.seed.wrapping_add(attempts.len() as u64 * 7919);
        let fs = FindShortcutConfig {
            use_fast_core: config.use_fast_core,
            max_iterations,
            ..FindShortcutConfig::new(congestion, block).with_seed(seed)
        };
        let result = FindShortcut::new(fs).run(graph, tree, partition, active, &mut verifier)?;
        attempts.push(DoublingAttempt {
            congestion_guess: congestion,
            block_guess: block,
            succeeded: result.all_parts_good,
            rounds: result.total_rounds(),
        });
        if result.all_parts_good || attempts.len() > config.max_doublings {
            let active_count = active.iter().filter(|&&a| a).count();
            let good = result.good_after_iteration.last().copied().unwrap_or(0);
            return Ok(DoublingResult {
                shortcut: result.shortcut,
                iterations: result.iterations,
                all_parts_good: result.all_parts_good,
                remaining_bad: active_count - good,
                attempts,
            });
        }
        congestion = congestion.saturating_mul(2);
        block = block.saturating_mul(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::scheduled;
    use lcs_graph::{generators, NodeId};

    fn search(
        g: &Graph,
        t: &RootedTree,
        p: &Partition,
        config: &DoublingConfig,
    ) -> LcsResult<DoublingResult> {
        doubling_search(
            g,
            t,
            p,
            &vec![true; p.part_count()],
            config,
            None,
            scheduled,
        )
    }

    #[test]
    fn doubling_succeeds_without_knowing_parameters() {
        let g = generators::grid(8, 8);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(8, 8);
        let result = search(&g, &t, &p, &DoublingConfig::default()).unwrap();
        assert!(result.all_parts_good);
        let last = *result.attempts.last().unwrap();
        assert!(last.succeeded);
        let q = result.shortcut.quality(&g, &p);
        assert!(q.block_parameter <= 3 * last.block_guess);
        // The successful guesses are the initial values doubled some number
        // of times.
        assert!(last.congestion_guess.is_power_of_two());
        assert!(last.block_guess.is_power_of_two());
        assert!(result.total_rounds() > 0);
    }

    #[test]
    fn doubling_on_wheel_finds_tiny_parameters_immediately() {
        let g = generators::wheel(41);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::wheel_arcs(41, 5);
        let result = search(&g, &t, &p, &DoublingConfig::default()).unwrap();
        assert_eq!(result.attempts.len(), 1);
        assert_eq!(result.attempts[0].congestion_guess, 1);
        assert_eq!(result.attempts[0].block_guess, 1);
        assert!(result.attempts[0].succeeded);
    }

    #[test]
    fn failed_attempts_are_recorded_and_charged() {
        // Start from parameters that are too small for the comb partition so
        // at least one failure is recorded before success.
        let g = generators::grid(8, 8);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_combs(8, 8);
        let config = DoublingConfig {
            seed: 3,
            ..DoublingConfig::default()
        };
        let result = search(&g, &t, &p, &config).unwrap();
        assert!(result.attempts.iter().any(|a| !a.succeeded) || result.attempts.len() == 1);
        // Every attempt but the last failed, and the total covers them all.
        let (last, failed) = result.attempts.split_last().unwrap();
        assert!(last.succeeded && failed.iter().all(|a| !a.succeeded));
        let sum: u64 = result.attempts.iter().map(|a| a.rounds).sum();
        assert_eq!(sum, result.total_rounds());
    }

    #[test]
    fn exhausting_the_doubling_budget_reports_an_error() {
        // The lower-bound instance with eight contending paths cannot be
        // served at (c, b) = (1, 1): the connector-tree edges are shared by
        // all parts, so with no doublings allowed the search must fail —
        // reported as a last attempt that left parts bad, which callers
        // turn into their budget error.
        let (g, layout) = generators::lower_bound_graph(8, 16);
        let t = RootedTree::bfs(&g, layout.connector(0));
        let p = generators::partitions::lower_bound_paths(&layout);
        let config = DoublingConfig {
            max_doublings: 0,
            ..DoublingConfig::default()
        };
        let result = search(&g, &t, &p, &config).unwrap();
        assert!(!result.all_parts_good);
        assert_eq!(result.attempts.len(), 1);
        assert!(!result.attempts[0].succeeded);
        assert!(result.remaining_bad > 0 && result.remaining_bad <= p.part_count());
    }

    #[test]
    fn slow_core_doubling_is_deterministic() {
        let g = generators::grid(6, 6);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(6, 6);
        let config = DoublingConfig {
            use_fast_core: false,
            ..DoublingConfig::default()
        };
        let a = search(&g, &t, &p, &config).unwrap();
        let b = search(&g, &t, &p, &config).unwrap();
        assert_eq!(a.shortcut, b.shortcut);
        assert_eq!(a.attempts, b.attempts);
    }
}
