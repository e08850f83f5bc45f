//! The `FindShortcut` driver (Theorem 3).
//!
//! Assuming a `T`-restricted shortcut with congestion `c` and block
//! parameter `b` exists, repeat: run a core subroutine on the parts not yet
//! satisfied, verify which parts obtained at most `3b` block components, fix
//! their subgraphs and remove them. Each iteration satisfies at least half
//! of the remaining parts (w.h.p. for `CoreFast`), so `O(log N)` iterations
//! suffice; the union of the fixed subgraphs has congestion `O(c·log N)` and
//! block parameter `3b`.

use std::ops::Range;

use lcs_congest::RoundCost;
use lcs_graph::{EdgeId, Graph, PartId, Partition, RootedTree};

use super::core_fast::{core_fast, CoreFastConfig};
use super::core_slow::core_slow;
use super::verification::VerificationOutcome;
use crate::{Result, TreeShortcut};

/// A verification subroutine the [`FindShortcut`] driver can drop in:
/// given the graph, tree, partition, an iteration's tentative shortcut,
/// the block threshold and the active-part mask, it reports which active
/// parts verified good and the rounds to charge. Any closure of that shape
/// is a `Verifier`.
///
/// A verifier must be deterministic in its arguments: equal arguments give
/// an equal outcome (or an equal error). The driver relies on this to
/// replay repeated iterations instead of running them (see
/// [`FindShortcut::run`]), so it may call a verifier fewer times than it
/// charges verification rounds. The scheduled
/// [`verification`](fn@super::verification) and `lcs_dist`'s fault-free
/// message-passing verification both meet the contract; a verifier that
/// injects faults or counts its own calls as part of its answer does not.
pub trait Verifier:
    FnMut(&Graph, &RootedTree, &Partition, &TreeShortcut, usize, &[bool]) -> Result<VerificationOutcome>
{
}

impl<V> Verifier for V where
    V: FnMut(
        &Graph,
        &RootedTree,
        &Partition,
        &TreeShortcut,
        usize,
        &[bool],
    ) -> Result<VerificationOutcome>
{
}

/// Configuration of the [`FindShortcut`] driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FindShortcutConfig {
    /// The congestion `c` of the canonical shortcut assumed to exist.
    pub congestion: usize,
    /// The block parameter `b` of the canonical shortcut assumed to exist.
    pub block: usize,
    /// Use the randomized `CoreFast` subroutine (default) or the
    /// deterministic `CoreSlow`.
    pub use_fast_core: bool,
    /// Sampling constant forwarded to `CoreFast`.
    pub gamma: f64,
    /// Maximum number of core/verification iterations before giving up.
    /// `None` selects `2·(⌊log₂ N⌋ + 1) + 8` (twice the bit length of `N`,
    /// plus 8; 18 for `N = 16`), comfortably above the `O(log N)`
    /// guarantee.
    pub max_iterations: Option<usize>,
    /// Seed for the randomized core (each iteration derives its own
    /// sub-seed).
    pub seed: u64,
}

impl FindShortcutConfig {
    /// Creates a configuration for canonical parameters `(congestion, block)`
    /// with the defaults: fast core, `γ = 2`, automatic iteration budget,
    /// seed 0.
    pub fn new(congestion: usize, block: usize) -> Self {
        FindShortcutConfig {
            congestion,
            block,
            use_fast_core: true,
            gamma: 2.0,
            max_iterations: None,
            seed: 0,
        }
    }

    /// Overrides the iteration budget.
    pub fn with_max_iterations(mut self, iterations: usize) -> Self {
        self.max_iterations = Some(iterations);
        self
    }

    /// Overrides the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the `CoreFast` sampling constant.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    fn iteration_budget(&self, part_count: usize) -> usize {
        self.max_iterations
            .unwrap_or_else(|| 2 * (usize::BITS - part_count.max(2).leading_zeros()) as usize + 8)
    }
}

/// Result of running [`FindShortcut`].
#[derive(Debug, Clone)]
pub struct FindShortcutResult {
    /// The constructed shortcut: the union of the subgraphs fixed for each
    /// part in the iteration where the part was verified good.
    pub shortcut: TreeShortcut,
    /// Number of core/verification iterations executed.
    pub iterations: usize,
    /// `true` if every part was verified good within the iteration budget.
    pub all_parts_good: bool,
    /// Number of parts verified good after each iteration (cumulative).
    pub good_after_iteration: Vec<usize>,
    /// Exact round cost, broken down by iteration and subroutine.
    pub cost: RoundCost,
}

impl FindShortcutResult {
    /// Total round count.
    pub fn total_rounds(&self) -> u64 {
        self.cost.total()
    }
}

/// The Theorem 3 construction driver.
#[derive(Debug, Clone, Copy)]
pub struct FindShortcut {
    config: FindShortcutConfig,
}

impl FindShortcut {
    /// Creates a driver with the given configuration.
    pub fn new(config: FindShortcutConfig) -> Self {
        FindShortcut { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> FindShortcutConfig {
        self.config
    }

    /// Runs the construction on the parts flagged in `initial_active`,
    /// verifying each iteration's tentative shortcut with `verifier`.
    ///
    /// The verifier is the seam through which a verification back-end is
    /// dropped into the Theorem 3 driver without the driver knowing about
    /// it: the scheduled Lemma 3 [`verification`](fn@super::verification)
    /// or `lcs_dist`'s message-passing block counting
    /// ([`crate::routing::ExecutionMode`] `Simulated`). It receives the
    /// tentative shortcut of the current iteration, the `3b` block
    /// threshold and the active-part mask, and returns which active parts
    /// verified good plus the round count to charge.
    ///
    /// When the core ignores its seed — `CoreSlow`, or `CoreFast` whose
    /// sampling probability `min(1, γ·log₂ n / 2c)` is 1, that is
    /// `c ≤ γ·log₂ n / 2` — and an iteration fixes no part, every input of
    /// the next iteration is unchanged, so its core output, its verdicts
    /// and its rounds would repeat until the budget runs out. The driver
    /// then stops running the core and the verifier and charges the rest
    /// of the budget from that iteration: the same `iteration-k/core` and
    /// `iteration-k/verification` cost entries and the same
    /// `good_after_iteration` values as running each iteration. This
    /// relies on the [`Verifier`] being deterministic in its arguments.
    /// Observability counters a verifier records (a `Simulated` session's
    /// `dist/verification/*` and `engine/*` counters) count only the runs
    /// that actually executed.
    ///
    /// Inactive parts are never touched: the core subroutines skip them,
    /// the verifier only judges active parts, and the returned shortcut
    /// assigns edges only to parts that went active and verified good.
    /// `good_after_iteration` counts relative to the active set, so the
    /// driver's halving guarantee reads the same for a part-scoped run as
    /// for a full one. Note the *default* iteration budget is derived from
    /// the total part count; callers comparing runs across partitions with
    /// different part counts should pin an explicit
    /// [`FindShortcutConfig::with_max_iterations`].
    ///
    /// # Errors
    ///
    /// Propagates verifier errors; returns
    /// [`crate::CoreError::InconsistentInputs`] if the tree does not span
    /// the graph, the partition was built for a different node count, or
    /// the mask length differs from the part count.
    pub fn run<V: Verifier>(
        &self,
        graph: &Graph,
        tree: &RootedTree,
        partition: &Partition,
        initial_active: &[bool],
        mut verifier: V,
    ) -> Result<FindShortcutResult> {
        if initial_active.len() != partition.part_count() {
            return Err(crate::CoreError::InconsistentInputs {
                reason: format!(
                    "active mask covers {} parts but the partition has {}",
                    initial_active.len(),
                    partition.part_count()
                ),
            });
        }
        if tree.node_count() != graph.node_count() {
            return Err(crate::CoreError::InconsistentInputs {
                reason: format!(
                    "tree spans {} nodes but the graph has {}",
                    tree.node_count(),
                    graph.node_count()
                ),
            });
        }
        if partition.node_count() != graph.node_count() {
            return Err(crate::CoreError::InconsistentInputs {
                reason: format!(
                    "partition defined over {} nodes but the graph has {}",
                    partition.node_count(),
                    graph.node_count()
                ),
            });
        }

        let part_count = partition.part_count();
        let budget = self.config.iteration_budget(part_count);
        let block_threshold = 3 * self.config.block.max(1);
        let seedless_core = self.core_ignores_seed(graph.node_count());

        // The edges fixed for each good part, in one arena: part `p`'s
        // subgraph is `fixed[span[p]]`.
        let mut fixed: Vec<EdgeId> = Vec::new();
        let mut span: Vec<Range<usize>> = vec![0..0; part_count];
        let mut remaining: Vec<bool> = initial_active.to_vec();
        let active_count = remaining.iter().filter(|&&a| a).count();
        let mut remaining_count = active_count;
        let mut cost = RoundCost::new();
        let mut good_after_iteration = Vec::new();
        let mut iterations = 0;

        while remaining_count > 0 && iterations < budget {
            iterations += 1;

            // Core subroutine on the remaining parts.
            let core = if self.config.use_fast_core {
                let cfg = CoreFastConfig::new(self.config.congestion)
                    .with_gamma(self.config.gamma)
                    .with_seed(self.config.seed.wrapping_add(iterations as u64));
                core_fast(graph, tree, partition, &cfg, &remaining)
            } else {
                core_slow(graph, tree, partition, self.config.congestion, &remaining)
            };
            cost.charge(format!("iteration-{iterations}/core"), core.rounds);

            // Verification: which remaining parts obtained <= 3b blocks?
            let verified = verifier(
                graph,
                tree,
                partition,
                &core.shortcut,
                block_threshold,
                &remaining,
            )?;
            cost.charge(
                format!("iteration-{iterations}/verification"),
                verified.rounds,
            );

            // Fix the subgraphs of the newly good parts and deactivate them.
            let before = remaining_count;
            for (p_idx, still_remaining) in remaining.iter_mut().enumerate() {
                if *still_remaining && verified.good[p_idx] {
                    let start = fixed.len();
                    fixed.extend_from_slice(core.shortcut.edges_of(PartId::new(p_idx)));
                    span[p_idx] = start..fixed.len();
                    *still_remaining = false;
                    remaining_count -= 1;
                }
            }
            good_after_iteration.push(active_count - remaining_count);

            // A seedless core on unchanged remaining parts repeats its
            // output, and a deterministic verifier its verdicts, so every
            // later iteration would fix nothing and charge the same rounds.
            if seedless_core && remaining_count == before {
                while iterations < budget {
                    iterations += 1;
                    cost.charge(format!("iteration-{iterations}/core"), core.rounds);
                    cost.charge(
                        format!("iteration-{iterations}/verification"),
                        verified.rounds,
                    );
                    good_after_iteration.push(active_count - remaining_count);
                }
            }
        }

        let edge_sets = span.into_iter().map(|range| fixed[range].iter().copied());
        Ok(FindShortcutResult {
            shortcut: TreeShortcut::from_edge_sets(graph, tree, partition, edge_sets)
                .expect("core output sits on tree edges, one set per part"),
            iterations,
            all_parts_good: remaining_count == 0,
            good_after_iteration,
            cost,
        })
    }

    /// `true` when the core's output does not depend on its seed: `CoreSlow`
    /// is deterministic, and `CoreFast` samples every active part when its
    /// sampling probability `min(1, γ·log₂ n / 2c)` is 1.
    fn core_ignores_seed(&self, node_count: usize) -> bool {
        !self.config.use_fast_core
            || CoreFastConfig::new(self.config.congestion)
                .with_gamma(self.config.gamma)
                .sampling_probability(node_count)
                >= 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::scheduled;
    use crate::existential::reference_parameters;
    use lcs_graph::{generators, NodeId};

    /// Runs `config` on every part with the scheduled verification.
    fn run_all(
        config: FindShortcutConfig,
        g: &Graph,
        t: &RootedTree,
        p: &Partition,
    ) -> Result<FindShortcutResult> {
        FindShortcut::new(config).run(g, t, p, &vec![true; p.part_count()], scheduled)
    }

    fn setup_grid(rows: usize, cols: usize) -> (Graph, RootedTree, Partition) {
        let g = generators::grid(rows, cols);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(rows, cols);
        (g, t, p)
    }

    /// The headline guarantee (Theorem 3): with (c, b) certified by an
    /// existing shortcut, the result has block parameter at most 3b and
    /// congestion at most O(c log N) — here checked with the concrete
    /// constant 8c per iteration.
    #[test]
    fn theorem3_guarantees_hold_on_grids() {
        let (g, t, p) = setup_grid(8, 8);
        let (_, reference) = reference_parameters(&g, &t, &p);
        let c = reference.congestion.max(1);
        let b = reference.block_parameter.max(1);

        let result = run_all(FindShortcutConfig::new(c, b).with_seed(5), &g, &t, &p).unwrap();
        assert!(result.all_parts_good);
        let quality = result.shortcut.quality(&g, &p);
        assert!(quality.block_parameter <= 3 * b);
        assert!(
            quality.congestion <= 8 * c * result.iterations + 1,
            "congestion {} exceeds 8c per iteration ({} iterations, c = {c})",
            quality.congestion,
            result.iterations
        );
        assert!(quality.satisfies_lemma1(t.depth_of_tree()));
        assert!(result.total_rounds() > 0);
    }

    #[test]
    fn slow_core_variant_is_deterministic_and_correct() {
        let (g, t, p) = setup_grid(6, 6);
        let (_, reference) = reference_parameters(&g, &t, &p);
        let config = FindShortcutConfig {
            use_fast_core: false,
            ..FindShortcutConfig::new(reference.congestion.max(1), 1)
        };
        let a = run_all(config, &g, &t, &p).unwrap();
        let b = run_all(config, &g, &t, &p).unwrap();
        assert!(a.all_parts_good);
        assert_eq!(a.shortcut, b.shortcut);
        assert_eq!(a.total_rounds(), b.total_rounds());
    }

    #[test]
    fn iteration_count_is_logarithmic_in_practice() {
        let (g, t, p) = setup_grid(10, 10);
        let (_, reference) = reference_parameters(&g, &t, &p);
        let result = run_all(
            FindShortcutConfig::new(
                reference.congestion.max(1),
                reference.block_parameter.max(1),
            ),
            &g,
            &t,
            &p,
        )
        .unwrap();
        assert!(result.all_parts_good);
        // 10 columns: the log N bound allows ~2*4+8; in practice one or two
        // iterations suffice on this benign instance.
        assert!(
            result.iterations <= 4,
            "took {} iterations",
            result.iterations
        );
        // The cumulative good counts are nondecreasing and end at N.
        let counts = &result.good_after_iteration;
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*counts.last().unwrap(), p.part_count());
    }

    #[test]
    fn underestimating_parameters_fails_gracefully() {
        // Claiming a (1, 1) shortcut exists on the lower-bound instance is
        // false (its connector tree is shared by every path); the driver
        // must stop at its iteration budget and report failure rather than
        // looping forever.
        let (g, layout) = generators::lower_bound_graph(8, 16);
        let t = RootedTree::bfs(&g, layout.connector(0));
        let p = generators::partitions::lower_bound_paths(&layout);
        let result = run_all(
            FindShortcutConfig::new(1, 1).with_max_iterations(4),
            &g,
            &t,
            &p,
        )
        .unwrap();
        assert_eq!(result.iterations, 4);
        assert!(!result.all_parts_good);
    }

    #[test]
    fn wheel_arcs_get_perfect_shortcuts() {
        let g = generators::wheel(65);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::wheel_arcs(65, 8);
        let result = run_all(FindShortcutConfig::new(1, 1), &g, &t, &p).unwrap();
        assert!(result.all_parts_good);
        let q = result.shortcut.quality(&g, &p);
        assert_eq!(q.block_parameter, 1);
        assert!(q.dilation <= 3);
    }

    #[test]
    fn inconsistent_inputs_are_rejected() {
        let (g, t, _) = setup_grid(4, 4);
        let other = generators::grid(3, 3);
        let p_other = generators::partitions::grid_columns(3, 3);
        let err = run_all(FindShortcutConfig::new(1, 1), &g, &t, &p_other).unwrap_err();
        assert!(matches!(err, crate::CoreError::InconsistentInputs { .. }));
        let t_other = RootedTree::bfs(&other, NodeId::new(0));
        let p = generators::partitions::grid_columns(4, 4);
        let err = run_all(FindShortcutConfig::new(1, 1), &g, &t_other, &p).unwrap_err();
        assert!(matches!(err, crate::CoreError::InconsistentInputs { .. }));
    }

    #[test]
    fn cost_breakdown_labels_iterations() {
        let (g, t, p) = setup_grid(5, 5);
        let result = run_all(FindShortcutConfig::new(5, 5), &g, &t, &p).unwrap();
        assert!(result.cost.total_for_prefix("iteration-1/") > 0);
        assert_eq!(result.cost.total(), result.total_rounds());
    }
}
