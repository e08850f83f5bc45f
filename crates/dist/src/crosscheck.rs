//! The cross-check harness: every distributed protocol run against its
//! centralized/scheduled counterpart on the same instance.
//!
//! For each primitive the harness asserts two things and reports the
//! numbers either way:
//!
//! 1. **result equality** — the message-passing execution computes exactly
//!    what the centralized code computes;
//! 2. **round bounds** — the executed [`lcs_congest::SimStats::rounds`]
//!    respects the paper's bound for the primitive: the exact schedule
//!    length (and hence `D + c`) for the Lemma 2 convergecast, `2L` for a
//!    full intra-block exchange, `b·(2L + 1)` (the operational
//!    `O(b(D + c))` of Theorem 2) for part flooding, and
//!    `(3·threshold + 2)·(2L + 1)` (the operational `O(threshold·(D + c))`
//!    of Lemma 3) for the distributed verification.
//!
//! E8 of the experiment suite tabulates [`CheckedRun`]s across the
//! generator families; the property tests re-run them on random instances.

use lcs_congest::SimStats;
use lcs_core::construction::verification;
use lcs_core::routing::PartRouter;
use lcs_core::TreeShortcut;
use lcs_graph::{EdgeId, Graph, Partition, RootedTree};
use lcs_obs::Obs;

use crate::cast::{block_convergecast, AggregateOp};
use crate::flood::{part_leaders, part_min_edges};
use crate::knowledge::BlockFamily;
use crate::verification::{counting_supersteps, verification_simulated, BlockCounting};
use crate::{DistError, Result};

/// One charged-vs-executed comparison that passed its checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckedRun {
    /// Rounds charged by the scheduled (centralized) version.
    pub charged: u64,
    /// Rounds executed by the message-passing protocol.
    pub executed: u64,
    /// The bound the executed count was checked against.
    pub bound: u64,
    /// Messages delivered by the executed protocol.
    pub messages: u64,
}

/// Cross-check harness bound to one `(graph, tree, partition, shortcut)`
/// instance.
#[derive(Debug)]
pub struct CrossCheck<'a> {
    graph: &'a Graph,
    tree: &'a RootedTree,
    partition: &'a Partition,
    shortcut: &'a TreeShortcut,
    family: BlockFamily,
}

impl<'a> CrossCheck<'a> {
    /// Builds the harness; the family's measured schedule must itself
    /// respect Lemma 2 (`L ≤ D + c`), which is asserted here once.
    ///
    /// # Errors
    ///
    /// Reports a bound violation if the measured schedule exceeds `D + c`.
    pub fn new(
        graph: &'a Graph,
        tree: &'a RootedTree,
        partition: &'a Partition,
        shortcut: &'a TreeShortcut,
    ) -> Result<Self> {
        let family = BlockFamily::new(graph, tree, partition, shortcut);
        let l = family.schedule().rounds;
        let bound = family.lemma2_bound();
        if l > bound {
            return Err(DistError::BoundViolation {
                reason: format!("schedule length {l} exceeds the Lemma 2 bound {bound}"),
            });
        }
        Ok(CrossCheck {
            graph,
            tree,
            partition,
            shortcut,
            family,
        })
    }

    /// The block family the checks run over.
    pub fn family(&self) -> &BlockFamily {
        &self.family
    }

    fn check_bound(stats: SimStats, bound: u64, what: &str) -> Result<()> {
        if stats.rounds > bound {
            return Err(DistError::BoundViolation {
                reason: format!("{what}: executed {} > bound {bound}", stats.rounds),
            });
        }
        Ok(())
    }

    /// Lemma 2: the distributed block convergecast must equal the
    /// centrally computed per-block aggregates and take *exactly* the
    /// scheduled number of rounds.
    ///
    /// # Errors
    ///
    /// Reports mismatches and bound violations.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the graph's node count.
    pub fn convergecast(&self, values: &[Option<u64>], op: AggregateOp) -> Result<CheckedRun> {
        let outcome = block_convergecast(self.graph, &self.family, values, op, None)?;
        let schedule = self.family.schedule();
        if outcome.stats.rounds != schedule.rounds {
            return Err(DistError::BoundViolation {
                reason: format!(
                    "convergecast executed {} rounds, schedule says {}",
                    outcome.stats.rounds, schedule.rounds
                ),
            });
        }
        Self::check_bound(outcome.stats, self.family.lemma2_bound(), "convergecast")?;
        // Centralized reference: fold each member's value into its
        // own-part block.
        let mut per_block: Vec<Option<u64>> = vec![None; self.family.block_count()];
        for v in self.graph.nodes() {
            if let (Some(own), Some(value)) = (self.family.info(v).own(), values[v.index()]) {
                let acc = &mut per_block[own.block];
                *acc = Some(acc.map_or(value, |a| op.combine(a, value)));
            }
        }
        for (b_idx, &expected) in per_block.iter().enumerate() {
            if outcome.per_block[b_idx] != expected {
                return Err(DistError::Mismatch {
                    reason: format!(
                        "block {b_idx}: distributed {:?} vs centralized {expected:?}",
                        outcome.per_block[b_idx]
                    ),
                });
            }
        }
        Ok(CheckedRun {
            charged: schedule.rounds,
            executed: outcome.stats.rounds,
            bound: self.family.lemma2_bound(),
            messages: outcome.stats.messages,
        })
    }

    /// Theorem 2(i): distributed leader election must elect the same
    /// leaders as [`PartRouter::elect_leaders`] within `b(2L + 1)` rounds.
    ///
    /// # Errors
    ///
    /// Reports mismatches and bound violations.
    pub fn leader_election(&self) -> Result<CheckedRun> {
        let router = PartRouter::new(self.graph, self.tree, self.partition, self.shortcut);
        let scheduled = router.elect_leaders();
        let (leaders, stats) = part_leaders(self.graph, self.partition, &self.family, None)?;
        if leaders != scheduled.values {
            return Err(DistError::Mismatch {
                reason: format!(
                    "distributed leaders {leaders:?} vs scheduled {:?}",
                    scheduled.values
                ),
            });
        }
        let bound = self.theorem2_bound();
        Self::check_bound(stats, bound, "leader election")?;
        Ok(CheckedRun {
            charged: scheduled.rounds,
            executed: stats.rounds,
            bound,
            messages: stats.messages,
        })
    }

    /// Theorem 2(ii): the Boruvka min-edge primitive must equal the
    /// scheduled per-part aggregation within `b(2L + 1)` rounds. The
    /// scheduled cost charged is aggregation plus broadcast-back (the
    /// flood performs both at once).
    ///
    /// # Errors
    ///
    /// Reports mismatches and bound violations.
    ///
    /// # Panics
    ///
    /// Panics if `candidates.len()` differs from the graph's node count.
    pub fn min_edge(&self, candidates: &[Option<(u64, EdgeId)>]) -> Result<CheckedRun> {
        let router = PartRouter::new(self.graph, self.tree, self.partition, self.shortcut);
        let scheduled = router.aggregate_to_leaders(candidates, |a, b| *a.min(b));
        let (per_part, stats) =
            part_min_edges(self.graph, self.partition, &self.family, candidates, None)?;
        if per_part != scheduled.values {
            return Err(DistError::Mismatch {
                reason: format!(
                    "distributed min edges {per_part:?} vs scheduled {:?}",
                    scheduled.values
                ),
            });
        }
        let bound = self.theorem2_bound();
        Self::check_bound(stats, bound, "min-edge aggregation")?;
        Ok(CheckedRun {
            charged: scheduled.rounds + router.exchange_rounds() / 2,
            executed: stats.rounds,
            bound,
            messages: stats.messages,
        })
    }

    /// Lemma 3: the distributed block counting must classify every part
    /// exactly like the scheduled verification, report exact counts for
    /// good parts, and stay within `(3·threshold + 2)(2L + 1)` rounds.
    ///
    /// # Errors
    ///
    /// Reports mismatches and bound violations.
    pub fn block_counts(&self, threshold: usize) -> Result<CheckedRun> {
        let active = vec![true; self.partition.part_count()];
        let scheduled = verification(
            self.graph,
            self.tree,
            self.partition,
            self.shortcut,
            threshold,
            &active,
        );
        let question = BlockCounting {
            graph: self.graph,
            tree: self.tree,
            partition: self.partition,
            shortcut: self.shortcut,
            threshold,
            active: &active,
        };
        let simulated = verification_simulated(&question, None, &Obs::off())?;
        if simulated.outcome.good != scheduled.good {
            return Err(DistError::Mismatch {
                reason: format!(
                    "verification flags {:?} vs scheduled {:?} (threshold {threshold})",
                    simulated.outcome.good, scheduled.good
                ),
            });
        }
        for p in self.partition.parts() {
            if scheduled.good[p.index()]
                && simulated.outcome.block_counts[p.index()] != scheduled.block_counts[p.index()]
            {
                return Err(DistError::Mismatch {
                    reason: format!(
                        "part {p} count {} vs scheduled {}",
                        simulated.outcome.block_counts[p.index()],
                        scheduled.block_counts[p.index()]
                    ),
                });
            }
        }
        let window = 2 * self.family.schedule().rounds + 1;
        let bound = counting_supersteps(threshold) * window;
        Self::check_bound(simulated.stats, bound, "block counting")?;
        Ok(CheckedRun {
            charged: scheduled.rounds,
            executed: simulated.outcome.rounds,
            bound: bound + u64::from(self.tree.depth_of_tree()),
            messages: simulated.stats.messages,
        })
    }

    /// The operational Theorem 2 bound `b(2L + 1)`.
    pub fn theorem2_bound(&self) -> u64 {
        self.family.block_parameter().max(1) as u64 * (2 * self.family.schedule().rounds + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_core::existential::ancestor_shortcut;
    use lcs_graph::{generators, EdgeWeights, NodeId};

    #[test]
    fn full_harness_on_a_grid() {
        let g = generators::grid(6, 6);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(6, 6);
        let s = ancestor_shortcut(&g, &t, &p);
        let check = CrossCheck::new(&g, &t, &p, &s).unwrap();

        let ones: Vec<Option<u64>> = g.nodes().map(|v| p.part_of(v).map(|_| 1)).collect();
        let conv = check.convergecast(&ones, AggregateOp::Sum).unwrap();
        assert_eq!(conv.charged, conv.executed);

        let leaders = check.leader_election().unwrap();
        assert!(leaders.executed <= leaders.bound);

        let w = EdgeWeights::random_permutation(&g, 5);
        let candidates = crate::min_edge_candidates(&g, &p, &w);
        let min_edge = check.min_edge(&candidates).unwrap();
        assert!(min_edge.executed <= min_edge.bound);

        let counts = check.block_counts(2).unwrap();
        assert!(counts.executed <= counts.bound);
    }

    #[test]
    fn harness_on_the_wheel() {
        let g = generators::wheel(33);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::wheel_arcs(33, 4);
        let s = ancestor_shortcut(&g, &t, &p);
        let check = CrossCheck::new(&g, &t, &p, &s).unwrap();
        check.leader_election().unwrap();
        check.block_counts(1).unwrap();
    }
}
