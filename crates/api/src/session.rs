//! The two-phase front door: [`Pipeline`] (configure once) →
//! [`Session`] (query many times).
//!
//! A `Session` is bound to one graph and owns everything that is reusable
//! across queries on that graph: the rooted spanning tree, the resolved
//! [`SimConfig`] (bandwidth, tracing, engine thread count, fault plan), and
//! the epoch-stamped [`lcs_core::QualityPool`]s of the quality
//! measurements, built on first use. Repeated queries — `shortcut`,
//! `quality`, `verify`, `mst`, and the multi-query [`Session::batch`] —
//! therefore allocate only their per-query results, never per-graph state;
//! that is the serving posture the experiment tables measure in E11.

use std::sync::Mutex;
use std::time::Instant;

use lcs_congest::{FaultPlan, RoundCost, RoundTrace, SimConfig};
use lcs_core::construction::{
    build_corpus, core_fast, core_slow, doubling_search, repair_corpus, verification,
    CoreFastConfig, CoreOutcome, DoublingConfig, RepairStats, ShortcutCorpus, VerificationOutcome,
    Verifier,
};
use lcs_core::routing::ExecutionMode;
use lcs_core::{QualityPool, ShortcutQuality, TreeShortcut};
use lcs_dist::{verification_simulated, BlockCounting, DistVerificationOutcome};
use lcs_graph::{
    is_connected, EdgeId, EdgeWeights, Graph, GraphError, LcsError, LcsResult, Partition,
    PartitionDelta, RootedTree, Threads,
};
use lcs_mst::ShortcutStrategy;
use lcs_obs::Obs;

use crate::{CoreKind, Report, Strategy, TreeSpec};

/// The entry point of the façade: a builder that fixes the per-graph
/// choices (tree, thread count, execution mode, seed, tracing) and
/// [`Pipeline::build`]s a [`Session`].
///
/// ```
/// use lcs_api::{Pipeline, Strategy};
/// use lcs_graph::generators;
///
/// let graph = generators::grid(8, 8);
/// let partition = generators::partitions::grid_columns(8, 8);
/// let session = Pipeline::on(&graph).build().unwrap();
/// let run = session.shortcut(&partition, Strategy::doubling()).unwrap();
/// assert!(run.report.all_parts_good);
/// let quality = session.quality(&run.shortcut, &partition).unwrap();
/// assert!(quality.block_parameter <= 3 * run.winning_guess().unwrap().1);
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline<'g> {
    graph: &'g Graph,
    tree: TreeSpec,
    threads: Threads,
    execution: ExecutionMode,
    seed: u64,
    trace: bool,
    recorder: Obs,
    fault: Option<FaultPlan>,
}

impl<'g> Pipeline<'g> {
    /// Starts a pipeline on `graph` with the defaults: BFS tree rooted at
    /// node 0, `Threads::Auto`, scheduled execution, seed 0, no tracing,
    /// instrumentation off.
    pub fn on(graph: &'g Graph) -> Self {
        Pipeline {
            graph,
            tree: TreeSpec::default(),
            threads: Threads::Auto,
            execution: ExecutionMode::Scheduled,
            seed: 0,
            trace: false,
            recorder: Obs::off(),
            fault: None,
        }
    }

    /// Attaches an instrumentation handle: the session reports per-query
    /// counters and latency timers (`serve/{kind}/*`), and `Simulated`
    /// queries additionally report the protocol and engine probes
    /// (`dist/*`, `engine/*`), through it. The default ([`Obs::off`])
    /// costs one branch per probe; query results are identical either way.
    pub fn recorder(mut self, obs: Obs) -> Self {
        self.recorder = obs;
        self
    }

    /// Chooses how the spanning tree is obtained (see [`TreeSpec`]).
    pub fn tree(mut self, tree: TreeSpec) -> Self {
        self.tree = tree;
        self
    }

    /// Sets the worker-thread count as a value ([`Threads::Auto`] defers
    /// to the `LCS_THREADS` environment variable at build time). This is
    /// the only thread knob of a session: it selects the simulator's round
    /// engine and sizes the quality pool.
    pub fn threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the execution mode: `Scheduled` charges the exact centralized
    /// schedules (the default), `Simulated` runs the distributed protocols
    /// as real message passing.
    pub fn execution(mut self, execution: ExecutionMode) -> Self {
        self.execution = execution;
        self
    }

    /// Sets the random seed used by randomized constructions and MST coin
    /// flips.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables per-round simulator tracing for `Simulated` queries; the
    /// trace surfaces on [`VerifyRun::trace`].
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Injects a deterministic fault plan into `Simulated` queries:
    /// per-edge latency, message loss/duplication, stragglers, and crash
    /// schedules, all a pure function of the plan's seed. Every query that
    /// passes messages runs under the plan and answers exactly as without
    /// it — the same shortcut, repair corpus, MST edges, verdicts and block
    /// counts — or returns [`LcsError::Degraded`]; only rounds and traffic
    /// grow. An inactive plan (all knobs zero) is identical to no plan at
    /// all.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Validates the configuration and builds the [`Session`], performing
    /// the one-time per-graph work (the BFS tree unless one is provided).
    ///
    /// # Errors
    ///
    /// [`LcsError::InconsistentInputs`] for an empty or disconnected graph
    /// or a provided tree that is not a spanning tree of the graph
    /// ([`RootedTree::spans`]);
    /// [`LcsError::Graph`] for a BFS root out of range;
    /// [`LcsError::Config`] for a fixed thread count of zero.
    pub fn build(self) -> LcsResult<Session<'g>> {
        let graph = self.graph;
        if graph.node_count() == 0 {
            return Err(LcsError::InconsistentInputs {
                reason: "a session needs a nonempty graph".to_string(),
            });
        }
        // A BFS tree from a valid root doubles as the connectivity check;
        // only without one does connectivity take a search of its own.
        let bfs_tree = match self.tree {
            TreeSpec::Bfs(root) if root.index() < graph.node_count() => {
                RootedTree::try_bfs(graph, root).ok()
            }
            _ => None,
        };
        if bfs_tree.is_none() && !is_connected(graph) {
            return Err(LcsError::InconsistentInputs {
                reason:
                    "a session needs a connected graph (shortcuts route over one spanning tree)"
                        .to_string(),
            });
        }
        if let Threads::Fixed(0) = self.threads {
            return Err(LcsError::Config {
                reason: "thread count must be at least 1 (got 0)".to_string(),
            });
        }
        let tree = match self.tree {
            // Connected, so only an out-of-range root leaves no tree.
            TreeSpec::Bfs(root) => bfs_tree.ok_or(LcsError::Graph(GraphError::NodeOutOfRange {
                node: root,
                node_count: graph.node_count(),
            }))?,
            TreeSpec::Provided(tree) => {
                if !tree.spans(graph) {
                    return Err(LcsError::InconsistentInputs {
                        reason: format!(
                            "provided tree ({} nodes) is not a spanning tree of the graph \
                             ({} nodes, {} edges)",
                            tree.node_count(),
                            graph.node_count(),
                            graph.edge_count()
                        ),
                    });
                }
                tree
            }
        };
        let threads = self.threads.resolve();
        let mut sim_config = SimConfig::for_graph(graph).with_threads(threads);
        if self.trace {
            sim_config = sim_config.with_trace();
        }
        if let Some(plan) = self.fault {
            sim_config = sim_config.with_fault(plan);
        }
        Ok(Session {
            graph,
            tree,
            pool: PoolBank::default(),
            threads,
            execution: self.execution,
            seed: self.seed,
            sim_config,
            obs: self.recorder,
        })
    }
}

/// A per-graph serving session: the owner of every piece of state that can
/// be amortized across queries. Created by [`Pipeline::build`].
pub struct Session<'g> {
    graph: &'g Graph,
    tree: RootedTree,
    pool: PoolBank,
    threads: usize,
    execution: ExecutionMode,
    seed: u64,
    sim_config: SimConfig,
    pub(crate) obs: Obs,
}

/// Free-list cap: workspaces returned while the list is full are dropped
/// instead of pooled, so a burst of concurrent queries cannot pin more
/// than this many per-graph workspaces for the session's lifetime.
const MAX_POOLED_WORKSPACES: usize = 16;

/// The lock-protected free-list of quality workspaces behind every
/// `&self` query path — the checkout scheme that makes one warm session
/// shareable across server worker threads.
///
/// A query checks one [`QualityPool`] out (allocating a fresh one only
/// when every pooled workspace is already in use), runs with exclusive
/// access to it, and returns it. The bank starts empty, so a session that
/// never measures quality never builds a workspace, and the sequential
/// serving path (one query at a time) allocates one on its first quality
/// query only. The lock is held for the push/pop only, never across a
/// query. Workspaces are epoch-stamped, so a query observes byte-identical
/// values whether it got a reused pool, a fresh one, or the pool another
/// thread just returned — concurrency changes which workspace serves a
/// query, never what the query answers.
#[derive(Default)]
struct PoolBank {
    free: Mutex<Vec<QualityPool>>,
}

impl PoolBank {
    fn checkout(&self, graph: &Graph, threads: usize) -> QualityPool {
        let pooled = self.free.lock().expect("quality pool bank poisoned").pop();
        pooled.unwrap_or_else(|| QualityPool::new(graph, threads))
    }

    fn give_back(&self, pool: QualityPool) {
        let mut free = self.free.lock().expect("quality pool bank poisoned");
        if free.len() < MAX_POOLED_WORKSPACES {
            free.push(pool);
        }
    }
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("nodes", &self.graph.node_count())
            .field("edges", &self.graph.edge_count())
            .field("threads", &self.threads)
            .field("execution", &self.execution)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// Result of a [`Session::shortcut`] (or one [`Session::batch`] entry):
/// the constructed shortcut plus its unified [`Report`].
#[derive(Debug, Clone)]
pub struct ShortcutRun {
    /// The constructed tree-restricted shortcut.
    pub shortcut: TreeShortcut,
    /// The unified query report. Construction queries always record at
    /// least one [`Attempt`](crate::Attempt); batch entries additionally fill
    /// [`Report::quality`].
    pub report: Report,
}

impl ShortcutRun {
    /// The `(congestion, block)` guess of the successful attempt, `None`
    /// if the construction did not succeed.
    pub fn winning_guess(&self) -> Option<(usize, usize)> {
        self.report
            .attempts
            .iter()
            .rev()
            .find(|a| a.succeeded)
            .map(|a| (a.congestion_guess, a.block_guess))
    }

    /// Total CONGEST rounds charged for the construction.
    pub fn total_rounds(&self) -> u64 {
        self.report.rounds_charged
    }
}

/// Result of a [`Session::verify`] query.
#[derive(Debug, Clone)]
pub struct VerifyRun {
    /// `good[p]` — part `p` has at most the threshold number of block
    /// components.
    pub good: Vec<bool>,
    /// Measured block-component count per part (0 for parts classified
    /// bad by the simulated protocol).
    pub block_counts: Vec<usize>,
    /// Per-round simulator trace (`Simulated` execution with
    /// [`Pipeline::trace`] enabled; empty otherwise).
    pub trace: Vec<RoundTrace>,
    /// The unified query report (`rounds_executed` and `sim` are filled in
    /// `Simulated` mode).
    pub report: Report,
}

/// Result of a [`Session::track_partition`] / [`Session::repair_from`]
/// query: the assembled shortcut and quality for the (post-delta)
/// partition, the repair accounting, and the baseline the next delta
/// repairs from.
#[derive(Debug, Clone)]
pub struct RepairRun {
    /// The shortcut for the current partition, assembled from the
    /// baseline's corpus — byte-identical to rebuilding every part from
    /// scratch.
    pub shortcut: TreeShortcut,
    /// Aggregated quality, re-aggregated from the per-part measurements
    /// the baseline keeps (exact congestion subtract/add, no recount).
    pub quality: ShortcutQuality,
    /// `good[p]` — part `p` verified good within its attempt budget.
    pub good: Vec<bool>,
    /// Parts (re)built by scoped construction runs.
    pub repaired_parts: usize,
    /// Parts whose state the baseline kept was reused verbatim.
    pub reused_parts: usize,
    /// The unified query report; `rounds_charged` counts only the rounds
    /// of the (re)built parts, and `metrics` records
    /// `repaired_parts` / `reused_parts`.
    pub report: Report,
    /// This run's partition with its customization corpus: hand it to
    /// [`Session::repair_from`] with the next delta, so repairs chain
    /// without any state in the session.
    pub baseline: RepairBaseline,
}

/// A partition together with its customization corpus (every part's
/// construction state and measured quality), as a [`RepairRun`] returns
/// it — the borrowed input of [`Session::repair_from`] and of a
/// [`crate::Query::Repair`], so serving a repair is a pure function of
/// `(baseline, delta)`. The corpus is valid for the seed and execution
/// mode of the session that built it.
#[derive(Debug, Clone)]
pub struct RepairBaseline {
    strategy: Strategy,
    partition: Partition,
    corpus: ShortcutCorpus,
    config: DoublingConfig,
}

impl RepairBaseline {
    /// The tracked partition deltas apply to.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The strategy the corpus was built under.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }
}

/// Result of a [`Session::mst`] query.
#[derive(Debug, Clone)]
pub struct MstRun {
    /// The MST edges, sorted by edge id.
    pub edges: Vec<EdgeId>,
    /// Total weight of the returned edges.
    pub weight: u64,
    /// Number of Boruvka phases executed.
    pub phases: usize,
    /// Exact round cost, broken down per phase and per step.
    pub cost: RoundCost,
    /// The unified query report (`metrics` records `phases` and `weight`).
    pub report: Report,
}

impl<'g> Session<'g> {
    /// The graph the session serves.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The spanning tree every tree-restricted query routes over.
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// The resolved worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The execution mode queries currently run under.
    pub fn execution(&self) -> ExecutionMode {
        self.execution
    }

    /// Switches the execution mode for subsequent queries.
    pub fn set_execution(&mut self, execution: ExecutionMode) {
        self.execution = execution;
    }

    /// The random seed subsequent queries use.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The simulator configuration `Simulated` queries run with.
    pub fn sim_config(&self) -> SimConfig {
        self.sim_config
    }

    /// The instrumentation handle queries report through (off unless
    /// [`Pipeline::recorder`] attached one).
    pub fn recorder(&self) -> &Obs {
        &self.obs
    }

    /// Checks that `partition` is over the session's graph and, when a
    /// shortcut comes with it, that the shortcut is over a graph with the
    /// session graph's edge count and has one edge set per part. Both
    /// checks are O(1); a shortcut over another graph with the same node,
    /// edge and part counts passes them (DESIGN §2a).
    fn check_partition(
        &self,
        partition: &Partition,
        shortcut: Option<&TreeShortcut>,
    ) -> LcsResult<()> {
        if partition.node_count() != self.graph.node_count() {
            return Err(LcsError::InconsistentInputs {
                reason: format!(
                    "partition defined over {} nodes but the session's graph has {}",
                    partition.node_count(),
                    self.graph.node_count()
                ),
            });
        }
        let Some(shortcut) = shortcut else {
            return Ok(());
        };
        if shortcut.edge_count() != self.graph.edge_count() {
            return Err(LcsError::InconsistentInputs {
                reason: format!(
                    "shortcut defined over {} edges but the session's graph has {}",
                    shortcut.edge_count(),
                    self.graph.edge_count()
                ),
            });
        }
        if shortcut.part_count() != partition.part_count() {
            return Err(LcsError::InconsistentInputs {
                reason: format!(
                    "shortcut built for {} parts but the partition has {}",
                    shortcut.part_count(),
                    partition.part_count()
                ),
            });
        }
        Ok(())
    }

    /// The session's one Lemma 3 verification, behind [`Session::verify`]
    /// and every construction's verifier: `Scheduled` runs the centralized
    /// schedule, `Simulated` the message-passing block counting with the
    /// session's simulator configuration (threads, tracing and fault plan
    /// included) and recorder; the run comes back beside the outcome, which
    /// is moved out of it.
    fn classify(
        &self,
        graph: &Graph,
        tree: &RootedTree,
        partition: &Partition,
        shortcut: &TreeShortcut,
        threshold: usize,
        active: &[bool],
    ) -> LcsResult<(VerificationOutcome, Option<DistVerificationOutcome>)> {
        if self.execution == ExecutionMode::Scheduled {
            let outcome = verification(graph, tree, partition, shortcut, threshold, active);
            return Ok((outcome, None));
        }
        let question = BlockCounting {
            graph,
            tree,
            partition,
            shortcut,
            threshold,
            active,
        };
        let mut run = verification_simulated(&question, Some(self.sim_config), &self.obs)?;
        Ok((std::mem::take(&mut run.outcome), Some(run)))
    }

    /// The verifier every construction of the session runs with — shortcut
    /// queries, repair builds and every Boruvka phase: [`Session::classify`].
    /// Under a fault plan its outcome is the fault-free one or a typed
    /// `Degraded` error, never a failed verification the doubling search
    /// would read as "guess too small".
    fn verifier(&self) -> impl Verifier + '_ {
        move |graph: &Graph,
              tree: &RootedTree,
              partition: &Partition,
              shortcut: &TreeShortcut,
              threshold: usize,
              active: &[bool]| {
            Ok(self
                .classify(graph, tree, partition, shortcut, threshold, active)?
                .0)
        }
    }

    /// Constructs a tree-restricted shortcut for `partition` with the
    /// given [`Strategy`]. The session's tree, seed and execution mode
    /// apply; no per-graph state is allocated.
    ///
    /// # Errors
    ///
    /// [`LcsError::InconsistentInputs`] for a partition over a different
    /// node count, [`LcsError::BudgetExhausted`] when a doubling search
    /// ([`Strategy::Doubling`] / [`Strategy::SlowCore`]) exhausts its
    /// doubling budget (`remaining_bad` counts the parts its last attempt
    /// left bad), and simulation errors from `Simulated` execution
    /// ([`LcsError::Degraded`] when a fault plan stalls every epoch). A
    /// [`Strategy::Fixed`] run — the loop with zero doublings — whose
    /// parameters turn out too small is *not* an error: it returns `Ok`
    /// with [`Report::all_parts_good`] `false` and the partial shortcut.
    pub fn shortcut(&self, partition: &Partition, strategy: Strategy) -> LcsResult<ShortcutRun> {
        self.check_partition(partition, None)?;
        let start = Instant::now();
        let (config, budget_is_error) = strategy.doubling_config(self.seed);
        let active = vec![true; partition.part_count()];
        let result = doubling_search(
            self.graph,
            &self.tree,
            partition,
            &active,
            &config,
            None,
            self.verifier(),
        )?;
        if budget_is_error && !result.all_parts_good {
            return Err(LcsError::BudgetExhausted {
                iterations: result.attempts.len(),
                remaining_bad: result.remaining_bad,
            });
        }
        let mut report = Report::new("shortcut");
        report.strategy = Some(strategy.label().to_string());
        report.rounds_charged = result.total_rounds();
        report.attempts = result.attempts;
        report.iterations = result.iterations;
        report.all_parts_good = result.all_parts_good;
        report.wall_millis = start.elapsed().as_secs_f64() * 1e3;
        Ok(ShortcutRun {
            shortcut: result.shortcut,
            report,
        })
    }

    /// Measures congestion, dilation and block parameter of `shortcut`
    /// against `partition`, checking a quality workspace out of the
    /// session's pool bank (no allocation on the warm sequential path).
    /// The values are identical for every thread count and for any number
    /// of concurrent callers.
    ///
    /// # Errors
    ///
    /// [`LcsError::InconsistentInputs`] for a partition over a different
    /// node count or a shortcut built for a different part count.
    pub fn quality(
        &self,
        shortcut: &TreeShortcut,
        partition: &Partition,
    ) -> LcsResult<ShortcutQuality> {
        self.check_partition(partition, Some(shortcut))?;
        Ok(self.with_pool(|pool| shortcut.quality_with(self.graph, partition, pool)))
    }

    /// Checks a quality workspace out of the bank, runs `f` with
    /// exclusive access to it, and returns it. Workspaces are
    /// epoch-stamped, so pool identity never affects measured values —
    /// the property that lets `&self` queries share one session across
    /// threads while staying byte-identical to the sequential path.
    fn with_pool<R>(&self, f: impl FnOnce(&mut QualityPool) -> R) -> R {
        let mut pool = self.pool.checkout(self.graph, self.threads);
        let result = f(&mut pool);
        self.pool.give_back(pool);
        result
    }

    /// Classifies every part of `partition` against `threshold` block
    /// components (the Lemma 3 verification): `Scheduled` execution charges
    /// the exact centralized schedule, `Simulated` runs the distributed
    /// counting protocol and fills [`Report::sim`] /
    /// [`Report::rounds_executed`].
    ///
    /// With a [`Pipeline::fault`] plan and `Simulated` execution, incomplete
    /// epochs are retried (see [`lcs_dist::verification_simulated`]), so the
    /// verdicts and counts are the fault-free ones; the report's rounds and
    /// traffic cover every epoch, and it gains `retry_epochs` /
    /// `retry_stalls` metrics.
    ///
    /// # Errors
    ///
    /// [`LcsError::InconsistentInputs`] for a mismatched partition or a
    /// shortcut built for a different part count; [`LcsError::Config`] for
    /// a threshold of 0, which no part meets (every part has a block);
    /// simulation errors in `Simulated` mode; [`LcsError::Degraded`] when an
    /// injected fault plan stalls every epoch.
    pub fn verify(
        &self,
        shortcut: &TreeShortcut,
        partition: &Partition,
        threshold: usize,
    ) -> LcsResult<VerifyRun> {
        self.check_partition(partition, Some(shortcut))?;
        if threshold == 0 {
            return Err(LcsError::Config {
                reason: "the block threshold must be at least 1 (got 0)".to_string(),
            });
        }
        let start = Instant::now();
        let mut report = Report::new("verify");
        let active = vec![true; partition.part_count()];
        let (graph, tree) = (self.graph, &self.tree);
        let (outcome, run) = self.classify(graph, tree, partition, shortcut, threshold, &active)?;
        let mut trace = Vec::new();
        if let Some(run) = run {
            if self.sim_config.active_fault().is_some() {
                let retries = [("retry_epochs", run.epochs), ("retry_stalls", run.stalls)];
                let retries = retries.map(|(name, count)| (name.to_string(), u64::from(count)));
                report.metrics.extend(retries);
            }
            report.rounds_executed = Some(run.stats.rounds);
            report.sim = Some(run.stats);
            trace = run.trace;
        }
        report.all_parts_good = outcome.good.iter().all(|&g| g);
        report.rounds_charged = outcome.rounds;
        report.wall_millis = start.elapsed().as_secs_f64() * 1e3;
        Ok(VerifyRun {
            good: outcome.good,
            block_counts: outcome.block_counts,
            trace,
            report,
        })
    }

    /// Runs one core subroutine step (Lemma 5 / Lemma 7) on all parts with
    /// congestion parameter `congestion` — the building block the
    /// construction experiments compare. `Fast` uses the session seed and
    /// the legacy sampling constant `γ = 2`.
    ///
    /// # Errors
    ///
    /// [`LcsError::InconsistentInputs`] for a mismatched partition.
    pub fn core(
        &self,
        partition: &Partition,
        kind: CoreKind,
        congestion: usize,
    ) -> LcsResult<CoreOutcome> {
        self.check_partition(partition, None)?;
        let active = vec![true; partition.part_count()];
        Ok(match kind {
            CoreKind::Slow => core_slow(self.graph, &self.tree, partition, congestion, &active),
            CoreKind::Fast => core_fast(
                self.graph,
                &self.tree,
                partition,
                &CoreFastConfig::new(congestion).with_seed(self.seed),
                &active,
            ),
        })
    }

    /// Runs distributed Boruvka MST (Lemma 4) over the session's graph
    /// with the given per-phase shortcut strategy. Every phase routes over
    /// the session's tree and constructs its shortcut with the session's
    /// seed and verifier; `Simulated` sessions also route by message
    /// passing with the session's simulator configuration, fault plan
    /// included: the edges are the fault-free ones, and only rounds grow.
    ///
    /// # Errors
    ///
    /// Propagates construction errors and reports
    /// [`LcsError::BudgetExhausted`] if a doubling phase exhausts its
    /// doublings or the phase cap is hit; [`LcsError::Degraded`] when a
    /// fault plan stalls every epoch of a phase's verification or flood.
    pub fn mst(&self, weights: &EdgeWeights, strategy: ShortcutStrategy) -> LcsResult<MstRun> {
        let start = Instant::now();
        let sim = match self.execution {
            ExecutionMode::Scheduled => None,
            ExecutionMode::Simulated => Some(self.sim_config),
        };
        let outcome = lcs_mst::boruvka_mst(
            self.graph,
            &self.tree,
            weights,
            strategy,
            self.seed,
            sim,
            self.verifier(),
        )?;
        let mut report = Report::new("mst");
        report.strategy = Some(format!("{strategy:?}"));
        report.all_parts_good = true;
        report.rounds_charged = outcome.total_rounds();
        report
            .metrics
            .push(("phases".to_string(), outcome.phases as u64));
        report.metrics.push(("weight".to_string(), outcome.weight));
        report.wall_millis = start.elapsed().as_secs_f64() * 1e3;
        Ok(MstRun {
            edges: outcome.edges,
            weight: outcome.weight,
            phases: outcome.phases,
            cost: outcome.cost,
            report,
        })
    }

    /// Serves a batch of shortcut queries — one per partition, all with
    /// the same strategy — reusing the session's workspaces across the
    /// whole slice and measuring each result's quality into its report.
    /// Equivalent to calling [`Session::shortcut`] then
    /// [`Session::quality`] per partition (the batch does not advance the
    /// seed between entries), just without any per-query setup.
    ///
    /// # Errors
    ///
    /// An empty `partitions` slice is a configuration error
    /// ([`LcsError::Config`]) — a batch with nothing to serve is always a
    /// caller bug, and surfacing it beats silently returning an empty
    /// `Vec`. Otherwise fails on the first query that fails, with that
    /// query's error.
    pub fn batch(
        &self,
        partitions: &[&Partition],
        strategy: Strategy,
    ) -> LcsResult<Vec<ShortcutRun>> {
        if partitions.is_empty() {
            return Err(LcsError::Config {
                reason: "batch requires at least one partition (got an empty query list)"
                    .to_string(),
            });
        }
        // A cloned handle (refcount bump) so the span guard doesn't hold a
        // borrow of `self` across the `&mut self` query calls.
        let obs = self.obs.clone();
        if obs.is_on() {
            obs.counter_add("session/batch/calls", 1);
            obs.counter_add("session/batch/queries", partitions.len() as u64);
        }
        let _span = lcs_obs::span!(obs, "session/batch");
        let mut runs = Vec::with_capacity(partitions.len());
        for &partition in partitions {
            let mut run = self.shortcut(partition, strategy)?;
            run.report.quality = Some(self.quality(&run.shortcut, partition)?);
            runs.push(run);
        }
        Ok(runs)
    }

    /// Assembles a [`RepairRun`] from a finished baseline.
    fn finish_repair(
        &self,
        baseline: RepairBaseline,
        stats: RepairStats,
        operation: &str,
        start: Instant,
    ) -> LcsResult<RepairRun> {
        let corpus = &baseline.corpus;
        let shortcut = corpus.assemble(self.graph, &self.tree, &baseline.partition)?;
        let quality = corpus.quality();
        let good: Vec<bool> = corpus.parts().iter().map(|p| p.good).collect();
        let mut report = Report::new(operation);
        report.strategy = Some(baseline.strategy.label().to_string());
        report.all_parts_good = corpus.all_good();
        report.rounds_charged = stats.rounds;
        report.iterations = corpus.parts().iter().map(|p| p.attempts).max().unwrap_or(0);
        report
            .metrics
            .push(("repaired_parts".to_string(), stats.repaired_parts as u64));
        report
            .metrics
            .push(("reused_parts".to_string(), stats.reused_parts as u64));
        report.wall_millis = start.elapsed().as_secs_f64() * 1e3;
        Ok(RepairRun {
            shortcut,
            quality,
            good,
            repaired_parts: stats.repaired_parts,
            reused_parts: stats.reused_parts,
            report,
            baseline,
        })
    }

    /// Builds the customization corpus for `partition`: every part
    /// constructed through the part-scoped path (per-part doubling search,
    /// seeds anchored at each part's minimum member). The returned
    /// [`RepairRun::baseline`] is what [`Session::repair_from`] repairs
    /// instead of rebuilding from scratch; the session keeps none of it.
    ///
    /// # Errors
    ///
    /// [`LcsError::InconsistentInputs`] for a partition over a different
    /// node count; [`LcsError::BudgetExhausted`] when a doubling strategy
    /// exhausts its budget on some part (a [`Strategy::Fixed`] run whose
    /// parameters are too small is not an error, mirroring
    /// [`Session::shortcut`]); simulation errors in `Simulated` mode,
    /// [`LcsError::Degraded`] among them.
    pub fn track_partition(
        &self,
        partition: &Partition,
        strategy: Strategy,
    ) -> LcsResult<RepairRun> {
        self.check_partition(partition, None)?;
        let start = Instant::now();
        let (config, budget_is_error) = strategy.doubling_config(self.seed);
        let corpus = self.with_pool(|pool| {
            build_corpus(
                self.graph,
                &self.tree,
                partition,
                &config,
                pool,
                self.verifier(),
            )
        })?;
        check_budget(&corpus, budget_is_error)?;
        let stats = RepairStats {
            repaired_parts: partition.part_count(),
            reused_parts: 0,
            rounds: corpus.total_rounds(),
        };
        let baseline = RepairBaseline {
            strategy,
            partition: partition.clone(),
            corpus,
            config,
        };
        self.finish_repair(baseline, stats, "track", start)
    }

    /// Applies `delta` to `baseline`'s partition and repairs its corpus:
    /// parts whose member set the delta left unchanged keep their block
    /// assignments, routing state and quality verbatim; only the parts it
    /// edited or created are rebuilt, and congestion is re-aggregated by
    /// exact subtraction. The result is byte-identical to
    /// [`Session::track_partition`] on the post-delta partition — at the
    /// cost of the edited parts' volume, not `n` — and its
    /// [`RepairRun::baseline`] is the post-delta baseline the next delta
    /// repairs from. A pure function of `(baseline, delta)`: this is the
    /// entry behind [`crate::Query::Repair`], so a workload driver can
    /// replay the same pre-generated pair any number of times and always
    /// observe the same result.
    ///
    /// # Errors
    ///
    /// [`LcsError::InconsistentInputs`] for a baseline over a different
    /// node count; [`LcsError::Config`] if the delta is structurally
    /// invalid (including any op that would empty a part) or leaves an
    /// edited part disconnected;
    /// [`LcsError::BudgetExhausted`] when a doubling strategy exhausts its
    /// budget on a rebuilt part; simulation errors in `Simulated` mode,
    /// [`LcsError::Degraded`] among them.
    pub fn repair_from(
        &self,
        baseline: &RepairBaseline,
        delta: &PartitionDelta,
    ) -> LcsResult<RepairRun> {
        self.check_partition(&baseline.partition, None)?;
        let obs = self.obs.clone();
        let _span = lcs_obs::span!(obs, "session/repair");
        let start = Instant::now();
        let applied = baseline.partition.apply_tracked(self.graph, delta)?;
        // Parts without an origin are rebuilt with the session's tree and
        // verifier; everything else is reused.
        let (corpus, stats) = self.with_pool(|pool| {
            repair_corpus(
                self.graph,
                &self.tree,
                &applied.partition,
                &baseline.corpus,
                &applied.origin,
                &baseline.config,
                pool,
                self.verifier(),
            )
        })?;
        let (_, budget_is_error) = baseline.strategy.doubling_config(self.seed);
        check_budget(&corpus, budget_is_error)?;
        let next = RepairBaseline {
            strategy: baseline.strategy,
            partition: applied.partition,
            corpus,
            config: baseline.config,
        };
        let run = self.finish_repair(next, stats, "repair", start)?;
        if obs.is_on() {
            obs.counter_add("session/repairs", 1);
            obs.counter_add("session/repaired_parts", stats.repaired_parts as u64);
            obs.counter_add("session/reused_parts", stats.reused_parts as u64);
            obs.timer_record("session/repair/latency", start.elapsed().as_nanos() as u64);
        }
        Ok(run)
    }
}

/// The typed error of a doubling strategy that ended with bad parts.
fn check_budget(corpus: &ShortcutCorpus, budget_is_error: bool) -> LcsResult<()> {
    if budget_is_error && !corpus.all_good() {
        return Err(LcsError::BudgetExhausted {
            iterations: corpus.parts().iter().map(|p| p.attempts).max().unwrap_or(0),
            remaining_bad: corpus.parts().iter().filter(|p| !p.good).count(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DoublingSpec;
    use lcs_graph::{generators, NodeId, PartId};

    #[test]
    fn repair_probes_are_thread_invariant() {
        let graph = generators::grid(8, 8);
        let partition = generators::partitions::grid_columns(8, 8);
        let delta = PartitionDelta::new().move_nodes(vec![NodeId::new(1)], PartId::new(0));
        let mut facts = Vec::new();
        for threads in [1usize, 4] {
            let obs = lcs_obs::Obs::recording();
            let session = Pipeline::on(&graph)
                .seed(5)
                .threads(Threads::Fixed(threads))
                .recorder(obs.clone())
                .build()
                .unwrap();
            let tracked = session
                .track_partition(&partition, Strategy::doubling())
                .unwrap();
            session.repair_from(&tracked.baseline, &delta).unwrap();
            let snapshot = obs.snapshot();
            assert_eq!(snapshot.counter("session/repairs"), Some(1));
            // The per-repair latency timer and the repair span both
            // recorded exactly one sample.
            assert_eq!(snapshot.timer("session/repair/latency").unwrap().count(), 1);
            assert_eq!(snapshot.timer("session/repair").unwrap().count(), 1);
            facts.push((
                snapshot.counter("session/repairs"),
                snapshot.counter("session/repaired_parts"),
                snapshot.counter("session/reused_parts"),
            ));
        }
        // Counters are facts about the repair, identical at any engine
        // thread count.
        assert_eq!(facts[0], facts[1]);
        assert_eq!(facts[0].1, Some(2), "a boundary move dirties two parts");
    }

    #[test]
    fn sessions_are_shareable_across_threads() {
        // The compile-time half of the serving story: one warm session can
        // be borrowed by any number of server worker threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session<'static>>();
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let g = generators::grid(4, 4);
        let err = Pipeline::on(&g)
            .tree(TreeSpec::Bfs(NodeId::new(99)))
            .build()
            .unwrap_err();
        assert!(matches!(err, LcsError::Graph(_)));

        let err = Pipeline::on(&g)
            .threads(Threads::Fixed(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, LcsError::Config { .. }));

        let other = generators::grid(3, 3);
        let err = Pipeline::on(&g)
            .tree(TreeSpec::Provided(RootedTree::bfs(&other, NodeId::new(0))))
            .build()
            .unwrap_err();
        assert!(matches!(err, LcsError::InconsistentInputs { .. }));

        // A provided tree must span the session's graph, not only match
        // its node count: BFS trees of `random_connected(36, 32, 0)` (60
        // edges, as grid 6×6 has) and of `path(36)` are rejected.
        let grid = generators::grid(6, 6);
        let own = RootedTree::bfs(&grid, NodeId::new(14));
        assert!(Pipeline::on(&grid)
            .tree(TreeSpec::Provided(own))
            .build()
            .is_ok());
        for other in [
            generators::random_connected(36, 32, 0),
            generators::path(36),
        ] {
            let tree = RootedTree::bfs(&other, NodeId::new(0));
            let err = Pipeline::on(&grid)
                .tree(TreeSpec::Provided(tree))
                .build()
                .unwrap_err();
            assert!(matches!(err, LcsError::InconsistentInputs { .. }), "{err}");
        }

        let disconnected = Graph::from_edges(3, &[(NodeId::new(0), NodeId::new(1))]).unwrap();
        let err = Pipeline::on(&disconnected).build().unwrap_err();
        assert!(matches!(err, LcsError::InconsistentInputs { .. }));
        // Connectivity is reported first, whatever else is wrong.
        for pipeline in [
            Pipeline::on(&disconnected).tree(TreeSpec::Bfs(NodeId::new(2))),
            Pipeline::on(&disconnected).tree(TreeSpec::Bfs(NodeId::new(99))),
            Pipeline::on(&disconnected).threads(Threads::Fixed(0)),
        ] {
            let err = pipeline.build().unwrap_err();
            assert!(matches!(err, LcsError::InconsistentInputs { .. }));
        }
    }

    #[test]
    fn queries_reject_a_mismatched_partition() {
        let g = generators::grid(4, 4);
        let p_other = generators::partitions::grid_columns(3, 3);
        let session = Pipeline::on(&g).build().unwrap();
        let err = session
            .shortcut(&p_other, Strategy::doubling())
            .unwrap_err();
        assert!(matches!(err, LcsError::InconsistentInputs { .. }));
        let empty = TreeShortcut::empty(&g, &generators::partitions::grid_columns(4, 4));
        assert!(session.quality(&empty, &p_other).is_err());
        assert!(session.verify(&empty, &p_other, 1).is_err());
    }

    /// A shortcut answers only for a partition with its part count: one
    /// built for three balls against six columns, and one built for the
    /// columns against the balls, are typed errors, not a panic or block
    /// counts of the wrong parts, in both execution modes.
    #[test]
    fn queries_reject_a_shortcut_built_for_another_part_count() {
        let g = generators::grid(6, 6);
        let balls = generators::partitions::random_bfs_balls(&g, 3, 1);
        let columns = generators::partitions::grid_columns(6, 6);
        assert_eq!(balls.part_count(), 3);
        for execution in [ExecutionMode::Scheduled, ExecutionMode::Simulated] {
            let session = Pipeline::on(&g).execution(execution).build().unwrap();
            for (built_for, served) in [(&balls, &columns), (&columns, &balls)] {
                let shortcut = session
                    .shortcut(built_for, Strategy::doubling())
                    .unwrap()
                    .shortcut;
                let err = session.quality(&shortcut, served).unwrap_err();
                assert!(matches!(err, LcsError::InconsistentInputs { .. }), "{err}");
                let err = session.verify(&shortcut, served, 3).unwrap_err();
                assert!(matches!(err, LcsError::InconsistentInputs { .. }), "{err}");
            }
        }
    }

    /// A shortcut answers only on the graph it was built over: the columns
    /// shortcut of grid 6×6 served to a session on `path(36)` with six
    /// parts (same node and part counts, 35 edges instead of 60) is a typed
    /// error, not an out-of-range panic, in both execution modes.
    #[test]
    fn queries_reject_a_shortcut_built_over_another_graph() {
        let grid = generators::grid(6, 6);
        let columns = generators::partitions::grid_columns(6, 6);
        let shortcut = Pipeline::on(&grid)
            .build()
            .unwrap()
            .shortcut(&columns, Strategy::doubling())
            .unwrap()
            .shortcut;
        let path = generators::path(36);
        let runs =
            Partition::from_assignment(36, (0..36).map(|v| Some(PartId::new(v / 6))).collect())
                .unwrap();
        assert_eq!(runs.part_count(), columns.part_count());
        for execution in [ExecutionMode::Scheduled, ExecutionMode::Simulated] {
            let session = Pipeline::on(&path).execution(execution).build().unwrap();
            let err = session.quality(&shortcut, &runs).unwrap_err();
            assert!(matches!(err, LcsError::InconsistentInputs { .. }), "{err}");
            let err = session.verify(&shortcut, &runs, 3).unwrap_err();
            assert!(matches!(err, LcsError::InconsistentInputs { .. }), "{err}");
        }
    }

    /// Every part has at least one block, so a threshold of 0 classifies
    /// nothing: it is a typed configuration error in both execution modes,
    /// through `verify` and through a served `Query::Verify`.
    #[test]
    fn verify_rejects_a_zero_threshold() {
        let g = generators::grid(6, 6);
        let p = generators::partitions::grid_columns(6, 6);
        for execution in [ExecutionMode::Scheduled, ExecutionMode::Simulated] {
            let session = Pipeline::on(&g).execution(execution).build().unwrap();
            let shortcut = session.shortcut(&p, Strategy::doubling()).unwrap().shortcut;
            let err = session.verify(&shortcut, &p, 0).unwrap_err();
            assert!(matches!(err, LcsError::Config { .. }), "{err}");
            let query = crate::Query::Verify {
                shortcut: &shortcut,
                partition: &p,
                threshold: 0,
            };
            let err = session.serve_shared(query).unwrap_err();
            assert!(matches!(err, LcsError::Config { .. }), "{err}");
            assert!(session.verify(&shortcut, &p, 1).is_ok());
        }
    }

    #[test]
    fn doubling_budget_exhaustion_maps_to_the_unified_error() {
        let (g, layout) = generators::lower_bound_graph(8, 16);
        let p = generators::partitions::lower_bound_paths(&layout);
        let session = Pipeline::on(&g)
            .tree(TreeSpec::Bfs(layout.connector(0)))
            .build()
            .unwrap();
        let err = session
            .shortcut(
                &p,
                Strategy::Doubling(DoublingSpec {
                    max_doublings: 0,
                    ..DoublingSpec::default()
                }),
            )
            .unwrap_err();
        assert!(matches!(err, LcsError::BudgetExhausted { .. }));

        // `remaining_bad` counts the parts the last attempt left bad: the
        // single attempt at (1, 1) verifies 10 of these 16 balls good.
        let g = generators::torus(16, 16);
        let p = generators::partitions::random_bfs_balls(&g, 16, 31);
        let session = Pipeline::on(&g).build().unwrap();
        let err = session
            .shortcut(
                &p,
                Strategy::Doubling(DoublingSpec {
                    max_doublings: 0,
                    ..DoublingSpec::default()
                }),
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                LcsError::BudgetExhausted {
                    iterations: 1,
                    remaining_bad: 6
                }
            ),
            "got: {err}"
        );
        assert_eq!(
            err.to_string(),
            "construction stopped after 1 iterations with 6 parts still bad"
        );
    }

    #[test]
    fn mst_routes_over_the_session_tree() {
        let g = generators::grid(12, 12);
        let w = EdgeWeights::random_permutation(&g, 5);
        let mut depths = Vec::new();
        for root in [77, 0] {
            let session = Pipeline::on(&g)
                .tree(TreeSpec::Bfs(NodeId::new(root)))
                .seed(3)
                .build()
                .unwrap();
            let depth = u64::from(session.tree().depth_of_tree());
            let run = session.mst(&w, ShortcutStrategy::Doubling).unwrap();
            assert_eq!(run.edges, lcs_graph::kruskal_mst(&g, &w), "root {root}");
            assert_eq!(run.cost.entries()[0], ("bfs-tree".to_string(), depth));
            assert_eq!(
                run.cost.total_for_prefix("phase-1/termination-check"),
                depth
            );
            depths.push(depth);
        }
        assert_eq!(
            depths,
            [12, 22],
            "the central root gives the shallower tree"
        );
    }

    #[test]
    fn simulated_mst_constructs_with_message_passing_verification() {
        let g = generators::grid(6, 6);
        let w = EdgeWeights::random_permutation(&g, 2);
        let obs = lcs_obs::Obs::recording();
        let session = Pipeline::on(&g)
            .seed(1)
            .execution(ExecutionMode::Simulated)
            .recorder(obs.clone())
            .build()
            .unwrap();
        let run = session.mst(&w, ShortcutStrategy::Doubling).unwrap();
        assert_eq!(run.edges, lcs_graph::kruskal_mst(&g, &w));
        // Every phase's construction verified at least once by message
        // passing.
        let runs = obs
            .snapshot()
            .counter("dist/verification/runs")
            .unwrap_or(0);
        assert!(
            runs >= run.phases as u64,
            "{runs} simulated verifications for {} phases",
            run.phases
        );
    }

    #[test]
    fn session_accessors_expose_the_cached_state() {
        let g = generators::grid(6, 6);
        let mut session = Pipeline::on(&g)
            .threads(Threads::Fixed(3))
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(session.threads(), 3);
        assert_eq!(session.tree().node_count(), g.node_count());
        assert_eq!(session.seed(), 7);
        assert_eq!(session.execution(), ExecutionMode::Scheduled);
        assert_eq!(session.sim_config().threads, 3);
        session.set_execution(ExecutionMode::Simulated);
        assert_eq!(session.execution(), ExecutionMode::Simulated);
    }

    #[test]
    fn fixed_strategy_records_a_single_attempt() {
        let g = generators::wheel(33);
        let p = generators::partitions::wheel_arcs(33, 4);
        let session = Pipeline::on(&g).build().unwrap();
        let run = session
            .shortcut(
                &p,
                Strategy::Fixed {
                    congestion: 1,
                    block: 1,
                },
            )
            .unwrap();
        assert_eq!(run.report.attempts.len(), 1);
        assert_eq!(run.winning_guess(), Some((1, 1)));
        assert!(run.report.all_parts_good);
        assert_eq!(run.total_rounds(), run.report.rounds_charged);
        assert_eq!(run.report.strategy.as_deref(), Some("fixed"));
    }

    #[test]
    fn slow_core_strategy_is_deterministic_across_seeds() {
        let g = generators::grid(5, 5);
        let p = generators::partitions::grid_columns(5, 5);
        let a = Pipeline::on(&g).seed(1).build().unwrap();
        let b = Pipeline::on(&g).seed(99).build().unwrap();
        let run_a = a.shortcut(&p, Strategy::slow_core()).unwrap();
        let run_b = b.shortcut(&p, Strategy::slow_core()).unwrap();
        assert_eq!(run_a.shortcut, run_b.shortcut);
    }

    #[test]
    fn verify_simulated_fills_sim_stats_and_trace() {
        let g = generators::grid(5, 5);
        let p = generators::partitions::grid_columns(5, 5);
        let session = Pipeline::on(&g)
            .execution(ExecutionMode::Simulated)
            .trace(true)
            .build()
            .unwrap();
        let run = session.shortcut(&p, Strategy::doubling()).unwrap();
        let guess = run.winning_guess().unwrap();
        let ver = session.verify(&run.shortcut, &p, 3 * guess.1).unwrap();
        assert!(ver.report.all_parts_good);
        let stats = ver.report.sim.expect("simulated verify records stats");
        assert!(stats.rounds > 0);
        assert_eq!(ver.report.rounds_executed, Some(stats.rounds));
        assert!(!ver.trace.is_empty(), "tracing was enabled");
        assert_eq!(
            ver.trace.iter().map(|t| t.messages).sum::<u64>(),
            stats.messages
        );
    }

    #[test]
    fn fault_injected_verify_heals_to_the_fault_free_classification() {
        let g = generators::grid(6, 6);
        let p = generators::partitions::grid_columns(6, 6);
        let plain = Pipeline::on(&g)
            .execution(ExecutionMode::Simulated)
            .build()
            .unwrap();
        let run = plain.shortcut(&p, Strategy::doubling()).unwrap();
        let threshold = 3 * run.winning_guess().unwrap().1;
        let want = plain.verify(&run.shortcut, &p, threshold).unwrap();

        let faulty = Pipeline::on(&g)
            .execution(ExecutionMode::Simulated)
            .fault(FaultPlan::new(5).with_latency(1).with_loss_ppm(10_000))
            .build()
            .unwrap();
        let healed = faulty.verify(&run.shortcut, &p, threshold).unwrap();
        assert_eq!(healed.good, want.good);
        assert_eq!(healed.block_counts, want.block_counts);
        assert!(healed
            .report
            .metrics
            .iter()
            .any(|(k, _)| k == "retry_epochs"));
        // The construction runs under the plan too, and its verifier
        // returns the fault-free verdicts, so the shortcut is the plain
        // session's.
        let run_faulty = faulty.shortcut(&p, Strategy::doubling()).unwrap();
        assert_eq!(run_faulty.shortcut, run.shortcut);
    }

    /// Under a fault plan every query that passes messages answers as the
    /// fault-free session does — the shortcut, the tracked and repaired
    /// corpus, the MST — and only rounds grow. These plans complete within
    /// the epoch budget, so a `Degraded` answer fails here too.
    #[test]
    fn faulty_sessions_answer_exactly() {
        let g = generators::grid(6, 6);
        let p = generators::partitions::grid_columns(6, 6);
        let w = EdgeWeights::random_permutation(&g, 2);
        let delta = PartitionDelta::new().move_nodes(vec![NodeId::new(1)], PartId::new(0));
        let session = |plan: FaultPlan| {
            Pipeline::on(&g)
                .seed(3)
                .execution(ExecutionMode::Simulated)
                .fault(plan)
                .build()
                .unwrap()
        };
        let clean = session(FaultPlan::new(0));
        let shortcut = clean.shortcut(&p, Strategy::doubling()).unwrap();
        let tracked = clean.track_partition(&p, Strategy::doubling()).unwrap();
        let repaired = clean.repair_from(&tracked.baseline, &delta).unwrap();
        let mst = clean.mst(&w, ShortcutStrategy::Doubling).unwrap();
        assert_eq!(mst.edges, lcs_graph::kruskal_mst(&g, &w));
        for loss in [10_000, 250_000] {
            let plan = FaultPlan::new(11)
                .with_loss_ppm(loss)
                .with_dup_ppm(50_000)
                .with_latency(1);
            let faulty = session(plan);
            let run = faulty.shortcut(&p, Strategy::doubling()).unwrap();
            assert_eq!(run.shortcut, shortcut.shortcut, "loss {loss}");
            assert!(run.total_rounds() > shortcut.total_rounds(), "loss {loss}");
            let track = faulty.track_partition(&p, Strategy::doubling()).unwrap();
            assert_eq!(track.shortcut, tracked.shortcut, "loss {loss}");
            assert_eq!(track.good, tracked.good, "loss {loss}");
            let run = faulty.repair_from(&track.baseline, &delta).unwrap();
            assert_eq!(run.shortcut, repaired.shortcut, "loss {loss}");
            assert_eq!(run.quality, repaired.quality, "loss {loss}");
            assert_eq!(run.good, repaired.good, "loss {loss}");
            let run = faulty.mst(&w, ShortcutStrategy::Doubling).unwrap();
            assert_eq!(run.edges, mst.edges, "loss {loss}");
            assert_eq!(run.phases, mst.phases, "loss {loss}");
        }
    }

    #[test]
    fn a_fault_free_indecisive_run_stays_ok() {
        // Without faults, the members of a part whose block supergraph does
        // not converge within `threshold` hops can end split. The run is
        // then indecisive, but the part has more than `threshold` blocks,
        // so classifying it bad is exact and the query must succeed.
        let g = generators::torus(10, 10);
        let tree = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::random_bfs_balls(&g, 4, 2);
        let s = lcs_core::existential::truncated_ancestor_shortcut(&g, &tree, &p, 1);
        let threshold = 2;
        let active = vec![true; p.part_count()];
        let question = BlockCounting {
            graph: &g,
            tree: &tree,
            partition: &p,
            shortcut: &s,
            threshold,
            active: &active,
        };
        let single = verification_simulated(&question, None, &Obs::off()).unwrap();
        assert!(!single.decisive);
        assert_eq!((single.epochs, single.stalls), (1, 0));

        let scheduled = verification(&g, &tree, &p, &s, threshold, &active);
        assert_eq!(scheduled.good, [true, false, false, false]);
        // The simulated protocol reports a count for good parts only.
        let counts: Vec<usize> = scheduled
            .good
            .iter()
            .zip(&scheduled.block_counts)
            .map(|(&good, &count)| if good { count } else { 0 })
            .collect();
        let session = Pipeline::on(&g)
            .execution(ExecutionMode::Simulated)
            .build()
            .unwrap();
        let run = session.verify(&s, &p, threshold).unwrap();
        assert_eq!(run.good, scheduled.good);
        assert_eq!(run.block_counts, counts);
        assert!(
            run.report.metrics.is_empty(),
            "no retry metrics without a plan"
        );
    }

    #[test]
    fn a_defeating_fault_plan_surfaces_as_a_typed_degraded_error() {
        let g = generators::grid(5, 5);
        let p = generators::partitions::grid_columns(5, 5);
        let session = Pipeline::on(&g)
            .execution(ExecutionMode::Simulated)
            .fault(FaultPlan::new(7).with_crashes(1, 0, 0))
            .build()
            .unwrap();
        let empty = TreeShortcut::empty(&g, &p);
        let err = session.verify(&empty, &p, 5).unwrap_err();
        assert!(
            matches!(
                err,
                LcsError::Degraded {
                    epochs: 5,
                    stalls: 5,
                    ..
                }
            ),
            "a permanent crash must degrade, got: {err}"
        );
        assert_eq!(
            err.to_string(),
            "degraded result after 5 epochs (5 stalled): fault-injected run stayed incomplete \
             after 5 epochs"
        );
        // Construction, repair and MST verify under the same plan, and the
        // `Degraded` reaches the caller typed.
        let degraded = |err: LcsError| matches!(err, LcsError::Degraded { .. });
        let doubling = Strategy::doubling();
        assert!(degraded(session.shortcut(&p, doubling).unwrap_err()));
        assert!(degraded(session.track_partition(&p, doubling).unwrap_err()));
        let clean = Pipeline::on(&g).execution(ExecutionMode::Simulated);
        let tracked = clean
            .build()
            .unwrap()
            .track_partition(&p, doubling)
            .unwrap();
        // Nodes 1, 3 and 23 join columns 0, 2 and 4: every column is
        // edited and stays connected.
        let shift = [(1, 0), (3, 2), (23, 4)]
            .into_iter()
            .fold(PartitionDelta::new(), |delta, (v, c)| {
                delta.move_nodes(vec![NodeId::new(v)], PartId::new(c))
            });
        assert!(degraded(
            session.repair_from(&tracked.baseline, &shift).unwrap_err()
        ));
        let w = EdgeWeights::random_permutation(&g, 2);
        assert!(degraded(
            session.mst(&w, ShortcutStrategy::Doubling).unwrap_err()
        ));
    }

    #[test]
    fn update_partition_matches_a_fresh_track() {
        let g = generators::grid(8, 8);
        let p = generators::partitions::grid_columns(8, 8);
        let session = Pipeline::on(&g).seed(5).build().unwrap();
        let tracked = session.track_partition(&p, Strategy::doubling()).unwrap();
        assert!(tracked.report.all_parts_good);
        assert_eq!(tracked.baseline.partition(), &p);
        assert_eq!(tracked.repaired_parts, p.part_count());
        assert_eq!(tracked.reused_parts, 0);
        assert_eq!(
            tracked.quality,
            session.quality(&tracked.shortcut, &p).unwrap()
        );

        let delta = PartitionDelta::new().move_nodes(vec![NodeId::new(1)], PartId::new(0));
        let updated = session.repair_from(&tracked.baseline, &delta).unwrap();
        let new_p = p.apply(&delta).unwrap();
        assert_eq!(updated.baseline.partition(), &new_p);
        let fresh = Pipeline::on(&g).seed(5).build().unwrap();
        let rebuilt = fresh.track_partition(&new_p, Strategy::doubling()).unwrap();
        assert_eq!(updated.shortcut, rebuilt.shortcut);
        assert_eq!(updated.quality, rebuilt.quality);
        assert_eq!(updated.good, rebuilt.good);
        assert_eq!(updated.repaired_parts, 2, "only the two edited columns");
        assert_eq!(
            updated.repaired_parts + updated.reused_parts,
            new_p.part_count()
        );
        assert!(updated.report.rounds_charged < tracked.report.rounds_charged);
    }

    #[test]
    fn a_failed_delta_leaves_the_tracked_state_usable() {
        let g = generators::grid(6, 6);
        let p = generators::partitions::grid_columns(6, 6);
        let session = Pipeline::on(&g).build().unwrap();
        let tracked = session.track_partition(&p, Strategy::doubling()).unwrap();
        // Draining column 0 entirely must fail and leave the baseline
        // repairable.
        let drain = PartitionDelta::new()
            .move_nodes((0..6).map(|r| NodeId::new(6 * r)).collect(), PartId::new(1));
        let err = session.repair_from(&tracked.baseline, &drain).unwrap_err();
        assert!(matches!(err, LcsError::Config { .. }));
        // So must moving node 7, column 1's only link between node 1 and
        // the rest of the column.
        let split = PartitionDelta::new().move_nodes(vec![NodeId::new(7)], PartId::new(0));
        let err = session.repair_from(&tracked.baseline, &split).unwrap_err();
        assert!(
            matches!(&err, LcsError::Config { reason } if reason.contains("part P1")),
            "a disconnecting delta must be a typed Config error, got: {err}"
        );
        let ok = session
            .repair_from(
                &tracked.baseline,
                &PartitionDelta::new().move_nodes(vec![NodeId::new(0)], PartId::new(1)),
            )
            .unwrap();
        assert!(ok.report.all_parts_good);
    }

    #[test]
    fn repair_baselines_serve_purely_in_both_execution_modes() {
        let g = generators::grid(6, 6);
        let p = generators::partitions::grid_columns(6, 6);
        for execution in [ExecutionMode::Scheduled, ExecutionMode::Simulated] {
            let session = Pipeline::on(&g)
                .seed(3)
                .execution(execution)
                .build()
                .unwrap();
            let baseline = session
                .track_partition(&p, Strategy::doubling())
                .unwrap()
                .baseline;
            let delta = PartitionDelta::new().move_nodes(vec![NodeId::new(1)], PartId::new(0));
            let a = session.repair_from(&baseline, &delta).unwrap();
            let b = session.repair_from(&baseline, &delta).unwrap();
            assert_eq!(a.shortcut, b.shortcut);
            assert_eq!(a.quality, b.quality);
            // Serving reads the baseline and never edits it.
            assert_eq!(baseline.partition(), &p);
        }
    }

    #[test]
    fn batch_rejects_an_empty_query_list() {
        let g = generators::grid(4, 4);
        let session = Pipeline::on(&g).build().unwrap();
        let err = session.batch(&[], Strategy::doubling()).unwrap_err();
        assert!(
            matches!(err, LcsError::Config { .. }),
            "empty batch must be a typed Config error, got: {err}"
        );
    }
}
