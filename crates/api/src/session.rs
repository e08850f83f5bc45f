//! The two-phase front door: [`Pipeline`] (configure once) →
//! [`Session`] (query many times).
//!
//! A `Session` is bound to one graph and owns everything that is reusable
//! across queries on that graph: the rooted spanning tree, the epoch-stamped
//! [`lcs_core::QualityPool`] of the quality measurements, the resolved
//! [`SimConfig`] (bandwidth, tracing, engine thread count), and a
//! precomputed [`ShardMap`] describing the shard layout `Simulated`
//! queries execute on (the engine derives the identical volume-balanced
//! layout per run; the session's copy exposes it for introspection).
//! Repeated queries — `shortcut`, `quality`, `verify`, `mst`, and the
//! multi-query [`Session::batch`] — therefore allocate only their
//! per-query results, never per-graph state; that is the serving posture
//! the experiment tables measure in E11.

use std::sync::Mutex;
use std::time::Instant;

use lcs_congest::{FaultPlan, RoundCost, RoundTrace, SimConfig};
use lcs_core::construction::{
    build_corpus, core_fast, core_slow, repair_corpus, verification, CoreFastConfig, CoreOutcome,
    FindShortcut, FindShortcutConfig, FindShortcutResult, RepairConfig, RepairStats,
    ShortcutCorpus,
};
use lcs_core::routing::ExecutionMode;
use lcs_core::{QualityPool, ShortcutQuality, TreeShortcut};
use lcs_dist::{
    verification_simulated_obs, verification_simulated_parts, verification_with_retry, RetryPolicy,
};
use lcs_graph::{
    is_connected, EdgeId, EdgeWeights, Graph, GraphError, LcsError, PartId, PartSet, Partition,
    PartitionDelta, RootedTree, ShardMap, Threads,
};
use lcs_mst::ShortcutStrategy;
use lcs_obs::Obs;

use crate::{Attempt, CoreKind, Report, Strategy, TreeSpec};

/// Convenience result alias of the façade.
pub type Result<T> = std::result::Result<T, LcsError>;

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
/// let mut session = Pipeline::on(&graph).build().unwrap();
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
    retry: RetryPolicy,
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
            retry: RetryPolicy::default(),
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

    /// Injects a deterministic fault plan into `Simulated` verification
    /// queries: per-edge latency, message loss/duplication, stragglers, and
    /// crash schedules, all a pure function of the plan's seed. Only
    /// [`Session::verify`] runs under the plan (it is the self-healing
    /// protocol); construction and MST queries run fault-free so their
    /// exact round accounting stays meaningful. An inactive plan (all
    /// knobs zero) is identical to no plan at all.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Sets the retry policy fault-injected verification heals stalled
    /// epochs with (defaults to [`RetryPolicy::default`]).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Validates the configuration and builds the [`Session`], performing
    /// the one-time per-graph work (BFS tree unless provided, shard map,
    /// quality pool).
    ///
    /// # Errors
    ///
    /// [`LcsError::InconsistentInputs`] for an empty or disconnected graph
    /// or a provided tree over a different node count;
    /// [`LcsError::Graph`] for a BFS root out of range;
    /// [`LcsError::Config`] for a fixed thread count of zero.
    pub fn build(self) -> Result<Session<'g>> {
        let graph = self.graph;
        if graph.node_count() == 0 {
            return Err(LcsError::InconsistentInputs {
                reason: "a session needs a nonempty graph".to_string(),
            });
        }
        if !is_connected(graph) {
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
            TreeSpec::Bfs(root) => {
                if root.index() >= graph.node_count() {
                    return Err(LcsError::Graph(GraphError::NodeOutOfRange {
                        node: root,
                        node_count: graph.node_count(),
                    }));
                }
                RootedTree::bfs(graph, root)
            }
            TreeSpec::Provided(tree) => {
                if tree.node_count() != graph.node_count() {
                    return Err(LcsError::InconsistentInputs {
                        reason: format!(
                            "provided tree spans {} nodes but the graph has {}",
                            tree.node_count(),
                            graph.node_count()
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
            shards: ShardMap::by_volume(graph, threads),
            pool: PoolBank::with(QualityPool::new(graph, threads)),
            threads,
            execution: self.execution,
            seed: self.seed,
            sim_config,
            retry: self.retry,
            obs: self.recorder,
            repair_cache: Vec::new(),
        })
    }
}

/// A per-graph serving session: the owner of every piece of state that can
/// be amortized across queries. Created by [`Pipeline::build`].
pub struct Session<'g> {
    graph: &'g Graph,
    tree: RootedTree,
    shards: ShardMap,
    pool: PoolBank,
    threads: usize,
    execution: ExecutionMode,
    seed: u64,
    sim_config: SimConfig,
    retry: RetryPolicy,
    pub(crate) obs: Obs,
    /// Tracked partitions and their customization corpora, one slot per
    /// strategy label, most recently tracked/updated last.
    repair_cache: Vec<RepairSlot>,
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
/// access to it, and returns it. The lock is held for the push/pop only,
/// never across a query. Workspaces are epoch-stamped, so a query
/// observes byte-identical values whether it got a reused pool, a fresh
/// one, or the pool another thread just returned — concurrency changes
/// which workspace serves a query, never what the query answers.
struct PoolBank {
    free: Mutex<Vec<QualityPool>>,
}

impl PoolBank {
    /// A bank pre-warmed with one workspace, so the sequential serving
    /// path (one query at a time) never allocates after build.
    fn with(initial: QualityPool) -> Self {
        PoolBank {
            free: Mutex::new(vec![initial]),
        }
    }

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

/// One cached `(partition, corpus)` pair of [`Session::track_partition`].
struct RepairSlot {
    strategy: Strategy,
    partition: Partition,
    corpus: ShortcutCorpus,
    config: RepairConfig,
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
    /// least one [`Attempt`]; batch entries additionally fill
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

/// Result of a [`Session::track_partition`] / [`Session::update_partition`]
/// repair query: the assembled shortcut and quality for the (post-delta)
/// partition plus the repair accounting.
#[derive(Debug, Clone)]
pub struct RepairRun {
    /// The shortcut for the current partition, assembled from the cached
    /// corpus — byte-identical to rebuilding every part from scratch.
    pub shortcut: TreeShortcut,
    /// Aggregated quality, re-aggregated from the cached per-part
    /// measurements (exact congestion subtract/add, no recount).
    pub quality: ShortcutQuality,
    /// `good[p]` — part `p` verified good within its attempt budget.
    pub good: Vec<bool>,
    /// Parts (re)built by scoped construction runs.
    pub repaired_parts: usize,
    /// Parts whose cached state was reused verbatim.
    pub reused_parts: usize,
    /// The unified query report; `rounds_charged` counts only the rounds
    /// of the (re)built parts, and `metrics` records
    /// `repaired_parts` / `reused_parts`.
    pub report: Report,
}

/// An immutable snapshot of a tracked partition and its customization
/// corpus, detached from the session cache — the borrowed input of a
/// [`crate::Query::Repair`], so serving a repair is a pure function of
/// `(baseline, delta)` and leaves the session's own tracked state alone.
#[derive(Debug, Clone)]
pub struct RepairBaseline {
    strategy: Strategy,
    partition: Partition,
    corpus: ShortcutCorpus,
    config: RepairConfig,
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

    /// The contiguous shard layout `Simulated` queries execute on (one
    /// shard per worker thread, volume-balanced). This is introspection
    /// state: the round loop derives the identical [`ShardMap::by_volume`]
    /// layout internally for each run (one shard, run inline, at S = 1);
    /// the session's copy lets callers inspect the layout without running
    /// a protocol.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shards
    }

    /// The execution mode queries currently run under.
    pub fn execution(&self) -> ExecutionMode {
        self.execution
    }

    /// Switches the execution mode for subsequent queries.
    ///
    /// Changing the mode drops any tracked partitions
    /// ([`Session::track_partition`]): a cached corpus records how its
    /// parts were built under the old mode, so repairing it under a new
    /// one would no longer equal a from-scratch rebuild. A subsequent
    /// [`Session::update_partition`] reports the usual typed
    /// [`LcsError::Config`] "no tracked partition" error until the caller
    /// tracks again. Setting the mode already in effect changes nothing.
    pub fn set_execution(&mut self, execution: ExecutionMode) {
        if self.execution != execution {
            self.execution = execution;
            self.repair_cache.clear();
        }
    }

    /// The random seed subsequent queries use.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Replaces the seed for subsequent queries.
    ///
    /// Changing the seed drops any tracked partitions
    /// ([`Session::track_partition`]): per-part construction seeds derive
    /// from the session seed, so a corpus built under the old seed would
    /// silently stop satisfying the repair == rebuild contract. A
    /// subsequent [`Session::update_partition`] reports the usual typed
    /// [`LcsError::Config`] "no tracked partition" error until the caller
    /// tracks again. Setting the seed already in effect changes nothing.
    pub fn set_seed(&mut self, seed: u64) {
        if self.seed != seed {
            self.seed = seed;
            self.repair_cache.clear();
        }
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

    fn check_partition(&self, partition: &Partition) -> Result<()> {
        if partition.node_count() != self.graph.node_count() {
            return Err(LcsError::InconsistentInputs {
                reason: format!(
                    "partition defined over {} nodes but the session's graph has {}",
                    partition.node_count(),
                    self.graph.node_count()
                ),
            });
        }
        Ok(())
    }

    /// Runs the Theorem 3 driver once with the session's execution mode:
    /// `Scheduled` uses the centralized Lemma 3 verification, `Simulated`
    /// drops in the message-passing block counting with the session's
    /// simulator configuration (threads and tracing included).
    fn run_find_shortcut(
        &self,
        partition: &Partition,
        config: FindShortcutConfig,
    ) -> Result<FindShortcutResult> {
        let driver = FindShortcut::new(config);
        let result = match self.execution {
            ExecutionMode::Scheduled => driver.run_with_verifier(
                self.graph,
                &self.tree,
                partition,
                |g, t, p, s, threshold, active| Ok(verification(g, t, p, s, threshold, active)),
            ),
            ExecutionMode::Simulated => {
                // Construction attempts run fault-free even when the
                // session injects faults into `verify`: the doubling search
                // interprets a failed verification as "guess too small",
                // which a fault-induced stall would corrupt.
                let sim_config = self.sim_config.without_fault();
                let obs = self.obs.clone();
                driver.run_with_verifier(
                    self.graph,
                    &self.tree,
                    partition,
                    move |g, t, p, s, threshold, active| {
                        let outcome = verification_simulated_obs(
                            g,
                            t,
                            p,
                            s,
                            threshold,
                            active,
                            Some(sim_config),
                            &obs,
                        )
                        .map_err(lcs_core::CoreError::from)?;
                        Ok(outcome.outcome)
                    },
                )
            }
        };
        result.map_err(LcsError::from)
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
    /// doubling budget, and simulation errors from `Simulated` execution.
    /// A [`Strategy::Fixed`] run whose parameters turn out too small is
    /// *not* an error (mirroring the legacy driver): it returns `Ok` with
    /// [`Report::all_parts_good`] `false` and the partial shortcut.
    pub fn shortcut(&self, partition: &Partition, strategy: Strategy) -> Result<ShortcutRun> {
        self.check_partition(partition)?;
        let start = Instant::now();
        let mut report = Report::new("shortcut");
        report.strategy = Some(strategy.label().to_string());

        let (initial, use_fast_core, max_doublings) = match strategy {
            Strategy::Doubling(spec) => (
                (spec.initial_congestion, spec.initial_block),
                true,
                spec.max_doublings,
            ),
            Strategy::SlowCore(spec) => (
                (spec.initial_congestion, spec.initial_block),
                false,
                spec.max_doublings,
            ),
            Strategy::Fixed { congestion, block } => {
                // A single attempt at the known parameters; the iteration
                // budget of the driver itself still applies.
                let config = FindShortcutConfig::new(congestion, block).with_seed(self.seed);
                let result = self.run_find_shortcut(partition, config)?;
                report.attempts.push(Attempt {
                    congestion_guess: congestion,
                    block_guess: block,
                    succeeded: result.all_parts_good,
                    rounds: result.total_rounds(),
                });
                report.iterations = result.iterations;
                report.all_parts_good = result.all_parts_good;
                report.rounds_charged = result.total_rounds();
                report.wall_millis = start.elapsed().as_secs_f64() * 1e3;
                return Ok(ShortcutRun {
                    shortcut: result.shortcut,
                    report,
                });
            }
        };

        // The Appendix A doubling loop, attempt seeds identical to the
        // legacy `doubling_search` (`seed + attempt · 7919`).
        let mut congestion = initial.0.max(1);
        let mut block = initial.1.max(1);
        for attempt_index in 0..=max_doublings {
            let mut config = FindShortcutConfig::new(congestion, block)
                .with_seed(self.seed.wrapping_add(attempt_index as u64 * 7919));
            if !use_fast_core {
                config = config.with_slow_core();
            }
            let result = self.run_find_shortcut(partition, config)?;
            report.attempts.push(Attempt {
                congestion_guess: congestion,
                block_guess: block,
                succeeded: result.all_parts_good,
                rounds: result.total_rounds(),
            });
            report.rounds_charged += result.total_rounds();
            if result.all_parts_good {
                report.iterations = result.iterations;
                report.all_parts_good = true;
                report.wall_millis = start.elapsed().as_secs_f64() * 1e3;
                return Ok(ShortcutRun {
                    shortcut: result.shortcut,
                    report,
                });
            }
            congestion = congestion.saturating_mul(2);
            block = block.saturating_mul(2);
        }
        Err(LcsError::BudgetExhausted {
            iterations: report.attempts.len(),
            remaining_bad: partition.part_count(),
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
    /// node count.
    pub fn quality(
        &self,
        shortcut: &TreeShortcut,
        partition: &Partition,
    ) -> Result<ShortcutQuality> {
        self.check_partition(partition)?;
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
    /// With a [`Pipeline::fault`] plan and `Simulated` execution, the
    /// query runs the self-healing retry wrapper
    /// ([`lcs_dist::verification_with_retry`]): stalled epochs are retried
    /// per the session's [`Pipeline::retry`] policy, and the report gains
    /// `retry_epochs` / `retry_stalls` metrics.
    ///
    /// # Errors
    ///
    /// [`LcsError::InconsistentInputs`] for a mismatched partition;
    /// simulation errors in `Simulated` mode; [`LcsError::Degraded`] when
    /// an injected fault plan defeats every retry epoch.
    pub fn verify(
        &self,
        shortcut: &TreeShortcut,
        partition: &Partition,
        threshold: usize,
    ) -> Result<VerifyRun> {
        self.check_partition(partition)?;
        let start = Instant::now();
        let mut report = Report::new("verify");
        let active = vec![true; partition.part_count()];
        match self.execution {
            ExecutionMode::Scheduled => {
                let outcome = verification(
                    self.graph, &self.tree, partition, shortcut, threshold, &active,
                );
                report.all_parts_good = outcome.good.iter().all(|&g| g);
                report.rounds_charged = outcome.rounds;
                report.wall_millis = start.elapsed().as_secs_f64() * 1e3;
                Ok(VerifyRun {
                    good: outcome.good,
                    block_counts: outcome.block_counts,
                    trace: Vec::new(),
                    report,
                })
            }
            ExecutionMode::Simulated => {
                // With an active fault plan the self-healing retry wrapper
                // runs instead of a single-shot verification: a decisive
                // result surfaces normally (with the epoch/stall counts as
                // report metrics), an exhausted retry budget surfaces as a
                // typed degraded error rather than a wrong classification.
                let ver = if self.sim_config.active_fault().is_some() {
                    let healed = verification_with_retry(
                        self.graph,
                        &self.tree,
                        partition,
                        shortcut,
                        threshold,
                        &active,
                        Some(self.sim_config),
                        self.retry,
                        &self.obs,
                    )?;
                    if !healed.decisive {
                        return Err(LcsError::Degraded {
                            epochs: healed.epochs,
                            stalls: healed.stalls,
                            reason: format!(
                                "fault-injected verification stayed indecisive after {} epochs",
                                healed.epochs
                            ),
                        });
                    }
                    report
                        .metrics
                        .push(("retry_epochs".to_string(), u64::from(healed.epochs)));
                    report
                        .metrics
                        .push(("retry_stalls".to_string(), u64::from(healed.stalls)));
                    healed.outcome.expect("decisive retries carry an outcome")
                } else {
                    verification_simulated_obs(
                        self.graph,
                        &self.tree,
                        partition,
                        shortcut,
                        threshold,
                        &active,
                        Some(self.sim_config),
                        &self.obs,
                    )?
                };
                report.all_parts_good = ver.outcome.good.iter().all(|&g| g);
                report.rounds_charged = ver.outcome.rounds;
                report.rounds_executed = Some(ver.stats.rounds);
                report.sim = Some(ver.stats);
                report.wall_millis = start.elapsed().as_secs_f64() * 1e3;
                Ok(VerifyRun {
                    good: ver.outcome.good,
                    block_counts: ver.outcome.block_counts,
                    trace: ver.trace,
                    report,
                })
            }
        }
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
    ) -> Result<CoreOutcome> {
        self.check_partition(partition)?;
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
    /// with the given per-phase shortcut strategy, the session's seed and
    /// execution mode, and the session's simulator configuration for
    /// `Simulated` phases.
    ///
    /// # Errors
    ///
    /// Propagates construction errors and reports
    /// [`LcsError::BudgetExhausted`] if the phase cap is hit.
    pub fn mst(&self, weights: &EdgeWeights, strategy: ShortcutStrategy) -> Result<MstRun> {
        let start = Instant::now();
        #[allow(deprecated)]
        let config = lcs_mst::BoruvkaConfig::new(strategy)
            .with_seed(self.seed)
            .with_execution(self.execution)
            .with_sim_config(self.sim_config.without_fault());
        #[allow(deprecated)]
        let outcome = lcs_mst::boruvka_mst(self.graph, weights, &config)?;
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
    pub fn batch(&self, partitions: &[&Partition], strategy: Strategy) -> Result<Vec<ShortcutRun>> {
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

    /// Maps a construction [`Strategy`] onto the part-scoped doubling
    /// search: `Fixed` becomes a single attempt (a still-bad part is not
    /// an error, mirroring [`Session::shortcut`]); the doubling strategies
    /// keep their budgets and escalate a still-bad part to
    /// [`LcsError::BudgetExhausted`].
    fn repair_config_of(&self, strategy: Strategy) -> (RepairConfig, bool) {
        match strategy {
            Strategy::Doubling(spec) => (
                RepairConfig {
                    congestion: spec.initial_congestion,
                    block: spec.initial_block,
                    use_fast_core: true,
                    max_doublings: spec.max_doublings,
                    seed: self.seed,
                },
                true,
            ),
            Strategy::SlowCore(spec) => (
                RepairConfig {
                    congestion: spec.initial_congestion,
                    block: spec.initial_block,
                    use_fast_core: false,
                    max_doublings: spec.max_doublings,
                    seed: self.seed,
                },
                true,
            ),
            Strategy::Fixed { congestion, block } => (
                RepairConfig {
                    congestion,
                    block,
                    use_fast_core: true,
                    max_doublings: 0,
                    seed: self.seed,
                },
                false,
            ),
        }
    }

    /// Builds the full customization corpus for `partition` with the
    /// session's execution mode (same verification seam as
    /// [`Session::shortcut`]; `Simulated` runs the restricted-part-set
    /// verification entry, fault-free).
    fn build_corpus_dispatch(
        &self,
        partition: &Partition,
        config: &RepairConfig,
    ) -> Result<ShortcutCorpus> {
        let result = self.with_pool(|pool| match self.execution {
            ExecutionMode::Scheduled => build_corpus(
                self.graph,
                &self.tree,
                partition,
                config,
                pool,
                |g, t, p, s, threshold, active| Ok(verification(g, t, p, s, threshold, active)),
            ),
            ExecutionMode::Simulated => {
                let sim_config = self.sim_config.without_fault();
                let obs = self.obs.clone();
                build_corpus(
                    self.graph,
                    &self.tree,
                    partition,
                    config,
                    pool,
                    move |g, t, p, s, threshold, active| {
                        let outcome =
                            simulated_parts(g, t, p, s, threshold, active, sim_config, &obs)?;
                        Ok(outcome)
                    },
                )
            }
        });
        result.map_err(LcsError::from)
    }

    /// Repairs `prev` into a corpus for `partition` (the dirty parts of a
    /// delta closure are rebuilt, everything else reused) with the
    /// session's execution mode.
    #[allow(clippy::too_many_arguments)]
    fn repair_corpus_dispatch(
        &self,
        partition: &Partition,
        prev: &ShortcutCorpus,
        origin: &[Option<PartId>],
        dirty: &PartSet,
        config: &RepairConfig,
    ) -> Result<(ShortcutCorpus, RepairStats)> {
        let result = self.with_pool(|pool| match self.execution {
            ExecutionMode::Scheduled => repair_corpus(
                self.graph,
                &self.tree,
                partition,
                prev,
                origin,
                dirty,
                config,
                pool,
                |g, t, p, s, threshold, active| Ok(verification(g, t, p, s, threshold, active)),
            ),
            ExecutionMode::Simulated => {
                let sim_config = self.sim_config.without_fault();
                let obs = self.obs.clone();
                repair_corpus(
                    self.graph,
                    &self.tree,
                    partition,
                    prev,
                    origin,
                    dirty,
                    config,
                    pool,
                    move |g, t, p, s, threshold, active| {
                        let outcome =
                            simulated_parts(g, t, p, s, threshold, active, sim_config, &obs)?;
                        Ok(outcome)
                    },
                )
            }
        });
        result.map_err(LcsError::from)
    }

    /// Assembles a [`RepairRun`] from a finished corpus.
    fn finish_repair(
        &self,
        partition: &Partition,
        corpus: &ShortcutCorpus,
        stats: RepairStats,
        strategy: Strategy,
        operation: &str,
        start: Instant,
    ) -> Result<RepairRun> {
        let shortcut = corpus
            .assemble(self.graph, &self.tree, partition)
            .map_err(LcsError::from)?;
        let quality = corpus.quality();
        let good: Vec<bool> = corpus.parts().iter().map(|p| p.good).collect();
        let mut report = Report::new(operation);
        report.strategy = Some(strategy.label().to_string());
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
        })
    }

    /// The shared delta-repair path of [`Session::update_partition`] and
    /// [`Session::repair_from`]: apply the delta, repair the corpus, and
    /// report — with the `session/repair` span, the repair counters and
    /// the per-repair latency timer around it.
    fn repair_with(
        &self,
        partition: &Partition,
        corpus: &ShortcutCorpus,
        config: &RepairConfig,
        strategy: Strategy,
        delta: &PartitionDelta,
    ) -> Result<(Partition, ShortcutCorpus, RepairRun)> {
        let obs = self.obs.clone();
        let _span = lcs_obs::span!(obs, "session/repair");
        let start = Instant::now();
        let applied = partition.apply_tracked(self.graph, delta)?;
        let (new_corpus, stats) = self.repair_corpus_dispatch(
            &applied.partition,
            corpus,
            &applied.origin,
            &applied.dirty,
            config,
        )?;
        let budget_is_error = !matches!(strategy, Strategy::Fixed { .. });
        if budget_is_error && !new_corpus.all_good() {
            return Err(LcsError::BudgetExhausted {
                iterations: new_corpus
                    .parts()
                    .iter()
                    .map(|p| p.attempts)
                    .max()
                    .unwrap_or(0),
                remaining_bad: new_corpus.parts().iter().filter(|p| !p.good).count(),
            });
        }
        let run = self.finish_repair(
            &applied.partition,
            &new_corpus,
            stats,
            strategy,
            "repair",
            start,
        )?;
        if obs.is_on() {
            obs.counter_add("session/repairs", 1);
            obs.counter_add("session/repaired_parts", stats.repaired_parts as u64);
            obs.counter_add("session/reused_parts", stats.reused_parts as u64);
            obs.timer_record("session/repair/latency", start.elapsed().as_nanos() as u64);
        }
        Ok((applied.partition, new_corpus, run))
    }

    /// Builds and caches the customization corpus for `partition`: every
    /// part constructed through the part-scoped path (per-part doubling
    /// search, seeds anchored at each part's minimum member). Subsequent
    /// [`Session::update_partition`] calls repair this cached state
    /// instead of rebuilding from scratch. One slot is kept per strategy
    /// label; tracking again under the same strategy replaces the slot.
    ///
    /// # Errors
    ///
    /// [`LcsError::InconsistentInputs`] for a partition over a different
    /// node count; [`LcsError::BudgetExhausted`] when a doubling strategy
    /// exhausts its budget on some part (a [`Strategy::Fixed`] run whose
    /// parameters are too small is not an error, mirroring
    /// [`Session::shortcut`]); simulation errors in `Simulated` mode.
    pub fn track_partition(
        &mut self,
        partition: &Partition,
        strategy: Strategy,
    ) -> Result<RepairRun> {
        self.check_partition(partition)?;
        let start = Instant::now();
        let (config, budget_is_error) = self.repair_config_of(strategy);
        let corpus = self.build_corpus_dispatch(partition, &config)?;
        if budget_is_error && !corpus.all_good() {
            return Err(LcsError::BudgetExhausted {
                iterations: corpus.parts().iter().map(|p| p.attempts).max().unwrap_or(0),
                remaining_bad: corpus.parts().iter().filter(|p| !p.good).count(),
            });
        }
        let stats = RepairStats {
            repaired_parts: partition.part_count(),
            reused_parts: 0,
            rounds: corpus.total_rounds(),
        };
        let run = self.finish_repair(partition, &corpus, stats, strategy, "track", start)?;
        self.repair_cache
            .retain(|slot| slot.strategy.label() != strategy.label());
        self.repair_cache.push(RepairSlot {
            strategy,
            partition: partition.clone(),
            corpus,
            config,
        });
        Ok(run)
    }

    /// Applies `delta` to the most recently tracked partition and repairs
    /// the cached corpus in place: clean parts keep their block
    /// assignments, routing state and quality verbatim; only the delta's
    /// dirty closure is rebuilt, and congestion is re-aggregated by exact
    /// subtraction. The result is byte-identical to
    /// [`Session::track_partition`] on the post-delta partition — at the
    /// cost of the dirty volume, not `n`.
    ///
    /// # Errors
    ///
    /// [`LcsError::Config`] if no partition is tracked or the delta is
    /// structurally invalid (including any op that would empty a part);
    /// [`LcsError::BudgetExhausted`] when a doubling strategy exhausts its
    /// budget on a rebuilt part; simulation errors in `Simulated` mode.
    /// The cached state is left unchanged on any error.
    pub fn update_partition(&mut self, delta: &PartitionDelta) -> Result<RepairRun> {
        let mut slot = self.repair_cache.pop().ok_or_else(|| LcsError::Config {
            reason: "no tracked partition to update; call Session::track_partition first"
                .to_string(),
        })?;
        let outcome = self.repair_with(
            &slot.partition,
            &slot.corpus,
            &slot.config,
            slot.strategy,
            delta,
        );
        match outcome {
            Ok((partition, corpus, run)) => {
                slot.partition = partition;
                slot.corpus = corpus;
                self.repair_cache.push(slot);
                Ok(run)
            }
            Err(err) => {
                self.repair_cache.push(slot);
                Err(err)
            }
        }
    }

    /// Serves one repair against a detached [`RepairBaseline`] — a pure
    /// function of `(baseline, delta)` that leaves the session's own
    /// tracked state untouched. This is the entry behind
    /// [`crate::Query::Repair`], so a workload driver can replay the same
    /// pre-generated `(baseline, delta)` pairs any number of times and
    /// always observe the same result.
    ///
    /// # Errors
    ///
    /// Same as [`Session::update_partition`], minus the not-tracked case.
    pub fn repair_from(
        &self,
        baseline: &RepairBaseline,
        delta: &PartitionDelta,
    ) -> Result<RepairRun> {
        self.check_partition(&baseline.partition)?;
        let (_, _, run) = self.repair_with(
            &baseline.partition,
            &baseline.corpus,
            &baseline.config,
            baseline.strategy,
            delta,
        )?;
        Ok(run)
    }

    /// A detached snapshot of the most recently tracked partition and its
    /// corpus (see [`RepairBaseline`]); `None` until
    /// [`Session::track_partition`] succeeds.
    pub fn repair_baseline(&self) -> Option<RepairBaseline> {
        self.repair_cache.last().map(|slot| RepairBaseline {
            strategy: slot.strategy,
            partition: slot.partition.clone(),
            corpus: slot.corpus.clone(),
            config: slot.config,
        })
    }
}

/// The `Simulated` verification seam of the repair paths: builds the
/// restricted part set from the driver's active mask and runs the
/// message-passing block counting on exactly those parts.
#[allow(clippy::too_many_arguments)]
fn simulated_parts(
    g: &Graph,
    t: &RootedTree,
    p: &Partition,
    s: &TreeShortcut,
    threshold: usize,
    active: &[bool],
    sim_config: SimConfig,
    obs: &Obs,
) -> lcs_core::Result<lcs_core::construction::VerificationOutcome> {
    let mut parts = PartSet::new(p.part_count());
    for (i, &a) in active.iter().enumerate() {
        if a {
            parts.insert(PartId::new(i));
        }
    }
    let outcome =
        verification_simulated_parts(g, t, p, s, threshold, &parts, Some(sim_config), obs)
            .map_err(lcs_core::CoreError::from)?;
    Ok(outcome.outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DoublingSpec;
    use lcs_graph::{generators, NodeId};

    #[test]
    fn repair_probes_are_thread_invariant() {
        let graph = generators::grid(8, 8);
        let partition = generators::partitions::grid_columns(8, 8);
        let delta = PartitionDelta::new().move_nodes(vec![NodeId::new(1)], PartId::new(0));
        let mut facts = Vec::new();
        for threads in [1usize, 4] {
            let obs = lcs_obs::Obs::recording();
            let mut session = Pipeline::on(&graph)
                .seed(5)
                .threads(Threads::Fixed(threads))
                .recorder(obs.clone())
                .build()
                .unwrap();
            session
                .track_partition(&partition, Strategy::doubling())
                .unwrap();
            session.update_partition(&delta).unwrap();
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
    fn set_seed_drops_the_tracked_corpus_instead_of_corrupting_repairs() {
        let g = generators::grid(8, 8);
        let p = generators::partitions::grid_columns(8, 8);
        let delta = PartitionDelta::new().move_nodes(vec![NodeId::new(1)], PartId::new(0));
        let mut session = Pipeline::on(&g).seed(5).build().unwrap();
        session.track_partition(&p, Strategy::doubling()).unwrap();

        // Per-part construction seeds derive from the session seed, so a
        // corpus tracked under seed 5 must not survive a switch to seed 6:
        // updating right away is the typed "no tracked partition" error,
        // not a silently-wrong repair.
        session.set_seed(6);
        let err = session.update_partition(&delta).unwrap_err();
        assert!(matches!(err, LcsError::Config { .. }));

        // Re-tracking under the new seed restores repair == rebuild.
        session.track_partition(&p, Strategy::doubling()).unwrap();
        let updated = session.update_partition(&delta).unwrap();
        let new_p = p.apply(&delta).unwrap();
        let mut fresh = Pipeline::on(&g).seed(6).build().unwrap();
        let rebuilt = fresh.track_partition(&new_p, Strategy::doubling()).unwrap();
        assert_eq!(updated.shortcut, rebuilt.shortcut);
        assert_eq!(updated.quality, rebuilt.quality);
        assert_eq!(updated.good, rebuilt.good);

        // Re-setting the values already in effect keeps the slot; an
        // execution-mode change drops it for the same reason a seed
        // change does.
        session.set_seed(6);
        session.set_execution(ExecutionMode::Scheduled);
        assert!(session.repair_baseline().is_some());
        session.set_execution(ExecutionMode::Simulated);
        assert!(session.repair_baseline().is_none());
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

        let disconnected = Graph::from_edges(3, &[(NodeId::new(0), NodeId::new(1))]).unwrap();
        let err = Pipeline::on(&disconnected).build().unwrap_err();
        assert!(matches!(err, LcsError::InconsistentInputs { .. }));
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
        assert_eq!(session.shard_map().shard_count(), 3);
        assert_eq!(session.tree().node_count(), g.node_count());
        assert_eq!(session.seed(), 7);
        assert_eq!(session.execution(), ExecutionMode::Scheduled);
        assert_eq!(session.sim_config().threads, 3);
        session.set_seed(9);
        session.set_execution(ExecutionMode::Simulated);
        assert_eq!(session.seed(), 9);
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
        // The construction itself ran fault-free: identical to the plain
        // session's result because `shortcut` strips the plan.
        let run_faulty = faulty.shortcut(&p, Strategy::doubling()).unwrap();
        assert_eq!(run_faulty.shortcut, run.shortcut);
    }

    #[test]
    fn a_defeating_fault_plan_surfaces_as_a_typed_degraded_error() {
        let g = generators::grid(5, 5);
        let p = generators::partitions::grid_columns(5, 5);
        let session = Pipeline::on(&g)
            .execution(ExecutionMode::Simulated)
            .fault(FaultPlan::new(7).with_crashes(1, 0, 0))
            .retry(RetryPolicy {
                max_epochs: 2,
                timeout_factor: 2,
                backoff: 1,
            })
            .build()
            .unwrap();
        let empty = TreeShortcut::empty(&g, &p);
        let err = session.verify(&empty, &p, 5).unwrap_err();
        assert!(
            matches!(
                err,
                LcsError::Degraded {
                    epochs: 2,
                    stalls: 2,
                    ..
                }
            ),
            "a permanent crash must degrade, got: {err}"
        );
    }

    #[test]
    fn update_partition_matches_a_fresh_track() {
        let g = generators::grid(8, 8);
        let p = generators::partitions::grid_columns(8, 8);
        let mut session = Pipeline::on(&g).seed(5).build().unwrap();
        let tracked = session.track_partition(&p, Strategy::doubling()).unwrap();
        assert!(tracked.report.all_parts_good);
        assert_eq!(tracked.repaired_parts, p.part_count());
        assert_eq!(tracked.reused_parts, 0);
        assert_eq!(
            tracked.quality,
            session.quality(&tracked.shortcut, &p).unwrap()
        );

        let delta = PartitionDelta::new().move_nodes(vec![NodeId::new(1)], PartId::new(0));
        let updated = session.update_partition(&delta).unwrap();
        let new_p = p.apply(&delta).unwrap();
        let mut fresh = Pipeline::on(&g).seed(5).build().unwrap();
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
    fn update_without_track_is_a_config_error() {
        let g = generators::grid(4, 4);
        let mut session = Pipeline::on(&g).build().unwrap();
        let err = session
            .update_partition(&PartitionDelta::new())
            .unwrap_err();
        assert!(matches!(err, LcsError::Config { .. }));
    }

    #[test]
    fn a_failed_delta_leaves_the_tracked_state_usable() {
        let g = generators::grid(6, 6);
        let p = generators::partitions::grid_columns(6, 6);
        let mut session = Pipeline::on(&g).build().unwrap();
        session.track_partition(&p, Strategy::doubling()).unwrap();
        // Draining column 0 entirely must fail without corrupting the slot.
        let drain = PartitionDelta::new()
            .move_nodes((0..6).map(|r| NodeId::new(6 * r)).collect(), PartId::new(1));
        let err = session.update_partition(&drain).unwrap_err();
        assert!(matches!(err, LcsError::Config { .. }));
        let ok = session
            .update_partition(
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
            let mut session = Pipeline::on(&g)
                .seed(3)
                .execution(execution)
                .build()
                .unwrap();
            assert!(session.repair_baseline().is_none());
            session.track_partition(&p, Strategy::doubling()).unwrap();
            let baseline = session.repair_baseline().unwrap();
            assert_eq!(baseline.partition(), &p);
            let delta = PartitionDelta::new().move_nodes(vec![NodeId::new(1)], PartId::new(0));
            let a = session.repair_from(&baseline, &delta).unwrap();
            let b = session.repair_from(&baseline, &delta).unwrap();
            assert_eq!(a.shortcut, b.shortcut);
            assert_eq!(a.quality, b.quality);
            // The session's own tracked state is untouched by serving.
            assert_eq!(session.repair_baseline().unwrap().partition(), &p);
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
