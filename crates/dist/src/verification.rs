//! Lemma 3 as message passing: distributed block-component counting, and
//! the resulting drop-in for the `Verification` subroutine (Lemma 6).
//!
//! Each part views its shortcut subgraph as a supergraph whose supernodes
//! are the block components. The protocol runs `3·threshold + 2` Theorem 2
//! supersteps over the block family:
//!
//! 1. **flood** (`threshold` supersteps): every block floods
//!    `(leader = min block-root id, hops)` over the supergraph — a part
//!    with at most `threshold` blocks has supergraph diameter less than
//!    `threshold`, so its blocks converge to a consistent BFS layering;
//! 2. **parent election** (1 superstep): each non-leader block agrees on
//!    the minimum-id neighboring block one hop closer to the leader;
//! 3. **port election** (1 superstep): each block agrees on the minimum-id
//!    graph edge towards its parent block, making the child→parent report
//!    channel unique; the port owner then announces the block to its
//!    parent;
//! 4. **count-up** (`threshold` supersteps): blocks whose announced
//!    children have all reported convergecast `1 + Σ child counts` up the
//!    supergraph BFS tree; the leader block's completed count is the exact
//!    number of blocks of the part;
//! 5. **verdict** (`threshold` supersteps): the leader's verdict (count ≤
//!    threshold, unpoisoned) floods back over the supergraph.
//!
//! Inconsistencies that only arise when a part has *more* than `threshold`
//! blocks (conflicting leader beliefs across an edge, BFS layers differing
//! by ≥ 2, a non-leader block without a parent) poison the affected
//! members, which then refuse every verdict; a part is reported good only
//! if **all** of its members end clean with the same good verdict — which
//! makes the classification sound (a reported-good part really has
//! `count ≤ threshold` exact), while converged parts always classify
//! (completeness). The final all-members conjunction is the `O(D)`
//! whole-tree convergecast the paper's driver performs after each
//! verification anyway; its `depth(T)` rounds are charged on top of the
//! executed protocol rounds, mirroring the scheduled version.

use lcs_congest::{bits_for_node_count, SimConfig, SimError, SimStats};
use lcs_core::construction::VerificationOutcome;
use lcs_core::TreeShortcut;
use lcs_graph::{Graph, NodeId, PartSet, Partition, RootedTree};
use lcs_obs::Obs;

use crate::engine::{run_engine, EngineSpec, NodeProgram};
use crate::error::DistError;
use crate::knowledge::{BlockFamily, Membership, NodeInfo};
use crate::Result;

const NONE: u64 = u64::MAX;

/// Which of the five phases a superstep belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Flood,
    Parent,
    Port,
    Count,
    Verdict,
}

fn phase_of(step: u64, threshold: u64) -> Phase {
    if step < threshold {
        Phase::Flood
    } else if step == threshold {
        Phase::Parent
    } else if step == threshold + 1 {
        Phase::Port
    } else if step < 2 * threshold + 2 {
        Phase::Count
    } else {
        Phase::Verdict
    }
}

/// Number of supersteps of the counting protocol.
pub fn counting_supersteps(threshold: usize) -> u64 {
    3 * threshold as u64 + 2
}

/// Counts each superstep of a run into its phase's counter, so a snapshot
/// shows where the `3t + 2` budget goes. Computed from [`phase_of`] — the
/// same function the protocol dispatches on — so the split cannot drift
/// from the protocol.
fn record_phase_split(obs: &Obs, supersteps: u64, threshold: u64) {
    let mut split = [0u64; 5];
    for step in 0..supersteps {
        let slot = match phase_of(step, threshold) {
            Phase::Flood => 0,
            Phase::Parent => 1,
            Phase::Port => 2,
            Phase::Count => 3,
            Phase::Verdict => 4,
        };
        split[slot] += 1;
    }
    const NAMES: [&str; 5] = [
        "dist/verification/phase/flood",
        "dist/verification/phase/parent",
        "dist/verification/phase/port",
        "dist/verification/phase/count",
        "dist/verification/phase/verdict",
    ];
    for (name, count) in NAMES.iter().zip(split) {
        obs.counter_add(name, count);
    }
}

/// Block-level value circulated intra-block; the variant is determined by
/// the phase.
#[derive(Debug, Clone, PartialEq)]
enum CVal {
    /// `(leader root id, hops)`, lexicographic minimum.
    Flood(u64, u64),
    /// A generic minimum (parent root id or port edge id); [`NONE`] = none.
    Min(u64),
    /// Count aggregation: announced children, reported children, count sum,
    /// poison flag.
    Count(u64, u64, u64, bool),
    /// Verdict dissemination.
    Verd(Option<(bool, u64)>),
}

/// Cross-edge payloads.
#[derive(Debug, Clone)]
enum CCross {
    /// Flood state: sender's block root, leader belief, hop belief.
    Info(u64, u64, u64),
    /// "Your block is my parent": sent once over the elected port.
    Announce(u64),
    /// Completed subtree count: `(child root, count, poison)`.
    Report(u64, u64, bool),
    /// The sender's block is inconsistent; treat the part as suspect.
    Broken,
    /// A decided verdict `(good, total)`.
    Verdict(bool, u64),
}

/// A stored neighbor observation.
#[derive(Debug, Clone)]
struct NbrInfo {
    from: NodeId,
    block_root: u64,
    leader: u64,
    hops: u64,
}

/// Per-node program of the counting protocol. All semantic fields concern
/// the node's own-part block; foreign memberships only relay.
#[derive(Debug, Clone)]
struct CountProgram {
    threshold: u64,
    id_bits: usize,
    edge_bits: usize,
    /// Fault mode: the engine polls `cross_message` at every round of the
    /// cross slot, so one-shot gates (`announce_sent`, `count_sent`) are
    /// disabled and receivers rely on their own deduplication. A lost copy
    /// is then healed by the next resend.
    resend: bool,
    // Agreed own-block state.
    flood: Option<(u64, u64)>,
    parent: Option<u64>,
    port: Option<u64>,
    is_reporter: bool,
    reporter_to: Option<NodeId>,
    block_broken: bool,
    block_poisoned: bool,
    my_count: Option<(u64, bool)>,
    count_sent: bool,
    announce_sent: bool,
    verdict: Option<(bool, u64)>,
    member_bad: bool,
    // Stored observations.
    nbr: Vec<NbrInfo>,
    children_announced: Vec<u64>,
    child_reports: Vec<(u64, u64, bool)>,
}

impl CountProgram {
    fn new(threshold: u64, id_bits: usize, edge_bits: usize, resend: bool) -> Self {
        CountProgram {
            threshold,
            id_bits,
            edge_bits,
            resend,
            flood: None,
            parent: None,
            port: None,
            is_reporter: false,
            reporter_to: None,
            block_broken: false,
            block_poisoned: false,
            my_count: None,
            count_sent: false,
            announce_sent: false,
            verdict: None,
            member_bad: false,
            nbr: Vec::new(),
            children_announced: Vec::new(),
            child_reports: Vec::new(),
        }
    }

    fn is_own(info: &NodeInfo, m: &Membership) -> bool {
        info.own().map(|own| own.block == m.block).unwrap_or(false)
    }

    /// A locally visible inconsistency: a same-part neighbor believing a
    /// different leader, or a BFS layer jump of two or more.
    fn local_witness(&self) -> bool {
        let Some((leader, hops)) = self.flood else {
            return false;
        };
        self.nbr.iter().any(|n| {
            n.leader != leader || (hops != NONE && n.hops != NONE && n.hops.abs_diff(hops) >= 2)
        })
    }

    fn suspect(&self) -> bool {
        self.member_bad || self.block_broken || self.block_poisoned || self.local_witness()
    }

    /// The node's final classification: `Some((good, total))` only when it
    /// ended clean with a decided verdict.
    fn final_verdict(&self) -> Option<(bool, u64)> {
        if self.suspect() {
            return Some((false, 0));
        }
        self.verdict
    }
}

impl NodeProgram for CountProgram {
    type Val = CVal;
    type Cross = CCross;

    fn contribution(&mut self, info: &NodeInfo, m: &Membership, step: u64) -> CVal {
        let phase = phase_of(step, self.threshold);
        if !Self::is_own(info, m) {
            // Identity elements for relay-only memberships.
            return match phase {
                Phase::Flood => CVal::Flood(NONE, NONE),
                Phase::Parent | Phase::Port => CVal::Min(NONE),
                Phase::Count => CVal::Count(0, 0, 0, false),
                Phase::Verdict => CVal::Verd(None),
            };
        }
        match phase {
            Phase::Flood => {
                let mut best = (m.root.index() as u64, 0);
                for n in &self.nbr {
                    if n.hops != NONE {
                        best = best.min((n.leader, n.hops + 1));
                    }
                }
                CVal::Flood(best.0, best.1)
            }
            Phase::Parent => {
                let Some((leader, hops)) = self.flood else {
                    return CVal::Min(NONE);
                };
                if hops == 0 {
                    return CVal::Min(NONE);
                }
                let cand = self
                    .nbr
                    .iter()
                    .filter(|n| n.leader == leader && n.hops != NONE && n.hops + 1 == hops)
                    .map(|n| n.block_root)
                    .min();
                CVal::Min(cand.unwrap_or(NONE))
            }
            Phase::Port => {
                let Some(parent) = self.parent else {
                    return CVal::Min(NONE);
                };
                let cand = info
                    .part_neighbors
                    .iter()
                    .filter(|(u, _)| {
                        self.nbr
                            .iter()
                            .any(|n| n.from == *u && n.block_root == parent)
                    })
                    .map(|(_, e)| e.index() as u64)
                    .min();
                CVal::Min(cand.unwrap_or(NONE))
            }
            Phase::Count => {
                let announced = self.children_announced.len() as u64;
                let reported = self.child_reports.len() as u64;
                let sum: u64 = self.child_reports.iter().map(|(_, c, _)| *c).sum();
                let poison = self.member_bad
                    || self.local_witness()
                    || self.child_reports.iter().any(|(_, _, p)| *p);
                CVal::Count(announced, reported, sum, poison)
            }
            Phase::Verdict => CVal::Verd(self.verdict),
        }
    }

    fn combine(&self, step: u64, a: &CVal, b: &CVal) -> CVal {
        match (a, b) {
            (CVal::Flood(l1, h1), CVal::Flood(l2, h2)) => {
                let m = (*l1, *h1).min((*l2, *h2));
                CVal::Flood(m.0, m.1)
            }
            (CVal::Min(x), CVal::Min(y)) => CVal::Min(*x.min(y)),
            (CVal::Count(a1, r1, s1, p1), CVal::Count(a2, r2, s2, p2)) => {
                CVal::Count(a1 + a2, r1 + r2, s1 + s2, *p1 || *p2)
            }
            (CVal::Verd(x), CVal::Verd(y)) => CVal::Verd((*x).or(*y)),
            _ => unreachable!("mixed value variants in superstep {step}"),
        }
    }

    fn on_agreed(&mut self, info: &NodeInfo, m: &Membership, val: &CVal, step: u64) {
        if !Self::is_own(info, m) {
            return;
        }
        match (phase_of(step, self.threshold), val) {
            (Phase::Flood, CVal::Flood(leader, hops)) => {
                self.flood = Some((*leader, *hops));
            }
            (Phase::Parent, CVal::Min(v)) => {
                self.parent = (*v != NONE).then_some(*v);
                let hops = self.flood.map(|(_, h)| h).unwrap_or(NONE);
                self.block_broken = self.parent.is_none() && hops != 0;
                if self.block_broken {
                    self.member_bad = true;
                }
            }
            (Phase::Port, CVal::Min(v)) => {
                self.port = (*v != NONE).then_some(*v);
                if let (Some(port), Some(parent)) = (self.port, self.parent) {
                    for (u, e) in &info.part_neighbors {
                        let towards_parent = self
                            .nbr
                            .iter()
                            .any(|n| n.from == *u && n.block_root == parent);
                        if e.index() as u64 == port && towards_parent {
                            self.is_reporter = true;
                            self.reporter_to = Some(*u);
                        }
                    }
                }
            }
            (Phase::Count, CVal::Count(announced, reported, sum, poison)) => {
                self.block_poisoned = *poison;
                if reported == announced && self.my_count.is_none() {
                    self.my_count = Some((1 + sum, *poison));
                    let is_leader = self.parent.is_none() && self.flood.map(|(_, h)| h) == Some(0);
                    if is_leader {
                        let good = !*poison && *sum < self.threshold;
                        self.verdict = Some((good, 1 + sum));
                    }
                }
            }
            (Phase::Verdict, CVal::Verd(v)) => {
                if let Some(v) = v {
                    self.verdict.get_or_insert(*v);
                }
            }
            _ => unreachable!("phase/value mismatch"),
        }
    }

    fn cross_message(&mut self, info: &NodeInfo, to: NodeId, step: u64) -> Option<CCross> {
        let own = info.own()?;
        match phase_of(step, self.threshold) {
            Phase::Flood => {
                let (leader, hops) = self.flood?;
                Some(CCross::Info(own.root.index() as u64, leader, hops))
            }
            Phase::Parent => None,
            Phase::Port => {
                if self.is_reporter
                    && self.reporter_to == Some(to)
                    && (self.resend || !self.announce_sent)
                {
                    self.announce_sent = true;
                    Some(CCross::Announce(own.root.index() as u64))
                } else {
                    None
                }
            }
            Phase::Count => {
                if self.suspect() {
                    return Some(CCross::Broken);
                }
                if self.is_reporter && self.reporter_to == Some(to) {
                    if let Some((count, poison)) = self.my_count {
                        if self.resend || !self.count_sent {
                            self.count_sent = true;
                            return Some(CCross::Report(own.root.index() as u64, count, poison));
                        }
                    } else if self.resend {
                        // Until the subtree count completes, keep
                        // re-announcing: a Port-phase Announce whose every
                        // copy was lost would otherwise leave the parent's
                        // `reported == announced` gate free to fire without
                        // this child.
                        return Some(CCross::Announce(own.root.index() as u64));
                    }
                }
                None
            }
            Phase::Verdict => {
                if self.member_bad {
                    return Some(CCross::Broken);
                }
                self.verdict
                    .map(|(good, total)| CCross::Verdict(good, total))
            }
        }
    }

    fn on_cross(&mut self, _info: &NodeInfo, from: NodeId, msg: CCross, _step: u64) {
        match msg {
            CCross::Info(block_root, leader, hops) => {
                if let Some(n) = self.nbr.iter_mut().find(|n| n.from == from) {
                    n.leader = leader;
                    n.hops = hops;
                } else {
                    self.nbr.push(NbrInfo {
                        from,
                        block_root,
                        leader,
                        hops,
                    });
                }
            }
            CCross::Announce(child_root) => {
                if !self.children_announced.contains(&child_root) {
                    self.children_announced.push(child_root);
                }
            }
            CCross::Report(child_root, count, poison) => {
                // A Report implies the sender's Announce: healing the
                // announced set here keeps the `reported == announced`
                // completion gate honest when every copy of the Announce
                // itself was lost. A no-op in fault-free runs, where the
                // Announce always precedes the Report.
                if !self.children_announced.contains(&child_root) {
                    self.children_announced.push(child_root);
                }
                if !self.child_reports.iter().any(|(r, _, _)| *r == child_root) {
                    self.child_reports.push((child_root, count, poison));
                }
            }
            CCross::Broken => {
                self.member_bad = true;
            }
            CCross::Verdict(good, total) => {
                self.verdict.get_or_insert((good, total));
            }
        }
    }

    fn val_bits(&self) -> usize {
        // Variant tag plus the widest variant (the count aggregate).
        2 + (3 * self.id_bits + 2)
            .max(2 * (self.id_bits + 1))
            .max(self.edge_bits + 1)
    }

    fn cross_bits(&self) -> usize {
        // Variant tag plus the widest payload (the flood info triple).
        3 + 3 * (self.id_bits + 1)
    }
}

/// Result of the distributed verification.
#[derive(Debug, Clone)]
pub struct DistVerificationOutcome {
    /// The drop-in verification outcome: `good` flags, measured block
    /// counts (exact for good parts, 0 for parts classified bad), and the
    /// charged rounds (executed protocol rounds plus the `depth(T)` global
    /// check).
    pub outcome: VerificationOutcome,
    /// Simulation statistics of the executed protocol.
    pub stats: SimStats,
    /// Per-round delivery trace of the executed protocol; empty unless the
    /// caller passed a [`SimConfig`] with tracing enabled.
    pub trace: Vec<lcs_congest::RoundTrace>,
    /// Number of supersteps executed (`3·threshold + 2`).
    pub supersteps: u64,
    /// Whether every active part reached a definite classification: all of
    /// its members returned a verdict and the verdicts agree. Always true
    /// in fault-free runs; under an active [`lcs_congest::FaultPlan`] a
    /// crash or heavy loss can leave members undecided (or split), in which
    /// case the run is a *stall* — the [`verification_with_retry`] wrapper
    /// detects this and re-runs the protocol in a fresh epoch.
    pub decisive: bool,
}

/// Runs the Lemma 3 block counting as real message passing and classifies
/// every active part against `threshold`.
///
/// Guarantees: a part reported good really has at most `threshold` block
/// components and its reported count is exact; a part whose supergraph
/// converges within `threshold` hops (in particular every part with at most
/// `threshold` blocks) is always classified, so the subroutine is a sound
/// and complete drop-in for `lcs_core::construction::verification`.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if `active.len()` differs from the partition's part count or if
/// `threshold` is zero.
pub fn verification_simulated(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    shortcut: &TreeShortcut,
    threshold: usize,
    active: &[bool],
    config: Option<SimConfig>,
) -> Result<DistVerificationOutcome> {
    verification_simulated_obs(
        graph,
        tree,
        partition,
        shortcut,
        threshold,
        active,
        config,
        &Obs::off(),
    )
}

/// [`verification_simulated`] with an instrumentation handle: reports the
/// protocol shape (`dist/verification/*` counters, including the
/// superstep-per-phase split) and the underlying engine's counters,
/// gauges, and timers through `obs`, and wraps the run in a
/// `dist/verification` span. All reported counters are thread-invariant
/// facts; only span/timer durations vary between runs.
#[allow(clippy::too_many_arguments)]
pub fn verification_simulated_obs(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    shortcut: &TreeShortcut,
    threshold: usize,
    active: &[bool],
    config: Option<SimConfig>,
    obs: &Obs,
) -> Result<DistVerificationOutcome> {
    let _span = lcs_obs::span!(obs, "dist/verification");
    let family = counting_family(graph, tree, partition, shortcut, threshold, active);
    count_blocks(
        graph, tree, partition, &family, threshold, active, config, obs,
    )
}

/// Checks the preconditions shared by the verification entry points and
/// builds the block family of the active parts.
fn counting_family(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    shortcut: &TreeShortcut,
    threshold: usize,
    active: &[bool],
) -> BlockFamily {
    assert!(threshold >= 1, "the block threshold must be at least 1");
    assert_eq!(
        active.len(),
        partition.part_count(),
        "one active flag per part is required"
    );
    BlockFamily::new_active(graph, tree, partition, shortcut, active)
}

/// One run of the counting protocol over an already built `family` (see
/// [`verification_simulated_obs`]; the retry wrapper runs every epoch on
/// one family).
#[allow(clippy::too_many_arguments)]
fn count_blocks(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    family: &BlockFamily,
    threshold: usize,
    active: &[bool],
    config: Option<SimConfig>,
    obs: &Obs,
) -> Result<DistVerificationOutcome> {
    let supersteps = counting_supersteps(threshold);
    if obs.is_on() {
        obs.counter_add("dist/verification/runs", 1);
        obs.counter_add("dist/verification/supersteps", supersteps);
        record_phase_split(obs, supersteps, threshold as u64);
    }
    let spec = EngineSpec {
        steps: supersteps,
        broadcast_down: true,
    };
    let id_bits = bits_for_node_count(graph.node_count());
    let edge_bits = lcs_congest::bits_for_count(graph.edge_count().max(2));
    let resend = config.as_ref().and_then(|c| c.active_fault()).is_some();
    let outcome = run_engine(graph, family, spec, config, obs, |_info: &NodeInfo| {
        CountProgram::new(threshold as u64, id_bits, edge_bits, resend)
    })?;

    let mut good = vec![false; partition.part_count()];
    let mut block_counts = vec![0usize; partition.part_count()];
    let mut decisive = true;
    for p in partition.parts() {
        if !active[p.index()] {
            continue;
        }
        // The paper's driver follows every verification with an O(D)
        // whole-tree convergecast; here it realizes the all-members
        // conjunction that makes the classification sound.
        let mut part_verdict: Option<(bool, u64)> = None;
        let mut consistent = true;
        for &v in partition.members(p) {
            match outcome.nodes[v.index()].program().final_verdict() {
                Some(v) => match part_verdict {
                    None => part_verdict = Some(v),
                    Some(seen) if seen == v => {}
                    Some(_) => consistent = false,
                },
                None => consistent = false,
            }
        }
        // An undecided or split part stays classified bad (sound), but the
        // run as a whole is flagged indecisive so a retry wrapper can tell
        // a fault-induced stall from a genuine over-threshold part.
        if !consistent {
            decisive = false;
        }
        if let (true, Some((true, total))) = (consistent, part_verdict) {
            good[p.index()] = true;
            block_counts[p.index()] = total as usize;
        }
    }

    let rounds = outcome.stats.rounds + u64::from(tree.depth_of_tree());
    Ok(DistVerificationOutcome {
        outcome: VerificationOutcome {
            good,
            block_counts,
            rounds,
        },
        stats: outcome.stats,
        trace: outcome.trace,
        supersteps,
        decisive,
    })
}

/// [`verification_simulated_obs`] restricted to an explicit part set —
/// the entry the incremental repair layer drives: only the parts in
/// `parts` are verified (the dirty closure of a partition delta), every
/// other part is skipped by the protocol exactly as an inactive part of a
/// driver iteration would be.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if `parts` is defined over a different part universe than the
/// partition or if `threshold` is zero.
#[allow(clippy::too_many_arguments)]
pub fn verification_simulated_parts(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    shortcut: &TreeShortcut,
    threshold: usize,
    parts: &PartSet,
    config: Option<SimConfig>,
    obs: &Obs,
) -> Result<DistVerificationOutcome> {
    assert_eq!(
        parts.universe(),
        partition.part_count(),
        "the part set must cover the partition's part universe"
    );
    verification_simulated_obs(
        graph,
        tree,
        partition,
        shortcut,
        threshold,
        parts.as_mask(),
        config,
        obs,
    )
}

/// How [`verification_with_retry`] turns stalled runs into fresh epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of epochs before giving up (at least 1 is run).
    pub max_epochs: u32,
    /// The first epoch's round budget is the engine's exact fault-mode
    /// schedule multiplied by this factor, so transient queue build-up
    /// cannot trip the cap.
    pub timeout_factor: u32,
    /// Every further epoch multiplies the budget by this factor again
    /// (exponential back-off against systematic slowness).
    pub backoff: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_epochs: 5,
            timeout_factor: 2,
            backoff: 2,
        }
    }
}

/// Result of [`verification_with_retry`].
#[derive(Debug, Clone)]
pub struct RetryVerification {
    /// The last executed epoch's outcome; `None` only if every epoch died
    /// on the round cap before producing one.
    pub outcome: Option<DistVerificationOutcome>,
    /// Number of epochs executed (1 if the first attempt succeeded).
    pub epochs: u32,
    /// Number of stalled epochs (indecisive conjunction or round-cap hit).
    pub stalls: u32,
    /// Whether the returned outcome is decisive. `false` means the fault
    /// plan defeated every epoch — the caller should surface a degraded
    /// result rather than trust the classification.
    pub decisive: bool,
}

/// Self-healing wrapper around [`verification_simulated_obs`]: detects a
/// stalled conjunction (crashed members never deciding, or the round cap
/// tripping under heavy loss) and re-runs the protocol in a fresh *epoch*.
///
/// Each epoch advances the fault plan's round offset by the previous
/// epoch's budget, so the retry observes the same deterministic fault
/// world later in global time: crash windows with a restart have healed,
/// and loss/duplication draws differ. With any restarting crash schedule
/// and loss below the resend redundancy this converges with probability
/// rapidly approaching one in a handful of epochs. The whole procedure is
/// deterministic: same plan, same policy, same outcome, at every shard count.
///
/// Without an active fault plan on `config` this is exactly one plain run.
///
/// # Errors
///
/// Propagates simulator errors other than the round cap (which is part of
/// the stall-detection loop).
///
/// # Panics
///
/// As [`verification_simulated_obs`]; additionally if a policy field is 0
/// where at least 1 is required (all fields are clamped to 1 instead).
#[allow(clippy::too_many_arguments)]
pub fn verification_with_retry(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    shortcut: &TreeShortcut,
    threshold: usize,
    active: &[bool],
    config: Option<SimConfig>,
    policy: RetryPolicy,
    obs: &Obs,
) -> Result<RetryVerification> {
    let cfg = config.unwrap_or_else(|| SimConfig::for_graph(graph));
    let Some(base_plan) = cfg.active_fault() else {
        let outcome = verification_simulated_obs(
            graph,
            tree,
            partition,
            shortcut,
            threshold,
            active,
            Some(cfg),
            obs,
        )?;
        let decisive = outcome.decisive;
        return Ok(RetryVerification {
            outcome: Some(outcome),
            epochs: 1,
            stalls: 0,
            decisive,
        });
    };

    // One family serves every epoch: it depends on the shortcut and the
    // active parts only, never on the fault plan. Its schedule gives the
    // engine's exact fault-mode round count for this instance (the same
    // formula `run_engine` uses), so the first epoch's budget is
    // `timeout_factor ×` the nominal run and never spuriously tight.
    let family = counting_family(graph, tree, partition, shortcut, threshold, active);
    let l = family.schedule().rounds;
    let s = base_plan.round_stretch().max(1);
    let base_budget = counting_supersteps(threshold)
        .saturating_mul(crate::engine::faulty_window((l + 1) * s, s))
        .saturating_add(2);

    let max_epochs = policy.max_epochs.max(1);
    let mut offset = base_plan.round_offset();
    let mut stalls = 0u32;
    let mut last: Option<DistVerificationOutcome> = None;
    for epoch in 0..max_epochs {
        let budget = base_budget
            .saturating_mul(u64::from(policy.timeout_factor.max(1)))
            .saturating_mul(u64::from(policy.backoff.max(1)).saturating_pow(epoch));
        let cfg_e = cfg
            .with_fault(base_plan.with_round_offset(offset))
            .with_max_rounds(budget);
        if obs.is_on() {
            obs.counter_add("dist/verification/epochs", 1);
        }
        let run = {
            let _span = lcs_obs::span!(obs, "dist/verification");
            count_blocks(
                graph,
                tree,
                partition,
                &family,
                threshold,
                active,
                Some(cfg_e),
                obs,
            )
        };
        match run {
            Ok(out) if out.decisive => {
                return Ok(RetryVerification {
                    outcome: Some(out),
                    epochs: epoch + 1,
                    stalls,
                    decisive: true,
                });
            }
            Ok(out) => {
                stalls += 1;
                if obs.is_on() {
                    obs.counter_add("dist/verification/stalls", 1);
                }
                last = Some(out);
            }
            Err(DistError::Simulation(SimError::RoundLimitExceeded { .. })) => {
                stalls += 1;
                if obs.is_on() {
                    obs.counter_add("dist/verification/stalls", 1);
                }
            }
            Err(other) => return Err(other),
        }
        // The next epoch starts where this one's budget ended in global
        // fault time: restartable crash windows are behind it and the
        // loss/duplication draws are fresh (but still deterministic).
        offset = offset.saturating_add(budget);
    }
    Ok(RetryVerification {
        outcome: last,
        epochs: max_epochs,
        stalls,
        decisive: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_core::construction::verification;
    use lcs_core::existential::ancestor_shortcut;
    use lcs_graph::generators;

    fn all_active(p: &Partition) -> Vec<bool> {
        vec![true; p.part_count()]
    }

    fn check_against_scheduled(
        graph: &Graph,
        tree: &RootedTree,
        partition: &Partition,
        shortcut: &TreeShortcut,
        threshold: usize,
    ) {
        let active = all_active(partition);
        let scheduled = verification(graph, tree, partition, shortcut, threshold, &active);
        let simulated =
            verification_simulated(graph, tree, partition, shortcut, threshold, &active, None)
                .unwrap();
        assert_eq!(
            simulated.outcome.good, scheduled.good,
            "classification must match the scheduled verification (threshold {threshold})"
        );
        for p in partition.parts() {
            if scheduled.good[p.index()] {
                assert_eq!(
                    simulated.outcome.block_counts[p.index()],
                    scheduled.block_counts[p.index()],
                    "good part {p} must report the exact count"
                );
            }
        }
    }

    #[test]
    fn grid_ancestor_shortcut_verifies_like_the_scheduled_version() {
        let g = generators::grid(6, 6);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(6, 6);
        let s = ancestor_shortcut(&g, &t, &p);
        for threshold in [1, 2, 4] {
            check_against_scheduled(&g, &t, &p, &s, threshold);
        }
    }

    #[test]
    fn empty_shortcut_thresholds_classify_exactly() {
        let g = generators::grid(5, 5);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(5, 5);
        let s = TreeShortcut::empty(&g, &p);
        // Every column has 5 singleton blocks.
        for threshold in [3, 4, 5, 6] {
            check_against_scheduled(&g, &t, &p, &s, threshold);
        }
    }

    #[test]
    fn inactive_parts_are_ignored() {
        let g = generators::grid(4, 4);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(4, 4);
        let s = ancestor_shortcut(&g, &t, &p);
        let mut active = all_active(&p);
        active[1] = false;
        let simulated = verification_simulated(&g, &t, &p, &s, 1, &active, None).unwrap();
        assert!(!simulated.outcome.good[1]);
        assert_eq!(simulated.outcome.block_counts[1], 0);
        assert!(simulated.outcome.good[0] && simulated.outcome.good[2]);
    }

    #[test]
    fn executed_rounds_respect_the_superstep_bound() {
        let g = generators::torus(5, 5);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::random_bfs_balls(&g, 5, 3);
        let s = ancestor_shortcut(&g, &t, &p);
        let family = BlockFamily::new(&g, &t, &p, &s);
        let threshold = 3;
        let simulated =
            verification_simulated(&g, &t, &p, &s, threshold, &all_active(&p), None).unwrap();
        let window = 2 * family.schedule().rounds + 1;
        assert!(simulated.stats.rounds <= counting_supersteps(threshold) * window);
    }
}
