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

use lcs_congest::{bits_for_node_count, SimConfig, SimStats};
use lcs_core::construction::VerificationOutcome;
use lcs_core::TreeShortcut;
use lcs_graph::{Graph, LcsResult, NodeId, Partition, RootedTree};
use lcs_obs::Obs;

use crate::engine::{run_epochs, Epoch, EpochRun, NodeProgram, NodeView};
use crate::knowledge::{BlockFamily, NodeInfo};

/// The protocol's values are 32-bit words: every one is a node, edge or
/// block-root id (all `u32`-backed), a hop count or a block count (at most
/// `n`). `NONE` marks a missing leader, hop count, parent or port.
const NONE: u32 = u32::MAX;

/// An id or a count as a counting word: refused, never truncated, if it
/// does not fit below [`NONE`].
fn word(value: usize) -> u32 {
    u32::try_from(value)
        .ok()
        .filter(|&w| w != NONE)
        .expect("ids and counts fit in a counting word below NONE")
}

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
    Flood(u32, u32),
    /// A generic minimum (parent root id or port edge id); [`NONE`] = none.
    Min(u32),
    /// Count aggregation: announced children, reported children, count sum,
    /// poison flag.
    Count(u32, u32, u32, bool),
    /// Verdict dissemination.
    Verd(Option<(bool, u32)>),
}

/// Cross-edge payloads.
#[derive(Debug, Clone)]
enum CCross {
    /// Flood state: sender's block root, leader belief, hop belief.
    Info(u32, u32, u32),
    /// "Your block is my parent": sent once over the elected port.
    Announce(u32),
    /// Completed subtree count: `(child root, count, poison)`.
    Report(u32, u32, bool),
    /// The sender's block is inconsistent; treat the part as suspect.
    Broken,
    /// A decided verdict `(good, total)`.
    Verdict(bool, u32),
}

/// A stored neighbor observation.
#[derive(Debug, Clone)]
struct NbrInfo {
    from: NodeId,
    block_root: u32,
    leader: u32,
    hops: u32,
}

/// A child block heard of over a same-part edge: its root, and its
/// completed `(count, poison)` report once one arrived.
#[derive(Debug, Clone)]
struct ChildBlock {
    root: u32,
    report: Option<(u32, bool)>,
}

/// Appends `item` to an observation list that holds at most one entry per
/// same-part neighbor: the first append sizes it to the node's same-part
/// degree (the only time the list reads the node's view), so it never
/// grows afterwards, and a node that observes nothing allocates nothing.
fn observe<T>(list: &mut Vec<T>, view: NodeView<'_>, item: T) {
    let degree = || view.part_neighbors().len();
    if list.capacity() == 0 {
        list.reserve_exact(degree());
    }
    debug_assert!(
        list.len() < degree(),
        "one observation per same-part neighbor"
    );
    list.push(item);
}

/// Per-node program of the counting protocol. All semantic fields concern
/// the node's own-part block; foreign memberships only relay.
#[derive(Debug, Clone)]
struct CountProgram {
    threshold: u64,
    id_bits: usize,
    edge_bits: usize,
    /// Fault mode: the engine polls `cross_message` at every round of the
    /// cross slot, so the one-shot Report gate (`count_sent`) is disabled
    /// and receivers rely on their own deduplication. A lost copy is then
    /// healed by the next resend.
    resend: bool,
    /// The root id of the node's own-part block ([`NONE`] outside every
    /// active part): the block's identity in every cross message.
    own_root: u32,
    // Agreed own-block state.
    flood: Option<(u32, u32)>,
    parent: Option<u32>,
    port: Option<u32>,
    is_reporter: bool,
    reporter_to: Option<NodeId>,
    block_broken: bool,
    block_poisoned: bool,
    my_count: Option<(u32, bool)>,
    count_sent: bool,
    verdict: Option<(bool, u32)>,
    member_bad: bool,
    /// Under a fault plan, the engine reported a superstep this node
    /// missed: it stays undecided.
    missed: bool,
    // Stored observations, each list sized once (see [`observe`]).
    nbr: Vec<NbrInfo>,
    /// Every child block announced to this node.
    children: Vec<ChildBlock>,
}

impl CountProgram {
    fn new(
        threshold: u64,
        id_bits: usize,
        edge_bits: usize,
        resend: bool,
        info: &NodeInfo<'_>,
    ) -> Self {
        CountProgram {
            threshold,
            id_bits,
            edge_bits,
            resend,
            own_root: info.own().map_or(NONE, |own| word(own.root.index())),
            flood: None,
            parent: None,
            port: None,
            is_reporter: false,
            reporter_to: None,
            block_broken: false,
            block_poisoned: false,
            my_count: None,
            count_sent: false,
            verdict: None,
            member_bad: false,
            missed: false,
            nbr: Vec::new(),
            children: Vec::new(),
        }
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
    /// ended clean with a decided verdict, `None` while undecided.
    fn final_verdict(&self) -> Option<(bool, u64)> {
        if self.missed {
            return None;
        }
        if self.suspect() {
            return Some((false, 0));
        }
        self.verdict.map(|(good, total)| (good, u64::from(total)))
    }
}

impl NodeProgram for CountProgram {
    type Val = CVal;
    type Cross = CCross;

    fn contribution(&mut self, view: NodeView<'_>, own: bool, step: u64) -> CVal {
        let phase = phase_of(step, self.threshold);
        if !own {
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
                let mut best = (self.own_root, 0);
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
                let cand = view
                    .part_neighbors()
                    .iter()
                    .filter(|(u, _)| {
                        self.nbr
                            .iter()
                            .any(|n| n.from == *u && n.block_root == parent)
                    })
                    .map(|(_, e)| word(e.index()))
                    .min();
                CVal::Min(cand.unwrap_or(NONE))
            }
            Phase::Count => {
                let announced = word(self.children.len());
                let (mut reported, mut sum) = (0, 0);
                let mut poison = self.member_bad || self.local_witness();
                for (count, poisoned) in self.children.iter().filter_map(|child| child.report) {
                    reported += 1;
                    sum += count;
                    poison |= poisoned;
                }
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

    fn on_agreed(&mut self, view: NodeView<'_>, _member: usize, own: bool, val: &CVal, step: u64) {
        if !own {
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
                    for (u, e) in view.part_neighbors() {
                        let towards_parent = self
                            .nbr
                            .iter()
                            .any(|n| n.from == *u && n.block_root == parent);
                        if word(e.index()) == port && towards_parent {
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
                        let good = !*poison && u64::from(*sum) < self.threshold;
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

    fn cross_message(&mut self, to: NodeId, step: u64) -> Option<CCross> {
        let own_root = self.own_root;
        if own_root == NONE {
            return None;
        }
        match phase_of(step, self.threshold) {
            Phase::Flood => {
                let (leader, hops) = self.flood?;
                Some(CCross::Info(own_root, leader, hops))
            }
            Phase::Parent => None,
            // One superstep long, so a fault-free run asks once per
            // neighbor and a faulty one resends at every poll.
            Phase::Port => (self.is_reporter && self.reporter_to == Some(to))
                .then_some(CCross::Announce(own_root)),
            Phase::Count => {
                if self.suspect() {
                    return Some(CCross::Broken);
                }
                if self.is_reporter && self.reporter_to == Some(to) {
                    if let Some((count, poison)) = self.my_count {
                        if self.resend || !self.count_sent {
                            self.count_sent = true;
                            return Some(CCross::Report(own_root, count, poison));
                        }
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

    fn on_cross(&mut self, view: NodeView<'_>, from: NodeId, msg: CCross, _step: u64) {
        // A block announces and reports only its own root, so there is one
        // child block per same-part neighbor at most.
        match msg {
            CCross::Info(block_root, leader, hops) => {
                if let Some(n) = self.nbr.iter_mut().find(|n| n.from == from) {
                    n.leader = leader;
                    n.hops = hops;
                } else {
                    let seen = NbrInfo {
                        from,
                        block_root,
                        leader,
                        hops,
                    };
                    observe(&mut self.nbr, view, seen);
                }
            }
            CCross::Announce(root) => {
                if !self.children.iter().any(|child| child.root == root) {
                    observe(&mut self.children, view, ChildBlock { root, report: None });
                }
            }
            CCross::Report(root, count, poison) => {
                // The Announce came first: under a fault plan, an epoch
                // that lost its every copy missed the Port superstep.
                if let Some(child) = self.children.iter_mut().find(|child| child.root == root) {
                    child.report.get_or_insert((count, poison));
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

    fn missed(&mut self, _step: u64) {
        self.missed = true;
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

/// The inputs of one Lemma 3 question: how many block components does each
/// active part of `partition` have in `shortcut`, and is that at most
/// `threshold`?
#[derive(Debug, Clone, Copy)]
pub struct BlockCounting<'a> {
    /// The communication network.
    pub graph: &'a Graph,
    /// The spanning tree `shortcut` is restricted to.
    pub tree: &'a RootedTree,
    /// The parts to classify.
    pub partition: &'a Partition,
    /// The tree-restricted shortcut under test.
    pub shortcut: &'a TreeShortcut,
    /// Largest block count a part may have and still be good (at least 1).
    pub threshold: usize,
    /// One flag per part; inactive parts are neither counted nor reported
    /// good.
    pub active: &'a [bool],
}

impl BlockCounting<'_> {
    /// Checks the preconditions and builds the block family of the active
    /// parts (one family serves every epoch of a faulty run).
    fn family(&self) -> BlockFamily {
        assert!(
            self.threshold >= 1,
            "the block threshold must be at least 1"
        );
        assert_eq!(
            self.active.len(),
            self.partition.part_count(),
            "one active flag per part is required"
        );
        BlockFamily::new_active(
            self.graph,
            self.tree,
            self.partition,
            self.shortcut,
            self.active,
        )
    }
}

/// Result of the distributed verification.
#[derive(Debug, Clone, PartialEq)]
pub struct DistVerificationOutcome {
    /// The drop-in verification outcome: `good` flags, measured block
    /// counts (exact for good parts, 0 for parts classified bad), and the
    /// charged rounds (executed protocol rounds plus the `depth(T)` global
    /// check, once per epoch under a fault plan).
    pub outcome: VerificationOutcome,
    /// Simulation statistics of the executed protocol, summed over every
    /// epoch under a fault plan (`max_message_bits` is the largest of any
    /// epoch). An epoch cut off at its round cap adds its cap to `rounds`
    /// but no messages or bits: the simulator returns no traffic for it,
    /// and records none in the `engine/*` counters either.
    pub stats: SimStats,
    /// Per-round delivery trace of the executed protocol (of the returned
    /// epoch under a fault plan); empty unless the caller passed a
    /// [`SimConfig`] with tracing enabled.
    pub trace: Vec<lcs_congest::RoundTrace>,
    /// Number of supersteps executed (`3·threshold + 2`).
    pub supersteps: u64,
    /// Whether every active part reached a definite classification: all of
    /// its members returned a verdict and the verdicts agree. Always true
    /// under an active [`lcs_congest::FaultPlan`], where an indecisive
    /// epoch is retried. A fault-free run can be indecisive: the members
    /// of a part whose block supergraph does not converge within
    /// `threshold` hops may end split or undecided. Such a part has more
    /// than `threshold` blocks, so classifying it bad is exact.
    pub decisive: bool,
    /// Number of epochs executed: 1 without a fault plan.
    pub epochs: u32,
    /// Number of epochs that stalled before the returned one: 0 without a
    /// fault plan.
    pub stalls: u32,
}

/// Runs the Lemma 3 block counting as real message passing and classifies
/// every active part of `question` against its threshold.
///
/// Guarantees: a part reported good really has at most `threshold` block
/// components and its reported count is exact; a part whose supergraph
/// converges within `threshold` hops (in particular every part with at most
/// `threshold` blocks) is always classified, so the subroutine is a sound
/// and complete drop-in for `lcs_core::construction::verification`.
///
/// Without an active fault plan on `config` this is one run of the
/// protocol. With one, it runs in the engine's epochs until an epoch is
/// decisive with every member complete: a member that missed any superstep
/// (no agreed value of its own block, or no copy from some same-part
/// neighbor) counts as undecided, so an epoch's verdicts and counts are
/// either the fault-free ones or retried. The whole procedure is
/// deterministic at every shard count. The returned statistics and charged
/// rounds cover every epoch, the stalled ones included (see
/// [`DistVerificationOutcome::stats`]).
///
/// Reports the protocol shape (`dist/verification/*` counters, including
/// the superstep-per-phase split, and `epochs` / `stalls` under a fault
/// plan) and the engine's counters, gauges and timers through `obs`, with
/// one `dist/verification` span per run. Counters are thread-invariant
/// facts; only span and timer durations vary between runs.
///
/// # Errors
///
/// Simulator errors as [`lcs_graph::LcsError::Simulation`];
/// [`lcs_graph::LcsError::Degraded`] when every epoch of a fault-injected
/// run stalls.
///
/// # Panics
///
/// Panics if `active.len()` differs from the partition's part count or if
/// `threshold` is zero.
pub fn verification_simulated(
    question: &BlockCounting<'_>,
    config: Option<SimConfig>,
    obs: &Obs,
) -> LcsResult<DistVerificationOutcome> {
    let family = question.family();
    let steps = counting_supersteps(question.threshold);
    let resend = config.as_ref().and_then(|c| c.active_fault()).is_some();
    let count = |epoch: EpochRun| -> lcs_congest::Result<Epoch<DistVerificationOutcome>> {
        let _span = lcs_obs::span!(obs, "dist/verification");
        let answer = count_blocks(question, &family, steps, resend, epoch, obs)?;
        Ok(Epoch {
            complete: answer.decisive,
            stats: answer.stats,
            answer,
        })
    };
    let (mut out, stats, epochs) =
        run_epochs(&family, steps, config, obs, "dist/verification", count)?;
    // Every epoch ran one `depth(T)` check after its protocol rounds.
    let checks = u64::from(epochs) * u64::from(question.tree.depth_of_tree());
    out.outcome.rounds = stats.rounds + checks;
    (out.stats, out.epochs, out.stalls) = (stats, epochs, epochs - 1);
    Ok(out)
}

/// One run of the counting protocol over an already built `family`, of
/// `supersteps` supersteps, in `epoch`; `resend` under a fault plan.
fn count_blocks(
    question: &BlockCounting<'_>,
    family: &BlockFamily,
    supersteps: u64,
    resend: bool,
    epoch: EpochRun,
    obs: &Obs,
) -> lcs_congest::Result<DistVerificationOutcome> {
    let BlockCounting {
        graph,
        partition,
        threshold,
        active,
        ..
    } = *question;
    if obs.is_on() {
        obs.counter_add("dist/verification/runs", 1);
        obs.counter_add("dist/verification/supersteps", supersteps);
        record_phase_split(obs, supersteps, threshold as u64);
    }
    let id_bits = bits_for_node_count(graph.node_count());
    let edge_bits = lcs_congest::bits_for_count(graph.edge_count().max(2));
    let outcome = epoch.run(graph, family, obs, |info: &NodeInfo<'_>| {
        CountProgram::new(threshold as u64, id_bits, edge_bits, resend, info)
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
            match outcome.nodes[v.index()].final_verdict() {
                Some(v) => match part_verdict {
                    None => part_verdict = Some(v),
                    Some(seen) if seen == v => {}
                    Some(_) => consistent = false,
                },
                None => consistent = false,
            }
        }
        // An undecided or split part stays classified bad (sound), but the
        // run as a whole is flagged indecisive so the epoch loop can tell
        // a fault-induced stall from a genuine over-threshold part.
        if !consistent {
            decisive = false;
        }
        if let (true, Some((true, total))) = (consistent, part_verdict) {
            good[p.index()] = true;
            block_counts[p.index()] = total as usize;
        }
    }

    // The charged rounds and the epoch counts cover the whole epoch loop:
    // `verification_simulated` fills them in.
    Ok(DistVerificationOutcome {
        outcome: VerificationOutcome {
            good,
            block_counts,
            rounds: 0,
        },
        stats: outcome.stats,
        trace: outcome.trace,
        supersteps,
        decisive,
        epochs: 1,
        stalls: 0,
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
        let question = BlockCounting {
            graph,
            tree,
            partition,
            shortcut,
            threshold,
            active: &active,
        };
        let simulated = verification_simulated(&question, None, &Obs::off()).unwrap();
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
        let question = BlockCounting {
            graph: &g,
            tree: &t,
            partition: &p,
            shortcut: &s,
            threshold: 1,
            active: &active,
        };
        let simulated = verification_simulated(&question, None, &Obs::off()).unwrap();
        assert!(!simulated.outcome.good[1]);
        assert_eq!(simulated.outcome.block_counts[1], 0);
        assert!(simulated.outcome.good[0] && simulated.outcome.good[2]);
    }

    /// The 32-bit counting words keep a tree message, the superstep state
    /// it updates and a cross payload small; the budget is DESIGN §3a's
    /// sizes table ("The superstep node").
    #[test]
    fn counting_words_fit_the_layout_budget() {
        use crate::engine::{EngineMsg, Run};
        use std::mem::size_of;
        let budget = [
            ("CVal", size_of::<CVal>(), 16),
            ("CCross", size_of::<CCross>(), 16),
            ("Run<CVal>", size_of::<Run<CVal>>(), 64),
            (
                "EngineMsg<CVal, CCross>",
                size_of::<EngineMsg<CVal, CCross>>(),
                32,
            ),
        ];
        for (name, size, bound) in budget {
            assert!(
                size <= bound,
                "{name} is {size} B, over its {bound} B budget in DESIGN §3a (The superstep node)"
            );
        }
    }

    #[test]
    fn executed_rounds_respect_the_superstep_bound() {
        let g = generators::torus(5, 5);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::random_bfs_balls(&g, 5, 3);
        let s = ancestor_shortcut(&g, &t, &p);
        let family = BlockFamily::new(&g, &t, &p, &s);
        let threshold = 3;
        let question = BlockCounting {
            graph: &g,
            tree: &t,
            partition: &p,
            shortcut: &s,
            threshold,
            active: &all_active(&p),
        };
        let simulated = verification_simulated(&question, None, &Obs::off()).unwrap();
        let window = 2 * family.schedule().rounds + 1;
        assert!(simulated.stats.rounds <= counting_supersteps(threshold) * window);
    }
}
