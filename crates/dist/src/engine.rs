//! The windowed superstep engine.
//!
//! Every protocol in this crate shares one communication skeleton, the
//! Theorem 2 *superstep*:
//!
//! 1. a Lemma 2 parallel convergecast over every block of the family — in
//!    each round every node forwards, among the blocks for which it has
//!    already heard from all of its in-block children, the one whose block
//!    root is shallowest (ties by block index), exactly the priority rule
//!    the lemma proves completes within `D + c` rounds;
//! 2. the *time-reversal* of that convergecast as the broadcast that
//!    disseminates each block's combined value to all of its nodes: if a
//!    child's upward message arrived over a tree edge in relative round
//!    `r`, the parent sends the agreed value back down over the same edge
//!    in relative round `2L - r`. Reversing a feasible schedule is
//!    feasible, so the broadcast also completes within `L` rounds;
//! 3. one round of exchange over same-part graph edges (the supergraph
//!    step of Theorem 2).
//!
//! Windows have a fixed length `W = 2L + 1`, where `L` is the family's
//! exact Lemma 2 schedule length — a quantity every node can obtain in the
//! `O(D)` preprocessing the paper assumes (see `knowledge`). Because the
//! greedy convergecast provably completes within `L` and the reversed
//! broadcast reuses its delivery times, windows never overflow; the engine
//! panics loudly if a protocol bug makes one.
//!
//! Protocols plug in a [`NodeProgram`] describing what is combined
//! intra-block and what is exchanged across part edges; the engine turns it
//! into a [`NodeProtocol`] and runs it in the CONGEST simulator with the
//! per-edge bandwidth enforced on every message.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lcs_congest::{
    bits_for_count, Incoming, MessageBits, NodeContext, NodeProtocol, Outgoing, SimConfig,
    SimOutcome, Simulator,
};
use lcs_graph::{Graph, NodeId};
use lcs_obs::Obs;

use crate::knowledge::{BlockFamily, Membership, NodeInfo};
use crate::Result;

/// The per-node logic of a superstep protocol. One instance runs per node;
/// it may only consult the node's [`NodeInfo`] and the messages the engine
/// hands it.
pub(crate) trait NodeProgram: Send {
    /// Block-level value: convergecast up, combined, broadcast down.
    type Val: Clone + std::fmt::Debug + Send;
    /// Payload exchanged across same-part graph edges between supersteps.
    type Cross: Clone + std::fmt::Debug + Send;

    /// The node's contribution for membership `m` at the start of superstep
    /// `step` (Steiner nodes contribute an identity element).
    fn contribution(&mut self, info: &NodeInfo, m: &Membership, step: u64) -> Self::Val;
    /// Associative, commutative combination of contributions.
    fn combine(&self, step: u64, a: &Self::Val, b: &Self::Val) -> Self::Val;
    /// The node learned its block's combined value for superstep `step`.
    fn on_agreed(&mut self, info: &NodeInfo, m: &Membership, val: &Self::Val, step: u64);
    /// The cross message to send to same-part neighbor `to` after superstep
    /// `step`, or `None` to stay silent on that edge.
    fn cross_message(&mut self, info: &NodeInfo, to: NodeId, step: u64) -> Option<Self::Cross>;
    /// A cross message from `from`, sent after superstep `step`.
    fn on_cross(&mut self, info: &NodeInfo, from: NodeId, msg: Self::Cross, step: u64);
    /// Declared encoded size of a block value in bits.
    fn val_bits(&self) -> usize;
    /// Declared encoded size of a cross payload in bits.
    fn cross_bits(&self) -> usize;
}

/// Engine message: two tag bits distinguish the three payload kinds; block
/// ids are `⌈log₂ |family|⌉` bits. In fault mode every message also
/// carries its sender's superstep (`⌈log₂ steps⌉` extra bits) so that a
/// duplicated copy straggling across a window boundary is recognized as
/// stale and dropped; in fault-free runs the tag is always the receiver's
/// own step and costs no bits.
#[derive(Debug, Clone)]
pub(crate) struct EngineMsg<V, C> {
    payload: Payload<V, C>,
    bits: usize,
    step: u32,
}

#[derive(Debug, Clone)]
enum Payload<V, C> {
    Up { block: u32, val: V },
    Down { block: u32, val: V },
    Cross(C),
}

impl<V: Clone, C: Clone> MessageBits for EngineMsg<V, C> {
    fn size_bits(&self) -> usize {
        self.bits
    }
}

/// Per-membership state of the current superstep's convergecast/broadcast,
/// reset in place at every superstep.
#[derive(Debug, Clone)]
struct Run<V> {
    pending: usize,
    acc: Option<V>,
    sent_up: bool,
    agreed: Option<V>,
    /// Fault mode only: the children heard from this superstep, the set
    /// that deduplicates duplicated upward copies.
    heard: Vec<NodeId>,
    /// Fault mode only: which children have received their first downward
    /// copy (indexed like `Membership::children`; empty in fault-free
    /// runs, where the time-reversed mirror schedule is used instead).
    downs_sent: Vec<bool>,
}

impl<V> Run<V> {
    fn new() -> Self {
        Run {
            pending: 0,
            acc: None,
            sent_up: false,
            agreed: None,
            heard: Vec::new(),
            downs_sent: Vec::new(),
        }
    }
}

/// How many supersteps to run and whether block values are broadcast back
/// down (single-shot convergecasts skip the broadcast half).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineSpec {
    pub steps: u64,
    pub broadcast_down: bool,
}

/// Fault mode sends every cross payload at each poll of the cross slot,
/// and the slot is widened to this many `s`-round spans so that a payload
/// whose every copy must be lost for a wrong answer gets several
/// independent copies per superstep (the residual failure probability is
/// `ε^(copies)` per edge instead of `ε`).
pub(crate) const CROSS_REDUNDANCY: u64 = 3;

/// Fault-mode window length for stretched schedule length `l_f` and
/// per-hop span `s`: `[tree slot 2·l_f | cross slot 3·s | guard band s]`.
pub(crate) fn faulty_window(l_f: u64, s: u64) -> u64 {
    2 * l_f + (CROSS_REDUNDANCY + 1) * s
}

/// Exact number of rounds an engine execution takes: `steps` windows minus
/// the trailing cross round of the last superstep (and minus the broadcast
/// half when disabled).
pub(crate) fn engine_rounds(l: u64, spec: EngineSpec) -> u64 {
    if spec.steps == 0 {
        return 0;
    }
    let window = 2 * l + 1;
    let last = if spec.broadcast_down { 2 * l } else { l };
    (spec.steps - 1) * window + last
}

/// The engine as a per-node CONGEST protocol.
///
/// Apart from the reset at each window boundary, a fault-free poll costs
/// the same however many blocks the node serves: the next block to forward
/// comes off the `ready` heap, the mirrored broadcast sends come off the
/// `downs` stack, and nothing scans the memberships. The node's
/// [`NodeInfo`] is borrowed from the family, and its per-superstep state
/// is reset in place.
#[derive(Debug)]
pub(crate) struct EngineNode<'f, P: NodeProgram> {
    program: P,
    info: &'f NodeInfo,
    l: u64,
    window: u64,
    steps: u64,
    total_rounds: u64,
    broadcast_down: bool,
    up_bits: usize,
    cross_msg_bits: usize,
    step: u64,
    runs: Vec<Run<P::Val>>,
    /// Memberships ready to forward upward this superstep (not the block
    /// root, every in-block child heard, not yet sent), keyed by the
    /// Lemma 2 priority `(root_depth, block)` plus the membership index.
    ready: BinaryHeap<Reverse<(u32, u32, u32)>>,
    /// Fault-free broadcast schedule: `(send round, membership, child)`
    /// for each upward delivery of this superstep, pushed in arrival
    /// order. Arrival rounds only grow, so the mirrored send rounds only
    /// shrink and the top of the stack is always the next send.
    downs: Vec<(u64, u32, NodeId)>,
    finished: bool,
    /// Fault mode: tolerate delayed/lost/duplicated deliveries. `l` is the
    /// latency-stretched schedule length, the window layout changes to
    /// `[tree slot 2l | cross slot 3s | guard band s]`, and emissions are
    /// driven by observed progress with per-poll resends instead of the
    /// exact mirror schedule.
    faulty: bool,
    /// The cross-slot length `s` (the plan's worst-case per-hop stretch);
    /// 1 in fault-free runs.
    cross_span: u64,
}

/// The simulator-owned outbox an [`EngineNode`] sends into.
type Outbox<P> = Vec<Outgoing<EngineMsg<<P as NodeProgram>::Val, <P as NodeProgram>::Cross>>>;

impl<P: NodeProgram> EngineNode<'_, P> {
    /// The plugged-in program, for result extraction after the run.
    pub fn program(&self) -> &P {
        &self.program
    }

    fn base(&self) -> u64 {
        self.step * self.window
    }

    /// Index of the membership of `block`. Memberships are built in
    /// ascending block order, so this is a binary search.
    fn membership_of(&self, block: u32) -> usize {
        self.info
            .memberships
            .binary_search_by_key(&(block as usize), |m| m.block)
            .expect("tree messages only arrive within a block")
    }

    fn start_superstep(&mut self) {
        let step = self.step;
        let info = self.info;
        if self.runs.len() != info.memberships.len() {
            self.runs = info.memberships.iter().map(|_| Run::new()).collect();
        }
        self.ready.clear();
        self.downs.clear();
        for (i, m) in info.memberships.iter().enumerate() {
            let contribution = self.program.contribution(info, m, step);
            let run = &mut self.runs[i];
            run.pending = m.children.len();
            run.acc = Some(contribution);
            run.sent_up = false;
            run.agreed = None;
            run.heard.clear();
            run.downs_sent.clear();
            if self.faulty {
                run.downs_sent.resize(m.children.len(), false);
            }
            if m.children.is_empty() {
                if m.is_root {
                    // Childless roots agree immediately.
                    let val = run.acc.clone().expect("contribution just set");
                    run.agreed = Some(val.clone());
                    self.program.on_agreed(info, m, &val, step);
                } else {
                    self.ready
                        .push(Reverse((m.root_depth, m.block as u32, i as u32)));
                }
            }
        }
    }

    fn handle_up(&mut self, from: NodeId, block: u32, val: P::Val, round: u64) {
        let step = self.step;
        let info = self.info;
        let idx = self.membership_of(block);
        let base = self.base();
        let rel = round - base;
        if self.faulty {
            // Duplicated copies and spurious ups (e.g. from a restarted
            // child re-running its protocol) are dropped instead of
            // tripping the fault-free invariants below.
            let run = &self.runs[idx];
            if run.pending == 0 || run.heard.contains(&from) {
                return;
            }
        } else {
            debug_assert!(rel >= 1 && rel <= self.l, "up delivery outside conv slot");
        }
        let m = &info.memberships[idx];
        let run = &mut self.runs[idx];
        let acc = run.acc.take().expect("superstep started");
        run.acc = Some(self.program.combine(step, &acc, &val));
        run.pending = run
            .pending
            .checked_sub(1)
            .expect("no more child messages than children");
        if self.faulty {
            run.heard.push(from);
        } else if self.broadcast_down {
            self.downs.push((base + 2 * self.l - rel, idx as u32, from));
        }
        if run.pending == 0 {
            if m.is_root {
                let agreed = run.acc.clone().expect("set above");
                run.agreed = Some(agreed.clone());
                self.program.on_agreed(info, m, &agreed, step);
            } else {
                self.ready
                    .push(Reverse((m.root_depth, m.block as u32, idx as u32)));
            }
        }
    }

    fn handle_down(&mut self, block: u32, val: P::Val) {
        let idx = self.membership_of(block);
        if self.faulty && self.runs[idx].agreed.is_some() {
            return; // duplicated or resent copy — already agreed
        }
        let step = self.step;
        self.runs[idx].agreed = Some(val.clone());
        self.program
            .on_agreed(self.info, &self.info.memberships[idx], &val, step);
    }

    /// Forwards the highest-priority ready block to its parent, if any (the
    /// Lemma 2 greedy rule: shallowest block root, ties by block index).
    fn send_up(&mut self, out: &mut Outbox<P>) {
        let Some(Reverse((_, block, i))) = self.ready.pop() else {
            return;
        };
        let i = i as usize;
        let parent = self.info.memberships[i]
            .parent
            .expect("non-root memberships have parents");
        let run = &mut self.runs[i];
        run.sent_up = true;
        let val = run.acc.clone().expect("superstep started");
        out.push(Outgoing::new(
            parent,
            EngineMsg {
                payload: Payload::Up { block, val },
                bits: self.up_bits,
                step: self.step as u32,
            },
        ));
    }

    /// The cross messages of superstep `step` to every same-part neighbor.
    fn send_crosses(&mut self, out: &mut Outbox<P>) {
        let info = self.info;
        let step = self.step;
        for &(to, _) in &info.part_neighbors {
            if let Some(msg) = self.program.cross_message(info, to, step) {
                out.push(Outgoing::new(
                    to,
                    EngineMsg {
                        payload: Payload::Cross(msg),
                        bits: self.cross_msg_bits,
                        step: step as u32,
                    },
                ));
            }
        }
    }

    fn emissions(&mut self, round: u64, out: &mut Outbox<P>) {
        let base = self.base();

        // Convergecast slot: forward the highest-priority ready block.
        if round >= base && round < base + self.l {
            self.send_up(out);
        }

        // Broadcast slot: mirror this superstep's upward deliveries. The
        // sends due now sit on top of the stack in arrival order; they go
        // out in membership order, then arrival order.
        let due = self
            .downs
            .iter()
            .rposition(|&(at, ..)| at > round)
            .map_or(0, |p| p + 1);
        let sends = &mut self.downs[due..];
        debug_assert!(
            sends.iter().all(|&(at, ..)| at == round),
            "mirror send skipped"
        );
        sends.sort_by_key(|&(_, i, _)| i);
        for &(_, i, child) in sends.iter() {
            let m = &self.info.memberships[i as usize];
            let val = self.runs[i as usize]
                .agreed
                .clone()
                .unwrap_or_else(|| panic!("broadcast window overflow in block {}", m.block));
            out.push(Outgoing::new(
                child,
                EngineMsg {
                    payload: Payload::Down {
                        block: m.block as u32,
                        val,
                    },
                    bits: self.up_bits,
                    step: self.step as u32,
                },
            ));
        }
        self.downs.truncate(due);

        // Cross round: the supergraph step, skipped after the last superstep.
        if self.broadcast_down && round == base + 2 * self.l && self.step + 1 < self.steps {
            self.send_crosses(out);
        }
    }

    /// Fault-mode emissions: the window is laid out as
    /// `[tree slot 2l | cross slot 3s | guard band s]` and scheduling is
    /// driven by observed progress instead of the exact mirror schedule.
    /// Per poll, each neighbor receives at most one tree message — a
    /// first-time Up under the greedy priority rule, then first-time
    /// Downs, then resends of already-sent copies rotated across blocks —
    /// so a lost copy is retried at every later poll of the slot and the
    /// per-edge CONGEST budget is never exceeded. Receivers deduplicate.
    /// Crosses are sent at every poll of the cross slot; the guard band
    /// absorbs the worst per-hop delay `(1 + latency) + (period - 1) ≤ s`,
    /// so every delivery lands before the next window boundary.
    fn emissions_faulty(&mut self, round: u64, out: &mut Outbox<P>) {
        let base = self.base();
        let tree_end = base + 2 * self.l;
        let step_tag = self.step as u32;
        let info = self.info;
        // Every tree message of this poll is in `out` (which arrives
        // empty), so it doubles as the set of edges already used.
        let used = |out: &Outbox<P>, to: NodeId| out.iter().any(|o| o.to == to);

        if round >= base && round < tree_end {
            // First-time Up: one per poll, by the greedy priority rule.
            self.send_up(out);
            // First-time Downs: at most one per child edge per poll.
            if self.broadcast_down {
                for (i, m) in info.memberships.iter().enumerate() {
                    if self.runs[i].agreed.is_none() {
                        continue;
                    }
                    for (ci, &child) in m.children.iter().enumerate() {
                        if self.runs[i].downs_sent[ci] || used(out, child) {
                            continue;
                        }
                        self.runs[i].downs_sent[ci] = true;
                        let val = self.runs[i].agreed.clone().expect("checked above");
                        out.push(Outgoing::new(
                            child,
                            EngineMsg {
                                payload: Payload::Down {
                                    block: m.block as u32,
                                    val,
                                },
                                bits: self.up_bits,
                                step: step_tag,
                            },
                        ));
                    }
                }
            }
            // Resends on whatever edges are still free, rotated across
            // memberships so no block starves a shared edge.
            let k = info.memberships.len();
            if k > 0 {
                let start = (round as usize) % k;
                for d in 0..k {
                    let i = (start + d) % k;
                    let m = &info.memberships[i];
                    if !m.is_root && self.runs[i].sent_up && self.runs[i].pending == 0 {
                        let parent = m.parent.expect("non-root memberships have parents");
                        if !used(out, parent) {
                            let val = self.runs[i].acc.clone().expect("superstep started");
                            out.push(Outgoing::new(
                                parent,
                                EngineMsg {
                                    payload: Payload::Up {
                                        block: m.block as u32,
                                        val,
                                    },
                                    bits: self.up_bits,
                                    step: step_tag,
                                },
                            ));
                        }
                    }
                    if self.broadcast_down && self.runs[i].agreed.is_some() {
                        for (ci, &child) in m.children.iter().enumerate() {
                            if self.runs[i].downs_sent[ci] && !used(out, child) {
                                let val = self.runs[i].agreed.clone().expect("checked above");
                                out.push(Outgoing::new(
                                    child,
                                    EngineMsg {
                                        payload: Payload::Down {
                                            block: m.block as u32,
                                            val,
                                        },
                                        bits: self.up_bits,
                                        step: step_tag,
                                    },
                                ));
                            }
                        }
                    }
                }
            }
        }

        // Cross slot: resend at every poll (the program decides per call
        // what to send; receivers deduplicate).
        if self.broadcast_down
            && round >= tree_end
            && round < tree_end + CROSS_REDUNDANCY * self.cross_span
            && self.step + 1 < self.steps
        {
            self.send_crosses(out);
        }
    }
}

impl<P: NodeProgram> NodeProtocol for EngineNode<'_, P> {
    type Message = EngineMsg<P::Val, P::Cross>;

    fn init(&mut self, _ctx: &NodeContext, out: &mut Vec<Outgoing<Self::Message>>) {
        if self.steps == 0 {
            self.finished = true;
            return;
        }
        self.start_superstep();
        self.finished = self.total_rounds == 0;
        if self.faulty {
            self.emissions_faulty(0, out);
        } else {
            self.emissions(0, out);
        }
    }

    fn on_round(
        &mut self,
        _ctx: &NodeContext,
        round: u64,
        incoming: &[Incoming<Self::Message>],
        out: &mut Vec<Outgoing<Self::Message>>,
    ) {
        if self.steps == 0 {
            return;
        }
        let info = self.info;
        if self.faulty {
            // Catch up on window boundaries first (deliveries always land
            // strictly before their window's boundary, so nothing here can
            // belong to an earlier step), then apply arrivals immediately:
            // crosses are in-window under the guard band, and anything
            // tagged with another step is a stale duplicate.
            while self.step + 1 < self.steps && round >= (self.step + 1) * self.window {
                self.step += 1;
                self.start_superstep();
            }
            let step = self.step;
            for msg in incoming {
                if msg.msg.step != step as u32 {
                    continue;
                }
                match &msg.msg.payload {
                    Payload::Up { block, val } => {
                        self.handle_up(msg.from, *block, val.clone(), round)
                    }
                    Payload::Down { block, val } => self.handle_down(*block, val.clone()),
                    Payload::Cross(c) => self.program.on_cross(info, msg.from, c.clone(), step),
                }
            }
            if round >= self.total_rounds {
                self.finished = true;
            }
            self.emissions_faulty(round, out);
            return;
        }
        // Deliver tree-cast messages of the current superstep; the cross
        // messages arrive exactly at window boundaries.
        for msg in incoming {
            match &msg.msg.payload {
                Payload::Up { block, val } => self.handle_up(msg.from, *block, val.clone(), round),
                Payload::Down { block, val } => self.handle_down(*block, val.clone()),
                Payload::Cross(_) => {}
            }
        }
        // Window boundary: fold in the crosses (in arrival order), then
        // open the next window.
        if self.step + 1 < self.steps && round == (self.step + 1) * self.window {
            let step = self.step;
            for msg in incoming {
                if let Payload::Cross(c) = &msg.msg.payload {
                    self.program.on_cross(info, msg.from, c.clone(), step);
                }
            }
            self.step += 1;
            self.start_superstep();
        } else {
            debug_assert!(
                !incoming
                    .iter()
                    .any(|msg| matches!(msg.msg.payload, Payload::Cross(_))),
                "cross message outside a boundary round"
            );
        }
        if round >= self.total_rounds {
            self.finished = true;
        }
        self.emissions(round, out);
    }

    fn is_done(&self) -> bool {
        self.finished
    }

    /// The engine knows every round at which a node may act without first
    /// receiving a message: the convergecast slot while it has a ready
    /// block, the mirrored rounds of the ups it has already received, the
    /// cross round at the end of the window, the next window boundary, and
    /// the round that flips `finished`. Everything else is message-driven,
    /// so the node sleeps through it — this is what turns the windowed
    /// supersteps into a small-frontier workload for the simulator.
    fn next_wake(&self, now: u64) -> Option<u64> {
        if self.steps == 0 {
            return None;
        }
        if self.faulty {
            // Re-derived from *observed* progress: anything sendable keeps
            // the node on the per-round schedule (that is the resend
            // engine); otherwise sleep to the cross slot, the next window
            // boundary, or the finish flip. Message arrivals wake the node
            // regardless, and the fault layer aligns every wake to the
            // node's straggler poll schedule.
            let base = self.base();
            let tree_end = base + 2 * self.l;
            let sendable = self.info.memberships.iter().enumerate().any(|(i, m)| {
                (!m.is_root && self.runs[i].pending == 0)
                    || (self.broadcast_down
                        && self.runs[i].agreed.is_some()
                        && !m.children.is_empty())
            });
            if sendable && now < tree_end {
                return None;
            }
            let mut wake = self.total_rounds.max(now + 1);
            if self.broadcast_down
                && self.step + 1 < self.steps
                && !self.info.part_neighbors.is_empty()
                && now + 1 < tree_end + CROSS_REDUNDANCY * self.cross_span
            {
                let r = tree_end.max(now + 1);
                if r == now + 1 {
                    return None;
                }
                wake = wake.min(r);
            }
            if self.step + 1 < self.steps {
                wake = wake.min((self.step + 1) * self.window);
            }
            return Some(wake);
        }
        // A ready block must be forwarded under the greedy priority rule as
        // soon as the next round: stay on the per-round schedule.
        if !self.ready.is_empty() {
            return None;
        }
        let base = self.base();
        // The finish flip is the fallback: every unfinished node must be
        // polled once at `total_rounds` to quiesce.
        let mut wake = self.total_rounds.max(now + 1);
        // The earliest pending mirrored send (every earlier one went out
        // when it was due).
        if let Some(&(at, ..)) = self.downs.last() {
            if at > now {
                wake = wake.min(at);
            }
        }
        if self.broadcast_down && self.step + 1 < self.steps && !self.info.part_neighbors.is_empty()
        {
            let r = base + 2 * self.l;
            if r > now {
                wake = wake.min(r);
            }
        }
        if self.step + 1 < self.steps {
            let r = (self.step + 1) * self.window;
            if r > now {
                wake = wake.min(r);
            }
        }
        Some(wake)
    }
}

/// Runs `program` (one instance per node, built by `make`) over the family
/// in the CONGEST simulator.
///
/// The simulator configuration defaults to [`SimConfig::for_graph`] with
/// the round cap tightened to the engine's exact round count — multi-phase
/// protocols must never inherit the generic `64·n + 1024` cap silently.
/// Pass `config` to override (e.g. to enable tracing or change bandwidth);
/// an explicit `max_rounds` in the override is respected.
pub(crate) fn run_engine<'f, P, F>(
    graph: &Graph,
    family: &'f BlockFamily,
    spec: EngineSpec,
    config: Option<SimConfig>,
    obs: &Obs,
    mut make: F,
) -> Result<SimOutcome<EngineNode<'f, P>>>
where
    P: NodeProgram,
    F: FnMut(&NodeInfo) -> P,
{
    let l = family.schedule().rounds;
    // Fault mode stretches the whole schedule by the plan's worst per-hop
    // cost `s = (1 + max latency) · straggler period`: the tree slot gets
    // `2·(l+1)·s` rounds, the cross slot `3·s` rounds, and a final
    // `s`-round guard band keeps every delivery inside its window. This is also
    // where the round budget scales with the plan — callers' caps are
    // raised below, so latency inflation alone can never produce a
    // spurious `RoundLimitExceeded`.
    let plan = config.as_ref().and_then(|c| c.active_fault());
    let faulty = plan.is_some();
    let (l_eff, window, total_rounds, cross_span) = match plan {
        Some(p) => {
            let s = p.round_stretch().max(1);
            let lf = (l + 1) * s;
            let w = faulty_window(lf, s);
            (lf, w, spec.steps * w, s)
        }
        None => (l, 2 * l + 1, engine_rounds(l, spec), 1),
    };
    // A caller-supplied config customizes bandwidth, tracing and the engine
    // thread count, but the round cap is this entry point's responsibility:
    // the windowed superstep budget is computed exactly here, so a default
    // (or too-small) caller cap is raised to it rather than producing a
    // spurious RoundLimitExceeded. An explicitly larger caller cap is kept.
    let cfg = match config {
        Some(c) if c.max_rounds >= total_rounds + 2 => c,
        Some(c) => c.with_max_rounds(total_rounds + 2),
        None => SimConfig::for_graph(graph).with_max_rounds(total_rounds + 2),
    };
    let block_bits = bits_for_count(family.blocks().len().max(2));
    if obs.is_on() {
        obs.counter_add("dist/engine/runs", 1);
        obs.counter_add("dist/engine/supersteps", spec.steps);
        obs.gauge_set("dist/engine/window", window);
    }
    let step_bits = if faulty {
        bits_for_count((spec.steps as usize).max(2))
    } else {
        0
    };
    let sim = Simulator::new(graph, cfg).with_recorder(obs.clone());
    let outcome = sim.run(|ctx| {
        let info = family.info(ctx.node);
        let program = make(info);
        let up_bits = 2 + block_bits + step_bits + program.val_bits();
        let cross_msg_bits = 2 + step_bits + program.cross_bits();
        EngineNode {
            program,
            info,
            l: l_eff,
            window,
            steps: spec.steps,
            total_rounds,
            broadcast_down: spec.broadcast_down,
            up_bits,
            cross_msg_bits,
            step: 0,
            runs: Vec::new(),
            ready: BinaryHeap::new(),
            downs: Vec::new(),
            finished: false,
            faulty,
            cross_span,
        }
    })?;
    debug_assert!(faulty || outcome.stats.rounds <= total_rounds);
    Ok(outcome)
}
