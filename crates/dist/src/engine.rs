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
//!
//! Under a fault plan the windows stretch and every superstep is checked
//! after the fact: a node sends no cross copy before its own block's agreed
//! value arrives, a same-part edge the program is silent on carries a
//! beat, and a node that lacks its own block's agreed value or heard
//! nothing from some same-part neighbor missed the superstep
//! ([`NodeProgram::missed`]). [`run_epochs`], the one epoch loop, repeats
//! a run with wider windows until the protocol accepts it as complete.

use lcs_congest::{
    bits_for_count, FaultPlan, Incoming, MessageBits, NodeContext, NodeProtocol, Outgoing,
    SimConfig, SimError, SimOutcome, SimStats, Simulator,
};
use lcs_graph::{EdgeId, Graph, LcsError, LcsResult, NodeId};
use lcs_obs::Obs;

use crate::knowledge::{BlockFamily, NodeInfo};

/// The per-node logic of a superstep protocol. One instance runs per node;
/// it may only consult the node's [`NodeInfo`] and the messages the engine
/// hands it.
///
/// The callbacks that may read the node's rows get its [`NodeView`], a
/// `Copy` pair of the family and the node that reads the node's same-part
/// neighbors only when the callback asks for them
/// ([`NodeView::part_neighbors`], two offsets). Most calls never do, so a
/// poll that delivers a tree message reads no row at all. A program that
/// needs another row reads it once, from the [`NodeInfo`] its factory
/// gets, and keeps what it needs.
///
/// A callback tells the node's own-part membership from its relay-only
/// ones by the `own` flag (`info.own_membership == Some(member)` for the
/// membership's index `member` into `info.memberships`), which the engine
/// copies once per run, so that takes no view either.
pub(crate) trait NodeProgram: Send {
    /// Block-level value: convergecast up, combined, broadcast down.
    type Val: Clone + std::fmt::Debug + Send;
    /// Payload exchanged across same-part graph edges between supersteps.
    type Cross: Clone + std::fmt::Debug + Send;

    /// The node's contribution for a membership at the start of superstep
    /// `step`. Memberships with `own` false are relay-only (the node is a
    /// Steiner node or a member of another part there) and contribute an
    /// identity element.
    fn contribution(&mut self, view: NodeView<'_>, own: bool, step: u64) -> Self::Val;
    /// Associative, commutative combination of contributions.
    fn combine(&self, step: u64, a: &Self::Val, b: &Self::Val) -> Self::Val;
    /// The node learned the combined value of membership `member`'s block
    /// for superstep `step`; `own` as in [`NodeProgram::contribution`].
    fn on_agreed(
        &mut self,
        view: NodeView<'_>,
        member: usize,
        own: bool,
        val: &Self::Val,
        step: u64,
    );
    /// The cross message to send to same-part neighbor `to` after superstep
    /// `step`, or `None` to stay silent on that edge.
    fn cross_message(&mut self, to: NodeId, step: u64) -> Option<Self::Cross>;
    /// A cross message from `from`, sent after superstep `step`.
    fn on_cross(&mut self, view: NodeView<'_>, from: NodeId, msg: Self::Cross, step: u64);
    /// Under a fault plan, the node missed part of superstep `step`: it
    /// never learned its own block's agreed value, or some same-part
    /// neighbor's cross slot reached it with no copy at all. Called once
    /// per such superstep; a program whose answer needs every superstep
    /// whole treats the node as undecided.
    fn missed(&mut self, _step: u64) {}
    /// Declared encoded size of a block value in bits.
    fn val_bits(&self) -> usize;
    /// Declared encoded size of a cross payload in bits.
    fn cross_bits(&self) -> usize;
}

/// A node's lazy view of its family rows, handed to the [`NodeProgram`]
/// callbacks: `Copy`, two words, and free to pass.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeView<'a> {
    family: &'a BlockFamily,
    node: NodeId,
}

impl<'a> NodeView<'a> {
    /// The node's same-part neighbors ([`NodeInfo::part_neighbors`]),
    /// read without building the rest of the node's [`NodeInfo`].
    pub(crate) fn part_neighbors(self) -> &'a [(NodeId, EdgeId)] {
        self.family.part_neighbors(self.node)
    }
}

/// Engine message: two tag bits distinguish the four payload kinds; block
/// ids are `⌈log₂ |family|⌉` bits. In fault mode every message also
/// carries its sender's superstep (`⌈log₂ steps⌉` extra bits) so that a
/// duplicated copy straggling across a window boundary is recognized as
/// stale and dropped; in fault-free runs the tag is always the receiver's
/// own step and costs no bits.
#[derive(Debug, Clone)]
pub(crate) struct EngineMsg<V, C> {
    payload: Payload<V, C>,
    bits: u32,
    step: u32,
}

/// A tree message names its block by membership indices instead of the
/// block id it is accounted as: `member` is the receiver's index of the
/// block among its memberships, and an upward message also carries the
/// sender's, which its mirrored downward reply is addressed to. Each index
/// is what the receiver's own lookup of the block id in its row would
/// return (CONGEST charges no local computation), taken from the family's
/// index arrays so that dispatch costs no search. `bits` still counts the
/// block id.
#[derive(Debug, Clone)]
enum Payload<V, C> {
    Up {
        member: u32,
        from_member: u32,
        val: V,
    },
    Down {
        member: u32,
        val: V,
    },
    Cross(C),
    /// Fault mode: a same-part neighbor with nothing to say this superstep.
    Beat,
}

impl<V: Clone, C: Clone> MessageBits for EngineMsg<V, C> {
    fn size_bits(&self) -> usize {
        self.bits as usize
    }
}

/// One membership as a fault-free poll sees it: the static fields of the
/// [`crate::Membership`] it mirrors, copied once per run, next to the state
/// of the current superstep's convergecast/broadcast, which is reset in
/// place at every superstep. The engine's fault-free paths read this
/// record instead of the family's `Membership`.
#[derive(Debug, Clone)]
pub(crate) struct Run<V> {
    /// The family index of the membership's block.
    block: u32,
    /// Depth of the block root in `T` (the Lemma 2 priority key).
    root_depth: u32,
    /// The in-block tree parent and the index of the block among the
    /// parent's memberships (`None` exactly at the block root).
    parent: Option<(NodeId, u32)>,
    /// Number of in-block tree children.
    children: u32,
    /// Whether this is the node's own-part membership.
    own: bool,
    sent_up: bool,
    /// In-block children not yet heard from this superstep.
    pending: u32,
    acc: Option<V>,
    agreed: Option<V>,
}

impl<V> Run<V> {
    /// The run of `info`'s membership `i`.
    fn new(info: &NodeInfo<'_>, i: usize) -> Self {
        let m = &info.memberships[i];
        Run {
            block: u32::try_from(m.block).expect("block ids fit in 32 bits"),
            root_depth: m.root_depth,
            parent: m.parent.zip(info.parent_member(i)),
            children: u32::try_from(info.children(i).len()).expect("child counts fit in 32 bits"),
            own: info.own_membership == Some(i),
            sent_up: false,
            pending: 0,
            acc: None,
            agreed: None,
        }
    }

    fn is_root(&self) -> bool {
        self.parent.is_none()
    }
}

/// A ready membership's Lemma 2 priority `(root_depth, block)` plus its
/// membership index.
type Ready = (u32, u32, u32);

/// A fault-free mirrored broadcast send, pushed when the upward value it
/// mirrors arrives.
#[derive(Debug, Clone, Copy, Default)]
struct Down {
    /// The round the send is due.
    at: u64,
    /// The sending membership.
    member: u32,
    /// The child the upward value came from, and the child's index of the
    /// block (the reply's `member`).
    child: NodeId,
    child_member: u32,
}

/// Inserts `key` into `ready[..*len]`, kept in descending order so the next
/// pick is the last entry. `ready` has room for every membership, and a
/// membership becomes ready at most once per superstep.
fn push_ready(ready: &mut [Ready], len: &mut u32, key: Ready) {
    let n = *len as usize;
    let at = ready[..n].partition_point(|&k| k > key);
    ready.copy_within(at..n, at + 1);
    ready[at] = key;
    *len += 1;
}

/// Fault mode only: the delivery bookkeeping of one membership, reset at
/// every superstep. Fault-free runs keep none, so this state stays out of
/// the [`Run`] records a fault-free poll reads.
#[derive(Debug, Clone, Default)]
struct FaultRun {
    /// The children heard from this superstep, the set that deduplicates
    /// duplicated upward copies.
    heard: Vec<NodeId>,
    /// Which children have received their first downward copy (indexed
    /// like `Membership::children`).
    downs_sent: Vec<bool>,
    /// Own membership only (crosses run over the own part's edges): which
    /// same-part neighbors, in the node's part-neighbor order, a cross
    /// payload or beat of this superstep came from.
    crossed: Vec<bool>,
}

/// The constants of one engine run, shared by every node of it.
#[derive(Debug)]
struct Shape {
    /// The window half-length: the family's schedule length `L`, or the
    /// latency-stretched `l_f` in fault mode.
    l: u64,
    window: u64,
    steps: u64,
    total_rounds: u64,
    broadcast_down: bool,
    /// Fault mode: tolerate delayed/lost/duplicated deliveries. The window
    /// layout changes to `[tree slot 2l | cross slot 3s | guard band s]`,
    /// and emissions are driven by observed progress with per-poll resends
    /// instead of the exact mirror schedule.
    faulty: bool,
    /// The cross-slot length `s` (the plan's worst-case per-hop stretch
    /// times the epoch's [`EngineSpec::stretch`]); 1 in fault-free runs.
    cross_span: u64,
    /// Fault mode: the width of the superstep tag every message carries;
    /// 0 in fault-free runs.
    step_bits: u32,
}

impl Shape {
    /// The layout of a run of `spec` over a family whose schedule length
    /// is `l`. Fault mode stretches the whole schedule by the plan's worst
    /// per-hop cost `s = (1 + max latency) · straggler period`, times the
    /// epoch's stretch: the tree slot gets `2·(l+1)·s` rounds, the cross
    /// slot `3·s` rounds, and a final `s`-round guard band keeps every
    /// delivery inside its window.
    fn new(l: u64, spec: EngineSpec, plan: Option<FaultPlan>) -> Shape {
        let mut shape = Shape {
            l,
            window: 2 * l + 1,
            steps: spec.steps,
            total_rounds: engine_rounds(l, spec),
            broadcast_down: spec.broadcast_down,
            faulty: plan.is_some(),
            cross_span: 1,
            step_bits: 0,
        };
        if let Some(plan) = plan {
            let s = plan.round_stretch().max(1) * spec.stretch;
            shape.l = (l + 1) * s;
            shape.window = faulty_window(shape.l, s);
            shape.total_rounds = spec.steps * shape.window;
            shape.cross_span = s;
            shape.step_bits = bits_for_count((spec.steps as usize).max(2)) as u32;
        }
        shape
    }
}

/// How many supersteps to run, whether block values are broadcast back
/// down (single-shot convergecasts skip the broadcast half), and the
/// factor by which a fault-mode run widens its windows ([`run_epochs`]
/// sets it; 1 otherwise).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineSpec {
    pub steps: u64,
    pub broadcast_down: bool,
    pub stretch: u64,
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

/// The per-membership engine state of one run, in node order: node `v`'s
/// runs and ready entries sit at the family's `member_span(v)`, its
/// mirrored sends at its `child_span(v)`. Built once per run, three
/// allocations whatever the family's size. A run whose fault plan restarts
/// crashed nodes keeps a second copy of all three for the spare nodes the
/// simulator builds after every node.
struct Arenas<V> {
    runs: Vec<Run<V>>,
    ready: Vec<Ready>,
    downs: Vec<Down>,
}

impl<V: Clone> Arenas<V> {
    fn new(family: &BlockFamily, spares: bool) -> Self {
        let copies = if spares { 2 } else { 1 };
        let mut runs = Vec::with_capacity(copies * family.membership_count());
        for v in 0..family.node_count() {
            let info = family.info(NodeId::new(v));
            runs.extend((0..info.memberships.len()).map(|i| Run::new(&info, i)));
        }
        if spares {
            runs.extend_from_within(..);
        }
        Arenas {
            runs,
            ready: vec![(0, 0, 0); copies * family.membership_count()],
            downs: vec![Down::default(); copies * family.child_count()],
        }
    }
}

/// One node's rows of the [`Arenas`].
struct NodeRows<'a, V> {
    runs: &'a mut [Run<V>],
    ready: &'a mut [Ready],
    downs: &'a mut [Down],
}

/// Hands out one copy of the [`Arenas`] row by row, in ascending node order.
struct RowCursor<'a, V> {
    runs: &'a mut [Run<V>],
    ready: &'a mut [Ready],
    downs: &'a mut [Down],
    /// The membership and child positions the slices above start at.
    member_at: usize,
    child_at: usize,
}

impl<'a, V> RowCursor<'a, V> {
    fn new(runs: &'a mut [Run<V>], ready: &'a mut [Ready], downs: &'a mut [Down]) -> Self {
        RowCursor {
            runs,
            ready,
            downs,
            member_at: 0,
            child_at: 0,
        }
    }

    /// Node `v`'s rows, skipping the rows of the nodes since the last call.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not come after every node taken before.
    fn take(&mut self, family: &BlockFamily, v: NodeId) -> NodeRows<'a, V> {
        let members = family.member_span(v);
        let children = family.child_span(v);
        let skip = members
            .start
            .checked_sub(self.member_at)
            .expect("rows are taken in ascending node order");
        let child_skip = children.start - self.child_at;
        self.member_at = members.end;
        self.child_at = children.end;
        NodeRows {
            runs: carve(&mut self.runs, skip, members.len()),
            ready: carve(&mut self.ready, skip, members.len()),
            downs: carve(&mut self.downs, child_skip, children.len()),
        }
    }
}

/// Splits `len` items off the front of `rest` after dropping `skip`.
fn carve<'a, T>(rest: &mut &'a mut [T], skip: usize, len: usize) -> &'a mut [T] {
    let (_, tail) = std::mem::take(rest).split_at_mut(skip);
    let (row, tail) = tail.split_at_mut(len);
    *rest = tail;
    row
}

/// The engine as a per-node CONGEST protocol.
///
/// Apart from the reset at each window boundary, a fault-free poll costs
/// the same however many blocks the node serves: a tree message names the
/// receiver's membership by index, the next block to forward is the last
/// `ready` entry, the mirrored broadcast sends come off the `downs` stack,
/// and nothing scans or searches the memberships. Nor does such a poll
/// chase the family's records: the node's [`Run`]s carry the static fields
/// of its memberships, and the run's constants sit in one [`Shape`] every
/// node borrows. `runs`, `ready` and `downs` are the node's rows of three
/// arenas that `run_engine` lays out once per run in node order
/// ([`Arenas`]), so consecutive polls read consecutive memory. The engine
/// builds the family's [`NodeInfo`] itself only in fault-mode emissions;
/// cross sends, and the programs through their [`NodeView`], read only the
/// same-part neighbor row.
#[derive(Debug)]
pub(crate) struct EngineNode<'a, P: NodeProgram> {
    program: P,
    family: &'a BlockFamily,
    node: NodeId,
    shape: &'a Shape,
    up_bits: u32,
    cross_msg_bits: u32,
    finished: bool,
    step: u64,
    /// One run per membership, in the memberships' order: a tree message's
    /// `member` indexes it directly.
    runs: &'a mut [Run<P::Val>],
    /// Memberships ready to forward upward this superstep (not the block
    /// root, every in-block child heard, not yet sent): `ready[..ready_len]`
    /// in descending order of the Lemma 2 priority `(root_depth, block)`
    /// plus the membership index, so the pick is a pop from the end. One
    /// entry per membership of room.
    ready: &'a mut [Ready],
    ready_len: u32,
    /// Fault-free broadcast schedule, `downs[..downs_len]`: one entry for
    /// each upward delivery of this superstep, pushed in arrival order.
    /// Arrival rounds only grow, so the mirrored send rounds only shrink
    /// and the top of the stack is always the next send. One entry per
    /// in-block child of room, summed over the memberships.
    downs: &'a mut [Down],
    downs_len: u32,
    /// Fault mode only: one record per membership, parallel to `runs`;
    /// empty in fault-free runs.
    fault: Vec<FaultRun>,
}

/// The simulator-owned outbox an [`EngineNode`] sends into.
type Outbox<P> = Vec<Outgoing<EngineMsg<<P as NodeProgram>::Val, <P as NodeProgram>::Cross>>>;

impl<'a, P: NodeProgram> EngineNode<'a, P> {
    fn new(
        program: P,
        family: &'a BlockFamily,
        info: &NodeInfo<'a>,
        shape: &'a Shape,
        rows: NodeRows<'a, P::Val>,
        (up_bits, cross_msg_bits): (u32, u32),
    ) -> Self {
        let mut fault = Vec::new();
        if shape.faulty {
            fault.resize(info.memberships.len(), FaultRun::default());
            if let Some(own) = info.own_membership {
                fault[own].crossed = vec![false; info.part_neighbors.len()];
            }
        }
        EngineNode {
            program,
            family,
            node: info.node,
            shape,
            up_bits,
            cross_msg_bits,
            finished: false,
            step: 0,
            runs: rows.runs,
            ready: rows.ready,
            ready_len: 0,
            downs: rows.downs,
            downs_len: 0,
            fault,
        }
    }

    /// The node's lazy view of the family, for the program's callbacks.
    fn view(&self) -> NodeView<'a> {
        NodeView {
            family: self.family,
            node: self.node,
        }
    }

    /// The node's rows, for the engine's own reads of them.
    fn info(&self) -> NodeInfo<'a> {
        self.family.info(self.node)
    }

    fn base(&self) -> u64 {
        self.step * self.shape.window
    }

    fn start_superstep(&mut self) {
        let step = self.step;
        let view = self.view();
        self.ready_len = 0;
        self.downs_len = 0;
        for (i, run) in self.runs.iter_mut().enumerate() {
            let contribution = self.program.contribution(view, run.own, step);
            run.pending = run.children;
            run.acc = Some(contribution);
            run.sent_up = false;
            run.agreed = None;
            if let Some(fault) = self.fault.get_mut(i) {
                fault.heard.clear();
                fault.downs_sent.clear();
                fault.downs_sent.resize(run.children as usize, false);
                fault.crossed.fill(false);
            }
            if run.children == 0 {
                if run.is_root() {
                    // Childless roots agree immediately.
                    let val = run
                        .agreed
                        .insert(run.acc.clone().expect("contribution just set"));
                    self.program.on_agreed(view, i, run.own, val, step);
                } else {
                    // Sorted once below: every membership starts unready.
                    self.ready[self.ready_len as usize] = (run.root_depth, run.block, i as u32);
                    self.ready_len += 1;
                }
            }
        }
        self.ready[..self.ready_len as usize].sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Folds an upward value from in-block child `from` (whose index of the
    /// block is `from_member`) into the run of membership `idx`, combining
    /// it by reference.
    fn handle_up(&mut self, from: NodeId, idx: usize, from_member: u32, val: &P::Val, round: u64) {
        let step = self.step;
        let shape = self.shape;
        let view = self.view();
        let base = self.base();
        let rel = round - base;
        if shape.faulty {
            // Duplicated copies and spurious ups (e.g. from a restarted
            // child re-running its protocol) are dropped instead of
            // tripping the fault-free invariants below.
            if self.runs[idx].pending == 0 || self.fault[idx].heard.contains(&from) {
                return;
            }
        } else {
            debug_assert!(rel >= 1 && rel <= shape.l, "up delivery outside conv slot");
        }
        let run = &mut self.runs[idx];
        let acc = run.acc.take().expect("superstep started");
        run.acc = Some(self.program.combine(step, &acc, val));
        run.pending = run
            .pending
            .checked_sub(1)
            .expect("no more child messages than children");
        if shape.faulty {
            self.fault[idx].heard.push(from);
        } else if shape.broadcast_down {
            self.downs[self.downs_len as usize] = Down {
                at: base + 2 * shape.l - rel,
                member: idx as u32,
                child: from,
                child_member: from_member,
            };
            self.downs_len += 1;
        }
        if run.pending == 0 {
            if run.is_root() {
                let agreed = run.agreed.insert(run.acc.clone().expect("set above"));
                self.program.on_agreed(view, idx, run.own, agreed, step);
            } else {
                let key = (run.root_depth, run.block, idx as u32);
                push_ready(self.ready, &mut self.ready_len, key);
            }
        }
    }

    /// Stores the agreed value of membership `idx` that its parent sent
    /// down.
    fn handle_down(&mut self, idx: usize, val: &P::Val) {
        if self.shape.faulty && self.runs[idx].agreed.is_some() {
            return; // duplicated or resent copy — already agreed
        }
        let view = self.view();
        let run = &mut self.runs[idx];
        let agreed = run.agreed.insert(val.clone());
        self.program
            .on_agreed(view, idx, run.own, agreed, self.step);
    }

    /// Forwards the highest-priority ready block to its parent, if any (the
    /// Lemma 2 greedy rule: shallowest block root, ties by block index).
    fn send_up(&mut self, out: &mut Outbox<P>) {
        if self.ready_len == 0 {
            return;
        }
        self.ready_len -= 1;
        let (_, _, i) = self.ready[self.ready_len as usize];
        let run = &mut self.runs[i as usize];
        let (parent, member) = run.parent.expect("non-root memberships have parents");
        run.sent_up = true;
        let val = run.acc.clone().expect("superstep started");
        out.push(Outgoing::new(
            parent,
            EngineMsg {
                payload: Payload::Up {
                    member,
                    from_member: i,
                    val,
                },
                bits: self.up_bits,
                step: self.step as u32,
            },
        ));
    }

    /// The cross messages of superstep `step` to every same-part neighbor.
    /// In fault mode an edge the program is silent on carries a beat, so
    /// that silence never reads as "every copy was lost".
    fn send_crosses(&mut self, out: &mut Outbox<P>) {
        let step = self.step;
        for &(to, _) in self.family.part_neighbors(self.node) {
            let (payload, bits) = match self.program.cross_message(to, step) {
                Some(msg) => (Payload::Cross(msg), self.cross_msg_bits),
                None if self.shape.faulty => (Payload::Beat, 2 + self.shape.step_bits),
                None => continue,
            };
            let step = step as u32;
            out.push(Outgoing::new(
                to,
                EngineMsg {
                    payload,
                    bits,
                    step,
                },
            ));
        }
    }

    /// Fault mode: marks a cross payload or beat of this superstep from
    /// `from` as heard.
    fn hear(&mut self, from: NodeId) {
        let neighbors = self.family.part_neighbors(self.node);
        let i = neighbors.iter().position(|&(u, _)| u == from);
        if let (Some(own), Some(i)) = (self.runs.iter().position(|run| run.own), i) {
            self.fault[own].crossed[i] = true;
        }
    }

    /// Fault mode: checks the superstep that ends. The node missed it if it
    /// lacks its own block's agreed value or heard nothing from some
    /// same-part neighbor in a superstep that has a cross slot — the
    /// safety condition of Awerbuch's α-synchronizer ("Complexity of
    /// network synchronization", J. ACM 1985), checked after the fact.
    fn close_superstep(&mut self) {
        let shape = self.shape;
        let Some(own) = self.runs.iter().position(|run| run.own) else {
            return;
        };
        let crosses = self.step + 1 < shape.steps && self.fault[own].crossed.contains(&false);
        if shape.broadcast_down && (self.runs[own].agreed.is_none() || crosses) {
            self.program.missed(self.step);
        }
    }

    fn emissions(&mut self, round: u64, out: &mut Outbox<P>) {
        let shape = self.shape;
        let base = self.base();

        // Convergecast slot: forward the highest-priority ready block.
        if round >= base && round < base + shape.l {
            self.send_up(out);
        }

        // Broadcast slot: mirror this superstep's upward deliveries. The
        // sends due now sit on top of the stack in arrival order; they go
        // out in membership order, then arrival order.
        let len = self.downs_len as usize;
        let due = self.downs[..len]
            .iter()
            .rposition(|down| down.at > round)
            .map_or(0, |p| p + 1);
        let sends = &mut self.downs[due..len];
        debug_assert!(
            sends.iter().all(|down| down.at == round),
            "mirror send skipped"
        );
        sends.sort_by_key(|down| down.member);
        for down in sends.iter() {
            let run = &self.runs[down.member as usize];
            let val = run
                .agreed
                .clone()
                .unwrap_or_else(|| panic!("broadcast window overflow in block {}", run.block));
            out.push(Outgoing::new(
                down.child,
                EngineMsg {
                    payload: Payload::Down {
                        member: down.child_member,
                        val,
                    },
                    bits: self.up_bits,
                    step: self.step as u32,
                },
            ));
        }
        self.downs_len = due as u32;

        // Cross round: the supergraph step, skipped after the last superstep.
        if shape.broadcast_down && round == base + 2 * shape.l && self.step + 1 < shape.steps {
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
        let shape = self.shape;
        let base = self.base();
        let tree_end = base + 2 * shape.l;
        let step_tag = self.step as u32;
        let info = self.info();
        // Every tree message of this poll is in `out` (which arrives
        // empty), so it doubles as the set of edges already used.
        let used = |out: &Outbox<P>, to: NodeId| out.iter().any(|o| o.to == to);

        if round >= base && round < tree_end {
            // First-time Up: one per poll, by the greedy priority rule.
            self.send_up(out);
            // First-time Downs: at most one per child edge per poll.
            if shape.broadcast_down {
                for i in 0..info.memberships.len() {
                    let Some(agreed) = &self.runs[i].agreed else {
                        continue;
                    };
                    let children = info.children(i).iter().zip(info.child_members(i));
                    for (ci, (&child, &member)) in children.enumerate() {
                        if self.fault[i].downs_sent[ci] || used(out, child) {
                            continue;
                        }
                        self.fault[i].downs_sent[ci] = true;
                        out.push(Outgoing::new(
                            child,
                            EngineMsg {
                                payload: Payload::Down {
                                    member,
                                    val: agreed.clone(),
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
            let k = self.runs.len();
            if k > 0 {
                let start = (round as usize) % k;
                for d in 0..k {
                    let i = (start + d) % k;
                    let run = &self.runs[i];
                    if let (Some((parent, member)), true) =
                        (run.parent, run.sent_up && run.pending == 0)
                    {
                        if !used(out, parent) {
                            let val = run.acc.clone().expect("superstep started");
                            out.push(Outgoing::new(
                                parent,
                                EngineMsg {
                                    payload: Payload::Up {
                                        member,
                                        from_member: i as u32,
                                        val,
                                    },
                                    bits: self.up_bits,
                                    step: step_tag,
                                },
                            ));
                        }
                    }
                    if let (true, Some(agreed)) = (shape.broadcast_down, &run.agreed) {
                        let children = info.children(i).iter().zip(info.child_members(i));
                        for (ci, (&child, &member)) in children.enumerate() {
                            if self.fault[i].downs_sent[ci] && !used(out, child) {
                                out.push(Outgoing::new(
                                    child,
                                    EngineMsg {
                                        payload: Payload::Down {
                                            member,
                                            val: agreed.clone(),
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
        // what to send; receivers deduplicate). A late Down can land inside
        // the slot, and a copy sent before it would carry the previous
        // superstep's state: nothing goes out before the own block's value,
        // so any copy a neighbor hears reflects this superstep's.
        if shape.broadcast_down
            && round >= tree_end
            && round < tree_end + CROSS_REDUNDANCY * shape.cross_span
            && self.step + 1 < shape.steps
            && self.runs.iter().any(|run| run.own && run.agreed.is_some())
        {
            self.send_crosses(out);
        }
    }
}

impl<P: NodeProgram> NodeProtocol for EngineNode<'_, P> {
    type Message = EngineMsg<P::Val, P::Cross>;

    fn init(&mut self, _ctx: &NodeContext, out: &mut Vec<Outgoing<Self::Message>>) {
        let shape = self.shape;
        if shape.steps == 0 {
            self.finished = true;
            return;
        }
        self.start_superstep();
        self.finished = shape.total_rounds == 0;
        if shape.faulty {
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
        let shape = self.shape;
        if shape.steps == 0 {
            return;
        }
        if shape.faulty {
            // Catch up on window boundaries first (deliveries always land
            // strictly before their window's boundary, so nothing here can
            // belong to an earlier step), then apply arrivals immediately:
            // crosses are in-window under the guard band, and anything
            // tagged with another step is a stale duplicate.
            while self.step + 1 < shape.steps && round >= (self.step + 1) * shape.window {
                self.close_superstep();
                self.step += 1;
                self.start_superstep();
            }
            let step = self.step;
            let view = self.view();
            for msg in incoming {
                if msg.msg.step != step as u32 {
                    continue;
                }
                match &msg.msg.payload {
                    &Payload::Up {
                        member,
                        from_member,
                        ref val,
                    } => self.handle_up(msg.from, member as usize, from_member, val, round),
                    &Payload::Down { member, ref val } => self.handle_down(member as usize, val),
                    Payload::Cross(c) => {
                        self.hear(msg.from);
                        self.program.on_cross(view, msg.from, c.clone(), step);
                    }
                    Payload::Beat => self.hear(msg.from),
                }
            }
            if round >= shape.total_rounds && !self.finished {
                self.close_superstep();
                self.finished = true;
            }
            self.emissions_faulty(round, out);
            return;
        }
        // Deliver tree-cast messages of the current superstep; the cross
        // messages arrive exactly at window boundaries.
        for msg in incoming {
            match &msg.msg.payload {
                &Payload::Up {
                    member,
                    from_member,
                    ref val,
                } => self.handle_up(msg.from, member as usize, from_member, val, round),
                &Payload::Down { member, ref val } => self.handle_down(member as usize, val),
                Payload::Cross(_) | Payload::Beat => {}
            }
        }
        // Window boundary: fold in the crosses (in arrival order), then
        // open the next window.
        if self.step + 1 < shape.steps && round == (self.step + 1) * shape.window {
            let step = self.step;
            let view = self.view();
            for msg in incoming {
                if let Payload::Cross(c) = &msg.msg.payload {
                    self.program.on_cross(view, msg.from, c.clone(), step);
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
        if round >= shape.total_rounds {
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
        let shape = self.shape;
        if shape.steps == 0 {
            return None;
        }
        let crosses_follow = shape.broadcast_down
            && self.step + 1 < shape.steps
            && !self.family.part_neighbors(self.node).is_empty();
        if shape.faulty {
            // Re-derived from *observed* progress: anything sendable keeps
            // the node on the per-round schedule (that is the resend
            // engine); otherwise sleep to the cross slot, the next window
            // boundary, or the finish flip. Message arrivals wake the node
            // regardless, and the fault layer aligns every wake to the
            // node's straggler poll schedule.
            let base = self.base();
            let tree_end = base + 2 * shape.l;
            let sendable = self.runs.iter().any(|run| {
                (!run.is_root() && run.pending == 0)
                    || (shape.broadcast_down && run.agreed.is_some() && run.children > 0)
            });
            if sendable && now < tree_end {
                return None;
            }
            let mut wake = shape.total_rounds.max(now + 1);
            if crosses_follow && now + 1 < tree_end + CROSS_REDUNDANCY * shape.cross_span {
                let r = tree_end.max(now + 1);
                if r == now + 1 {
                    return None;
                }
                wake = wake.min(r);
            }
            if self.step + 1 < shape.steps {
                wake = wake.min((self.step + 1) * shape.window);
            }
            return Some(wake);
        }
        // A ready block must be forwarded under the greedy priority rule as
        // soon as the next round: stay on the per-round schedule.
        if self.ready_len > 0 {
            return None;
        }
        let base = self.base();
        // The finish flip is the fallback: every unfinished node must be
        // polled once at `total_rounds` to quiesce.
        let mut wake = shape.total_rounds.max(now + 1);
        // The earliest pending mirrored send (every earlier one went out
        // when it was due).
        if let Some(down) = self.downs[..self.downs_len as usize].last() {
            if down.at > now {
                wake = wake.min(down.at);
            }
        }
        if crosses_follow {
            let r = base + 2 * shape.l;
            if r > now {
                wake = wake.min(r);
            }
        }
        if self.step + 1 < shape.steps {
            let r = (self.step + 1) * shape.window;
            if r > now {
                wake = wake.min(r);
            }
        }
        Some(wake)
    }
}

/// Runs `program` (one instance per node, built by `make`) over the family
/// in the CONGEST simulator, and returns each node's program after the run
/// (indexed by node id) for result extraction.
///
/// The simulator configuration defaults to [`SimConfig::for_graph`] with
/// the round cap tightened to the engine's exact round count — multi-phase
/// protocols must never inherit the generic `64·n + 1024` cap silently.
/// Pass `config` to override (e.g. to enable tracing or change bandwidth);
/// an explicit `max_rounds` in the override is respected.
pub(crate) fn run_engine<P, F>(
    graph: &Graph,
    family: &BlockFamily,
    spec: EngineSpec,
    config: Option<SimConfig>,
    obs: &Obs,
    mut make: F,
) -> lcs_congest::Result<SimOutcome<P>>
where
    P: NodeProgram,
    F: FnMut(&NodeInfo<'_>) -> P,
{
    // The round budget scales with the plan here: callers' caps are raised
    // below, so latency inflation alone can never produce a spurious
    // `RoundLimitExceeded`.
    let plan = config.as_ref().and_then(|c| c.active_fault());
    let spares = plan.is_some_and(|p| p.crash_count() > 0 && p.restart_after() > 0);
    let bits = |width: usize| u32::try_from(width).expect("message widths fit in 32 bits");
    let shape = Shape::new(family.schedule().rounds, spec, plan);
    let (faulty, step_bits) = (shape.faulty, shape.step_bits as usize);
    let total_rounds = shape.total_rounds;
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
    let block_bits = bits_for_count(family.block_count().max(2));
    if obs.is_on() {
        obs.counter_add("dist/engine/runs", 1);
        obs.counter_add("dist/engine/supersteps", spec.steps);
        obs.gauge_set("dist/engine/window", shape.window);
    }
    let mut arenas = Arenas::new(family, spares);
    let (runs, spare_runs) = arenas.runs.split_at_mut(family.membership_count());
    let (ready, spare_ready) = arenas.ready.split_at_mut(family.membership_count());
    let (downs, spare_downs) = arenas.downs.split_at_mut(family.child_count());
    let mut rows = RowCursor::new(runs, ready, downs);
    let mut spare_rows = RowCursor::new(spare_runs, spare_ready, spare_downs);
    let mut built = 0;
    let sim = Simulator::new(graph, cfg).with_recorder(obs.clone());
    let outcome = sim.run(|ctx| {
        let info = family.info(ctx.node);
        // The simulator builds every node in node order, then one spare
        // per restartable crash node in ascending order.
        let node_rows = if built < graph.node_count() {
            rows.take(family, ctx.node)
        } else {
            assert!(spares, "only a plan with restarts builds spare nodes");
            spare_rows.take(family, ctx.node)
        };
        built += 1;
        let program = make(&info);
        let up_bits = bits(2 + block_bits + step_bits + program.val_bits());
        let cross_msg_bits = bits(2 + step_bits + program.cross_bits());
        EngineNode::new(
            program,
            family,
            &info,
            &shape,
            node_rows,
            (up_bits, cross_msg_bits),
        )
    })?;
    debug_assert!(faulty || outcome.stats.rounds <= total_rounds);
    Ok(SimOutcome {
        nodes: outcome.nodes.into_iter().map(|node| node.program).collect(),
        stats: outcome.stats,
        trace: outcome.trace,
    })
}

/// Epochs a run under a fault plan takes before it reports
/// [`LcsError::Degraded`].
const MAX_EPOCHS: u32 = 5;
/// The first epoch's round budget is its exact fault-mode schedule times
/// this factor, so transient queue build-up cannot trip the cap.
const TIMEOUT_FACTOR: u64 = 2;
/// Every further epoch multiplies the window stretch, and with it the
/// round budget, by this factor again.
const BACKOFF: u64 = 2;

/// One run of a protocol inside [`run_epochs`]: its answer, its traffic,
/// and whether the answer is complete — under a fault plan, that it equals
/// the fault-free one.
pub(crate) struct Epoch<T> {
    pub answer: T,
    pub stats: SimStats,
    pub complete: bool,
}

/// One epoch of [`run_epochs`], as the loop hands it to the protocol: the
/// epoch's spec and configuration are sealed inside, so the only way to
/// run it is [`EpochRun::run`].
pub(crate) struct EpochRun {
    spec: EngineSpec,
    config: Option<SimConfig>,
}

impl EpochRun {
    /// Runs the epoch: [`run_engine`] with the programs `make` builds.
    pub(crate) fn run<P: NodeProgram>(
        self,
        graph: &Graph,
        family: &BlockFamily,
        obs: &Obs,
        make: impl FnMut(&NodeInfo<'_>) -> P,
    ) -> lcs_congest::Result<SimOutcome<P>> {
        run_engine(graph, family, self.spec, self.config, obs, make)
    }
}

/// The one epoch loop: runs a protocol of `steps` full supersteps over
/// `family` with `run`, and returns the answer of the epoch it kept, the
/// traffic of every epoch it ran, and how many it ran. An epoch cut off at
/// its round cap adds its cap to the rounds and no traffic, which the
/// simulator does not return.
///
/// Without an active fault plan on `config` this is one run, returned
/// whether complete or not (the protocol judges its own answer then).
/// With one, the run is repeated in *epochs* until one is complete. Epoch
/// `e` widens the windows by `BACKOFF^e` and gets a round budget of
/// `TIMEOUT_FACTOR` times its exact schedule; a run that hits the budget
/// stalls like an incomplete one. Each epoch advances the plan's round
/// offset by the previous budget, so the retry sees the same deterministic
/// fault world later in global time (restartable crash windows are behind
/// it, loss draws are fresh). Under `obs`, every epoch adds 1 to
/// `{label}/epochs` and every stalled one to `{label}/stalls`.
///
/// # Errors
///
/// Propagates `run`'s simulator errors other than a round-cap hit as
/// [`LcsError::Simulation`]; [`LcsError::Degraded`] when all `MAX_EPOCHS`
/// epochs stall.
pub(crate) fn run_epochs<T>(
    family: &BlockFamily,
    steps: u64,
    config: Option<SimConfig>,
    obs: &Obs,
    label: &str,
    mut run: impl FnMut(EpochRun) -> lcs_congest::Result<Epoch<T>>,
) -> LcsResult<(T, SimStats, u32)> {
    let epoch = |stretch, config| EpochRun {
        spec: EngineSpec {
            steps,
            broadcast_down: true,
            stretch,
        },
        config,
    };
    let Some((config, plan)) = config.and_then(|c| c.active_fault().map(|plan| (c, plan))) else {
        let epoch = run(epoch(1, config))?;
        return Ok((epoch.answer, epoch.stats, 1));
    };
    // The first epoch's exact fault-mode schedule plus its two closing
    // rounds.
    let first = epoch(1, None).spec;
    let schedule = Shape::new(family.schedule().rounds, first, Some(plan)).total_rounds + 2;
    let mut offset = plan.round_offset();
    let mut spent = SimStats::default();
    for e in 0..MAX_EPOCHS {
        let stretch = BACKOFF.pow(e);
        let budget = schedule * TIMEOUT_FACTOR * stretch;
        let config = config
            .with_fault(plan.with_round_offset(offset))
            .with_max_rounds(budget);
        if obs.is_on() {
            obs.counter_add(&format!("{label}/epochs"), 1);
        }
        match run(epoch(stretch, Some(config))) {
            Ok(run) => {
                spent.rounds += run.stats.rounds;
                spent.messages += run.stats.messages;
                spent.total_bits += run.stats.total_bits;
                spent.max_message_bits = spent.max_message_bits.max(run.stats.max_message_bits);
                if run.complete {
                    return Ok((run.answer, spent, e + 1));
                }
            }
            // A run cut off at its cap returns no traffic: only its
            // rounds are known.
            Err(SimError::RoundLimitExceeded { limit }) => {
                spent.rounds += limit;
            }
            Err(other) => return Err(other.into()),
        }
        if obs.is_on() {
            obs.counter_add(&format!("{label}/stalls"), 1);
        }
        offset = offset.saturating_add(budget);
    }
    Err(LcsError::Degraded {
        epochs: MAX_EPOCHS,
        stalls: MAX_EPOCHS,
        reason: format!("fault-injected run stayed incomplete after {MAX_EPOCHS} epochs"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_core::existential::ancestor_shortcut;
    use lcs_core::TreeShortcut;
    use lcs_graph::{generators, RootedTree};

    /// The index of `block` in `v`'s row, by brute-force search.
    fn row_index(family: &BlockFamily, v: NodeId, block: u32) -> Option<u32> {
        let row = family.info(v).memberships;
        let i = row.iter().position(|m| m.block == block as usize)?;
        Some(u32::try_from(i).unwrap())
    }

    /// The runs a node's hot path reads are copies of the family's
    /// memberships: one per membership, at the node's row of the arena, in
    /// the same order, with the same block, root depth, parent, child count
    /// and root flag, and the own flag set exactly at `own_membership`.
    /// Every run's parent index and every child index, which tree messages
    /// are dispatched by, name the membership of the same block in the
    /// parent's or the child's row, as a search of that row finds it. The
    /// spare copy a restarting plan adds repeats the first.
    #[test]
    fn runs_mirror_the_family_memberships() {
        let graphs = [
            generators::grid(7, 7),
            generators::torus(6, 6),
            generators::wheel(41),
            generators::random_connected(60, 90, 5),
        ];
        for graph in &graphs {
            let tree = RootedTree::bfs(graph, NodeId::new(0));
            let partition = generators::partitions::random_bfs_balls(graph, 6, 3);
            let shortcuts = [
                ancestor_shortcut(graph, &tree, &partition),
                TreeShortcut::empty(graph, &partition),
            ];
            for shortcut in &shortcuts {
                let family = BlockFamily::new(graph, &tree, &partition, shortcut);
                let arenas = Arenas::<()>::new(&family, true);
                let total = family.membership_count();
                assert_eq!(arenas.runs.len(), 2 * total);
                assert_eq!(arenas.ready.len(), 2 * total);
                assert_eq!(arenas.downs.len(), 2 * family.child_count());
                let mut linked = 0;
                for v in graph.nodes() {
                    let info = family.info(v);
                    let span = family.member_span(v);
                    let runs = &arenas.runs[span.clone()];
                    assert_eq!(runs.len(), info.memberships.len(), "node {v}");
                    for (i, (run, m)) in runs.iter().zip(info.memberships).enumerate() {
                        assert_eq!(run.block as usize, m.block, "node {v}");
                        assert_eq!(run.root_depth, m.root_depth, "node {v}");
                        assert_eq!(run.parent.map(|(p, _)| p), m.parent, "node {v}");
                        assert_eq!(run.children as usize, info.children(i).len(), "node {v}");
                        assert_eq!(run.is_root(), m.is_root, "node {v}");
                        assert_eq!(run.own, info.own_membership == Some(i), "node {v}");
                        if let Some((parent, member)) = run.parent {
                            let expected = row_index(&family, parent, run.block);
                            assert_eq!(Some(member), expected, "node {v}, parent {parent}");
                        }
                        let children = info.children(i);
                        let members = info.child_members(i);
                        assert_eq!(children.len(), members.len(), "node {v}");
                        for (&child, &member) in children.iter().zip(members) {
                            let expected = row_index(&family, child, run.block);
                            assert_eq!(Some(member), expected, "node {v}, child {child}");
                            linked += 1;
                        }
                        let spare = &arenas.runs[total + span.start + i];
                        assert_eq!(spare.block, run.block, "node {v}");
                        assert_eq!(spare.parent, run.parent, "node {v}");
                        assert_eq!(spare.own, run.own, "node {v}");
                    }
                    assert_eq!(
                        runs.iter().filter(|run| run.own).count(),
                        usize::from(info.own_membership.is_some()),
                        "node {v}"
                    );
                    let children: usize = (0..info.memberships.len())
                        .map(|i| info.children(i).len())
                        .sum();
                    assert_eq!(family.child_span(v).len(), children, "node {v}");
                }
                // Every non-root membership is exactly one child entry.
                let roots = arenas.runs[..total].iter().filter(|run| run.is_root());
                assert_eq!(linked, total - roots.count());
            }
        }
    }

    /// The ready list pops in the order a min-heap of the same keys would.
    #[test]
    fn ready_pops_like_a_min_heap() {
        let keys: [Ready; 7] = [
            (3, 9, 0),
            (1, 4, 1),
            (3, 2, 2),
            (0, 7, 3),
            (1, 5, 4),
            (2, 1, 5),
            (0, 8, 6),
        ];
        let mut ready = [(0, 0, 0); 7];
        let mut len = 0;
        for &key in &keys[..4] {
            push_ready(&mut ready, &mut len, key);
        }
        let mut popped = Vec::new();
        len -= 1;
        popped.push(ready[len as usize]);
        for &key in &keys[4..] {
            push_ready(&mut ready, &mut len, key);
        }
        while len > 0 {
            len -= 1;
            popped.push(ready[len as usize]);
        }
        let mut expected = vec![(0, 7, 3)];
        let mut rest: Vec<Ready> = keys.iter().copied().filter(|&k| k != (0, 7, 3)).collect();
        rest.sort_unstable();
        expected.extend(rest);
        assert_eq!(popped, expected);
    }

    /// Sends, as its cross payload, the superstep of the last agreed value
    /// of its own block, and counts the copies it hears that name another
    /// superstep than the one they were sent after.
    #[derive(Debug, Default)]
    struct Echo {
        agreed_at: Option<u64>,
        stale: u64,
    }

    impl NodeProgram for Echo {
        type Val = u64;
        type Cross = Option<u64>;

        fn contribution(&mut self, view: NodeView<'_>, _own: bool, step: u64) -> u64 {
            view.node.index() as u64 + step
        }
        fn combine(&self, _step: u64, a: &u64, b: &u64) -> u64 {
            *a.min(b)
        }
        fn on_agreed(&mut self, _: NodeView<'_>, _: usize, own: bool, _: &u64, step: u64) {
            if own {
                self.agreed_at = Some(step);
            }
        }
        fn cross_message(&mut self, _to: NodeId, _step: u64) -> Option<Option<u64>> {
            Some(self.agreed_at)
        }
        fn on_cross(&mut self, _: NodeView<'_>, _: NodeId, msg: Option<u64>, step: u64) {
            if msg != Some(step) {
                self.stale += 1;
            }
        }
        fn val_bits(&self) -> usize {
            16
        }
        fn cross_bits(&self) -> usize {
            16
        }
    }

    /// Under latency and heavy loss a member's own block value can land
    /// inside the cross slot. Every cross copy a neighbor hears must still
    /// carry the sender's state after this superstep's value: a copy sent
    /// before it would satisfy the neighbor's completion check with the
    /// previous superstep's payload.
    #[test]
    fn no_cross_copy_precedes_the_own_block_value() {
        let graph = generators::grid(8, 8);
        let tree = RootedTree::bfs(&graph, NodeId::new(0));
        let partition = generators::partitions::random_bfs_balls(&graph, 6, 3);
        let shortcut = ancestor_shortcut(&graph, &tree, &partition);
        let family = BlockFamily::new(&graph, &tree, &partition, &shortcut);
        let spec = EngineSpec {
            steps: 6,
            broadcast_down: true,
            stretch: 1,
        };
        let mut configs = vec![None];
        for seed in 0..4 {
            let plan = lcs_congest::FaultPlan::new(seed)
                .with_latency(1)
                .with_loss_ppm(400_000)
                .with_dup_ppm(50_000);
            configs.push(Some(SimConfig::for_graph(&graph).with_fault(plan)));
        }
        for config in configs {
            let faulty = config.is_some();
            let out = run_engine(&graph, &family, spec, config, &Obs::off(), |_| {
                Echo::default()
            })
            .unwrap();
            let stale: u64 = out.nodes.iter().map(|node| node.stale).sum();
            assert_eq!(stale, 0, "faulty: {faulty}");
        }
    }
}
