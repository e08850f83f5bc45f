//! The sharded round engine: the serial loop partitioned over `S`
//! contiguous node shards, one `std::thread::scope` worker per shard.
//!
//! # Shard layout
//!
//! Shard boundaries come from [`lcs_graph::ShardMap::by_volume`], so every
//! shard owns a contiguous node range *and therefore* a contiguous range of
//! the CSR edge-slot arrays (`Topology::offset` is monotone in node id).
//! Each shard privately owns, for its range: the protocol states, both
//! edge-slot mailbox buffers, inbox counters, worklists, its duplicate-send
//! stamps (sender-position indexed — a directed edge has exactly one
//! sender, so stamps never leave the sender's shard), its [`Calendar`] of
//! `next_wake` entries, and the reused outbox its protocols send into.
//!
//! # Cross-shard staging and the barrier merge
//!
//! A post whose recipient lives in another shard is appended to a per-
//! destination staging buffer instead of written to the mailbox. At the end
//! of each round's work phase every shard flushes its staging buffers into
//! the destinations' mutex-guarded inbound queues; at the start of the next
//! round each shard swaps its own queue out against an empty buffer it
//! keeps for the purpose (so no round allocates a fresh queue) and drains
//! it into its `next` mailbox before swapping buffers. Every slot is
//! written at most once per round (the sender-side stamp guarantees it),
//! and recipients' worklists are sorted before polling, so the drain order
//! — the only thing scheduling can vary — is unobservable. This is what makes `SimStats`, traces, states, and
//! errors byte-identical to the serial engine for every shard count.
//!
//! # Round protocol
//!
//! Workers and the coordinating thread advance in lockstep through two
//! barriers per phase: phase 0 is `init`, phase `r ≥ 1` is round `r`.
//! Between the end barrier of phase `r` and the start barrier of phase
//! `r + 1` only the coordinator runs: it gathers the per-shard trace
//! contributions, detects quiescence (no worklist, no timer, no staged
//! message anywhere), enforces the round cap, and surfaces the
//! lowest-shard error of the earliest failing round — exactly the failure
//! the serial engine reports first.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use lcs_graph::{Graph, ShardMap};
use lcs_obs::{LatencyHistogram, Obs, SpanBuffer};

use crate::fault::{Delayed, FaultCounters, FaultState};
use crate::{
    Incoming, MessageBits, NodeContext, NodeProtocol, Outgoing, RoundTrace, SimConfig, SimError,
    SimOutcome, SimStats,
};

use super::{build_contexts, record_run, serial, Calendar, RoundEngine, Topology};

/// The sharded engine: `threads` workers, one contiguous node shard each.
pub(crate) struct ShardedEngine {
    pub(crate) threads: usize,
}

impl RoundEngine for ShardedEngine {
    fn shard_count(&self) -> usize {
        self.threads
    }

    fn run<P, F>(
        &self,
        graph: &Graph,
        config: &SimConfig,
        obs: &Obs,
        factory: F,
    ) -> crate::Result<SimOutcome<P>>
    where
        P: NodeProtocol + Send,
        P::Message: Send,
        F: FnMut(&NodeContext) -> P,
    {
        let shards = self.threads.min(graph.node_count().max(1));
        if shards <= 1 {
            return serial::run_protocol(graph, config, obs, factory);
        }
        run_sharded(graph, config, obs, factory, shards)
    }
}

/// A message crossing a shard boundary: the recipient-side slot, the
/// recipient's node id, and the already-validated payload.
struct Staged<M> {
    slot: u32,
    to: u32,
    /// Validated size of `msg` in bits. Kept at full width: truncating here
    /// would let a pathological bandwidth configuration desynchronize the
    /// sharded trace's bit counts from the serial engine's.
    bits: u64,
    /// Fault-mode delivery metadata: the round the copy becomes due and the
    /// round it was posted. Both are 0 in fault-free runs, where delivery
    /// is always "next round" and these fields are ignored.
    due: u64,
    posted: u64,
    msg: M,
}

/// State the coordinator and the workers exchange at the barriers.
struct Shared<M> {
    barrier: Barrier,
    /// Phase number workers should execute next (0 = init).
    phase: AtomicU64,
    /// Set by the coordinator once the run is over.
    stop: AtomicBool,
    /// Set by any worker that recorded an error this phase.
    any_error: AtomicBool,
    /// Per-shard "has pending work" flags, refreshed every phase.
    active: Vec<AtomicBool>,
    /// Per-shard messages/bits delivered in the last executed round (for
    /// the trace).
    delivered: Vec<AtomicU64>,
    bits: Vec<AtomicU64>,
    /// Per-shard inbound cross-shard staging queues, double-buffered by
    /// phase parity: messages staged during phase `r` are addressed to
    /// phase `r + 1`, so writers use parity `(r + 1) % 2` while readers of
    /// phase `r` drain parity `r % 2` — the two phases never touch the
    /// same buffer, which is what keeps a fast shard's round-`r` sends from
    /// leaking into a slower shard's round-`r` deliveries.
    inboxes: [Vec<Mutex<Vec<Staged<M>>>>; 2],
}

/// The fault-mode extension of one shard: its slice of the delivery queue
/// (local recipients only — a delayed message lives in its *recipient's*
/// shard), the per-node round inboxes it feeds, the fresh states held for
/// this shard's restartable crash nodes, and the shard-local fault
/// tallies. Fault decisions themselves come from the run-wide
/// [`FaultState`], which is immutable and shared by reference, so shard
/// count cannot perturb a single draw.
struct ShardFault<P: NodeProtocol> {
    heap: BinaryHeap<Reverse<Delayed<P::Message>>>,
    /// Messages delivered to each local node this round (local-indexed,
    /// cleared after polling).
    inboxes: Vec<Vec<Incoming<P::Message>>>,
    /// Fresh states for this shard's crash nodes (ascending node order),
    /// present only when the plan restarts them.
    spares: Vec<(u32, Option<P>)>,
    counters: FaultCounters,
}

/// One shard's private slice of the run.
struct Shard<P: NodeProtocol> {
    id: usize,
    /// First node id (the shard owns `node_lo..node_lo + nodes.len()`).
    node_lo: usize,
    /// First CSR slot (the shard owns `slot_lo..slot_lo + cur.len()`).
    slot_lo: usize,
    nodes: Vec<P>,
    cur: Vec<Option<P::Message>>,
    next: Vec<Option<P::Message>>,
    /// Duplicate-send stamps, indexed by *sender-side* CSR position local
    /// to this shard (the sender of a directed edge is unique, so the check
    /// needs no cross-shard coordination).
    stamp: Vec<u64>,
    inbox_cur: Vec<u32>,
    inbox_next: Vec<u32>,
    queued: Vec<bool>,
    worklist_cur: Vec<u32>,
    worklist_next: Vec<u32>,
    wakes: Calendar,
    /// Outbound staging, one buffer per destination shard.
    staging: Vec<Vec<Staged<P::Message>>>,
    /// An empty buffer (capacity kept) traded for the shared inbound
    /// queue at every merge.
    inbound: Vec<Staged<P::Message>>,
    in_flight_next: u64,
    bits_next: u64,
    last_delivered: u64,
    last_bits: u64,
    stats: SimStats,
    /// Active-node polls (worklist entries processed), accumulated locally
    /// like `stats` and folded into the obs counters in shard order.
    polls: u64,
    /// Probe state, all local to this shard's worker: whether probes are
    /// live at all (recording off ⇒ the hot path takes no clock reads and
    /// allocates no histogram), barrier-wait nanoseconds, and the size of
    /// every cross-shard staging flush.
    probe_on: bool,
    barrier_nanos: u64,
    flush_sizes: Option<LatencyHistogram>,
    error: Option<SimError>,
    /// A panic payload caught from protocol code (re-raised by the
    /// coordinator after the fleet stops — `Barrier` has no poisoning, so
    /// letting a worker unwind through a barrier would deadlock the rest).
    panic: Option<Box<dyn std::any::Any + Send>>,
    scratch: Vec<Incoming<P::Message>>,
    /// The protocol outbox, reused for every poll of this shard.
    outbox: Vec<Outgoing<P::Message>>,
    /// Fault-mode state; `None` exactly when the run has no active plan.
    fault: Option<ShardFault<P>>,
}

impl<P: NodeProtocol> Shard<P> {
    fn queue_local(&mut self, node: usize) {
        let local = node - self.node_lo;
        if !self.queued[local] {
            self.queued[local] = true;
            self.worklist_next.push(node as u32);
        }
    }

    fn post(
        &mut self,
        config: &SimConfig,
        topo: &Topology,
        map: &ShardMap,
        ctx: &NodeContext<'_>,
        out: Outgoing<P::Message>,
        round: u64,
    ) -> crate::Result<()> {
        let pos = ctx.position_of(out.to).ok_or(SimError::NotANeighbor {
            from: ctx.node,
            to: out.to,
        })?;
        let gpos = topo.offset[ctx.node.index()] as usize + pos;
        let lpos = gpos - self.slot_lo;
        if self.stamp[lpos] == round {
            return Err(SimError::DuplicateSend {
                from: ctx.node,
                to: out.to,
                round,
            });
        }
        self.stamp[lpos] = round;
        let bits = out.msg.size_bits();
        if bits > config.bandwidth_bits {
            return Err(SimError::BandwidthExceeded {
                from: ctx.node,
                to: out.to,
                message_bits: bits,
                bandwidth_bits: config.bandwidth_bits,
            });
        }
        self.stats.messages += 1;
        self.stats.total_bits += bits as u64;
        self.stats.max_message_bits = self.stats.max_message_bits.max(bits);
        let slot = topo.mirror[gpos];
        let dst = map.shard_of(out.to);
        if dst == self.id {
            self.next[slot as usize - self.slot_lo] = Some(out.msg);
            self.inbox_next[out.to.index() - self.node_lo] += 1;
            self.in_flight_next += 1;
            self.bits_next += bits as u64;
            self.queue_local(out.to.index());
        } else {
            self.staging[dst].push(Staged {
                slot,
                to: out.to.index() as u32,
                bits: bits as u64,
                due: 0,
                posted: 0,
                msg: out.msg,
            });
        }
        Ok(())
    }

    /// Queues every node whose timed wake-up is due at `round`.
    fn fire_wakes(&mut self, round: u64) {
        let node_lo = self.node_lo;
        let (queued, worklist) = (&mut self.queued, &mut self.worklist_next);
        self.wakes.fire(round, |node| {
            if !queued[node - node_lo] {
                queued[node - node_lo] = true;
                worklist.push(node as u32);
            }
        });
    }

    /// Takes this shard's inbound queue (messages staged by other shards in
    /// the previous phase), leaving the empty `inbound` buffer in its place
    /// for later flushes. Callers drain the queue and keep it as the next
    /// `inbound`, so the queues trade buffers instead of allocating.
    fn take_inbound(&mut self, phase: u64, shared: &Shared<P::Message>) -> Vec<Staged<P::Message>> {
        let mut queue = std::mem::take(&mut self.inbound);
        let mut inbox = shared.inboxes[(phase % 2) as usize][self.id]
            .lock()
            .expect("no worker panics while holding an inbox lock");
        std::mem::swap(&mut *inbox, &mut queue);
        queue
    }

    /// Drains this shard's inbound queue into the next-round mailbox.
    fn merge_inbound(&mut self, phase: u64, shared: &Shared<P::Message>) {
        let mut staged = self.take_inbound(phase, shared);
        for st in staged.drain(..) {
            self.next[st.slot as usize - self.slot_lo] = Some(st.msg);
            self.inbox_next[st.to as usize - self.node_lo] += 1;
            self.in_flight_next += 1;
            self.bits_next += st.bits;
            self.queue_local(st.to as usize);
        }
        self.inbound = staged;
    }

    /// Flushes the outbound staging buffers into the destinations' inbound
    /// queues for the *next* phase.
    fn flush_staging(&mut self, phase: u64, shared: &Shared<P::Message>) {
        for (dst, buf) in self.staging.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            if let Some(sizes) = self.flush_sizes.as_mut() {
                sizes.record(buf.len() as u64);
            }
            let mut inbox = shared.inboxes[((phase + 1) % 2) as usize][dst]
                .lock()
                .expect("no worker panics while holding an inbox lock");
            inbox.append(buf);
        }
    }

    fn begin_round(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
        std::mem::swap(&mut self.inbox_cur, &mut self.inbox_next);
        std::mem::swap(&mut self.worklist_cur, &mut self.worklist_next);
        self.worklist_next.clear();
        for &v in &self.worklist_cur {
            self.queued[v as usize - self.node_lo] = false;
        }
        self.worklist_cur.sort_unstable();
        self.last_delivered = self.in_flight_next;
        self.last_bits = self.bits_next;
        self.in_flight_next = 0;
        self.bits_next = 0;
    }

    fn drain_into(&mut self, idx: usize, topo: &Topology, ctx: &NodeContext<'_>) {
        self.scratch.clear();
        let local = idx - self.node_lo;
        if self.inbox_cur[local] == 0 {
            return;
        }
        let base = topo.offset[idx] as usize;
        let end = topo.offset[idx + 1] as usize;
        let neighbors = ctx.neighbor_ids();
        let edges = ctx.incident_edge_ids();
        for p in base..end {
            if let Some(msg) = self.cur[p - self.slot_lo].take() {
                self.scratch.push(Incoming {
                    from: neighbors[p - base],
                    edge: edges[p - base],
                    msg,
                });
            }
        }
        self.inbox_cur[local] = 0;
    }

    /// Phase 0: `init` every node of the shard, in node order.
    fn run_init(
        &mut self,
        config: &SimConfig,
        topo: &Topology,
        map: &ShardMap,
        contexts: &[NodeContext<'_>],
    ) {
        let mut outbox = std::mem::take(&mut self.outbox);
        for local in 0..self.nodes.len() {
            let idx = self.node_lo + local;
            let ctx = &contexts[idx];
            self.nodes[local].init(ctx, &mut outbox);
            for out in outbox.drain(..) {
                if let Err(err) = self.post(config, topo, map, ctx, out, 0) {
                    self.error = Some(err);
                    return;
                }
            }
            if !self.nodes[local].is_done() {
                match self.nodes[local].next_wake(0) {
                    Some(r) if r > 1 => self.wakes.push(r, idx as u32),
                    _ => self.queue_local(idx),
                }
            }
        }
        self.outbox = outbox;
    }

    /// Phase `round ≥ 1`: merge inbound mail, pop due timers, flip buffers,
    /// poll the worklist.
    fn run_round(
        &mut self,
        round: u64,
        config: &SimConfig,
        topo: &Topology,
        map: &ShardMap,
        contexts: &[NodeContext<'_>],
        shared: &Shared<P::Message>,
    ) {
        self.merge_inbound(round, shared);
        self.fire_wakes(round);
        self.begin_round();
        let worklist = std::mem::take(&mut self.worklist_cur);
        let mut outbox = std::mem::take(&mut self.outbox);
        self.polls += worklist.len() as u64;
        'nodes: for &vi in &worklist {
            let idx = vi as usize;
            let local = idx - self.node_lo;
            let ctx = &contexts[idx];
            self.drain_into(idx, topo, ctx);
            let scratch = std::mem::take(&mut self.scratch);
            self.nodes[local].on_round(ctx, round, &scratch, &mut outbox);
            self.scratch = scratch;
            for out in outbox.drain(..) {
                if let Err(err) = self.post(config, topo, map, ctx, out, round) {
                    self.error = Some(err);
                    break 'nodes;
                }
            }
            if !self.nodes[local].is_done() {
                match self.nodes[local].next_wake(round) {
                    Some(r) if r > round + 1 => self.wakes.push(r, idx as u32),
                    _ => self.queue_local(idx),
                }
            }
        }
        self.worklist_cur = worklist;
        self.outbox = outbox;
    }

    /// Fault-mode post: identical validation and send accounting to
    /// [`Shard::post`], then the same loss/delay/duplication schedule as
    /// the serial engine — every draw is keyed by the recipient-side slot
    /// and the round, never by which shard executes it. A local recipient's
    /// copy goes straight into this shard's delivery heap; a remote one is
    /// staged with its `(due, posted)` key and lands in the destination
    /// shard's heap at the next merge (cross-shard copies are due no
    /// earlier than `round + 1`, so the merge never arrives late).
    #[allow(clippy::too_many_arguments)]
    fn post_faulty(
        &mut self,
        config: &SimConfig,
        topo: &Topology,
        map: &ShardMap,
        fs: &FaultState,
        ctx: &NodeContext<'_>,
        out: Outgoing<P::Message>,
        round: u64,
    ) -> crate::Result<()> {
        let pos = ctx.position_of(out.to).ok_or(SimError::NotANeighbor {
            from: ctx.node,
            to: out.to,
        })?;
        let gpos = topo.offset[ctx.node.index()] as usize + pos;
        let lpos = gpos - self.slot_lo;
        if self.stamp[lpos] == round {
            return Err(SimError::DuplicateSend {
                from: ctx.node,
                to: out.to,
                round,
            });
        }
        self.stamp[lpos] = round;
        let bits = out.msg.size_bits();
        if bits > config.bandwidth_bits {
            return Err(SimError::BandwidthExceeded {
                from: ctx.node,
                to: out.to,
                message_bits: bits,
                bandwidth_bits: config.bandwidth_bits,
            });
        }
        self.stats.messages += 1;
        self.stats.total_bits += bits as u64;
        self.stats.max_message_bits = self.stats.max_message_bits.max(bits);
        let slot = topo.mirror[gpos];
        let fault = self.fault.as_mut().expect("fault mode is on");
        if fs.lose(u64::from(slot), round) {
            fault.counters.drops += 1;
            return Ok(());
        }
        let to = out.to.index();
        let delay = fs.delay_of(ctx.incident_edge_ids()[pos].index());
        if delay > 0 {
            fault.counters.delays += 1;
        }
        let due = fs.next_poll(to, round + 1 + delay);
        let dup = fs.duplicate(u64::from(slot), round);
        if dup {
            fault.counters.dups += 1;
        }
        let dst = map.shard_of(out.to);
        if dst == self.id {
            if dup {
                fault.heap.push(Reverse(Delayed {
                    due: fs.next_poll(to, due + 1),
                    slot,
                    posted: round,
                    to: to as u32,
                    bits: bits as u64,
                    msg: out.msg.clone(),
                }));
            }
            fault.heap.push(Reverse(Delayed {
                due,
                slot,
                posted: round,
                to: to as u32,
                bits: bits as u64,
                msg: out.msg,
            }));
        } else {
            if dup {
                self.staging[dst].push(Staged {
                    slot,
                    to: to as u32,
                    bits: bits as u64,
                    due: fs.next_poll(to, due + 1),
                    posted: round,
                    msg: out.msg.clone(),
                });
            }
            self.staging[dst].push(Staged {
                slot,
                to: to as u32,
                bits: bits as u64,
                due,
                posted: round,
                msg: out.msg,
            });
        }
        Ok(())
    }

    /// Fault-mode inbound merge: staged cross-shard copies join this
    /// shard's delivery heap (their due rounds are still in the future, so
    /// ordering is preserved).
    fn merge_inbound_faulty(&mut self, phase: u64, shared: &Shared<P::Message>) {
        let mut staged = self.take_inbound(phase, shared);
        let fault = self.fault.as_mut().expect("fault mode is on");
        for st in staged.drain(..) {
            fault.heap.push(Reverse(Delayed {
                due: st.due,
                slot: st.slot,
                posted: st.posted,
                to: st.to,
                bits: st.bits,
                msg: st.msg,
            }));
        }
        self.inbound = staged;
    }

    /// Fault-mode phase 0: `init` every non-crashed node of the shard in
    /// node order, schedule wakes through each node's poll schedule, and
    /// arm the restart timers for this shard's crash nodes.
    fn run_init_faulty(
        &mut self,
        config: &SimConfig,
        topo: &Topology,
        map: &ShardMap,
        fs: &FaultState,
        contexts: &[NodeContext<'_>],
    ) {
        let mut outbox = std::mem::take(&mut self.outbox);
        for local in 0..self.nodes.len() {
            let idx = self.node_lo + local;
            if fs.crashed_at(idx, 0) {
                continue;
            }
            let ctx = &contexts[idx];
            self.nodes[local].init(ctx, &mut outbox);
            for out in outbox.drain(..) {
                if let Err(err) = self.post_faulty(config, topo, map, fs, ctx, out, 0) {
                    self.error = Some(err);
                    return;
                }
            }
            if !self.nodes[local].is_done() {
                match fs.wake_round(idx, self.nodes[local].next_wake(0), 0) {
                    due if due > 1 => self.wakes.push(due, idx as u32),
                    _ => self.queue_local(idx),
                }
            }
        }
        self.outbox = outbox;
        if let Some(r) = fs.restart_local_round() {
            for &v in fs.crash_nodes() {
                let idx = v as usize;
                if idx >= self.node_lo && idx < self.node_lo + self.nodes.len() {
                    self.wakes.push(r, v);
                }
            }
        }
    }

    /// Fault-mode phase `round ≥ 1`: merge staged copies into the delivery
    /// heap, pop due timers and due deliveries (dropping mail addressed to
    /// currently-crashed nodes), flip worklists, then poll — skipping
    /// crashed nodes and re-initializing restarting ones.
    #[allow(clippy::too_many_arguments)]
    fn run_round_faulty(
        &mut self,
        round: u64,
        config: &SimConfig,
        topo: &Topology,
        map: &ShardMap,
        fs: &FaultState,
        contexts: &[NodeContext<'_>],
        shared: &Shared<P::Message>,
    ) {
        self.merge_inbound_faulty(round, shared);
        self.fire_wakes(round);
        let mut delivered: u64 = 0;
        let mut bits: u64 = 0;
        {
            let fault = self.fault.as_mut().expect("fault mode is on");
            fault.counters.queue_peak = fault.counters.queue_peak.max(fault.heap.len() as u64);
        }
        loop {
            let fault = self.fault.as_mut().expect("fault mode is on");
            let Some(Reverse(d)) = fault.heap.peek() else {
                break;
            };
            if d.due > round {
                break;
            }
            let Some(Reverse(d)) = fault.heap.pop() else {
                break;
            };
            debug_assert_eq!(d.due, round, "delivery rounds are never skipped");
            let to = d.to as usize;
            if fs.crashed_at(to, round) {
                fault.counters.crash_drops += 1;
                continue;
            }
            delivered += 1;
            bits += d.bits;
            let base = topo.offset[to] as usize;
            let k = d.slot as usize - base;
            let ctx = &contexts[to];
            fault.inboxes[to - self.node_lo].push(Incoming {
                from: ctx.neighbor_ids()[k],
                edge: ctx.incident_edge_ids()[k],
                msg: d.msg,
            });
            self.queue_local(to);
        }
        self.begin_round();
        // The fault plane bypasses the mailbox buffers, so the trace
        // contribution is the heap pop tally, not `in_flight_next`.
        self.last_delivered = delivered;
        self.last_bits = bits;
        let worklist = std::mem::take(&mut self.worklist_cur);
        let mut outbox = std::mem::take(&mut self.outbox);
        let restart_round = fs.restart_local_round();
        'nodes: for &vi in &worklist {
            let idx = vi as usize;
            let local = idx - self.node_lo;
            if fs.crashed_at(idx, round) {
                self.fault.as_mut().expect("fault mode is on").inboxes[local].clear();
                continue;
            }
            let ctx = &contexts[idx];
            if restart_round == Some(round) && fs.is_crash_node(idx) {
                let fault = self.fault.as_mut().expect("fault mode is on");
                if let Some(spare) = fault
                    .spares
                    .iter_mut()
                    .find(|(v, _)| *v as usize == idx)
                    .and_then(|(_, s)| s.take())
                {
                    self.nodes[local] = spare;
                    fault.counters.restarts += 1;
                }
                fault.inboxes[local].clear();
                self.polls += 1;
                self.nodes[local].init(ctx, &mut outbox);
            } else {
                let fault = self.fault.as_mut().expect("fault mode is on");
                let mut incoming = std::mem::take(&mut fault.inboxes[local]);
                self.polls += 1;
                self.nodes[local].on_round(ctx, round, &incoming, &mut outbox);
                incoming.clear();
                self.fault.as_mut().expect("fault mode is on").inboxes[local] = incoming;
            }
            for out in outbox.drain(..) {
                if let Err(err) = self.post_faulty(config, topo, map, fs, ctx, out, round) {
                    self.error = Some(err);
                    break 'nodes;
                }
            }
            if !self.nodes[local].is_done() {
                match fs.wake_round(idx, self.nodes[local].next_wake(round), round) {
                    due if due > round + 1 => self.wakes.push(due, idx as u32),
                    _ => self.queue_local(idx),
                }
            }
        }
        self.worklist_cur = worklist;
        self.outbox = outbox;
    }

    /// The worker loop: execute phases until the coordinator says stop.
    fn work(
        &mut self,
        config: &SimConfig,
        topo: &Topology,
        map: &ShardMap,
        fs: Option<&FaultState>,
        contexts: &[NodeContext<'_>],
        shared: &Shared<P::Message>,
    ) {
        loop {
            self.wait_at_barrier(shared);
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let phase = shared.phase.load(Ordering::SeqCst);
            if self.error.is_none() && self.panic.is_none() {
                // Protocol code may panic (e.g. a protocol's own invariant
                // assertions). Catch it so this worker keeps meeting the
                // barriers; the coordinator stops the fleet and the payload
                // is re-raised on the caller's thread, matching the serial
                // engine's behavior. AssertUnwindSafe is sound because the
                // whole run is abandoned: no state of this shard is
                // observed afterwards.
                let work = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    match (fs, phase) {
                        (None, 0) => self.run_init(config, topo, map, contexts),
                        (None, _) => self.run_round(phase, config, topo, map, contexts, shared),
                        (Some(fs), 0) => self.run_init_faulty(config, topo, map, fs, contexts),
                        (Some(fs), _) => {
                            self.run_round_faulty(phase, config, topo, map, fs, contexts, shared)
                        }
                    }
                    self.flush_staging(phase, shared);
                }));
                if let Err(payload) = work {
                    self.panic = Some(payload);
                }
            }
            shared.active[self.id].store(
                !self.worklist_next.is_empty()
                    || !self.wakes.is_empty()
                    || self.fault.as_ref().is_some_and(|f| !f.heap.is_empty()),
                Ordering::SeqCst,
            );
            shared.delivered[self.id].store(self.last_delivered, Ordering::SeqCst);
            shared.bits[self.id].store(self.last_bits, Ordering::SeqCst);
            if self.error.is_some() || self.panic.is_some() {
                shared.any_error.store(true, Ordering::SeqCst);
            }
            self.wait_at_barrier(shared);
        }
    }

    /// One barrier rendezvous, timed into the shard-local accumulator when
    /// probes are on (the only clock reads probes add to a worker, and
    /// only in recording runs).
    fn wait_at_barrier(&mut self, shared: &Shared<P::Message>) {
        if self.probe_on {
            let start = std::time::Instant::now();
            shared.barrier.wait();
            self.barrier_nanos += start.elapsed().as_nanos() as u64;
        } else {
            shared.barrier.wait();
        }
    }
}

fn run_sharded<P, F>(
    graph: &Graph,
    config: &SimConfig,
    obs: &Obs,
    mut factory: F,
    shard_count: usize,
) -> crate::Result<SimOutcome<P>>
where
    P: NodeProtocol + Send,
    P::Message: Send,
    F: FnMut(&NodeContext) -> P,
{
    let topo = Topology::new(graph);
    let map = ShardMap::by_volume(graph, shard_count);
    let shard_count = map.shard_count();
    let contexts = build_contexts(graph);
    // Factory calls happen on this thread, in node order — the same
    // sequence the serial engine produces, so stateful factories (counters,
    // RNG streams) observe identical call histories.
    let mut all_nodes: Vec<P> = contexts.iter().map(&mut factory).collect();
    let fault_state = config
        .active_fault()
        .map(|plan| FaultState::new(&plan, graph));
    // Spare states for restartable crash nodes, created in ascending node
    // order after the main factory pass — the exact call sequence the
    // serial engine makes, so stateful factories agree with it.
    let mut spare_pool: Vec<(u32, Option<P>)> = match &fault_state {
        Some(fs) if fs.restart_local_round().is_some() => fs
            .crash_nodes()
            .iter()
            .map(|&v| (v, Some(factory(&contexts[v as usize]))))
            .collect(),
        _ => Vec::new(),
    };

    let mut shards: Vec<Shard<P>> = Vec::with_capacity(shard_count);
    for s in (0..shard_count).rev() {
        let range = map.range(s);
        let nodes: Vec<P> = all_nodes.split_off(range.start);
        let fault = fault_state.as_ref().map(|_| {
            let split = spare_pool.partition_point(|(v, _)| (*v as usize) < range.start);
            ShardFault {
                heap: BinaryHeap::new(),
                inboxes: (0..range.len()).map(|_| Vec::new()).collect(),
                spares: spare_pool.split_off(split),
                counters: FaultCounters::default(),
            }
        });
        let slot_lo = topo.offset[range.start] as usize;
        let slot_hi = topo.offset[range.end] as usize;
        let slots = slot_hi - slot_lo;
        shards.push(Shard {
            id: s,
            node_lo: range.start,
            slot_lo,
            nodes,
            cur: (0..slots).map(|_| None).collect(),
            next: (0..slots).map(|_| None).collect(),
            stamp: vec![u64::MAX; slots],
            inbox_cur: vec![0; range.len()],
            inbox_next: vec![0; range.len()],
            queued: vec![false; range.len()],
            worklist_cur: Vec::new(),
            worklist_next: Vec::new(),
            wakes: Calendar::new(),
            staging: (0..shard_count).map(|_| Vec::new()).collect(),
            inbound: Vec::new(),
            in_flight_next: 0,
            bits_next: 0,
            last_delivered: 0,
            last_bits: 0,
            stats: SimStats::default(),
            polls: 0,
            probe_on: obs.is_on(),
            barrier_nanos: 0,
            flush_sizes: obs.is_on().then(LatencyHistogram::new),
            error: None,
            panic: None,
            scratch: Vec::new(),
            outbox: Vec::new(),
            fault,
        });
    }
    shards.reverse();

    let shared: Shared<P::Message> = Shared {
        barrier: Barrier::new(shard_count + 1),
        phase: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        any_error: AtomicBool::new(false),
        active: (0..shard_count).map(|_| AtomicBool::new(false)).collect(),
        delivered: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
        bits: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
        inboxes: [
            (0..shard_count).map(|_| Mutex::new(Vec::new())).collect(),
            (0..shard_count).map(|_| Mutex::new(Vec::new())).collect(),
        ],
    };

    let mut rounds_executed: u64 = 0;
    let mut trace: Vec<RoundTrace> = Vec::new();
    let mut limit_error: Option<SimError> = None;

    std::thread::scope(|scope| {
        for shard in shards.iter_mut() {
            let contexts = &contexts;
            let topo = &topo;
            let map = &map;
            let shared = &shared;
            let fs = fault_state.as_ref();
            scope.spawn(move || shard.work(config, topo, map, fs, contexts, shared));
        }

        // The coordinator: decide between the end barrier of one phase and
        // the start barrier of the next (workers are parked on the start
        // barrier while this code runs).
        loop {
            shared.barrier.wait(); // workers begin the current phase
            shared.barrier.wait(); // workers finished it
            let phase = shared.phase.load(Ordering::SeqCst);
            if phase > 0 {
                rounds_executed = phase;
                if config.trace {
                    let messages: u64 = shared
                        .delivered
                        .iter()
                        .map(|d| d.load(Ordering::SeqCst))
                        .sum();
                    let bits: u64 = shared.bits.iter().map(|b| b.load(Ordering::SeqCst)).sum();
                    trace.push(RoundTrace {
                        round: phase,
                        messages,
                        bits,
                    });
                }
            }
            if shared.any_error.load(Ordering::SeqCst) {
                shared.stop.store(true, Ordering::SeqCst);
            } else {
                let queued_work = shared.active.iter().any(|a| a.load(Ordering::SeqCst))
                    || shared.inboxes.iter().flatten().any(|m| {
                        !m.lock()
                            .expect("no worker panics while holding an inbox lock")
                            .is_empty()
                    });
                if !queued_work {
                    shared.stop.store(true, Ordering::SeqCst);
                } else if phase >= config.max_rounds {
                    limit_error = Some(SimError::RoundLimitExceeded {
                        limit: config.max_rounds,
                    });
                    shared.stop.store(true, Ordering::SeqCst);
                } else {
                    shared.phase.store(phase + 1, Ordering::SeqCst);
                }
            }
            if shared.stop.load(Ordering::SeqCst) {
                shared.barrier.wait(); // release workers into the stop check
                break;
            }
        }
    });

    // Shards are ordered by ascending node range, and the coordinator stops
    // at the end of the earliest failing phase, so the first failure found
    // here is the one the serial engine would have hit first. A caught
    // protocol panic is re-raised on this thread, exactly as the serial
    // engine would have let it propagate.
    for shard in &mut shards {
        if let Some(payload) = shard.panic.take() {
            std::panic::resume_unwind(payload);
        }
        if let Some(err) = shard.error.clone() {
            return Err(err);
        }
    }
    if let Some(err) = limit_error {
        return Err(err);
    }

    let mut stats = SimStats {
        rounds: rounds_executed,
        ..SimStats::default()
    };
    let mut nodes: Vec<P> = Vec::with_capacity(graph.node_count());
    // Per-thread probe buffers are merged here, after the scope ended, in
    // ascending shard order — the deterministic phase-boundary merge the
    // obs layer's contract asks for. Counters fold to the same totals as
    // the serial engine; per-shard splits and barrier timings go to
    // gauges/timers because they depend on the shard count.
    let probe_on = obs.is_on();
    let mut polls_total: u64 = 0;
    let mut staged_total: u64 = 0;
    let mut fault_counters = FaultCounters::default();
    let mut barrier_spans = SpanBuffer::new();
    for shard in shards {
        stats.messages += shard.stats.messages;
        stats.total_bits += shard.stats.total_bits;
        stats.max_message_bits = stats.max_message_bits.max(shard.stats.max_message_bits);
        if probe_on {
            polls_total += shard.polls;
            obs.gauge_set(
                &format!("engine/shard/{}/messages", shard.id),
                shard.stats.messages,
            );
            obs.gauge_set(
                &format!("engine/shard/{}/bits", shard.id),
                shard.stats.total_bits,
            );
            obs.gauge_set(&format!("engine/shard/{}/polls", shard.id), shard.polls);
            barrier_spans.record("engine/barrier_wait", shard.barrier_nanos);
            if let Some(sizes) = &shard.flush_sizes {
                staged_total += sizes.sum() as u64;
                obs.timer_merge("engine/staging_flush_size", sizes);
            }
            if let Some(f) = &shard.fault {
                fault_counters.absorb(&f.counters);
            }
        }
        nodes.extend(shard.nodes);
    }
    if probe_on {
        obs.merge_spans(&mut barrier_spans);
        record_run(obs, &stats, polls_total);
        if fault_state.is_some() {
            fault_counters.record(obs);
        }
        obs.gauge_set("engine/shards", shard_count as u64);
        obs.gauge_set("engine/staged_messages", staged_total);
    }

    Ok(SimOutcome {
        nodes,
        stats,
        trace,
    })
}
