//! The round loop: `S` contiguous node shards in barrier lockstep, shard 0
//! on the calling thread and shards `1..S` on `std::thread::scope` workers.
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
//! `next_wake` entries, the reused outbox its protocols send into, and —
//! under a fault plan — its delivery heap and per-node round inboxes.
//!
//! At `S = 1` the loop runs inline on the caller: no thread is spawned, no
//! mail is staged and no barrier is met.
//!
//! # Cross-shard staging
//!
//! A post whose recipient lives in another shard is appended to a per-
//! destination staging buffer instead of written to the mailbox or the
//! delivery heap. At the end of each phase every shard flushes its staging
//! buffers into the destinations' mutex-guarded inbound queues; at the
//! start of the next phase each shard swaps its own queue out against an
//! empty buffer it keeps for the purpose (so no round allocates a fresh
//! queue) and drains it into its `next` mailbox — or, under faults, its
//! delivery heap (a staged copy is due no earlier than the next round, so
//! it never arrives late). Every slot is written at most once per round
//! (the sender-side stamp guarantees it), worklists are sorted before
//! polling, and the heap pops in `(due, slot, posted)` order, so the drain
//! order — the only thing scheduling can vary — is unobservable.
//!
//! # Lockstep without a coordinator
//!
//! Phase 0 is `init`, phase `r ≥ 1` is round `r`. After its work in a
//! phase a shard publishes a [`Status`] into a slot double-buffered by
//! phase parity, then meets the other shards at one barrier. Every shard
//! reads all statuses and takes the same decision: stop on a failure, stop
//! at quiescence, fail at the round cap, or run the next phase. Shard 0
//! also appends the round's trace entry. A failure is reported from the
//! lowest shard of the earliest failing phase — shards being ascending
//! node ranges, exactly the node a single shard fails on first — and a
//! caught protocol panic is re-raised on the caller.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Barrier, Mutex};

use lcs_graph::{Graph, ShardMap};
use lcs_obs::{LatencyHistogram, Obs, SpanBuffer};

use crate::fault::{Delayed, FaultCounters, FaultState};
use crate::{
    Incoming, MessageBits, NodeContext, NodeProtocol, Outgoing, RoundTrace, SimConfig, SimError,
    SimOutcome, SimStats,
};

use super::{build_contexts, record_run, Calendar, Topology};

/// One shard's report at the end of a phase. Every store happens before
/// the phase's barrier and every load after it, and `Barrier::wait`
/// synchronizes (a mutex and a condvar), so `Relaxed` accesses suffice; at
/// S = 1 the one shard reads its own stores.
#[derive(Default)]
struct Status {
    /// Pending work: a queued node, a timer, an undelivered heap copy, or
    /// mail staged for another shard.
    busy: AtomicBool,
    /// Messages and bits the shard delivered in the phase's round.
    delivered: AtomicU64,
    bits: AtomicU64,
    /// The shard recorded an error or caught a panic.
    failed: AtomicBool,
}

/// How the lockstep loop stopped; every shard reaches the same verdict.
enum Stop {
    /// No work is pending anywhere after this many rounds.
    Quiescent(u64),
    /// Work was still pending at the round cap.
    RoundLimit,
    /// Some shard recorded an error or caught a panic.
    Failed,
}

/// What every shard of one run reads: the read-only message-plane
/// topology, shard layout, contexts and fault schedule, plus the
/// cross-shard exchange.
struct Plane<'a, M> {
    config: &'a SimConfig,
    topo: Topology,
    map: ShardMap,
    contexts: Vec<NodeContext<'a>>,
    /// The run's fault schedule; `None` exactly when no plan is active.
    fault: Option<FaultState>,
    barrier: Barrier,
    /// Per-shard statuses, double-buffered by phase parity: a fast shard
    /// publishing phase `p + 1` cannot overwrite a status of phase `p`
    /// that a slower shard is still reading.
    status: [Vec<Status>; 2],
    /// Per-shard inbound queues, double-buffered by phase parity: mail
    /// staged during phase `p` goes to parity `(p + 1) % 2` while phase
    /// `p` drains parity `p % 2`, so a fast shard's round-`p` sends cannot
    /// leak into a slower shard's round-`p` deliveries.
    inboxes: [Vec<Mutex<Vec<Delayed<M>>>>; 2],
}

/// One shard's private slice of the run.
struct Shard<P: NodeProtocol> {
    id: usize,
    /// First node id (the shard owns `node_lo..node_lo + nodes.len()`).
    node_lo: usize,
    /// First CSR slot (the shard owns `slot_lo..slot_lo + cur.len()`).
    slot_lo: usize,
    nodes: Vec<P>,
    /// Messages being delivered this round, one slot per directed edge.
    cur: Vec<Option<P::Message>>,
    /// Messages accumulating for the next round.
    next: Vec<Option<P::Message>>,
    /// Round of the last post per *sender-side* CSR position (`u64::MAX` =
    /// never); posting twice in one round is the duplicate-send error.
    stamp: Vec<u64>,
    /// Pending mailbox messages per local recipient, current/next round.
    inbox_cur: Vec<u32>,
    inbox_next: Vec<u32>,
    /// Whether a local node is already on `worklist_next`.
    queued: Vec<bool>,
    /// Nodes to poll this round (sorted before polling).
    worklist_cur: Vec<u32>,
    /// Nodes to poll next round: mail recipients plus nodes that reported
    /// pending work after their last poll.
    worklist_next: Vec<u32>,
    wakes: Calendar,
    /// Outbound staging, one buffer per destination shard.
    staging: Vec<Vec<Delayed<P::Message>>>,
    /// An empty buffer (capacity kept) traded for the inbound queue at
    /// every merge.
    inbound: Vec<Delayed<P::Message>>,
    /// Messages / bits delivered next round and in the last round (the
    /// trace contribution), under faults as under none.
    in_flight_next: u64,
    bits_next: u64,
    last_delivered: u64,
    last_bits: u64,
    stats: SimStats,
    /// Active-node polls, folded into the obs counters in shard order.
    polls: u64,
    /// Probe state, only at `S ≥ 2` with recording on (otherwise the loop
    /// takes no clock reads and allocates no histogram): barrier-wait
    /// nanoseconds and the size of every cross-shard staging flush.
    barrier_nanos: Option<u64>,
    flush_sizes: Option<LatencyHistogram>,
    error: Option<SimError>,
    /// A panic payload caught from protocol code (re-raised on the caller
    /// after every shard stopped — `Barrier` has no poisoning, so a shard
    /// unwinding past the barrier would deadlock the rest).
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// The incoming list handed to the node being polled.
    scratch: Vec<Incoming<P::Message>>,
    /// The protocol outbox, reused for every poll of this shard.
    outbox: Vec<Outgoing<P::Message>>,
    /// The fault stage (all empty without a plan): the delivery queue of
    /// local recipients in `(due, slot, posted)` order, the per-node round
    /// inboxes it feeds, fresh states for this shard's restartable crash
    /// nodes, and the shard's fault-event tallies.
    heap: BinaryHeap<Reverse<Delayed<P::Message>>>,
    inboxes: Vec<Vec<Incoming<P::Message>>>,
    spares: Vec<(u32, Option<P>)>,
    faults: FaultCounters,
}

impl<P: NodeProtocol> Shard<P> {
    fn new(
        id: usize,
        range: Range<usize>,
        nodes: Vec<P>,
        spares: Vec<(u32, Option<P>)>,
        plane: &Plane<'_, P::Message>,
        obs: &Obs,
    ) -> Self {
        let slot_lo = plane.topo.offset[range.start] as usize;
        let slots = plane.topo.offset[range.end] as usize - slot_lo;
        let probes = obs.is_on() && plane.map.shard_count() > 1;
        let fault_nodes = if plane.fault.is_some() {
            range.len()
        } else {
            0
        };
        Shard {
            id,
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
            staging: (0..plane.map.shard_count()).map(|_| Vec::new()).collect(),
            inbound: Vec::new(),
            in_flight_next: 0,
            bits_next: 0,
            last_delivered: 0,
            last_bits: 0,
            stats: SimStats::default(),
            polls: 0,
            barrier_nanos: probes.then_some(0),
            flush_sizes: probes.then(LatencyHistogram::new),
            error: None,
            panic: None,
            scratch: Vec::new(),
            outbox: Vec::new(),
            heap: BinaryHeap::new(),
            inboxes: (0..fault_nodes).map(|_| Vec::new()).collect(),
            spares,
            faults: FaultCounters::default(),
        }
    }

    /// Schedules `node` for the next round (idempotent).
    fn queue(&mut self, node: usize) {
        let local = node - self.node_lo;
        if !self.queued[local] {
            self.queued[local] = true;
            self.worklist_next.push(node as u32);
        }
    }

    /// Stores a message for a local node in the next-round mailbox (forced
    /// inline: it runs once per message).
    #[inline(always)]
    fn mail(&mut self, slot: u32, to: usize, bits: u64, msg: P::Message) {
        self.next[slot as usize - self.slot_lo] = Some(msg);
        self.inbox_next[to - self.node_lo] += 1;
        self.in_flight_next += 1;
        self.bits_next += bits;
        self.queue(to);
    }

    /// Files a fault-mode copy: into this shard's delivery heap for a local
    /// recipient, into the recipient shard's staging buffer otherwise.
    fn route(&mut self, dst: usize, copy: Delayed<P::Message>) {
        if dst == self.id {
            self.heap.push(Reverse(copy));
        } else {
            self.staging[dst].push(copy);
        }
    }

    /// Validates and counts one outgoing message, then routes it: to the
    /// local mailbox, to another shard's staging buffer, or through the
    /// fault stage ([`Shard::inject`]). Forced inline (it runs once per
    /// message), with the fault stage kept out of line.
    #[inline(always)]
    fn post(
        &mut self,
        plane: &Plane<'_, P::Message>,
        ctx: &NodeContext<'_>,
        out: Outgoing<P::Message>,
        round: u64,
    ) -> crate::Result<()> {
        let pos = ctx.position_of(out.to).ok_or(SimError::NotANeighbor {
            from: ctx.node,
            to: out.to,
        })?;
        let gpos = plane.topo.offset[ctx.node.index()] as usize + pos;
        let stamp = &mut self.stamp[gpos - self.slot_lo];
        // Posting rounds strictly increase, so an equal stamp can only mean
        // "already sent this round".
        if *stamp == round {
            return Err(SimError::DuplicateSend {
                from: ctx.node,
                to: out.to,
                round,
            });
        }
        *stamp = round;
        let bits = out.msg.size_bits();
        if bits > plane.config.bandwidth_bits {
            return Err(SimError::BandwidthExceeded {
                from: ctx.node,
                to: out.to,
                message_bits: bits,
                bandwidth_bits: plane.config.bandwidth_bits,
            });
        }
        // Under faults `stats.messages` counts *sends*; deliveries (which
        // loss shrinks and duplication grows) are what the trace counts.
        self.stats.messages += 1;
        self.stats.total_bits += bits as u64;
        self.stats.max_message_bits = self.stats.max_message_bits.max(bits);
        let to = out.to.index();
        let slot = plane.topo.mirror[gpos];
        // Shards are contiguous node ranges, so a local recipient needs no
        // `shard_of` lookup (a random access on large graphs).
        let local = (self.node_lo..self.node_lo + self.nodes.len()).contains(&to);
        if local && plane.fault.is_none() {
            self.mail(slot, to, bits as u64, out.msg);
            return Ok(());
        }
        let dst = if local {
            self.id
        } else {
            plane.map.shard_of(out.to)
        };
        let copy = Delayed {
            due: round + 1,
            slot,
            posted: round,
            to: to as u32,
            // Kept at full width: truncating would let a pathological
            // bandwidth configuration desynchronize the trace's bit counts
            // across shard counts.
            bits: bits as u64,
            msg: out.msg,
        };
        match &plane.fault {
            None => self.staging[dst].push(copy),
            Some(fs) => self.inject(fs, ctx.incident_edge_ids()[pos].index(), dst, copy),
        }
        Ok(())
    }

    /// The fault stage of a post over `edge`: a loss draw, the edge's fixed
    /// delay aligned to the recipient's poll rounds, and an optional
    /// duplicate one poll later. Every draw is keyed by the recipient-side
    /// slot and the round, never by which shard executes it.
    #[inline(never)]
    fn inject(&mut self, fs: &FaultState, edge: usize, dst: usize, mut copy: Delayed<P::Message>) {
        let (slot, round, to) = (u64::from(copy.slot), copy.posted, copy.to as usize);
        if fs.lose(slot, round) {
            self.faults.drops += 1;
            return;
        }
        let delay = fs.delay_of(edge);
        if delay > 0 {
            self.faults.delays += 1;
        }
        copy.due = fs.next_poll(to, copy.due + delay);
        if fs.duplicate(slot, round) {
            self.faults.dups += 1;
            let dup = Delayed {
                due: fs.next_poll(to, copy.due + 1),
                msg: copy.msg.clone(),
                ..copy
            };
            self.route(dst, dup);
        }
        self.route(dst, copy);
    }

    /// Posts everything in `outbox`; records the first error and reports
    /// whether the shard may go on. Forced inline, like [`Shard::schedule`]:
    /// both run once per poll, and a call each costs the S = 1 loop a few
    /// percent.
    #[inline(always)]
    fn send(
        &mut self,
        plane: &Plane<'_, P::Message>,
        ctx: &NodeContext<'_>,
        outbox: &mut Vec<Outgoing<P::Message>>,
        round: u64,
    ) -> bool {
        if outbox.is_empty() {
            return true;
        }
        for out in outbox.drain(..) {
            if let Err(err) = self.post(plane, ctx, out, round) {
                self.error = Some(err);
                return false;
            }
        }
        true
    }

    /// Schedules local node `local` after its `init` or poll at `round`,
    /// unless it is done: a timer for a wake past the next round, the
    /// worklist otherwise. Under faults the wake aligns to the node's poll
    /// rounds.
    #[inline(always)]
    fn schedule(&mut self, local: usize, round: u64, fault: Option<&FaultState>) {
        let node = &self.nodes[local];
        if node.is_done() {
            return;
        }
        let idx = self.node_lo + local;
        let wake = node.next_wake(round);
        let due = match fault {
            Some(fs) => fs.wake_round(idx, wake, round),
            None => wake.map_or(round + 1, |r| r.max(round + 1)),
        };
        if due > round + 1 {
            self.wakes.push(due, idx as u32);
        } else {
            self.queue(idx);
        }
    }

    /// Drains the mail other shards staged for this one in the previous
    /// phase: into the next-round mailbox, or under faults into the
    /// delivery heap.
    fn merge_inbound(&mut self, phase: u64, plane: &Plane<'_, P::Message>) {
        let mut staged = std::mem::take(&mut self.inbound);
        std::mem::swap(
            &mut *plane.inboxes[(phase % 2) as usize][self.id]
                .lock()
                .expect("no shard panics while holding an inbox lock"),
            &mut staged,
        );
        for copy in staged.drain(..) {
            if plane.fault.is_some() {
                self.heap.push(Reverse(copy));
            } else {
                self.mail(copy.slot, copy.to as usize, copy.bits, copy.msg);
            }
        }
        self.inbound = staged;
    }

    /// Flushes the staging buffers into the destinations' inbound queues
    /// for the next phase; returns whether anything was staged.
    fn flush_staging(&mut self, phase: u64, plane: &Plane<'_, P::Message>) -> bool {
        let mut staged = false;
        for (dst, buf) in self.staging.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            staged = true;
            if let Some(sizes) = self.flush_sizes.as_mut() {
                sizes.record(buf.len() as u64);
            }
            plane.inboxes[((phase + 1) % 2) as usize][dst]
                .lock()
                .expect("no shard panics while holding an inbox lock")
                .append(buf);
        }
        staged
    }

    /// The fault stage of a round: moves every heap copy due now into its
    /// recipient's round inbox, dropping mail addressed to a crashed node.
    fn deliver_due(&mut self, round: u64, fs: &FaultState, plane: &Plane<'_, P::Message>) {
        self.faults.queue_peak = self.faults.queue_peak.max(self.heap.len() as u64);
        while self.heap.peek().is_some_and(|Reverse(d)| d.due <= round) {
            let Reverse(d) = self.heap.pop().expect("peeked entry exists");
            debug_assert_eq!(d.due, round, "delivery rounds are never skipped");
            let to = d.to as usize;
            if fs.crashed_at(to, round) {
                self.faults.crash_drops += 1;
                continue;
            }
            self.in_flight_next += 1;
            self.bits_next += d.bits;
            let k = d.slot as usize - plane.topo.offset[to] as usize;
            let ctx = &plane.contexts[to];
            self.inboxes[to - self.node_lo].push(Incoming {
                from: ctx.neighbor_ids()[k],
                edge: ctx.incident_edge_ids()[k],
                msg: d.msg,
            });
            self.queue(to);
        }
    }

    /// Flips the next-round buffers in as the current round. The new
    /// worklist is sorted for deterministic polling order and its nodes'
    /// `queued` flags are cleared so they can be re-scheduled.
    fn begin_round(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
        std::mem::swap(&mut self.inbox_cur, &mut self.inbox_next);
        std::mem::swap(&mut self.worklist_cur, &mut self.worklist_next);
        self.worklist_next.clear();
        for &v in &self.worklist_cur {
            self.queued[v as usize - self.node_lo] = false;
        }
        self.worklist_cur.sort_unstable();
        self.last_delivered = std::mem::take(&mut self.in_flight_next);
        self.last_bits = std::mem::take(&mut self.bits_next);
    }

    /// Moves node `idx`'s mail for this round into `scratch`: its round
    /// inbox under faults, its mailbox slots otherwise.
    fn drain_into(&mut self, idx: usize, topo: &Topology, ctx: &NodeContext<'_>, faulty: bool) {
        self.scratch.clear();
        let local = idx - self.node_lo;
        if faulty {
            std::mem::swap(&mut self.scratch, &mut self.inboxes[local]);
            return;
        }
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

    /// Phase 0: `init` every node of the shard in node order (crashed
    /// nodes excepted) and arm the restart timers of its crash nodes.
    fn init(&mut self, plane: &Plane<'_, P::Message>, outbox: &mut Vec<Outgoing<P::Message>>) {
        let fault = plane.fault.as_ref();
        for local in 0..self.nodes.len() {
            let idx = self.node_lo + local;
            if fault.is_some_and(|fs| fs.crashed_at(idx, 0)) {
                continue;
            }
            let ctx = &plane.contexts[idx];
            self.nodes[local].init(ctx, outbox);
            if !self.send(plane, ctx, outbox, 0) {
                return;
            }
            self.schedule(local, 0, fault);
        }
        if let Some(r) = fault.and_then(FaultState::restart_local_round) {
            for &(v, _) in &self.spares {
                self.wakes.push(r, v);
            }
        }
    }

    /// Phase `round ≥ 1`: merge inbound mail, fire due timers, deliver due
    /// heap copies, flip buffers, then poll the worklist — skipping crashed
    /// nodes and re-initializing restarting ones.
    fn round(
        &mut self,
        round: u64,
        plane: &Plane<'_, P::Message>,
        outbox: &mut Vec<Outgoing<P::Message>>,
    ) {
        let fault = plane.fault.as_ref();
        if plane.map.shard_count() > 1 {
            self.merge_inbound(round, plane);
        }
        let node_lo = self.node_lo;
        let (queued, worklist) = (&mut self.queued, &mut self.worklist_next);
        self.wakes.fire(round, |node| {
            if !queued[node - node_lo] {
                queued[node - node_lo] = true;
                worklist.push(node as u32);
            }
        });
        if let Some(fs) = fault {
            self.deliver_due(round, fs, plane);
        }
        self.begin_round();
        let restart = fault.and_then(FaultState::restart_local_round);
        let worklist = std::mem::take(&mut self.worklist_cur);
        for &vi in &worklist {
            let idx = vi as usize;
            let local = idx - self.node_lo;
            let ctx = &plane.contexts[idx];
            match fault {
                Some(fs) if fs.crashed_at(idx, round) => {
                    self.inboxes[local].clear();
                    continue;
                }
                Some(fs) if restart == Some(round) && fs.is_crash_node(idx) => {
                    // Restart: swap in the cleared state and run its `init`
                    // at this round; whatever mail arrived alongside is
                    // lost with the old state.
                    if let Some(spare) = self
                        .spares
                        .iter_mut()
                        .find(|(v, _)| *v as usize == idx)
                        .and_then(|(_, s)| s.take())
                    {
                        self.nodes[local] = spare;
                        self.faults.restarts += 1;
                    }
                    self.inboxes[local].clear();
                    self.nodes[local].init(ctx, outbox);
                }
                _ => {
                    self.drain_into(idx, &plane.topo, ctx, fault.is_some());
                    self.nodes[local].on_round(ctx, round, &self.scratch, outbox);
                }
            }
            self.polls += 1;
            if !self.send(plane, ctx, outbox, round) {
                break;
            }
            self.schedule(local, round, fault);
        }
        self.worklist_cur = worklist;
    }

    /// Runs phases in lockstep with the other shards until every shard
    /// takes the same stop decision. `trace` is shard 0's, when tracing.
    fn work(
        &mut self,
        plane: &Plane<'_, P::Message>,
        mut trace: Option<&mut Vec<RoundTrace>>,
    ) -> Stop {
        let mut phase: u64 = 0;
        loop {
            // Protocol code may panic (a protocol's own invariant
            // assertions). Catch it so this shard still meets the barrier;
            // the payload is re-raised on the caller. AssertUnwindSafe is
            // sound because a failed run is abandoned: no state of this
            // shard is observed afterwards.
            let work = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut outbox = std::mem::take(&mut self.outbox);
                if phase == 0 {
                    self.init(plane, &mut outbox);
                } else {
                    self.round(phase, plane, &mut outbox);
                }
                self.outbox = outbox;
                self.flush_staging(phase, plane)
            }));
            let staged = work.unwrap_or_else(|payload| {
                self.panic = Some(payload);
                false
            });
            let statuses = &plane.status[(phase % 2) as usize];
            let status = &statuses[self.id];
            status.busy.store(
                staged
                    || !self.worklist_next.is_empty()
                    || !self.wakes.is_empty()
                    || !self.heap.is_empty(),
                Relaxed,
            );
            status.delivered.store(self.last_delivered, Relaxed);
            status.bits.store(self.last_bits, Relaxed);
            status
                .failed
                .store(self.error.is_some() || self.panic.is_some(), Relaxed);
            if plane.map.shard_count() > 1 {
                self.wait_at_barrier(&plane.barrier);
            }

            if let Some(trace) = trace.as_deref_mut().filter(|_| phase > 0) {
                trace.push(RoundTrace {
                    round: phase,
                    messages: statuses.iter().map(|s| s.delivered.load(Relaxed)).sum(),
                    bits: statuses.iter().map(|s| s.bits.load(Relaxed)).sum(),
                });
            }
            if statuses.iter().any(|s| s.failed.load(Relaxed)) {
                return Stop::Failed;
            }
            if !statuses.iter().any(|s| s.busy.load(Relaxed)) {
                return Stop::Quiescent(phase);
            }
            if phase >= plane.config.max_rounds {
                return Stop::RoundLimit;
            }
            phase += 1;
        }
    }

    /// One barrier rendezvous, timed into the shard-local accumulator when
    /// probes are on.
    fn wait_at_barrier(&mut self, barrier: &Barrier) {
        if let Some(nanos) = self.barrier_nanos.as_mut() {
            let start = std::time::Instant::now();
            barrier.wait();
            *nanos += start.elapsed().as_nanos() as u64;
        } else {
            barrier.wait();
        }
    }
}

/// Runs `factory`-built nodes to quiescence under `config` on
/// `config.threads` shards (capped at the node count), reporting probe
/// data through `obs` (a no-op handle when recording is off).
pub(crate) fn run<P, F>(
    graph: &Graph,
    config: &SimConfig,
    obs: &Obs,
    mut factory: F,
) -> crate::Result<SimOutcome<P>>
where
    P: NodeProtocol + Send,
    P::Message: Send,
    F: FnMut(&NodeContext) -> P,
{
    let map = ShardMap::by_volume(graph, config.threads);
    let shard_count = map.shard_count();
    let contexts = build_contexts(graph);
    // Factory calls happen on this thread: every node in node order, then
    // one spare per restartable crash node in ascending order — one call
    // history at every shard count, so stateful factories (counters, RNG
    // streams) agree.
    let mut nodes: Vec<P> = contexts.iter().map(&mut factory).collect();
    let fault = config
        .active_fault()
        .map(|plan| FaultState::new(&plan, graph));
    let mut spares: Vec<(u32, Option<P>)> = match &fault {
        Some(fs) if fs.restart_local_round().is_some() => fs
            .crash_nodes()
            .iter()
            .map(|&v| (v, Some(factory(&contexts[v as usize]))))
            .collect(),
        _ => Vec::new(),
    };
    let plane: Plane<'_, P::Message> = Plane {
        config,
        topo: Topology::new(graph),
        contexts,
        fault,
        barrier: Barrier::new(shard_count),
        status: [0, 1].map(|_| (0..shard_count).map(|_| Status::default()).collect()),
        inboxes: [0, 1].map(|_| (0..shard_count).map(|_| Mutex::default()).collect()),
        map,
    };

    let mut shards: Vec<Shard<P>> = Vec::with_capacity(shard_count);
    for s in (0..shard_count).rev() {
        let range = plane.map.range(s);
        let (own, own_spares) = if s == 0 {
            (std::mem::take(&mut nodes), std::mem::take(&mut spares))
        } else {
            let split = spares.partition_point(|(v, _)| (*v as usize) < range.start);
            (nodes.split_off(range.start), spares.split_off(split))
        };
        shards.push(Shard::new(s, range, own, own_spares, &plane, obs));
    }
    shards.reverse();

    let mut trace: Vec<RoundTrace> = Vec::new();
    let (first, rest) = shards
        .split_first_mut()
        .expect("a run has at least one shard");
    let stop = std::thread::scope(|scope| {
        for shard in rest {
            let plane = &plane;
            scope.spawn(move || shard.work(plane, None));
        }
        first.work(&plane, config.trace.then_some(&mut trace))
    });

    // Every shard stopped at the end of the earliest failing phase, and
    // shards are ascending node ranges, so the first failure in shard
    // order is the one a single shard would have hit first.
    for shard in &mut shards {
        if let Some(payload) = shard.panic.take() {
            std::panic::resume_unwind(payload);
        }
        if let Some(err) = shard.error.take() {
            return Err(err);
        }
    }
    let rounds = match stop {
        Stop::Quiescent(rounds) => rounds,
        Stop::RoundLimit => {
            return Err(SimError::RoundLimitExceeded {
                limit: config.max_rounds,
            })
        }
        Stop::Failed => unreachable!("a failed phase leaves an error or a panic in a shard"),
    };

    let mut stats = SimStats {
        rounds,
        ..SimStats::default()
    };
    let mut nodes: Vec<P> = Vec::new();
    // Per-shard probe data is merged here, after the scope ended, in
    // ascending shard order — the deterministic phase-boundary merge the
    // obs layer's contract asks for. Counters fold to totals that are the
    // same at every shard count; per-shard splits, barrier waits and
    // staging volumes go to gauges and timers because they depend on it.
    let mut polls: u64 = 0;
    let mut staged: u64 = 0;
    let mut faults = FaultCounters::default();
    let mut barrier_spans = SpanBuffer::new();
    for shard in shards {
        stats.messages += shard.stats.messages;
        stats.total_bits += shard.stats.total_bits;
        stats.max_message_bits = stats.max_message_bits.max(shard.stats.max_message_bits);
        polls += shard.polls;
        faults.absorb(&shard.faults);
        if obs.is_on() {
            let gauge = |what: &str, value: u64| {
                obs.gauge_set(&format!("engine/shard/{}/{what}", shard.id), value);
            };
            gauge("messages", shard.stats.messages);
            gauge("bits", shard.stats.total_bits);
            gauge("polls", shard.polls);
            if let Some(nanos) = shard.barrier_nanos {
                barrier_spans.record("engine/barrier_wait", nanos);
            }
            if let Some(sizes) = &shard.flush_sizes {
                staged += sizes.sum() as u64;
                obs.timer_merge("engine/staging_flush_size", sizes);
            }
        }
        // Shard 0's vector is kept, so a single shard hands its states over
        // without a copy.
        if nodes.is_empty() {
            nodes = shard.nodes;
        } else {
            nodes.extend(shard.nodes);
        }
    }
    if obs.is_on() {
        record_run(obs, &stats, polls);
        if plane.fault.is_some() {
            faults.record(obs);
        }
        obs.gauge_set("engine/shards", shard_count as u64);
        if shard_count > 1 {
            obs.merge_spans(&mut barrier_spans);
            obs.gauge_set("engine/staged_messages", staged);
        }
    }
    Ok(SimOutcome {
        nodes,
        stats,
        trace,
    })
}
