//! The round loop: `S` contiguous node shards in barrier lockstep, shard 0
//! on the calling thread and shards `1..S` on `std::thread::scope` workers.
//!
//! # Shard layout
//!
//! Shard boundaries come from [`lcs_graph::ShardMap::by_volume`], so every
//! shard owns a contiguous node range *and therefore* a contiguous range of
//! the graph's CSR slots (its slot offsets are monotone in node id). Each
//! shard privately owns, for its range: the protocol states, the current
//! and next round's mail (one entry buffer each, threaded into one list per
//! local recipient), the [`NodeSet`] of nodes queued for the next round and
//! the worklist it is emitted into, its duplicate-send stamps (sender-slot
//! indexed — a directed edge has exactly one sender, so stamps never leave
//! the sender's shard), a [`Wheel`] of `next_wake` entries, the reused
//! outbox its protocols send into, and — under a fault plan — a second
//! [`Wheel`] of copies for local recipients not yet due. Faulty mail joins
//! the same mail lists in the round it falls due.
//!
//! At `S = 1` the loop runs inline on the caller: no thread is spawned, no
//! mail is staged and no barrier is met.
//!
//! # Cross-shard exchange
//!
//! A post whose recipient lives in another shard is staged in an exchange
//! buffer: the plane keeps one per (sender, recipient shard) pair and phase
//! parity. The sender takes its buffer for the phase's parity out of the
//! plane at its first post to that shard in the phase and hands it back at
//! the phase's end. After the barrier, at the start of the next round, each
//! shard drains the buffers addressed to it in place: into its recipients'
//! next-round mail lists or, under faults, onto its copy wheel (a
//! staged copy is due no earlier than that round, so it never arrives
//! late). Every buffer keeps its capacity. Every slot is written at most
//! once per round (the sender-side stamp guarantees it), a slot's copies
//! reach the wheel and the lists in posting order, a recipient's list is
//! handed over in slot order, and worklists come out of the queued set in
//! ascending node order, so the drain order — the only thing scheduling
//! can vary — is unobservable.
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

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Barrier, Mutex, MutexGuard};

use lcs_graph::{Graph, NodeId, ShardMap};
use lcs_obs::{LatencyHistogram, Obs, SpanBuffer};

use crate::fault::{FaultCounters, FaultState};
use crate::{
    Incoming, MessageBits, NodeContext, NodeProtocol, Outgoing, RoundTrace, SimConfig, SimError,
    SimOutcome, SimStats,
};

use super::{record_run, NodeSet, Wheel};

/// The end of a mail list.
const NIL: u32 = u32::MAX;

/// One delivered message of a round: the recipient-side slot it arrived
/// on, the next entry of the same recipient's list, and the payload (taken
/// when the recipient is polled).
struct Mail<M> {
    slot: u32,
    link: u32,
    msg: Option<M>,
}

/// One round's mail of a shard: its messages in arrival order, each local
/// recipient's entries threaded into one list, and the round's message and
/// bit totals (its trace contribution). The entry buffer keeps its
/// capacity, so it grows to the busiest round's traffic and no later round
/// allocates.
struct Mailbox<M> {
    entries: Vec<Mail<M>>,
    /// First entry per local recipient (`NIL` = none). Polling a recipient
    /// empties its list.
    head: Vec<u32>,
    messages: u64,
    bits: u64,
}

impl<M> Mailbox<M> {
    fn new(nodes: usize) -> Self {
        Mailbox {
            entries: Vec::new(),
            head: vec![NIL; nodes],
            messages: 0,
            bits: 0,
        }
    }

    /// Appends a message for local node `local` to its list (forced
    /// inline: it runs once per message).
    #[inline(always)]
    fn push(&mut self, slot: u32, local: usize, bits: u64, msg: M) {
        let entry = u32::try_from(self.entries.len()).expect("a round's mail fits in 32 bits");
        let link = std::mem::replace(&mut self.head[local], entry);
        self.entries.push(Mail {
            slot,
            link,
            msg: Some(msg),
        });
        self.messages += 1;
        self.bits += bits;
    }

    /// Empties a box whose lists its recipients' polls emptied.
    fn clear(&mut self) {
        self.entries.clear();
        self.messages = 0;
        self.bits = 0;
    }
}

/// A copy in flight: staged for another shard, or waiting on a shard's
/// copy wheel until local round `due`, when it joins the mail list of
/// recipient `to` on recipient-side slot `slot`.
struct Delayed<M> {
    due: u64,
    slot: u32,
    to: u32,
    bits: u64,
    msg: M,
}

/// One shard's report at the end of a phase. Every store happens before
/// the phase's barrier and every load after it, and `Barrier::wait`
/// synchronizes (a mutex and a condvar), so `Relaxed` accesses suffice; at
/// S = 1 the one shard reads its own stores.
#[derive(Default)]
struct Status {
    /// Pending work: a queued node, a wake, a copy on the copy wheel,
    /// or mail staged for another shard.
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

/// What every shard of one run reads: the graph (whose CSR slots are the
/// message plane's), shard layout and fault schedule, plus the cross-shard
/// exchange.
struct Plane<'a, M> {
    config: &'a SimConfig,
    graph: &'a Graph,
    map: ShardMap,
    /// The run's fault schedule; `None` exactly when no plan is active.
    fault: Option<FaultState>,
    barrier: Barrier,
    /// Per-shard statuses, double-buffered by phase parity: a fast shard
    /// publishing phase `p + 1` cannot overwrite a status of phase `p`
    /// that a slower shard is still reading.
    status: [Vec<Status>; 2],
    /// Cross-shard mail by phase parity: `exchange[p % 2][src * S + dst]`
    /// holds what shard `src` staged for shard `dst` in phase `p` until
    /// `dst` drains it in phase `p + 1`, so a fast shard's phase-`p + 1`
    /// sends never meet a slower shard's phase-`p` drain.
    exchange: [Vec<Mutex<Vec<Delayed<M>>>>; 2],
}

impl<'a, M> Plane<'a, M> {
    /// Node `idx`'s context: views into the graph's CSR arrays (forced
    /// inline: it runs once per poll).
    #[inline(always)]
    fn context(&self, idx: usize) -> NodeContext<'a> {
        NodeContext::of(self.graph, NodeId::new(idx))
    }

    /// The exchange buffer shard `src` fills for shard `dst` in `phase`.
    fn exchange(&self, phase: u64, src: usize, dst: usize) -> MutexGuard<'_, Vec<Delayed<M>>> {
        self.exchange[(phase % 2) as usize][src * self.map.shard_count() + dst]
            .lock()
            .expect("no shard panics while holding an exchange lock")
    }
}

/// One shard's private slice of the run.
struct Shard<P: NodeProtocol> {
    id: usize,
    /// First node id (the shard owns `node_lo..node_lo + nodes.len()`).
    node_lo: usize,
    /// First CSR slot (the shard owns `slot_lo..slot_lo + stamp.len()`).
    slot_lo: usize,
    nodes: Vec<P>,
    /// The mail delivered this round (under faults as under none) and the
    /// mail accumulating for the next.
    cur: Mailbox<P::Message>,
    next: Mailbox<P::Message>,
    /// Round of the last post per *sender-side* CSR slot (`u64::MAX` =
    /// never); posting twice in one round is the duplicate-send error.
    stamp: Vec<u64>,
    /// Nodes to poll next round (local indices): mail recipients plus nodes
    /// that reported pending work after their last poll.
    queued: NodeSet,
    /// Nodes to poll this round, in ascending order.
    worklist: Vec<u32>,
    /// `(slot, entry)` pairs of the recipient being drained, when it has two
    /// or more messages to put in slot order.
    order: Vec<(u32, u32)>,
    /// Node ids by the round their `next_wake` (or a fault-mode restart)
    /// is due.
    wakes: Wheel<u32>,
    /// The exchange buffers this shard fills in the current phase, per
    /// destination shard: taken from the plane at the first post to it,
    /// handed back at the phase's end.
    staging: Vec<Option<Vec<Delayed<P::Message>>>>,
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
    /// The fault stage (all empty without a plan): copies for local
    /// recipients not yet due, fresh states for this shard's restartable
    /// crash nodes, and the shard's fault-event tallies. One slot's copies
    /// are pushed in posting order (a slot has one sender, so they all come
    /// from one shard, posted locally or drained the phase after), and a
    /// round's copies fire in push order, so a recipient's mail list, put
    /// in `(slot, entry)` order, reads a slot's copies by posting round.
    copies: Wheel<Delayed<P::Message>>,
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
        let offsets = plane.graph.slot_offsets();
        let slot_lo = offsets[range.start] as usize;
        let slots = offsets[range.end] as usize - slot_lo;
        let probes = obs.is_on() && plane.map.shard_count() > 1;
        Shard {
            id,
            node_lo: range.start,
            slot_lo,
            nodes,
            cur: Mailbox::new(range.len()),
            next: Mailbox::new(range.len()),
            stamp: vec![u64::MAX; slots],
            queued: NodeSet::new(range.len()),
            worklist: Vec::new(),
            order: Vec::new(),
            wakes: Wheel::new(),
            staging: (0..plane.map.shard_count()).map(|_| None).collect(),
            stats: SimStats::default(),
            polls: 0,
            barrier_nanos: probes.then_some(0),
            flush_sizes: probes.then(LatencyHistogram::new),
            error: None,
            panic: None,
            scratch: Vec::new(),
            outbox: Vec::new(),
            copies: Wheel::new(),
            spares,
            faults: FaultCounters::default(),
        }
    }

    /// Appends a message for a local node to its next-round mail list and
    /// queues the node (forced inline: it runs once per message).
    #[inline(always)]
    fn mail(&mut self, slot: u32, to: usize, bits: u64, msg: P::Message) {
        let local = to - self.node_lo;
        self.next.push(slot, local, bits, msg);
        self.queued.insert(local);
    }

    /// Stages `copy` for shard `dst` in the exchange buffer this shard
    /// fills for it in `phase`, taken from the plane at the first use.
    /// Kept out of line, like [`Shard::inject`]: the S = 1 loop never calls
    /// it.
    #[inline(never)]
    fn stage(
        &mut self,
        plane: &Plane<'_, P::Message>,
        phase: u64,
        dst: usize,
        copy: Delayed<P::Message>,
    ) {
        self.staging[dst]
            .get_or_insert_with(|| std::mem::take(&mut *plane.exchange(phase, self.id, dst)))
            .push(copy);
    }

    /// Validates and counts one outgoing message, then routes it: to the
    /// local mail lists, to another shard's exchange buffer, or through the
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
        let from_slot = plane.graph.slot_offsets()[ctx.node.index()] as usize + pos;
        let stamp = &mut self.stamp[from_slot - self.slot_lo];
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
        let slot = plane.graph.reverse_slot(from_slot) as u32;
        // Shards are contiguous node ranges, so a local recipient needs no
        // `shard_of` lookup (a random access on large graphs).
        let local = (self.node_lo..self.node_lo + self.nodes.len()).contains(&to);
        if local && plane.fault.is_none() {
            self.mail(slot, to, bits as u64, out.msg);
            return Ok(());
        }
        let dst = plane.map.shard_of(out.to);
        let copy = Delayed {
            due: round + 1,
            slot,
            to: to as u32,
            // Kept at full width: truncating would let a pathological
            // bandwidth configuration desynchronize the trace's bit counts
            // across shard counts.
            bits: bits as u64,
            msg: out.msg,
        };
        match &plane.fault {
            None => self.stage(plane, round, dst, copy),
            Some(fs) => {
                let edge = ctx.incident_edge_ids()[pos].index();
                self.inject(plane, fs, edge, round, dst, copy);
            }
        }
        Ok(())
    }

    /// The fault stage of a post over `edge` at `round`: a loss draw, the
    /// edge's fixed delay aligned to the recipient's poll rounds, and an
    /// optional duplicate one poll later. Every draw is keyed by the
    /// recipient-side slot and the round, never by which shard executes
    /// it. A local recipient's copies go onto the copy wheel, others to
    /// the recipient shard's exchange buffer.
    #[inline(never)]
    fn inject(
        &mut self,
        plane: &Plane<'_, P::Message>,
        fs: &FaultState,
        edge: usize,
        round: u64,
        dst: usize,
        mut copy: Delayed<P::Message>,
    ) {
        let (slot, to) = (u64::from(copy.slot), copy.to as usize);
        if fs.lose(slot, round) {
            self.faults.drops += 1;
            return;
        }
        let delay = fs.delay_of(edge);
        if delay > 0 {
            self.faults.delays += 1;
        }
        copy.due = fs.next_poll(to, copy.due + delay);
        let dup = fs.duplicate(slot, round).then(|| {
            self.faults.dups += 1;
            Delayed {
                due: fs.next_poll(to, copy.due + 1),
                msg: copy.msg.clone(),
                ..copy
            }
        });
        for copy in dup.into_iter().chain([copy]) {
            if dst == self.id {
                self.copies.push(copy.due, copy);
            } else {
                self.stage(plane, round, dst, copy);
            }
        }
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
            self.queued.insert(local);
        }
    }

    /// Drains, in place, the exchange buffers the other shards filled for
    /// this one in the previous phase: into the recipients' next-round mail
    /// lists, or under faults onto the copy wheel.
    fn collect(&mut self, phase: u64, plane: &Plane<'_, P::Message>) {
        let id = self.id;
        for src in (0..plane.map.shard_count()).filter(|&src| src != id) {
            for copy in plane.exchange(phase - 1, src, id).drain(..) {
                if plane.fault.is_some() {
                    self.copies.push(copy.due, copy);
                } else {
                    self.mail(copy.slot, copy.to as usize, copy.bits, copy.msg);
                }
            }
        }
    }

    /// Hands the exchange buffers filled in `phase` back to the plane for
    /// their recipients; returns whether anything was staged.
    fn flush_staging(&mut self, phase: u64, plane: &Plane<'_, P::Message>) -> bool {
        let mut staged = false;
        for (dst, held) in self.staging.iter_mut().enumerate() {
            let Some(buf) = held.take() else { continue };
            staged = true;
            if let Some(sizes) = self.flush_sizes.as_mut() {
                sizes.record(buf.len() as u64);
            }
            *plane.exchange(phase, self.id, dst) = buf;
        }
        staged
    }

    /// Flips the next-round mail in as the current round and emits the
    /// queued nodes as the round's worklist, ascending, leaving the queued
    /// set empty for the next round. The last round's entries were all
    /// taken when their recipients were polled.
    fn begin_round(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
        self.next.clear();
        self.worklist.clear();
        self.queued.drain_into(self.node_lo, &mut self.worklist);
    }

    /// Moves node `idx`'s mail list for this round into `scratch`, put in
    /// slot order (the node's CSR neighbor order) when it holds two or more
    /// messages.
    fn drain_into(&mut self, idx: usize, graph: &Graph, ctx: &NodeContext<'_>) {
        self.scratch.clear();
        let local = idx - self.node_lo;
        let head = std::mem::replace(&mut self.cur.head[local], NIL);
        if head == NIL {
            return;
        }
        let base = graph.slot_offsets()[idx];
        let neighbors = ctx.neighbor_ids();
        let edges = ctx.incident_edge_ids();
        let deliver = |mail: &mut Mail<P::Message>, scratch: &mut Vec<Incoming<P::Message>>| {
            let k = (mail.slot - base) as usize;
            scratch.push(Incoming {
                from: neighbors[k],
                edge: edges[k],
                msg: mail.msg.take().expect("each mail entry is delivered once"),
            });
        };
        let first = &mut self.cur.entries[head as usize];
        if first.link == NIL {
            deliver(first, &mut self.scratch);
            return;
        }
        self.order.clear();
        let mut entry = head;
        while entry != NIL {
            let mail = &self.cur.entries[entry as usize];
            self.order.push((mail.slot, entry));
            entry = mail.link;
        }
        self.order.sort_unstable();
        for &(_, entry) in &self.order {
            deliver(&mut self.cur.entries[entry as usize], &mut self.scratch);
        }
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
            let ctx = &plane.context(idx);
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

    /// Phase `round ≥ 1`: collect staged mail, fire due wakes, move due
    /// copies into the mail lists, flip buffers, then poll the worklist —
    /// skipping crashed nodes and re-initializing restarting ones.
    fn round(
        &mut self,
        round: u64,
        plane: &Plane<'_, P::Message>,
        outbox: &mut Vec<Outgoing<P::Message>>,
    ) {
        let fault = plane.fault.as_ref();
        if plane.map.shard_count() > 1 {
            self.collect(round, plane);
        }
        let (node_lo, queued, next) = (self.node_lo, &mut self.queued, &mut self.next);
        self.wakes
            .fire(round, |node| queued.insert(node as usize - node_lo));
        if let Some(fs) = fault {
            // The fault stage: every copy due now joins its recipient's
            // mail list, except mail addressed to a crashed node.
            let faults = &mut self.faults;
            faults.queue_peak = faults.queue_peak.max(self.copies.len() as u64);
            self.copies.fire(round, |copy| {
                let (to, local) = (copy.to as usize, copy.to as usize - node_lo);
                if fs.crashed_at(to, round) {
                    faults.crash_drops += 1;
                } else {
                    next.push(copy.slot, local, copy.bits, copy.msg);
                    queued.insert(local);
                }
            });
        }
        self.begin_round();
        let restart = fault.and_then(FaultState::restart_local_round);
        let worklist = std::mem::take(&mut self.worklist);
        for &vi in &worklist {
            let idx = vi as usize;
            let local = idx - self.node_lo;
            let ctx = &plane.context(idx);
            match fault {
                // Its mail was dropped when it fell due.
                Some(fs) if fs.crashed_at(idx, round) => continue,
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
                    self.cur.head[local] = NIL;
                    self.nodes[local].init(ctx, outbox);
                }
                _ => {
                    self.drain_into(idx, plane.graph, ctx);
                    self.nodes[local].on_round(ctx, round, &self.scratch, outbox);
                }
            }
            self.polls += 1;
            if !self.send(plane, ctx, outbox, round) {
                break;
            }
            self.schedule(local, round, fault);
        }
        self.worklist = worklist;
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
                    || !self.queued.is_empty()
                    || !self.wakes.is_empty()
                    || !self.copies.is_empty(),
                Relaxed,
            );
            status.delivered.store(self.cur.messages, Relaxed);
            status.bits.store(self.cur.bits, Relaxed);
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
    // Factory calls happen on this thread: every node in node order, then
    // one spare per restartable crash node in ascending order — one call
    // history at every shard count, so stateful factories (counters, RNG
    // streams) agree.
    let mut nodes: Vec<P> = graph
        .nodes()
        .map(|v| factory(&NodeContext::of(graph, v)))
        .collect();
    let fault = config
        .active_fault()
        .map(|plan| FaultState::new(&plan, graph));
    let mut spares: Vec<(u32, Option<P>)> = match &fault {
        Some(fs) if fs.restart_local_round().is_some() => fs
            .crash_nodes()
            .iter()
            .map(|&v| {
                (
                    v,
                    Some(factory(&NodeContext::of(graph, NodeId::new(v as usize)))),
                )
            })
            .collect(),
        _ => Vec::new(),
    };
    let plane: Plane<'_, P::Message> = Plane {
        config,
        graph,
        fault,
        barrier: Barrier::new(shard_count),
        status: [0, 1].map(|_| (0..shard_count).map(|_| Status::default()).collect()),
        exchange: [0, 1].map(|_| {
            (0..shard_count * shard_count)
                .map(|_| Mutex::default())
                .collect()
        }),
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
