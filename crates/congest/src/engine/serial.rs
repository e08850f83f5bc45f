//! The single-threaded reference engine: the allocation-free edge-slot
//! round loop. The sharded engine is validated against this one (see
//! `tests/determinism.rs` in this crate and in `lcs_dist`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lcs_graph::Graph;
use lcs_obs::Obs;

use crate::fault::{Delayed, FaultCounters, FaultState};
use crate::{
    Incoming, MessageBits, NodeContext, NodeProtocol, Outgoing, RoundTrace, SimConfig, SimError,
    SimOutcome, SimStats,
};

use super::{build_contexts, record_run, Calendar, RoundEngine, Topology};

/// The serial round engine (unit struct: it has no tuning knobs).
pub(crate) struct SerialEngine;

impl RoundEngine for SerialEngine {
    fn shard_count(&self) -> usize {
        1
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
        run_protocol(graph, config, obs, factory)
    }
}

/// The preallocated message plane of one run: edge-slot buffers for the
/// current and next round, per-slot duplicate-send stamps, per-node inbox
/// counts, and the active-set worklists. No method allocates on the round
/// path (worklist pushes reuse capacity after the first rounds).
struct Network<M> {
    topo: Topology,
    /// Messages being delivered this round, one slot per directed edge.
    cur: Vec<Option<M>>,
    /// Messages accumulating for the next round.
    next: Vec<Option<M>>,
    /// Round number of the last post into each slot (`u64::MAX` = never);
    /// posting twice in the same round is the CONGEST duplicate-send error.
    stamp: Vec<u64>,
    /// Number of pending messages per recipient, current round.
    inbox_cur: Vec<u32>,
    /// Number of pending messages per recipient, next round.
    inbox_next: Vec<u32>,
    /// Whether a node is already on `worklist_next`.
    queued: Vec<bool>,
    /// Nodes to poll this round (sorted before polling).
    worklist_cur: Vec<u32>,
    /// Nodes that must be polled next round: message recipients plus nodes
    /// that reported pending work after their last poll.
    worklist_next: Vec<u32>,
    /// Messages / bits accumulated for the next round (for the trace).
    in_flight_next: u64,
    bits_next: u64,
}

impl<M: MessageBits> Network<M> {
    fn new(graph: &Graph) -> Self {
        let n = graph.node_count();
        let topo = Topology::new(graph);
        let slots = topo.slots();
        Network {
            topo,
            cur: (0..slots).map(|_| None).collect(),
            next: (0..slots).map(|_| None).collect(),
            stamp: vec![u64::MAX; slots],
            inbox_cur: vec![0; n],
            inbox_next: vec![0; n],
            queued: vec![false; n],
            worklist_cur: Vec::new(),
            worklist_next: Vec::new(),
            in_flight_next: 0,
            bits_next: 0,
        }
    }

    /// Schedules `node` for the next round (idempotent).
    fn queue(&mut self, node: usize) {
        if !self.queued[node] {
            self.queued[node] = true;
            self.worklist_next.push(node as u32);
        }
    }

    /// Validates and enqueues one outgoing message for the next round.
    fn post(
        &mut self,
        config: &SimConfig,
        ctx: &NodeContext<'_>,
        out: Outgoing<M>,
        round: u64,
        stats: &mut SimStats,
    ) -> crate::Result<()> {
        let pos = ctx.position_of(out.to).ok_or(SimError::NotANeighbor {
            from: ctx.node,
            to: out.to,
        })?;
        let slot = self.topo.mirror[self.topo.offset[ctx.node.index()] as usize + pos] as usize;
        // Posting rounds strictly increase, so one stamp array covers both
        // buffers: an equal stamp can only mean "already sent this round".
        if self.stamp[slot] == round {
            return Err(SimError::DuplicateSend {
                from: ctx.node,
                to: out.to,
                round,
            });
        }
        self.stamp[slot] = round;
        let bits = out.msg.size_bits();
        if bits > config.bandwidth_bits {
            return Err(SimError::BandwidthExceeded {
                from: ctx.node,
                to: out.to,
                message_bits: bits,
                bandwidth_bits: config.bandwidth_bits,
            });
        }
        stats.messages += 1;
        stats.total_bits += bits as u64;
        stats.max_message_bits = stats.max_message_bits.max(bits);
        self.next[slot] = Some(out.msg);
        self.inbox_next[out.to.index()] += 1;
        self.in_flight_next += 1;
        self.bits_next += bits as u64;
        self.queue(out.to.index());
        Ok(())
    }

    /// Flips the next-round buffers in as the current round, returning the
    /// number of messages and bits being delivered. The worklist for the
    /// new round ends up in `worklist_cur`, sorted for deterministic
    /// polling order; its nodes' `queued` flags are cleared so they can be
    /// re-scheduled.
    fn begin_round(&mut self) -> (u64, u64) {
        std::mem::swap(&mut self.cur, &mut self.next);
        std::mem::swap(&mut self.inbox_cur, &mut self.inbox_next);
        std::mem::swap(&mut self.worklist_cur, &mut self.worklist_next);
        self.worklist_next.clear();
        for &v in &self.worklist_cur {
            self.queued[v as usize] = false;
        }
        self.worklist_cur.sort_unstable();
        let delivered = self.in_flight_next;
        let bits = self.bits_next;
        self.in_flight_next = 0;
        self.bits_next = 0;
        (delivered, bits)
    }

    /// Moves node `idx`'s pending messages into `scratch` (cleared first).
    fn drain_into(&mut self, idx: usize, ctx: &NodeContext<'_>, scratch: &mut Vec<Incoming<M>>) {
        scratch.clear();
        if self.inbox_cur[idx] == 0 {
            return;
        }
        let base = self.topo.offset[idx] as usize;
        let end = self.topo.offset[idx + 1] as usize;
        let neighbors = ctx.neighbor_ids();
        let edges = ctx.incident_edge_ids();
        for p in base..end {
            if let Some(msg) = self.cur[p].take() {
                scratch.push(Incoming {
                    from: neighbors[p - base],
                    edge: edges[p - base],
                    msg,
                });
            }
        }
        self.inbox_cur[idx] = 0;
    }
}

/// The serial round loop, callable without `Send` bounds (this is what
/// [`crate::Simulator::run_serial`] exposes for non-`Send` protocols).
pub(crate) fn run_protocol<P, F>(
    graph: &Graph,
    config: &SimConfig,
    obs: &Obs,
    mut factory: F,
) -> crate::Result<SimOutcome<P>>
where
    P: NodeProtocol,
    F: FnMut(&NodeContext) -> P,
{
    if let Some(plan) = config.active_fault() {
        let state = FaultState::new(&plan, graph);
        return run_protocol_faulty(graph, config, &state, obs, factory);
    }
    let contexts = build_contexts(graph);
    let mut nodes: Vec<P> = contexts.iter().map(&mut factory).collect();
    let mut stats = SimStats::default();
    let mut trace: Vec<RoundTrace> = Vec::new();
    let mut net: Network<P::Message> = Network::new(graph);
    let mut scratch: Vec<Incoming<P::Message>> = Vec::new();
    let mut outbox: Vec<Outgoing<P::Message>> = Vec::new();
    // Timed wake-ups from NodeProtocol::next_wake, keyed by round.
    // Stale entries (a node woken earlier by a message) cause a spurious
    // poll, which the next_wake contract makes harmless.
    let mut wakes = Calendar::new();

    // Initialization: nodes may already emit messages; every node that
    // reports pending work is scheduled for round 1 (or its requested
    // wake round).
    for (idx, (state, ctx)) in nodes.iter_mut().zip(&contexts).enumerate() {
        state.init(ctx, &mut outbox);
        for out in outbox.drain(..) {
            net.post(config, ctx, out, 0, &mut stats)?;
        }
        if !state.is_done() {
            match state.next_wake(0) {
                Some(r) if r > 1 => wakes.push(r, idx as u32),
                _ => net.queue(idx),
            }
        }
    }

    let mut round: u64 = 0;
    // Active-node polls: one per worklist entry per round. A plain local
    // add — the obs registry is only touched once, after quiescence.
    let mut polls: u64 = 0;
    // The schedule is exhaustive: every message recipient, every node
    // with immediate pending work, and every timed wake-up is recorded,
    // so "no queued node and no pending wake" is exactly the old "no
    // message in flight and all nodes done" condition.
    while !net.worklist_next.is_empty() || !wakes.is_empty() {
        if round >= config.max_rounds {
            return Err(SimError::RoundLimitExceeded {
                limit: config.max_rounds,
            });
        }
        round += 1;

        wakes.fire(round, |idx| net.queue(idx));
        let (delivered, bits) = net.begin_round();
        if config.trace {
            trace.push(RoundTrace {
                round,
                messages: delivered,
                bits,
            });
        }
        let worklist = std::mem::take(&mut net.worklist_cur);
        polls += worklist.len() as u64;
        for &vi in &worklist {
            let idx = vi as usize;
            let ctx = &contexts[idx];
            net.drain_into(idx, ctx, &mut scratch);
            nodes[idx].on_round(ctx, round, &scratch, &mut outbox);
            for out in outbox.drain(..) {
                net.post(config, ctx, out, round, &mut stats)?;
            }
            if !nodes[idx].is_done() {
                match nodes[idx].next_wake(round) {
                    Some(r) if r > round + 1 => wakes.push(r, idx as u32),
                    _ => net.queue(idx),
                }
            }
        }
        net.worklist_cur = worklist;
    }

    stats.rounds = round;
    if obs.is_on() {
        record_run(obs, &stats, polls);
        obs.gauge_set("engine/shards", 1);
        obs.gauge_set("engine/shard/0/messages", stats.messages);
        obs.gauge_set("engine/shard/0/bits", stats.total_bits);
        obs.gauge_set("engine/shard/0/polls", polls);
    }
    Ok(SimOutcome {
        nodes,
        stats,
        trace,
    })
}

/// The message plane of a faulty run: the delivery queue replaces the
/// edge-slot mailbox buffers (a slot can carry several in-flight messages
/// once latency and duplication are on), while the duplicate-send stamps
/// and the worklist machinery are identical to the fault-free plane. Heap
/// entries pop in `(due, slot, posted)` order, so each node's per-round
/// incoming list is slot-ordered — the same order `drain_into` produces —
/// with a slot's multiple copies ordered by posting round. Unlike the
/// fault-free plane this one allocates per-node inbox vectors; fault
/// injection is a diagnostics mode, not a hot path.
struct FaultNet<M> {
    topo: Topology,
    /// Duplicate-send stamps, recipient-side slot indexed (as in
    /// [`Network`]).
    stamp: Vec<u64>,
    queued: Vec<bool>,
    worklist_cur: Vec<u32>,
    worklist_next: Vec<u32>,
    /// The delivery queue, ordered by `(due, slot, posted)`.
    heap: BinaryHeap<Reverse<Delayed<M>>>,
    /// Messages delivered to each node this round (cleared after polling).
    inboxes: Vec<Vec<Incoming<M>>>,
}

impl<M: MessageBits + Clone> FaultNet<M> {
    fn new(graph: &Graph) -> Self {
        let n = graph.node_count();
        let topo = Topology::new(graph);
        let slots = topo.slots();
        FaultNet {
            topo,
            stamp: vec![u64::MAX; slots],
            queued: vec![false; n],
            worklist_cur: Vec::new(),
            worklist_next: Vec::new(),
            heap: BinaryHeap::new(),
            inboxes: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    fn queue(&mut self, node: usize) {
        if !self.queued[node] {
            self.queued[node] = true;
            self.worklist_next.push(node as u32);
        }
    }

    /// Validates one outgoing message exactly as the fault-free plane
    /// does, then routes it through the fault schedule: a loss draw, the
    /// edge's fixed delay, alignment to the recipient's poll rounds, and
    /// an optional duplicate one poll later.
    #[allow(clippy::too_many_arguments)]
    fn post(
        &mut self,
        config: &SimConfig,
        fs: &FaultState,
        counters: &mut FaultCounters,
        ctx: &NodeContext<'_>,
        out: Outgoing<M>,
        round: u64,
        stats: &mut SimStats,
    ) -> crate::Result<()> {
        let pos = ctx.position_of(out.to).ok_or(SimError::NotANeighbor {
            from: ctx.node,
            to: out.to,
        })?;
        let slot = self.topo.mirror[self.topo.offset[ctx.node.index()] as usize + pos];
        if self.stamp[slot as usize] == round {
            return Err(SimError::DuplicateSend {
                from: ctx.node,
                to: out.to,
                round,
            });
        }
        self.stamp[slot as usize] = round;
        let bits = out.msg.size_bits();
        if bits > config.bandwidth_bits {
            return Err(SimError::BandwidthExceeded {
                from: ctx.node,
                to: out.to,
                message_bits: bits,
                bandwidth_bits: config.bandwidth_bits,
            });
        }
        // Under faults `stats.messages` counts *sends*; deliveries (which
        // loss shrinks and duplication grows) are what the trace counts.
        stats.messages += 1;
        stats.total_bits += bits as u64;
        stats.max_message_bits = stats.max_message_bits.max(bits);
        if fs.lose(u64::from(slot), round) {
            counters.drops += 1;
            return Ok(());
        }
        let to = out.to.index();
        let delay = fs.delay_of(ctx.incident_edge_ids()[pos].index());
        if delay > 0 {
            counters.delays += 1;
        }
        let due = fs.next_poll(to, round + 1 + delay);
        let dup = fs.duplicate(u64::from(slot), round);
        if dup {
            counters.dups += 1;
            self.heap.push(Reverse(Delayed {
                due: fs.next_poll(to, due + 1),
                slot,
                posted: round,
                to: to as u32,
                bits: bits as u64,
                msg: out.msg.clone(),
            }));
        }
        self.heap.push(Reverse(Delayed {
            due,
            slot,
            posted: round,
            to: to as u32,
            bits: bits as u64,
            msg: out.msg,
        }));
        Ok(())
    }
}

/// The serial round loop under an active [`crate::FaultPlan`]: the same
/// schedule as the fault-free loop, with deliveries routed through the
/// [`FaultNet`] delivery queue, crashed nodes skipped (their mail
/// dropped), and restarts executed as a fresh `init` at the restart round.
fn run_protocol_faulty<P, F>(
    graph: &Graph,
    config: &SimConfig,
    fs: &FaultState,
    obs: &Obs,
    mut factory: F,
) -> crate::Result<SimOutcome<P>>
where
    P: NodeProtocol,
    F: FnMut(&NodeContext) -> P,
{
    let contexts = build_contexts(graph);
    let mut nodes: Vec<P> = contexts.iter().map(&mut factory).collect();
    // Fresh states for restartable crash nodes, created in ascending node
    // order *after* the main factory pass — the sharded engine makes the
    // identical call sequence, so stateful factories agree.
    let restart_round = fs.restart_local_round();
    let mut spares: Vec<(u32, Option<P>)> = if restart_round.is_some() {
        fs.crash_nodes()
            .iter()
            .map(|&v| (v, Some(factory(&contexts[v as usize]))))
            .collect()
    } else {
        Vec::new()
    };
    let mut stats = SimStats::default();
    let mut trace: Vec<RoundTrace> = Vec::new();
    let mut counters = FaultCounters::default();
    let mut net: FaultNet<P::Message> = FaultNet::new(graph);
    let mut outbox: Vec<Outgoing<P::Message>> = Vec::new();
    let mut wakes = Calendar::new();

    for (idx, (state, ctx)) in nodes.iter_mut().zip(&contexts).enumerate() {
        if fs.crashed_at(idx, 0) {
            continue;
        }
        state.init(ctx, &mut outbox);
        for out in outbox.drain(..) {
            net.post(config, fs, &mut counters, ctx, out, 0, &mut stats)?;
        }
        if !state.is_done() {
            match fs.wake_round(idx, state.next_wake(0), 0) {
                due if due > 1 => wakes.push(due, idx as u32),
                _ => net.queue(idx),
            }
        }
    }
    if let Some(r) = restart_round {
        for &v in fs.crash_nodes() {
            wakes.push(r, v);
        }
    }

    let mut round: u64 = 0;
    let mut polls: u64 = 0;
    while !net.worklist_next.is_empty() || !wakes.is_empty() || !net.heap.is_empty() {
        if round >= config.max_rounds {
            return Err(SimError::RoundLimitExceeded {
                limit: config.max_rounds,
            });
        }
        round += 1;

        wakes.fire(round, |idx| net.queue(idx));
        counters.queue_peak = counters.queue_peak.max(net.heap.len() as u64);
        let mut delivered: u64 = 0;
        let mut bits: u64 = 0;
        while net.heap.peek().is_some_and(|Reverse(d)| d.due <= round) {
            let Reverse(d) = net.heap.pop().expect("peeked entry exists");
            debug_assert_eq!(d.due, round, "delivery rounds are never skipped");
            let to = d.to as usize;
            if fs.crashed_at(to, round) {
                counters.crash_drops += 1;
                continue;
            }
            delivered += 1;
            bits += d.bits;
            let base = net.topo.offset[to] as usize;
            let k = d.slot as usize - base;
            let ctx = &contexts[to];
            net.inboxes[to].push(Incoming {
                from: ctx.neighbor_ids()[k],
                edge: ctx.incident_edge_ids()[k],
                msg: d.msg,
            });
            net.queue(to);
        }
        std::mem::swap(&mut net.worklist_cur, &mut net.worklist_next);
        net.worklist_next.clear();
        for &v in &net.worklist_cur {
            net.queued[v as usize] = false;
        }
        net.worklist_cur.sort_unstable();
        if config.trace {
            trace.push(RoundTrace {
                round,
                messages: delivered,
                bits,
            });
        }
        let worklist = std::mem::take(&mut net.worklist_cur);
        for &vi in &worklist {
            let idx = vi as usize;
            if fs.crashed_at(idx, round) {
                net.inboxes[idx].clear();
                continue;
            }
            let ctx = &contexts[idx];
            if restart_round == Some(round) && fs.is_crash_node(idx) {
                // Restart: swap in the cleared state and run its `init` at
                // this round; whatever mail arrived alongside is lost with
                // the old state.
                if let Some(spare) = spares
                    .iter_mut()
                    .find(|(v, _)| *v as usize == idx)
                    .and_then(|(_, s)| s.take())
                {
                    nodes[idx] = spare;
                    counters.restarts += 1;
                }
                net.inboxes[idx].clear();
                polls += 1;
                nodes[idx].init(ctx, &mut outbox);
            } else {
                let mut incoming = std::mem::take(&mut net.inboxes[idx]);
                polls += 1;
                nodes[idx].on_round(ctx, round, &incoming, &mut outbox);
                incoming.clear();
                net.inboxes[idx] = incoming;
            }
            for out in outbox.drain(..) {
                net.post(config, fs, &mut counters, ctx, out, round, &mut stats)?;
            }
            if !nodes[idx].is_done() {
                match fs.wake_round(idx, nodes[idx].next_wake(round), round) {
                    due if due > round + 1 => wakes.push(due, idx as u32),
                    _ => net.queue(idx),
                }
            }
        }
        net.worklist_cur = worklist;
    }

    stats.rounds = round;
    if obs.is_on() {
        record_run(obs, &stats, polls);
        counters.record(obs);
        obs.gauge_set("engine/shards", 1);
        obs.gauge_set("engine/shard/0/messages", stats.messages);
        obs.gauge_set("engine/shard/0/bits", stats.total_bits);
        obs.gauge_set("engine/shard/0/polls", polls);
    }
    Ok(SimOutcome {
        nodes,
        stats,
        trace,
    })
}
