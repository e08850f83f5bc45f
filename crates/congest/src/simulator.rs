//! The synchronous round loop.
//!
//! # Hot-path layout
//!
//! The round loop is allocation-free after setup. A round's messages live
//! in one entry buffer per shard, threaded into one list per recipient:
//! posting appends an entry and makes it the recipient's list head, and
//! polling a recipient walks its list, putting two or more messages in slot
//! order — the recipient's CSR neighbor order — before the protocol sees
//! them. The buffers keep their capacity, so they grow to the busiest
//! round's traffic, not to one slot per directed edge. A message's slot is
//! the sender's position in the recipient's adjacency slice, found in
//! `O(1)` through the graph's own reverse-slot index
//! ([`Graph::reverse_slot`], sender-side CSR slot → recipient-side slot),
//! so a run rebuilds no per-graph state. One message per directed edge per
//! round is exactly the CONGEST constraint, so a per-slot round stamp
//! doubles as the duplicate-send check. An active-set worklist schedules
//! only nodes that received a message or reported pending work — see
//! [`NodeProtocol::is_done`] for the quiescence contract that makes
//! skipping idle nodes semantics-preserving — and a round polls them in
//! ascending node order, read off a bitset.
//!
//! # Shards
//!
//! The loop partitions the nodes into [`SimConfig::threads`] contiguous CSR
//! ranges (capped at the node count). With one shard it runs inline on the
//! calling thread; with `S ≥ 2` the caller runs shard 0 and `S − 1`
//! `std::thread::scope` workers run the rest, meeting at one barrier per
//! round and draining each other's staged mail after it. Every shard count produces
//! byte-identical statistics, traces, states, and errors — the shard count
//! is a throughput knob, never a semantic one (see `engine` module docs for
//! why this holds by construction).

use lcs_graph::Graph;
use lcs_obs::Obs;

use crate::engine;
use crate::{NodeContext, NodeProtocol};

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Per-edge, per-direction, per-round bandwidth in bits (the `O(log n)`
    /// of the CONGEST model).
    pub bandwidth_bits: usize,
    /// Hard cap on the number of simulated rounds; exceeding it is reported
    /// as [`crate::SimError::RoundLimitExceeded`] so buggy protocols fail
    /// loudly instead of spinning forever.
    pub max_rounds: u64,
    /// When `true`, the simulator records one [`RoundTrace`] entry per
    /// executed round in [`SimOutcome::trace`] — the per-round message and
    /// bit counts a protocol author needs when debugging a multi-phase
    /// protocol. Off by default because traces of long runs are large.
    pub trace: bool,
    /// Shard count of the round loop, capped at the node count: `1` runs
    /// every round inline on the calling thread, `t > 1` splits the nodes
    /// into `t` shards run by the caller and `t − 1` worker threads.
    /// Results are byte-identical for every value — this only chooses how
    /// the rounds execute. [`SimConfig::for_graph`]
    /// initializes it from the `LCS_THREADS` environment variable
    /// (default 1), so one variable switches every protocol in a process.
    pub threads: usize,
    /// Optional deterministic fault schedule (latency, loss, duplication,
    /// stragglers, crashes). `None` — or a plan with every knob at zero —
    /// runs the fault-free round loop; an active plan adds the fault stage,
    /// which holds every copy on a per-shard wheel of due rounds until it
    /// joins its recipient's mail list, one slot's copies in posting
    /// order. Every decision is a pure function of the plan, so every
    /// shard count injects identical faults and determinism across thread
    /// counts is preserved. See [`crate::FaultPlan`].
    pub fault: Option<crate::FaultPlan>,
}

impl SimConfig {
    /// A standard CONGEST configuration for the given graph: bandwidth
    /// `4⌈log₂ n⌉ + 64` bits (room for a tagged identifier pair plus a
    /// 64-bit value, the usual "O(log n) bits" reading) and a generous round
    /// cap of `64 · n + 1024`. The engine thread count comes from
    /// `LCS_THREADS` (see [`SimConfig::threads`]).
    pub fn for_graph(graph: &Graph) -> Self {
        let id_bits = crate::bits_for_node_count(graph.node_count());
        SimConfig {
            bandwidth_bits: 4 * id_bits + 64,
            max_rounds: 64 * graph.node_count() as u64 + 1024,
            trace: false,
            threads: lcs_graph::configured_threads(),
            fault: None,
        }
    }

    /// Overrides the round cap.
    ///
    /// The default cap of [`SimConfig::for_graph`] (`64·n + 1024`) is sized
    /// for single-phase protocols; multi-phase protocols (such as the
    /// windowed superstep protocols of `lcs_dist`) must compute their own
    /// round budget and pass it through here rather than silently inheriting
    /// the default.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Enables per-round tracing (see [`SimConfig::trace`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Overrides the engine thread count (see [`SimConfig::threads`]).
    /// Values below 1 are clamped to 1.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a deterministic fault schedule (see [`SimConfig::fault`]).
    pub fn with_fault(mut self, plan: crate::FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Removes any fault schedule: the run executes fault-free.
    pub fn without_fault(mut self) -> Self {
        self.fault = None;
        self
    }

    /// The active fault plan, if any: `Some` only when a plan is attached
    /// *and* at least one of its knobs is raised (an all-zero plan is
    /// indistinguishable from no plan).
    pub fn active_fault(&self) -> Option<crate::FaultPlan> {
        self.fault.filter(|p| p.active())
    }
}

/// One entry of the optional per-round trace: what the network delivered in
/// a single synchronous round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTrace {
    /// The round number (1-based; round 0 is initialization).
    pub round: u64,
    /// Number of messages delivered in this round.
    pub messages: u64,
    /// Total bits delivered in this round.
    pub bits: u64,
}

/// Aggregate statistics of a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Number of synchronous rounds executed until quiescence.
    pub rounds: u64,
    /// Total number of messages delivered.
    pub messages: u64,
    /// Total number of message bits delivered.
    pub total_bits: u64,
    /// Largest single message observed, in bits.
    pub max_message_bits: usize,
}

/// The result of running a protocol to quiescence.
#[derive(Debug, Clone)]
pub struct SimOutcome<P> {
    /// The final per-node protocol states, indexed by node id.
    pub nodes: Vec<P>,
    /// Run statistics (rounds, messages, bits).
    pub stats: SimStats,
    /// Per-round delivery trace; empty unless [`SimConfig::trace`] is set.
    pub trace: Vec<RoundTrace>,
}

/// A synchronous CONGEST simulator bound to a graph.
///
/// # Shards
///
/// [`Simulator::run`] executes on [`Simulator::shard_count`] shards — one,
/// inline on the caller, for [`SimConfig::threads`] = 1, more with worker
/// threads — and the count is observable only through wall-clock time:
///
/// ```
/// use lcs_congest::{primitives::DistributedBfs, SimConfig, Simulator};
/// use lcs_graph::{generators, NodeId};
///
/// let graph = generators::grid(8, 8);
/// let inline = Simulator::new(&graph, SimConfig::for_graph(&graph).with_threads(1));
/// let sharded = Simulator::new(&graph, SimConfig::for_graph(&graph).with_threads(4));
/// assert_eq!(inline.shard_count(), 1);
/// assert_eq!(sharded.shard_count(), 4);
///
/// let a = DistributedBfs::run(&inline, NodeId::new(0)).unwrap();
/// let b = DistributedBfs::run(&sharded, NodeId::new(0)).unwrap();
/// // Byte-identical statistics and results, on any machine, for any
/// // thread count.
/// assert_eq!(a.stats, b.stats);
/// assert_eq!(a.depths, b.depths);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'g> {
    graph: &'g Graph,
    config: SimConfig,
    obs: Obs,
}

impl<'g> Simulator<'g> {
    /// Creates a simulator for `graph` with the given configuration.
    /// Instrumentation is off until [`Simulator::with_recorder`] attaches
    /// a handle — [`SimConfig`] stays `Copy` and recorder-free on purpose.
    pub fn new(graph: &'g Graph, config: SimConfig) -> Self {
        Simulator {
            graph,
            config,
            obs: Obs::off(),
        }
    }

    /// Attaches an instrumentation handle: successful runs report engine
    /// counters (rounds, messages, bits, polls), per-shard gauges, and —
    /// with two or more shards — barrier-wait and staging-flush timers
    /// through it. An off handle (the default) costs one branch per run.
    pub fn with_recorder(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The instrumentation handle in use (off by default).
    pub fn recorder(&self) -> &Obs {
        &self.obs
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The configuration in use.
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// Number of node shards [`Simulator::run`] partitions this graph
    /// into: [`SimConfig::threads`], at least 1 and at most the node count.
    pub fn shard_count(&self) -> usize {
        self.config
            .threads
            .max(1)
            .min(self.graph.node_count().max(1))
    }

    /// Runs a protocol to quiescence: every node is instantiated via
    /// `factory`, `init` is called once, and rounds are executed until no
    /// node has pending work and no message is in flight.
    ///
    /// Executes on [`Simulator::shard_count`] shards; the statistics,
    /// trace, final states, and errors are identical for every shard
    /// count. Protocol states and messages must be `Send` so they can be
    /// sharded across workers.
    ///
    /// # Errors
    ///
    /// Returns an error if a node violates the CONGEST constraints (sends to
    /// a non-neighbor, sends twice over the same edge in a round, or exceeds
    /// the bandwidth), or if the round cap is reached.
    pub fn run<P, F>(&self, factory: F) -> crate::Result<SimOutcome<P>>
    where
        P: NodeProtocol + Send,
        P::Message: Send,
        F: FnMut(&NodeContext) -> P,
    {
        engine::run(self.graph, &self.config, &self.obs, factory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{generators, NodeId};

    use crate::{FaultPlan, Incoming, NodeProtocol, Outgoing, SimError};

    /// A protocol where every node floods a token once and counts how many
    /// tokens it receives.
    #[derive(Debug)]
    struct FloodOnce {
        received: usize,
        started: bool,
    }

    impl NodeProtocol for FloodOnce {
        type Message = ();

        fn init(&mut self, ctx: &NodeContext<'_>, out: &mut Vec<Outgoing<()>>) {
            self.started = true;
            out.extend(ctx.neighbor_ids().iter().map(|&v| Outgoing::new(v, ())));
        }

        fn on_round(
            &mut self,
            _ctx: &NodeContext<'_>,
            _round: u64,
            incoming: &[Incoming<()>],
            _out: &mut Vec<Outgoing<()>>,
        ) {
            self.received += incoming.len();
        }

        fn is_done(&self) -> bool {
            self.started
        }
    }

    #[test]
    fn flood_once_delivers_one_message_per_edge_direction() {
        let g = generators::cycle(8);
        let sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let outcome = sim
            .run(|_| FloodOnce {
                received: 0,
                started: false,
            })
            .unwrap();
        assert_eq!(outcome.stats.rounds, 1);
        assert_eq!(outcome.stats.messages, 2 * g.edge_count() as u64);
        for node in &outcome.nodes {
            assert_eq!(node.received, 2);
        }
    }

    #[test]
    fn sharded_engine_matches_serial_on_flooding() {
        let g = generators::grid(7, 9);
        let serial = Simulator::new(&g, SimConfig::for_graph(&g).with_threads(1).with_trace());
        let reference = serial
            .run(|_| FloodOnce {
                received: 0,
                started: false,
            })
            .unwrap();
        for threads in [2usize, 3, 8, 64] {
            let sim = Simulator::new(
                &g,
                SimConfig::for_graph(&g).with_threads(threads).with_trace(),
            );
            let outcome = sim
                .run(|_| FloodOnce {
                    received: 0,
                    started: false,
                })
                .unwrap();
            assert_eq!(outcome.stats, reference.stats, "threads={threads}");
            assert_eq!(outcome.trace, reference.trace, "threads={threads}");
            for (a, b) in outcome.nodes.iter().zip(&reference.nodes) {
                assert_eq!(a.received, b.received);
            }
        }
    }

    #[test]
    fn shard_count_follows_threads_and_graph_size() {
        let g = generators::path(3);
        let sim = Simulator::new(&g, SimConfig::for_graph(&g).with_threads(1));
        assert_eq!(sim.shard_count(), 1);
        let sim = Simulator::new(&g, SimConfig::for_graph(&g).with_threads(2));
        assert_eq!(sim.shard_count(), 2);
        // More threads than nodes: capped at the node count.
        let sim = Simulator::new(&g, SimConfig::for_graph(&g).with_threads(64));
        assert_eq!(sim.shard_count(), 3);
        // A single-node graph cannot be sharded.
        let tiny = lcs_graph::Graph::from_edges(1, &[]).unwrap();
        let sim = Simulator::new(&tiny, SimConfig::for_graph(&tiny).with_threads(8));
        assert_eq!(sim.shard_count(), 1);
    }

    /// A protocol that (incorrectly) sends to a fixed node id regardless of
    /// adjacency, to exercise error reporting.
    #[derive(Debug)]
    struct BadSender;

    impl NodeProtocol for BadSender {
        type Message = ();

        fn init(&mut self, ctx: &NodeContext<'_>, out: &mut Vec<Outgoing<()>>) {
            if ctx.node == NodeId::new(0) {
                out.push(Outgoing::new(NodeId::new(3), ()));
            }
        }

        fn on_round(
            &mut self,
            _: &NodeContext<'_>,
            _: u64,
            _: &[Incoming<()>],
            _: &mut Vec<Outgoing<()>>,
        ) {
        }

        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    fn sending_to_non_neighbor_is_rejected() {
        // Path 0-1-2-3: node 0 is not adjacent to node 3.
        let g = generators::path(4);
        for threads in [1usize, 2, 4] {
            let sim = Simulator::new(&g, SimConfig::for_graph(&g).with_threads(threads));
            let err = sim.run(|_| BadSender).unwrap_err();
            assert_eq!(
                err,
                SimError::NotANeighbor {
                    from: NodeId::new(0),
                    to: NodeId::new(3)
                },
                "threads={threads}"
            );
        }
    }

    /// A protocol that sends one oversized message.
    #[derive(Debug)]
    struct BigTalker;

    impl NodeProtocol for BigTalker {
        type Message = (u64, u64);

        fn init(&mut self, ctx: &NodeContext<'_>, out: &mut Vec<Outgoing<(u64, u64)>>) {
            out.extend(
                ctx.neighbor_ids()
                    .iter()
                    .take(1)
                    .map(|&v| Outgoing::new(v, (0, 0))),
            );
        }

        fn on_round(
            &mut self,
            _: &NodeContext<'_>,
            _: u64,
            _: &[Incoming<(u64, u64)>],
            _: &mut Vec<Outgoing<(u64, u64)>>,
        ) {
        }

        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    fn oversized_messages_are_rejected() {
        let g = generators::path(3);
        for threads in [1usize, 3] {
            let config = SimConfig {
                bandwidth_bits: 32,
                ..SimConfig::for_graph(&g).with_threads(threads)
            };
            let sim = Simulator::new(&g, config);
            let err = sim.run(|_| BigTalker).unwrap_err();
            assert!(matches!(
                err,
                SimError::BandwidthExceeded {
                    message_bits: 128,
                    ..
                }
            ));
        }
    }

    /// A protocol that never terminates (always has pending work).
    #[derive(Debug)]
    struct Restless;

    impl NodeProtocol for Restless {
        type Message = ();

        fn init(&mut self, _: &NodeContext<'_>, _: &mut Vec<Outgoing<()>>) {}

        fn on_round(
            &mut self,
            _: &NodeContext<'_>,
            _: u64,
            _: &[Incoming<()>],
            _: &mut Vec<Outgoing<()>>,
        ) {
        }

        fn is_done(&self) -> bool {
            false
        }
    }

    #[test]
    fn round_limit_is_enforced() {
        let g = generators::path(2);
        for threads in [1usize, 2] {
            let sim = Simulator::new(
                &g,
                SimConfig::for_graph(&g)
                    .with_max_rounds(5)
                    .with_threads(threads),
            );
            let err = sim.run(|_| Restless).unwrap_err();
            assert_eq!(err, SimError::RoundLimitExceeded { limit: 5 });
        }
    }

    #[test]
    fn duplicate_sends_are_rejected() {
        #[derive(Debug)]
        struct DoubleSender;
        impl NodeProtocol for DoubleSender {
            type Message = ();
            fn init(&mut self, ctx: &NodeContext<'_>, out: &mut Vec<Outgoing<()>>) {
                if ctx.node == NodeId::new(0) {
                    out.push(Outgoing::new(NodeId::new(1), ()));
                    out.push(Outgoing::new(NodeId::new(1), ()));
                }
            }
            fn on_round(
                &mut self,
                _: &NodeContext<'_>,
                _: u64,
                _: &[Incoming<()>],
                _: &mut Vec<Outgoing<()>>,
            ) {
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = generators::path(2);
        for threads in [1usize, 2] {
            let sim = Simulator::new(&g, SimConfig::for_graph(&g).with_threads(threads));
            let err = sim.run(|_| DoubleSender).unwrap_err();
            assert!(matches!(err, SimError::DuplicateSend { round: 0, .. }));
        }
    }

    /// A node that is done with an empty inbox must not be polled — pending
    /// work has to be declared through `is_done`, and a woken node must be
    /// woken by a message.
    #[test]
    fn quiescent_nodes_with_empty_inboxes_are_not_polled() {
        #[derive(Debug)]
        struct CountPolls {
            polls: u64,
            woken: bool,
        }
        impl NodeProtocol for CountPolls {
            type Message = ();
            fn init(&mut self, ctx: &NodeContext<'_>, out: &mut Vec<Outgoing<()>>) {
                // Node 0 pings its neighbors once, in round 3's mail.
                if ctx.node == NodeId::new(0) {
                    out.extend(ctx.neighbor_ids().iter().map(|&v| Outgoing::new(v, ())));
                }
            }
            fn on_round(
                &mut self,
                _: &NodeContext<'_>,
                _: u64,
                incoming: &[Incoming<()>],
                _: &mut Vec<Outgoing<()>>,
            ) {
                self.polls += 1;
                if !incoming.is_empty() {
                    self.woken = true;
                }
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = generators::path(4);
        for threads in [1usize, 2, 4] {
            let sim = Simulator::new(&g, SimConfig::for_graph(&g).with_threads(threads));
            let outcome = sim
                .run(|_| CountPolls {
                    polls: 0,
                    woken: false,
                })
                .unwrap();
            // Only node 1 (the unique neighbor of node 0) was ever polled,
            // and only in the single round its message arrived.
            assert_eq!(outcome.stats.rounds, 1);
            assert_eq!(outcome.nodes[0].polls, 0);
            assert_eq!(outcome.nodes[1].polls, 1);
            assert!(outcome.nodes[1].woken);
            assert_eq!(outcome.nodes[2].polls, 0);
            assert_eq!(outcome.nodes[3].polls, 0);
        }
    }

    /// A recipient's messages arrive in its CSR neighbor order, whatever
    /// order their senders were polled in and whichever shard they ran on:
    /// a hub whose adjacency lists its leaves out of id order hears every
    /// leaf in one round and sees the senders exactly as `neighbor_ids`.
    /// Under a fault plan (per-edge latency, duplication, and every node a
    /// straggler, the hub included) one poll can hold several copies from
    /// one leaf, posted in different rounds or duplicated; the hub sees
    /// them by slot, then by posting round.
    #[test]
    fn incoming_follows_the_csr_neighbor_order() {
        #[derive(Debug)]
        struct Hub {
            hub: NodeId,
            /// A leaf's sends left after `init`, one per poll.
            sends: u32,
            /// The hub's mail, one `(sender, posting round)` list per poll.
            polls: Vec<Vec<(NodeId, u32)>>,
            order: Vec<NodeId>,
        }
        impl NodeProtocol for Hub {
            type Message = (u32, u32);
            fn init(&mut self, ctx: &NodeContext<'_>, out: &mut Vec<Outgoing<(u32, u32)>>) {
                if ctx.node == self.hub {
                    self.order = ctx.neighbor_ids().to_vec();
                } else {
                    out.push(Outgoing::new(self.hub, (ctx.node.index() as u32, 0)));
                }
            }
            fn on_round(
                &mut self,
                ctx: &NodeContext<'_>,
                round: u64,
                incoming: &[Incoming<(u32, u32)>],
                out: &mut Vec<Outgoing<(u32, u32)>>,
            ) {
                if !incoming.is_empty() {
                    for msg in incoming {
                        assert_eq!(msg.msg.0 as usize, msg.from.index());
                    }
                    self.polls
                        .push(incoming.iter().map(|m| (m.from, m.msg.1)).collect());
                }
                if ctx.node != self.hub && self.sends > 0 {
                    self.sends -= 1;
                    out.push(Outgoing::new(
                        self.hub,
                        (ctx.node.index() as u32, round as u32),
                    ));
                }
            }
            fn is_done(&self) -> bool {
                self.sends == 0
            }
        }
        let hub = NodeId::new(4);
        let leaves = [8usize, 1, 6, 0, 3, 7, 2, 5];
        let edges: Vec<(NodeId, NodeId)> = leaves.iter().map(|&v| (hub, NodeId::new(v))).collect();
        let g = lcs_graph::Graph::from_edges(9, &edges).unwrap();
        let expected: Vec<NodeId> = leaves.iter().map(|&v| NodeId::new(v)).collect();
        assert_eq!(
            g.neighbor_ids(hub),
            &expected[..],
            "adjacency keeps insertion order"
        );
        let run = |config: SimConfig, sends: u32| {
            let outcome = Simulator::new(&g, config)
                .run(|ctx| Hub {
                    hub,
                    sends: if ctx.node == hub { 0 } else { sends },
                    polls: Vec::new(),
                    order: Vec::new(),
                })
                .unwrap();
            let node = &outcome.nodes[hub.index()];
            assert_eq!(node.order, expected);
            (outcome.stats.rounds, node.polls.clone())
        };
        for threads in [1usize, 2, 3] {
            let (rounds, polls) = run(SimConfig::for_graph(&g).with_threads(threads), 0);
            assert_eq!(rounds, 1, "threads={threads}");
            let heard: Vec<NodeId> = polls.concat().iter().map(|&(from, _)| from).collect();
            assert_eq!(heard, expected, "threads={threads}");
        }

        let plan = FaultPlan::new(7)
            .with_latency(2)
            .with_dup_ppm(400_000)
            .with_stragglers(1_000_000, 6);
        let slot = |from: NodeId| expected.iter().position(|&v| v == from).unwrap();
        let polls = |threads| {
            let config = SimConfig::for_graph(&g).with_threads(threads);
            run(config.with_fault(plan), 3).1
        };
        let faulty = polls(1);
        assert_eq!(polls(2), faulty, "threads=2");
        assert_eq!(polls(3), faulty, "threads=3");
        let mut seen = std::collections::BTreeSet::new();
        let mut mixed_with_duplicate = false;
        for poll in &faulty {
            let mut sorted = poll.clone();
            sorted.sort_by_key(|&(from, posted)| (slot(from), posted));
            assert_eq!(*poll, sorted, "a poll reads by slot, then posting round");
            for pair in poll.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                mixed_with_duplicate |=
                    a.0 == b.0 && a.1 != b.1 && (seen.contains(&a) || seen.contains(&b));
            }
            seen.extend(poll.iter().copied());
        }
        assert!(
            mixed_with_duplicate,
            "some poll holds a duplicate beside a copy one slot posted in another round"
        );
    }

    #[test]
    fn trace_records_per_round_deliveries() {
        let g = generators::path(6);
        for threads in [1usize, 3] {
            let sim = Simulator::new(
                &g,
                SimConfig::for_graph(&g).with_trace().with_threads(threads),
            );
            let outcome = sim
                .run(|_| FloodOnce {
                    received: 0,
                    started: false,
                })
                .unwrap();
            // One round, all 2m messages delivered in it, one bit each.
            assert_eq!(outcome.trace.len(), 1);
            assert_eq!(outcome.trace[0].round, 1);
            assert_eq!(outcome.trace[0].messages, 2 * g.edge_count() as u64);
            assert_eq!(outcome.trace[0].bits, outcome.stats.total_bits);
            // The trace totals always reconcile with the aggregate stats.
            let traced: u64 = outcome.trace.iter().map(|t| t.messages).sum();
            assert_eq!(traced, outcome.stats.messages);
        }
    }

    #[test]
    fn trace_is_empty_when_disabled() {
        let g = generators::path(6);
        let sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let outcome = sim
            .run(|_| FloodOnce {
                received: 0,
                started: false,
            })
            .unwrap();
        assert!(outcome.trace.is_empty());
    }

    /// A protocol panic must propagate out of a multi-shard run as a panic
    /// (not a barrier deadlock): each shard catches it, every shard stops
    /// at the failed phase, and the payload is re-raised on the caller's
    /// thread.
    #[test]
    fn protocol_panics_propagate_from_the_sharded_engine() {
        #[derive(Debug)]
        struct Panicky {
            id: usize,
        }
        impl NodeProtocol for Panicky {
            type Message = ();
            fn init(&mut self, ctx: &NodeContext<'_>, out: &mut Vec<Outgoing<()>>) {
                out.extend(ctx.neighbor_ids().iter().map(|&v| Outgoing::new(v, ())));
            }
            fn on_round(
                &mut self,
                _: &NodeContext<'_>,
                _: u64,
                _: &[Incoming<()>],
                _: &mut Vec<Outgoing<()>>,
            ) {
                if self.id == 5 {
                    panic!("protocol invariant violated at node {}", self.id);
                }
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = generators::cycle(8);
        let sim = Simulator::new(&g, SimConfig::for_graph(&g).with_threads(4));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = sim.run(|ctx| Panicky {
                id: ctx.node.index(),
            });
        }))
        .expect_err("the protocol panic must resurface");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("protocol invariant violated"), "{msg}");
    }

    #[test]
    fn config_for_graph_scales_with_log_n() {
        let small = SimConfig::for_graph(&generators::path(4));
        let large = SimConfig::for_graph(&generators::grid(32, 32));
        assert!(large.bandwidth_bits > small.bandwidth_bits);
        assert!(large.max_rounds > small.max_rounds);
    }
}
