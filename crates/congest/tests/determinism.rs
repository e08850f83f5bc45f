//! Engine-determinism properties: on randomized instances across the four
//! generator families, the sharded engine must reproduce the serial
//! engine's `SimStats`, `RoundTrace` sequence, and final node states for
//! every shard count — including protocols that sleep on
//! [`NodeProtocol::next_wake`] timers, the scheduling feature with the most
//! cross-shard coordination surface.

use proptest::prelude::*;

use lcs_congest::{
    Incoming, NodeContext, NodeProtocol, Outgoing, SimConfig, SimOutcome, Simulator,
};
use lcs_graph::{generators, Graph, NodeId};

/// One of the generator families.
fn family_graph(which: usize, size: usize, seed: u64) -> Graph {
    match which % 4 {
        0 => generators::grid(size, size),
        1 => generators::torus(size, size),
        2 => generators::caterpillar(4 * size, 2),
        _ => generators::random_connected(size * size, size * size, seed),
    }
}

/// A deliberately gnarly protocol: every node starts a token wave, relays
/// arriving tokens with a node-dependent delay (sleeping on `next_wake`
/// until the relay round), and retires after a bounded number of relays.
/// Exercises multi-round chatter, timed wake-ups, nodes going quiescent and
/// being woken again — with per-node counters the determinism assertions
/// can compare bit for bit.
#[derive(Debug, Clone)]
struct DelayedRelay {
    id: usize,
    relays_left: u32,
    received: u64,
    checksum: u64,
    /// Pending relay: (due round, hop count of the token).
    pending: Option<(u64, u32)>,
}

impl DelayedRelay {
    fn new(id: usize, relays: u32) -> Self {
        DelayedRelay {
            id,
            relays_left: relays,
            received: 0,
            checksum: 0,
            pending: None,
        }
    }
}

impl NodeProtocol for DelayedRelay {
    type Message = (u32, u32);

    fn init(&mut self, ctx: &NodeContext<'_>, out: &mut Vec<Outgoing<(u32, u32)>>) {
        // Every third node seeds a wave towards all neighbors.
        if self.id.is_multiple_of(3) {
            out.extend(
                ctx.neighbor_ids()
                    .iter()
                    .map(|&v| Outgoing::new(v, (self.id as u32, 0))),
            );
        }
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        round: u64,
        incoming: &[Incoming<(u32, u32)>],
        out: &mut Vec<Outgoing<(u32, u32)>>,
    ) {
        for msg in incoming {
            self.received += 1;
            self.checksum = self
                .checksum
                .wrapping_mul(31)
                .wrapping_add(u64::from(msg.msg.0) ^ (round << 7) ^ msg.from.index() as u64);
            // Adopt the first token of the round as the relay candidate.
            if self.pending.is_none() && self.relays_left > 0 && msg.msg.1 < 6 {
                let delay = 1 + (self.id as u64 % 4);
                self.pending = Some((round + delay, msg.msg.1 + 1));
            }
        }
        if let Some((due, hops)) = self.pending {
            if round >= due {
                self.pending = None;
                self.relays_left = self.relays_left.saturating_sub(1);
                // Relay to the cyclically next neighbor only: keeps the
                // bandwidth budget honest and makes delivery patterns
                // depend on the timing, which is what we want to pin.
                let k = (self.id + hops as usize) % ctx.degree().max(1);
                if ctx.degree() > 0 {
                    out.push(Outgoing::new(ctx.neighbor_ids()[k], (self.id as u32, hops)));
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.pending.is_none()
    }

    fn next_wake(&self, now: u64) -> Option<u64> {
        // Sleep until the pending relay is due (the timed-wake path the
        // sharded engine must merge per shard).
        self.pending.map(|(due, _)| due.max(now + 1))
    }
}

fn run_with_threads(graph: &Graph, threads: usize, relays: u32) -> SimOutcome<DelayedRelay> {
    let sim = Simulator::new(
        graph,
        SimConfig::for_graph(graph)
            .with_trace()
            .with_threads(threads),
    );
    sim.run(|ctx| DelayedRelay::new(ctx.node.index(), relays))
        .expect("the relay protocol respects the CONGEST constraints")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Serial and sharded engines agree on stats, traces, and every
    /// per-node counter, for shard counts {1, 2, 3, 8}.
    #[test]
    fn sharded_engine_is_deterministic(
        which in 0usize..4,
        size in 3usize..7,
        relays in 1u32..4,
        seed in 0u64..200,
    ) {
        let graph = family_graph(which, size, seed);
        let reference = run_with_threads(&graph, 1, relays);
        for threads in [2usize, 3, 8] {
            let outcome = run_with_threads(&graph, threads, relays);
            prop_assert_eq!(outcome.stats, reference.stats);
            prop_assert_eq!(&outcome.trace, &reference.trace);
            for (a, b) in outcome.nodes.iter().zip(&reference.nodes) {
                prop_assert_eq!(a.received, b.received);
                prop_assert_eq!(a.checksum, b.checksum);
                prop_assert_eq!(a.relays_left, b.relays_left);
            }
        }
    }

    /// The BFS primitive (message-driven, no timers) is engine-agnostic on
    /// every family.
    #[test]
    fn bfs_primitive_is_engine_agnostic(
        which in 0usize..4,
        size in 3usize..8,
        seed in 0u64..200,
    ) {
        use lcs_congest::primitives::DistributedBfs;
        let graph = family_graph(which, size, seed);
        let root = NodeId::new(seed as usize % graph.node_count());
        let serial = Simulator::new(&graph, SimConfig::for_graph(&graph).with_threads(1));
        let reference = DistributedBfs::run(&serial, root).unwrap();
        for threads in [2usize, 3, 8] {
            let sim = Simulator::new(&graph, SimConfig::for_graph(&graph).with_threads(threads));
            let outcome = DistributedBfs::run(&sim, root).unwrap();
            prop_assert_eq!(outcome.stats, reference.stats);
            prop_assert_eq!(&outcome.depths, &reference.depths);
            prop_assert_eq!(&outcome.parents, &reference.parents);
        }
    }
}
