//! Determinism-under-faults properties: a seeded [`FaultPlan`] must
//! produce byte-identical `SimStats`, `RoundTrace` sequences, and final
//! node states for every shard count — fault draws are keyed by
//! (plan, edge/slot/node, round), never by which thread executes them —
//! and a plan with every knob at zero must be indistinguishable from no
//! plan at all.

use proptest::prelude::*;

use lcs_congest::{
    FaultPlan, Incoming, NodeContext, NodeProtocol, Outgoing, SimConfig, SimOutcome, Simulator,
};
use lcs_graph::{generators, Graph};

/// One of the generator families.
fn family_graph(which: usize, size: usize, seed: u64) -> Graph {
    match which % 4 {
        0 => generators::grid(size, size),
        1 => generators::torus(size, size),
        2 => generators::caterpillar(4 * size, 2),
        _ => generators::random_connected(size * size, size * size, seed),
    }
}

/// The gnarly token-relay protocol from `determinism.rs`, reused here
/// because it exercises every scheduling feature the fault layer must
/// reroute: multi-round chatter, timed wake-ups, and nodes going
/// quiescent and being woken again.
#[derive(Debug, Clone)]
struct DelayedRelay {
    id: usize,
    relays_left: u32,
    received: u64,
    checksum: u64,
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
            if self.pending.is_none() && self.relays_left > 0 && msg.msg.1 < 6 {
                let delay = 1 + (self.id as u64 % 4);
                self.pending = Some((round + delay, msg.msg.1 + 1));
            }
        }
        if let Some((due, hops)) = self.pending {
            if round >= due {
                self.pending = None;
                self.relays_left = self.relays_left.saturating_sub(1);
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
        self.pending.map(|(due, _)| due.max(now + 1))
    }
}

fn run_faulty(
    graph: &Graph,
    threads: usize,
    relays: u32,
    fault: Option<FaultPlan>,
) -> SimOutcome<DelayedRelay> {
    let mut config = SimConfig::for_graph(graph)
        .with_trace()
        .with_threads(threads);
    // Latency and straggler schedules stretch the round count well past
    // the fault-free budget; the sweep below stays tiny, so a flat cap is
    // plenty (satellite: the budget must scale with the plan, which the
    // dist layer does via `FaultPlan::round_stretch`).
    config.max_rounds = 200_000;
    if let Some(plan) = fault {
        config = config.with_fault(plan);
    }
    let sim = Simulator::new(graph, config);
    sim.run(|ctx| DelayedRelay::new(ctx.node.index(), relays))
        .expect("the relay protocol respects the CONGEST constraints")
}

fn assert_same(a: &SimOutcome<DelayedRelay>, b: &SimOutcome<DelayedRelay>) {
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.trace, b.trace);
    for (x, y) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(x.received, y.received);
        assert_eq!(x.checksum, y.checksum);
        assert_eq!(x.relays_left, y.relays_left);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A seeded plan with every fault class live produces identical
    /// outcomes at S = 1 and at every shard count S ≥ 2.
    #[test]
    fn faulty_run_is_shard_count_invariant(
        which in 0usize..4,
        size in 3usize..6,
        relays in 1u32..3,
        seed in 0u64..100,
        fault_seed in 0u64..100,
        latency in 0u32..3,
        loss_idx in 0usize..3,
        dup_idx in 0usize..2,
        crashes in 0u32..3,
        restart_idx in 0usize..2,
    ) {
        let loss_ppm = [0u32, 20_000, 120_000][loss_idx];
        let dup_ppm = [0u32, 50_000][dup_idx];
        let restart_after = [0u64, 5][restart_idx];
        let graph = family_graph(which, size, seed);
        let plan = FaultPlan::new(fault_seed)
            .with_latency(latency)
            .with_loss_ppm(loss_ppm)
            .with_dup_ppm(dup_ppm)
            .with_stragglers(200_000, 1 + (fault_seed as u32 % 3))
            .with_crashes(crashes, 3, restart_after);
        let reference = run_faulty(&graph, 1, relays, Some(plan));
        for threads in [2usize, 3, 8] {
            let outcome = run_faulty(&graph, threads, relays, Some(plan));
            assert_same(&outcome, &reference);
        }
        // Reruns of the same plan are byte-identical too.
        let rerun = run_faulty(&graph, 4, relays, Some(plan));
        assert_same(&rerun, &reference);
    }

    /// A plan with all knobs at zero is exactly the fault-free run, at
    /// S = 1 and at S ≥ 2.
    #[test]
    fn zero_knob_plan_matches_fault_free(
        which in 0usize..4,
        size in 3usize..7,
        relays in 1u32..4,
        seed in 0u64..100,
    ) {
        let graph = family_graph(which, size, seed);
        let plan = FaultPlan::new(seed ^ 0xdead);
        prop_assert!(!plan.active());
        for threads in [1usize, 4] {
            let plain = run_faulty(&graph, threads, relays, None);
            let zeroed = run_faulty(&graph, threads, relays, Some(plan));
            assert_same(&zeroed, &plain);
        }
    }
}

/// Loss shrinks deliveries without touching the send count; duplication
/// grows deliveries the same way. `SimStats::messages` counts sends.
#[test]
fn loss_and_duplication_move_deliveries_not_sends() {
    let graph = generators::grid(6, 6);
    let plain = run_faulty(&graph, 1, 2, None);
    let sends: u64 = plain.stats.messages;
    let delivered = |o: &SimOutcome<DelayedRelay>| o.trace.iter().map(|t| t.messages).sum::<u64>();
    assert_eq!(delivered(&plain), sends);

    let lossy = run_faulty(&graph, 1, 2, Some(FaultPlan::new(7).with_loss_ppm(400_000)));
    assert!(
        delivered(&lossy) < lossy.stats.messages,
        "40% loss must drop some deliveries"
    );

    let dupped = run_faulty(&graph, 1, 2, Some(FaultPlan::new(7).with_dup_ppm(400_000)));
    assert!(
        delivered(&dupped) > dupped.stats.messages,
        "40% duplication must add extra deliveries"
    );
}

/// A permanently crashed node receives nothing and sends nothing after
/// its crash round; with a restart it comes back with cleared state.
#[test]
fn crash_without_restart_silences_the_node() {
    let graph = generators::grid(5, 5);
    let crashed = run_faulty(&graph, 1, 2, Some(FaultPlan::new(3).with_crashes(2, 1, 0)));
    let plain = run_faulty(&graph, 1, 2, None);
    let total = |o: &SimOutcome<DelayedRelay>| o.nodes.iter().map(|n| n.received).sum::<u64>();
    assert!(total(&crashed) < total(&plain), "crashes must drop mail");

    let restarted = run_faulty(&graph, 1, 2, Some(FaultPlan::new(3).with_crashes(2, 1, 4)));
    // The restarted run is also deterministic across shard counts.
    let restarted_sharded = run_faulty(&graph, 3, 2, Some(FaultPlan::new(3).with_crashes(2, 1, 4)));
    assert_same(&restarted, &restarted_sharded);
}

/// Latency defers deliveries: with extra latency on the wire the run
/// takes strictly more rounds on a path graph, but every message still
/// arrives (no loss, no crash).
#[test]
fn latency_inflates_rounds_but_loses_nothing() {
    let graph = generators::caterpillar(20, 2);
    let plain = run_faulty(&graph, 1, 2, None);
    let slow = run_faulty(&graph, 1, 2, Some(FaultPlan::new(11).with_latency(3)));
    assert!(slow.stats.rounds > plain.stats.rounds);
    // Arrival timing changes what the protocol does (so send counts can
    // differ from the fault-free run), but nothing on the wire is lost:
    // every send of the faulty run is delivered.
    let delivered = |o: &SimOutcome<DelayedRelay>| o.trace.iter().map(|t| t.messages).sum::<u64>();
    assert_eq!(delivered(&slow), slow.stats.messages);
}
