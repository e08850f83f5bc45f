//! Observability invariants of the round loop: the counters a recording
//! [`lcs_obs::Obs`] collects are *facts* about the execution — byte-identical
//! across shard counts — and the per-shard gauge splits fold back to exactly
//! the `SimStats` the run returned. Every shard count reports through the
//! shared `record_run` helper, so a drift between the stats plane and the
//! metrics plane is a bug this suite pins.

use lcs_congest::{Incoming, NodeContext, NodeProtocol, Outgoing, SimConfig, Simulator};
use lcs_graph::{generators, Graph};
use lcs_obs::Obs;

/// One of the generator families (the same four the determinism suite uses).
fn family_graph(which: usize, size: usize, seed: u64) -> Graph {
    match which % 4 {
        0 => generators::grid(size, size),
        1 => generators::torus(size, size),
        2 => generators::caterpillar(4 * size, 2),
        _ => generators::random_connected(size * size, size * size, seed),
    }
}

/// A small multi-round wave: every node floods a token once, relays the
/// first token it hears with a node-dependent delay. Enough chatter to make
/// the message/bit/poll counters nontrivial on every family.
#[derive(Debug, Clone)]
struct Wave {
    id: usize,
    pending: Option<(u64, u32)>,
    relayed: bool,
}

impl NodeProtocol for Wave {
    type Message = u32;

    fn init(&mut self, ctx: &NodeContext<'_>, out: &mut Vec<Outgoing<u32>>) {
        if self.id.is_multiple_of(2) {
            out.extend(
                ctx.neighbor_ids()
                    .iter()
                    .map(|&v| Outgoing::new(v, self.id as u32)),
            );
        }
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        round: u64,
        incoming: &[Incoming<u32>],
        out: &mut Vec<Outgoing<u32>>,
    ) {
        if !self.relayed && self.pending.is_none() {
            if let Some(msg) = incoming.first() {
                self.pending = Some((round + 1 + (self.id as u64 % 3), msg.msg));
            }
        }
        if let Some((due, token)) = self.pending {
            if round >= due {
                self.pending = None;
                self.relayed = true;
                if ctx.degree() > 0 {
                    let k = self.id % ctx.degree();
                    out.push(Outgoing::new(ctx.neighbor_ids()[k], token));
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

/// Runs the wave with a recording handle and returns `(stats, snapshot)`.
fn run_recorded(
    graph: &Graph,
    threads: usize,
) -> (lcs_congest::SimStats, lcs_obs::MetricsSnapshot) {
    let obs = Obs::recording();
    let sim = Simulator::new(graph, SimConfig::for_graph(graph).with_threads(threads))
        .with_recorder(obs.clone());
    let outcome = sim
        .run(|ctx| Wave {
            id: ctx.node.index(),
            pending: None,
            relayed: false,
        })
        .expect("the wave protocol respects the CONGEST constraints");
    (outcome.stats, obs.snapshot())
}

/// The per-shard gauge splits fold to exactly the returned `SimStats` (and
/// the `engine/polls` counter), for every family and shard count.
#[test]
fn shard_gauges_fold_to_sim_stats() {
    for which in 0..4 {
        let graph = family_graph(which, 5, 11 + which as u64);
        for threads in [1usize, 2, 3, 8] {
            let (stats, snap) = run_recorded(&graph, threads);
            let shards = snap.gauge("engine/shards").expect("shard count gauge") as usize;
            assert!(shards >= 1, "family {which} threads {threads}");
            let fold = |what: &str| -> u64 {
                (0..shards)
                    .map(|id| {
                        snap.gauge(&format!("engine/shard/{id}/{what}"))
                            .unwrap_or_else(|| panic!("missing shard {id} gauge {what}"))
                    })
                    .sum()
            };
            assert_eq!(
                fold("messages"),
                stats.messages,
                "family {which} threads {threads}"
            );
            assert_eq!(
                fold("bits"),
                stats.total_bits,
                "family {which} threads {threads}"
            );
            assert_eq!(
                Some(fold("polls")),
                snap.counter("engine/polls"),
                "family {which} threads {threads}"
            );
            assert_eq!(snap.counter("engine/runs"), Some(1));
            assert_eq!(snap.counter("engine/rounds"), Some(stats.rounds));
            assert_eq!(snap.counter("engine/messages"), Some(stats.messages));
            assert_eq!(snap.counter("engine/bits"), Some(stats.total_bits));
            assert_eq!(
                snap.gauge("engine/max_message_bits"),
                Some(stats.max_message_bits as u64)
            );
        }
    }
}

/// The counter half of the snapshot is byte-identical across shard counts:
/// counters record thread-invariant facts, never shard-shape.
#[test]
fn counters_are_byte_identical_across_shard_counts() {
    for which in 0..4 {
        let graph = family_graph(which, 5, 23 + which as u64);
        let (_, reference) = run_recorded(&graph, 1);
        let reference_text = reference.counters_text();
        assert!(!reference_text.is_empty());
        for threads in [2usize, 3, 8] {
            let (_, snap) = run_recorded(&graph, threads);
            assert_eq!(
                snap.counters_text(),
                reference_text,
                "family {which} threads {threads}"
            );
            assert_eq!(snap.counters_digest(), reference.counters_digest());
        }
    }
}

/// The shard-shaped probes appear exactly when a run has several shards:
/// at S = 1 nothing waits at a barrier or stages mail, so the snapshot
/// holds no barrier-wait timer, no staging-flush timer and no staged
/// gauge; at S = 3 it holds all three.
#[test]
fn shard_probes_appear_only_with_several_shards() {
    let graph = family_graph(0, 5, 0);
    let (_, single) = run_recorded(&graph, 1);
    assert_eq!(single.gauge("engine/shards"), Some(1));
    assert!(single.timer("engine/barrier_wait").is_none());
    assert!(single.timer("engine/staging_flush_size").is_none());
    assert!(single.gauge("engine/staged_messages").is_none());

    let (_, sharded) = run_recorded(&graph, 3);
    assert_eq!(sharded.gauge("engine/shards"), Some(3));
    assert!(sharded.timer("engine/barrier_wait").is_some());
    assert!(sharded.timer("engine/staging_flush_size").is_some());
    assert!(sharded.gauge("engine/staged_messages").is_some());
}
