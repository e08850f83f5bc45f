//! Golden simulation statistics pinning the edge-slot mailbox rewrite and
//! the fault-mode round loop.
//!
//! The fault-free values were captured by running the identical protocols
//! against the pre-refactor simulator (per-recipient `Vec` mailboxes, every
//! node polled every round; the implementation the edge-slot buffers
//! replaced, so the old code itself is gone). The fault-plan values were
//! captured on the separate serial and sharded round loops that the single
//! shard loop replaced. The contract of both rewrites is *speed, never
//! semantics*: rounds, message counts, bit counts, per-round traces, node
//! states and fault-event counters must all be byte-identical.

use lcs_congest::primitives::DistributedBfs;
use lcs_congest::{FaultPlan, Incoming, NodeContext, NodeProtocol, Outgoing, SimConfig, Simulator};
use lcs_graph::{generators, Graph, NodeId};
use lcs_obs::Obs;

#[test]
fn golden_bfs_flood_stats() {
    let g = generators::grid(7, 5);
    let outcome = DistributedBfs::run_on(&g, NodeId::new(17)).unwrap();
    assert_eq!(outcome.stats.rounds, 6);
    assert_eq!(outcome.stats.messages, 82);
    assert_eq!(outcome.stats.total_bits, 2624);
    assert_eq!(outcome.stats.max_message_bits, 32);
}

/// A level-announcing flood over a path, with per-round tracing enabled:
/// the full trace is pinned, entry by entry.
#[test]
fn golden_traced_flood_on_path() {
    #[derive(Debug)]
    struct Flood {
        root: NodeId,
        level: Option<u32>,
        announce: bool,
    }
    impl NodeProtocol for Flood {
        type Message = u32;
        fn init(&mut self, ctx: &NodeContext<'_>, out: &mut Vec<Outgoing<u32>>) {
            if ctx.node == self.root {
                out.extend(ctx.neighbor_ids().iter().map(|&v| Outgoing::new(v, 0)));
            }
        }
        fn on_round(
            &mut self,
            ctx: &NodeContext<'_>,
            _round: u64,
            incoming: &[Incoming<u32>],
            out: &mut Vec<Outgoing<u32>>,
        ) {
            if self.level.is_none() {
                if let Some(m) = incoming.iter().min_by_key(|m| (m.msg, m.from)) {
                    self.level = Some(m.msg + 1);
                    self.announce = true;
                }
            }
            if self.announce {
                self.announce = false;
                let level = self.level.expect("announcing nodes have joined");
                out.extend(ctx.neighbor_ids().iter().map(|&v| Outgoing::new(v, level)));
            }
        }
        fn is_done(&self) -> bool {
            self.level.is_some() && !self.announce
        }
    }

    let g = generators::path(6);
    let sim = Simulator::new(&g, SimConfig::for_graph(&g).with_trace());
    let root = NodeId::new(0);
    let out = sim
        .run(|ctx| Flood {
            root,
            level: if ctx.node == root { Some(0) } else { None },
            announce: false,
        })
        .unwrap();
    assert_eq!(out.stats.rounds, 6);
    assert_eq!(out.stats.messages, 10);
    assert_eq!(out.stats.total_bits, 320);
    assert_eq!(out.stats.max_message_bits, 32);
    let expected: Vec<(u64, u64, u64)> = vec![
        (1, 1, 32),
        (2, 2, 64),
        (3, 2, 64),
        (4, 2, 64),
        (5, 2, 64),
        (6, 1, 32),
    ];
    let got: Vec<(u64, u64, u64)> = out
        .trace
        .iter()
        .map(|t| (t.round, t.messages, t.bits))
        .collect();
    assert_eq!(got, expected);
}

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The token-relay protocol of `fault_determinism.rs`: multi-round
/// chatter, timed wake-ups, and nodes going quiescent and being woken
/// again — every scheduling path the fault stage reroutes.
#[derive(Debug, Clone)]
struct DelayedRelay {
    id: usize,
    relays_left: u32,
    received: u64,
    checksum: u64,
    pending: Option<(u64, u32)>,
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

/// One golden line: the relay (2 relays per node, traced, flat round cap)
/// under `plan` at `threads`, as stats, trace digest, node-state digest and
/// the fault-event counters of a recording run.
fn fault_line(
    name: &str,
    graph: &Graph,
    label: &str,
    plan: Option<FaultPlan>,
    threads: usize,
) -> String {
    let mut config = SimConfig::for_graph(graph)
        .with_trace()
        .with_threads(threads)
        .with_max_rounds(200_000);
    if let Some(plan) = plan {
        config = config.with_fault(plan);
    }
    let obs = Obs::recording();
    let outcome = Simulator::new(graph, config)
        .with_recorder(obs.clone())
        .run(|ctx| DelayedRelay {
            id: ctx.node.index(),
            relays_left: 2,
            received: 0,
            checksum: 0,
            pending: None,
        })
        .expect("the relay protocol respects the CONGEST constraints");
    let mut trace = Fnv::new();
    for t in &outcome.trace {
        trace.word(t.round);
        trace.word(t.messages);
        trace.word(t.bits);
    }
    let mut nodes = Fnv::new();
    for node in &outcome.nodes {
        nodes.word(node.received);
        nodes.word(node.checksum);
        nodes.word(u64::from(node.relays_left));
    }
    let snap = obs.snapshot();
    let faults: Vec<String> = ["drops", "dups", "delays", "crash_drops", "restarts"]
        .iter()
        .map(|what| match snap.counter(&format!("fault/{what}")) {
            Some(n) => format!("{what}={n}"),
            None => format!("{what}=-"),
        })
        .collect();
    let s = outcome.stats;
    format!(
        "{name} {label} | rounds={} messages={} bits={} max={} trace={:016x} nodes={:016x} | {}",
        s.rounds,
        s.messages,
        s.total_bits,
        s.max_message_bits,
        trace.0,
        nodes.0,
        faults.join(" ")
    )
}

/// The fault goldens: four graph families × five plans — none, latency
/// only, loss plus duplication, every class at once, and permanent crashes
/// with latency — each firing its own event class. Every line must hold at
/// every shard count.
#[test]
fn golden_fault_plans() {
    let graphs = [
        ("grid8", generators::grid(8, 8)),
        ("torus7", generators::torus(7, 7)),
        ("caterpillar24", generators::caterpillar(24, 2)),
        ("random49", generators::random_connected(49, 49, 5)),
    ];
    let plans = [
        ("none", None),
        ("latency", Some(FaultPlan::new(3).with_latency(2))),
        (
            "lossy",
            Some(
                FaultPlan::new(4)
                    .with_loss_ppm(120_000)
                    .with_dup_ppm(50_000),
            ),
        ),
        (
            "mixed",
            Some(
                FaultPlan::new(5)
                    .with_latency(1)
                    .with_loss_ppm(20_000)
                    .with_dup_ppm(50_000)
                    .with_stragglers(200_000, 3)
                    .with_crashes(2, 3, 5),
            ),
        ),
        (
            "crash",
            Some(FaultPlan::new(6).with_crashes(2, 2, 0).with_latency(1)),
        ),
    ];
    for threads in [1usize, 2, 3] {
        let mut actual = Vec::new();
        for (name, graph) in &graphs {
            for (label, plan) in &plans {
                actual.push(fault_line(name, graph, label, *plan, threads));
            }
        }
        let drifted: Vec<String> = actual
            .iter()
            .zip(FAULT_GOLDEN)
            .filter(|(a, g)| a != *g)
            .map(|(a, g)| format!("  golden: {g}\n  actual: {a}"))
            .collect();
        assert!(
            drifted.is_empty() && actual.len() == FAULT_GOLDEN.len(),
            "threads {threads}: {} of {} golden lines drifted ({} lines expected):\n{}",
            drifted.len(),
            actual.len(),
            FAULT_GOLDEN.len(),
            drifted.join("\n")
        );
    }
}

const FAULT_GOLDEN: &[&str] = &[
    "grid8 none | rounds=26 messages=171 bits=10944 max=64 trace=9e2df001709877b9 nodes=18a56af1586f19c3 | drops=- dups=- delays=- crash_drops=- restarts=-",
    "grid8 latency | rounds=32 messages=176 bits=11264 max=64 trace=0ea9e921afac68ba nodes=86a932615107f905 | drops=0 dups=0 delays=115 crash_drops=0 restarts=0",
    "grid8 lossy | rounds=20 messages=166 bits=10624 max=64 trace=d5e25833b53585e8 nodes=03f582f4cc3a199b | drops=22 dups=10 delays=0 crash_drops=0 restarts=0",
    "grid8 mixed | rounds=41 messages=177 bits=11328 max=64 trace=9132f33e9f31ba97 nodes=aabd7a36c66c8439 | drops=2 dups=12 delays=89 crash_drops=0 restarts=2",
    "grid8 crash | rounds=30 messages=172 bits=11008 max=64 trace=36409bc3ba1ef738 nodes=d99aa9585f81fcbb | drops=0 dups=0 delays=86 crash_drops=5 restarts=0",
    "torus7 none | rounds=21 messages=156 bits=9984 max=64 trace=1e97ab0e95ae5cf6 nodes=05d6e1f2d315d00b | drops=- dups=- delays=- crash_drops=- restarts=-",
    "torus7 latency | rounds=25 messages=161 bits=10304 max=64 trace=ea3d89b5f64f5e0c nodes=2ce53f5ad26dec6a | drops=0 dups=0 delays=99 crash_drops=0 restarts=0",
    "torus7 lossy | rounds=21 messages=155 bits=9920 max=64 trace=4d70cd826f2c9d2f nodes=1751b38d68a7a999 | drops=15 dups=2 delays=0 crash_drops=0 restarts=0",
    "torus7 mixed | rounds=26 messages=158 bits=10112 max=64 trace=ce7dbc172559d063 nodes=88645a85ed8fa87d | drops=2 dups=6 delays=86 crash_drops=2 restarts=2",
    "torus7 crash | rounds=24 messages=152 bits=9728 max=64 trace=fc25607e00f1bfa5 nodes=dbbe431d2e3189e2 | drops=0 dups=0 delays=70 crash_drops=7 restarts=0",
    "caterpillar24 none | rounds=17 messages=122 bits=7808 max=64 trace=913ce2050a2f7d86 nodes=a4d08a57c5d53768 | drops=- dups=- delays=- crash_drops=- restarts=-",
    "caterpillar24 latency | rounds=21 messages=125 bits=8000 max=64 trace=86110b95b4b2ad0c nodes=f3a88187b34e5a9d | drops=0 dups=0 delays=78 crash_drops=0 restarts=0",
    "caterpillar24 lossy | rounds=20 messages=118 bits=7552 max=64 trace=a6152dd88a38a329 nodes=4c5bf6a46f051da6 | drops=13 dups=4 delays=0 crash_drops=0 restarts=0",
    "caterpillar24 mixed | rounds=27 messages=120 bits=7680 max=64 trace=ae767d335af0711f nodes=6f906928c8e74bdb | drops=3 dups=7 delays=57 crash_drops=0 restarts=2",
    "caterpillar24 crash | rounds=19 messages=120 bits=7680 max=64 trace=fb784bf7d8381b6f nodes=d6c72bd9c582273d | drops=0 dups=0 delays=42 crash_drops=3 restarts=0",
    "random49 none | rounds=21 messages=135 bits=8640 max=64 trace=3d2c6978c8a27f70 nodes=efa08a578cdc9ceb | drops=- dups=- delays=- crash_drops=- restarts=-",
    "random49 latency | rounds=21 messages=137 bits=8768 max=64 trace=8f6ff306811e25ad nodes=056d66121368b064 | drops=0 dups=0 delays=90 crash_drops=0 restarts=0",
    "random49 lossy | rounds=20 messages=129 bits=8256 max=64 trace=6e2bf76317d7ced6 nodes=95e6a52128d68507 | drops=14 dups=3 delays=0 crash_drops=0 restarts=0",
    "random49 mixed | rounds=30 messages=137 bits=8768 max=64 trace=d1170a94efaee460 nodes=029d725d6e6cc8bc | drops=2 dups=7 delays=75 crash_drops=0 restarts=2",
    "random49 crash | rounds=22 messages=133 bits=8512 max=64 trace=34b76b6550761653 nodes=a4870033eeb658b5 | drops=0 dups=0 delays=63 crash_drops=2 restarts=0",
];
