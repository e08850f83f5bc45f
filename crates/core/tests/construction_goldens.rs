//! Goldens and oracles for scheduled construction.
//!
//! Two kinds of checks pin `core_fast`, `core_slow`, `verification`, the
//! doubling search and the Lemma 2 schedule:
//!
//! * **goldens** — rounds plus an FNV digest of every `edges_of`, every
//!   `parts_on_edge` and the unusable mask on fixed instances, and the
//!   E3 routing families under every priority. The values were recorded
//!   from the per-node-collection implementation the oracles below copy.
//! * **oracles** — test-only copies of that implementation (`BTreeSet`
//!   CoreFast, list-per-node CoreSlow, verification on per-part blocks
//!   grown by BFS, heap-per-node convergecast), written on the public API
//!   and compared field by field against the library on random instances.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use lcs_api::{Pipeline, Strategy};
use lcs_core::construction::{
    core_fast, core_slow, verification, CoreFastConfig, CoreOutcome, VerificationOutcome,
};
use lcs_core::routing::{
    convergecast_rounds, PartRouter, RoutingPriority, RoutingSchedule, SubtreeSpec,
};
use lcs_core::TreeShortcut;
use lcs_graph::{generators, EdgeId, Graph, NodeId, PartId, Partition, RootedTree};

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

fn shortcut_digest(graph: &Graph, shortcut: &TreeShortcut, unusable: &[bool]) -> u64 {
    let mut h = Fnv::new();
    for p in 0..shortcut.part_count() {
        let edges = shortcut.edges_of(PartId::new(p));
        h.word(edges.len() as u64);
        for e in edges {
            h.word(e.index() as u64);
        }
    }
    for e in graph.edge_ids() {
        let parts = shortcut.parts_on_edge(e);
        h.word(parts.len() as u64);
        for p in parts {
            h.word(p.index() as u64);
        }
    }
    for &u in unusable {
        h.word(u64::from(u));
    }
    h.0
}

fn verdict_digest(outcome: &VerificationOutcome) -> u64 {
    let mut h = Fnv::new();
    for (&good, &count) in outcome.good.iter().zip(&outcome.block_counts) {
        h.word(u64::from(good));
        h.word(count as u64);
    }
    h.0
}

/// The golden instances: the serve-build torus corpus shapes, a planar
/// grid, the all-singletons extreme and the lower-bound family.
fn golden_instances() -> Vec<(String, Graph, Partition)> {
    let mut out = Vec::new();
    for seed in 31..=34u64 {
        let g = generators::torus(16, 16);
        let p = generators::partitions::random_bfs_balls(&g, 16, seed);
        out.push((format!("torus16 balls{seed}"), g, p));
    }
    out.push((
        "grid16 columns".to_string(),
        generators::grid(16, 16),
        generators::partitions::grid_columns(16, 16),
    ));
    let g = generators::torus(16, 16);
    let p = generators::partitions::singletons(&g);
    out.push(("torus16 singletons".to_string(), g, p));
    let (g, layout) = generators::lower_bound_graph(8, 16);
    let p = generators::partitions::lower_bound_paths(&layout);
    out.push(("lower_bound 8x16".to_string(), g, p));
    out
}

/// Every third part (offset 1) inactive.
fn partial_mask(partition: &Partition) -> Vec<bool> {
    (0..partition.part_count()).map(|i| i % 3 != 1).collect()
}

const PRIORITIES: [RoutingPriority; 3] = [
    RoutingPriority::BlockRootDepth,
    RoutingPriority::IndexOnly,
    RoutingPriority::ReverseDepth,
];

/// The E3 routing families: overlapping copies of a path and nested
/// suffixes of a deeper path.
fn e3_families() -> Vec<(String, RootedTree, Vec<SubtreeSpec>)> {
    let mut out = Vec::new();
    let graph = generators::path(200);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let all: Vec<NodeId> = graph.nodes().collect();
    for c in [1usize, 2, 4, 8, 16, 32] {
        let family = (0..c)
            .map(|_| SubtreeSpec::new(&tree, all.clone()))
            .collect();
        out.push((format!("path_200 copies={c}"), tree.clone(), family));
    }
    let graph = generators::path(240);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    for c in [8usize, 16, 32] {
        let family = (0..c)
            .map(|k| SubtreeSpec::new(&tree, (k * (240 / c)..240).map(NodeId::new).collect()))
            .collect();
        out.push((format!("path_240 suffixes={c}"), tree.clone(), family));
    }
    out
}

fn golden_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, g, p) in golden_instances() {
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let all = vec![true; p.part_count()];
        let mask = partial_mask(&p);
        for c in [1usize, 4, 64] {
            for (seed, label, active) in [(5u64, "all", &all), (9, "mask", &mask)] {
                let out = core_fast(&g, &t, &p, &CoreFastConfig::new(c).with_seed(seed), active);
                lines.push(format!(
                    "{name} | fast c={c} seed={seed} {label} | rounds={} digest={:016x}",
                    out.rounds,
                    shortcut_digest(&g, &out.shortcut, &out.unusable)
                ));
            }
        }
        for c in [1usize, 4] {
            let out = core_slow(&g, &t, &p, c, &all);
            lines.push(format!(
                "{name} | slow c={c} | rounds={} digest={:016x}",
                out.rounds,
                shortcut_digest(&g, &out.shortcut, &out.unusable)
            ));
        }
        for c in [1usize, 4] {
            let tentative = core_fast(&g, &t, &p, &CoreFastConfig::new(c).with_seed(5), &all);
            for threshold in [1usize, 3, 24] {
                for (label, active) in [("all", &all), ("mask", &mask)] {
                    let out = verification(&g, &t, &p, &tentative.shortcut, threshold, active);
                    lines.push(format!(
                        "{name} | verify fast c={c} t={threshold} {label} | rounds={} digest={:016x}",
                        out.rounds,
                        verdict_digest(&out)
                    ));
                }
            }
        }
        let session = Pipeline::on(&g)
            .seed(7)
            .build()
            .expect("golden graphs are connected");
        let run = session
            .shortcut(&p, Strategy::doubling())
            .expect("the doubling search runs");
        let attempts: Vec<String> = run
            .report
            .attempts
            .iter()
            .map(|a| {
                format!(
                    "({},{},{},{})",
                    a.congestion_guess, a.block_guess, a.succeeded, a.rounds
                )
            })
            .collect();
        lines.push(format!(
            "{name} | doubling | attempts={} iterations={} rounds={} digest={:016x}",
            attempts.join(""),
            run.report.iterations,
            run.report.rounds_charged,
            shortcut_digest(&g, &run.shortcut, &[])
        ));
    }
    for (name, tree, family) in e3_families() {
        for priority in PRIORITIES {
            let s = convergecast_rounds(&tree, &family, priority);
            lines.push(format!(
                "e3 {name} {priority:?} | rounds={} load={} deliveries={}",
                s.rounds, s.max_edge_load, s.deliveries
            ));
        }
    }
    lines
}

const GOLDEN: &[&str] = &[
    "torus16 balls31 | fast c=1 seed=5 all | rounds=76 digest=d8cb9d0719162fb1",
    "torus16 balls31 | fast c=1 seed=9 mask | rounds=76 digest=49f35c955af4bef3",
    "torus16 balls31 | fast c=4 seed=5 all | rounds=138 digest=44fb34923847bc01",
    "torus16 balls31 | fast c=4 seed=9 mask | rounds=108 digest=20014c42d7d3e614",
    "torus16 balls31 | fast c=64 seed=5 all | rounds=56 digest=44fb34923847bc01",
    "torus16 balls31 | fast c=64 seed=9 mask | rounds=54 digest=20014c42d7d3e614",
    "torus16 balls31 | slow c=1 | rounds=31 digest=4ce92bf768193618",
    "torus16 balls31 | slow c=4 | rounds=70 digest=dca0e063e63b025a",
    "torus16 balls31 | verify fast c=1 t=1 all | rounds=88 digest=7b0a536ec00df5a9",
    "torus16 balls31 | verify fast c=1 t=1 mask | rounds=70 digest=95695a7e476cc7a1",
    "torus16 balls31 | verify fast c=1 t=3 all | rounds=136 digest=affae54cf0dbe1e9",
    "torus16 balls31 | verify fast c=1 t=3 mask | rounds=106 digest=68c383a523dd8be1",
    "torus16 balls31 | verify fast c=1 t=24 all | rounds=640 digest=365ecf83c8e7e5a9",
    "torus16 balls31 | verify fast c=1 t=24 mask | rounds=484 digest=c19179c4e9339760",
    "torus16 balls31 | verify fast c=4 t=1 all | rounds=136 digest=23d3db4a449f1525",
    "torus16 balls31 | verify fast c=4 t=1 mask | rounds=118 digest=9393ed0bbbb35bc5",
    "torus16 balls31 | verify fast c=4 t=3 all | rounds=216 digest=23d3db4a449f1525",
    "torus16 balls31 | verify fast c=4 t=3 mask | rounds=186 digest=9393ed0bbbb35bc5",
    "torus16 balls31 | verify fast c=4 t=24 all | rounds=1056 digest=23d3db4a449f1525",
    "torus16 balls31 | verify fast c=4 t=24 mask | rounds=900 digest=9393ed0bbbb35bc5",
    "torus16 balls31 | doubling | attempts=(1,1,false,4403)(2,2,true,360) iterations=1 rounds=4763 digest=d8cc0314488b9234",
    "torus16 balls32 | fast c=1 seed=5 all | rounds=73 digest=48b25106107035dd",
    "torus16 balls32 | fast c=1 seed=9 mask | rounds=72 digest=518f817617320151",
    "torus16 balls32 | fast c=4 seed=5 all | rounds=116 digest=00984d53cd168c15",
    "torus16 balls32 | fast c=4 seed=9 mask | rounds=97 digest=04db05b6411dc7ba",
    "torus16 balls32 | fast c=64 seed=5 all | rounds=53 digest=00984d53cd168c15",
    "torus16 balls32 | fast c=64 seed=9 mask | rounds=53 digest=04db05b6411dc7ba",
    "torus16 balls32 | slow c=1 | rounds=30 digest=43961739edc380aa",
    "torus16 balls32 | slow c=4 | rounds=70 digest=bfd5d7bc54e0cbf0",
    "torus16 balls32 | verify fast c=1 t=1 all | rounds=82 digest=dd4de669db994045",
    "torus16 balls32 | verify fast c=1 t=1 mask | rounds=82 digest=fa124c339e56d5c1",
    "torus16 balls32 | verify fast c=1 t=3 all | rounds=126 digest=97ccb5324053e444",
    "torus16 balls32 | verify fast c=1 t=3 mask | rounds=126 digest=ce88f573f05b0980",
    "torus16 balls32 | verify fast c=1 t=24 all | rounds=588 digest=570b8b437dc51804",
    "torus16 balls32 | verify fast c=1 t=24 mask | rounds=588 digest=c9a0d5a9254af101",
    "torus16 balls32 | verify fast c=4 t=1 all | rounds=112 digest=23d3db4a449f1525",
    "torus16 balls32 | verify fast c=4 t=1 mask | rounds=112 digest=9393ed0bbbb35bc5",
    "torus16 balls32 | verify fast c=4 t=3 all | rounds=176 digest=23d3db4a449f1525",
    "torus16 balls32 | verify fast c=4 t=3 mask | rounds=176 digest=9393ed0bbbb35bc5",
    "torus16 balls32 | verify fast c=4 t=24 all | rounds=848 digest=23d3db4a449f1525",
    "torus16 balls32 | verify fast c=4 t=24 mask | rounds=848 digest=9393ed0bbbb35bc5",
    "torus16 balls32 | doubling | attempts=(1,1,false,3527)(2,2,true,339) iterations=1 rounds=3866 digest=a3231ecb197e56c5",
    "torus16 balls33 | fast c=1 seed=5 all | rounds=72 digest=c7dd5967637f9a94",
    "torus16 balls33 | fast c=1 seed=9 mask | rounds=67 digest=30103c2c74eca2da",
    "torus16 balls33 | fast c=4 seed=5 all | rounds=126 digest=065c5326ec9e0c71",
    "torus16 balls33 | fast c=4 seed=9 mask | rounds=103 digest=cc7a674ee8fa403a",
    "torus16 balls33 | fast c=64 seed=5 all | rounds=54 digest=065c5326ec9e0c71",
    "torus16 balls33 | fast c=64 seed=9 mask | rounds=53 digest=cc7a674ee8fa403a",
    "torus16 balls33 | slow c=1 | rounds=30 digest=2a9b56fe06a69268",
    "torus16 balls33 | slow c=4 | rounds=73 digest=8d3ada4f0248e7f7",
    "torus16 balls33 | verify fast c=1 t=1 all | rounds=70 digest=75973d8958d9bbef",
    "torus16 balls33 | verify fast c=1 t=1 mask | rounds=70 digest=49ad2e64c6037e29",
    "torus16 balls33 | verify fast c=1 t=3 all | rounds=106 digest=191ea4f4188726ae",
    "torus16 balls33 | verify fast c=1 t=3 mask | rounds=106 digest=7690db226ad45268",
    "torus16 balls33 | verify fast c=1 t=24 all | rounds=484 digest=8d21326aa511436f",
    "torus16 balls33 | verify fast c=1 t=24 mask | rounds=484 digest=1813764e045bcde8",
    "torus16 balls33 | verify fast c=4 t=1 all | rounds=118 digest=23d3db4a449f1525",
    "torus16 balls33 | verify fast c=4 t=1 mask | rounds=112 digest=9393ed0bbbb35bc5",
    "torus16 balls33 | verify fast c=4 t=3 all | rounds=186 digest=23d3db4a449f1525",
    "torus16 balls33 | verify fast c=4 t=3 mask | rounds=176 digest=9393ed0bbbb35bc5",
    "torus16 balls33 | verify fast c=4 t=24 all | rounds=900 digest=23d3db4a449f1525",
    "torus16 balls33 | verify fast c=4 t=24 mask | rounds=848 digest=9393ed0bbbb35bc5",
    "torus16 balls33 | doubling | attempts=(1,1,false,3359)(2,2,true,320) iterations=1 rounds=3679 digest=410058a6b97d8672",
    "torus16 balls34 | fast c=1 seed=5 all | rounds=75 digest=e2a342fcbe41e728",
    "torus16 balls34 | fast c=1 seed=9 mask | rounds=74 digest=6eaafa2ca1aabd80",
    "torus16 balls34 | fast c=4 seed=5 all | rounds=135 digest=fe9b107049e2ec3d",
    "torus16 balls34 | fast c=4 seed=9 mask | rounds=107 digest=733b79e5ec4ea412",
    "torus16 balls34 | fast c=64 seed=5 all | rounds=55 digest=fe9b107049e2ec3d",
    "torus16 balls34 | fast c=64 seed=9 mask | rounds=55 digest=733b79e5ec4ea412",
    "torus16 balls34 | slow c=1 | rounds=31 digest=733c74e0812ea399",
    "torus16 balls34 | slow c=4 | rounds=81 digest=c46b4b6999805e0b",
    "torus16 balls34 | verify fast c=1 t=1 all | rounds=76 digest=068f9ce102bd78ac",
    "torus16 balls34 | verify fast c=1 t=1 mask | rounds=76 digest=090b88916049af6c",
    "torus16 balls34 | verify fast c=1 t=3 all | rounds=116 digest=026718dc3c8914ec",
    "torus16 balls34 | verify fast c=1 t=3 mask | rounds=116 digest=5852fa2c4cbc0aed",
    "torus16 balls34 | verify fast c=1 t=24 all | rounds=536 digest=734bfb540f78fcad",
    "torus16 balls34 | verify fast c=1 t=24 mask | rounds=536 digest=a8d6c7026f87de6c",
    "torus16 balls34 | verify fast c=4 t=1 all | rounds=118 digest=23d3db4a449f1525",
    "torus16 balls34 | verify fast c=4 t=1 mask | rounds=112 digest=9393ed0bbbb35bc5",
    "torus16 balls34 | verify fast c=4 t=3 all | rounds=186 digest=23d3db4a449f1525",
    "torus16 balls34 | verify fast c=4 t=3 mask | rounds=176 digest=9393ed0bbbb35bc5",
    "torus16 balls34 | verify fast c=4 t=24 all | rounds=900 digest=23d3db4a449f1525",
    "torus16 balls34 | verify fast c=4 t=24 mask | rounds=848 digest=9393ed0bbbb35bc5",
    "torus16 balls34 | doubling | attempts=(1,1,true,1258) iterations=6 rounds=1258 digest=6debecaac21da8b6",
    "grid16 columns | fast c=1 seed=5 all | rounds=83 digest=0768c1c51b19cd9b",
    "grid16 columns | fast c=1 seed=9 mask | rounds=82 digest=d75a1c2caf888084",
    "grid16 columns | fast c=4 seed=5 all | rounds=188 digest=f8aceb328f828b9a",
    "grid16 columns | fast c=4 seed=9 mask | rounds=153 digest=302e0d441fb32084",
    "grid16 columns | fast c=64 seed=5 all | rounds=83 digest=f8aceb328f828b9a",
    "grid16 columns | fast c=64 seed=9 mask | rounds=83 digest=302e0d441fb32084",
    "grid16 columns | slow c=1 | rounds=35 digest=6270a25234b2beef",
    "grid16 columns | slow c=4 | rounds=73 digest=ded33bf01029c6b4",
    "grid16 columns | verify fast c=1 t=1 all | rounds=138 digest=23d3db4a449f1525",
    "grid16 columns | verify fast c=1 t=1 mask | rounds=138 digest=9393ed0bbbb35bc5",
    "grid16 columns | verify fast c=1 t=3 all | rounds=210 digest=23d3db4a449f1525",
    "grid16 columns | verify fast c=1 t=3 mask | rounds=210 digest=9393ed0bbbb35bc5",
    "grid16 columns | verify fast c=1 t=24 all | rounds=966 digest=23d3db4a449f1525",
    "grid16 columns | verify fast c=1 t=24 mask | rounds=966 digest=9393ed0bbbb35bc5",
    "grid16 columns | verify fast c=4 t=1 all | rounds=210 digest=23d3db4a449f1525",
    "grid16 columns | verify fast c=4 t=1 mask | rounds=210 digest=9393ed0bbbb35bc5",
    "grid16 columns | verify fast c=4 t=3 all | rounds=330 digest=23d3db4a449f1525",
    "grid16 columns | verify fast c=4 t=3 mask | rounds=330 digest=9393ed0bbbb35bc5",
    "grid16 columns | verify fast c=4 t=24 all | rounds=1590 digest=23d3db4a449f1525",
    "grid16 columns | verify fast c=4 t=24 mask | rounds=1590 digest=9393ed0bbbb35bc5",
    "grid16 columns | doubling | attempts=(1,1,true,293) iterations=1 rounds=293 digest=4ee7e5f4170d635a",
    "torus16 singletons | fast c=1 seed=5 all | rounds=72 digest=bca5b362b76934a4",
    "torus16 singletons | fast c=1 seed=9 mask | rounds=70 digest=84dbf1498df5c938",
    "torus16 singletons | fast c=4 seed=5 all | rounds=132 digest=a12172d998cf3238",
    "torus16 singletons | fast c=4 seed=9 mask | rounds=136 digest=b74b037bbfc2e05c",
    "torus16 singletons | fast c=64 seed=5 all | rounds=247 digest=60fa26d0ece2e385",
    "torus16 singletons | fast c=64 seed=9 mask | rounds=170 digest=31b09c308a71d2f8",
    "torus16 singletons | slow c=1 | rounds=31 digest=064dc95851e0bec6",
    "torus16 singletons | slow c=4 | rounds=100 digest=a12172d998cf3238",
    "torus16 singletons | verify fast c=1 t=1 all | rounds=34 digest=70a6ee0ac1b14325",
    "torus16 singletons | verify fast c=1 t=1 mask | rounds=34 digest=957097ae9724b3c5",
    "torus16 singletons | verify fast c=1 t=3 all | rounds=46 digest=70a6ee0ac1b14325",
    "torus16 singletons | verify fast c=1 t=3 mask | rounds=46 digest=957097ae9724b3c5",
    "torus16 singletons | verify fast c=1 t=24 all | rounds=172 digest=70a6ee0ac1b14325",
    "torus16 singletons | verify fast c=1 t=24 mask | rounds=172 digest=957097ae9724b3c5",
    "torus16 singletons | verify fast c=4 t=1 all | rounds=64 digest=70a6ee0ac1b14325",
    "torus16 singletons | verify fast c=4 t=1 mask | rounds=64 digest=957097ae9724b3c5",
    "torus16 singletons | verify fast c=4 t=3 all | rounds=96 digest=70a6ee0ac1b14325",
    "torus16 singletons | verify fast c=4 t=3 mask | rounds=96 digest=957097ae9724b3c5",
    "torus16 singletons | verify fast c=4 t=24 all | rounds=432 digest=70a6ee0ac1b14325",
    "torus16 singletons | verify fast c=4 t=24 mask | rounds=432 digest=957097ae9724b3c5",
    "torus16 singletons | doubling | attempts=(1,1,true,118) iterations=1 rounds=118 digest=1db321fa453de585",
    "lower_bound 8x16 | fast c=1 seed=5 all | rounds=21 digest=2c8ac2b6cacbdcc7",
    "lower_bound 8x16 | fast c=1 seed=9 mask | rounds=21 digest=3353d42544b26b57",
    "lower_bound 8x16 | fast c=4 seed=5 all | rounds=65 digest=c2af4fc51c76a1ef",
    "lower_bound 8x16 | fast c=4 seed=9 mask | rounds=47 digest=c18206075136375c",
    "lower_bound 8x16 | fast c=64 seed=5 all | rounds=30 digest=c2af4fc51c76a1ef",
    "lower_bound 8x16 | fast c=64 seed=9 mask | rounds=27 digest=c18206075136375c",
    "lower_bound 8x16 | slow c=1 | rounds=6 digest=2c8ac2b6cacbdcc7",
    "lower_bound 8x16 | slow c=4 | rounds=41 digest=c2af4fc51c76a1ef",
    "lower_bound 8x16 | verify fast c=1 t=1 all | rounds=30 digest=47f28a710d0c8ab9",
    "lower_bound 8x16 | verify fast c=1 t=1 mask | rounds=30 digest=8e3287c55929e4a9",
    "lower_bound 8x16 | verify fast c=1 t=3 all | rounds=46 digest=47f28a710d0c8ab9",
    "lower_bound 8x16 | verify fast c=1 t=3 mask | rounds=46 digest=8e3287c55929e4a9",
    "lower_bound 8x16 | verify fast c=1 t=24 all | rounds=214 digest=2210abd5ec6f29b9",
    "lower_bound 8x16 | verify fast c=1 t=24 mask | rounds=214 digest=0518286dc2ba0328",
    "lower_bound 8x16 | verify fast c=4 t=1 all | rounds=84 digest=e5dc4fed7ba79c25",
    "lower_bound 8x16 | verify fast c=4 t=1 mask | rounds=66 digest=d0c40f61d217ce85",
    "lower_bound 8x16 | verify fast c=4 t=3 all | rounds=136 digest=e5dc4fed7ba79c25",
    "lower_bound 8x16 | verify fast c=4 t=3 mask | rounds=106 digest=d0c40f61d217ce85",
    "lower_bound 8x16 | verify fast c=4 t=24 all | rounds=682 digest=e5dc4fed7ba79c25",
    "lower_bound 8x16 | verify fast c=4 t=24 mask | rounds=526 digest=d0c40f61d217ce85",
    "lower_bound 8x16 | doubling | attempts=(1,1,false,1072)(2,2,false,3136)(4,4,true,435) iterations=1 rounds=4643 digest=afadc56d28d306cf",
    "e3 path_200 copies=1 BlockRootDepth | rounds=199 load=1 deliveries=199",
    "e3 path_200 copies=1 IndexOnly | rounds=199 load=1 deliveries=199",
    "e3 path_200 copies=1 ReverseDepth | rounds=199 load=1 deliveries=199",
    "e3 path_200 copies=2 BlockRootDepth | rounds=200 load=2 deliveries=398",
    "e3 path_200 copies=2 IndexOnly | rounds=200 load=2 deliveries=398",
    "e3 path_200 copies=2 ReverseDepth | rounds=200 load=2 deliveries=398",
    "e3 path_200 copies=4 BlockRootDepth | rounds=202 load=4 deliveries=796",
    "e3 path_200 copies=4 IndexOnly | rounds=202 load=4 deliveries=796",
    "e3 path_200 copies=4 ReverseDepth | rounds=202 load=4 deliveries=796",
    "e3 path_200 copies=8 BlockRootDepth | rounds=206 load=8 deliveries=1592",
    "e3 path_200 copies=8 IndexOnly | rounds=206 load=8 deliveries=1592",
    "e3 path_200 copies=8 ReverseDepth | rounds=206 load=8 deliveries=1592",
    "e3 path_200 copies=16 BlockRootDepth | rounds=214 load=16 deliveries=3184",
    "e3 path_200 copies=16 IndexOnly | rounds=214 load=16 deliveries=3184",
    "e3 path_200 copies=16 ReverseDepth | rounds=214 load=16 deliveries=3184",
    "e3 path_200 copies=32 BlockRootDepth | rounds=230 load=32 deliveries=6368",
    "e3 path_200 copies=32 IndexOnly | rounds=230 load=32 deliveries=6368",
    "e3 path_200 copies=32 ReverseDepth | rounds=230 load=32 deliveries=6368",
    "e3 path_240 suffixes=8 BlockRootDepth | rounds=239 load=8 deliveries=1072",
    "e3 path_240 suffixes=8 IndexOnly | rounds=239 load=8 deliveries=1072",
    "e3 path_240 suffixes=8 ReverseDepth | rounds=246 load=8 deliveries=1072",
    "e3 path_240 suffixes=16 BlockRootDepth | rounds=239 load=16 deliveries=2024",
    "e3 path_240 suffixes=16 IndexOnly | rounds=239 load=16 deliveries=2024",
    "e3 path_240 suffixes=16 ReverseDepth | rounds=254 load=16 deliveries=2024",
    "e3 path_240 suffixes=32 BlockRootDepth | rounds=239 load=32 deliveries=4176",
    "e3 path_240 suffixes=32 IndexOnly | rounds=239 load=32 deliveries=4176",
    "e3 path_240 suffixes=32 ReverseDepth | rounds=270 load=32 deliveries=4176",
];

#[test]
fn construction_outputs_match_goldens() {
    let actual = golden_lines();
    let drifted: Vec<String> = actual
        .iter()
        .zip(GOLDEN)
        .filter(|(a, g)| a != *g)
        .map(|(a, g)| format!("  golden: {g}\n  actual: {a}"))
        .collect();
    assert!(
        drifted.is_empty() && actual.len() == GOLDEN.len(),
        "{} of {} golden lines drifted ({} lines expected):\n{}",
        drifted.len(),
        actual.len(),
        GOLDEN.len(),
        drifted.join("\n")
    );
}

// ---------------------------------------------------------------------
// Oracles: the per-node-collection implementation, on the public API.
// ---------------------------------------------------------------------

/// CoreFast with per-node `BTreeSet`s and a full rescan per phase-2 round.
fn oracle_core_fast(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    config: &CoreFastConfig,
    active: &[bool],
) -> CoreOutcome {
    let n = graph.node_count();
    let p_sample = config.sampling_probability(n);
    let threshold = config.unusable_threshold(n);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let sampled: Vec<bool> = (0..partition.part_count())
        .map(|i| active[i] && rng.gen_bool(p_sample))
        .collect();
    let seed_sharing_rounds =
        u64::from(tree.depth_of_tree()) + lcs_congest::bits_for_node_count(n) as u64;

    let mut unusable = vec![false; graph.edge_count()];
    let mut sampled_lists: Vec<Vec<PartId>> = vec![Vec::new(); n];
    let mut level_cost = vec![0u64; tree.depth_of_tree() as usize + 1];
    for &v in tree.nodes_bottom_up() {
        let mut list: Vec<PartId> = Vec::new();
        if let Some(p) = partition.part_of(v) {
            if sampled[p.index()] {
                list.push(p);
            }
        }
        for &child in tree.children(v) {
            let child_edge = tree.parent_edge(child).unwrap();
            if !unusable[child_edge.index()] {
                list.extend_from_slice(&sampled_lists[child.index()]);
            }
        }
        list.sort();
        list.dedup();
        if let Some(parent_edge) = tree.parent_edge(v) {
            let d = tree.depth(v) as usize;
            if list.len() >= threshold {
                unusable[parent_edge.index()] = true;
                level_cost[d] = level_cost[d].max(1);
            } else {
                level_cost[d] = level_cost[d].max(list.len().max(1) as u64);
            }
        }
        sampled_lists[v.index()] = list;
    }
    let phase1_rounds: u64 = level_cost.iter().skip(1).sum();

    let mut known: Vec<BTreeSet<PartId>> = vec![BTreeSet::new(); n];
    let mut forwarded: Vec<BTreeSet<PartId>> = vec![BTreeSet::new(); n];
    for v in graph.nodes() {
        if let Some(p) = partition.part_of(v) {
            if active[p.index()] {
                known[v.index()].insert(p);
            }
        }
    }
    let mut phase2_rounds = 0u64;
    loop {
        let mut sends: Vec<(usize, usize, PartId)> = Vec::new();
        for v in graph.nodes() {
            let Some(parent_edge) = tree.parent_edge(v) else {
                continue;
            };
            if unusable[parent_edge.index()] {
                continue;
            }
            let next = known[v.index()]
                .iter()
                .find(|id| !forwarded[v.index()].contains(*id))
                .copied();
            if let Some(id) = next {
                sends.push((v.index(), tree.parent(v).unwrap().index(), id));
            }
        }
        if sends.is_empty() {
            break;
        }
        phase2_rounds += 1;
        for (from, to, id) in sends {
            forwarded[from].insert(id);
            known[to].insert(id);
        }
    }

    let mut edge_sets: Vec<Vec<EdgeId>> = vec![Vec::new(); partition.part_count()];
    for v in graph.nodes() {
        let Some(parent_edge) = tree.parent_edge(v) else {
            continue;
        };
        if unusable[parent_edge.index()] {
            continue;
        }
        for &p in &known[v.index()] {
            edge_sets[p.index()].push(parent_edge);
        }
    }
    CoreOutcome {
        shortcut: TreeShortcut::from_edge_sets(graph, tree, partition, edge_sets).unwrap(),
        unusable,
        rounds: seed_sharing_rounds + phase1_rounds + phase2_rounds,
    }
}

/// CoreSlow with one `Vec` per node and one edge set per part.
fn oracle_core_slow(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    congestion_bound: usize,
    active: &[bool],
) -> CoreOutcome {
    let cap = 2 * congestion_bound.max(1);
    let mut edge_sets: Vec<Vec<EdgeId>> = vec![Vec::new(); partition.part_count()];
    let mut unusable = vec![false; graph.edge_count()];
    let mut lists: Vec<Vec<PartId>> = vec![Vec::new(); graph.node_count()];
    let mut level_cost = vec![0u64; tree.depth_of_tree() as usize + 1];
    for &v in tree.nodes_bottom_up() {
        let mut list: Vec<PartId> = Vec::new();
        if let Some(p) = partition.part_of(v) {
            if active[p.index()] {
                list.push(p);
            }
        }
        for &child in tree.children(v) {
            let child_edge = tree.parent_edge(child).unwrap();
            if !unusable[child_edge.index()] {
                list.extend_from_slice(&lists[child.index()]);
            }
        }
        list.sort();
        list.dedup();
        if let Some(parent_edge) = tree.parent_edge(v) {
            let d = tree.depth(v) as usize;
            if list.len() > cap {
                unusable[parent_edge.index()] = true;
                level_cost[d] = level_cost[d].max(1);
            } else {
                for &p in &list {
                    edge_sets[p.index()].push(parent_edge);
                }
                level_cost[d] = level_cost[d].max(list.len().max(1) as u64);
            }
        }
        lists[v.index()] = list;
    }
    CoreOutcome {
        shortcut: TreeShortcut::from_edge_sets(graph, tree, partition, edge_sets).unwrap(),
        unusable,
        rounds: level_cost.iter().skip(1).sum(),
    }
}

/// The Lemma 2 convergecast with one binary heap of ready subtrees per node.
fn oracle_convergecast(
    tree: &RootedTree,
    subtrees: &[SubtreeSpec],
    priority: RoutingPriority,
) -> RoutingSchedule {
    let key = |spec: &SubtreeSpec, index: usize| -> (i64, usize) {
        match priority {
            RoutingPriority::BlockRootDepth => (i64::from(spec.root_depth), index),
            RoutingPriority::IndexOnly => (0, index),
            RoutingPriority::ReverseDepth => (-i64::from(spec.root_depth), index),
        }
    };
    if subtrees.is_empty() {
        return RoutingSchedule {
            rounds: 0,
            max_edge_load: 0,
            deliveries: 0,
        };
    }
    let n = tree.node_count();
    let mut offsets = vec![0usize];
    for spec in subtrees {
        offsets.push(offsets.last().unwrap() + spec.nodes.len());
    }
    let mut pending = vec![0u32; *offsets.last().unwrap()];
    let mut edge_load = vec![0u32; n];
    let mut ready: Vec<BinaryHeap<Reverse<(i64, usize)>>> = vec![BinaryHeap::new(); n];
    let mut active: Vec<NodeId> = Vec::new();
    let mut on_active = vec![false; n];
    let mut total_to_send = 0usize;
    for (s, spec) in subtrees.iter().enumerate() {
        for (i, &v) in spec.nodes.iter().enumerate() {
            let children = tree
                .children(v)
                .iter()
                .filter(|c| spec.contains(**c))
                .count();
            pending[offsets[s] + i] = children as u32;
            if v == spec.root {
                continue;
            }
            assert!(spec.contains(tree.parent(v).unwrap()));
            edge_load[v.index()] += 1;
            total_to_send += 1;
            if children == 0 {
                ready[v.index()].push(Reverse(key(spec, s)));
                if !on_active[v.index()] {
                    on_active[v.index()] = true;
                    active.push(v);
                }
            }
        }
    }
    let max_edge_load = edge_load.iter().copied().max().unwrap_or(0) as usize;
    let (mut rounds, mut deliveries, mut sent) = (0u64, 0u64, 0usize);
    let mut deferred: Vec<(NodeId, (i64, usize))> = Vec::new();
    while sent < total_to_send {
        rounds += 1;
        assert!(!active.is_empty(), "oracle schedule stalled");
        let round_nodes = std::mem::take(&mut active);
        for &v in &round_nodes {
            let Reverse((_, s)) = ready[v.index()].pop().unwrap();
            let parent = tree.parent(v).unwrap();
            let spec = &subtrees[s];
            let pi = spec.nodes.binary_search(&parent).unwrap();
            let slot = &mut pending[offsets[s] + pi];
            *slot -= 1;
            if *slot == 0 && parent != spec.root {
                deferred.push((parent, key(spec, s)));
            }
            deliveries += 1;
            sent += 1;
        }
        for &v in &round_nodes {
            on_active[v.index()] = false;
        }
        for &v in &round_nodes {
            if !ready[v.index()].is_empty() && !on_active[v.index()] {
                on_active[v.index()] = true;
                active.push(v);
            }
        }
        for (v, k) in deferred.drain(..) {
            ready[v.index()].push(Reverse(k));
            if !on_active[v.index()] {
                on_active[v.index()] = true;
                active.push(v);
            }
        }
    }
    RoutingSchedule {
        rounds,
        max_edge_load,
        deliveries,
    }
}

/// Part `p`'s member blocks as subtrees, ascending by (root depth, root):
/// the components of `(V, H_p)` grown by BFS over `H_p`'s edges from every
/// member no earlier block covers.
fn oracle_block_components(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    shortcut: &TreeShortcut,
    p: PartId,
) -> Vec<SubtreeSpec> {
    let edges = shortcut.edges_of(p);
    let mut covered = vec![false; graph.node_count()];
    let mut blocks = Vec::new();
    for &m in partition.members(p) {
        if covered[m.index()] {
            continue;
        }
        covered[m.index()] = true;
        let mut nodes = vec![m];
        let mut next = 0;
        while let Some(&v) = nodes.get(next) {
            next += 1;
            for &e in edges {
                let edge = graph.edge(e);
                let u = match v {
                    _ if edge.u == v => edge.v,
                    _ if edge.v == v => edge.u,
                    _ => continue,
                };
                if !covered[u.index()] {
                    covered[u.index()] = true;
                    nodes.push(u);
                }
            }
        }
        blocks.push(SubtreeSpec::new(tree, nodes));
    }
    blocks.sort_by_key(|b| (b.root_depth, b.root));
    blocks
}

/// Verification from per-part BFS blocks and the oracle schedule.
fn oracle_verification(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    shortcut: &TreeShortcut,
    threshold: usize,
    active: &[bool],
) -> VerificationOutcome {
    let mut good = vec![false; partition.part_count()];
    let mut block_counts = vec![0usize; partition.part_count()];
    let mut family: Vec<SubtreeSpec> = Vec::new();
    for p in partition.parts() {
        if !active[p.index()] {
            continue;
        }
        let blocks = oracle_block_components(graph, tree, partition, shortcut, p);
        block_counts[p.index()] = blocks.len();
        good[p.index()] = blocks.len() <= threshold;
        family.extend(blocks);
    }
    let schedule = oracle_convergecast(tree, &family, RoutingPriority::BlockRootDepth);
    VerificationOutcome {
        good,
        block_counts,
        rounds: (threshold as u64 + 2) * 2 * schedule.rounds + u64::from(tree.depth_of_tree()),
    }
}

fn assert_same_core(label: &str, lib: &CoreOutcome, oracle: &CoreOutcome) {
    assert_eq!(lib.shortcut, oracle.shortcut, "{label}: shortcut");
    assert_eq!(lib.unusable, oracle.unusable, "{label}: unusable");
    assert_eq!(lib.rounds, oracle.rounds, "{label}: rounds");
}

/// The oracles reproduce the goldens' instances too, so a golden drift can
/// be told apart from an oracle drift.
#[test]
fn oracles_agree_on_golden_instances() {
    for (name, g, p) in golden_instances() {
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let all = vec![true; p.part_count()];
        for c in [1usize, 4, 64] {
            let config = CoreFastConfig::new(c).with_seed(5);
            let lib = core_fast(&g, &t, &p, &config, &all);
            let oracle = oracle_core_fast(&g, &t, &p, &config, &all);
            assert_same_core(&format!("{name} fast c={c}"), &lib, &oracle);
            let lib = core_slow(&g, &t, &p, c, &all);
            let oracle = oracle_core_slow(&g, &t, &p, c, &all);
            assert_same_core(&format!("{name} slow c={c}"), &lib, &oracle);
        }
    }
    for (name, tree, family) in e3_families() {
        for priority in PRIORITIES {
            assert_eq!(
                convergecast_rounds(&tree, &family, priority),
                oracle_convergecast(&tree, &family, priority),
                "e3 {name} {priority:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every scheduled-construction entry point equals its oracle on random
    /// connected graphs, BFS-ball partitions, congestion bounds, seeds,
    /// thresholds and active masks.
    #[test]
    fn scheduled_construction_matches_oracles(
        n in 4usize..70,
        extra in 0usize..60,
        parts in 1usize..20,
        c in 1usize..12,
        seed in 0u64..10_000,
        threshold in 1usize..6,
        mask_bits in 0u64..u64::MAX,
    ) {
        let graph = generators::random_connected(n, extra, seed);
        let tree = RootedTree::bfs(&graph, NodeId::new(0));
        let partition =
            generators::partitions::random_bfs_balls(&graph, parts.clamp(1, n), seed ^ 0x5a5a);
        let all = vec![true; partition.part_count()];
        let masked: Vec<bool> = (0..partition.part_count())
            .map(|i| (mask_bits >> (i % 64)) & 1 == 1)
            .collect();

        for active in [&all, &masked] {
            let config = CoreFastConfig::new(c).with_seed(seed);
            let fast = core_fast(&graph, &tree, &partition, &config, active);
            let oracle = oracle_core_fast(&graph, &tree, &partition, &config, active);
            prop_assert_eq!(&fast.shortcut, &oracle.shortcut);
            prop_assert_eq!(&fast.unusable, &oracle.unusable);
            prop_assert_eq!(fast.rounds, oracle.rounds);

            let slow = core_slow(&graph, &tree, &partition, c, active);
            let oracle = oracle_core_slow(&graph, &tree, &partition, c, active);
            prop_assert_eq!(&slow.shortcut, &oracle.shortcut);
            prop_assert_eq!(&slow.unusable, &oracle.unusable);
            prop_assert_eq!(slow.rounds, oracle.rounds);

            for shortcut in [&fast.shortcut, &slow.shortcut] {
                let lib = verification(&graph, &tree, &partition, shortcut, threshold, active);
                let oracle =
                    oracle_verification(&graph, &tree, &partition, shortcut, threshold, active);
                prop_assert_eq!(&lib, &oracle);
            }
        }

        // The Lemma 2 schedule of the block family under every priority,
        // and the router built on the same family.
        let fast = core_fast(&graph, &tree, &partition, &CoreFastConfig::new(c).with_seed(seed), &all);
        let specs: Vec<SubtreeSpec> = partition
            .parts()
            .flat_map(|p| oracle_block_components(&graph, &tree, &partition, &fast.shortcut, p))
            .collect();
        for priority in PRIORITIES {
            prop_assert_eq!(
                convergecast_rounds(&tree, &specs, priority),
                oracle_convergecast(&tree, &specs, priority)
            );
        }
        let router = PartRouter::new(&graph, &tree, &partition, &fast.shortcut);
        let oracle = oracle_convergecast(&tree, &specs, RoutingPriority::BlockRootDepth);
        prop_assert_eq!(router.superstep_rounds(), 2 * oracle.rounds);
        prop_assert_eq!(router.max_edge_load(), oracle.max_edge_load);
    }
}
