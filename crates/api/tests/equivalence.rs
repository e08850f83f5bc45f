//! API-equivalence suite: every `Session` query must reproduce the values
//! of the lower-layer computation it stands for — same shortcuts, same
//! statistics, same traces, same quality, same MST edges — across the
//! generator families, engine thread counts {1, 4}, and both execution
//! modes. This is the contract that lets the experiment tables (and any
//! downstream caller) rely on the façade without a single value changing.
//!
//! Construction and MST queries are pinned to golden lines recorded from
//! the standalone entry points they replaced (`doubling_search` with its
//! builder config, `FindShortcut::run`, `boruvka_mst` with its own BFS
//! tree): every attempt, the iteration count, the rounds and an FNV digest
//! of every part's shortcut edges. Verification, quality and the core
//! subroutines are still compared against direct calls. A golden drift
//! prints only the drifted lines.

use lcs_api::{
    CoreKind, DoublingSpec, ExecutionMode, Pipeline, Session, ShortcutRun, Strategy, Threads,
    TreeSpec,
};
use lcs_congest::SimConfig;
use lcs_core::construction::{core_fast, core_slow, verification, CoreFastConfig};
use lcs_dist::{verification_simulated, BlockCounting};
use lcs_graph::{generators, EdgeId, EdgeWeights, Graph, NodeId, PartId, Partition, RootedTree};
use lcs_mst::ShortcutStrategy;
use lcs_obs::Obs;

/// The instance families the suite sweeps: one representative per
/// generator shape (grid/columns, torus/balls, wheel/arcs, caterpillar,
/// random), sized so the full matrix stays fast.
fn families() -> Vec<(&'static str, Graph, Partition)> {
    let torus = generators::torus(6, 6);
    let torus_balls = generators::partitions::random_bfs_balls(&torus, 6, 2);
    let caterpillar = generators::caterpillar(12, 3);
    let cat_balls = generators::partitions::random_bfs_balls(&caterpillar, 5, 4);
    let random = generators::random_connected(60, 60, 9);
    let random_balls = generators::partitions::random_bfs_balls(&random, 8, 6);
    vec![
        (
            "grid6x6/columns",
            generators::grid(6, 6),
            generators::partitions::grid_columns(6, 6),
        ),
        ("torus6x6/balls", torus, torus_balls),
        (
            "wheel33/arcs",
            generators::wheel(33),
            generators::partitions::wheel_arcs(33, 4),
        ),
        ("caterpillar12x3/balls", caterpillar, cat_balls),
        ("random60/balls", random, random_balls),
    ]
}

fn session(graph: &Graph, threads: usize, mode: ExecutionMode, seed: u64) -> Session<'_> {
    Pipeline::on(graph)
        .threads(Threads::Fixed(threads))
        .execution(mode)
        .seed(seed)
        .build()
        .expect("equivalence families are connected")
}

/// The matrix every check runs over.
const THREADS: [usize; 2] = [1, 4];
const MODES: [ExecutionMode; 2] = [ExecutionMode::Scheduled, ExecutionMode::Simulated];

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

    fn edges(&mut self, edges: &[EdgeId]) {
        self.word(edges.len() as u64);
        for e in edges {
            self.word(e.index() as u64);
        }
    }
}

fn mode_label(mode: ExecutionMode) -> &'static str {
    match mode {
        ExecutionMode::Scheduled => "scheduled",
        ExecutionMode::Simulated => "simulated",
    }
}

/// One construction golden line: every attempt `(c, b, succeeded,
/// rounds)`, the final iteration count, whether every part ended good, the
/// charged rounds and a digest of every part's shortcut edges.
fn construction_line(family: &str, mode: ExecutionMode, label: &str, run: &ShortcutRun) -> String {
    let attempts: String = run
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
    let mut digest = Fnv::new();
    for p in 0..run.shortcut.part_count() {
        digest.edges(run.shortcut.edges_of(PartId::new(p)));
    }
    format!(
        "{family} {} | {label} | attempts={attempts} iterations={} good={} rounds={} digest={:016x}",
        mode_label(mode),
        run.report.iterations,
        run.report.all_parts_good,
        run.report.rounds_charged,
        digest.0
    )
}

/// Runs `strategy` at `seed` over every family, mode and thread count and
/// compares each line with `golden` (the lines are thread-invariant, so
/// every thread count must reproduce the same list).
fn check_construction(
    label: &str,
    strategy: impl Fn(&Partition) -> Strategy,
    seed: u64,
    golden: &[&str],
) {
    let families = families();
    for threads in THREADS {
        let mut actual = Vec::new();
        for (name, graph, partition) in &families {
            for mode in MODES {
                let s = session(graph, threads, mode, seed);
                let run = s
                    .shortcut(partition, strategy(partition))
                    .expect("families admit shortcuts");
                actual.push(construction_line(name, mode, label, &run));
            }
        }
        assert_golden(&format!("{label} t={threads}"), &actual, golden);
    }
}

fn assert_golden(context: &str, actual: &[String], golden: &[&str]) {
    let drifted: Vec<String> = actual
        .iter()
        .zip(golden)
        .filter(|(a, g)| a != *g)
        .map(|(a, g)| format!("  golden: {g}\n  actual: {a}"))
        .collect();
    assert!(
        drifted.is_empty() && actual.len() == golden.len(),
        "{context}: {} of {} golden lines drifted ({} lines expected):\n{}\nactual lines:\n{}",
        drifted.len(),
        actual.len(),
        golden.len(),
        drifted.join("\n"),
        actual.join("\n")
    );
}

#[test]
fn doubling_strategy_equals_legacy_doubling_search() {
    check_construction(
        "doubling seed=3",
        |_| Strategy::doubling(),
        3,
        DOUBLING_GOLDEN,
    );
}

#[test]
fn fixed_strategy_equals_legacy_find_shortcut_run() {
    check_construction(
        "fixed(max(parts,2),2) seed=5",
        |p| Strategy::Fixed {
            congestion: p.part_count().max(2),
            block: 2,
        },
        5,
        FIXED_GOLDEN,
    );
}

#[test]
fn slow_core_strategy_equals_legacy_slow_doubling() {
    check_construction(
        "slow-core seed=1",
        |_| Strategy::slow_core(),
        1,
        SLOW_CORE_GOLDEN,
    );
    // Custom starting guesses keep working through the slow-core strategy.
    check_construction(
        "slow-core(2,2) seed=1",
        |_| {
            Strategy::SlowCore(DoublingSpec {
                initial_congestion: 2,
                initial_block: 2,
                ..DoublingSpec::default()
            })
        },
        1,
        SLOW_CORE_2_2_GOLDEN,
    );
}

#[test]
fn doubling_spec_initial_guesses_equal_legacy_starting_at() {
    check_construction(
        "doubling(2,2) seed=4",
        |_| {
            Strategy::Doubling(DoublingSpec {
                initial_congestion: 2,
                initial_block: 2,
                ..DoublingSpec::default()
            })
        },
        4,
        DOUBLING_2_2_GOLDEN,
    );
}

/// Shortcut of the default doubling search on a default session (seed 0,
/// BFS tree from node 0, scheduled) — the instance the verification and
/// quality checks measure.
fn default_shortcut(graph: &Graph, partition: &Partition) -> lcs_api::TreeShortcut {
    Pipeline::on(graph)
        .build()
        .unwrap()
        .shortcut(partition, Strategy::doubling())
        .unwrap()
        .shortcut
}

#[test]
fn session_quality_equals_legacy_quality() {
    for (name, graph, partition) in families() {
        let shortcut = default_shortcut(&graph, &partition);
        let direct = shortcut.quality(&graph, &partition);
        for threads in THREADS {
            let s = session(&graph, threads, ExecutionMode::Scheduled, 0);
            // Quality measured twice through the same pool: warm reuse must
            // not drift.
            for round in 0..2 {
                let q = s.quality(&shortcut, &partition).unwrap();
                assert_eq!(q, direct, "{name} t={threads} round={round}");
            }
        }
    }
}

#[test]
fn session_verify_equals_legacy_verification_in_both_modes() {
    for (name, graph, partition) in families() {
        let tree = RootedTree::bfs(&graph, NodeId::new(0));
        let shortcut = default_shortcut(&graph, &partition);
        let active = vec![true; partition.part_count()];
        for threshold in [1usize, 3] {
            let scheduled_legacy =
                verification(&graph, &tree, &partition, &shortcut, threshold, &active);
            for threads in THREADS {
                let s = session(&graph, threads, ExecutionMode::Scheduled, 0);
                let run = s.verify(&shortcut, &partition, threshold).unwrap();
                assert_eq!(run.good, scheduled_legacy.good, "{name} th={threshold}");
                assert_eq!(
                    run.block_counts, scheduled_legacy.block_counts,
                    "{name} th={threshold}"
                );
                assert_eq!(
                    run.report.rounds_charged, scheduled_legacy.rounds,
                    "{name} th={threshold}"
                );

                let question = BlockCounting {
                    graph: &graph,
                    tree: &tree,
                    partition: &partition,
                    shortcut: &shortcut,
                    threshold,
                    active: &active,
                };
                let simulated_legacy = verification_simulated(
                    &question,
                    Some(SimConfig::for_graph(&graph).with_threads(threads)),
                    &Obs::off(),
                )
                .unwrap();
                let s = session(&graph, threads, ExecutionMode::Simulated, 0);
                let run = s.verify(&shortcut, &partition, threshold).unwrap();
                assert_eq!(
                    run.good, simulated_legacy.outcome.good,
                    "{name} t={threads} th={threshold}"
                );
                assert_eq!(
                    run.block_counts, simulated_legacy.outcome.block_counts,
                    "{name} t={threads} th={threshold}"
                );
                assert_eq!(
                    run.report.sim,
                    Some(simulated_legacy.stats),
                    "{name} t={threads} th={threshold}"
                );
                assert_eq!(
                    run.report.rounds_charged, simulated_legacy.outcome.rounds,
                    "{name} t={threads} th={threshold}"
                );
            }
        }
    }
}

#[test]
fn session_verify_trace_equals_legacy_trace() {
    let graph = generators::grid(5, 5);
    let partition = generators::partitions::grid_columns(5, 5);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let shortcut = default_shortcut(&graph, &partition);
    let active = vec![true; partition.part_count()];
    for threads in THREADS {
        let question = BlockCounting {
            graph: &graph,
            tree: &tree,
            partition: &partition,
            shortcut: &shortcut,
            threshold: 2,
            active: &active,
        };
        let legacy = verification_simulated(
            &question,
            Some(
                SimConfig::for_graph(&graph)
                    .with_threads(threads)
                    .with_trace(),
            ),
            &Obs::off(),
        )
        .unwrap();
        let s = Pipeline::on(&graph)
            .threads(Threads::Fixed(threads))
            .execution(ExecutionMode::Simulated)
            .trace(true)
            .build()
            .unwrap();
        let run = s.verify(&shortcut, &partition, 2).unwrap();
        assert!(!run.trace.is_empty());
        assert_eq!(run.trace, legacy.trace, "t={threads}");
    }
}

#[test]
fn session_core_equals_legacy_core_subroutines() {
    for (name, graph, partition) in families() {
        let tree = RootedTree::bfs(&graph, NodeId::new(0));
        let active = vec![true; partition.part_count()];
        let c = partition.part_count().max(2) / 2 + 1;
        let legacy_slow = core_slow(&graph, &tree, &partition, c, &active);
        let legacy_fast = core_fast(
            &graph,
            &tree,
            &partition,
            &CoreFastConfig::new(c).with_seed(8),
            &active,
        );
        for threads in THREADS {
            let s = session(&graph, threads, ExecutionMode::Scheduled, 8);
            let slow = s.core(&partition, CoreKind::Slow, c).unwrap();
            let fast = s.core(&partition, CoreKind::Fast, c).unwrap();
            assert_eq!(slow.shortcut, legacy_slow.shortcut, "{name} t={threads}");
            assert_eq!(slow.rounds, legacy_slow.rounds, "{name}");
            assert_eq!(fast.shortcut, legacy_fast.shortcut, "{name} t={threads}");
            assert_eq!(fast.rounds, legacy_fast.rounds, "{name}");
        }
    }
}

/// MST golden lines: weight, phases, an edge digest and every cost entry.
/// Simulated sessions construct every phase's shortcut with the
/// message-passing verification, so their `phase-k/shortcut` entries
/// carry the executed rounds.
#[test]
fn session_mst_equals_legacy_boruvka_in_both_modes() {
    let families = families();
    for threads in THREADS {
        let mut actual = Vec::new();
        for (name, graph, _) in &families {
            // MST runs over the whole graph; the family's partition is
            // unused here.
            let weights = EdgeWeights::random_permutation(graph, 7);
            for mode in MODES {
                let run = session(graph, threads, mode, 7)
                    .mst(&weights, ShortcutStrategy::Doubling)
                    .unwrap();
                let mut digest = Fnv::new();
                digest.edges(&run.edges);
                let cost: Vec<String> = run
                    .cost
                    .entries()
                    .iter()
                    .map(|(label, rounds)| format!("{label}={rounds}"))
                    .collect();
                actual.push(format!(
                    "{name} {} | mst doubling seed=7 | weight={} phases={} edges={:016x} cost={}",
                    mode_label(mode),
                    run.weight,
                    run.phases,
                    digest.0,
                    cost.join(",")
                ));
            }
        }
        assert_golden(&format!("mst t={threads}"), &actual, MST_GOLDEN);
    }
}

#[test]
fn provided_tree_equals_bfs_tree_from_the_same_root() {
    let graph = generators::grid(6, 6);
    let partition = generators::partitions::grid_columns(6, 6);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let via_bfs = Pipeline::on(&graph).build().unwrap();
    let via_provided = Pipeline::on(&graph)
        .tree(TreeSpec::Provided(tree))
        .build()
        .unwrap();
    let a = via_bfs.shortcut(&partition, Strategy::doubling()).unwrap();
    let b = via_provided
        .shortcut(&partition, Strategy::doubling())
        .unwrap();
    assert_eq!(a.shortcut, b.shortcut);
    assert_eq!(a.total_rounds(), b.total_rounds());
}

const DOUBLING_GOLDEN: &[&str] = &[
    "grid6x6/columns scheduled | doubling seed=3 | attempts=(1,1,true,122) iterations=1 good=true rounds=122 digest=565064e08b2bb279",
    "grid6x6/columns simulated | doubling seed=3 | attempts=(1,1,true,228) iterations=1 good=true rounds=228 digest=565064e08b2bb279",
    "torus6x6/balls scheduled | doubling seed=3 | attempts=(1,1,true,96) iterations=1 good=true rounds=96 digest=067590b0e835b234",
    "torus6x6/balls simulated | doubling seed=3 | attempts=(1,1,true,178) iterations=1 good=true rounds=178 digest=067590b0e835b234",
    "wheel33/arcs scheduled | doubling seed=3 | attempts=(1,1,true,20) iterations=1 good=true rounds=20 digest=8998aa486c4b89a5",
    "wheel33/arcs simulated | doubling seed=3 | attempts=(1,1,true,42) iterations=1 good=true rounds=42 digest=8998aa486c4b89a5",
    "caterpillar12x3/balls scheduled | doubling seed=3 | attempts=(1,1,true,118) iterations=1 good=true rounds=118 digest=2f1e3792e3c97bbd",
    "caterpillar12x3/balls simulated | doubling seed=3 | attempts=(1,1,true,200) iterations=1 good=true rounds=200 digest=2f1e3792e3c97bbd",
    "random60/balls scheduled | doubling seed=3 | attempts=(1,1,true,79) iterations=1 good=true rounds=79 digest=54d93500c4176236",
    "random60/balls simulated | doubling seed=3 | attempts=(1,1,true,149) iterations=1 good=true rounds=149 digest=54d93500c4176236",
];

const FIXED_GOLDEN: &[&str] = &[
    "grid6x6/columns scheduled | fixed(max(parts,2),2) seed=5 | attempts=(6,2,true,208) iterations=1 good=true rounds=208 digest=933243ee914c8679",
    "grid6x6/columns simulated | fixed(max(parts,2),2) seed=5 | attempts=(6,2,true,467) iterations=1 good=true rounds=467 digest=933243ee914c8679",
    "torus6x6/balls scheduled | fixed(max(parts,2),2) seed=5 | attempts=(6,2,true,150) iterations=1 good=true rounds=150 digest=e64cfa2e218efff4",
    "torus6x6/balls simulated | fixed(max(parts,2),2) seed=5 | attempts=(6,2,true,337) iterations=1 good=true rounds=337 digest=e64cfa2e218efff4",
    "wheel33/arcs scheduled | fixed(max(parts,2),2) seed=5 | attempts=(4,2,true,26) iterations=1 good=true rounds=26 digest=8998aa486c4b89a5",
    "wheel33/arcs simulated | fixed(max(parts,2),2) seed=5 | attempts=(4,2,true,69) iterations=1 good=true rounds=69 digest=8998aa486c4b89a5",
    "caterpillar12x3/balls scheduled | fixed(max(parts,2),2) seed=5 | attempts=(5,2,true,274) iterations=1 good=true rounds=274 digest=b8511e5f48f9a6cc",
    "caterpillar12x3/balls simulated | fixed(max(parts,2),2) seed=5 | attempts=(5,2,true,581) iterations=1 good=true rounds=581 digest=b8511e5f48f9a6cc",
    "random60/balls scheduled | fixed(max(parts,2),2) seed=5 | attempts=(8,2,true,177) iterations=1 good=true rounds=177 digest=2f364a80fac65832",
    "random60/balls simulated | fixed(max(parts,2),2) seed=5 | attempts=(8,2,true,412) iterations=1 good=true rounds=412 digest=2f364a80fac65832",
];

const SLOW_CORE_GOLDEN: &[&str] = &[
    "grid6x6/columns scheduled | slow-core seed=1 | attempts=(1,1,true,92) iterations=1 good=true rounds=92 digest=fd2182421eb40050",
    "grid6x6/columns simulated | slow-core seed=1 | attempts=(1,1,true,186) iterations=1 good=true rounds=186 digest=fd2182421eb40050",
    "torus6x6/balls scheduled | slow-core seed=1 | attempts=(1,1,false,772)(2,2,true,116) iterations=1 good=true rounds=888 digest=067590b0e835b234",
    "torus6x6/balls simulated | slow-core seed=1 | attempts=(1,1,false,1584)(2,2,true,279) iterations=1 good=true rounds=1863 digest=067590b0e835b234",
    "wheel33/arcs scheduled | slow-core seed=1 | attempts=(1,1,true,12) iterations=1 good=true rounds=12 digest=8998aa486c4b89a5",
    "wheel33/arcs simulated | slow-core seed=1 | attempts=(1,1,true,34) iterations=1 good=true rounds=34 digest=8998aa486c4b89a5",
    "caterpillar12x3/balls scheduled | slow-core seed=1 | attempts=(1,1,true,77) iterations=1 good=true rounds=77 digest=5bb10ab5ea228107",
    "caterpillar12x3/balls simulated | slow-core seed=1 | attempts=(1,1,true,147) iterations=1 good=true rounds=147 digest=5bb10ab5ea228107",
    "random60/balls scheduled | slow-core seed=1 | attempts=(1,1,true,115) iterations=2 good=true rounds=115 digest=87cc10f0ffde97c4",
    "random60/balls simulated | slow-core seed=1 | attempts=(1,1,true,243) iterations=2 good=true rounds=243 digest=87cc10f0ffde97c4",
];

const SLOW_CORE_2_2_GOLDEN: &[&str] = &[
    "grid6x6/columns scheduled | slow-core(2,2) seed=1 | attempts=(2,2,true,170) iterations=1 good=true rounds=170 digest=5aaaf1fc519bc5d6",
    "grid6x6/columns simulated | slow-core(2,2) seed=1 | attempts=(2,2,true,405) iterations=1 good=true rounds=405 digest=5aaaf1fc519bc5d6",
    "torus6x6/balls scheduled | slow-core(2,2) seed=1 | attempts=(2,2,true,116) iterations=1 good=true rounds=116 digest=067590b0e835b234",
    "torus6x6/balls simulated | slow-core(2,2) seed=1 | attempts=(2,2,true,279) iterations=1 good=true rounds=279 digest=067590b0e835b234",
    "wheel33/arcs scheduled | slow-core(2,2) seed=1 | attempts=(2,2,true,18) iterations=1 good=true rounds=18 digest=8998aa486c4b89a5",
    "wheel33/arcs simulated | slow-core(2,2) seed=1 | attempts=(2,2,true,61) iterations=1 good=true rounds=61 digest=8998aa486c4b89a5",
    "caterpillar12x3/balls scheduled | slow-core(2,2) seed=1 | attempts=(2,2,true,165) iterations=1 good=true rounds=165 digest=f181fc1ef0a18f86",
    "caterpillar12x3/balls simulated | slow-core(2,2) seed=1 | attempts=(2,2,true,376) iterations=1 good=true rounds=376 digest=f181fc1ef0a18f86",
    "random60/balls scheduled | slow-core(2,2) seed=1 | attempts=(2,2,true,97) iterations=1 good=true rounds=97 digest=5f368dfd07fbb372",
    "random60/balls simulated | slow-core(2,2) seed=1 | attempts=(2,2,true,236) iterations=1 good=true rounds=236 digest=5f368dfd07fbb372",
];

const DOUBLING_2_2_GOLDEN: &[&str] = &[
    "grid6x6/columns scheduled | doubling(2,2) seed=4 | attempts=(2,2,true,211) iterations=1 good=true rounds=211 digest=933243ee914c8679",
    "grid6x6/columns simulated | doubling(2,2) seed=4 | attempts=(2,2,true,470) iterations=1 good=true rounds=470 digest=933243ee914c8679",
    "torus6x6/balls scheduled | doubling(2,2) seed=4 | attempts=(2,2,true,153) iterations=1 good=true rounds=153 digest=e64cfa2e218efff4",
    "torus6x6/balls simulated | doubling(2,2) seed=4 | attempts=(2,2,true,340) iterations=1 good=true rounds=340 digest=e64cfa2e218efff4",
    "wheel33/arcs scheduled | doubling(2,2) seed=4 | attempts=(2,2,true,26) iterations=1 good=true rounds=26 digest=8998aa486c4b89a5",
    "wheel33/arcs simulated | doubling(2,2) seed=4 | attempts=(2,2,true,69) iterations=1 good=true rounds=69 digest=8998aa486c4b89a5",
    "caterpillar12x3/balls scheduled | doubling(2,2) seed=4 | attempts=(2,2,true,274) iterations=1 good=true rounds=274 digest=b8511e5f48f9a6cc",
    "caterpillar12x3/balls simulated | doubling(2,2) seed=4 | attempts=(2,2,true,581) iterations=1 good=true rounds=581 digest=b8511e5f48f9a6cc",
    "random60/balls scheduled | doubling(2,2) seed=4 | attempts=(2,2,true,112) iterations=1 good=true rounds=112 digest=5f368dfd07fbb372",
    "random60/balls simulated | doubling(2,2) seed=4 | attempts=(2,2,true,251) iterations=1 good=true rounds=251 digest=5f368dfd07fbb372",
];

const MST_GOLDEN: &[&str] = &[
    "grid6x6/columns scheduled | mst doubling seed=7 | weight=694 phases=11 edges=f5c08fbad401f471 cost=bfs-tree=10,phase-1/shortcut=83,phase-1/exchange-part-ids=1,phase-1/min-outgoing-edge=24,phase-1/merge=14,phase-1/termination-check=10,phase-2/shortcut=104,phase-2/exchange-part-ids=1,phase-2/min-outgoing-edge=80,phase-2/merge=42,phase-2/termination-check=10,phase-3/shortcut=102,phase-3/exchange-part-ids=1,phase-3/min-outgoing-edge=120,phase-3/merge=62,phase-3/termination-check=10,phase-4/shortcut=236,phase-4/exchange-part-ids=1,phase-4/min-outgoing-edge=112,phase-4/merge=58,phase-4/termination-check=10,phase-5/shortcut=111,phase-5/exchange-part-ids=1,phase-5/min-outgoing-edge=144,phase-5/merge=74,phase-5/termination-check=10,phase-6/shortcut=109,phase-6/exchange-part-ids=1,phase-6/min-outgoing-edge=144,phase-6/merge=74,phase-6/termination-check=10,phase-7/shortcut=122,phase-7/exchange-part-ids=1,phase-7/min-outgoing-edge=112,phase-7/merge=58,phase-7/termination-check=10,phase-8/shortcut=122,phase-8/exchange-part-ids=1,phase-8/min-outgoing-edge=112,phase-8/merge=58,phase-8/termination-check=10,phase-9/shortcut=118,phase-9/exchange-part-ids=1,phase-9/min-outgoing-edge=112,phase-9/merge=58,phase-9/termination-check=10,phase-10/shortcut=150,phase-10/exchange-part-ids=1,phase-10/min-outgoing-edge=80,phase-10/merge=42,phase-10/termination-check=10,phase-11/shortcut=142,phase-11/exchange-part-ids=1,phase-11/min-outgoing-edge=80,phase-11/merge=42,phase-11/termination-check=10",
    "grid6x6/columns simulated | mst doubling seed=7 | weight=694 phases=11 edges=f5c08fbad401f471 cost=bfs-tree=10,phase-1/shortcut=129,phase-1/exchange-part-ids=1,phase-1/min-outgoing-edge=12,phase-1/merge=8,phase-1/termination-check=10,phase-2/shortcut=174,phase-2/exchange-part-ids=1,phase-2/min-outgoing-edge=42,phase-2/merge=23,phase-2/termination-check=10,phase-3/shortcut=172,phase-3/exchange-part-ids=1,phase-3/min-outgoing-edge=64,phase-3/merge=34,phase-3/termination-check=10,phase-4/shortcut=424,phase-4/exchange-part-ids=1,phase-4/min-outgoing-edge=58,phase-4/merge=31,phase-4/termination-check=10,phase-5/shortcut=193,phase-5/exchange-part-ids=1,phase-5/min-outgoing-edge=76,phase-5/merge=40,phase-5/termination-check=10,phase-6/shortcut=191,phase-6/exchange-part-ids=1,phase-6/min-outgoing-edge=76,phase-6/merge=40,phase-6/termination-check=10,phase-7/shortcut=216,phase-7/exchange-part-ids=1,phase-7/min-outgoing-edge=58,phase-7/merge=31,phase-7/termination-check=10,phase-8/shortcut=216,phase-8/exchange-part-ids=1,phase-8/min-outgoing-edge=58,phase-8/merge=31,phase-8/termination-check=10,phase-9/shortcut=212,phase-9/exchange-part-ids=1,phase-9/min-outgoing-edge=58,phase-9/merge=31,phase-9/termination-check=10,phase-10/shortcut=280,phase-10/exchange-part-ids=1,phase-10/min-outgoing-edge=40,phase-10/merge=22,phase-10/termination-check=10,phase-11/shortcut=272,phase-11/exchange-part-ids=1,phase-11/min-outgoing-edge=40,phase-11/merge=22,phase-11/termination-check=10",
    "torus6x6/balls scheduled | mst doubling seed=7 | weight=715 phases=11 edges=a476424c4a0125f5 cost=bfs-tree=6,phase-1/shortcut=66,phase-1/exchange-part-ids=1,phase-1/min-outgoing-edge=24,phase-1/merge=14,phase-1/termination-check=6,phase-2/shortcut=64,phase-2/exchange-part-ids=1,phase-2/min-outgoing-edge=48,phase-2/merge=26,phase-2/termination-check=6,phase-3/shortcut=75,phase-3/exchange-part-ids=1,phase-3/min-outgoing-edge=64,phase-3/merge=34,phase-3/termination-check=6,phase-4/shortcut=75,phase-4/exchange-part-ids=1,phase-4/min-outgoing-edge=96,phase-4/merge=50,phase-4/termination-check=6,phase-5/shortcut=76,phase-5/exchange-part-ids=1,phase-5/min-outgoing-edge=96,phase-5/merge=50,phase-5/termination-check=6,phase-6/shortcut=76,phase-6/exchange-part-ids=1,phase-6/min-outgoing-edge=96,phase-6/merge=50,phase-6/termination-check=6,phase-7/shortcut=87,phase-7/exchange-part-ids=1,phase-7/min-outgoing-edge=120,phase-7/merge=62,phase-7/termination-check=6,phase-8/shortcut=86,phase-8/exchange-part-ids=1,phase-8/min-outgoing-edge=120,phase-8/merge=62,phase-8/termination-check=6,phase-9/shortcut=98,phase-9/exchange-part-ids=1,phase-9/min-outgoing-edge=144,phase-9/merge=74,phase-9/termination-check=6,phase-10/shortcut=96,phase-10/exchange-part-ids=1,phase-10/min-outgoing-edge=48,phase-10/merge=26,phase-10/termination-check=6,phase-11/shortcut=89,phase-11/exchange-part-ids=1,phase-11/min-outgoing-edge=48,phase-11/merge=26,phase-11/termination-check=6",
    "torus6x6/balls simulated | mst doubling seed=7 | weight=715 phases=11 edges=a476424c4a0125f5 cost=bfs-tree=6,phase-1/shortcut=112,phase-1/exchange-part-ids=1,phase-1/min-outgoing-edge=12,phase-1/merge=8,phase-1/termination-check=6,phase-2/shortcut=110,phase-2/exchange-part-ids=1,phase-2/min-outgoing-edge=26,phase-2/merge=15,phase-2/termination-check=6,phase-3/shortcut=133,phase-3/exchange-part-ids=1,phase-3/min-outgoing-edge=34,phase-3/merge=19,phase-3/termination-check=6,phase-4/shortcut=133,phase-4/exchange-part-ids=1,phase-4/min-outgoing-edge=52,phase-4/merge=28,phase-4/termination-check=6,phase-5/shortcut=134,phase-5/exchange-part-ids=1,phase-5/min-outgoing-edge=52,phase-5/merge=28,phase-5/termination-check=6,phase-6/shortcut=134,phase-6/exchange-part-ids=1,phase-6/min-outgoing-edge=52,phase-6/merge=28,phase-6/termination-check=6,phase-7/shortcut=157,phase-7/exchange-part-ids=1,phase-7/min-outgoing-edge=64,phase-7/merge=34,phase-7/termination-check=6,phase-8/shortcut=156,phase-8/exchange-part-ids=1,phase-8/min-outgoing-edge=64,phase-8/merge=34,phase-8/termination-check=6,phase-9/shortcut=180,phase-9/exchange-part-ids=1,phase-9/min-outgoing-edge=76,phase-9/merge=40,phase-9/termination-check=6,phase-10/shortcut=178,phase-10/exchange-part-ids=1,phase-10/min-outgoing-edge=24,phase-10/merge=14,phase-10/termination-check=6,phase-11/shortcut=171,phase-11/exchange-part-ids=1,phase-11/min-outgoing-edge=24,phase-11/merge=14,phase-11/termination-check=6",
    "wheel33/arcs scheduled | mst doubling seed=7 | weight=664 phases=10 edges=2181ed4442e02959 cost=bfs-tree=1,phase-1/shortcut=20,phase-1/exchange-part-ids=1,phase-1/min-outgoing-edge=8,phase-1/merge=6,phase-1/termination-check=1,phase-2/shortcut=20,phase-2/exchange-part-ids=1,phase-2/min-outgoing-edge=8,phase-2/merge=6,phase-2/termination-check=1,phase-3/shortcut=20,phase-3/exchange-part-ids=1,phase-3/min-outgoing-edge=8,phase-3/merge=6,phase-3/termination-check=1,phase-4/shortcut=20,phase-4/exchange-part-ids=1,phase-4/min-outgoing-edge=8,phase-4/merge=6,phase-4/termination-check=1,phase-5/shortcut=20,phase-5/exchange-part-ids=1,phase-5/min-outgoing-edge=8,phase-5/merge=6,phase-5/termination-check=1,phase-6/shortcut=20,phase-6/exchange-part-ids=1,phase-6/min-outgoing-edge=8,phase-6/merge=6,phase-6/termination-check=1,phase-7/shortcut=20,phase-7/exchange-part-ids=1,phase-7/min-outgoing-edge=8,phase-7/merge=6,phase-7/termination-check=1,phase-8/shortcut=20,phase-8/exchange-part-ids=1,phase-8/min-outgoing-edge=8,phase-8/merge=6,phase-8/termination-check=1,phase-9/shortcut=20,phase-9/exchange-part-ids=1,phase-9/min-outgoing-edge=8,phase-9/merge=6,phase-9/termination-check=1,phase-10/shortcut=20,phase-10/exchange-part-ids=1,phase-10/min-outgoing-edge=8,phase-10/merge=6,phase-10/termination-check=1",
    "wheel33/arcs simulated | mst doubling seed=7 | weight=664 phases=10 edges=2181ed4442e02959 cost=bfs-tree=1,phase-1/shortcut=42,phase-1/exchange-part-ids=1,phase-1/min-outgoing-edge=4,phase-1/merge=4,phase-1/termination-check=1,phase-2/shortcut=42,phase-2/exchange-part-ids=1,phase-2/min-outgoing-edge=4,phase-2/merge=4,phase-2/termination-check=1,phase-3/shortcut=42,phase-3/exchange-part-ids=1,phase-3/min-outgoing-edge=4,phase-3/merge=4,phase-3/termination-check=1,phase-4/shortcut=42,phase-4/exchange-part-ids=1,phase-4/min-outgoing-edge=4,phase-4/merge=4,phase-4/termination-check=1,phase-5/shortcut=42,phase-5/exchange-part-ids=1,phase-5/min-outgoing-edge=4,phase-5/merge=4,phase-5/termination-check=1,phase-6/shortcut=42,phase-6/exchange-part-ids=1,phase-6/min-outgoing-edge=4,phase-6/merge=4,phase-6/termination-check=1,phase-7/shortcut=42,phase-7/exchange-part-ids=1,phase-7/min-outgoing-edge=4,phase-7/merge=4,phase-7/termination-check=1,phase-8/shortcut=42,phase-8/exchange-part-ids=1,phase-8/min-outgoing-edge=4,phase-8/merge=4,phase-8/termination-check=1,phase-9/shortcut=42,phase-9/exchange-part-ids=1,phase-9/min-outgoing-edge=4,phase-9/merge=4,phase-9/termination-check=1,phase-10/shortcut=42,phase-10/exchange-part-ids=1,phase-10/min-outgoing-edge=4,phase-10/merge=4,phase-10/termination-check=1",
    "caterpillar12x3/balls scheduled | mst doubling seed=7 | weight=1128 phases=11 edges=35ce646dffc13825 cost=bfs-tree=12,phase-1/shortcut=53,phase-1/exchange-part-ids=1,phase-1/min-outgoing-edge=8,phase-1/merge=6,phase-1/termination-check=12,phase-2/shortcut=94,phase-2/exchange-part-ids=1,phase-2/min-outgoing-edge=32,phase-2/merge=18,phase-2/termination-check=12,phase-3/shortcut=95,phase-3/exchange-part-ids=1,phase-3/min-outgoing-edge=32,phase-3/merge=18,phase-3/termination-check=12,phase-4/shortcut=105,phase-4/exchange-part-ids=1,phase-4/min-outgoing-edge=40,phase-4/merge=22,phase-4/termination-check=12,phase-5/shortcut=104,phase-5/exchange-part-ids=1,phase-5/min-outgoing-edge=80,phase-5/merge=42,phase-5/termination-check=12,phase-6/shortcut=116,phase-6/exchange-part-ids=1,phase-6/min-outgoing-edge=96,phase-6/merge=50,phase-6/termination-check=12,phase-7/shortcut=118,phase-7/exchange-part-ids=1,phase-7/min-outgoing-edge=96,phase-7/merge=50,phase-7/termination-check=12,phase-8/shortcut=118,phase-8/exchange-part-ids=1,phase-8/min-outgoing-edge=96,phase-8/merge=50,phase-8/termination-check=12,phase-9/shortcut=141,phase-9/exchange-part-ids=1,phase-9/min-outgoing-edge=128,phase-9/merge=66,phase-9/termination-check=12,phase-10/shortcut=138,phase-10/exchange-part-ids=1,phase-10/min-outgoing-edge=128,phase-10/merge=66,phase-10/termination-check=12,phase-11/shortcut=179,phase-11/exchange-part-ids=1,phase-11/min-outgoing-edge=96,phase-11/merge=50,phase-11/termination-check=12",
    "caterpillar12x3/balls simulated | mst doubling seed=7 | weight=1128 phases=11 edges=35ce646dffc13825 cost=bfs-tree=12,phase-1/shortcut=75,phase-1/exchange-part-ids=1,phase-1/min-outgoing-edge=4,phase-1/merge=4,phase-1/termination-check=12,phase-2/shortcut=152,phase-2/exchange-part-ids=1,phase-2/min-outgoing-edge=16,phase-2/merge=10,phase-2/termination-check=12,phase-3/shortcut=153,phase-3/exchange-part-ids=1,phase-3/min-outgoing-edge=16,phase-3/merge=10,phase-3/termination-check=12,phase-4/shortcut=175,phase-4/exchange-part-ids=1,phase-4/min-outgoing-edge=20,phase-4/merge=12,phase-4/termination-check=12,phase-5/shortcut=174,phase-5/exchange-part-ids=1,phase-5/min-outgoing-edge=42,phase-5/merge=23,phase-5/termination-check=12,phase-6/shortcut=198,phase-6/exchange-part-ids=1,phase-6/min-outgoing-edge=50,phase-6/merge=27,phase-6/termination-check=12,phase-7/shortcut=200,phase-7/exchange-part-ids=1,phase-7/min-outgoing-edge=50,phase-7/merge=27,phase-7/termination-check=12,phase-8/shortcut=200,phase-8/exchange-part-ids=1,phase-8/min-outgoing-edge=50,phase-8/merge=27,phase-8/termination-check=12,phase-9/shortcut=247,phase-9/exchange-part-ids=1,phase-9/min-outgoing-edge=66,phase-9/merge=35,phase-9/termination-check=12,phase-10/shortcut=244,phase-10/exchange-part-ids=1,phase-10/min-outgoing-edge=66,phase-10/merge=35,phase-10/termination-check=12,phase-11/shortcut=333,phase-11/exchange-part-ids=1,phase-11/min-outgoing-edge=48,phase-11/merge=26,phase-11/termination-check=12",
    "random60/balls scheduled | mst doubling seed=7 | weight=2091 phases=13 edges=55eb736ed8ba8253 cost=bfs-tree=5,phase-1/shortcut=62,phase-1/exchange-part-ids=1,phase-1/min-outgoing-edge=24,phase-1/merge=14,phase-1/termination-check=5,phase-2/shortcut=71,phase-2/exchange-part-ids=1,phase-2/min-outgoing-edge=96,phase-2/merge=50,phase-2/termination-check=5,phase-3/shortcut=70,phase-3/exchange-part-ids=1,phase-3/min-outgoing-edge=96,phase-3/merge=50,phase-3/termination-check=5,phase-4/shortcut=136,phase-4/exchange-part-ids=1,phase-4/min-outgoing-edge=96,phase-4/merge=50,phase-4/termination-check=5,phase-5/shortcut=133,phase-5/exchange-part-ids=1,phase-5/min-outgoing-edge=96,phase-5/merge=50,phase-5/termination-check=5,phase-6/shortcut=133,phase-6/exchange-part-ids=1,phase-6/min-outgoing-edge=64,phase-6/merge=34,phase-6/termination-check=5,phase-7/shortcut=80,phase-7/exchange-part-ids=1,phase-7/min-outgoing-edge=120,phase-7/merge=62,phase-7/termination-check=5,phase-8/shortcut=68,phase-8/exchange-part-ids=1,phase-8/min-outgoing-edge=96,phase-8/merge=50,phase-8/termination-check=5,phase-9/shortcut=68,phase-9/exchange-part-ids=1,phase-9/min-outgoing-edge=96,phase-9/merge=50,phase-9/termination-check=5,phase-10/shortcut=68,phase-10/exchange-part-ids=1,phase-10/min-outgoing-edge=96,phase-10/merge=50,phase-10/termination-check=5,phase-11/shortcut=90,phase-11/exchange-part-ids=1,phase-11/min-outgoing-edge=48,phase-11/merge=26,phase-11/termination-check=5,phase-12/shortcut=76,phase-12/exchange-part-ids=1,phase-12/min-outgoing-edge=40,phase-12/merge=22,phase-12/termination-check=5,phase-13/shortcut=76,phase-13/exchange-part-ids=1,phase-13/min-outgoing-edge=40,phase-13/merge=22,phase-13/termination-check=5",
    "random60/balls simulated | mst doubling seed=7 | weight=2091 phases=13 edges=55eb736ed8ba8253 cost=bfs-tree=5,phase-1/shortcut=108,phase-1/exchange-part-ids=1,phase-1/min-outgoing-edge=12,phase-1/merge=8,phase-1/termination-check=5,phase-2/shortcut=129,phase-2/exchange-part-ids=1,phase-2/min-outgoing-edge=52,phase-2/merge=28,phase-2/termination-check=5,phase-3/shortcut=128,phase-3/exchange-part-ids=1,phase-3/min-outgoing-edge=52,phase-3/merge=28,phase-3/termination-check=5,phase-4/shortcut=252,phase-4/exchange-part-ids=1,phase-4/min-outgoing-edge=52,phase-4/merge=28,phase-4/termination-check=5,phase-5/shortcut=249,phase-5/exchange-part-ids=1,phase-5/min-outgoing-edge=52,phase-5/merge=28,phase-5/termination-check=5,phase-6/shortcut=249,phase-6/exchange-part-ids=1,phase-6/min-outgoing-edge=34,phase-6/merge=19,phase-6/termination-check=5,phase-7/shortcut=150,phase-7/exchange-part-ids=1,phase-7/min-outgoing-edge=64,phase-7/merge=34,phase-7/termination-check=5,phase-8/shortcut=126,phase-8/exchange-part-ids=1,phase-8/min-outgoing-edge=52,phase-8/merge=28,phase-8/termination-check=5,phase-9/shortcut=126,phase-9/exchange-part-ids=1,phase-9/min-outgoing-edge=52,phase-9/merge=28,phase-9/termination-check=5,phase-10/shortcut=126,phase-10/exchange-part-ids=1,phase-10/min-outgoing-edge=52,phase-10/merge=28,phase-10/termination-check=5,phase-11/shortcut=172,phase-11/exchange-part-ids=1,phase-11/min-outgoing-edge=24,phase-11/merge=14,phase-11/termination-check=5,phase-12/shortcut=146,phase-12/exchange-part-ids=1,phase-12/min-outgoing-edge=20,phase-12/merge=12,phase-12/termination-check=5,phase-13/shortcut=146,phase-13/exchange-part-ids=1,phase-13/min-outgoing-edge=20,phase-13/merge=12,phase-13/termination-check=5",
];
