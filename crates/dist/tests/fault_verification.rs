//! Fault-tolerant verification: under an active [`FaultPlan`] the Lemma 3
//! counting protocol must return the fault-free classification — healing
//! lost and delayed messages within an epoch via resends, and stalled
//! epochs by retrying in a later epoch — or report `Degraded`, and the
//! whole procedure must stay deterministic across engines and shard counts.

use proptest::prelude::*;

use lcs_congest::{FaultPlan, SimConfig};
use lcs_core::existential::{ancestor_shortcut, truncated_ancestor_shortcut};
use lcs_core::TreeShortcut;
use lcs_dist::{verification_simulated, BlockCounting};
use lcs_graph::{generators, Graph, LcsError, NodeId, Partition, RootedTree};
use lcs_obs::Obs;

fn grid_instance(n: usize) -> (Graph, RootedTree, Partition, TreeShortcut) {
    let graph = generators::grid(n, n);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let partition = generators::partitions::grid_columns(n, n);
    let shortcut = ancestor_shortcut(&graph, &tree, &partition);
    (graph, tree, partition, shortcut)
}

/// Regression: the epoch loop owns its round budget, so a caller
/// config with a tiny `max_rounds` plus a latency plan must still complete
/// — the cap is raised to the latency-stretched schedule, never tripped by
/// fault inflation — and, with no loss or crashes, the verdict is exactly
/// the fault-free one in one epoch.
#[test]
fn latency_plan_raises_a_tiny_round_cap() {
    let (graph, tree, partition, shortcut) = grid_instance(6);
    let active = vec![true; partition.part_count()];
    let question = BlockCounting {
        graph: &graph,
        tree: &tree,
        partition: &partition,
        shortcut: &shortcut,
        threshold: 2,
        active: &active,
    };
    let plain = verification_simulated(&question, None, &Obs::off()).unwrap();
    let cfg = SimConfig::for_graph(&graph)
        .with_max_rounds(1)
        .with_fault(FaultPlan::new(5).with_latency(2));
    let slow = verification_simulated(&question, Some(cfg), &Obs::off()).unwrap();
    assert!(slow.decisive, "latency alone must not stall verification");
    assert_eq!((slow.epochs, slow.stalls), (1, 0));
    assert_eq!(slow.outcome.good, plain.outcome.good);
    assert_eq!(slow.outcome.block_counts, plain.outcome.block_counts);
    assert!(
        slow.stats.rounds > plain.stats.rounds,
        "the stretched schedule must inflate the executed rounds"
    );
}

/// Message loss and duplication are healed by the per-poll resends (and a
/// stalled epoch, if any, by the next epoch): the final classification
/// equals the fault-free one.
#[test]
fn lossy_verification_heals_to_the_fault_free_verdict() {
    let (graph, tree, partition, shortcut) = grid_instance(8);
    let active = vec![true; partition.part_count()];
    let question = BlockCounting {
        graph: &graph,
        tree: &tree,
        partition: &partition,
        shortcut: &shortcut,
        threshold: 3,
        active: &active,
    };
    let plain = verification_simulated(&question, None, &Obs::off()).unwrap();
    let cfg = SimConfig::for_graph(&graph).with_fault(
        FaultPlan::new(11)
            .with_loss_ppm(20_000)
            .with_dup_ppm(10_000),
    );
    let obs = Obs::recording();
    let healed = verification_simulated(&question, Some(cfg), &obs)
        .expect("loss below the resend redundancy must heal");
    assert!(healed.decisive);
    assert_eq!(healed.outcome.good, plain.outcome.good);
    assert_eq!(healed.outcome.block_counts, plain.outcome.block_counts);
    let snap = obs.snapshot();
    assert_eq!(
        snap.counter("dist/verification/epochs"),
        Some(u64::from(healed.epochs))
    );
}

/// A mid-run crash with a restart heals: either within the epoch (the
/// restarted node re-floods) or by the next epoch, whose advanced round
/// offset places the whole run past the crash window.
#[test]
fn crash_with_restart_heals_across_epochs() {
    let (graph, tree, partition, shortcut) = grid_instance(6);
    let active = vec![true; partition.part_count()];
    let question = BlockCounting {
        graph: &graph,
        tree: &tree,
        partition: &partition,
        shortcut: &shortcut,
        threshold: 2,
        active: &active,
    };
    let plain = verification_simulated(&question, None, &Obs::off()).unwrap();
    let cfg = SimConfig::for_graph(&graph).with_fault(
        FaultPlan::new(3)
            .with_loss_ppm(10_000)
            .with_crashes(1, 10, 20),
    );
    let healed = verification_simulated(&question, Some(cfg), &Obs::off())
        .expect("a restarting crash must heal within epochs");
    assert!(healed.decisive);
    assert_eq!(healed.outcome.good, plain.outcome.good);
    assert_eq!(healed.outcome.block_counts, plain.outcome.block_counts);
}

/// One cell of the fault sweep: `random_bfs_balls(g, 10, balls)` on grid
/// 10×10 or torus 8×8 (BFS tree from node 0), the ancestor shortcut
/// truncated at `levels`, and plan `k·7919 + loss` with 5 % duplication and
/// latency 1. The run must return the fault-free verdicts and counts: the
/// cells below complete within the epoch budget, so `Degraded` fails too.
/// The fault-free outcome is returned for further checks.
fn assert_exact(
    torus: bool,
    balls: u64,
    levels: u32,
    threshold: usize,
    k: u64,
    loss: u32,
) -> lcs_core::construction::VerificationOutcome {
    let graph = if torus {
        generators::torus(8, 8)
    } else {
        generators::grid(10, 10)
    };
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let partition = generators::partitions::random_bfs_balls(&graph, 10, balls);
    let shortcut = truncated_ancestor_shortcut(&graph, &tree, &partition, levels);
    let active = vec![true; partition.part_count()];
    let question = BlockCounting {
        graph: &graph,
        tree: &tree,
        partition: &partition,
        shortcut: &shortcut,
        threshold,
        active: &active,
    };
    let plain = verification_simulated(&question, None, &Obs::off()).unwrap();
    let plan = FaultPlan::new(k * 7919 + u64::from(loss))
        .with_loss_ppm(loss)
        .with_dup_ppm(50_000)
        .with_latency(1);
    let cell =
        format!("torus {torus}, balls {balls}, levels {levels}, threshold {threshold}, k {k}");
    let cfg = SimConfig::for_graph(&graph).with_fault(plan);
    let out = verification_simulated(&question, Some(cfg), &Obs::off())
        .unwrap_or_else(|err| panic!("{cell}: {err}"));
    assert_eq!(out.outcome.good, plain.outcome.good, "verdicts, {cell}");
    assert_eq!(
        out.outcome.block_counts, plain.outcome.block_counts,
        "block counts, {cell}"
    );
    plain.outcome
}

/// Under heavy loss a bad part must never be undercounted into a good
/// one: grid 10×10's part 1 has more than 3 blocks, and at 40 % loss this
/// plan, without the engine's completion checks, counts it at 3 blocks
/// and reports it good.
#[test]
fn heavy_loss_never_certifies_an_undercount() {
    let plain = assert_exact(false, 2, 2, 3, 4, 400_000);
    assert!(!plain.good[1], "part 1 is bad without faults");
}

/// Sweep cells at 25 % and 40 % loss that come back wrong without the
/// engine's completion checks: a good part reported bad, a bad part
/// reported good, or right verdicts with wrong counts.
#[test]
fn lossy_sweep_cells_are_exact() {
    let cells = [
        (false, 0, 2, 2, 4, 250_000),
        (true, 1, 2, 3, 8, 250_000),
        (true, 0, 2, 3, 6, 250_000),
        (false, 1, 1, 2, 6, 400_000),
        (false, 1, 2, 2, 8, 400_000),
    ];
    for (torus, balls, levels, threshold, k, loss) in cells {
        assert_exact(torus, balls, levels, threshold, k, loss);
    }
}

/// A permanent crash (no restart) can never decide its part: every epoch
/// stalls and the call reports `Degraded` instead of a wrong verdict.
#[test]
fn a_permanent_crash_reports_indecision() {
    let (graph, tree, partition, shortcut) = grid_instance(5);
    let active = vec![true; partition.part_count()];
    let question = BlockCounting {
        graph: &graph,
        tree: &tree,
        partition: &partition,
        shortcut: &shortcut,
        threshold: 2,
        active: &active,
    };
    let cfg = SimConfig::for_graph(&graph).with_fault(FaultPlan::new(7).with_crashes(1, 0, 0));
    let obs = Obs::recording();
    let err = verification_simulated(&question, Some(cfg), &obs).unwrap_err();
    assert_eq!(
        err,
        LcsError::Degraded {
            epochs: 5,
            stalls: 5,
            reason: "fault-injected run stayed incomplete after 5 epochs".to_string(),
        }
    );
    let snap = obs.snapshot();
    assert_eq!(snap.counter("dist/verification/epochs"), Some(5));
    assert_eq!(snap.counter("dist/verification/stalls"), Some(5));
}

/// A run that needs several epochs reports all of them: the returned
/// statistics equal the recorder's engine totals over every epoch, and the
/// charged rounds are the executed rounds plus one `depth(T)` check per
/// epoch. The poll count and the counter digest pin the fault-mode
/// schedule itself, so a change that kept the traffic totals but moved one
/// poll still fails here. The verdicts and counts are the fault-free ones.
#[test]
fn every_epoch_is_reported() {
    let (graph, tree, partition, shortcut) = grid_instance(8);
    let active = vec![true; partition.part_count()];
    let question = BlockCounting {
        graph: &graph,
        tree: &tree,
        partition: &partition,
        shortcut: &shortcut,
        threshold: 3,
        active: &active,
    };
    let cfg = SimConfig::for_graph(&graph)
        .with_threads(1)
        .with_fault(FaultPlan::new(7).with_loss_ppm(300_000));
    let obs = Obs::recording();
    let out = verification_simulated(&question, Some(cfg), &obs).unwrap();
    let plain = verification_simulated(&question, None, &Obs::off()).unwrap();
    assert_eq!(out.outcome.good, plain.outcome.good);
    assert_eq!(out.outcome.block_counts, plain.outcome.block_counts);
    let snap = obs.snapshot();
    assert_eq!((out.epochs, out.stalls), (3, 2));
    assert_eq!(snap.counter("engine/runs"), Some(3));
    assert_eq!(snap.counter("engine/polls"), Some(154_139));
    assert_eq!(snap.counters_digest(), 15283790585610660878);

    assert_eq!(Some(out.stats.rounds), snap.counter("engine/rounds"));
    assert_eq!(Some(out.stats.messages), snap.counter("engine/messages"));
    assert_eq!(Some(out.stats.total_bits), snap.counter("engine/bits"));
    assert_eq!(
        Some(out.stats.max_message_bits as u64),
        snap.gauge("engine/max_message_bits")
    );
    let checks = u64::from(out.epochs) * u64::from(tree.depth_of_tree());
    assert_eq!(out.outcome.rounds, out.stats.rounds + checks);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Faulty verification is engine-agnostic: a seeded full plan produces
    /// the identical result — stats, verdicts, counts, epochs and stalls,
    /// or the same `Degraded` error — at S = 1 and at every shard count
    /// S ≥ 2.
    #[test]
    fn faulty_verification_is_engine_agnostic(
        which in 0usize..4,
        size in 4usize..6,
        parts in 2usize..6,
        threshold in 2usize..4,
        seed in 0u64..100,
        latency in 0u32..2,
        loss_idx in 0usize..3,
    ) {
        let graph = match which % 4 {
            0 => generators::grid(size, size),
            1 => generators::torus(size, size),
            2 => generators::caterpillar(4 * size, 2),
            _ => generators::random_connected(size * size, size * size, seed),
        };
        let parts = parts.clamp(1, graph.node_count());
        let partition = generators::partitions::random_bfs_balls(&graph, parts, seed ^ 0x9e37);
        let tree = RootedTree::bfs(&graph, NodeId::new(0));
        let shortcut = ancestor_shortcut(&graph, &tree, &partition);
        let active = vec![true; partition.part_count()];
        let question = BlockCounting {
            graph: &graph,
            tree: &tree,
            partition: &partition,
            shortcut: &shortcut,
            threshold,
            active: &active,
        };
        let plan = FaultPlan::new(seed ^ 0xf00d)
            .with_latency(latency)
            .with_loss_ppm([0u32, 10_000, 60_000][loss_idx])
            .with_crashes(seed as u32 % 2, 5, 15);
        let run = |threads: usize| {
            let cfg = SimConfig::for_graph(&graph).with_threads(threads).with_fault(plan);
            verification_simulated(&question, Some(cfg), &Obs::off())
        };
        let reference = run(1);
        for threads in [2usize, 3, 8] {
            prop_assert_eq!(run(threads), reference.clone(), "threads={}", threads);
        }
    }
}
