//! Fault-tolerant verification: under an active [`FaultPlan`] the Lemma 3
//! counting protocol must return the fault-free classification — healing
//! lost and delayed messages within an epoch via resends, and stalled
//! epochs by retrying in a later epoch — or report `Degraded`, and the
//! whole procedure must stay deterministic across engines and shard counts.

use proptest::prelude::*;

use lcs_congest::{FaultPlan, SimConfig};
use lcs_core::existential::ancestor_shortcut;
use lcs_core::TreeShortcut;
use lcs_dist::{verification_simulated, BlockCounting, DistError};
use lcs_graph::{generators, Graph, NodeId, Partition, RootedTree};
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
        DistError::Degraded {
            epochs: 5,
            stalls: 5
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
/// poll still fails here. The verdicts are not pinned: at 30 % loss some
/// parts come back bad that are good without faults.
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
    let snap = obs.snapshot();
    assert_eq!((out.epochs, out.stalls), (4, 3));
    assert_eq!(snap.counter("engine/runs"), Some(4));
    assert_eq!(snap.counter("engine/polls"), Some(81_607));
    assert_eq!(snap.counters_digest(), 10324054420097124864);

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
