//! Fault-tolerant verification: the Lemma 3 counting protocol must return
//! the fault-free classification under an active [`FaultPlan`] — healing
//! lost and delayed messages within an epoch via resends, and stalled
//! epochs via [`verification_with_retry`] — and the whole procedure must
//! stay deterministic across engines and shard counts.

use proptest::prelude::*;

use lcs_congest::{FaultPlan, SimConfig};
use lcs_core::existential::ancestor_shortcut;
use lcs_core::TreeShortcut;
use lcs_dist::{verification_simulated, verification_with_retry, RetryPolicy};
use lcs_graph::{generators, Graph, NodeId, Partition, RootedTree};
use lcs_obs::Obs;

fn grid_instance(n: usize) -> (Graph, RootedTree, Partition, TreeShortcut) {
    let graph = generators::grid(n, n);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let partition = generators::partitions::grid_columns(n, n);
    let shortcut = ancestor_shortcut(&graph, &tree, &partition);
    (graph, tree, partition, shortcut)
}

/// Satellite regression: the verification entry point owns its round
/// budget, so a caller config with a tiny `max_rounds` plus a latency plan
/// must still complete — the cap is raised to the latency-stretched
/// schedule, never tripped by fault inflation — and, with no loss or
/// crashes, the verdict is exactly the fault-free one in one epoch.
#[test]
fn latency_plan_raises_a_tiny_round_cap() {
    let (graph, tree, partition, shortcut) = grid_instance(6);
    let active = vec![true; partition.part_count()];
    let threshold = 2;
    let plain = verification_simulated(
        &graph, &tree, &partition, &shortcut, threshold, &active, None,
    )
    .unwrap();
    let cfg = SimConfig::for_graph(&graph)
        .with_max_rounds(1)
        .with_fault(FaultPlan::new(5).with_latency(2));
    let slow = verification_simulated(
        &graph,
        &tree,
        &partition,
        &shortcut,
        threshold,
        &active,
        Some(cfg),
    )
    .unwrap();
    assert!(slow.decisive, "latency alone must not stall verification");
    assert_eq!(slow.outcome.good, plain.outcome.good);
    assert_eq!(slow.outcome.block_counts, plain.outcome.block_counts);
    assert!(
        slow.stats.rounds > plain.stats.rounds,
        "the stretched schedule must inflate the executed rounds"
    );
}

/// Message loss and duplication are healed by the per-poll resends (and a
/// stalled epoch, if any, by the retry wrapper): the final classification
/// equals the fault-free one.
#[test]
fn lossy_verification_heals_to_the_fault_free_verdict() {
    let (graph, tree, partition, shortcut) = grid_instance(8);
    let active = vec![true; partition.part_count()];
    let threshold = 3;
    let plain = verification_simulated(
        &graph, &tree, &partition, &shortcut, threshold, &active, None,
    )
    .unwrap();
    let cfg = SimConfig::for_graph(&graph).with_fault(
        FaultPlan::new(11)
            .with_loss_ppm(20_000)
            .with_dup_ppm(10_000),
    );
    let obs = Obs::recording();
    let healed = verification_with_retry(
        &graph,
        &tree,
        &partition,
        &shortcut,
        threshold,
        &active,
        Some(cfg),
        RetryPolicy::default(),
        &obs,
    )
    .unwrap();
    assert!(
        healed.decisive,
        "loss below the resend redundancy must heal"
    );
    let outcome = healed.outcome.expect("decisive runs carry an outcome");
    assert_eq!(outcome.outcome.good, plain.outcome.good);
    assert_eq!(outcome.outcome.block_counts, plain.outcome.block_counts);
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
    let threshold = 2;
    let plain = verification_simulated(
        &graph, &tree, &partition, &shortcut, threshold, &active, None,
    )
    .unwrap();
    let cfg = SimConfig::for_graph(&graph).with_fault(
        FaultPlan::new(3)
            .with_loss_ppm(10_000)
            .with_crashes(1, 10, 20),
    );
    let healed = verification_with_retry(
        &graph,
        &tree,
        &partition,
        &shortcut,
        threshold,
        &active,
        Some(cfg),
        RetryPolicy::default(),
        &Obs::off(),
    )
    .unwrap();
    assert!(
        healed.decisive,
        "a restarting crash must heal within epochs"
    );
    let outcome = healed.outcome.expect("decisive runs carry an outcome");
    assert_eq!(outcome.outcome.good, plain.outcome.good);
    assert_eq!(outcome.outcome.block_counts, plain.outcome.block_counts);
}

/// A permanent crash (no restart) can never decide its part: every epoch
/// stalls and the wrapper reports indecision instead of a wrong verdict.
#[test]
fn a_permanent_crash_reports_indecision() {
    let (graph, tree, partition, shortcut) = grid_instance(5);
    let active = vec![true; partition.part_count()];
    let cfg = SimConfig::for_graph(&graph).with_fault(FaultPlan::new(7).with_crashes(1, 0, 0));
    let policy = RetryPolicy {
        max_epochs: 2,
        timeout_factor: 2,
        backoff: 1,
    };
    let degraded = verification_with_retry(
        &graph,
        &tree,
        &partition,
        &shortcut,
        2,
        &active,
        Some(cfg),
        policy,
        &Obs::off(),
    )
    .unwrap();
    assert!(!degraded.decisive);
    assert_eq!(degraded.epochs, 2);
    assert_eq!(degraded.stalls, 2);
    if let Some(outcome) = degraded.outcome {
        // Whatever partial outcome survived is still sound: no part
        // containing an undecided member may be reported good.
        assert!(!outcome.decisive);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Faulty verification is engine-agnostic: a seeded full plan produces
    /// identical stats, verdicts, counts, and decisiveness at S = 1 and at
    /// every shard count S ≥ 2.
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
        let plan = FaultPlan::new(seed ^ 0xf00d)
            .with_latency(latency)
            .with_loss_ppm([0u32, 10_000, 60_000][loss_idx])
            .with_crashes(seed as u32 % 2, 5, 15);
        let run = |threads: usize| {
            let cfg = SimConfig::for_graph(&graph).with_threads(threads).with_fault(plan);
            verification_simulated(
                &graph, &tree, &partition, &shortcut, threshold, &active, Some(cfg),
            )
            .unwrap()
        };
        let reference = run(1);
        for threads in [2usize, 3, 8] {
            let outcome = run(threads);
            prop_assert_eq!(outcome.stats, reference.stats.clone(), "threads={}", threads);
            prop_assert_eq!(outcome.decisive, reference.decisive);
            prop_assert_eq!(&outcome.outcome.good, &reference.outcome.good);
            prop_assert_eq!(&outcome.outcome.block_counts, &reference.outcome.block_counts);
        }
        // The retry wrapper is deterministic end to end as well.
        let retry = |threads: usize| {
            let cfg = SimConfig::for_graph(&graph).with_threads(threads).with_fault(plan);
            verification_with_retry(
                &graph, &tree, &partition, &shortcut, threshold, &active,
                Some(cfg), RetryPolicy::default(), &Obs::off(),
            )
            .unwrap()
        };
        let r1 = retry(1);
        let r4 = retry(4);
        prop_assert_eq!(r1.epochs, r4.epochs);
        prop_assert_eq!(r1.stalls, r4.stalls);
        prop_assert_eq!(r1.decisive, r4.decisive);
        match (&r1.outcome, &r4.outcome) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(&a.outcome.good, &b.outcome.good);
                prop_assert_eq!(a.stats.clone(), b.stats.clone());
            }
            (None, None) => {}
            _ => prop_assert!(false, "retry outcomes diverged between thread counts"),
        }
    }
}
