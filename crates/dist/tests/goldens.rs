//! Golden simulation statistics for the distributed protocols, pinning the
//! simulator's edge-slot mailbox rewrite and the engine's timed wake-ups.
//!
//! The values were captured by running the identical protocols against the
//! pre-refactor implementation (per-recipient `Vec` mailboxes, every node
//! polled every round), which the rewrite deleted. Rounds, message counts,
//! bit counts, and the computed results must all be byte-identical — the
//! flat-memory hot paths change wall-clock speed, never semantics.

use lcs_core::existential::ancestor_shortcut;
use lcs_dist::{
    block_convergecast, part_flood_min, part_leaders, verification_simulated, AggregateOp,
    BlockCounting, BlockFamily,
};
use lcs_graph::{generators, NodeId, RootedTree};
use lcs_obs::Obs;

#[test]
fn golden_part_leaders_on_wheel() {
    let g = generators::wheel(33);
    let t = RootedTree::bfs(&g, NodeId::new(0));
    let part = generators::partitions::wheel_arcs(33, 4);
    let s = ancestor_shortcut(&g, &t, &part);
    let family = BlockFamily::new(&g, &t, &part, &s);
    let (leaders, stats) = part_leaders(&g, &part, &family, None).unwrap();
    let ids: Vec<usize> = leaders.iter().map(|l| l.index()).collect();
    assert_eq!(ids, vec![1, 9, 17, 25]);
    assert_eq!(stats.rounds, 2);
    assert_eq!(stats.messages, 64);
    assert_eq!(stats.total_bits, 768);
    assert_eq!(stats.max_message_bits, 12);
}

#[test]
fn golden_block_convergecast_and_flood_on_grid() {
    let g = generators::grid(5, 5);
    let t = RootedTree::bfs(&g, NodeId::new(0));
    let part = generators::partitions::grid_columns(5, 5);
    let s = ancestor_shortcut(&g, &t, &part);
    let family = BlockFamily::new(&g, &t, &part, &s);

    let values: Vec<Option<u64>> = g.nodes().map(|v| Some(v.index() as u64)).collect();
    let cast = block_convergecast(&g, &family, &values, AggregateOp::Sum, None).unwrap();
    let per_block_sum: u64 = cast.per_block.iter().flatten().sum();
    assert_eq!(per_block_sum, 300);
    assert_eq!(cast.stats.rounds, 8);
    assert_eq!(cast.stats.messages, 30);
    assert_eq!(cast.stats.total_bits, 2100);
    assert_eq!(cast.stats.max_message_bits, 70);

    let vals: Vec<Option<(u64, u64)>> = g
        .nodes()
        .map(|v| {
            part.part_of(v)
                .map(|_| (v.index() as u64, 100 + v.index() as u64))
        })
        .collect();
    let flood = part_flood_min(&g, &part, &family, &vals, 64, None).unwrap();
    assert_eq!(flood.supersteps, 1);
    assert_eq!(flood.stats.rounds, 16);
    assert_eq!(flood.stats.messages, 60);
    assert_eq!(flood.stats.total_bits, 4200);
    assert_eq!(flood.stats.max_message_bits, 70);
}

#[test]
fn golden_verification_on_grid() {
    let g = generators::grid(8, 8);
    let t = RootedTree::bfs(&g, NodeId::new(0));
    let part = generators::partitions::grid_columns(8, 8);
    let s = ancestor_shortcut(&g, &t, &part);
    let b = s.block_parameter(&g, &part).max(1);
    let active = vec![true; part.part_count()];
    let question = BlockCounting {
        graph: &g,
        tree: &t,
        partition: &part,
        shortcut: &s,
        threshold: 3 * b,
        active: &active,
    };
    let ver = verification_simulated(&question, None, &Obs::off()).unwrap();
    assert_eq!(ver.supersteps, 11);
    assert!(ver.outcome.good.iter().all(|&good| good));
    assert_eq!(ver.outcome.block_counts, vec![1; part.part_count()]);
    assert_eq!(ver.stats.rounds, 318);
    assert_eq!(ver.stats.messages, 2408);
    assert_eq!(ver.stats.total_bits, 64456);
    assert_eq!(ver.stats.max_message_bits, 27);

    // The same run, recorded: the poll count and the counter digest pin
    // the wake-up schedule (one poll more or less changes both), not just
    // the traffic totals, so a scheduling change that kept the statistics
    // would still fail here.
    let obs = Obs::recording();
    let recorded = verification_simulated(&question, None, &obs).unwrap();
    assert_eq!(recorded.stats, ver.stats);
    let snap = obs.snapshot();
    assert_eq!(snap.counter("engine/polls"), Some(3181));
    assert_eq!(snap.counters_digest(), 14140554387288733645);
}
