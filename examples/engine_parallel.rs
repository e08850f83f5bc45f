//! One shard vs four: same protocol, same results, different wall-clock.
//!
//! Runs the Lemma 3 distributed verification protocol (the workspace's
//! longest superstep pipeline) on a 64×64 grid twice — once through a
//! session at S = 1, where the round loop runs inline on the calling
//! thread, once through a session at S = 4, where the caller runs shard 0
//! and three worker threads run the rest — and asserts that the executed
//! statistics and every per-part verdict are byte-identical. The shard
//! count is a throughput knob, never a semantic one; `Pipeline::threads`
//! (a value — `Threads::Auto` defers to `LCS_THREADS`) selects it per
//! session.
//!
//! Run with: `cargo run --release --example engine_parallel`

use std::time::Instant;

use low_congestion_shortcuts::api::{ExecutionMode, Pipeline, Strategy, Threads};
use low_congestion_shortcuts::graph::generators;

fn main() {
    let (side, (c, b)) = (64usize, (63usize, 1usize));
    let graph = generators::grid(side, side);
    let partition = generators::partitions::grid_columns(side, side);

    let mut serial = Pipeline::on(&graph)
        .threads(Threads::Fixed(1))
        .execution(ExecutionMode::Simulated)
        .seed(42)
        .build()
        .expect("the grid is connected");
    let sharded = Pipeline::on(&graph)
        .threads(Threads::Fixed(4))
        .execution(ExecutionMode::Simulated)
        .seed(42)
        .build()
        .expect("the grid is connected");

    // Each run splits the graph into one shard per engine thread.
    println!(
        "grid {side}x{side}: inline session = {} thread(s), sharded session = {} thread(s)",
        serial.threads(),
        sharded.threads()
    );

    // Construct once (scheduled construction, identical on both sessions).
    serial.set_execution(ExecutionMode::Scheduled);
    let shortcut = serial
        .shortcut(
            &partition,
            Strategy::Fixed {
                congestion: c,
                block: b,
            },
        )
        .expect("grid columns admit shortcuts")
        .shortcut;
    serial.set_execution(ExecutionMode::Simulated);

    let start = Instant::now();
    let serial_run = serial
        .verify(&shortcut, &partition, 3 * b)
        .expect("verification respects the CONGEST constraints");
    let serial_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let sharded_run = sharded
        .verify(&shortcut, &partition, 3 * b)
        .expect("verification respects the CONGEST constraints");
    let sharded_ms = start.elapsed().as_secs_f64() * 1e3;

    // Determinism is the round loop's contract: identical statistics and
    // identical results, not merely "close".
    let stats = serial_run.report.sim.expect("simulated runs record stats");
    assert_eq!(serial_run.report.sim, sharded_run.report.sim);
    assert_eq!(serial_run.good, sharded_run.good);
    assert_eq!(serial_run.block_counts, sharded_run.block_counts);

    println!(
        "verification: {} rounds, {} messages, {} bits (identical at S = 1 and S = 4)",
        stats.rounds, stats.messages, stats.total_bits
    );
    println!("S = 1: {serial_ms:.1} ms (inline)");
    println!("S = 4: {sharded_ms:.1} ms (caller + 3 worker threads)");
    println!(
        "good parts: {}/{}",
        serial_run.good.iter().filter(|&&g| g).count(),
        partition.part_count()
    );
}
