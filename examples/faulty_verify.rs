//! Construction and verification under injected faults: a deterministic
//! fault plan on a 32×32 grid — 1% message loss plus one node that
//! crashes mid-run and restarts with cleared state — applied to a
//! `Simulated` session's shortcut and verify queries.
//!
//! The plan is a pure function of its seed: every loss draw, every delay,
//! and the crash schedule are keyed by (plan, edge, round), so reruns and
//! every `LCS_THREADS` value produce byte-identical results. The session
//! detects stalled epochs (a member that missed a superstep or never
//! decided) and retries with wider windows and a fresh round budget; the
//! example asserts that the shortcut built under the plan is the
//! fault-free one, and prints the retry shape, the fault event counters
//! the recording [`Obs`] collected, and the final verdict, which matches
//! the fault-free classification exactly.
//!
//! Run with: `cargo run --release --example faulty_verify`

use low_congestion_shortcuts::api::{ExecutionMode, FaultPlan, Pipeline, Strategy};
use low_congestion_shortcuts::graph::generators;
use low_congestion_shortcuts::obs::Obs;

fn main() {
    let side = 32usize;
    let graph = generators::grid(side, side);
    let partition = generators::partitions::grid_columns(side, side);

    let strategy = Strategy::Fixed {
        congestion: side - 1,
        block: 1,
    };
    let clean = Pipeline::on(&graph)
        .seed(42)
        .execution(ExecutionMode::Simulated)
        .build()
        .expect("the grid is connected");
    let run = clean
        .shortcut(&partition, strategy)
        .expect("grid columns admit shortcuts");
    let want = clean
        .verify(&run.shortcut, &partition, 3)
        .expect("fault-free verification runs");

    // 1% loss on every edge, and one node crashing at round 10 with a
    // restart 40 rounds later (state cleared, protocol re-entered).
    let plan = FaultPlan::new(7)
        .with_loss_ppm(10_000)
        .with_crashes(1, 10, 40);
    let obs = Obs::recording();
    let session = Pipeline::on(&graph)
        .seed(42)
        .execution(ExecutionMode::Simulated)
        .fault(plan)
        .recorder(obs.clone())
        .build()
        .expect("the grid is connected");
    // Construction verifies under the plan too, and every verification
    // answers exactly or not at all: the shortcut is the fault-free one.
    let built = session
        .shortcut(&partition, strategy)
        .expect("a restarting crash under light loss heals");
    assert_eq!(
        built.shortcut, run.shortcut,
        "the same shortcut as without faults"
    );
    println!(
        "shortcut built under the plan: identical to the fault-free one ({} rounds, {} without faults)",
        built.total_rounds(),
        run.total_rounds()
    );
    let healed = session
        .verify(&run.shortcut, &partition, 3)
        .expect("a restarting crash under light loss heals");

    let metric = |key: &str| {
        healed
            .report
            .metrics
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    println!(
        "grid {side}x{side}, 1% loss + 1 crash/restart: verified in {} epochs ({} stalled)",
        metric("retry_epochs"),
        metric("retry_stalls"),
    );

    let snapshot = obs.snapshot();
    println!("\n-- fault event counters (deterministic: functions of the plan) --");
    for name in [
        "fault/drops",
        "fault/dups",
        "fault/delays",
        "fault/crash_drops",
        "fault/restarts",
    ] {
        println!("{name:<20} {}", snapshot.counter(name).unwrap_or(0));
    }

    let good = healed.good.iter().filter(|&&g| g).count();
    println!(
        "\nfinal verdict: {good}/{} parts good (fault-free says {}/{}) — {}",
        partition.part_count(),
        want.good.iter().filter(|&&g| g).count(),
        partition.part_count(),
        if healed.good == want.good && healed.block_counts == want.block_counts {
            "identical to the fault-free classification"
        } else {
            "MISMATCH"
        }
    );
    assert_eq!(healed.good, want.good, "the healed verdict must be correct");
    assert_eq!(healed.block_counts, want.block_counts);
}
