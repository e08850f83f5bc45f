//! The sim workload: `Session::verify` under `ExecutionMode::Simulated` on
//! E9's grid row, alternating a session at one engine thread and one at
//! two.

use std::time::Instant;

use lcs_api::congest::primitives::DistributedBfs;
use lcs_api::congest::{SimConfig, Simulator};
use lcs_api::graph::{generators, Graph, NodeId, Partition};
use lcs_api::{ExecutionMode, Pipeline, Session, SimStats, Strategy, Threads, TreeShortcut};
use lcs_obs::{MetricsSnapshot, Obs};

use crate::report::Report;
use crate::spans::Trace;
use crate::{host, stats, Args};

pub struct SimWorkload {
    pub name: &'static str,
    /// Side of the square grid; the partition is its columns.
    pub side: usize,
    /// The fixed `(c, b)` the shortcut is built with.
    pub params: (usize, usize),
    /// Session seed at `--seed 0`; a run uses `session_seed + seed`.
    pub session_seed: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Fewest verification pairs a run times, whatever `--seconds` says.
    pub min_pairs: usize,
    /// Pairs in the traced phase of a `--trace 1` run.
    pub traced_pairs: usize,
    /// Bare-engine BFS runs per width in a traced run.
    pub bfs_runs: usize,
}

/// E9's grid row: 4366 rounds at about 100 messages a round, so the cost
/// per round dominates.
pub const SIM_GRID: SimWorkload = SimWorkload {
    name: "sim-grid",
    side: 100,
    params: (99, 1),
    session_seed: 42,
    setups: 5,
    min_pairs: 5,
    traced_pairs: 3,
    bfs_runs: 5,
};

impl SimWorkload {
    fn instance(&self) -> (Graph, Partition) {
        (
            generators::grid(self.side, self.side),
            generators::partitions::grid_columns(self.side, self.side),
        )
    }
}

/// The two verification sessions and the shortcut they verify.
struct Bench<'g> {
    t1: Session<'g>,
    t2: Session<'g>,
    partition: &'g Partition,
    shortcut: TreeShortcut,
    threshold: usize,
}

/// Seconds spent in each step of one set-up.
#[derive(Clone, Copy)]
struct SetupSplit {
    sessions_s: f64,
    shortcut_s: f64,
}

impl<'g> Bench<'g> {
    /// Both sessions (the first builds the fixed shortcut under scheduled
    /// execution, as E9 does, then switches to simulated).
    fn build(
        w: &SimWorkload,
        graph: &'g Graph,
        partition: &'g Partition,
        seed: u64,
        obs: [Obs; 2],
    ) -> Result<(Bench<'g>, SetupSplit), String> {
        let [obs1, obs2] = obs;
        let session_seed = w.session_seed.wrapping_add(seed);
        let start = Instant::now();
        let mut t1 = Pipeline::on(graph)
            .seed(session_seed)
            .threads(Threads::Fixed(1))
            .recorder(obs1)
            .build()
            .map_err(|e| format!("t1 session: {e}"))?;
        let t2 = Pipeline::on(graph)
            .seed(session_seed)
            .threads(Threads::Fixed(2))
            .execution(ExecutionMode::Simulated)
            .recorder(obs2)
            .build()
            .map_err(|e| format!("t2 session: {e}"))?;
        let sessions_s = start.elapsed().as_secs_f64();
        let (congestion, block) = w.params;
        let start = Instant::now();
        let run = t1
            .shortcut(partition, Strategy::Fixed { congestion, block })
            .map_err(|e| format!("fixed shortcut: {e}"))?;
        let shortcut_s = start.elapsed().as_secs_f64();
        if !run.report.all_parts_good {
            return Err(format!(
                "fixed ({congestion}, {block}) shortcut left bad parts"
            ));
        }
        t1.set_execution(ExecutionMode::Simulated);
        Ok((
            Bench {
                t1,
                t2,
                partition,
                shortcut: run.shortcut,
                threshold: 3 * block,
            },
            SetupSplit {
                sessions_s,
                shortcut_s,
            },
        ))
    }

    fn session(&self, width: usize) -> &Session<'g> {
        if width == 1 {
            &self.t1
        } else {
            &self.t2
        }
    }
}

/// One simulated verification.
struct Op {
    width: usize,
    wall_ns: u64,
    good: Vec<bool>,
    block_counts: Vec<usize>,
    stats: SimStats,
}

const VERIFY_SPANS: [&str; 2] = ["session.verify.t1", "session.verify.t2"];

/// The two engine widths in the order run `index` uses them: alternating,
/// so neither width always runs on a warm cache.
fn widths(index: usize) -> [usize; 2] {
    if index.is_multiple_of(2) {
        [1, 2]
    } else {
        [2, 1]
    }
}

/// A verification at each width.
fn pair(bench: &Bench<'_>, index: usize, trace: Option<&mut Trace>) -> Result<[Op; 2], String> {
    let mut trace = trace;
    let root = trace.as_mut().map(|t| t.open("pair", None, index as u64));
    let mut ops = Vec::with_capacity(2);
    for width in widths(index) {
        let span = trace
            .as_mut()
            .zip(root)
            .map(|(t, root)| t.open(VERIFY_SPANS[width - 1], Some(root), index as u64));
        let start = Instant::now();
        let run = bench
            .session(width)
            .verify(&bench.shortcut, bench.partition, bench.threshold)
            .map_err(|e| format!("simulated verification at t{width}: {e}"))?;
        let wall_ns = start.elapsed().as_nanos() as u64;
        if let (Some(t), Some(span)) = (trace.as_mut(), span) {
            t.close(span);
        }
        ops.push(Op {
            width,
            wall_ns,
            good: run.good,
            block_counts: run.block_counts,
            stats: run
                .report
                .sim
                .ok_or("simulated verification without stats")?,
        });
    }
    if let (Some(t), Some(root)) = (trace, root) {
        t.close(root);
    }
    ops.sort_by_key(|op| op.width);
    let [a, b]: [Op; 2] = ops.try_into().map_err(|_| "two ops per pair")?;
    Ok([a, b])
}

/// Pairs until `seconds` passed and `min_pairs` ran, or exactly `pairs`.
fn run_pairs(
    bench: &Bench<'_>,
    seconds: f64,
    min_pairs: usize,
    max_pairs: Option<usize>,
    mut trace: Option<&mut Trace>,
) -> Result<Vec<[Op; 2]>, String> {
    let start = Instant::now();
    let mut pairs = Vec::new();
    loop {
        let enough = pairs.len() >= min_pairs && start.elapsed().as_secs_f64() >= seconds;
        if enough || max_pairs.is_some_and(|m| pairs.len() >= m) {
            return Ok(pairs);
        }
        pairs.push(pair(bench, pairs.len(), trace.as_deref_mut())?);
    }
}

fn wall_ms(pairs: &[[Op; 2]], width: usize) -> Vec<f64> {
    pairs
        .iter()
        .map(|p| p[width - 1].wall_ns as f64 / 1e6)
        .collect()
}

/// Output checks: each simulated verdict must equal the scheduled one,
/// every part must be good, and every run must repeat the first run's
/// engine statistics exactly, at both widths.
fn check(bench: &mut Bench<'_>, pairs: &[&[Op; 2]], report: &mut Report) -> Result<(), String> {
    bench.t1.set_execution(ExecutionMode::Scheduled);
    let reference = bench
        .t1
        .verify(&bench.shortcut, bench.partition, bench.threshold)
        .map_err(|e| format!("scheduled verification: {e}"))?;
    bench.t1.set_execution(ExecutionMode::Simulated);
    let parts = bench.partition.part_count();
    let first = pairs.first().map(|p| p[0].stats);
    for op in pairs.iter().flat_map(|p| p.iter()) {
        let good = op.good.iter().filter(|&&g| g).count();
        let ok = op.good == reference.good
            && op.block_counts == reference.block_counts
            && good == parts
            && Some(op.stats) == first;
        if !ok {
            report.note_mismatch(format!(
                "t{}: {good}/{parts} good, verdicts equal scheduled: {}, block counts equal: {}, stats {:?} vs first {:?}",
                op.width,
                op.good == reference.good,
                op.block_counts == reference.block_counts,
                op.stats,
                first
            ));
        }
        report.tally.op(ok);
    }
    Ok(())
}

/// Runs one sim workload and fills `report`.
pub fn run(w: &SimWorkload, args: &Args, report: &mut Report) -> Result<(), String> {
    let seed = args.seed;
    let mut setups = Vec::with_capacity(w.setups);
    let mut generate = Vec::with_capacity(w.setups);
    let mut splits = Vec::with_capacity(w.setups);
    let instance = || {
        let start = Instant::now();
        let (graph, partition) = w.instance();
        (start, start.elapsed().as_secs_f64(), graph, partition)
    };
    // Every set-up but the last is dropped before the next one starts.
    for _ in 1..w.setups {
        let (start, generate_s, graph, partition) = instance();
        let (_bench, split) = Bench::build(w, &graph, &partition, seed, [Obs::off(), Obs::off()])?;
        setups.push(start.elapsed().as_secs_f64());
        generate.push(generate_s);
        splits.push(split);
    }
    let (start, generate_s, graph, partition) = instance();
    let (mut bench, split) = Bench::build(w, &graph, &partition, seed, [Obs::off(), Obs::off()])?;
    setups.push(start.elapsed().as_secs_f64());
    generate.push(generate_s);
    splits.push(split);
    let (graph, partition) = (&graph, &partition);

    let measure_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let pairs = run_pairs(&bench, measure_s, w.min_pairs, None, None)?;
    let peak_rss = host::peak_rss_anon_mb().ok_or("cannot read VmHWM and RssFile")?;

    // The end-to-end figures are the serial engine's: on two vCPUs shared
    // with other tenants, the sharded engine's barrier waits made t2 vary
    // 31-83 % between runs, which no bound can hold (t2 is a layer metric).
    let t1_ms_all = wall_ms(&pairs, 1);
    let latency_p50 = stats::median(&t1_ms_all) * 1e3;
    let throughput = stats::median(&t1_ms_all.iter().map(|ms| 1e3 / ms).collect::<Vec<_>>());
    let t1_ms = latency_p50 / 1e3;
    let t2_ms = stats::median(&wall_ms(&pairs, 2));
    let stats1 = pairs[0][0].stats;
    println!(
        "verify  {} pairs on {} cores; verify_ms_p50_t1 {t1_ms:.2} ms, verify_ms_p50_t2 {t2_ms:.2} ms ({} samples each); {} rounds, {} messages per verification",
        pairs.len(),
        host::nproc(),
        pairs.len(),
        stats1.rounds,
        stats1.messages
    );

    if !args.trace {
        let all: Vec<&[Op; 2]> = pairs.iter().collect();
        check(&mut bench, &all, report)?;
        report.metric("setup_s", stats::median(&setups), "s");
        report.metric("peak_rss_anon_mb", peak_rss, "MiB");
        report.metric("throughput_qps", throughput, "1/s");
        report.metric("latency_p50_us", latency_p50, "us");
        println!(
            "setup   median of {} set-ups (instance, both sessions, fixed shortcut): {:.4} s",
            setups.len(),
            stats::median(&setups)
        );
        return Ok(());
    }

    // Traced phase: fresh sessions reporting into one recorder per width.
    drop(bench);
    let obs = [Obs::recording(), Obs::recording()];
    let (mut traced_bench, _) = Bench::build(w, graph, partition, seed, obs.clone())?;
    let mut trace = Trace::new();
    let traced = run_pairs(
        &traced_bench,
        0.0,
        w.traced_pairs,
        Some(w.traced_pairs),
        Some(&mut trace),
    )?;
    let snapshots = [obs[0].snapshot(), obs[1].snapshot()];

    // Bare engine: distributed BFS on the same graph at each width.
    let mut bfs_ms = [Vec::new(), Vec::new()];
    let mut bfs_stats = [None, None];
    for run in 0..w.bfs_runs {
        for width in widths(run) {
            let sim = Simulator::new(graph, SimConfig::for_graph(graph).with_threads(width));
            let span = trace.open(
                ["engine.bfs.t1", "engine.bfs.t2"][width - 1],
                None,
                run as u64,
            );
            let start = Instant::now();
            let outcome = DistributedBfs::run(&sim, NodeId::new(0))
                .map_err(|e| format!("bfs at t{width}: {e}"))?;
            bfs_ms[width - 1].push(start.elapsed().as_secs_f64() * 1e3);
            trace.close(span);
            bfs_stats[width - 1] = Some(outcome.stats);
        }
    }
    if bfs_stats[0] != bfs_stats[1] {
        report.mismatch(format!("bfs stats differ: {:?}", bfs_stats));
    }

    let mut all: Vec<&[Op; 2]> = pairs.iter().collect();
    all.extend(traced.iter());
    check(&mut traced_bench, &all, report)?;

    let mut layers = Vec::new();
    for (width, snapshot) in [1, 2].into_iter().zip(&snapshots) {
        layers.push(EngineCounts::read(
            snapshot,
            width,
            w.traced_pairs as u64,
            report,
        ));
    }
    if layers[0].counts() != layers[1].counts() {
        report.mismatch(format!(
            "engine counts differ between t1 and t2: {:?} vs {:?}",
            layers[0].counts(),
            layers[1].counts()
        ));
    }
    let c = &layers[0];
    report.metric("lcs_api.verify_ms_p50_t1", t1_ms, "ms");
    report.metric("lcs_api.verify_ms_p50_t2", t2_ms, "ms");
    report.metric("lcs_congest.rounds", c.rounds as f64, "count");
    report.metric("lcs_congest.messages", c.messages as f64, "count");
    report.metric("lcs_congest.polls", c.polls as f64, "count");
    report.metric("lcs_congest.bits", c.bits as f64, "count");
    report.metric("lcs_dist.supersteps", c.supersteps as f64, "count");
    report.metric(
        "lcs_dist.verification_ms_t1",
        layers[0].verification_ms,
        "ms",
    );
    report.metric(
        "lcs_dist.verification_ms_t2",
        layers[1].verification_ms,
        "ms",
    );
    // Computed unit costs: untraced median wall time over exact counts.
    for (width, ms) in [(1, t1_ms), (2, t2_ms)] {
        let names = UNIT_COSTS[width - 1];
        report.metric(names[0], ms * 1e3 / c.rounds as f64, "us");
        report.metric(names[1], ms * 1e6 / c.messages as f64, "ns");
        report.metric(names[2], ms * 1e6 / c.polls as f64, "ns");
        report.metric(names[3], stats::median(&bfs_ms[width - 1]), "ms");
    }
    report.metric("lcs_congest.speedup_t2", t1_ms / t2_ms, "ratio");

    report.metric("lcs_graph.generate_s", stats::median(&generate), "s");
    let sessions: Vec<f64> = splits.iter().map(|s| s.sessions_s).collect();
    let shortcut: Vec<f64> = splits.iter().map(|s| s.shortcut_s).collect();
    report.metric("lcs_api.session_build_s", stats::median(&sessions), "s");
    report.metric("lcs_core.fixed_shortcut_s", stats::median(&shortcut), "s");

    let traced_p50 = stats::median(&wall_ms(&traced, 1)) * 1e3;
    report.metric(
        "lcs_obs.trace_overhead_pct",
        100.0 * (traced_p50 - latency_p50) / latency_p50,
        "%",
    );
    report.metric("bench.unattributed_pct", trace.unattributed_pct(), "%");
    println!(
        "trace   untraced t1 p50 {:.2} ms, traced {:.2} ms over {} traced pairs",
        latency_p50 / 1e3,
        traced_p50 / 1e3,
        traced.len()
    );
    crate::write_trace(&trace, w.name, seed);
    Ok(())
}

const UNIT_COSTS: [[&str; 4]; 2] = [
    [
        "lcs_congest.us_per_round_t1",
        "lcs_congest.ns_per_message_t1",
        "lcs_congest.ns_per_poll_t1",
        "lcs_congest.bfs_ms_t1",
    ],
    [
        "lcs_congest.us_per_round_t2",
        "lcs_congest.ns_per_message_t2",
        "lcs_congest.ns_per_poll_t2",
        "lcs_congest.bfs_ms_t2",
    ],
];

/// Per-verification engine and protocol counts read from one session's
/// recorder, plus the mean of the program's `dist/verification` timer.
#[derive(Debug)]
struct EngineCounts {
    rounds: u64,
    messages: u64,
    polls: u64,
    bits: u64,
    supersteps: u64,
    verification_ms: f64,
}

impl EngineCounts {
    fn read(snapshot: &MetricsSnapshot, width: usize, runs: u64, report: &mut Report) -> Self {
        let verifications = snapshot.counter("dist/verification/runs").unwrap_or(0);
        if verifications != runs {
            report.mismatch(format!(
                "t{width}: dist/verification/runs is {verifications}, expected {runs}"
            ));
        }
        let per = |name: &str, report: &mut Report| {
            let total = snapshot.counter(name).unwrap_or(0);
            if runs == 0 || !total.is_multiple_of(runs) {
                report.mismatch(format!(
                    "t{width}: {name} = {total} is not {runs} equal runs"
                ));
            }
            total / runs.max(1)
        };
        let timer = snapshot.timer("dist/verification");
        EngineCounts {
            rounds: per("engine/rounds", report),
            messages: per("engine/messages", report),
            polls: per("engine/polls", report),
            bits: per("engine/bits", report),
            supersteps: per("dist/verification/supersteps", report),
            verification_ms: timer.map_or(0.0, |t| t.sum() as f64 / t.count().max(1) as f64 / 1e6),
        }
    }

    fn counts(&self) -> [u64; 5] {
        [
            self.rounds,
            self.messages,
            self.polls,
            self.bits,
            self.supersteps,
        ]
    }
}
