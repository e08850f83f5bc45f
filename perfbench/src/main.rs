//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Without `--workload` it runs every workload, each in a fresh process.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer metrics with `--trace 1`. See README.md.

mod client;
mod host;
mod report;
mod requests;
mod serve;
mod sim;
mod spans;
mod stats;

use std::path::Path;
use std::process::{Command, ExitCode};

use lcs_obs::json::JsonValue;

use report::{Report, Tally};

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const WORKLOADS: [&str; 3] = ["serve-read", "serve-build", "sim-grid"];

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_anon_mb", "MiB"),
    ("throughput_qps", "1/s"),
    ("latency_p50_us", "us"),
];

/// The per-layer metrics every traced run prints. A layer a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("client.latency_p99_us", "us"),
    ("lcs_server.overhead_us_p50", "us"),
    ("lcs_server.overhead_us_p99", "us"),
    ("lcs_server.decode_ns", "ns"),
    ("lcs_server.encode_ns", "ns"),
    ("lcs_server.requests", "count"),
    ("lcs_api.serve_us_p50.verify", "us"),
    ("lcs_api.serve_us_p50.quality", "us"),
    ("lcs_api.serve_us_p50.construct", "us"),
    ("lcs_api.serve_us_p50.repair", "us"),
    ("lcs_api.serve_us_p50.mst", "us"),
    ("lcs_api.busy_share.verify", "%"),
    ("lcs_api.busy_share.quality", "%"),
    ("lcs_api.busy_share.construct", "%"),
    ("lcs_api.busy_share.repair", "%"),
    ("lcs_api.busy_share.mst", "%"),
    ("lcs_api.verify_ms_p50_t1", "ms"),
    ("lcs_api.verify_ms_p50_t2", "ms"),
    ("lcs_api.session_build_s", "s"),
    ("lcs_core.attempts_per_construct", "count"),
    ("lcs_core.rounds_charged.construct", "rounds"),
    ("lcs_core.rounds_charged.verify", "rounds"),
    ("lcs_core.rounds_charged.quality", "rounds"),
    ("lcs_core.rounds_charged.repair", "rounds"),
    ("lcs_core.rounds_charged.mst", "rounds"),
    ("lcs_core.repaired_parts", "count"),
    ("lcs_core.reused_parts", "count"),
    ("lcs_core.fixed_shortcut_s", "s"),
    ("lcs_mst.phases", "count"),
    ("lcs_mst.ms_per_phase", "ms"),
    ("lcs_congest.rounds", "count"),
    ("lcs_congest.messages", "count"),
    ("lcs_congest.polls", "count"),
    ("lcs_congest.bits", "count"),
    ("lcs_congest.us_per_round_t1", "us"),
    ("lcs_congest.us_per_round_t2", "us"),
    ("lcs_congest.ns_per_message_t1", "ns"),
    ("lcs_congest.ns_per_message_t2", "ns"),
    ("lcs_congest.ns_per_poll_t1", "ns"),
    ("lcs_congest.ns_per_poll_t2", "ns"),
    ("lcs_congest.bfs_ms_t1", "ms"),
    ("lcs_congest.bfs_ms_t2", "ms"),
    ("lcs_congest.speedup_t2", "ratio"),
    ("lcs_dist.supersteps", "count"),
    ("lcs_dist.verification_ms_t1", "ms"),
    ("lcs_dist.verification_ms_t2", "ms"),
    ("lcs_workload.corpus_build_s", "s"),
    ("lcs_graph.generate_s", "s"),
    ("lcs_obs.trace_overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
];

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload `{value}`; one of {WORKLOADS:?}"));
                }
                parsed.workload = Some(value);
            }
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed `{value}` is not a whole number"))?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds `{value}` is not a positive number"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(parsed)
}

/// Writes the run's spans next to the benchmark and prints each span
/// name's total and self time.
pub fn write_trace(trace: &spans::Trace, workload: &str, seed: u64) {
    println!("spans   name: count, total ms, self ms");
    for (name, t) in trace.totals() {
        println!(
            "spans   {name}: {}, {:.3}, {:.3}",
            t.count,
            t.total as f64 / 1e6,
            t.self_time as f64 / 1e6
        );
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.json"));
    match trace.write_json(&path, workload, seed) {
        Ok(()) => println!(
            "spans   {} spans written to {}",
            trace.spans().len(),
            path.display()
        ),
        Err(err) => eprintln!("spans   could not write {}: {err}", path.display()),
    }
}

fn run_one(args: &Args, workload: &str) -> Result<Report, String> {
    let cpu_before = host::CpuTimes::read();
    println!(
        "run     workload {workload}, seed {}, seconds {}, trace {}; nproc {}, load {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        host::loadavg()
    );
    let mut report = Report::default();
    match workload {
        "serve-read" => serve::run(&serve::SERVE_READ, args, &mut report)?,
        "serve-build" => serve::run(&serve::SERVE_BUILD, args, &mut report)?,
        "sim-grid" => sim::run(&sim::SIM_GRID, args, &mut report)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    report.fill_missing(wanted);
    let steal = match (cpu_before, host::CpuTimes::read()) {
        (Some(a), Some(b)) => format!("{:.2} %", a.steal_pct_until(&b)),
        _ => "unknown".to_string(),
    };
    println!(
        "host    nproc {}, steal {steal} over the run, load {}",
        host::nproc(),
        host::loadavg()
    );
    for (name, value, unit) in report.metrics() {
        println!("metric  {name} = {value} {unit}");
    }
    for message in &report.mismatches {
        println!("FAILED  {message}");
    }
    println!(
        "ops     attempted {}, failed {}",
        report.tally.attempted, report.tally.failed
    );
    Ok(report)
}

/// Runs every workload, each in a fresh process of this program, and
/// prints a summary line that merges their results.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    let mut all_ok = true;
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        all_ok &= output.status.success();
        let last = stdout.lines().last().unwrap_or_default();
        let Ok(JsonValue::Object(members)) = JsonValue::parse(last) else {
            all_ok = false;
            continue;
        };
        let field = |key: &str| members.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        tally.attempted += field("attempted").and_then(JsonValue::as_u64).unwrap_or(0);
        tally.failed += field("failed").and_then(JsonValue::as_u64).unwrap_or(0);
        all_ok &= matches!(field("correct"), Some(JsonValue::Bool(true)));
        if let Some(JsonValue::Object(ms)) = field("metrics") {
            for (name, value) in ms {
                metrics.push(format!("\"{workload}.{name}\":{}", value.write()));
            }
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        all_ok && tally.correct(),
        tally.attempted,
        tally.failed,
        metrics.join(",")
    );
    Ok(if all_ok && tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.clone() {
        None => run_all(&args),
        Some(workload) => run_one(&args, &workload).map(|report| {
            println!("{}", report.json());
            ExitCode::from(report.tally.exit_code() as u8)
        }),
    };
    result.unwrap_or_else(|message| {
        eprintln!("perfbench: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string(),
                    m.get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_runs_print() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_checked_strictly() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let args = parse("--workload sim-grid --seed 4 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload.as_deref(), Some("sim-grid"));
        assert_eq!((args.seed, args.seconds, args.trace), (4, 10.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed -1").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--bogus 1").is_err());
    }
}
