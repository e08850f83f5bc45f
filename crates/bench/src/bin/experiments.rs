//! Prints every experiment table of the reproduction (see EXPERIMENTS.md).
//!
//! Usage:
//!   experiments                      # run the standard experiments (e1-e9, e11, e13-e17)
//!   experiments --list               # list every table with a one-line description
//!   experiments e1 e4                # run a subset
//!   experiments e10                  # the 10^6-node tier (opt-in: heavy)
//!   experiments --threads 4 e10      # ... on 4 engine shards
//!   experiments --json out.json      # also write the tables as JSON
//!   experiments e8 --json out.json   # subset + JSON
//!   experiments e13 --json w.json    # workload tier; JSON embeds the full
//!                                    # latency histograms under "extra"
//!   experiments e14                  # instrumentation overhead, recorder off vs on
//!   experiments e15                  # robustness: fault-injected verification
//!   experiments e16                  # incremental repair: update vs rebuild
//!   experiments e17                  # server tier: concurrent TCP serving
//!
//! `--threads N` sets the `LCS_THREADS` environment variable before any
//! table runs, which selects the simulator's round engine (and the
//! parallel quality sweeps) for the whole process; the count is recorded in
//! the JSON output. Every table's values are identical for every thread
//! count — only the wall-clock columns move. The flag is parsed by
//! [`lcs_api::Threads::parse`], so zero and non-numeric counts are rejected
//! with a clear error instead of silently defaulting.

use lcs_bench::{
    e10_scale_table, e11_serving_table, e13_workload_table, e14_obs_table, e15_faults_table,
    e16_repair_table, e17_server_table, e1_quality_table, e2_findshortcut_table, e3_routing_table,
    e4_mst_table, e5_core_table, e6_doubling_table, e7_guarantees_table, e8_dist_table,
    e9_scale_table, render_table, tables_to_json, timed_table, timed_table_with_extra, Table,
    TimedTable,
};

/// Most tables are plain; E13/E14 additionally return a JSON payload
/// (latency histograms, metric snapshots) that `--json` embeds under
/// `"extra"`.
#[derive(Clone, Copy)]
enum TableBuilder {
    Plain(fn() -> Table),
    WithExtra(fn() -> (Table, String)),
}

/// One registered experiment: id, one-line description, whether it only
/// runs when asked for by name, and its builder.
struct Experiment {
    name: &'static str,
    description: &'static str,
    opt_in: bool,
    build: TableBuilder,
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut requested: Vec<String> = Vec::new();
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--list" {
            list = true;
        } else if arg == "--json" {
            match args.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a path argument");
                    std::process::exit(2);
                }
            }
        } else if arg == "--threads" {
            let value = args.next().unwrap_or_default();
            match lcs_api::Threads::parse(&value) {
                Ok(threads) => {
                    std::env::set_var("LCS_THREADS", threads.resolve().to_string());
                }
                Err(err) => {
                    eprintln!("--threads: {err}");
                    std::process::exit(2);
                }
            }
        } else {
            requested.push(arg.to_lowercase());
        }
    }

    let all: Vec<Experiment> = vec![
        Experiment {
            name: "e1",
            description: "shortcut quality vs Theorem 1 bounds on planar / genus-g families",
            opt_in: false,
            build: TableBuilder::Plain(e1_quality_table),
        },
        Experiment {
            name: "e2",
            description: "FindShortcut (Theorem 3) scaling: rounds vs n, D and N",
            opt_in: false,
            build: TableBuilder::Plain(e2_findshortcut_table),
        },
        Experiment {
            name: "e3",
            description: "tree-restricted routing and convergecast round counts",
            opt_in: false,
            build: TableBuilder::Plain(e3_routing_table),
        },
        Experiment {
            name: "e4",
            description: "MST via shortcut-accelerated Boruvka on planar instances",
            opt_in: false,
            build: TableBuilder::Plain(e4_mst_table),
        },
        Experiment {
            name: "e5",
            description:
                "CoreSlow (Lemma 7) vs CoreFast (Lemma 5): rounds, good parts, max assignment",
            opt_in: false,
            build: TableBuilder::Plain(e5_core_table),
        },
        Experiment {
            name: "e6",
            description: "doubling search trajectory for unknown quality parameters",
            opt_in: false,
            build: TableBuilder::Plain(e6_doubling_table),
        },
        Experiment {
            name: "e7",
            description: "guarantee cross-check: measured quality vs paper formulas",
            opt_in: false,
            build: TableBuilder::Plain(e7_guarantees_table),
        },
        Experiment {
            name: "e8",
            description: "charged vs executed rounds of the four distributed primitives",
            opt_in: false,
            build: TableBuilder::Plain(e8_dist_table),
        },
        Experiment {
            name: "e9",
            description: "scale tier at n = 10^4..10^5 with wall-clock columns",
            opt_in: false,
            build: TableBuilder::Plain(e9_scale_table),
        },
        Experiment {
            name: "e10",
            description: "the 10^6-node tier (heavy; minutes of wall-clock)",
            opt_in: true,
            build: TableBuilder::Plain(e10_scale_table),
        },
        Experiment {
            name: "e11",
            description: "serving tier: per-query latency of a warm session",
            opt_in: false,
            build: TableBuilder::Plain(e11_serving_table),
        },
        Experiment {
            name: "e13",
            description: "workload tier: open/closed-loop Zipf traffic tail latencies",
            opt_in: false,
            build: TableBuilder::WithExtra(e13_workload_table),
        },
        Experiment {
            name: "e14",
            description: "instrumentation overhead: recorder off vs on, counter determinism",
            opt_in: false,
            build: TableBuilder::WithExtra(e14_obs_table),
        },
        Experiment {
            name: "e15",
            description: "robustness tier: fault-injected verification, loss x latency x crash",
            opt_in: false,
            build: TableBuilder::WithExtra(e15_faults_table),
        },
        Experiment {
            name: "e16",
            description: "incremental repair: repair_from vs full rebuild, digest-equal",
            opt_in: false,
            build: TableBuilder::WithExtra(e16_repair_table),
        },
        Experiment {
            name: "e17",
            description: "server tier: concurrent TCP serving over one shared warm session",
            opt_in: false,
            build: TableBuilder::WithExtra(e17_server_table),
        },
    ];
    if list {
        for e in &all {
            let status = if e.opt_in { "opt-in" } else { "default" };
            println!("{:<5} {:<8} {}", e.name, status, e.description);
        }
        return;
    }
    // Fail loudly on anything that is not a known experiment id — a typoed
    // flag must not silently produce an empty run (CI consumes the JSON).
    for r in &requested {
        if !all.iter().any(|e| e.name == r) {
            eprintln!(
                "unknown argument `{r}`; expected experiment ids {}, --list, --threads <n> or --json <path>",
                all.iter().map(|e| e.name).collect::<Vec<_>>().join(", ")
            );
            std::process::exit(2);
        }
    }
    let mut built: Vec<TimedTable> = Vec::new();
    for Experiment {
        name,
        opt_in,
        build,
        ..
    } in all
    {
        // Opt-in tiers (e10's 10^6-node instances) only run when asked for
        // by name, so the default invocation stays within the CI budget.
        let selected = if requested.is_empty() {
            !opt_in
        } else {
            requested.iter().any(|r| r == name)
        };
        if selected {
            eprintln!("running {name}...");
            let timed = match build {
                TableBuilder::Plain(build) => timed_table(name, build),
                TableBuilder::WithExtra(build) => timed_table_with_extra(name, || {
                    let (table, extra) = build();
                    (table, Some(extra))
                }),
            };
            println!("{}", render_table(&timed.table));
            eprintln!("{name} built in {:.1} ms", timed.millis);
            built.push(timed);
        }
    }

    if let Some(path) = json_path {
        let json = tables_to_json(&built, lcs_api::graph::configured_threads());
        if let Err(err) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {err}");
            std::process::exit(1);
        }
        eprintln!("wrote {} table(s) to {path}", built.len());
    }
}
