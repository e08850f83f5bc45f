//! Experiment harness for the low-congestion shortcuts reproduction.
//!
//! The paper is a theory paper with no numeric tables, so each experiment
//! here regenerates the quantitative content of one theorem or lemma as a
//! table over a parameter sweep (see `DESIGN.md` §5 and `EXPERIMENTS.md`).
//! The same functions back the `experiments` binary, which prints the
//! tables and writes them as JSON.
//!
//! Every row reports *measured* quantities: round counts come from the
//! exact schedules executed by `lcs-core`/`lcs-mst`, and quality figures are
//! measured on the constructed shortcuts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

pub use experiments::{
    e10_scale_table, e11_serving_table, e13_workload_table, e14_obs_table, e15_faults_table,
    e16_repair_table, e17_server_table, e1_quality_table, e2_findshortcut_table, e3_routing_table,
    e4_mst_table, e5_core_table, e6_doubling_table, e7_guarantees_table, e8_dist_table,
    e9_scale_table, render_table, tables_to_json, timed_table, Table, TimedTable,
};
