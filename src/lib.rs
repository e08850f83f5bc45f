//! Umbrella crate for the *Low-Congestion Shortcuts without Embedding*
//! reproduction (Haeupler, Izumi, Zuzic — PODC 2016).
//!
//! This crate simply re-exports the workspace members under one roof so the
//! examples and integration tests can depend on a single package:
//!
//! * [`graph`] — graph substrate: structures, generators, spanning trees,
//!   partitions, centralized reference algorithms,
//! * [`congest`] — the synchronous CONGEST-model simulator,
//! * [`core`] — tree-restricted shortcuts: definitions, routing,
//!   construction (`CoreSlow`, `CoreFast`, `FindShortcut`, doubling),
//! * [`dist`] — the distributed protocol layer: Lemma 2 / Theorem 2 /
//!   Lemma 3 executed as real message passing in the simulator, with the
//!   cross-check harness pitting them against the scheduled versions,
//! * [`mst`] — applications: distributed Boruvka MST, part-wise aggregation,
//!   and the baselines used by the experiments,
//! * [`api`] — the `Pipeline`/`Session` front door with unified config,
//!   errors, and reports,
//! * [`workload`] — the serving harness: Zipf traffic over pre-built
//!   corpora, open/closed-loop client drivers, tail-latency histograms,
//! * [`obs`] — the zero-overhead-when-off instrumentation layer: metric
//!   registry, spans, Prometheus/JSON export, and the shared JSON writer.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the reproduced quantitative claims.
//!
//! # Quick start
//!
//! ```
//! use low_congestion_shortcuts::api::{Pipeline, Strategy};
//! use low_congestion_shortcuts::graph::generators;
//!
//! let graph = generators::wheel(33);
//! let partition = generators::partitions::wheel_arcs(33, 4);
//! // One session per graph: its BFS tree and verifier serve every query.
//! let session = Pipeline::on(&graph).build().unwrap();
//! let run = session.shortcut(&partition, Strategy::doubling()).unwrap();
//! assert_eq!(run.shortcut.quality(&graph, &partition).block_parameter, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lcs_api as api;
pub use lcs_congest as congest;
pub use lcs_core as core;
pub use lcs_dist as dist;
pub use lcs_graph as graph;
pub use lcs_mst as mst;
pub use lcs_obs as obs;
pub use lcs_server as server;
pub use lcs_workload as workload;
