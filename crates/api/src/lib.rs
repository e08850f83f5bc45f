//! One front door for the low-congestion-shortcuts workspace.
//!
//! The lower crates (`lcs_graph`, `lcs_congest`, `lcs_core`, `lcs_dist`,
//! `lcs_mst`) each expose precise but scattered entry points: five config
//! structs, four error enums, an execution-mode switch and an environment
//! variable had to be juggled just to run the quickstart. This crate
//! redesigns the public surface around a two-phase object model:
//!
//! 1. **[`Pipeline`]** — a builder fixing the per-graph choices once:
//!    which spanning tree ([`TreeSpec`]), how many worker threads
//!    ([`lcs_graph::Threads`], a value — not an env read), which
//!    [`ExecutionMode`], the seed, and tracing.
//! 2. **[`Session`]** — the built object, owning every piece of state
//!    reusable across queries on one graph: the tree, the epoch-stamped
//!    quality workspaces, and the resolved simulator configuration.
//!    Queries ([`Session::shortcut`], [`Session::quality`],
//!    [`Session::verify`], [`Session::mst`], [`Session::core`], the
//!    multi-query [`Session::batch`], and the incremental repairs
//!    [`Session::track_partition`] / [`Session::repair_from`]) are all
//!    `&self` and allocate per-query results only: a repair returns the
//!    [`RepairBaseline`] the next delta repairs from, and the session
//!    keeps none of it.
//!
//! Every query reports through one serializable [`Report`] shape and one
//! error enum ([`LcsError`], defined in `lcs_graph` so each layer converts
//! into it). Every construction a session runs — [`Session::shortcut`],
//! the repair queries and each Boruvka phase of [`Session::mst`] — is one
//! call of the Appendix A loop (`lcs_core::construction::doubling_search`)
//! over the session's tree, with the verifier of the session's execution
//! mode; a [`Strategy`] only picks the loop's starting guesses, core and
//! doubling budget.
//!
//! # Quick start
//!
//! ```
//! use lcs_api::{Pipeline, Strategy};
//! use lcs_api::graph::generators;
//!
//! // A planar grid partitioned into its columns.
//! let graph = generators::grid(8, 8);
//! let partition = generators::partitions::grid_columns(8, 8);
//!
//! // One session, many queries.
//! let session = lcs_api::Pipeline::on(&graph).build().unwrap();
//! let run = session.shortcut(&partition, Strategy::doubling()).unwrap();
//! assert!(run.report.all_parts_good);
//!
//! let quality = session.quality(&run.shortcut, &partition).unwrap();
//! let (_, b) = run.winning_guess().unwrap();
//! assert!(quality.block_parameter <= 3 * b);
//!
//! // The report serializes without any external dependency.
//! assert!(run.report.to_json().starts_with("{\"operation\":\"shortcut\""));
//! # let _ = Pipeline::on(&graph);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod report;
mod serve;
mod session;

pub use config::{CoreKind, DoublingSpec, Strategy, TreeSpec};
pub use report::{Attempt, Report};
pub use serve::{Query, QueryValue, Served, ValueDigest};
pub use session::{
    MstRun, Pipeline, RepairBaseline, RepairRun, Result, Session, ShortcutRun, VerifyRun,
};

// The unified error and the thread-count value type live at the bottom of
// the dependency graph; the façade is their primary surface.
pub use lcs_graph::{LcsError, Threads};

// The partition-edit vocabulary of the incremental repair path
// (`Session::track_partition` / `Session::repair_from`).
pub use lcs_graph::{AppliedDelta, DeltaOp, PartSet, PartitionDelta};

// The execution-mode switch is shared with the legacy entry points.
pub use lcs_core::routing::ExecutionMode;

// Pieces of the lower layers a façade caller still reaches for by name:
// the quality record, the tree-restricted shortcut, the MST strategy enum
// (including its baselines), and the distributed cross-check harness.
pub use lcs_congest::{FaultPlan, RoundCost, RoundTrace, SimStats};
pub use lcs_core::construction::CoreOutcome;
pub use lcs_core::{ShortcutQuality, TreeShortcut};
pub use lcs_dist::{CheckedRun, CrossCheck};
pub use lcs_mst::ShortcutStrategy;

/// The graph substrate (structures, generators, spanning trees,
/// partitions, centralized references), re-exported so façade callers need
/// only this crate in scope.
pub use lcs_graph as graph;

/// The CONGEST simulator layer, for callers that drive protocols directly.
pub use lcs_congest as congest;

/// The routing machinery (Lemma 2 schedules, Theorem 2 part primitives),
/// for callers that measure schedules directly.
pub use lcs_core::routing;

/// The centralized existential constructions (the "canonical shortcut"
/// Theorem 3 assumes), used to derive reference `(c, b)` parameters.
pub use lcs_core::existential;

/// The distributed protocol layer, for callers that run individual
/// protocols rather than whole pipeline queries.
pub use lcs_dist as dist;
