//! Workload-driven serving harness for the low-congestion-shortcuts
//! pipeline: deterministic Zipf traffic over pre-built partition corpora,
//! one open- and closed-loop driver over a [`Transport`] seam (warm
//! [`lcs_api::Session`]s in process, line-JSON TCP in `lcs_server`), and
//! mergeable tail-latency histograms.
//!
//! Every earlier experiment tier measures single operations in isolation;
//! this crate asks the production questions instead — throughput versus
//! latency under *mixed* traffic, tail behavior under *skew*. The pieces:
//!
//! * **[`Corpus`]** — a graph from one [`Family`] (grid / torus / random /
//!   caterpillar / wheel) plus a set of pre-built entries, each holding a
//!   partition, its constructed shortcut, a verification threshold, and an
//!   edge-weight permutation. Built once, then served warm.
//! * **[`ZipfSampler`]** — seeded Zipf(θ) popularity over corpus entries:
//!   θ=0 is uniform, θ=1 concentrates most mass on the head ranks —
//!   exactly the skew that makes construction-cost variance across
//!   partitions visible in the tail.
//! * **[`QueryMix`] / [`WorkloadSpec`] / [`Mode`]** — the traffic knobs:
//!   integer query-mix weights (construct / verify / quality / mst)
//!   apportioned *exactly* over a trace, plus either an open-loop arrival
//!   schedule (Poisson interarrivals) or a closed-loop client count with
//!   think-time.
//! * **[`generate_trace`]** — the seeded trace generator; same seed ⇒
//!   byte-identical [`QueryEvent`] sequence, always.
//! * **[`replay`]** — the one driver, over any [`Transport`]. Open loop
//!   replays the arrival schedule on one client and measures completion −
//!   scheduled arrival (so queueing delay counts — no coordinated
//!   omission); closed loop runs k client threads, each with its own
//!   connection, and measures the service time each client sees. Result
//!   *values* are digested with FNV-1a ([`lcs_api::ValueDigest`]); same
//!   seed ⇒ same digests at any `LCS_THREADS`, any client count, over
//!   either transport, on any machine.
//! * **[`run_workload`]** — [`replay`] in process: generates the trace and
//!   gives every client its own warm session over the corpus graph.
//! * **[`LatencyHistogram`]** — `lcs_obs`'s fixed-bucket log-linear
//!   recorder (16 sub-buckets per octave, ≤ 1/16 relative quantile error)
//!   with exact max tracking and associative/commutative merge for
//!   per-client sub-histograms.
//!
//! # Determinism contract
//!
//! The *trace* (kinds, corpus entries, arrival offsets) is a pure function
//! of the [`WorkloadSpec`]. The *result values* of every query are pure
//! functions of (graph, partition, strategy, session seed) — the engine
//! guarantees value determinism at any thread count — so the workload
//! digest is reproducible even though wall-clock latencies are not.
//! Timings are measurements; values are facts.
//!
//! # Quick start
//!
//! ```
//! use lcs_workload::{Corpus, CorpusSpec, Family, Mode, QueryMix, WorkloadSpec};
//!
//! let corpus = Corpus::build(&CorpusSpec {
//!     family: Family::Grid,
//!     size: 6,
//!     entries: 3,
//!     seed: 7,
//! })
//! .unwrap();
//! let spec = WorkloadSpec::new(
//!     Mode::Closed { clients: 2, think_nanos: 0 },
//!     40,
//!     1.0,
//!     QueryMix::consume(),
//!     7,
//! );
//! let outcome = lcs_workload::run_workload(&corpus, &spec).unwrap();
//! assert_eq!(outcome.queries, 40);
//! let rerun = lcs_workload::run_workload(&corpus, &spec).unwrap();
//! assert_eq!(outcome.digest, rerun.digest); // values are deterministic
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod driver;
pub mod spec;
pub mod trace;
pub mod zipf;

pub use corpus::{Corpus, CorpusEntry, CorpusSpec, Family, RepairCase};
pub use driver::{
    query_of, replay, run_workload, run_workload_obs, ClientOutcome, Transport, WorkloadOutcome,
};
pub use lcs_obs::LatencyHistogram;
pub use spec::{Mode, QueryMix, WorkloadSpec};
pub use trace::{generate_trace, QueryEvent, QueryKind};
pub use zipf::ZipfSampler;
