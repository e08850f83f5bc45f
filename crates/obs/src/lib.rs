//! Zero-overhead-when-off instrumentation for the low-congestion-shortcuts
//! workspace.
//!
//! The crate sits at the bottom of the dependency graph (it depends on
//! nothing, not even `lcs_graph`) so every layer — the CONGEST engines,
//! the distributed protocols, the session façade, the workload drivers,
//! the bench tables — can report through the same registry. Three design
//! rules govern everything here:
//!
//! 1. **Off means off.** The handle threaded through the layers is
//!    [`Obs`], a clonable wrapper around `Option<Arc<Metrics>>`. When the
//!    option is `None` every probe is a single predictable branch, no
//!    allocation, no clock read, no lock — disabled builds are
//!    byte-identical in output and within noise in time.
//! 2. **Counts are facts; timings are measurements.** Counters hold only
//!    thread-invariant quantities (rounds, messages, bits, polls, query
//!    counts), so the counter half of a [`MetricsSnapshot`] is
//!    byte-identical across reruns and across `LCS_THREADS` settings.
//!    Everything shape- or clock-dependent lives in gauges (shard splits,
//!    staging volumes) or timer histograms (barrier waits, latencies).
//! 3. **The hot path stays lock-free.** Worker threads record into plain
//!    local buffers ([`SpanBuffer`], or their own
//!    [`LatencyHistogram`]s) that the coordinator merges into the
//!    registry at phase boundaries, in deterministic (shard/client)
//!    order.
//!
//! The [`json`] module is the one hand-rolled JSON writer shared by
//! `Report::to_json`, the experiments-table emitter, and the histogram
//! serializer — plus a minimal parser so round-trips are testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod histogram;
pub mod json;
pub mod metrics;

pub use export::MetricsSnapshot;
pub use histogram::{bucket_bounds, bucket_index, LatencyHistogram};
pub use metrics::{Metrics, Obs, SpanBuffer, SpanGuard};
