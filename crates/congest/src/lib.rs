//! A synchronous CONGEST-model message-passing simulator.
//!
//! The CONGEST model (Peleg, *Distributed Computing: A Locality-Sensitive
//! Approach*) is the setting of the paper: a network of `n` processors
//! communicates over the edges of a connected undirected graph in
//! synchronous rounds, and in every round each node may send at most one
//! message of `O(log n)` bits to each of its neighbors. The complexity
//! measure is the number of rounds.
//!
//! This crate simulates that model exactly:
//!
//! * [`NodeProtocol`] — a per-node state machine (what a single processor
//!   runs),
//! * [`Simulator`] — the synchronous round loop that delivers messages,
//!   enforces the per-edge bandwidth limit, counts rounds, and detects
//!   quiescence; it addresses messages by the graph's own CSR slots and
//!   keeps wake-ups and faulty copies on one kind of timing wheel,
//! * [`primitives`] — the reference BFS-tree protocol, which validates the
//!   simulator and is the workload its goldens and benchmarks run,
//! * [`RoundCost`] — an accumulator used by composite algorithms that
//!   orchestrate several protocol executions and charge explicit
//!   coordination costs, mirroring how the paper composes subroutines.
//!
//! # Example: distributed BFS
//!
//! ```
//! use lcs_congest::{primitives::DistributedBfs, SimConfig, Simulator};
//! use lcs_graph::{generators, NodeId};
//!
//! let graph = generators::grid(6, 6);
//! let sim = Simulator::new(&graph, SimConfig::for_graph(&graph));
//! let outcome = DistributedBfs::run(&sim, NodeId::new(0)).unwrap();
//! // The BFS tree has depth equal to the eccentricity of the root and the
//! // protocol finishes in O(D) rounds.
//! assert_eq!(outcome.depths[35], 10);
//! assert!(outcome.stats.rounds <= 2 * 10 + 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod engine;
mod error;
mod fault;
mod message;
mod node;
mod simulator;

pub mod primitives;

pub use cost::RoundCost;
pub use error::SimError;
pub use fault::FaultPlan;
pub use message::{bits_for_count, bits_for_node_count, MessageBits};
pub use node::{Incoming, NodeContext, NodeProtocol, Outgoing};
pub use simulator::{RoundTrace, SimConfig, SimOutcome, SimStats, Simulator};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SimError>;
