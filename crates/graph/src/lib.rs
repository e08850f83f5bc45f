//! Graph substrate for the low-congestion shortcuts reproduction.
//!
//! This crate provides every graph-theoretic building block the rest of the
//! workspace relies on:
//!
//! * [`Graph`] — a compact undirected simple-graph representation
//!   with stable [`NodeId`] / [`EdgeId`] identifiers,
//! * [`GraphBuilder`] — incremental construction with duplicate-edge checks,
//! * [`RootedTree`] — rooted spanning trees (BFS trees in particular) with
//!   parent/depth/children access patterns used heavily by the shortcut
//!   framework,
//! * [`Partition`] — disjoint, individually connected node parts
//!   (the objects that shortcuts are built *for*),
//! * [`ShardMap`] — contiguous node sharding for the parallel engines
//!   (plus [`configured_threads`], the `LCS_THREADS` workspace knob, and
//!   [`Threads`], the value type that carries the count through the
//!   pipeline),
//! * [`LcsError`] — the workspace-wide unified error the `lcs_api` façade
//!   surfaces; every crate converts its own error enum into it,
//! * [`generators`] — synthetic network families used throughout the
//!   experiments (grids, tori, genus-`g` handle graphs, wheels, paths,
//!   random graphs, and the classic lower-bound construction),
//! * centralized reference algorithms: BFS/DFS, diameter, connected
//!   components, union-find and Kruskal/Prim MST (used as ground truth when
//!   validating the distributed algorithms).
//!
//! # Example
//!
//! ```
//! use lcs_graph::{generators, NodeId, RootedTree};
//!
//! // An 8x8 planar grid with a BFS spanning tree rooted at node 0.
//! let graph = generators::grid(8, 8);
//! let tree = RootedTree::bfs(&graph, NodeId::new(0));
//! assert_eq!(tree.depth_of_tree(), 14);
//!
//! // Partition the grid into its columns; every column is connected.
//! let partition = generators::partitions::grid_columns(8, 8);
//! partition.validate(&graph).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod delta;
mod diameter;
mod error;
mod graph;
mod ids;
mod mst;
mod partition;
mod sharding;
mod traversal;
mod tree;
mod unified_error;
mod union_find;
mod weights;

pub mod generators;

pub use builder::GraphBuilder;
pub use delta::{AppliedDelta, DeltaOp, PartitionDelta};
pub use diameter::{diameter_exact, diameter_lower_bound_double_sweep, eccentricity};
pub use error::GraphError;
pub use graph::{Edge, Graph};
pub use ids::{EdgeId, NodeId, PartId};
pub use mst::{kruskal_mst, mst_weight, prim_mst};
pub use partition::{Partition, PartitionBuilder};
pub use sharding::{configured_threads, ShardMap, Threads};
pub use traversal::{bfs_distances, connected_components, is_connected, BfsResult};
pub use tree::RootedTree;
pub use unified_error::{LcsError, LcsResult};
pub use union_find::UnionFind;
pub use weights::EdgeWeights;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
