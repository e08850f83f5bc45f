//! Tree-restricted low-congestion shortcuts, constructed without embedding.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Haeupler, Izumi, Zuzic, *Low-Congestion Shortcuts without Embedding*,
//! PODC 2016):
//!
//! * [`TreeShortcut`] — the paper's *tree-restricted* shortcuts
//!   (Definition 2): every shortcut subgraph `H_i` consists solely of edges
//!   of a fixed rooted spanning tree `T`, measured by the *block parameter*
//!   (Definition 3) besides Definition 1's congestion and dilation, which
//!   [`ShortcutQuality`] records (Lemma 1 relates dilation to the block
//!   parameter),
//! * [`routing`] — the deterministic routing machinery: Lemma 2 tree
//!   routing for families of subtrees, and the Theorem 2 part-parallel
//!   primitives (leader election, convergecast, broadcast) plus the Lemma 3
//!   block-component counting,
//! * [`construction`] — the paper's Section 5 algorithms: `CoreSlow`
//!   (Algorithm 1), `CoreFast` (Algorithm 2), `Verification`,
//!   `FindShortcut` (Theorem 3) with one `Verifier` seam, and the
//!   Appendix A doubling loop for unknown parameters — the one
//!   construction loop every caller runs,
//! * [`existential`] — centralized reference constructions that exhibit
//!   *some* tree-restricted shortcut for a given instance; they play the
//!   role of the "canonical shortcut" whose existence Theorem 3 assumes.
//!
//! # Quick start
//!
//! ```
//! use lcs_core::construction::{verification, FindShortcut, FindShortcutConfig};
//! use lcs_graph::{generators, NodeId, RootedTree};
//!
//! // A planar grid partitioned into its columns.
//! let graph = generators::grid(8, 8);
//! let partition = generators::partitions::grid_columns(8, 8);
//! let tree = RootedTree::bfs(&graph, NodeId::new(0));
//!
//! // Construct a near-optimal tree-restricted shortcut for every part,
//! // assuming a canonical shortcut with congestion 8 and block parameter 3
//! // exists, with the scheduled Lemma 3 verification.
//! let active = vec![true; partition.part_count()];
//! let result = FindShortcut::new(FindShortcutConfig::new(8, 3))
//!     .run(&graph, &tree, &partition, &active, |g, t, p, s, threshold, active| {
//!         Ok(verification(g, t, p, s, threshold, active))
//!     })
//!     .unwrap();
//! let quality = result.shortcut.quality(&graph, &partition);
//! assert!(quality.block_parameter <= 3 * 3);
//! assert!(result.all_parts_good);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod quality;
mod tree_restricted;

pub mod construction;
pub mod existential;
pub mod routing;

pub use quality::{QualityPool, ShortcutQuality};
pub use tree_restricted::TreeShortcut;
