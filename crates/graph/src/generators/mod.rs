//! Synthetic network families used throughout the experiments.
//!
//! All generators return connected [`crate::Graph`]s; each family is chosen
//! because it exercises a specific regime of the shortcut framework:
//!
//! * [`grid`], [`triangulated_grid`] — planar graphs with `D = Θ(√n)`
//!   (the family Theorem 1 / Corollary 1 is about, with genus 0),
//! * [`torus`], [`genus_handles`] — genus-1 and genus-≤g families,
//! * [`wheel`] — planar, diameter 2, while arc parts have diameter `Θ(n/N)`:
//!   the extreme case where shortcuts help most,
//! * [`lower_bound_graph`] — the classic `Ω̃(√n + D)` hard instance (paths
//!   plus a shallow highway tree): the case where *no* good shortcut exists,
//!   used as a negative control,
//! * [`path`], [`cycle`], [`star`], [`complete`], [`caterpillar`],
//!   [`binary_tree`], [`lollipop`] — small structured families for unit
//!   tests,
//! * [`random_tree`], [`random_connected`] — randomized families for
//!   property-based tests.
//!
//! The [`partitions`] submodule generates matching [`crate::Partition`]s.

mod basic;
mod grids;
mod lower_bound;
mod random;

pub mod partitions;

pub use basic::{binary_tree, caterpillar, complete, cycle, lollipop, path, star, wheel};
pub use grids::{genus_handles, grid, grid_node, torus, triangulated_grid};
pub use lower_bound::{lower_bound_graph, LowerBoundLayout};
pub use random::{random_connected, random_tree};
