//! Allocation regression test for simulated verification.
//!
//! After setup, neither the round loop nor the superstep engine allocates
//! per round, per poll or per superstep: protocols send into an outbox the
//! engine reuses, wake-ups go into a calendar that recycles its buckets,
//! mail goes into entry buffers that keep their capacity, per-membership
//! superstep state is reset in place, and the sharded engine's exchange
//! buffers keep their capacity too. So a run with more than four times
//! the supersteps allocates about as much as a short one.
//!
//! Nor does setup allocate per node: the block family is flat CSR, the
//! engine's per-membership state lives in three run-wide arenas, and the
//! counting program sizes each observation list once, on first use. So a
//! verification on a grid with 2048 more nodes allocates fewer than two
//! times more per added node (the per-node layout allocated about 7.9).
//!
//! Nor per block: the family is built from lcs_core's flat block pass by
//! counting sorts, so building it for 1024 singleton parts allocates as
//! often as for 32 columns (a list per block allocated 14,948 against 561).
//!
//! The counting allocator is process-global, which is why this binary holds
//! a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lcs_congest::SimConfig;
use lcs_core::existential::ancestor_shortcut;
use lcs_dist::{counting_supersteps, verification_simulated, BlockCounting, BlockFamily};
use lcs_graph::{generators, Graph, NodeId, Partition, RootedTree};
use lcs_obs::Obs;

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so each call meets the `GlobalAlloc` contract exactly when the
// caller's does; the only addition is a relaxed counter increment, which
// neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The instance: grid `side`×`side`, its columns, the ancestor shortcut.
fn instance(side: usize) -> (Graph, RootedTree, Partition) {
    let g = generators::grid(side, side);
    let t = RootedTree::bfs(&g, NodeId::new(0));
    let p = generators::partitions::grid_columns(side, side);
    (g, t, p)
}

/// Allocations of one fault-free verification at `threshold` on `threads`
/// engine threads, after one uncounted warm-up run.
fn allocations(instance: &(Graph, RootedTree, Partition), threshold: usize, threads: usize) -> u64 {
    let (g, t, p) = instance;
    let s = ancestor_shortcut(g, t, p);
    let active = vec![true; p.part_count()];
    let config = SimConfig::for_graph(g).with_threads(threads);
    let question = BlockCounting {
        graph: g,
        tree: t,
        partition: p,
        shortcut: &s,
        threshold,
        active: &active,
    };
    // Warm up once so lazily initialized process state is not counted.
    verification_simulated(&question, Some(config), &Obs::off())
        .expect("fault-free verification runs");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let ver = verification_simulated(&question, Some(config), &Obs::off())
        .expect("fault-free verification runs");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(ver.outcome.good.iter().all(|&good| good));
    assert_eq!(ver.supersteps, counting_supersteps(threshold));
    after - before
}

/// Allocations of one `BlockFamily::new` with the ancestor shortcut, after
/// one uncounted warm-up build.
fn family_allocations(instance: &(Graph, RootedTree, Partition)) -> u64 {
    let (g, t, p) = instance;
    let s = ancestor_shortcut(g, t, p);
    drop(BlockFamily::new(g, t, p, &s));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let family = BlockFamily::new(g, t, p, &s);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(family.block_parameter(), 1);
    after - before
}

#[test]
fn verification_allocations_do_not_grow_with_supersteps() {
    let grid = instance(32);
    for threads in [1usize, 2] {
        let short = allocations(&grid, 1, threads);
        let long = allocations(&grid, 8, threads);
        assert!(
            long as f64 <= short as f64 * 1.05,
            "threads {threads}: {long} allocations at threshold 8 against {short} at \
             threshold 1 ({} vs {} supersteps)",
            counting_supersteps(8),
            counting_supersteps(1),
        );
    }

    // Nor with the node count: fewer than two more allocations per added
    // node from grid 16×16 to grid 48×48.
    let (small, large) = (instance(16), instance(48));
    let added = (large.0.node_count() - small.0.node_count()) as u64;
    for threads in [1usize, 2] {
        let few = allocations(&small, 3, threads);
        let many = allocations(&large, 3, threads);
        assert!(
            many.saturating_sub(few) < 2 * added,
            "threads {threads}: {many} allocations on grid 48×48 against {few} on grid \
             16×16, {:.2} per added node",
            many.saturating_sub(few) as f64 / added as f64,
        );
    }

    // Nor with the part count: the family build allocates as often for
    // 1024 singleton parts as for 32 columns.
    let columns = instance(32);
    let singletons = {
        let (g, t, _) = &columns;
        let p = generators::partitions::singletons(g);
        (g.clone(), t.clone(), p)
    };
    assert_eq!(singletons.2.part_count(), 1024);
    let few = family_allocations(&columns);
    let many = family_allocations(&singletons);
    assert_eq!(
        many, few,
        "BlockFamily::new allocated {many} times for 1024 parts against {few} for 32"
    );
}
