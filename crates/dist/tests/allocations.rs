//! Allocation regression test for simulated verification.
//!
//! After setup, neither the round loop nor the superstep engine allocates
//! per round, per poll or per superstep: protocols send into an outbox the
//! engine reuses, wake-ups go into a calendar that recycles its buckets,
//! per-membership superstep state is reset in place, and the sharded
//! engine swaps its inbound queue with a reused buffer. So a run with more
//! than four times the supersteps allocates about as much as a short one.
//!
//! The counting allocator is process-global, which is why this binary holds
//! a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lcs_congest::SimConfig;
use lcs_core::existential::ancestor_shortcut;
use lcs_dist::{counting_supersteps, verification_simulated, BlockCounting};
use lcs_graph::{generators, NodeId, RootedTree};
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

#[test]
fn verification_allocations_do_not_grow_with_supersteps() {
    let g = generators::grid(32, 32);
    let t = RootedTree::bfs(&g, NodeId::new(0));
    let p = generators::partitions::grid_columns(32, 32);
    let s = ancestor_shortcut(&g, &t, &p);
    let active = vec![true; p.part_count()];
    let allocations = |threshold: usize, threads: usize| {
        let config = SimConfig::for_graph(&g).with_threads(threads);
        let question = BlockCounting {
            graph: &g,
            tree: &t,
            partition: &p,
            shortcut: &s,
            threshold,
            active: &active,
        };
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let ver = verification_simulated(&question, Some(config), &Obs::off())
            .expect("fault-free verification runs");
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert!(ver.outcome.good.iter().all(|&good| good));
        assert_eq!(ver.supersteps, counting_supersteps(threshold));
        after - before
    };

    for threads in [1usize, 2] {
        // Warm up once so lazily initialized process state is not counted.
        allocations(1, threads);
        let short = allocations(1, threads);
        let long = allocations(8, threads);
        assert!(
            long as f64 <= short as f64 * 1.05,
            "threads {threads}: {long} allocations at threshold 8 against {short} at \
             threshold 1 ({} vs {} supersteps)",
            counting_supersteps(8),
            counting_supersteps(1),
        );
    }
}
