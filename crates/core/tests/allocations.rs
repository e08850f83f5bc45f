//! Allocation regression test for scheduled construction.
//!
//! `verification` counts blocks and schedules the Lemma 2 convergecast on a
//! fixed number of flat, epoch-stamped buffers per call, so the number of
//! allocations does not grow with the number of parts. `PartRouter::new`
//! runs the same block pass and schedule, so neither does its count.
//! `core_fast` builds its id lists in one arena and lays its shortcut out as
//! two CSR relations straight from that arena, and `FindShortcut` lays its
//! result out once, so a whole doubling search allocates a bounded number
//! of times however many parts it serves. `Partition::from_assignment`
//! counting-sorts the members into one flat array.
//!
//! The counting allocator is process-global, which is why this binary holds
//! a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lcs_core::construction::{
    core_fast, doubling_search, verification, CoreFastConfig, DoublingConfig, VerificationOutcome,
};
use lcs_core::existential::ancestor_shortcut;
use lcs_core::routing::PartRouter;
use lcs_core::TreeShortcut;
use lcs_graph::{generators, Graph, NodeId, Partition, RootedTree};

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

/// Allocations of one `core_fast` call, whatever the part count.
const CORE_FAST_ALLOCATIONS: u64 = 32;

/// Allocations of one warm `doubling_search`, whatever the part count.
const DOUBLING_ALLOCATIONS: u64 = 96;

fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn construction_allocations_do_not_grow_with_parts_or_output() {
    let g = generators::grid(32, 32);
    let t = RootedTree::bfs(&g, NodeId::new(0));
    let singletons = generators::partitions::singletons(&g);
    let columns = generators::partitions::grid_columns(32, 32);
    assert_eq!(singletons.part_count(), 1024);
    assert_eq!(columns.part_count(), 32);

    // Verification: as many allocations for 1024 parts as for 32.
    let verify_allocations = |partition: &lcs_graph::Partition, threshold: usize| {
        let s = ancestor_shortcut(&g, &t, partition);
        let active = vec![true; partition.part_count()];
        let (outcome, allocations) =
            counted(|| verification(&g, &t, partition, &s, threshold, &active));
        assert!(outcome.good.iter().all(|&good| good));
        allocations
    };
    // Warm up once so lazily initialized process state is not counted.
    verify_allocations(&columns, 1);
    for threshold in [1usize, 8] {
        let few = verify_allocations(&columns, threshold);
        let many = verify_allocations(&singletons, threshold);
        assert_eq!(
            many, few,
            "threshold {threshold}: verification allocated {many} times for 1024 parts \
             against {few} for 32"
        );
    }

    // PartRouter: as many allocations for 1024 parts as for 32.
    let router_allocations = |partition: &lcs_graph::Partition| {
        let s = ancestor_shortcut(&g, &t, partition);
        let (router, allocations) = counted(|| PartRouter::new(&g, &t, partition, &s));
        assert_eq!(router.block_parameter(), 1);
        allocations
    };
    let few = router_allocations(&columns);
    let many = router_allocations(&singletons);
    assert_eq!(
        many, few,
        "PartRouter::new allocated {many} times for 1024 parts against {few} for 32"
    );

    // CoreFast: a constant number of allocations.
    for partition in [&columns, &singletons] {
        let active = vec![true; partition.part_count()];
        for c in [1usize, 64] {
            let config = CoreFastConfig::new(c).with_seed(3);
            let (outcome, allocations) = counted(|| core_fast(&g, &t, partition, &config, &active));
            assert!(outcome.shortcut.assignment_count() > 0);
            assert!(
                allocations <= CORE_FAST_ALLOCATIONS,
                "{} parts, c = {c}: core_fast allocated {allocations} times, above \
                 {CORE_FAST_ALLOCATIONS}",
                partition.part_count()
            );
        }
    }

    // A warm doubling search with the scheduled verifier: a constant number
    // of allocations for 32 parts and for 1024.
    let scheduled = |g: &Graph,
                     t: &RootedTree,
                     p: &Partition,
                     s: &TreeShortcut,
                     threshold: usize,
                     active: &[bool]|
     -> lcs_graph::LcsResult<VerificationOutcome> {
        Ok(verification(g, t, p, s, threshold, active))
    };
    let config = DoublingConfig::default();
    for partition in [&columns, &singletons] {
        let active = vec![true; partition.part_count()];
        let search = || doubling_search(&g, &t, partition, &active, &config, None, scheduled);
        search().expect("warm-up search runs");
        let (result, allocations) = counted(search);
        assert!(result.expect("the search runs").all_parts_good);
        assert!(
            allocations <= DOUBLING_ALLOCATIONS,
            "{} parts: doubling_search allocated {allocations} times, above \
             {DOUBLING_ALLOCATIONS}",
            partition.part_count()
        );
    }

    // Partition::from_assignment: as many allocations for 1024 parts as for
    // 32 (the assignment clone included).
    let partition_allocations = |partition: &Partition| {
        let assignment: Vec<_> = g.nodes().map(|v| partition.part_of(v)).collect();
        let (rebuilt, allocations) = counted(|| {
            Partition::from_assignment(g.node_count(), assignment.clone())
                .expect("a valid assignment")
        });
        assert_eq!(&rebuilt, partition);
        allocations
    };
    let few = partition_allocations(&columns);
    let many = partition_allocations(&singletons);
    assert_eq!(
        many, few,
        "Partition::from_assignment allocated {many} times for 1024 parts against {few} for 32"
    );
}
