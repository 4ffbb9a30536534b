//! Maintenance set-up allocates per output node, not per member.
//!
//! Building a [`MaintainedWorkload`] fills every view, shared fragment and
//! answer once over the base.  The views are filters `{x ∈ R | φ(x)}`: the filter
//! kernel decides `φ` without building Boolean sets and walks `R` in order
//! against each haystack, so the allocation count is a small fraction of
//! the member count; evaluating `φ` member by member costs about 13
//! allocations each.  The partition answer `Q` is no filter: its
//! interpolant only probes the views its range `V1 ∪ V2` is made of, so the
//! planner serves it as that union, one merge of the two views (and no
//! second copy of it).
//!
//! The count is exact and repeatable once the first build has registered
//! the workload's metrics (same instance, same plans, one thread), which is
//! why this binary holds a single test: a counting
//! `#[global_allocator]` sees every thread of the process, and any other
//! test running next to it would add to the count.  It is pinned at 1.05×
//! its reading, 1,239 in a release and in a debug build (`-- --nocapture`
//! prints it); when the answer was still a filter over `V1 ∪ V2` it read
//! 1,582.

use nrs_synthesis::views::partition_instance;
use nrs_synthesis::{overlapping_workload_problem, MaintainedWorkload, SynthesisConfig};
use nrs_value::Name;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The system allocator, counting allocations while armed.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn count() {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards to `System` unchanged; counting only touches
// atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made by `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::SeqCst), out)
}

/// The allocation count of one partition build at |S| = 10⁴ (the same in
/// a release and in a debug build).
const READING: usize = 1_239;

#[test]
fn partition_setup_allocates_less_than_half_an_allocation_per_member() {
    // the partition problem: Q = S over V1 = S ∩ F and V2 = S \ F
    let mut problem = overlapping_workload_problem(1);
    problem.queries[0].name = Name::new("Q");
    let rewriting = problem
        .derive_workload(&SynthesisConfig::default())
        .expect("partition rewriting");
    let size = 10_000;
    let base = partition_instance(size, 42);
    // the first build also registers the workload's metrics
    MaintainedWorkload::new(&rewriting, &base).expect("materialize");
    let (count, maintained) = allocations(|| MaintainedWorkload::new(&rewriting, &base));
    let maintained = maintained.expect("materialize");
    assert_eq!(
        maintained.answer(&Name::new("Q")),
        base.try_get(&Name::new("S")),
        "the partition answer is S"
    );
    println!("MaintainedWorkload::new made {count} allocations for |S| = {size}");
    assert!(
        count < size / 2 && count <= READING + READING / 20,
        "MaintainedWorkload::new made {count} allocations for |S| = {size} \
         (pinned at 1.05 × {READING})"
    );
    let (again, _) = allocations(|| MaintainedWorkload::new(&rewriting, &base));
    assert_eq!(again, count, "the allocation count is deterministic");
}
