//! A flush allocates in proportion to its delta, not to the served sets.
//!
//! Serving keeps every maintained set on a persistent B-tree: the published
//! snapshot, the flush's rollback point and the live engine share all
//! nodes, and a one-tuple batch copies only the `O(log n)` chunks on the
//! paths it edits.  With flat sets each flush deep-copied every set a held
//! snapshot still shared — several MB at |S| = 10⁵.
//!
//! This binary holds a single test: a counting `#[global_allocator]` sees
//! every thread of the process, and any other test running next to it would
//! add to the count.

use nrs_ivm::UpdateBatch;
use nrs_serve::ViewServer;
use nrs_synthesis::views::partition_instance;
use nrs_synthesis::{overlapping_workload_problem, SynthesisConfig};
use nrs_value::{Name, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The system allocator, counting allocated bytes while armed.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn count(bytes: usize) {
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(bytes, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards to `System` unchanged; counting only touches
// atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes allocated by `f`.
fn allocated<T>(f: impl FnOnce() -> T) -> (usize, T) {
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (BYTES.load(Ordering::SeqCst), out)
}

#[test]
fn a_one_tuple_flush_under_a_held_snapshot_allocates_less_than_256_kib() {
    // the partition problem: Q = S over V1 = S ∩ F and V2 = S \ F
    let mut problem = overlapping_workload_problem(1);
    problem.queries[0].name = Name::new("Q");
    let rewriting = problem
        .derive_workload(&SynthesisConfig::default())
        .expect("partition rewriting");
    let size = 100_000;
    let base = partition_instance(size, 42);
    let server = ViewServer::builder()
        .serve_workload(&rewriting, &base)
        .expect("server");
    let toggle = |present: bool| {
        let mut batch = UpdateBatch::new();
        let tuple = Value::atom(3 * size as u64 + 17);
        if present {
            batch.delete("S", tuple);
        } else {
            batch.insert("S", tuple);
        }
        batch
    };
    // warm-up rounds register the metrics and leave every stage output
    // shared with the published snapshot, as in steady-state serving
    server.apply(&toggle(false)).expect("warm-up insert");
    server.apply(&toggle(true)).expect("warm-up delete");

    let held = server.snapshot();
    server.submit(&toggle(false)).expect("submit");
    let (bytes, report) = allocated(|| server.flush());
    let report = report.expect("flush");
    assert_eq!(report.batches, 1);
    assert_eq!(report.snapshot.epoch, held.epoch + 1);
    // the held epoch is untouched, the new one has the tuple
    let s = Name::new("S");
    let tuple = Value::atom(3 * size as u64 + 17);
    assert_eq!(held.base().get(&s).unwrap().contains(&tuple), Ok(false));
    assert_eq!(
        report.snapshot.base().get(&s).unwrap().contains(&tuple),
        Ok(true)
    );
    assert!(
        bytes < 256 * 1024,
        "a one-tuple flush at |S| = {size} allocated {bytes} bytes"
    );
}
