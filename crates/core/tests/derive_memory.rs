//! A cold derivation holds little memory at its peak.
//!
//! Proof search keeps every refuted sequent in the failure memo and every
//! proved one in its proof, so the bytes a sequent holds set the peak of a
//! derivation.  Sequents are built at exactly their size, and memo keys
//! carry only the two sides, not the occurrence index.  When an insert
//! doubled each copied vector and the memo kept whole sequents, the same
//! derivation peaked at about twice the bytes.
//!
//! This binary holds a single test: a counting `#[global_allocator]` sees
//! every thread of the process (the prover session searches on a worker
//! thread of its own), and any other test running next to it would add to
//! the count.

use nrs_prover::ProverConfig;
use nrs_synthesis::{overlapping_workload_problem, SynthesisConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// The system allocator, tracking live and peak bytes while armed.
struct Peak;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

impl Peak {
    fn grow(bytes: usize) {
        if ARMED.load(Ordering::Relaxed) {
            let bytes = bytes as isize;
            let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }

    /// Frees of blocks allocated before arming may take `LIVE` below zero,
    /// which only lowers the peak: the reading is a lower bound.
    fn shrink(bytes: usize) {
        if ARMED.load(Ordering::Relaxed) {
            LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping only
// touches atomics, which never allocate.
unsafe impl GlobalAlloc for Peak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Peak::grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Peak::shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Peak::grow(new_size);
        Peak::shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Peak = Peak;

/// The most bytes live at once while `f` ran, above what was live before.
fn peak_live<T>(f: impl FnOnce() -> T) -> (isize, T) {
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (PEAK.load(Ordering::SeqCst), out)
}

#[test]
fn a_cold_overlapping_derivation_peaks_under_12_mib() {
    // sequential search: the same states on every run (a parallel race
    // could leave a different set of refuted sequents in the memo)
    let cfg = SynthesisConfig {
        prover: ProverConfig {
            parallel_branches: false,
            ..ProverConfig::default()
        },
        ..SynthesisConfig::default()
    };
    let problem = overlapping_workload_problem(8);
    let (peak, rewriting) = peak_live(|| problem.derive_workload(&cfg));
    let rewriting = rewriting.expect("overlapping(8) derives");
    assert_eq!(rewriting.report().synthesis.states_visited, 7115);
    let mib = peak as f64 / (1024.0 * 1024.0);
    assert!(
        mib < 12.0,
        "a cold overlapping(8) derivation peaked at {mib:.2} MiB live (bound 12 MiB)"
    );
}
