//! A cold derivation holds little memory at its peak, the synthesizer it
//! leaves behind holds less, and it makes few allocations.
//!
//! Proof search keeps every refuted sequent in the failure memo, every
//! proved one in its proof, and the specializations and rewrites it
//! computed in the session's caches, so the bytes those hold set the peak
//! of a derivation — and what a held `Synthesizer` keeps for the next one.
//! A sequent is two exact-size allocations (its side of 8-byte handles to
//! interned formulas, and a record of the side's hash, kind-group starts
//! and occurrence index), memo keys share the side alone, equal contexts
//! are one interned node, and candidate rules, proof nodes, partitions and
//! both formula caches hold handles too: the specialization cache keeps,
//! per (quantifier, context), an exact-size slice of (result, rank,
//! risky?) for the specializations that used an atom.  A cold
//! `overlapping(8)` derivation peaks at about 1.9 MiB and leaves about
//! 1.7 MiB in its synthesizer; clearing the session's caches one by one
//! frees about 1.0 MiB (failure memo), 0.16 MiB (specializations),
//! 0.07 MiB (rewrites) and 0.2 MiB (goal outcomes).  When the caches, rules
//! and proof nodes held 56-byte formula copies and every context its own
//! vector, the same derivation peaked at 3.6 MiB and left 3.3 MiB (memo
//! 1.4, specializations 1.1, rewrites 0.39, goals 0.22 MiB); before
//! sequent sides held handles, at 8.4 MiB; and when, on top of that, an
//! insert doubled each copied vector and the memo kept whole sequents, at
//! about 17 MiB.
//!
//! The allocation count of each cold derivation is pinned at 1.05× its
//! reading when a premise became one edit of two allocations (side and
//! record) and partitions became sets of handles: in a release build
//! `overlapping(8)` then read 86,262 allocations (121,658 before) and
//! partition 46,896 (70,340).  The count repeats to within a few
//! allocations of the prover's worker thread.
//!
//! This binary holds a single test: a counting `#[global_allocator]` sees
//! every thread of the process (the prover session searches on a worker
//! thread of its own), and any other test running next to it would add to
//! the count.  The partition case runs second, so names and registry
//! entries the first case created once per process are not counted again
//! (run alone it reads about 0.1 MiB more).

use nrs_synthesis::views::partition_problem;
use nrs_synthesis::{overlapping_workload_problem, Synthesizer, WorkloadProblem};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

/// The system allocator, tracking live and peak bytes and counting
/// allocations while armed.
struct Peak;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

impl Peak {
    /// An allocation (or reallocation) of `bytes`.
    fn grow(bytes: usize) {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// Run `f` with the counter armed; returns the most bytes live at once
/// while it ran, above what was live before, the allocations it made, and
/// its result.
fn peak_live<T>(f: impl FnOnce() -> T) -> (isize, usize, T) {
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (
        PEAK.load(Ordering::SeqCst),
        ALLOCATIONS.load(Ordering::SeqCst),
        out,
    )
}

fn mib(bytes: isize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// One cold derivation through a held `Synthesizer`: the peak live bytes,
/// the bytes still live once the rewriting is dropped — what the
/// synthesizer's prover session keeps for later derivations — and the
/// allocations made.
fn derive_cold(problem: &WorkloadProblem, states: usize) -> (f64, f64, usize) {
    let (peak, allocations, (synth, retained)) = peak_live(|| {
        let synth = Synthesizer::new();
        let rewriting = synth.derive_workload(problem).expect("the problem derives");
        assert_eq!(rewriting.report().synthesis.states_visited, states);
        drop(rewriting);
        let retained = LIVE.load(Ordering::SeqCst);
        (synth, retained)
    });
    drop(synth);
    (mib(peak), mib(retained), allocations)
}

/// The allocation bound of a derivation: 1.05× its reading in a release
/// build, or in a debug build, where every search step also builds the
/// checked premises it `debug_assert`s against.
fn pinned(release: usize, debug: usize) -> usize {
    let reading = if cfg!(debug_assertions) {
        debug
    } else {
        release
    };
    reading + reading / 20
}

#[test]
fn cold_derivations_peak_under_3_mib() {
    let cases = [
        (
            "overlapping(8)",
            overlapping_workload_problem(8),
            7115,
            3.0,
            2.0,
            pinned(86_262, 133_392),
        ),
        (
            "partition",
            partition_problem(),
            4874,
            2.0,
            1.5,
            pinned(46_896, 76_654),
        ),
    ];
    for (name, problem, states, peak_bound, retained_bound, alloc_bound) in cases {
        let (peak, retained, allocations) = derive_cold(&problem, states);
        eprintln!(
            "a cold {name} derivation peaked at {peak:.2} MiB live and made \
             {allocations} allocations; the held synthesizer keeps {retained:.2} MiB"
        );
        assert!(
            allocations <= alloc_bound,
            "a cold {name} derivation made {allocations} allocations (bound {alloc_bound})"
        );
        assert!(
            peak < peak_bound,
            "a cold {name} derivation peaked at {peak:.2} MiB live (bound {peak_bound} MiB)"
        );
        assert!(
            retained <= retained_bound,
            "the synthesizer holds {retained:.2} MiB after a cold {name} derivation \
             (bound {retained_bound} MiB)"
        );
    }
}
