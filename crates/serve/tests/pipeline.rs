//! End-to-end stress of the serving pipeline: many producers submitting
//! through the bounded ingest queue, the dedicated batching writer thread
//! draining it, and concurrent readers taking snapshots throughout —
//! checked against the naive oracle and a reference server that applies
//! everything as one batch.

use nrs_serve::{NrsError, ServerConfig, ViewServer};
use nrs_synthesis::views::{partition_instance, partition_problem};
use nrs_synthesis::{SynthesisConfig, UpdateBatch, WorkloadRewriting};
use nrs_value::{Name, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PRODUCERS: u64 = 4;
const BATCHES_PER_PRODUCER: u64 = 25;

fn rewriting() -> WorkloadRewriting {
    partition_problem()
        .derive_workload(&SynthesisConfig::default())
        .expect("rewriting exists")
}

/// A fresh tuple no producer shares and no base instance contains, so
/// every interleaving of the producers stays exact.
fn fresh(producer: u64, i: u64) -> Value {
    Value::atom(1_000_000 + producer * 1_000 + i)
}

#[test]
fn many_producers_one_writer_converge_to_the_oracle() {
    let result = rewriting();
    let base = partition_instance(50, 7);
    // a deliberately tight pipeline: tiny queue so producers feel
    // backpressure, small flushes
    let config = ServerConfig {
        queue_capacity: 8,
        max_batch: 4,
        batch_window: Duration::from_millis(1),
    };
    let server = Arc::new(
        ViewServer::builder()
            .config(config)
            .serve_workload(&result, &base)
            .expect("server"),
    );
    let writer = server.start();

    // readers: snapshots must always be complete epochs with monotonically
    // non-decreasing epoch numbers, whatever the writer is doing
    let done = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..2 {
        let server = Arc::clone(&server);
        let done = Arc::clone(&done);
        readers.push(std::thread::spawn(move || {
            let mut last = 0u64;
            let mut seen = 0u64;
            while !done.load(Ordering::SeqCst) {
                let snap = server.snapshot();
                assert!(snap.epoch >= last, "epoch went backwards");
                last = snap.epoch;
                seen += 1;
                std::thread::yield_now();
            }
            seen
        }));
    }

    // producers: half blocking submit, half try_submit with a retry loop
    // on backpressure
    let mut producers = Vec::new();
    for p in 0..PRODUCERS {
        let server = Arc::clone(&server);
        producers.push(std::thread::spawn(move || {
            let mut backpressured = 0u64;
            for i in 0..BATCHES_PER_PRODUCER {
                let mut b = UpdateBatch::new();
                b.insert("S", fresh(p, i));
                if p % 2 == 0 {
                    server.submit(&b).expect("blocking submit");
                } else {
                    loop {
                        match server.try_submit(&b) {
                            Ok(()) => break,
                            Err(e @ NrsError::Backpressure { .. }) => {
                                assert!(e.is_backpressure() && e.is_transient());
                                backpressured += 1;
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    }
                }
            }
            backpressured
        }));
    }
    for t in producers {
        t.join().expect("producer");
    }

    let stats = writer.stop();
    done.store(true, Ordering::SeqCst);
    for r in readers {
        assert!(r.join().expect("reader") > 0, "reader never ran");
    }

    let total = PRODUCERS * BATCHES_PER_PRODUCER;
    assert_eq!(server.pending_len(), 0, "stop drains the queue");
    assert_eq!(stats.batches, total, "every batch flushed exactly once");
    assert_eq!(stats.updates, total, "no tuple lost or duplicated");
    assert_eq!(stats.errors, 0, "clean run: {:?}", stats.last_error);
    assert!(
        stats.flushes >= total / 4,
        "max_batch=4 caps coalescing: {} flushes",
        stats.flushes
    );

    // the final snapshot holds every produced tuple...
    let snap = server.snapshot();
    assert_eq!(snap.epoch, stats.flushes);
    let s = snap.base().try_get(&Name::new("S")).expect("S");
    let s = s.as_set().expect("set");
    for p in 0..PRODUCERS {
        for i in 0..BATCHES_PER_PRODUCER {
            assert!(s.contains(&fresh(p, i)), "lost tuple {p}/{i}");
        }
    }
    // ...the live engine agrees with the naive oracle...
    assert!(server.cross_check(&result).expect("oracle"));
    // ...and with a sequential reference server applying one big batch
    let reference = ViewServer::builder()
        .serve_workload(&result, &base)
        .expect("reference");
    let mut all = UpdateBatch::new();
    for p in 0..PRODUCERS {
        for i in 0..BATCHES_PER_PRODUCER {
            all.insert("S", fresh(p, i));
        }
    }
    let want = reference.apply(&all).expect("reference apply");
    assert_eq!(snap.answer(), want.snapshot.answer(), "pipeline diverged");
    assert_eq!(snap.base(), want.snapshot.base());
}

#[test]
fn flush_reports_attribute_engine_rounds_to_the_flush() {
    let result = rewriting();
    let base = partition_instance(40, 3);
    let server = ViewServer::builder()
        .serve_workload(&result, &base)
        .expect("server");
    let mut batch = UpdateBatch::new();
    for i in 0..6u64 {
        batch.insert("S", Value::atom(2_000_000 + i));
    }
    let first = server.apply(&batch).expect("first apply");
    assert!(
        first.maint.rounds > 0,
        "no rounds attributed: {:?}",
        first.maint
    );
    assert!(
        first.maint.touched_members >= 6,
        "6 fresh members must be evaluated: {:?}",
        first.maint
    );
    // an empty flush attributes nothing
    let empty = server.flush().expect("empty flush");
    assert_eq!(empty.maint, nrs_synthesis::MaintStats::default());
    assert_eq!(empty.batches, 0);
    let mut undo = UpdateBatch::new();
    for i in 0..3u64 {
        undo.delete("S", Value::atom(2_000_000 + i));
    }
    let second = server.apply(&undo).expect("second apply");
    assert!(second.maint.rounds > 0, "{:?}", second.maint);
    // the cumulative view is the sum of the per-flush reports
    let mut total = first.maint;
    total += empty.maint;
    total += second.maint;
    assert_eq!(server.maint_stats(), total);
}
