//! E9 — serving maintained views: the cost of the fault-tolerance layer on
//! top of the E8 maintenance path, and snapshot-read latency under load.
//!
//! Workload: the partition problem (as in E5/E8, one query served as a
//! one-entry workload) behind a `ViewServer`.
//! For each base size |S| the group measures:
//!
//! * `serve_update` — one validated, transactional single-tuple update
//!   round (submit → coalesce → exactness check → apply → publish a new
//!   epoch).  The overhead over E8's bare `ivm_single` is the price of the
//!   serving guarantees;
//! * `serve_update_batched_x64` — 64 submits then **one** flush: the
//!   coalesce/exactness pass, engine pass and snapshot publication are
//!   amortized across the batch, so `mean / 64` is the pipelined
//!   per-update cost (the number the ROADMAP compares against bare
//!   `ivm_single`);
//! * `serve_pipeline_update` — sustained throughput through the full
//!   pipeline: producers submit into the bounded ingest queue while the
//!   dedicated batching writer thread drains and flushes it and 4 reader
//!   threads spin on `snapshot()`.  Backpressure throttles the measured
//!   submit to the pipeline's steady-state rate, so `1e9 / mean` is
//!   updates/second;
//! * `serve_update_readers` — the single-update round while 4 reader
//!   threads spin on `snapshot()`: writer-side latency under read load;
//! * `snapshot_read` — cloning the published `Arc<Snapshot>`, the whole
//!   read path;
//! * `snapshot_read_contended` — the same read while a writer thread
//!   applies update rounds back to back: epoch swaps must not stall
//!   readers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nrs_ivm::UpdateBatch;
use nrs_serve::ViewServer;
use nrs_synthesis::views::{partition_instance, partition_problem};
use nrs_synthesis::SynthesisConfig;
use nrs_value::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Updates per flush in the amortized bench (within the default
/// `ServerConfig::max_batch`, so one flush drains all of them).
const BATCH_K: usize = 64;

/// Distinct tuples the pipeline bench rotates through.
const PIPE_K: usize = 512;

fn toggle_batch(size: usize, present: bool) -> UpdateBatch {
    let tuple = Value::atom((3 * size + 17) as u64);
    let mut batch = UpdateBatch::new();
    if present {
        batch.delete("S", tuple);
    } else {
        batch.insert("S", tuple);
    }
    batch
}

/// Toggle one of `BATCH_K` disjoint fresh tuples (disjoint from
/// `toggle_batch`'s, so the benches don't interfere).
fn batched_toggle(size: usize, j: usize, present: bool) -> UpdateBatch {
    let tuple = Value::atom((5 * size + 100 + j) as u64);
    let mut batch = UpdateBatch::new();
    if present {
        batch.delete("S", tuple);
    } else {
        batch.insert("S", tuple);
    }
    batch
}

fn bench_serve(c: &mut Criterion) {
    let problem = partition_problem();
    let rewriting = problem
        .derive_workload(&SynthesisConfig::default())
        .expect("rewriting");

    let mut group = c.benchmark_group("E9_serving");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let sizes: &[usize] = if std::env::var_os("NRS_BENCH_FAST").is_some() {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    for &size in sizes {
        let base = partition_instance(size, 42);
        let server = ViewServer::builder()
            .serve_workload(&rewriting, &base)
            .expect("server");

        // Warm the maintenance operators before measuring: the harness
        // calibrates its iteration count from the first call, and a cold
        // first round would pin every sample at the cold cost.
        let mut present = false;
        for _ in 0..8 {
            server.apply(&toggle_batch(size, present)).unwrap();
            present = !present;
        }
        group.bench_with_input(BenchmarkId::new("serve_update", size), &size, |b, _| {
            b.iter(|| {
                let report = server.apply(&toggle_batch(size, present)).unwrap();
                present = !present;
                report.snapshot.epoch
            })
        });

        // amortized flush: 64 queued single-tuple batches, one coalesce +
        // exactness pass, one engine pass, one published epoch
        let mut batched_present = false;
        group.bench_with_input(
            BenchmarkId::new("serve_update_batched_x64", size),
            &size,
            |b, _| {
                b.iter(|| {
                    for j in 0..BATCH_K {
                        server
                            .submit(&batched_toggle(size, j, batched_present))
                            .unwrap();
                    }
                    let report = server.flush().unwrap();
                    batched_present = !batched_present;
                    debug_assert_eq!(report.batches, BATCH_K);
                    report.snapshot.epoch
                })
            },
        );

        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut epoch = 0;
                    while !stop.load(Ordering::Relaxed) {
                        epoch = server.snapshot().epoch.max(epoch);
                    }
                    epoch
                });
            }
            group.bench_with_input(
                BenchmarkId::new("serve_update_readers", size),
                &size,
                |b, _| {
                    b.iter(|| {
                        let report = server.apply(&toggle_batch(size, present)).unwrap();
                        present = !present;
                        report.snapshot.epoch
                    })
                },
            );
            stop.store(true, Ordering::Relaxed);
        });

        group.bench_with_input(BenchmarkId::new("snapshot_read", size), &size, |b, _| {
            b.iter(|| server.snapshot().epoch)
        });

        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut writer_present = present;
                while !stop.load(Ordering::Relaxed) {
                    server.apply(&toggle_batch(size, writer_present)).unwrap();
                    writer_present = !writer_present;
                }
            });
            group.bench_with_input(
                BenchmarkId::new("snapshot_read_contended", size),
                &size,
                |b, _| b.iter(|| server.snapshot().epoch),
            );
            stop.store(true, Ordering::Relaxed);
        });

        // sustained throughput through the pipelined writer: blocking
        // submits against the bounded queue, the batching writer thread
        // flushing behind, 4 readers spinning on snapshots.  Once the
        // queue fills, backpressure throttles the measured submit to the
        // pipeline's steady-state per-update rate.
        let pipe_server = Arc::new(
            ViewServer::builder()
                .batch_window(Duration::from_micros(200))
                .serve_workload(&rewriting, &base)
                .expect("pipeline server"),
        );
        let mut warm = false;
        for _ in 0..8 {
            pipe_server.apply(&toggle_batch(size, warm)).unwrap();
            warm = !warm;
        }
        let writer = pipe_server.start();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut epoch = 0;
                    while !stop.load(Ordering::Relaxed) {
                        epoch = pipe_server.snapshot().epoch.max(epoch);
                    }
                    epoch
                });
            }
            let mut pipe_present = vec![false; PIPE_K];
            let mut j = 0usize;
            group.bench_with_input(
                BenchmarkId::new("serve_pipeline_update", size),
                &size,
                |b, _| {
                    b.iter(|| {
                        let tuple = Value::atom((7 * size + 1_000 + j) as u64);
                        let mut batch = UpdateBatch::new();
                        if pipe_present[j] {
                            batch.delete("S", tuple);
                        } else {
                            batch.insert("S", tuple);
                        }
                        pipe_present[j] = !pipe_present[j];
                        j = (j + 1) % PIPE_K;
                        pipe_server.submit(&batch).unwrap();
                    })
                },
            );
            stop.store(true, Ordering::Relaxed);
        });
        writer.stop();

        // The served state is still exactly what the oracle computes.  The
        // oracle interprets the raw view expressions (no plan recognition),
        // which is quadratic in |S| for the partition views — affordable up
        // to 10^4, hours at 10^5 — so the largest size checks coverage only.
        if size <= 10_000 {
            assert!(server.cross_check(&rewriting).unwrap());
            assert!(pipe_server.cross_check(&rewriting).unwrap());
        }
        assert!(server.coverage().fully_incremental());
    }
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
