//! Serving a maintained rewriting: epoch-published snapshots, validated
//! transactional ingest, and graceful degradation.
//!
//! Where `streaming_views` drives the maintenance engine directly, this
//! example runs it as a *service*: a `ViewServer` validates incoming
//! batches against the base schema, applies everything queued as one
//! transaction, and publishes each successful epoch as an immutable
//! `Arc<Snapshot>` — so readers on other threads keep serving the previous
//! epoch while a flush is in flight, and a rejected batch changes nothing.
//!
//! Run with `cargo run --release --example serve_views [size] [updates]`
//! (defaults: 2000 base tuples, 200 updates).

use nested_synth::serve::{NrsError, ServerConfig, ViewServer};
use nested_synth::synthesis::views::{partition_instance, partition_problem};
use nested_synth::synthesis::{SynthesisConfig, UpdateBatch};
use nested_synth::value::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let mut args = std::env::args().skip(1);
    let size: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2000);
    let updates: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);

    let problem = partition_problem();
    let rewriting = problem
        .derive_workload(&SynthesisConfig::default())
        .expect("the partition views determine the query");
    let base = partition_instance(size, 42);
    let t0 = Instant::now();
    let server = Arc::new(
        ViewServer::builder()
            .serve_workload(&rewriting, &base)
            .expect("server"),
    );
    println!(
        "serving |S|={size} at epoch {} after {:.1?}",
        server.epoch(),
        t0.elapsed()
    );

    // Concurrent readers: each holds whatever epoch was current when it
    // asked, and is never blocked (or torn) by the writer below.
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut last = 0u64;
                let mut reads = 0u64;
                while last < updates / 2 {
                    let snap = server.snapshot();
                    assert!(snap.epoch >= last, "epochs move forward only");
                    assert!(
                        snap.answer().as_set().is_ok(),
                        "reader {r} saw a torn answer"
                    );
                    last = snap.epoch;
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    // Malformed input is rejected with a typed error and changes nothing.
    let mut bad = UpdateBatch::new();
    bad.insert("Nope", Value::atom(1));
    match server.submit(&bad) {
        Err(e @ NrsError::Rejected(_)) => println!("rejected as expected: {e}"),
        other => panic!("expected a rejection, got {other:?}"),
    }
    assert_eq!(server.epoch(), 0, "a rejected batch publishes nothing");

    // The write path: validated single-batch rounds, one epoch each.
    let t0 = Instant::now();
    for i in 0..updates {
        let mut batch = UpdateBatch::new();
        match i % 4 {
            0 => batch.insert("S", Value::atom(10_000 + i)),
            1 => batch.insert("F", Value::atom(10_000 + i - 1)),
            2 => batch.delete("S", Value::atom(10_000 + i - 2)),
            _ => batch.delete("F", Value::atom(10_000 + i - 3)),
        };
        server.apply(&batch).expect("serve round");
    }
    let elapsed = t0.elapsed();
    println!(
        "served {updates} update rounds in {elapsed:.1?} ({:.1} µs/round), now at epoch {}",
        elapsed.as_secs_f64() * 1e6 / updates as f64,
        server.epoch()
    );

    let reads: u64 = readers.into_iter().map(|h| h.join().expect("reader")).sum();
    println!("readers performed {reads} consistent snapshot reads concurrently");

    // Batched ingest: queued submissions coalesce into one epoch.
    let before = server.epoch();
    let mut b1 = UpdateBatch::new();
    b1.insert("S", Value::atom(99_991));
    let mut b2 = UpdateBatch::new();
    b2.insert("S", Value::atom(99_992));
    b2.delete("S", Value::atom(99_991));
    server.submit(&b1).expect("queue b1");
    server.submit(&b2).expect("queue b2");
    let report = server.flush().expect("flush");
    println!(
        "coalesced {} queued batches into epoch {} (answer delta: {} tuples)",
        2,
        report.snapshot.epoch,
        report.answer_deltas[0].1.len()
    );
    assert_eq!(report.snapshot.epoch, before + 1);

    // The pipelined path: a bounded ingest queue plus a dedicated batching
    // writer thread decouple producers from the flush cost — coalescing,
    // the exactness check, the engine pass and the epoch publication are
    // paid once per batch window, not once per update.
    let pipe = Arc::new(
        ViewServer::builder()
            .config(ServerConfig {
                queue_capacity: 4,
                batch_window: Duration::from_micros(200),
                ..ServerConfig::default()
            })
            .serve_workload(&rewriting, &base)
            .expect("pipelined server"),
    );
    // Before the writer runs, the bounded queue pushes back with a typed,
    // transient error instead of growing without bound.
    let mut queued = 0u64;
    loop {
        let mut b = UpdateBatch::new();
        b.insert("S", Value::atom(50_000 + queued));
        match pipe.try_submit(&b) {
            Ok(()) => queued += 1,
            Err(e) => {
                assert!(e.is_backpressure() && e.is_transient());
                println!("queue full after {queued} batches: {e}");
                break;
            }
        }
    }
    let writer = pipe.start();
    let t0 = Instant::now();
    for j in queued..updates.max(queued) {
        let mut b = UpdateBatch::new();
        b.insert("S", Value::atom(50_000 + j));
        pipe.submit(&b).expect("blocking submit");
    }
    let stats = writer.stop();
    assert_eq!(stats.batches, updates.max(queued), "every batch flushed");
    assert_eq!(
        stats.errors, 0,
        "clean pipeline run: {:?}",
        stats.last_error
    );
    println!(
        "pipelined {} batches in {:.1?} through {} flushes, now at epoch {}",
        stats.batches,
        t0.elapsed(),
        stats.flushes,
        pipe.epoch()
    );
    assert!(
        pipe.cross_check(&rewriting).expect("oracle"),
        "pipelined state diverged from the naive oracle"
    );

    // With `--features fault-injection`, demonstrate the failure path too:
    // fail the publish site of one round, observe the typed error and the
    // unchanged epoch, then verify the retried batch converges.
    #[cfg(feature = "fault-injection")]
    {
        use nested_synth::ivm::fault::{FaultPlan, FaultScope};
        let epoch_before = server.epoch();
        let mut batch = UpdateBatch::new();
        batch.insert("S", Value::atom(123_456));
        // discovery: count the sites one round reaches, then fail the last
        // one (the publish point) on a re-run
        let hits = {
            let mut probe = UpdateBatch::new();
            probe.insert("S", Value::atom(123_457));
            let scope = FaultScope::new(FaultPlan::count_only());
            server.apply(&probe).expect("discovery round");
            scope.hits()
        };
        let err = {
            let _scope = FaultScope::new(FaultPlan::fail_nth(hits - 1));
            server
                .apply(&batch)
                .expect_err("injected fault must surface")
        };
        println!("injected fault surfaced as: {err}");
        assert_eq!(
            server.epoch(),
            epoch_before + 1,
            "the faulted round published nothing (only the discovery round did)"
        );
        // the transiently failed batch was re-queued in place, so the retry
        // is a bare flush — no resubmission (resubmitting would coalesce a
        // duplicate insert of the same tuple and be rejected as inexact)
        assert_eq!(server.pending_len(), 1, "the failed batch stays queued");
        let report = server.flush().expect("clean retry");
        println!("retried batch converged at epoch {}", report.snapshot.epoch);
    }

    // Nothing was degraded along the way, and the oracle agrees.
    let coverage = server.coverage();
    assert!(
        coverage.fully_incremental(),
        "no operator should have degraded on this clean run"
    );
    assert!(
        server.cross_check(&rewriting).expect("oracle"),
        "served state diverged from the naive oracle"
    );
    println!("coverage: {coverage}");
}
