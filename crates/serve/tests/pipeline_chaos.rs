//! Chaos testing of the **pipelined** writer thread: the fault plans used
//! by `tests/chaos.rs` are thread-local and never reach the dedicated
//! batching writer, so this harness arms the *process-global* plan
//! (`nrs_ivm::fault::GlobalFaultScope`) instead and shadows the test
//! thread with a local count-only plan.  Every site the writer thread
//! reaches — its own cycle hook, the flush lock, the coalescer, the engine
//! delta rules, the publish point — is failed once, and per site the
//! pipeline must:
//!
//! 1. keep readers on the old complete epoch while the fault is live,
//! 2. re-queue (or keep) the submitted batch so the writer's next cycle
//!    retries it without the producer resubmitting,
//! 3. converge to the reference answer, possibly through a degraded plan.
//!
//! This lives in its own test binary: the global plan is process-wide, so
//! it must not run concurrently with other fault-injection tests.

#![cfg(feature = "fault-injection")]

use nrs_ivm::fault::{FaultPlan, FaultScope, GlobalFaultScope};
use nrs_serve::{NrsError, ServerConfig, ViewServer, SHUTDOWN_DRAIN_FAILURES};
use nrs_synthesis::views::partition_problem;
use nrs_synthesis::{SynthesisConfig, UpdateBatch, WorkloadRewriting};
use nrs_value::{Instance, Name, Value};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The process-global fault plan is exactly that — process-wide — so the
/// tests in this binary that arm it must not overlap even when the harness
/// runs them on concurrent threads.
static GLOBAL_PLAN_GATE: Mutex<()> = Mutex::new(());

fn base() -> Instance {
    let s: BTreeSet<Value> = [1u64, 2, 3, 4].into_iter().map(Value::atom).collect();
    let f: BTreeSet<Value> = [2u64, 4].into_iter().map(Value::atom).collect();
    Instance::from_bindings([
        (Name::new("S"), Value::from_set(s)),
        (Name::new("F"), Value::from_set(f)),
    ])
}

/// Several fresh members, so one flush runs multi-member delta rounds.
fn batch() -> UpdateBatch {
    let mut b = UpdateBatch::new();
    for i in 0..3u64 {
        b.insert("S", Value::atom(10 + i));
    }
    b.insert("F", Value::atom(10));
    b.delete("S", Value::atom(1));
    b
}

fn rewriting() -> WorkloadRewriting {
    partition_problem()
        .derive_workload(&SynthesisConfig::default())
        .expect("rewriting exists")
}

fn config() -> ServerConfig {
    ServerConfig {
        batch_window: Duration::from_millis(1),
        ..ServerConfig::default()
    }
}

/// Block until the server publishes `epoch`, or panic after 30s.
fn await_epoch(server: &ViewServer, epoch: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.epoch() < epoch {
        assert!(
            Instant::now() < deadline,
            "writer never published epoch {epoch} (stuck at {})",
            server.epoch()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn chaos_writer_thread_recovers_from_every_site_it_reaches() {
    let _gate = GLOBAL_PLAN_GATE.lock().unwrap_or_else(|p| p.into_inner());
    let result = rewriting();
    let base = base();
    let batch = batch();

    // the reference answer a fault-free pipeline publishes for this batch
    let reference = ViewServer::builder()
        .serve_workload(&result, &base)
        .expect("reference server");
    let want = reference.apply(&batch).expect("clean apply").snapshot;
    assert_eq!(want.epoch, 1);

    // discovery: shadow this thread (submit's ingest hook counts locally),
    // then count every site the *writer thread* reaches for one batch
    let hits = {
        let server = Arc::new(
            ViewServer::builder()
                .config(config())
                .serve_workload(&result, &base)
                .expect("server"),
        );
        let _shadow = FaultScope::new(FaultPlan::count_only());
        let global = GlobalFaultScope::new(FaultPlan::count_only());
        let writer = server.start();
        server.submit(&batch).expect("submit");
        await_epoch(&server, 1);
        let stats = writer.stop();
        assert_eq!(stats.errors, 0, "clean run: {:?}", stats.last_error);
        assert_eq!(server.snapshot().answer(), want.answer());
        global.hits()
    };
    // at minimum: the writer-cycle hook, the flush lock, the coalescer and
    // the publish point
    assert!(hits >= 4, "expected >= 4 writer-side sites, found {hits}");

    for n in 0..hits {
        let server = Arc::new(
            ViewServer::builder()
                .config(config())
                .serve_workload(&result, &base)
                .expect("server"),
        );
        let reader = server.snapshot();
        let _shadow = FaultScope::new(FaultPlan::count_only());
        let _global = GlobalFaultScope::new(FaultPlan::fail_nth(n));
        let writer = server.start();
        server.submit(&batch).expect("submit");
        // whatever the writer hit, it must converge without a resubmit:
        // transient flush failures re-queue the drained batches, a cycle
        // fault fires before the drain, and operator faults self-heal
        await_epoch(&server, 1);
        let stats = writer.stop();
        assert_eq!(
            server.snapshot().answer(),
            want.answer(),
            "site {n}: pipeline diverged (writer stats {stats:?})"
        );
        assert_eq!(server.pending_len(), 0, "site {n}: batch left queued");
        // the reader's pre-fault snapshot was never touched
        assert_eq!(reader.epoch, 0, "site {n}");
        assert!(
            server.cross_check(&result).expect("oracle"),
            "site {n}: live state disagrees with the naive oracle"
        );
    }
}

/// A flush that fails on **every** retry must not turn `WriterHandle::stop`
/// into an indefinitely blocking busy-loop: the stopping writer gives up
/// after `SHUTDOWN_DRAIN_FAILURES` consecutive failed cycles, leaves the
/// batch queued (not lost), reports the errors — and once the fault clears,
/// a manual flush converges without a resubmit.
#[test]
fn chaos_stop_gives_up_on_a_persistently_failing_flush() {
    let _gate = GLOBAL_PLAN_GATE.lock().unwrap_or_else(|p| p.into_inner());
    let result = rewriting();
    let base = base();
    let batch = batch();
    let server = Arc::new(
        ViewServer::builder()
            .config(config())
            .serve_workload(&result, &base)
            .expect("server"),
    );
    let _shadow = FaultScope::new(FaultPlan::count_only());
    // every writer-side hit fails, starting with the very first: the
    // writer-cycle hook fires before anything is drained, so the batch
    // survives in the queue while every flush cycle fails
    let global = GlobalFaultScope::new(FaultPlan::fail_from(0));
    let writer = server.start();
    server.submit(&batch).expect("submit");
    // let the writer burn a few failing cycles before asking it to stop
    let deadline = Instant::now() + Duration::from_secs(30);
    while global.hits() < SHUTDOWN_DRAIN_FAILURES {
        assert!(Instant::now() < deadline, "writer never cycled");
        std::thread::sleep(Duration::from_millis(1));
    }
    // stop() must return despite the flush never succeeding; a watchdog
    // join guards against a regression to the unbounded drain
    let stopper = std::thread::spawn(move || writer.stop());
    let deadline = Instant::now() + Duration::from_secs(30);
    while !stopper.is_finished() {
        assert!(
            Instant::now() < deadline,
            "stop() blocked on a persistently failing flush"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = stopper.join().expect("stopper");
    assert!(
        stats.errors >= SHUTDOWN_DRAIN_FAILURES,
        "every cycle failed: {stats:?}"
    );
    assert!(
        matches!(stats.last_error, Some(NrsError::Maintenance(_))),
        "injected faults surface as maintenance errors: {stats:?}"
    );
    assert_eq!(stats.flushes, 0, "no flush ever succeeded: {stats:?}");
    assert_eq!(
        server.pending_len(),
        1,
        "the batch is left queued, not lost"
    );
    assert_eq!(server.epoch(), 0, "readers stayed on the old epoch");
    drop(global);
    // the fault cleared: the queued batch applies without a resubmit
    let report = server.flush().expect("flush after the fault clears");
    assert_eq!(report.snapshot.epoch, 1);
    assert_eq!(report.batches, 1);
    assert_eq!(server.pending_len(), 0);
    assert!(server.cross_check(&result).expect("oracle"));
}
