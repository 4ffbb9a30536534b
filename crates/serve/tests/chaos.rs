//! Chaos testing of the serving layer: inject a fault at **every** site a
//! submit+flush round reaches — the server's own lock/publish points plus
//! every operator delta rule underneath — and assert, per site:
//!
//! 1. a failed round leaves the published snapshot on the old epoch with
//!    the old answer (readers never observe a partial batch),
//! 2. the server stays internally consistent (the naive oracle agrees),
//! 3. the retried batch converges to the reference answer — possibly
//!    through a degraded plan, never through a corrupt one.
//!
//! Fault plans are thread-local, so only the writer is faulted; a reader
//! holding a snapshot is structurally unaffected.

#![cfg(feature = "fault-injection")]

use nrs_ivm::fault::{FaultPlan, FaultScope};
use nrs_serve::ViewServer;
use nrs_synthesis::views::partition_problem;
use nrs_synthesis::{SynthesisConfig, UpdateBatch, WorkloadRewriting};
use nrs_value::{Instance, Name, Value};
use std::collections::BTreeSet;

fn base() -> Instance {
    let s: BTreeSet<Value> = [1u64, 2, 3, 4].into_iter().map(Value::atom).collect();
    let f: BTreeSet<Value> = [2u64, 4].into_iter().map(Value::atom).collect();
    Instance::from_bindings([
        (Name::new("S"), Value::from_set(s)),
        (Name::new("F"), Value::from_set(f)),
    ])
}

fn batch() -> UpdateBatch {
    let mut b = UpdateBatch::new();
    b.insert("S", Value::atom(10));
    b.insert("F", Value::atom(10));
    b.delete("S", Value::atom(1));
    b
}

fn rewriting() -> WorkloadRewriting {
    partition_problem()
        .derive_workload(&SynthesisConfig::default())
        .expect("rewriting exists")
}

/// Discovery pass: how many instrumented sites does one submit+flush
/// round reach?
fn discovery(result: &WorkloadRewriting, base: &Instance, batch: &UpdateBatch) -> u64 {
    let server = ViewServer::builder()
        .serve_workload(result, base)
        .expect("server");
    let scope = FaultScope::new(FaultPlan::count_only());
    server.apply(batch).expect("clean apply under count_only");
    scope.hits()
}

/// Run the full discovery-then-inject sweep for `batch()`.
fn sweep_every_reachable_site() {
    let result = rewriting();
    let base = base();
    let batch = batch();

    // the reference answer a fault-free server publishes for this batch
    let reference = ViewServer::builder()
        .serve_workload(&result, &base)
        .expect("reference server");
    let want = reference.apply(&batch).expect("clean apply").snapshot;
    assert_eq!(want.epoch, 1);

    let hits = discovery(&result, &base, &batch);
    // at minimum: the ingest point, the flush lock and the publish point
    assert!(hits >= 3, "expected >= 3 sites, found {hits}");

    for n in 0..hits {
        let server = ViewServer::builder()
            .serve_workload(&result, &base)
            .expect("server");
        // a reader takes a snapshot before the faulted round
        let reader = server.snapshot();
        let outcome = {
            let _scope = FaultScope::new(FaultPlan::fail_nth(n));
            server.submit(&batch).and_then(|()| server.flush())
        };
        match outcome {
            Ok(report) => {
                // the fault hit an operator; self-healing degraded it and
                // retried through the degraded plan within the same flush
                assert_eq!(report.snapshot.epoch, 1, "site {n}");
                assert!(
                    !report.degraded.is_empty(),
                    "site {n}: a fault fired but nothing was degraded"
                );
                assert_eq!(
                    report.snapshot.answer(),
                    want.answer(),
                    "site {n}: degraded plan diverged"
                );
            }
            Err(e) => {
                // the round failed outright: readers keep the old epoch
                assert_eq!(server.epoch(), 0, "site {n}: partial epoch published");
                assert_eq!(
                    server.snapshot().answer(),
                    reader.answer(),
                    "site {n}: published answer changed without an epoch"
                );
                assert!(
                    !e.is_rejection(),
                    "site {n}: injected fault misclassified as a validation rejection: {e}"
                );
                // recovery: transiently-failed flushes re-queue the drained
                // batches, and a lock-site fault never drains — only an
                // ingest-site fault leaves nothing queued; resubmit then
                if server.pending_len() == 0 {
                    server.submit(&batch).expect("resubmit");
                }
                let report = server.flush().expect("clean retry");
                assert_eq!(report.snapshot.epoch, 1, "site {n}");
                assert_eq!(
                    report.snapshot.answer(),
                    want.answer(),
                    "site {n}: recovered server diverged"
                );
            }
        }
        // the reader's snapshot was never touched
        assert_eq!(reader.epoch, 0);
        assert!(
            server.cross_check(&result).expect("oracle"),
            "site {n}: live state disagrees with the naive oracle"
        );
    }
}

#[test]
fn chaos_every_reachable_site_keeps_readers_on_a_complete_epoch() {
    sweep_every_reachable_site();
}

/// A single query is served as a one-entry workload, so a self-healed
/// fault in its answer plan is reported against the query's own name —
/// like faults in the view plans are reported against `V1` / `V2`.
#[test]
fn chaos_answer_operator_fault_is_degraded_under_the_query_name() {
    let result = rewriting();
    let base = base();
    let batch = batch();
    let hits = discovery(&result, &base, &batch);
    let mut answer_degraded = false;
    for n in 0..hits {
        let server = ViewServer::builder()
            .serve_workload(&result, &base)
            .expect("server");
        let outcome = {
            let _scope = FaultScope::new(FaultPlan::fail_nth(n));
            server.submit(&batch).and_then(|()| server.flush())
        };
        // faults outside an operator fail the round; the sweep above covers
        // their recovery
        let Ok(report) = outcome else { continue };
        for op in &report.degraded {
            let owner = op.view.as_str();
            assert!(["V1", "V2", "Q"].contains(&owner), "site {n}: {op}");
            if owner == "Q" {
                answer_degraded = true;
                assert_eq!(op.to_string(), format!("Q operator #{}", op.op));
                assert_eq!(server.coverage().answers[0].1.degraded(), 1);
                assert_eq!(server.snapshot().degraded(), report.degraded.as_slice());
            }
        }
    }
    assert!(
        answer_degraded,
        "no fault site reached the answer plan of Q"
    );
}

/// Observability under chaos: a flush that fails at the **publish** site —
/// the rollback path — must still emit a *complete* span tree: every span
/// started on the flushing thread is ended (the early-return paths drop
/// their spans), the stage spans are children of `serve.flush`, and an
/// `Error` event is attached to the failed flush span.
#[test]
fn chaos_failed_flush_emits_a_complete_span_tree_with_an_error_event() {
    use nrs_ivm::fault;
    use nrs_obs::{CaptureSink, EventKind, FieldValue};
    use std::collections::BTreeSet as Set;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let result = rewriting();
    let base = base();
    let batch = batch();
    let sink = Arc::new(CaptureSink::new());
    nrs_obs::install_sink(sink.clone());

    // there is no fail-at-named-site plan: count the reachable sites, then
    // fault each ordinal until the publish site is the one that fires
    let hits = discovery(&result, &base, &batch);
    let mut publish_checked = false;
    for n in 0..hits {
        let server = ViewServer::builder()
            .serve_workload(&result, &base)
            .expect("server");
        sink.clear();
        // a unique marker identifies this thread's events in the global
        // sink (concurrent tests emit their own spans into it)
        static NONCE: AtomicU64 = AtomicU64::new(1);
        let nonce = NONCE.fetch_add(1, Ordering::Relaxed);
        nrs_obs::event("chaos.marker", vec![("nonce", nonce.into())]);
        let fired;
        let outcome = {
            let _scope = FaultScope::new(FaultPlan::fail_nth(n));
            let out = server.submit(&batch).and_then(|()| server.flush());
            fired = fault::fired();
            out
        };
        if fired != Some("serve.publish") {
            continue;
        }
        assert!(outcome.is_err(), "a publish-site fault must fail the flush");
        let events = sink.events();
        let me = events
            .iter()
            .find(|e| {
                e.name == "chaos.marker"
                    && e.fields
                        .iter()
                        .any(|(k, v)| *k == "nonce" && *v == FieldValue::U64(nonce))
            })
            .expect("marker event captured")
            .thread_id;
        let mine: Vec<_> = events.into_iter().filter(|e| e.thread_id == me).collect();
        // complete tree: every span started was ended, with a duration
        let started: Set<u64> = mine
            .iter()
            .filter(|e| e.kind == EventKind::SpanStart)
            .map(|e| e.span_id)
            .collect();
        let ended: Set<u64> = mine
            .iter()
            .filter(|e| e.kind == EventKind::SpanEnd)
            .map(|e| e.span_id)
            .collect();
        assert_eq!(started, ended, "unbalanced span tree after a failed flush");
        assert!(mine
            .iter()
            .filter(|e| e.kind == EventKind::SpanEnd)
            .all(|e| e.elapsed_ns.is_some()));
        // the stage spans hang off the flush span...
        let flush_id = mine
            .iter()
            .find(|e| e.kind == EventKind::SpanStart && e.name == "serve.flush")
            .expect("flush span started")
            .span_id;
        let children: Set<&str> = mine
            .iter()
            .filter(|e| e.kind == EventKind::SpanStart && e.parent_id == Some(flush_id))
            .map(|e| e.name)
            .collect();
        for stage in [
            "serve.drain",
            "serve.coalesce",
            "serve.maintain",
            "serve.publish",
        ] {
            assert!(children.contains(stage), "missing child span {stage:?}");
        }
        // ...and the failure surfaced as an error event on that span
        assert!(
            mine.iter().any(|e| e.kind == EventKind::Error
                && e.name == "serve.flush_failed"
                && e.span_id == flush_id),
            "no error event attached to the failed flush span"
        );
        publish_checked = true;
        break;
    }
    assert!(
        publish_checked,
        "publish fault site never fired in {hits} sites"
    );
}

/// The seeded convenience plan exercises the same protocol end-to-end: any
/// seed maps to some reachable site, and the server must recover from it.
#[test]
fn chaos_seeded_plans_always_recover() {
    let result = rewriting();
    let base = base();
    let batch = batch();
    let reference = ViewServer::builder()
        .serve_workload(&result, &base)
        .expect("reference server");
    let want = reference.apply(&batch).expect("clean apply").snapshot;
    let hits = {
        let server = ViewServer::builder()
            .serve_workload(&result, &base)
            .expect("server");
        let scope = FaultScope::new(FaultPlan::count_only());
        server.apply(&batch).expect("clean apply");
        scope.hits()
    };
    for seed in [0u64, 7, 42, 1_000_003, u64::MAX] {
        let server = ViewServer::builder()
            .serve_workload(&result, &base)
            .expect("server");
        let outcome = {
            let _scope = FaultScope::new(FaultPlan::seeded(seed, hits));
            server.submit(&batch).and_then(|()| server.flush())
        };
        if outcome.is_err() {
            if server.pending_len() == 0 {
                server.submit(&batch).expect("resubmit");
            }
            server.flush().expect("clean retry");
        }
        assert_eq!(server.epoch(), 1, "seed {seed}");
        assert_eq!(server.snapshot().answer(), want.answer(), "seed {seed}");
        assert!(server.cross_check(&result).expect("oracle"), "seed {seed}");
    }
}
