//! Streaming view maintenance: synthesize a rewriting once, then keep its
//! answer live under a stream of single-tuple base updates.
//!
//! The scenario is the paper's headline use case run as a service: the
//! partition problem's views `V1 = S ∩ F`, `V2 = S ∖ F` determine the query
//! `Q = S`, synthesis produces the rewriting over the views, and the
//! `MaintainedWorkload` handle (the single query is a one-entry workload)
//! keeps base → views → answer materialized incrementally — O(|Δ|·log n)
//! per batch instead of re-running the plans.
//!
//! Run with `cargo run --release --example streaming_views [size] [updates]`
//! (defaults: 2000 base tuples, 200 updates).

use nested_synth::synthesis::ivm::MaintainedWorkload;
use nested_synth::synthesis::views::{partition_instance, partition_problem};
use nested_synth::synthesis::{SynthesisConfig, UpdateBatch};
use nested_synth::value::Value;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let size: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2000);
    let updates: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);

    let problem = partition_problem();
    let t0 = Instant::now();
    let rewriting = problem
        .derive_workload(&SynthesisConfig::default())
        .expect("the partition views determine the query");
    let (query, definition) = &rewriting.queries()[0];
    println!(
        "synthesized rewriting {} in {:.1?}",
        definition.expr(),
        t0.elapsed()
    );

    let base = partition_instance(size, 42);
    let t0 = Instant::now();
    let mut maintained = MaintainedWorkload::new(&rewriting, &base).expect("materialize");
    let answer = |m: &MaintainedWorkload| m.answer(query).expect("the query's answer").clone();
    println!(
        "materialized views + answer over |S|={size} in {:.1?} (answer: {} tuples)",
        t0.elapsed(),
        answer(&maintained).as_set().map(|s| s.len()).unwrap_or(0)
    );

    // Stream updates: inserts of fresh atoms into S and F, deletions of
    // earlier ones — every batch flows base → ΔV1/ΔV2 → Δanswer.
    let t0 = Instant::now();
    let mut touched = 0usize;
    for i in 0..updates {
        let mut batch = UpdateBatch::new();
        // i=0: S gains a fresh atom; i=1: F gains the same atom (flipping it
        // from V2 to V1); i=2,3: both copies are deleted again — so every
        // batch, deletions included, takes effect.
        match i % 4 {
            0 => batch.insert("S", Value::atom(10_000 + i)),
            1 => batch.insert("F", Value::atom(10_000 + i - 1)),
            2 => batch.delete("S", Value::atom(10_000 + i - 2)),
            _ => batch.delete("F", Value::atom(10_000 + i - 3)),
        };
        let deltas = maintained.apply(&batch).expect("maintenance step");
        touched += deltas[0].1.len();
    }
    let elapsed = t0.elapsed();
    println!(
        "applied {updates} single-tuple updates in {elapsed:.1?} ({:.1} µs/update, {touched} answer tuples touched)",
        elapsed.as_secs_f64() * 1e6 / updates as f64
    );
    assert!(
        touched > 0,
        "the update stream must actually change the answer"
    );

    // The maintained pipeline is exactly what recomputation produces: check
    // against the optimized plan pipeline at any size, and against the
    // naive-evaluator oracle too while it is affordable (it is quadratic in
    // the base size on this rewriting).
    let t0 = Instant::now();
    let fresh_views = problem
        .materialize_views(maintained.base())
        .expect("re-materialize");
    let fresh_answer = definition.evaluate(&fresh_views).expect("re-evaluate");
    assert_eq!(
        answer(&maintained),
        fresh_answer,
        "maintained answer diverged from plan recomputation"
    );
    println!(
        "cross-checked against full plan recomputation in {:.1?} — consistent",
        t0.elapsed()
    );
    if size <= 600 {
        let t0 = Instant::now();
        assert!(
            maintained.cross_check(&rewriting).expect("oracle check"),
            "maintained answer diverged from the naive oracle"
        );
        println!(
            "cross-checked against the naive-evaluator oracle in {:.1?} — consistent",
            t0.elapsed()
        );
    }
}
