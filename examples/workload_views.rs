//! Workload synthesis end to end: many query templates, one shared view
//! set, one serving epoch per flush.
//!
//! The scenario: a base `S, F` published through the partition views
//! `V1 = S ∩ F` and `V2 = S \ F`, with several overlapping query templates
//! (the whole set, the filtered half, its complement, and a duplicate of
//! the first).  A single `derive_workload` call
//!
//! * pre-walks every query's proof obligations into **one** deduplicated
//!   goal batch — identical goals across templates are proved once,
//! * rewrites each query over the views, and
//! * hoists fragments shared across the rewritings into named shared
//!   views,
//!
//! then `ViewServer::builder().serve_workload(...)` maintains every shared
//! view **once per update batch** and publishes one epoch with all named
//! answers.
//!
//! Run with `cargo run --release --example workload_views [size] [updates]`
//! (defaults: 1000 base tuples, 100 updates).

use nested_synth::synthesis::views::partition_instance;
use nested_synth::{SynthesisConfig, Synthesizer, UpdateBatch, Value, ViewServer, WorkloadProblem};

fn main() {
    let mut args = std::env::args().skip(1);
    let size: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1000);
    let updates: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(100);

    // 1. The multi-query problem: 4 overlapping templates over one view set.
    let problem: WorkloadProblem = nested_synth::synthesis::overlapping_workload_problem(4);
    println!(
        "workload: {} queries over {} views",
        problem.queries.len(),
        problem.views.len()
    );

    // 2. One synthesis pass for the whole workload, through the facade.
    let synth = Synthesizer::with_config(SynthesisConfig::default());
    let rewriting = synth
        .derive_workload(&problem)
        .expect("the views determine every query");
    let report = rewriting.report();
    println!(
        "goals: {} recorded, {} deduplicated across queries, {} states visited",
        report.goals_recorded, report.shared_goals_dedup, report.synthesis.states_visited
    );
    for (name, def) in rewriting.queries() {
        println!("  {name} := {}", def.expr());
    }
    let shared = rewriting.shared();
    println!(
        "shared view set: {} hoisted fragment(s), {} occurrence(s) collapsed",
        shared.views.len(),
        shared.fragments_collapsed
    );
    for (name, expr) in &shared.views {
        println!("  {name} := {expr}");
    }

    // 3. Serve it: every shared view maintained once per flush, one epoch
    //    covering every named answer.
    let base = partition_instance(size, 42);
    let server = ViewServer::builder()
        .max_batch(64)
        .serve_workload(&rewriting, &base)
        .expect("server");
    println!(
        "\nserving |S|={size}: epoch {} with {} named answers",
        server.epoch(),
        server.snapshot().answers().len()
    );

    for i in 0..updates {
        let mut batch = UpdateBatch::new();
        let v = Value::atom(1_000_000 + i);
        batch.insert("S", v.clone());
        if i % 2 == 0 {
            batch.insert("F", v);
        }
        server.apply(&batch).expect("apply");
    }
    let snap = server.snapshot();
    println!(
        "applied {updates} update batches; now at epoch {}",
        snap.epoch
    );
    for (name, value) in snap.answers() {
        println!(
            "  {name}: {} element(s)",
            value.as_set().map(|s| s.len()).unwrap_or(0)
        );
    }
    assert!(
        server
            .cross_check(&rewriting)
            .expect("oracle re-evaluation"),
        "maintained answers diverged from the naive oracle"
    );
    println!("\nevery answer matches the from-scratch oracle ✔");
}
