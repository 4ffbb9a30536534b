//! E5 — Corollary 3 in practice: answering a determined query from
//! materialized views versus recomputing it from the base data.
//!
//! Workload: the partition problem over growing base sets.  The rewriting is
//! synthesized once (a one-query workload); each size then measures (a)
//! evaluating the rewriting on the materialized views and (b) evaluating the
//! original query on the base.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nrs_delta0::typing::TypeEnv;
use nrs_nrc::eval::eval;
use nrs_synthesis::views::{partition_instance, partition_problem};
use nrs_synthesis::SynthesisConfig;
use nrs_value::NameGen;
use std::time::Duration;

fn bench_rewriting(c: &mut Criterion) {
    let problem = partition_problem();
    let rewriting = problem
        .derive_workload(&SynthesisConfig::default())
        .expect("rewriting");
    let definition = &rewriting.queries()[0].1;
    let env = TypeEnv::from_pairs(problem.base.iter().cloned());
    let mut gen = NameGen::new();
    let query_expr = problem.queries[0].to_nrc(&env, &mut gen).unwrap();

    let mut group = c.benchmark_group("E5_rewriting_vs_recomputation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    // PR 1 capped this workload at |S|=1000 because the naive evaluator ran
    // the collected-superset filter quadratically (~58 s per evaluation).
    // The plan-based evaluator (PR 2) executes it with indexed membership
    // probes, so the full run keeps the 100/1000 points for baseline
    // comparability and extends to 10_000; the fast/smoke mode stays small.
    let sizes: &[usize] = if std::env::var_os("NRS_BENCH_FAST").is_some() {
        &[100, 500]
    } else {
        &[100, 1_000, 10_000]
    };
    for &size in sizes {
        let base = partition_instance(size, 42);
        let views = problem.materialize_views(&base).unwrap();
        let from_views = definition.evaluate(&views).unwrap();
        let direct = eval(&query_expr, &base).unwrap();
        assert_eq!(from_views, direct);
        println!(
            "E5 row: |S|={size} answer_tuples={}",
            direct.as_set().map(|s| s.len()).unwrap_or(0)
        );
        group.bench_with_input(BenchmarkId::new("from_views", size), &size, |b, _| {
            b.iter(|| definition.evaluate(&views).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("recompute_from_base", size),
            &size,
            |b, _| b.iter(|| eval(&query_expr, &base).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_rewriting);
criterion_main!(benches);
