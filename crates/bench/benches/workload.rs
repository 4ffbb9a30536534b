//! E10 — workload synthesis and maintenance: many overlapping query
//! templates through one shared pipeline, against the N-independent-runs
//! baseline it replaces.
//!
//! Workload: `overlapping_workload_problem(n)` — `n` query templates over
//! the partition views `V1 = S ∩ F`, `V2 = S \ F`, built so the templates
//! overlap (an exact duplicate pair plus common `V1 ∪ V2` fragments).  The
//! group measures:
//!
//! * `workload_synth/{2,4,8}`     — one `derive_workload` pass: every
//!   template planned into a single deduplicated goal batch, proved through
//!   one prover session, shared fragments hoisted into common views;
//! * `independent_synth/{2,4,8}`  — the baseline: `n` cold one-query
//!   `derive_workload` runs, one fresh session each, no goal sharing;
//! * `workload_ivm_update/1000`   — a single-tuple update batch through one
//!   `MaintainedWorkload` (each shared view maintained once per batch,
//!   every named answer refreshed from the shared deltas);
//! * `independent_ivm_update/1000` — the same batch applied to `n`
//!   independent one-query `MaintainedWorkload`s, each re-maintaining its
//!   own copy of the view pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nrs_ivm::UpdateBatch;
use nrs_prover::ProverConfig;
use nrs_synthesis::views::partition_instance;
use nrs_synthesis::{
    overlapping_workload_problem, MaintainedWorkload, SynthesisConfig, WorkloadProblem,
};
use nrs_value::Value;
use std::time::Duration;

/// Query `i` of `problem` as a problem of its own: the independent baseline
/// the shared workload path amortizes against.
fn single(problem: &WorkloadProblem, i: usize) -> WorkloadProblem {
    WorkloadProblem {
        queries: vec![problem.queries[i].clone()],
        ..problem.clone()
    }
}

fn bench_workload(c: &mut Criterion) {
    // Sequential branch search (see E2 in `synthesis.rs`): a derivation
    // does the same work on every run.
    let cfg = SynthesisConfig {
        prover: ProverConfig {
            parallel_branches: false,
            ..ProverConfig::default()
        },
        ..SynthesisConfig::default()
    };
    let mut group = c.benchmark_group("E10_workload");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let fast = criterion::fast_mode();
    let spec_counts: &[usize] = if fast { &[4] } else { &[2, 4, 8] };

    for &n in spec_counts {
        let problem = overlapping_workload_problem(n);
        group.bench_with_input(BenchmarkId::new("workload_synth", n), &n, |b, _| {
            b.iter(|| problem.derive_workload(&cfg).expect("workload synthesis"))
        });
        group.bench_with_input(BenchmarkId::new("independent_synth", n), &n, |b, _| {
            b.iter(|| {
                (0..n)
                    .map(|i| {
                        single(&problem, i)
                            .derive_workload(&cfg)
                            .expect("independent synthesis")
                    })
                    .collect::<Vec<_>>()
            })
        });
    }

    // Maintenance: one shared pipeline vs n independent ones, same updates.
    let n = 4;
    let size = 1_000usize;
    let problem = overlapping_workload_problem(n);
    let workload_rw = problem.derive_workload(&cfg).expect("workload synthesis");
    let independent_rws: Vec<_> = (0..n)
        .map(|i| {
            single(&problem, i)
                .derive_workload(&cfg)
                .expect("independent synthesis")
        })
        .collect();
    let base = partition_instance(size, 42);
    let fresh = Value::atom((3 * size + 17) as u64);

    let mut maintained = MaintainedWorkload::new(&workload_rw, &base).expect("materialize");
    let mut present = false;
    group.bench_with_input(
        BenchmarkId::new("workload_ivm_update", size),
        &size,
        |b, _| {
            b.iter(|| {
                let mut batch = UpdateBatch::new();
                if present {
                    batch.delete("S", fresh.clone());
                } else {
                    batch.insert("S", fresh.clone());
                }
                present = !present;
                maintained.apply(&batch).unwrap()
            })
        },
    );
    assert!(maintained.cross_check(&workload_rw).unwrap());

    let mut independents: Vec<MaintainedWorkload> = independent_rws
        .iter()
        .map(|rw| MaintainedWorkload::new(rw, &base).expect("materialize"))
        .collect();
    let mut present = false;
    group.bench_with_input(
        BenchmarkId::new("independent_ivm_update", size),
        &size,
        |b, _| {
            b.iter(|| {
                let mut batch = UpdateBatch::new();
                if present {
                    batch.delete("S", fresh.clone());
                } else {
                    batch.insert("S", fresh.clone());
                }
                present = !present;
                for m in independents.iter_mut() {
                    m.apply(&batch).unwrap();
                }
            })
        },
    );
    for (m, rw) in independents.iter().zip(&independent_rws) {
        assert!(m.cross_check(rw).unwrap());
    }

    group.finish();
}

criterion_group!(benches, bench_workload);
criterion_main!(benches);
