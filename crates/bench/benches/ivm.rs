//! E8 — incremental view maintenance: the cost of keeping a synthesized
//! rewriting's answer up to date under base updates, against the two
//! re-evaluation baselines it replaces.
//!
//! Workload: the partition problem (as in E5), maintained as a one-entry
//! workload.  For each base size |S| the group measures, per update batch:
//!
//! * `ivm_single`   — a single-tuple insert/delete on `S` through the full
//!   maintained pipeline (base → views → answer), the O(|Δ|·log n) path;
//! * `ivm_batch_1pct` — a |S|/100-tuple batch through the same pipeline
//!   (the update-to-size ratio the delta rules amortize over);
//! * `reeval_from_views` — re-running the compiled rewriting on already
//!   materialized views (what E5's `from_views` measures per query);
//! * `recompute_pipeline` — re-materializing the views and re-running the
//!   rewriting, the full non-incremental reaction to a base update.
//!
//! `ivm_build` measures set-up instead: `MaintainedWorkload::new`, filling
//! every view and the answer from scratch (what serving set-up and a
//! rollback rebuild run), at |S| up to 10⁵.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nrs_ivm::UpdateBatch;
use nrs_synthesis::ivm::MaintainedWorkload;
use nrs_synthesis::views::{partition_instance, partition_problem};
use nrs_synthesis::SynthesisConfig;
use nrs_value::Value;
use std::time::Duration;

fn bench_ivm(c: &mut Criterion) {
    let problem = partition_problem();
    let rewriting = problem
        .derive_workload(&SynthesisConfig::default())
        .expect("rewriting");
    let definition = &rewriting.queries()[0].1;

    let mut group = c.benchmark_group("E8_incremental_maintenance");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    // Fast mode measures every bench at 10³ and the flat-by-design
    // `ivm_single` at 10⁴ too, so `scripts/slope_check.sh` can fit its
    // scaling slope.  Both sizes are built first and `ivm_single` runs at
    // them back to back: the two points of the slope are then measured
    // seconds apart, not with the other 10³ benches in between.
    let fast = criterion::fast_mode();
    let mut points: Vec<_> = [1_000, 10_000]
        .into_iter()
        .map(|size| {
            let base = partition_instance(size, 42);
            let views = problem.materialize_views(&base).unwrap();
            let maintained = MaintainedWorkload::new(&rewriting, &base).expect("materialize");
            assert_eq!(
                maintained.answers()[0].1,
                &definition.evaluate(&views).unwrap(),
                "maintained pipeline starts consistent"
            );
            // Tuples outside the generated universe (atoms < 2·size), so
            // the alternating insert/delete batches below always take
            // effect.
            let fresh: Vec<Value> = (0..(size / 100).max(1))
                .map(|i| Value::atom((3 * size + 17 + i) as u64))
                .collect();
            (size, base, views, maintained, fresh)
        })
        .collect();

    for (size, _, _, maintained, fresh) in &mut points {
        let mut present = false;
        group.bench_with_input(BenchmarkId::new("ivm_single", *size), size, |b, _| {
            b.iter(|| {
                let mut batch = UpdateBatch::new();
                if present {
                    batch.delete("S", fresh[0].clone());
                } else {
                    batch.insert("S", fresh[0].clone());
                }
                present = !present;
                maintained.apply(&batch).unwrap()
            })
        });
        // leave the maintained instance as it started
        if present {
            let mut batch = UpdateBatch::new();
            batch.delete("S", fresh[0].clone());
            maintained.apply(&batch).unwrap();
        }
    }

    for (size, base, views, mut maintained, fresh) in points {
        if fast && size != 1_000 {
            continue;
        }
        let mut present = false;
        group.bench_with_input(BenchmarkId::new("ivm_batch_1pct", size), &size, |b, _| {
            b.iter(|| {
                let mut batch = UpdateBatch::new();
                for t in &fresh {
                    if present {
                        batch.delete("S", t.clone());
                    } else {
                        batch.insert("S", t.clone());
                    }
                }
                present = !present;
                maintained.apply(&batch).unwrap()
            })
        });

        group.bench_with_input(
            BenchmarkId::new("reeval_from_views", size),
            &size,
            |b, _| b.iter(|| definition.evaluate(&views).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("recompute_pipeline", size),
            &size,
            |b, _| {
                b.iter(|| {
                    let views = problem.materialize_views(&base).unwrap();
                    definition.evaluate(&views).unwrap()
                })
            },
        );
        // the maintained pipeline is still consistent with the oracle after
        // all those batches
        assert!(maintained.cross_check(&rewriting).unwrap());
    }

    let build_sizes: &[usize] = if fast {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    for &size in build_sizes {
        let base = partition_instance(size, 42);
        group.bench_with_input(BenchmarkId::new("ivm_build", size), &size, |b, _| {
            b.iter(|| MaintainedWorkload::new(&rewriting, &base).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ivm);
criterion_main!(benches);
