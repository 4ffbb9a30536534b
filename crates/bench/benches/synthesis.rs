//! E2 — Theorem 2: synthesis is polynomial in the (focused) proof size.
//!
//! Workload: the partition rewriting problem (one query, derived as a
//! one-entry workload) with a growing number of redundant constraint copies
//! (which inflate the specification and the proofs).  We report the total proof sizes and the size of the synthesized
//! expression; the claim reproduced is the absence of exponential blow-up.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nrs_synthesis::views::partition_problem;
use nrs_synthesis::{SynthesisConfig, Synthesizer};
use std::time::Duration;

fn bench_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("E2_synthesis_polynomial");
    // Cold derivations are tens of milliseconds since the unchecked-premise
    // and occurrence-join rework, so the group affords the criterion default
    // sample count; the 15 s budget keeps ≥5 samples even on slow runners.
    group.measurement_time(Duration::from_secs(15));
    let cfg = SynthesisConfig::default();
    for copies in [0usize, 1, 2] {
        let mut problem = partition_problem();
        // duplicate the (always true) key-style constraint to inflate the spec
        for i in 0..copies {
            let extra = nrs_delta0::Formula::forall(
                format!("x{i}"),
                "S",
                nrs_delta0::Formula::eq_ur(format!("x{i}").as_str(), format!("x{i}").as_str()),
            );
            problem.constraints.push(extra);
        }
        let result = problem.derive_workload(&cfg).expect("rewriting");
        let definition = &result.queries()[0].1;
        println!(
            "E2 row: extra_constraints={copies} proof_sizes={:?} rewriting_size={}",
            definition.report.proof_sizes,
            definition.expr().size()
        );
        // Cold path: a fresh prover session per derivation (spec build +
        // full proof search + extraction).
        group.bench_with_input(
            BenchmarkId::new("derive_rewriting", copies),
            &copies,
            |b, _| b.iter(|| problem.derive_workload(&cfg).unwrap()),
        );
        // Warm path: the watch-mode steady state — one session re-deriving
        // an unchanged problem, so the proof replays from the goal-outcome
        // cache and the measurement isolates spec construction + extraction.
        let synth = Synthesizer::with_config(cfg.clone());
        group.bench_with_input(
            BenchmarkId::new("derive_rewriting_warm", copies),
            &copies,
            |b, _| b.iter(|| synth.derive_workload(&problem).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_synthesis);
criterion_main!(benches);
