//! Workload synthesis equivalence (PR 10 acceptance):
//!
//! 1. a singleton [`Workload`] produces a **bit-identical** rewriting to
//!    single-spec [`synthesize`], which runs the spec as the one-entry
//!    workload: the facade must hand back that entry, proofs and report
//!    included;
//! 2. a [`MaintainedWorkload`] under random `UpdateBatch`es (deletions
//!    included) stays equivalent to per-query naive re-evaluation, with
//!    every shared view maintained exactly once per batch;
//! 3. goal dedup is real and measured: the overlapping 4-spec workload
//!    visits strictly fewer prover states than the sum of the four
//!    independent runs.

use nrs_synthesis::views::partition_instance;
use nrs_synthesis::{
    overlapping_workload_problem, synthesize, MaintainedWorkload, SynthesisConfig, Synthesizer,
    UpdateBatch, Workload, WorkloadProblem, WorkloadRewriting,
};
use nrs_value::{Name, Value};
use proptest::prelude::*;
use std::sync::OnceLock;

fn fixture_problem() -> &'static WorkloadProblem {
    static CELL: OnceLock<WorkloadProblem> = OnceLock::new();
    CELL.get_or_init(|| overlapping_workload_problem(4))
}

/// The workload rewriting, synthesized once per test process.
fn fixture_rewriting() -> &'static WorkloadRewriting {
    static CELL: OnceLock<WorkloadRewriting> = OnceLock::new();
    CELL.get_or_init(|| {
        fixture_problem()
            .derive_workload(&SynthesisConfig::default())
            .expect("the partition views determine every query")
    })
}

#[test]
fn singleton_workloads_are_bit_identical_to_single_spec_synthesis() {
    let cfg = SynthesisConfig::default();
    let workload = fixture_problem().workload().expect("specs build");
    for (name, spec) in workload.entries() {
        let single = synthesize(spec, &cfg).expect("single-spec synthesis");
        let singleton = Workload::new().with_entry(*name, spec.clone());
        let via_workload = Synthesizer::with_config(cfg.clone())
            .synthesize_workload(&singleton)
            .expect("workload synthesis");
        assert_eq!(via_workload.definitions.len(), 1);
        let (out_name, def) = &via_workload.definitions[0];
        assert_eq!(out_name, name);
        assert_eq!(
            def.expr(),
            single.expr(),
            "entry {name}: single-spec synthesis must hand back the \
             one-entry workload's definition"
        );
        assert_eq!(
            def.report.goals_proved, single.report.goals_proved,
            "entry {name}: same goals"
        );
        assert_eq!(
            def.report.proof_sizes, single.report.proof_sizes,
            "entry {name}: same proofs"
        );
    }
}

#[test]
fn singleton_workload_respects_determinacy_and_cold_session_knobs() {
    // the determinacy check and the session's state must not change the
    // one-entry workload's rewriting: a cold session and one warmed on the
    // whole workload hand back what single-spec synthesis does
    let workload = fixture_problem().workload().expect("specs build");
    let (name, spec) = workload.entries()[0].clone();
    let singleton = Workload::new().with_entry(name, spec.clone());
    for cfg in [
        SynthesisConfig {
            check_determinacy: true,
            ..SynthesisConfig::default()
        },
        SynthesisConfig::default(),
    ] {
        let single = synthesize(&spec, &cfg).expect("single-spec synthesis");
        let cold = Synthesizer::with_config(cfg.clone())
            .synthesize_workload(&singleton)
            .expect("cold workload synthesis");
        let warm = Synthesizer::with_config(cfg.clone());
        warm.synthesize_workload(&workload).expect("warming run");
        let warm = warm
            .synthesize_workload(&singleton)
            .expect("warm workload synthesis");
        assert_eq!(cold.definitions[0].1.expr(), single.expr());
        assert_eq!(warm.definitions[0].1.expr(), single.expr());
    }
}

#[test]
fn overlapping_workload_dedups_goals_and_visits_fewer_states() {
    let cfg = SynthesisConfig::default();
    let problem = fixture_problem();
    let wl = problem.derive_workload(&cfg).expect("workload synthesis");
    let report = wl.report();
    assert!(
        report.shared_goals_dedup > 0,
        "the overlapping workload must collapse identical goals: {report:?}"
    );
    let workload_states = report.synthesis.states_visited;
    let mut independent_states = 0usize;
    for query in &problem.queries {
        let single = WorkloadProblem {
            queries: vec![query.clone()],
            ..problem.clone()
        };
        let single = single.derive_workload(&cfg).expect("independent run");
        independent_states += single.report().synthesis.states_visited;
    }
    assert!(
        workload_states < independent_states,
        "the shared batch must visit strictly fewer prover states than the \
         sum of independent runs: workload={workload_states} \
         independent={independent_states}"
    );
}

/// One randomized mutation of the base: which relation, and either a fresh
/// insert or the deletion of the element at a (wrapped) index.
#[derive(Debug, Clone)]
enum Op {
    Insert { into_f: bool, key: u64 },
    Delete { from_f: bool, idx: usize },
}

/// Expand a drawn seed into a deterministic op sequence (the offline
/// proptest stand-in has no collection/oneof strategies).
fn ops_from_seed(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = TestRng::deterministic(&format!("workload-ops-{seed}"));
    (0..len)
        .map(|_| {
            let w = rng.next_u64();
            let which = w & 1 == 1;
            if w & 2 == 2 {
                Op::Insert {
                    into_f: which,
                    key: (w >> 2) % 10_000,
                }
            } else {
                Op::Delete {
                    from_f: which,
                    idx: ((w >> 2) % 64) as usize,
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shared views maintained under random batches (deletions included)
    /// stay equivalent to per-query naive re-evaluation — `cross_check`
    /// compares every maintained view, shared fragment and answer against
    /// from-scratch evaluation, answers also against the unrewritten
    /// queries on the live base.
    #[test]
    fn workload_maintenance_matches_naive_reevaluation(
        seed in 0u64..1_000,
        size in 4usize..24,
        ops_seed in 0u64..1_000_000,
        ops_len in 1usize..24,
    ) {
        let ops = ops_from_seed(ops_seed, ops_len);
        let rewriting = fixture_rewriting();
        let base = partition_instance(size, seed);
        let mut mw = MaintainedWorkload::new(rewriting, &base).expect("materialize");
        let per_apply = (mw.view_count() + mw.shared_count()) as u64;
        let shared_counter = nrs_obs::global().counter("ivm.views_shared_total");
        let mut fresh = 100_000u64;
        for op in ops {
            let mut batch = UpdateBatch::new();
            match op {
                Op::Insert { into_f, key } => {
                    let rel = if into_f { "F" } else { "S" };
                    let members = mw.base().try_get(&Name::new(rel)).expect("rel");
                    let v = if members.as_set().expect("set").contains(&Value::atom(key)) {
                        // already present: substitute a guaranteed-fresh key
                        fresh += 1;
                        Value::atom(fresh)
                    } else {
                        Value::atom(key)
                    };
                    batch.insert(rel, v);
                }
                Op::Delete { from_f, idx } => {
                    let rel = if from_f { "F" } else { "S" };
                    let members = mw.base().try_get(&Name::new(rel)).expect("rel");
                    let members = members.as_set().expect("set");
                    if members.is_empty() {
                        continue;
                    }
                    let victim = members.iter().nth(idx % members.len()).expect("member");
                    batch.delete(rel, victim.clone());
                }
            }
            let before = shared_counter.get();
            let deltas = mw.apply(&batch).expect("maintenance step");
            prop_assert_eq!(deltas.len(), rewriting.queries().len());
            // each view and shared fragment maintained exactly once per batch
            prop_assert_eq!(shared_counter.get() - before, per_apply);
            prop_assert!(
                mw.cross_check(rewriting).expect("oracle re-evaluation"),
                "maintained workload diverged from naive re-evaluation"
            );
        }
    }

    /// The per-query rewritings and the shared view set agree with direct
    /// evaluation of every query on random instances.
    #[test]
    fn workload_answers_match_direct_evaluation(seed in 0u64..1_000, size in 0usize..40) {
        let rewriting = fixture_rewriting();
        let base = partition_instance(size, seed);
        prop_assert!(rewriting.verify_on_base(&base).expect("evaluation"));
    }
}
