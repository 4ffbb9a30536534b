//! The served plans of the partition families are unions of views, not
//! filters.
//!
//! Interpolation emits every set-valued rewriting as `{r ∈ C | κ(r)}`; for
//! the partition query and the overlapping workload, the parameter
//! collection `C` is `V1 ∪ V2` (or one of them) and the membership
//! interpolant `κ` probes exactly those views, so the planner drops the
//! filter (`{x ∈ ⋃O | ⋁_{h ∈ H} x ∈ h} = ⋃H` for `H ⊆ O`).  This pins that
//! every answer and shared fragment of both families compiles to a
//! loop-free plan, that the maintained workload is fully incremental, and
//! that its answers match the naive oracle along a random batch stream.

use nrs_nrc::{CompiledQuery, Plan};
use nrs_synthesis::views::{partition_instance, partition_problem};
use nrs_synthesis::{
    overlapping_workload_problem, MaintainedWorkload, SynthesisConfig, UpdateBatch, WorkloadProblem,
};
use nrs_value::{Name, Value};
use proptest::TestRng;

/// Does the plan iterate anywhere (a loop or a join)?
fn has_loop(plan: &Plan) -> bool {
    match plan {
        Plan::ForUnion { .. } | Plan::HashJoin { .. } => true,
        Plan::Var(_) | Plan::Unit | Plan::Empty => false,
        Plan::Proj1(x) | Plan::Proj2(x) | Plan::Singleton(x) | Plan::Get { arg: x, .. } => {
            has_loop(x)
        }
        Plan::Pair(a, b)
        | Plan::Union(a, b)
        | Plan::Diff(a, b)
        | Plan::Eq(a, b)
        | Plan::Guard { cond: a, body: b }
        | Plan::Member { elem: a, set: b }
        | Plan::Let {
            value: a, body: b, ..
        } => has_loop(a) || has_loop(b),
    }
}

/// A batch of one to four inserts or deletes on `S` or `F`.
fn random_batch(rng: &mut TestRng, mw: &MaintainedWorkload) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for _ in 0..=rng.next_u64() % 4 {
        let w = rng.next_u64();
        let rel = if w & 1 == 1 { "F" } else { "S" };
        let members = mw.base().try_get(&Name::new(rel)).expect("relation");
        let members = members.as_set().expect("set");
        if w & 2 == 2 || members.is_empty() {
            batch.insert(rel, Value::atom((w >> 2) % 200));
        } else {
            let idx = ((w >> 2) % members.len() as u64) as usize;
            batch.delete(rel, members.iter().nth(idx).expect("member").clone());
        }
    }
    batch
}

fn assert_served_as_unions(problem: WorkloadProblem, seed: u64) {
    let rewriting = problem
        .derive_workload(&SynthesisConfig::default())
        .expect("the partition views determine every query");
    let shared = rewriting.shared();
    for (name, expr) in shared.views.iter().chain(&shared.queries) {
        let compiled = CompiledQuery::compile(expr);
        assert!(
            !has_loop(compiled.plan()),
            "{name} is served as {}",
            compiled.plan()
        );
    }
    let mut mw =
        MaintainedWorkload::new(&rewriting, &partition_instance(60, seed)).expect("materialize");
    let coverage = mw.coverage();
    assert!(coverage.fully_incremental(), "{coverage}");
    let mut rng = TestRng::deterministic(&format!("served-plans-{seed}"));
    for _ in 0..40 {
        let batch = random_batch(&mut rng, &mw);
        mw.apply(&batch).expect("maintenance step");
        assert!(
            mw.cross_check(&rewriting).expect("oracle re-evaluation"),
            "maintained answers diverged from the naive oracle"
        );
    }
}

#[test]
fn the_partition_answer_is_served_as_a_union_of_views() {
    assert_served_as_unions(partition_problem(), 11);
}

#[test]
fn overlapping_answers_and_fragments_are_served_as_unions_of_views() {
    assert_served_as_unions(overlapping_workload_problem(8), 12);
}
