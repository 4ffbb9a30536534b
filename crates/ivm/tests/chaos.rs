//! Chaos testing of the maintenance engine: inject a fault at **every**
//! reachable instrumentation site of a batch and assert, per site, that
//!
//! 1. the failure surfaces as a typed, operator-tagged error (never a
//!    panic, never a torn value),
//! 2. the transactional apply rolls back to the exact pre-batch value
//!    (degraded-not-corrupt),
//! 3. after degrading the blamed operator, the next clean apply converges
//!    to the naive oracle.
//!
//! The discovery-then-inject protocol is the one documented in
//! `nrs_ivm::fault`: a `count_only` pass learns how many sites the batch
//! reaches, then one run per site fails exactly that site.

#![cfg(feature = "fault-injection")]

use nrs_ivm::fault::{FaultPlan, FaultScope};
use nrs_ivm::{IvmError, MaintainedQuery, UpdateBatch};
use nrs_nrc::eval::eval;
use nrs_nrc::{macros, CompiledQuery, Expr};
use nrs_value::{Instance, Name, NameGen, Type, Value};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Does the error chain bottom out in an injected fault?
fn injected(e: &IvmError) -> bool {
    match e {
        IvmError::FaultInjected { .. } => true,
        IvmError::Operator { source, .. } => injected(source),
        _ => false,
    }
}

/// Plan families that exercise distinct operator kinds (filter/guard,
/// join, set algebra), so faults land on different delta rules.
fn families() -> Vec<(&'static str, Expr)> {
    let mut gen = NameGen::new();
    let member_filter = Expr::big_union(
        "x",
        Expr::var("S"),
        macros::guard(
            macros::member(&Type::Ur, Expr::var("x"), Expr::var("F"), &mut gen),
            Expr::singleton(Expr::var("x")),
            &mut gen,
        ),
    );
    let join = Expr::big_union(
        "a",
        Expr::var("R"),
        Expr::big_union(
            "b",
            Expr::var("R"),
            macros::guard(
                macros::eq_ur(Expr::proj1(Expr::var("a")), Expr::proj1(Expr::var("b"))),
                Expr::singleton(Expr::pair(
                    Expr::proj2(Expr::var("a")),
                    Expr::proj2(Expr::var("b")),
                )),
                &mut gen,
            ),
        ),
    );
    let algebra = Expr::diff(
        Expr::union(Expr::var("S"), Expr::var("F")),
        Expr::diff(Expr::var("F"), Expr::var("S")),
    );
    vec![
        ("member_filter", member_filter),
        ("join", join),
        ("algebra", algebra),
    ]
}

fn instance(seed: u64, universe: u64) -> Instance {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut atoms = |n: usize| -> BTreeSet<Value> {
        (0..n)
            .map(|_| Value::atom(rng.gen_range(0..universe)))
            .collect()
    };
    let s = Value::from_set(atoms(5));
    let f = Value::from_set(atoms(5));
    let mut rng2 = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7777);
    let r: BTreeSet<Value> = (0..5)
        .map(|_| {
            Value::pair(
                Value::atom(rng2.gen_range(0..universe)),
                Value::atom(rng2.gen_range(0..universe)),
            )
        })
        .collect();
    Instance::from_bindings([
        (Name::new("S"), s),
        (Name::new("F"), f),
        (Name::new("R"), Value::from_set(r)),
    ])
}

fn random_batch(rng: &mut rand::rngs::StdRng, universe: u64) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    // fresh atoms above the universe so inserts always fire
    batch.insert("S", Value::atom(universe + rng.gen_range(0..8u64)));
    batch.insert("F", Value::atom(universe + rng.gen_range(0..8u64)));
    batch.insert(
        "R",
        Value::pair(
            Value::atom(rng.gen_range(0..universe)),
            Value::atom(universe + rng.gen_range(0..8u64)),
        ),
    );
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Inject at every reachable site; the engine must degrade, never
    /// corrupt, and the healed plan must converge to the naive oracle.
    #[test]
    fn prop_faults_at_every_site_degrade_but_never_corrupt(
        seed in 0u64..10_000,
        universe in 3u64..9,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let inst = instance(seed, universe);
        for (label, expr) in families() {
            let q = CompiledQuery::compile(&expr);
            let batch = random_batch(&mut rng, universe);
            let model_after = batch.apply(&inst).expect("model update");
            let naive_before = eval(&expr, &inst).expect("naive oracle (before)");
            let naive_after = eval(&expr, &model_after).expect("naive oracle (after)");

            // discovery pass: how many instrumented sites does this batch reach?
            let hits = {
                let mut mq = MaintainedQuery::new(&q, &inst).expect("materialize");
                let scope = FaultScope::new(FaultPlan::count_only());
                mq.apply_transactional(&batch).expect("clean apply");
                prop_assert!(mq.value() == &naive_after, "family {label}: clean run diverged");
                scope.hits()
            };
            prop_assert!(hits > 0, "family {label}: batch reached no instrumented site");

            // injection passes: one run per reachable site
            for n in 0..hits {
                let mut mq = MaintainedQuery::new(&q, &inst).expect("materialize");
                let err = {
                    let _scope = FaultScope::new(FaultPlan::fail_nth(n));
                    mq.apply_transactional(&batch)
                        .expect_err("armed fault must surface")
                };
                prop_assert!(
                    injected(&err),
                    "family {label} site {n}: unexpected error {err}"
                );
                // degraded-not-corrupt: rolled back to the pre-batch value
                prop_assert!(
                    mq.value() == &naive_before,
                    "family {label} site {n}: rollback left a torn value"
                );
                // heal: degrade the blamed operator (when one is tagged),
                // then the clean retry must converge to the oracle
                if let Some(op) = err.operator() {
                    mq.degrade(op).expect("degrade blamed operator");
                    prop_assert!(mq.degraded().contains(&op));
                    prop_assert!(mq.coverage().degraded() > 0);
                }
                mq.apply_transactional(&batch).expect("clean retry");
                prop_assert!(
                    mq.value() == &naive_after,
                    "family {label} site {n}: healed plan diverged from the oracle"
                );
                prop_assert!(mq.consistency_check().expect("recompute"));
            }
        }
    }
}
