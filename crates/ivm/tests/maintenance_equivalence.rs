//! Property-based equivalence: a maintained query must agree with full naive
//! re-evaluation after **every** update batch of a random update sequence —
//! including deletions, the case that exercises the support-counting
//! machinery.
//!
//! The model side applies each batch functionally to the instance and
//! re-evaluates the original expression with the naive recursive evaluator
//! (`nrs_nrc::eval`), which PR 2 established as the oracle for the plan
//! pipeline; the maintained side sees only the deltas.

use nrs_ivm::{MaintainedQuery, UpdateBatch};
use nrs_nrc::eval::eval;
use nrs_nrc::{macros, CompiledQuery, Expr};
use nrs_value::generate::{random_value, GenConfig};
use nrs_value::{Instance, Name, NameGen, Type, Value};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// The expression families under maintenance.  All are set-valued (Booleans
/// included: they are `Set(Unit)`).
fn families() -> Vec<(&'static str, Expr)> {
    let mut gen = NameGen::new();
    // { x ∈ S | x ∈ F } — the synthesized membership filter.
    let member_filter = Expr::big_union(
        "x",
        Expr::var("S"),
        macros::guard(
            macros::member(&Type::Ur, Expr::var("x"), Expr::var("F"), &mut gen),
            Expr::singleton(Expr::var("x")),
            &mut gen,
        ),
    );
    // { x ∈ S | ¬(x ∈ F) } — the complement filter (the V2 shape).
    let not_member_filter = Expr::big_union(
        "x",
        Expr::var("S"),
        macros::guard(
            macros::not(macros::member(
                &Type::Ur,
                Expr::var("x"),
                Expr::var("F"),
                &mut gen,
            )),
            Expr::singleton(Expr::var("x")),
            &mut gen,
        ),
    );
    // (S ∪ F) ∖ (F ∖ S) — pure set algebra.
    let algebra = Expr::diff(
        Expr::union(Expr::var("S"), Expr::var("F")),
        Expr::diff(Expr::var("F"), Expr::var("S")),
    );
    // flatten of the nested relation B.
    let flatten = Expr::big_union(
        "b",
        Expr::var("B"),
        Expr::big_union(
            "c",
            Expr::proj2(Expr::var("b")),
            Expr::singleton(Expr::pair(Expr::proj1(Expr::var("b")), Expr::var("c"))),
        ),
    );
    // projection with overlapping supports: ⋃{ {π1 b} | b ∈ B }.
    let projection = Expr::big_union(
        "b",
        Expr::var("B"),
        Expr::singleton(Expr::proj1(Expr::var("b"))),
    );
    // key self-join of the flat relation R (a HashJoin plan).
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
    // hoisted shared value: { x ∈ S | x ∈ (F ∪ G) }.
    let hoisted = Expr::big_union(
        "x",
        Expr::var("S"),
        macros::guard(
            macros::member(
                &Type::Ur,
                Expr::var("x"),
                Expr::union(Expr::var("F"), Expr::var("G")),
                &mut gen,
            ),
            Expr::singleton(Expr::var("x")),
            &mut gen,
        ),
    );
    // top-level guard flipping on F's emptiness.
    let guarded = macros::guard(
        macros::nonempty(Expr::var("F"), &mut gen),
        Expr::var("S"),
        &mut gen,
    );
    // set-valued equality (a Boolean output maintained via the fallback).
    let set_eq = macros::eq_at(
        &Type::set(Type::Ur),
        Expr::var("S"),
        Expr::var("F"),
        &mut gen,
    );
    // { r ∈ S ∪ F | r ∈ F ∨ r ∈ S } — the served-answer shape: one tuple
    // can be a delta of the loop's range and of a probed relation at once.
    let answer_filter = Expr::big_union(
        "r",
        Expr::union(Expr::var("S"), Expr::var("F")),
        macros::guard(
            macros::or(
                macros::member(&Type::Ur, Expr::var("r"), Expr::var("F"), &mut gen),
                macros::member(&Type::Ur, Expr::var("r"), Expr::var("S"), &mut gen),
            ),
            Expr::singleton(Expr::var("r")),
            &mut gen,
        ),
    );
    // { x ∈ S | x ∈ F ∧ G ≠ ∅ } — a filter whose condition has a hard
    // dependency (G), so a delta on G refills the filter.
    let hard_filter = Expr::big_union(
        "x",
        Expr::var("S"),
        macros::guard(
            macros::and(
                macros::member(&Type::Ur, Expr::var("x"), Expr::var("F"), &mut gen),
                macros::nonempty(Expr::var("G"), &mut gen),
                &mut gen,
            ),
            Expr::singleton(Expr::var("x")),
            &mut gen,
        ),
    );
    vec![
        ("member_filter", member_filter),
        ("answer_filter", answer_filter),
        ("hard_filter", hard_filter),
        ("not_member_filter", not_member_filter),
        ("algebra", algebra),
        ("flatten", flatten),
        ("projection", projection),
        ("join", join),
        ("hoisted", hoisted),
        ("guarded", guarded),
        ("set_eq", set_eq),
    ]
}

/// The relations the update generator may touch, with their tuple shapes.
const RELS: [(&str, RelShape); 5] = [
    ("S", RelShape::Atom),
    ("F", RelShape::Atom),
    ("G", RelShape::Atom),
    ("B", RelShape::Nested),
    ("R", RelShape::Flat),
];

#[derive(Clone, Copy)]
enum RelShape {
    Atom,
    Flat,
    Nested,
}

fn random_tuple(shape: RelShape, rng: &mut rand::rngs::StdRng, universe: u64) -> Value {
    match shape {
        RelShape::Atom => Value::atom(rng.gen_range(0..universe)),
        RelShape::Flat => Value::pair(
            Value::atom(rng.gen_range(0..universe)),
            Value::atom(rng.gen_range(0..universe)),
        ),
        RelShape::Nested => Value::pair(
            Value::atom(rng.gen_range(0..universe)),
            Value::set(
                (0..rng.gen_range(0..3u64)).map(|_| Value::atom(rng.gen_range(0..universe))),
            ),
        ),
    }
}

fn initial_instance(seed: u64, universe: u64) -> Instance {
    let cfg = |s: u64, ty: &Type| {
        random_value(
            ty,
            &GenConfig {
                universe,
                max_set_size: 5,
                seed: s,
            },
        )
    };
    let atom_set = Type::set(Type::Ur);
    let flat = Type::relation(2);
    let nested = Type::set(Type::prod(Type::Ur, Type::set(Type::Ur)));
    Instance::from_bindings([
        (Name::new("S"), cfg(seed, &atom_set)),
        (Name::new("F"), cfg(seed ^ 0xa5a5, &atom_set)),
        (Name::new("G"), cfg(seed ^ 0x5a5a, &atom_set)),
        (Name::new("B"), cfg(seed ^ 0x1111, &nested)),
        (Name::new("R"), cfg(seed ^ 0x2222, &flat)),
    ])
}

/// A random batch: 1–4 inserts/deletes over the relations.  Deletions pick
/// an existing tuple from the current instance half of the time, so they
/// actually fire (a delete of a random absent tuple normalizes away).
fn random_batch(rng: &mut rand::rngs::StdRng, current: &Instance, universe: u64) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for _ in 0..rng.gen_range(1..5u32) {
        let (rel, shape) = RELS[rng.gen_range(0..RELS.len() as u64) as usize];
        let name = Name::new(rel);
        if rng.gen_range(0..2u32) == 0 {
            batch.insert(name, random_tuple(shape, rng, universe));
        } else {
            let existing = current
                .try_get(&name)
                .and_then(|v| v.as_set().ok())
                .and_then(|s| {
                    if s.is_empty() {
                        None
                    } else {
                        s.iter().nth(rng.gen_range(0..s.len() as u64) as usize)
                    }
                })
                .cloned();
            match (rng.gen_range(0..2u32) == 0, existing) {
                (true, Some(t)) => batch.delete(name, t),
                _ => batch.delete(name, random_tuple(shape, rng, universe)),
            };
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every batch of a random update sequence, the maintained value
    /// equals naive re-evaluation on the updated instance — for every plan
    /// family, inserts and deletes alike.
    #[test]
    fn prop_maintained_equals_naive_reevaluation(seed in 0u64..10_000, universe in 3u64..9) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut inst = initial_instance(seed, universe);
        let cases: Vec<(&str, Expr, MaintainedQuery)> = families()
            .into_iter()
            .map(|(label, e)| {
                let q = CompiledQuery::compile(&e);
                let mq = MaintainedQuery::new(&q, &inst).expect("initial materialization");
                (label, e, mq)
            })
            .collect();
        let mut cases = cases;
        for step in 0..10 {
            let batch = random_batch(&mut rng, &inst, universe);
            inst = batch.apply(&inst).expect("model update");
            for (label, expr, mq) in &mut cases {
                let delta = mq.apply(&batch).expect("maintenance step");
                let naive = eval(expr, &inst).expect("naive oracle");
                prop_assert!(
                    mq.value() == &naive,
                    "family {label} diverged at step {step} (delta {:?}):\n maintained {}\n naive      {}",
                    delta, mq.value(), naive
                );
            }
        }
        // the engine's own recompute check agrees at the end, too
        for (label, _, mq) in &cases {
            prop_assert!(
                mq.consistency_check().expect("recompute"),
                "family {label} failed the internal consistency check"
            );
        }
    }

    /// Self-healing under interleaved failures: every good batch is preceded
    /// by a malformed one (an overlapping delta) pushed through the
    /// transactional path.  The failed batch must be rejected with the right
    /// variant and leave no trace — the maintained value keeps tracking the
    /// naive oracle exactly as if the failures never happened.
    #[test]
    fn prop_interleaved_failed_batches_leave_no_trace(seed in 0u64..10_000, universe in 3u64..9) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(0x517c_c1b7_2722_0a95));
        let mut inst = initial_instance(seed, universe);
        let mut cases: Vec<(&str, Expr, MaintainedQuery)> = families()
            .into_iter()
            .map(|(label, e)| {
                let q = CompiledQuery::compile(&e);
                let mq = MaintainedQuery::new(&q, &inst).expect("initial materialization");
                (label, e, mq)
            })
            .collect();
        for step in 0..8 {
            // a malformed batch: the same tuple on both sides of a delta
            // (only constructible by wrapping one verbatim — the builders
            // cancel opposite sides)
            let (rel, shape) = RELS[rng.gen_range(0..RELS.len() as u64) as usize];
            let tuple = random_tuple(shape, &mut rng, universe);
            let mut ds = nrs_ivm::DeltaSet::new();
            ds.inserts.insert(tuple.clone());
            ds.deletes.insert(tuple);
            let bad = UpdateBatch::from_delta(Name::new(rel), ds);
            for (label, expr, mq) in &mut cases {
                let err = mq.apply_transactional(&bad).unwrap_err();
                prop_assert!(
                    matches!(err, nrs_ivm::IvmError::OverlappingDelta { .. }),
                    "family {label} step {step}: wrong rejection {err}"
                );
                let naive = eval(expr, &inst).expect("naive oracle");
                prop_assert!(
                    mq.value() == &naive,
                    "family {label}: rejected batch left a trace at step {step}"
                );
            }
            // then a good batch: maintenance proceeds as if nothing happened
            let batch = random_batch(&mut rng, &inst, universe);
            inst = batch.apply(&inst).expect("model update");
            for (label, expr, mq) in &mut cases {
                mq.apply_transactional(&batch).expect("maintenance step");
                let naive = eval(expr, &inst).expect("naive oracle");
                prop_assert!(
                    mq.value() == &naive,
                    "family {label} diverged at step {step} after interleaved failures"
                );
            }
        }
        for (label, _, mq) in &cases {
            prop_assert!(
                mq.consistency_check().expect("recompute"),
                "family {label} failed the internal consistency check"
            );
        }
    }
}
