//! Property-based equivalence: the optimizing pipeline (simplify → plan →
//! execute) must agree with the naive evaluator — the oracle — on every
//! expression family the workspace evaluates, over randomly generated
//! instances.
//!
//! The synthesized-rewriting families (E2/E5 scenarios) are covered by
//! `crates/core/tests/synthesized_equivalence.rs`; this harness covers the
//! hand-written and macro-generated families plus the Δ0 compilation output.

use nrs_delta0::macros as d0;
use nrs_delta0::typing::TypeEnv;
use nrs_delta0::{Formula, Term};
use nrs_nrc::eval::eval;
use nrs_nrc::{compile, eval_optimized, macros, CompiledQuery, Expr, Plan};
use nrs_value::generate::{random_value, GenConfig};
use nrs_value::{Instance, Name, NameGen, Type, Value};
use proptest::prelude::*;

/// Assert naive ≡ optimized on one expression/instance pair.
fn assert_agrees(expr: &Expr, inst: &Instance) -> Result<(), proptest::TestCaseError> {
    let naive = eval(expr, inst);
    let optimized = eval_optimized(expr, inst);
    match (naive, optimized) {
        (Ok(a), Ok(b)) => {
            prop_assert!(
                a == b,
                "naive and planned evaluation disagree on {expr}: {a} vs {b}"
            );
        }
        (Err(_), Err(_)) => {}
        (a, b) => {
            return Err(proptest::TestCaseError(format!(
            "one pipeline failed where the other succeeded on {expr}: naive={a:?} optimized={b:?}"
        )))
        }
    }
    Ok(())
}

/// The flatten / selection / join family over the keyed-nested schema.
fn structural_exprs() -> Vec<Expr> {
    let mut gen = NameGen::new();
    let flatten = Expr::big_union(
        "b",
        Expr::var("B"),
        Expr::big_union(
            "c",
            Expr::proj2(Expr::var("b")),
            Expr::singleton(Expr::pair(Expr::proj1(Expr::var("b")), Expr::var("c"))),
        ),
    );
    let select = Expr::big_union(
        "b",
        Expr::var("B"),
        Expr::big_union(
            "c",
            Expr::proj2(Expr::var("b")),
            Expr::big_union(
                "w",
                macros::eq_ur(Expr::var("c"), Expr::proj1(Expr::var("b"))),
                Expr::singleton(Expr::var("b")),
            ),
        ),
    );
    let join = Expr::big_union(
        "a",
        Expr::var("V"),
        Expr::big_union(
            "b",
            Expr::var("V"),
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
    let membership = Expr::big_union(
        "v",
        Expr::var("V"),
        macros::guard(
            macros::member(
                &Type::Ur,
                Expr::proj1(Expr::var("v")),
                Expr::big_union(
                    "b",
                    Expr::var("B"),
                    Expr::singleton(Expr::proj1(Expr::var("b"))),
                ),
                &mut gen,
            ),
            Expr::singleton(Expr::var("v")),
            &mut gen,
        ),
    );
    vec![flatten, select, join, membership]
}

/// The Δ0 view-specification conjuncts of Example 4.1, compiled to NRC.
fn compiled_formula_exprs() -> Vec<Expr> {
    let env = TypeEnv::from_pairs([
        (
            Name::new("B"),
            Type::set(Type::prod(Type::Ur, Type::set(Type::Ur))),
        ),
        (Name::new("V"), Type::relation(2)),
    ]);
    let mut gen = NameGen::new();
    let c1 = Formula::forall(
        "v",
        "V",
        Formula::exists(
            "b",
            "B",
            Formula::and(
                Formula::eq_ur(Term::proj1(Term::var("v")), Term::proj1(Term::var("b"))),
                d0::member_hat(
                    &Type::Ur,
                    &Term::proj2(Term::var("v")),
                    &Term::proj2(Term::var("b")),
                    &mut gen,
                ),
            ),
        ),
    );
    let c2 = Formula::forall(
        "b",
        "B",
        Formula::forall(
            "e",
            Term::proj2(Term::var("b")),
            Formula::exists(
                "v",
                "V",
                Formula::and(
                    Formula::eq_ur(Term::proj1(Term::var("v")), Term::proj1(Term::var("b"))),
                    Formula::eq_ur(Term::proj2(Term::var("v")), Term::var("e")),
                ),
            ),
        ),
    );
    [c1, c2]
        .iter()
        .map(|f| compile::compile_formula(f, &env, &mut gen).unwrap())
        .collect()
}

fn random_instance(seed: u64, universe: u64, max_set: usize) -> Instance {
    let b_ty = Type::set(Type::prod(Type::Ur, Type::set(Type::Ur)));
    let v_ty = Type::relation(2);
    let cfg = GenConfig {
        universe,
        max_set_size: max_set,
        seed,
    };
    let b = random_value(&b_ty, &cfg);
    let v = random_value(
        &v_ty,
        &GenConfig {
            seed: seed ^ 0x9e37_79b9,
            ..cfg
        },
    );
    Instance::from_bindings([(Name::new("B"), b), (Name::new("V"), v)])
}

/// A filter `{x ∈ O1 ∪ … ∪ Ok | x ∈ H1 ∨ … ∨ x ∈ Hm}` over the sets `A`,
/// `B`, `C`, `D`: bit `i` of `range_mask` puts the `i`-th set into the range
/// and bit `i` of `probe_mask` probes it, so some probes may miss the range
/// (`D` never is in it).  Also returns whether every probe is a range
/// operand, which is when the planner drops the filter.
fn union_filter(range_mask: u64, probe_mask: u64) -> (Expr, bool) {
    let mut gen = NameGen::new();
    let sets = ["A", "B", "C", "D"];
    let pick = |mask: u64| (0..sets.len()).filter(move |i| mask >> i & 1 == 1);
    let range = pick(range_mask & 0b111)
        .map(|i| Expr::var(sets[i]))
        .reduce(Expr::union)
        .expect("a non-empty range");
    let cond = pick(probe_mask)
        .map(|i| macros::member(&Type::Ur, Expr::var("x"), Expr::var(sets[i]), &mut gen))
        .reduce(macros::or)
        .expect("a non-empty condition");
    let filter = Expr::big_union(
        "x",
        range,
        macros::guard(cond, Expr::singleton(Expr::var("x")), &mut gen),
    );
    (filter, probe_mask & !(range_mask & 0b111) == 0)
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Filters over a union range whose condition is a disjunction of
    /// probes agree with the oracle, whether or not every probe is a range
    /// operand; when every one is, the plan is a loop-free union.
    #[test]
    fn prop_union_range_filters_agree(
        seed in 0u64..10_000,
        universe in 2u64..10,
        range_mask in 1u64..8,
        probe_mask in 1u64..16,
    ) {
        let set = |salt: u64| random_value(
            &Type::set(Type::Ur),
            &GenConfig { universe, max_set_size: 6, seed: seed ^ salt },
        );
        let inst = Instance::from_bindings(
            ["A", "B", "C", "D"]
                .into_iter()
                .zip(1u64..)
                .map(|(n, salt)| (Name::new(n), set(salt.wrapping_mul(0x9e37_79b9)))),
        );
        let (filter, range_implied) = union_filter(range_mask, probe_mask);
        assert_agrees(&filter, &inst)?;
        if range_implied {
            let plan = CompiledQuery::compile(&filter);
            prop_assert!(!has_loop(plan.plan()), "{filter} planned as {}", plan.plan());
        }
    }

    /// Structural queries agree on random keyed-nested instances.
    #[test]
    fn prop_structural_queries_agree(seed in 0u64..10_000, universe in 2u64..8, max_set in 1usize..5) {
        let inst = random_instance(seed, universe, max_set);
        for e in structural_exprs() {
            assert_agrees(&e, &inst)?;
        }
    }

    /// Compiled Δ0 formulas (Booleans) agree on random instances.
    #[test]
    fn prop_compiled_formulas_agree(seed in 0u64..10_000, universe in 2u64..6) {
        let inst = random_instance(seed, universe, 3);
        for e in compiled_formula_exprs() {
            assert_agrees(&e, &inst)?;
        }
    }

    /// Boolean macro compositions agree (these exercise Guard/EqUr folding).
    #[test]
    fn prop_boolean_macros_agree(seed in 0u64..10_000, k in 0u64..6) {
        let mut gen = NameGen::new();
        let inst = random_instance(seed, 4, 3)
            .with("k", Value::atom(k))
            .with("S", Value::set((0..k).map(Value::atom)));
        let member = macros::member(&Type::Ur, Expr::var("k"), Expr::var("S"), &mut gen);
        let exprs = vec![
            macros::if_then_else(member.clone(), Expr::var("S"), Expr::empty(Type::Ur), &mut gen),
            macros::and(member.clone(), macros::not(member.clone()), &mut gen),
            macros::or(member.clone(), macros::eq_ur(Expr::var("k"), Expr::var("k"))),
            macros::is_empty(Expr::var("S"), &mut gen),
            macros::subset(&Type::Ur, Expr::var("S"), Expr::var("S"), &mut gen),
        ];
        for e in exprs {
            assert_agrees(&e, &inst)?;
        }
    }

    /// Set-valued equality (`eq_at` at `Set(T)` / nested types) agrees with
    /// the oracle: the recognizer lowers the subset-both-ways expansion to a
    /// single `Eq` plan node, and structural equality of canonical values
    /// must coincide with the macro's extensional quantifier loops.
    #[test]
    fn prop_set_valued_equality_agrees(seed in 0u64..10_000, universe in 2u64..6, max_set in 1usize..4) {
        let mut gen = NameGen::new();
        let inst = random_instance(seed, universe, max_set);
        let nested_ty = Type::set(Type::prod(Type::Ur, Type::set(Type::Ur)));
        let exprs = vec![
            // B = B (trivially true, but through the full expansion)
            macros::eq_at(&nested_ty, Expr::var("B"), Expr::var("B"), &mut gen),
            // π2-projections of B compared as sets
            macros::eq_at(
                &Type::set(Type::Ur),
                Expr::big_union("b", Expr::var("B"), Expr::proj2(Expr::var("b"))),
                Expr::big_union("v", Expr::var("V"), Expr::singleton(Expr::proj2(Expr::var("v")))),
                &mut gen,
            ),
            // a set-valued guard: { b ∈ B | π2 b = π2-union of B }
            Expr::big_union(
                "b",
                Expr::var("B"),
                macros::guard(
                    macros::eq_at(
                        &Type::set(Type::Ur),
                        Expr::proj2(Expr::var("b")),
                        Expr::big_union("c", Expr::var("B"), Expr::proj2(Expr::var("c"))),
                        &mut gen,
                    ),
                    Expr::singleton(Expr::var("b")),
                    &mut gen,
                ),
            ),
            // membership at a product-with-set element type
            macros::member(
                &Type::prod(Type::Ur, Type::set(Type::Ur)),
                Expr::get(Type::prod(Type::Ur, Type::set(Type::Ur)), Expr::var("B")),
                Expr::var("B"),
                &mut gen,
            ),
        ];
        for e in exprs {
            assert_agrees(&e, &inst)?;
        }
    }

    /// Compiling twice is deterministic, and plans never grow past the
    /// expression (sanity on the lowering, not a semantics property).
    #[test]
    fn prop_compilation_is_deterministic(idx in 0usize..4) {
        let e = &structural_exprs()[idx];
        let q1 = CompiledQuery::compile(e);
        let q2 = CompiledQuery::compile(e);
        prop_assert_eq!(q1.plan(), q2.plan());
    }
}
