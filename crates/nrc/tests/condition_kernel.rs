//! Property tests for the condition and filter kernel of the executor.
//!
//! * `holds_bound` decides a condition exactly as executing it and testing
//!   the result for emptiness does, without building the Booleans;
//! * `exec_filter` — one merge walk (or probe per member, for a haystack much
//!   larger than the filtered set) — selects exactly the members that pass
//!   one at a time, and so does the executor's own filter-shaped loop.
//!
//! Conditions are random plans nesting every connective the kernel decides
//! directly (`∪`, `guard`, `{()} \ ·`) over probes `member(x, H)`, haystack
//! expressions, equalities, `x`-free sub-conditions, constants and leaves
//! only the per-member path decides, with pair and nested-set members.

use nrs_nrc::{exec_filter, exec_plan, exec_plan_bound, holds_bound, Plan};
use nrs_value::generate::{random_value, GenConfig};
use nrs_value::{Instance, Name, SetValue, Type, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn var(n: &str) -> Plan {
    Plan::Var(Name::new(n))
}

fn bx(p: Plan) -> Box<Plan> {
    Box::new(p)
}

fn tt() -> Plan {
    Plan::Singleton(bx(Plan::Unit))
}

fn member(elem: Plan, set: Plan) -> Plan {
    Plan::Member {
        elem: bx(elem),
        set: bx(set),
    }
}

/// A random condition on `x` of nesting depth at most `depth`.  Without
/// `per_member` leaves it is all connectives over probes, `x`-free
/// sub-conditions and constants, which the filter kernel merges; with them
/// it may also use leaves that only a per-member evaluation decides.
fn condition(rng: &mut TestRng, depth: u32, per_member: bool) -> Plan {
    if depth > 0 && rng.next_u64().is_multiple_of(2) {
        let connective = rng.next_u64() % 3;
        let mut sub = || bx(condition(rng, depth - 1, per_member));
        return match connective {
            0 => Plan::Union(sub(), sub()),
            1 => Plan::Guard {
                cond: sub(),
                body: sub(),
            },
            _ => Plan::Diff(bx(tt()), sub()),
        };
    }
    match rng.next_u64() % if per_member { 9 } else { 6 } {
        0 => member(var("x"), var("H1")),
        1 => member(var("x"), var("H2")),
        2 => member(var("x"), Plan::Union(bx(var("H1")), bx(var("H2")))),
        // `G ≠ ∅`: free of `x`, one value for every member
        3 => Plan::Guard {
            cond: bx(var("G")),
            body: bx(tt()),
        },
        4 => Plan::Empty,
        5 => tt(),
        6 => Plan::Eq(bx(var("x")), bx(var("c"))),
        // the swapped pair: a probe whose needle is not `x` itself
        7 => member(
            Plan::Pair(bx(Plan::Proj2(bx(var("x")))), bx(Plan::Proj1(bx(var("x"))))),
            var("H1"),
        ),
        // `x ∈ H2` as an explicit loop: not a connective
        _ => Plan::ForUnion {
            var: Name::new("y"),
            over: bx(var("H2")),
            body: bx(Plan::Eq(bx(var("y")), bx(var("x")))),
        },
    }
}

/// The member type: a pair of atoms, or an atom with a nested set.
fn member_type(nested: bool) -> Type {
    if nested {
        Type::prod(Type::Ur, Type::set(Type::Ur))
    } else {
        Type::prod(Type::Ur, Type::Ur)
    }
}

/// `S`, `H1`, `H2 : Set(T)`, `c : T` and `G : Set(U)` over a small universe,
/// so members, haystacks and the constant overlap.
fn instance(seed: u64, nested: bool, max_set: usize) -> Instance {
    let ty = member_type(nested);
    let draw = |ty: &Type, salt: u64| {
        random_value(
            ty,
            &GenConfig {
                universe: 3,
                max_set_size: max_set,
                seed: seed.wrapping_mul(31).wrapping_add(salt),
            },
        )
    };
    let set_ty = Type::set(ty.clone());
    Instance::from_bindings([
        (Name::new("S"), draw(&set_ty, 1)),
        (Name::new("H1"), draw(&set_ty, 2)),
        (Name::new("H2"), draw(&set_ty, 3)),
        (Name::new("c"), draw(&ty, 4)),
        (Name::new("G"), draw(&Type::set(Type::Ur), 5)),
    ])
}

fn set<'a>(env: &'a Instance, n: &str) -> &'a SetValue {
    env.try_get(&Name::new(n)).unwrap().as_set().unwrap()
}

/// The kernel against the Boolean-building executor on one condition.
fn check(cond: &Plan, env: &Instance) -> Result<(), TestCaseError> {
    let x = Name::new("x");
    let over = set(env, "S");
    let mut passing = BTreeSet::new();
    // every member, and some values outside `over`
    for m in over.iter().chain(set(env, "H1").iter().take(8)) {
        let bindings = [(x, m.clone())];
        let built = exec_plan_bound(cond, env, &bindings).unwrap();
        let expected = !built.as_set().unwrap().is_empty();
        let decided = holds_bound(cond, env, &bindings).unwrap();
        prop_assert!(
            decided == expected,
            "holds_bound({cond}) = {decided} but the executor built {built} for x = {m}"
        );
        if expected && over.contains(m) {
            passing.insert(m.clone());
        }
    }
    let expected = Value::from_set(passing);
    let filtered = exec_filter(x, over, cond, env).unwrap();
    prop_assert!(
        filtered == expected,
        "exec_filter({cond}) = {filtered}, per member {expected}"
    );
    let filter_loop = Plan::ForUnion {
        var: x,
        over: bx(var("S")),
        body: bx(Plan::Guard {
            cond: bx(cond.clone()),
            body: bx(Plan::Singleton(bx(var("x")))),
        }),
    };
    let executed = exec_plan(&filter_loop, env).unwrap();
    prop_assert!(
        executed == expected,
        "the executor's loop {filter_loop} = {executed}, per member {expected}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random conditions over small sets: both haystacks are merged.
    #[test]
    fn prop_kernel_matches_member_by_member(
        seed in 0u64..1_000_000,
        nested in 0u8..2,
        max_set in 1usize..7,
        depth in 0u32..5,
        per_member in 0u8..2,
    ) {
        let env = instance(seed, nested == 1, max_set);
        let mut rng = TestRng::deterministic(&format!("{seed}/{depth}"));
        let cond = condition(&mut rng, depth, per_member == 1);
        check(&cond, &env)?;
    }

    /// A haystack 1000× larger than the filtered set: `H1` is probed, not
    /// merged, and must select the same members.
    #[test]
    fn prop_kernel_matches_with_a_huge_haystack(
        seed in 0u64..1_000_000,
        nested in 0u8..2,
        depth in 0u32..4,
        per_member in 0u8..2,
    ) {
        let env = instance(seed, nested == 1, 4);
        let over: Vec<Value> = set(&env, "S").iter().cloned().collect();
        let n = over.len().max(1) * 1000;
        let filler = (0..n as u64).map(|i| {
            let second = if nested == 1 {
                Value::set([Value::atom(i)])
            } else {
                Value::atom(i + 1)
            };
            Value::pair(Value::atom(1000 + i), second)
        });
        // every other member of `S` is also in the huge haystack
        let huge: BTreeSet<Value> = filler.chain(over.into_iter().step_by(2)).collect();
        let env = env.with("H1", Value::from_set(huge));
        let mut rng = TestRng::deterministic(&format!("huge {seed}/{depth}"));
        let cond = condition(&mut rng, depth, per_member == 1);
        check(&cond, &env)?;
    }
}
