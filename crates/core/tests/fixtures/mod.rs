//! Product-output specifications shared by the integration tests.

use nrs_delta0::macros as d0;
use nrs_delta0::{Formula, Term};
use nrs_synthesis::ImplicitSpec;
use nrs_value::{Name, NameGen, Type};

/// `x` is the unique member of the input set `set`:
/// `(∀x ∈ set . x = t) ∧ (∃x ∈ set . ⊤)`.
fn unique_member(set: &str, t: Term) -> Formula {
    Formula::and(
        Formula::forall("x", set, Formula::eq_ur("x", t)),
        Formula::exists("x", set, Formula::True),
    )
}

/// `o : Ur × Set(Ur)`: `π1 o` is the unique member of `I`, and `π2 o` is
/// `{x ∈ J}`, written as a sound and a complete conjunct.
pub fn ur_and_set_spec() -> ImplicitSpec {
    let mut gen = NameGen::new();
    let o = Term::var("o");
    let second = Term::proj2(o.clone());
    let sound = Formula::forall(
        "z",
        second.clone(),
        Formula::exists("x", "J", Formula::eq_ur("z", "x")),
    );
    let complete = Formula::forall(
        "x",
        "J",
        d0::member_hat(&Type::Ur, &Term::var("x"), &second, &mut gen),
    );
    ImplicitSpec {
        formula: d0::and_all([unique_member("I", Term::proj1(o)), sound, complete]),
        inputs: vec![
            (Name::new("I"), Type::set(Type::Ur)),
            (Name::new("J"), Type::set(Type::Ur)),
        ],
        auxiliaries: vec![],
        output: (Name::new("o"), Type::prod(Type::Ur, Type::set(Type::Ur))),
    }
}

/// `o : Ur × (Unit × Ur)`: `π1 o` is the unique member of `I` and
/// `π2 π2 o` the unique member of `J`.
pub fn ur_unit_ur_spec() -> ImplicitSpec {
    let o = Term::var("o");
    ImplicitSpec {
        formula: Formula::and(
            unique_member("I", Term::proj1(o.clone())),
            unique_member("J", Term::proj2(Term::proj2(o))),
        ),
        inputs: vec![
            (Name::new("I"), Type::set(Type::Ur)),
            (Name::new("J"), Type::set(Type::Ur)),
        ],
        auxiliaries: vec![],
        output: (
            Name::new("o"),
            Type::prod(Type::Ur, Type::prod(Type::Unit, Type::Ur)),
        ),
    }
}
