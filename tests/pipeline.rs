//! Cross-crate integration tests: the full implicit-to-explicit pipeline,
//! view rewriting, interpolation and the data/query substrate working
//! together, plus property-based tests over random instances.

use nested_synth::delta0::macros as d0;
use nested_synth::delta0::typing::TypeEnv;
use nested_synth::delta0::{Formula, InContext, Term};
use nested_synth::interp::{interpolate, Partition};
use nested_synth::nrc::spec::flatten_view;
use nested_synth::proof::{check_proof, Sequent};
use nested_synth::prover::{prove, prove_sequent, ProverConfig};
use nested_synth::synthesis::views::{partition_instance, partition_problem};
use nested_synth::synthesis::{SynthesisConfig, WorkloadRewriting};
use nested_synth::value::generate::keyed_nested_instance;
use nested_synth::value::{Name, NameGen, Type, Value};
use proptest::prelude::*;

#[test]
fn corollary3_pipeline_end_to_end() {
    // spec → determinacy proof → synthesis → verified rewriting over the views
    let problem = partition_problem();
    let cfg = SynthesisConfig {
        check_determinacy: true,
        ..Default::default()
    };
    let rewriting = problem.derive_workload(&cfg).expect("rewriting exists");
    let definition = &rewriting.queries()[0].1;
    assert!(definition.report.goals_proved >= 2);
    for seed in 0..6 {
        let base = partition_instance(8, seed);
        assert!(rewriting.verify_on_base(&base).unwrap(), "seed {seed}");
        // answering from views alone agrees with the base query
        let views = problem.materialize_views(&base).unwrap();
        let answer = definition.evaluate(&views).unwrap();
        let s = base.get(&Name::new("S")).unwrap();
        assert_eq!(&answer, s);
    }
}

#[test]
fn proofs_produced_by_the_prover_always_check() {
    // a grab-bag of valid sequents exercised across the stack
    let mut gen = NameGen::new();
    let goals = vec![
        Formula::or(Formula::eq_ur("x", "y"), Formula::neq_ur("x", "y")),
        Formula::forall(
            "z",
            "S",
            d0::member_hat(&Type::Ur, &Term::var("z"), &Term::var("S"), &mut gen),
        ),
        d0::implies(
            d0::subset(&Type::Ur, &Term::var("A"), &Term::var("B"), &mut gen),
            d0::subset(&Type::Ur, &Term::var("A"), &Term::var("B"), &mut gen),
        ),
    ];
    for goal in goals {
        let (proof, _) = prove(
            &InContext::new(),
            &[],
            std::slice::from_ref(&goal),
            &ProverConfig::default(),
        )
        .unwrap_or_else(|e| panic!("failed to prove {goal}: {e}"));
        check_proof(&proof).expect("prover output must check");
    }
}

#[test]
fn interpolants_respect_variable_sharing_on_view_specs() {
    // Left: the flattening view spec for copy 1; Right: copy 2 plus the
    // membership goal; the interpolant may only use the shared names (V, r).
    let row_ty = Type::prod(Type::Ur, Type::set(Type::Ur));
    let env = TypeEnv::from_pairs([
        (Name::new("B"), Type::set(row_ty.clone())),
        (Name::new("B2"), Type::set(row_ty.clone())),
        (Name::new("V"), Type::relation(2)),
    ]);
    let mut gen = NameGen::new();
    let spec1 = flatten_view("B", "V").io_spec(&env, &mut gen).unwrap();
    let spec2 = flatten_view("B2", "V").io_spec(&env, &mut gen).unwrap();
    // goal: a pair in V has a justifying row in B2 (provable from spec2 alone,
    // but stated so the interpolant must bridge the two sides)
    let goal = Formula::forall(
        "v",
        "V",
        Formula::exists(
            "b",
            "B2",
            Formula::eq_ur(Term::proj1(Term::var("v")), Term::proj1(Term::var("b"))),
        ),
    );
    let seq = Sequent::two_sided(InContext::new(), [spec1.clone(), spec2], [goal]);
    let (proof, _) = prove_sequent(&seq, &ProverConfig::default()).expect("provable");
    let partition = Partition::with_left([], [spec1.negate()]);
    let theta = interpolate(&proof, &partition).expect("interpolant");
    for v in theta.free_vars() {
        assert_ne!(
            v.as_str(),
            "B",
            "interpolant must not mention the left-only base copy"
        );
        assert_ne!(
            v.as_str(),
            "B2",
            "interpolant must not mention the right-only base copy"
        );
    }
}

#[test]
fn nested_view_semantics_match_direct_computation() {
    let row_ty = Type::prod(Type::Ur, Type::set(Type::Ur));
    let env = TypeEnv::from_pairs([(Name::new("B"), Type::set(row_ty))]);
    let mut gen = NameGen::new();
    let view = flatten_view("B", "V");
    let expr = view.to_nrc(&env, &mut gen).unwrap();
    for seed in 0..10 {
        let inst = keyed_nested_instance(6, 4, seed);
        let out = nested_synth::nrc::eval::eval(&expr, &inst).unwrap();
        assert_eq!(&out, inst.get(&Name::new("V")).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The synthesized partition rewriting is correct on arbitrary base data.
    #[test]
    fn prop_partition_rewriting_correct(size in 1usize..12, seed in 0u64..500) {
        // synthesize once (deterministic), then check against random instances
        use std::sync::OnceLock;
        static REWRITING: OnceLock<WorkloadRewriting> = OnceLock::new();
        let rewriting = REWRITING.get_or_init(|| {
            partition_problem()
                .derive_workload(&SynthesisConfig::default())
                .expect("rewriting exists")
        });
        let base = partition_instance(size, seed);
        prop_assert!(rewriting.verify_on_base(&base).unwrap());
    }

    /// Δ0 negation is semantically complementary on random nested instances.
    #[test]
    fn prop_negation_is_complementary(groups in 1usize..5, seed in 0u64..500) {
        let inst = keyed_nested_instance(groups, 3, seed);
        let mut gen = NameGen::new();
        let row_ty = Type::prod(Type::Ur, Type::set(Type::Ur));
        let formulas = vec![
            d0::key_constraint(&Name::new("B"), &row_ty, &mut gen),
            d0::second_nonempty(&Name::new("B"), &mut gen),
            Formula::exists("v", "V", Formula::eq_ur(Term::proj1(Term::var("v")), Term::proj2(Term::var("v")))),
        ];
        for f in formulas {
            let direct = nested_synth::delta0::eval::eval_formula(&f, &inst).unwrap();
            let negated = nested_synth::delta0::eval::eval_formula(&f.negate(), &inst).unwrap();
            prop_assert_ne!(direct, negated);
        }
    }

    /// Values survive a round trip through the atoms/enumeration helpers: any
    /// enumerated value of a type is well-typed for that type.
    #[test]
    fn prop_enumerated_values_are_well_typed(universe in 1u64..3) {
        let atoms: Vec<_> = (0..universe).map(nested_synth::value::Atom::new).collect();
        for ty in [
            Type::bool(),
            Type::prod(Type::Ur, Type::Ur),
            Type::set(Type::prod(Type::Ur, Type::Ur)),
        ] {
            for v in Value::enumerate(&ty, &atoms) {
                prop_assert!(v.has_type(&ty));
            }
        }
    }
}
