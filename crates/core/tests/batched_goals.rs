//! Batched-goal synthesis ≡ sequential synthesis: collecting the per-depth
//! goals of one run into a single `ProverSession::prove_batch` call (the
//! default) must produce definitions that agree everywhere with the
//! goal-at-a-time oracle (`batch_goals: false`), and must fail identically
//! when a goal is beyond the prover's budgets.

use nrs_delta0::macros as d0;
use nrs_delta0::{Formula, Term};
use nrs_synthesis::views::{partition_instance, partition_problem};
use nrs_synthesis::{synthesize, ImplicitSpec, SynthesisConfig, SynthesisError};
use nrs_value::{Name, NameGen, Type};

fn batched() -> SynthesisConfig {
    SynthesisConfig::default()
}

fn sequential() -> SynthesisConfig {
    SynthesisConfig {
        batch_goals: false,
        ..Default::default()
    }
}

#[test]
fn batched_partition_rewriting_agrees_with_sequential() {
    let problem = partition_problem();
    let spec = problem.workload().expect("well-formed spec").entries()[0]
        .1
        .clone();
    let fast = synthesize(&spec, &batched()).expect("batched mode");
    let oracle = synthesize(&spec, &sequential()).expect("sequential oracle");
    // both definitions answer every instance identically (names of bound
    // variables may differ between the modes, so compare semantically), and
    // the answer is the query Q = S
    for seed in 0..6 {
        let base = partition_instance(6, seed);
        let views = problem.materialize_views(&base).unwrap();
        let answer = fast.evaluate(&views).unwrap();
        assert_eq!(&answer, base.get(&Name::new("S")).unwrap(), "seed {seed}");
        assert_eq!(
            answer,
            oracle.evaluate(&views).unwrap(),
            "answers diverge on seed {seed}"
        );
    }
    assert!(fast
        .report
        .notes
        .iter()
        .any(|n| n.contains("batched") && n.contains("prover call")));
}

#[test]
fn batched_ur_and_product_outputs_agree_with_sequential() {
    // Ur output determined as "the unique member of the singleton input"
    let phi = Formula::and(
        Formula::forall("x", "I", Formula::eq_ur("x", "o")),
        Formula::exists("x", "I", Formula::True),
    );
    let spec = ImplicitSpec {
        formula: phi,
        inputs: vec![(Name::new("I"), Type::set(Type::Ur))],
        auxiliaries: vec![],
        output: (Name::new("o"), Type::Ur),
    };
    let inst = nrs_value::Instance::from_bindings([
        (
            Name::new("I"),
            nrs_value::Value::set([nrs_value::Value::atom(7)]),
        ),
        (Name::new("o"), nrs_value::Value::atom(7)),
    ]);
    for cfg in [batched(), sequential()] {
        let def = synthesize(&spec, &cfg).expect("Ur synthesis");
        assert_eq!(def.check_against(&inst).unwrap(), Some(true));
    }
}

#[test]
fn batched_mode_fails_identically_on_goals_beyond_the_budgets() {
    // A nested output Set(Set(Ur)) defined as the identity on the input: the
    // depth-1 parameter-collection goal is beyond the bounded search, and
    // both modes must agree on (and name) the same failing goal.
    let mut gen = NameGen::new();
    let nested = Type::set(Type::set(Type::Ur));
    let phi = d0::equiv(&nested, &Term::var("O"), &Term::var("I"), &mut gen);
    let spec = ImplicitSpec {
        formula: phi,
        inputs: vec![(Name::new("I"), nested.clone())],
        auxiliaries: vec![],
        output: (Name::new("O"), nested),
    };
    // small budgets keep the refutations fast; both modes share them
    let small = nrs_prover::ProverConfig::quick();
    let configs = [
        SynthesisConfig {
            prover: small.clone(),
            ..batched()
        },
        SynthesisConfig {
            prover: small,
            ..sequential()
        },
    ];
    let errors: Vec<String> = configs
        .iter()
        .map(|cfg| match synthesize(&spec, cfg) {
            Err(SynthesisError::ProofNotFound { purpose, .. }) => purpose,
            other => panic!("expected a proof failure, got {other:?}"),
        })
        .collect();
    assert_eq!(errors[0], errors[1]);
    assert!(errors[0].contains("parameter-collection goal"));
}
