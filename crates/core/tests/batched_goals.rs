//! Batched-goal synthesis against ground truth: every goal of a run is
//! proved in one `ProverSession::prove_batch` call.  The definitions must
//! answer the query on the base and agree byte for byte with the
//! definitions `search_pin.txt` pins for the sequential search, and a goal
//! beyond the prover's budgets must be named as the failing goal.

mod fixtures;

use nrs_delta0::macros as d0;
use nrs_delta0::{Formula, Term};
use nrs_prover::ProverConfig;
use nrs_synthesis::views::{partition_instance, partition_problem};
use nrs_synthesis::{synthesize, ImplicitSpec, SynthesisConfig, SynthesisError};
use nrs_value::{Instance, Name, NameGen, Type, Value};

/// The pinned definition of one section of `search_pin.txt` (its first
/// line, with the entry name stripped).
fn pinned_definition(section: &str) -> &'static str {
    let header = format!("== {section}");
    let line = include_str!("search_pin.txt")
        .lines()
        .skip_while(|l| *l != header)
        .nth(1)
        .expect("pinned section");
    line.split_once(" := ").expect("definition line").1
}

#[test]
fn batched_partition_rewriting_agrees_with_sequential() {
    let problem = partition_problem();
    let spec = problem.workload().expect("well-formed spec").entries()[0]
        .1
        .clone();
    let def = synthesize(&spec, &SynthesisConfig::default()).expect("batched synthesis");
    assert_eq!(def.expr().to_string(), pinned_definition("partition"));
    // the rewriting answers the query Q = S from the views
    for seed in 0..6 {
        let base = partition_instance(6, seed);
        let views = problem.materialize_views(&base).unwrap();
        let answer = def.evaluate(&views).unwrap();
        assert_eq!(&answer, base.get(&Name::new("S")).unwrap(), "seed {seed}");
    }
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
    let inst = Instance::from_bindings([
        (Name::new("I"), Value::set([Value::atom(7)])),
        (Name::new("o"), Value::atom(7)),
    ]);
    let def = synthesize(&spec, &SynthesisConfig::default()).expect("Ur synthesis");
    assert_eq!(def.check_against(&inst).unwrap(), Some(true));

    // product outputs: the pinned definitions, checked on a satisfying
    // instance (I = {7})
    let atoms = |ns: &[u64]| Value::set(ns.iter().map(|&n| Value::atom(n)));
    let cases = [
        (
            fixtures::ur_and_set_spec(),
            "product Ur x Set(Ur)",
            atoms(&[1, 2]),
            Value::pair(Value::atom(7), atoms(&[1, 2])),
        ),
        (
            fixtures::ur_unit_ur_spec(),
            "product Ur x (Unit x Ur)",
            atoms(&[1]),
            Value::pair(Value::atom(7), Value::pair(Value::Unit, Value::atom(1))),
        ),
    ];
    for (spec, section, j, o) in cases {
        let def = synthesize(&spec, &SynthesisConfig::default()).expect("product synthesis");
        assert_eq!(def.expr().to_string(), pinned_definition(section));
        let inst = Instance::from_bindings([
            (Name::new("I"), atoms(&[7])),
            (Name::new("J"), j),
            (Name::new("o"), o),
        ]);
        assert_eq!(def.check_against(&inst).unwrap(), Some(true), "{section}");
    }
}

#[test]
fn batched_mode_fails_identically_on_goals_beyond_the_budgets() {
    // A nested output Set(Set(Ur)) defined as the identity on the input: the
    // depth-1 parameter-collection goal is beyond the bounded search, and
    // the batch names it as the failing goal.
    let mut gen = NameGen::new();
    let nested = Type::set(Type::set(Type::Ur));
    let phi = d0::equiv(&nested, &Term::var("O"), &Term::var("I"), &mut gen);
    let spec = ImplicitSpec {
        formula: phi,
        inputs: vec![(Name::new("I"), nested.clone())],
        auxiliaries: vec![],
        output: (Name::new("O"), nested),
    };
    // small budgets keep the refutations fast
    let cfg = SynthesisConfig {
        prover: ProverConfig::quick(),
        ..SynthesisConfig::default()
    };
    let purpose = match synthesize(&spec, &cfg) {
        Err(SynthesisError::ProofNotFound { purpose, .. }) => purpose,
        other => panic!("expected a proof failure, got {other:?}"),
    };
    assert!(
        purpose.contains("parameter-collection goal at nesting depth 1"),
        "{purpose}"
    );
}
