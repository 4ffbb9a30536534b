//! Oracle equivalence on synthesized rewritings (the E2/E5 scenarios).
//!
//! Every expression `core::synthesis` emits for the partition and union-split
//! scenarios is evaluated both by the naive NRC evaluator (the oracle) and by
//! the optimizing plan pipeline, over randomly generated base instances; the
//! results must be byte-identical.

use nrs_delta0::macros as d0;
use nrs_delta0::{Formula, Term};
use nrs_nrc::eval::eval;
use nrs_synthesis::views::{partition_instance, partition_problem};
use nrs_synthesis::{synthesize, ImplicitSpec, SynthesisConfig, WorkloadRewriting};
use nrs_value::generate::GenConfig;
use nrs_value::{Instance, Name, NameGen, Type};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The E5 rewriting, synthesized once per test process (proof search is the
/// expensive part; the equivalence cases then reuse it).
fn partition_rewriting() -> &'static WorkloadRewriting {
    static CELL: OnceLock<WorkloadRewriting> = OnceLock::new();
    CELL.get_or_init(|| {
        partition_problem()
            .derive_workload(&SynthesisConfig::default())
            .expect("partition rewriting synthesizes")
    })
}

/// The E2 union-split definition (same specification family as the synthesis
/// unit tests), synthesized once.
fn union_split_definition() -> &'static nrs_synthesis::SynthesizedDefinition {
    static CELL: OnceLock<nrs_synthesis::SynthesizedDefinition> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut gen = NameGen::new();
        let ur = Type::Ur;
        let in_f =
            |x: &str, g: &mut NameGen| d0::member_hat(&ur, &Term::var(x), &Term::var("F"), g);
        let view = |vname: &str, positive: bool, gen: &mut NameGen| {
            let filt = if positive {
                in_f("x", gen)
            } else {
                in_f("x", gen).negate()
            };
            let sound = Formula::forall(
                "zv",
                Term::var(vname),
                Formula::exists(
                    "x",
                    "S",
                    Formula::and(filt.clone(), Formula::eq_ur("zv", "x")),
                ),
            );
            let complete = Formula::forall(
                "x",
                "S",
                d0::implies(
                    filt,
                    d0::member_hat(&ur, &Term::var("x"), &Term::var(vname), gen),
                ),
            );
            Formula::and(sound, complete)
        };
        let formula = Formula::and(view("V1", true, &mut gen), view("V2", false, &mut gen));
        let spec = ImplicitSpec {
            formula,
            inputs: vec![
                (Name::new("V1"), Type::set(Type::Ur)),
                (Name::new("V2"), Type::set(Type::Ur)),
            ],
            auxiliaries: vec![(Name::new("F"), Type::set(Type::Ur))],
            output: (Name::new("S"), Type::set(Type::Ur)),
        };
        synthesize(&spec, &SynthesisConfig::default()).expect("union-split synthesizes")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// E5: the synthesized partition rewriting — optimized ≡ naive on the
    /// materialized views of random bases.
    #[test]
    fn prop_partition_rewriting_agrees(size in 1usize..40, seed in 0u64..10_000) {
        let rewriting = partition_rewriting();
        let base = partition_instance(size, seed);
        let views = rewriting.problem.materialize_views(&base).unwrap();
        let definition = &rewriting.queries()[0].1;
        let optimized = definition.evaluate(&views).unwrap();
        let naive = definition.evaluate_naive(&views).unwrap();
        prop_assert_eq!(&optimized, &naive);
        // and both answer the query: Q = S restricted to what the views carry
        let direct = eval(
            &nrs_nrc::Expr::var("S"),
            &base,
        ).unwrap();
        prop_assert_eq!(optimized, direct);
    }

    /// E2: the union-split definition — optimized ≡ naive on satisfying and
    /// arbitrary view instances alike.
    #[test]
    fn prop_union_split_agrees(seed in 0u64..10_000) {
        let def = union_split_definition();
        let cfg = GenConfig { universe: 8, max_set_size: 5, seed };
        let s = nrs_value::generate::random_value(&Type::set(Type::Ur), &cfg);
        let f = nrs_value::generate::random_value(
            &Type::set(Type::Ur),
            &GenConfig { seed: seed ^ 0xABCD, ..cfg },
        );
        let v1 = s.intersection(&f).unwrap();
        let v2 = s.difference(&f).unwrap();
        let inst = Instance::from_bindings([
            (Name::new("S"), s),
            (Name::new("F"), f),
            (Name::new("V1"), v1),
            (Name::new("V2"), v2),
        ]);
        let optimized = def.evaluate(&inst).unwrap();
        let naive = def.evaluate_naive(&inst).unwrap();
        prop_assert_eq!(&optimized, &naive);
        prop_assert_eq!(&optimized, inst.get(&Name::new("S")).unwrap());
    }
}
