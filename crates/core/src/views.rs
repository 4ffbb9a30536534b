//! The standard view-rewriting problems (Corollary 3) used across tests,
//! examples and benches, with base-instance generators for each.
//!
//! Every problem is a one-query [`WorkloadProblem`]: a single query is the
//! length-1 case of the workload pipeline, from rewriting synthesis
//! ([`WorkloadProblem::derive_workload`]) through maintenance
//! ([`MaintainedWorkload`](crate::ivm::MaintainedWorkload)) to serving.

use crate::workload::WorkloadProblem;
use nrs_delta0::macros as d0;
use nrs_nrc::spec::ViewDef;
use nrs_value::{Instance, Name, NameGen, Type, Value};

/// The "partition" rewriting problem: base `S : Set(𝔘)` and `F : Set(𝔘)`, views `V1 = S ∩ F`, `V2 = S \ F`
/// (written as comprehensions), query `Q = S`.  The expected rewriting is
/// `V1 ∪ V2` up to equivalence.
pub fn partition_problem() -> WorkloadProblem {
    use nrs_delta0::Term;
    use nrs_nrc::spec::{GenExpr, Generator};
    let mut gen = NameGen::new();
    let in_f = d0::member_hat(&Type::Ur, &Term::var("gx"), &Term::var("F"), &mut gen);
    let v1 = ViewDef::new(
        "V1",
        GenExpr::comprehension(
            vec![Generator::new("gx", Term::var("S"))],
            in_f.clone(),
            Term::var("gx"),
        ),
    );
    let v2 = ViewDef::new(
        "V2",
        GenExpr::comprehension(
            vec![Generator::new("gx", Term::var("S"))],
            in_f.negate(),
            Term::var("gx"),
        ),
    );
    let query = ViewDef::new(
        "Q",
        GenExpr::collect(vec![Generator::new("gq", Term::var("S"))], Term::var("gq")),
    );
    WorkloadProblem {
        base: vec![
            (Name::new("S"), Type::set(Type::Ur)),
            (Name::new("F"), Type::set(Type::Ur)),
        ],
        views: vec![v1, v2],
        constraints: vec![],
        queries: vec![query],
    }
}

/// The lossless key-based decomposition problem: base
/// `R : Set(𝔘 × (𝔘 × 𝔘))` whose first component is a key, views
/// `V1 = {⟨π1 r, π1 π2 r⟩ | r ∈ R}` and `V2 = {⟨π1 r, π2 π2 r⟩ | r ∈ R}`,
/// query `Q = R`.  The classical lossless-join scenario: the rewriting joins
/// the two views on the key.
pub fn lossless_join_problem() -> WorkloadProblem {
    use nrs_delta0::Term;
    use nrs_nrc::spec::{GenExpr, Generator};
    let mut gen = NameGen::new();
    let row = Type::prod(Type::Ur, Type::prod(Type::Ur, Type::Ur));
    let v1 = ViewDef::new(
        "V1",
        GenExpr::collect(
            vec![Generator::new("r", Term::var("R"))],
            Term::pair(
                Term::proj1(Term::var("r")),
                Term::proj1(Term::proj2(Term::var("r"))),
            ),
        ),
    );
    let v2 = ViewDef::new(
        "V2",
        GenExpr::collect(
            vec![Generator::new("r", Term::var("R"))],
            Term::pair(
                Term::proj1(Term::var("r")),
                Term::proj2(Term::proj2(Term::var("r"))),
            ),
        ),
    );
    let query = ViewDef::new(
        "Q",
        GenExpr::collect(vec![Generator::new("q", Term::var("R"))], Term::var("q")),
    );
    WorkloadProblem {
        base: vec![(Name::new("R"), Type::set(row.clone()))],
        views: vec![v1, v2],
        constraints: vec![d0::key_constraint(&Name::new("R"), &row, &mut gen)],
        queries: vec![query],
    }
}

/// A keyed base instance for [`lossless_join_problem`]: `rows` rows with
/// distinct keys over a small payload universe.
pub fn lossless_join_instance(rows: usize, seed: u64) -> Instance {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut set = std::collections::BTreeSet::new();
    for k in 0..rows {
        let a = rng.gen_range(0..(rows as u64 * 2 + 2));
        let b = rng.gen_range(0..(rows as u64 * 2 + 2));
        set.insert(Value::pair(
            Value::atom(1000 + k as u64),
            Value::pair(Value::atom(a), Value::atom(b)),
        ));
    }
    Instance::from_bindings([(Name::new("R"), Value::from_set(set))])
}

/// A base instance for [`partition_problem`].
pub fn partition_instance(size: usize, seed: u64) -> Instance {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let universe = (size as u64 * 2).max(4);
    let s: std::collections::BTreeSet<Value> = (0..size)
        .map(|_| Value::atom(rng.gen_range(0..universe)))
        .collect();
    let f: std::collections::BTreeSet<Value> = (0..size)
        .map(|_| Value::atom(rng.gen_range(0..universe)))
        .collect();
    Instance::from_bindings([
        (Name::new("S"), Value::from_set(s)),
        (Name::new("F"), Value::from_set(f)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::SynthesisConfig;
    use nrs_prover::ProverConfig;

    #[test]
    fn partition_views_determine_and_rewrite_the_query() {
        let problem = partition_problem();
        let cfg = SynthesisConfig {
            check_determinacy: true,
            ..Default::default()
        };
        let result = problem.derive_workload(&cfg).expect("rewriting exists");
        let (name, definition) = &result.queries()[0];
        assert_eq!(name, &Name::new("Q"));
        // the rewriting only mentions the views
        for v in definition.expr().free_vars() {
            assert!(["V1", "V2"].contains(&v.as_str()));
        }
        for seed in 0..8 {
            let base = partition_instance(6, seed);
            assert!(result.verify_on_base(&base).unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn materialization_binds_views_and_query() {
        let problem = partition_problem();
        let base = partition_instance(5, 3);
        let views = problem.materialize_views(&base).unwrap();
        assert!(views.contains(&Name::new("V1")));
        assert!(views.contains(&Name::new("V2")));
        assert!(!views.contains(&Name::new("Q")));
        // V1 and V2 partition S
        let s = base.get(&Name::new("S")).unwrap();
        let v1 = views.get(&Name::new("V1")).unwrap();
        let v2 = views.get(&Name::new("V2")).unwrap();
        assert_eq!(&v1.union(v2).unwrap(), s);
        assert_eq!(v1.intersection(v2).unwrap(), Value::empty_set());
    }

    #[test]
    #[ignore = "expensive: the lossless-join goals take tens of seconds of proof search"]
    fn lossless_join_rewriting_is_correct() {
        let problem = lossless_join_problem();
        let cfg = SynthesisConfig {
            prover: ProverConfig {
                max_states: 4_000_000,
                ..ProverConfig::default()
            },
            check_determinacy: false,
        };
        let result = problem.derive_workload(&cfg).expect("rewriting exists");
        for seed in 0..3 {
            let base = lossless_join_instance(4, seed);
            assert!(result.verify_on_base(&base).unwrap(), "seed {seed}");
        }
    }
}
