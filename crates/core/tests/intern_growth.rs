//! Interned syntax nodes are immortal, so the intern tables must stop
//! growing once a process has derived its problems: re-deriving the same
//! mix cold builds only formulas, terms and contexts that already exist.
//!
//! The mix is the benchmark's synthesis mix: partition with 0, 1 and 2
//! redundant constraints, and the overlapping workloads of 4 and 8 queries.
//! Each derivation runs in a fresh `Synthesizer` (nothing is replayed from
//! a cache) with sequential branch search.
//!
//! This binary holds a single test: the tables are process-wide, and any
//! other test running next to it would add nodes of its own.

use nrs_delta0::{interned_nodes, Formula, InContext, Term};
use nrs_prover::ProverConfig;
use nrs_synthesis::views::partition_problem;
use nrs_synthesis::{overlapping_workload_problem, SynthesisConfig, Synthesizer, WorkloadProblem};

fn mix() -> Vec<WorkloadProblem> {
    let mut problems: Vec<WorkloadProblem> = (0..3)
        .map(|copies| {
            let mut problem = partition_problem();
            for i in 0..copies {
                let x = format!("x{i}");
                problem.constraints.push(Formula::forall(
                    x.as_str(),
                    "S",
                    Formula::eq_ur(x.as_str(), x.as_str()),
                ));
            }
            problem
        })
        .collect();
    problems.extend([4, 8].map(overlapping_workload_problem));
    problems
}

/// Derive every problem of the mix cold.
fn derive_mix() {
    let cfg = SynthesisConfig {
        prover: ProverConfig {
            parallel_branches: false,
            ..ProverConfig::default()
        },
        ..SynthesisConfig::default()
    };
    for problem in mix() {
        Synthesizer::with_config(cfg.clone())
            .derive_workload(&problem)
            .expect("the problem derives");
    }
}

/// Interned formulas, terms and contexts.
fn nodes() -> [usize; 3] {
    [
        interned_nodes::<Formula>(),
        interned_nodes::<Term>(),
        InContext::interned_count(),
    ]
}

#[test]
fn rederiving_the_mix_interns_no_new_node() {
    derive_mix();
    let first = nodes();
    eprintln!("after one pass: {first:?} formula/term/context nodes");
    derive_mix();
    derive_mix();
    assert_eq!(
        nodes(),
        first,
        "re-deriving the mix interned new formula/term/context nodes"
    );
}
