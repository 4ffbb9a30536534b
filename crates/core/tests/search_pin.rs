//! The search is pinned: a cold derivation with a sequential prover visits
//! the same states, finds the same proofs and emits the same definitions
//! and interpolants, byte for byte.
//!
//! Speed-ups of the prover, the sequent representation and the assembly
//! phase must not change a single search step.  The visited-state counts and
//! proof sizes are exact under `parallel_branches: false` (one worker, one
//! goal at a time), and `search_pin.txt` holds every definition and
//! interpolant note as the pipeline printed them before those speed-ups.

use nrs_prover::ProverConfig;
use nrs_synthesis::views::partition_problem;
use nrs_synthesis::{overlapping_workload_problem, SynthesisConfig, WorkloadProblem};

/// The checked-in definitions and interpolant notes, one `== <problem>`
/// section per problem.
const EXPECTED: &str = include_str!("search_pin.txt");

/// Derive `problem` cold with a sequential prover: (visited states, proof
/// sizes, the definition and interpolant lines of every query).
fn derive(problem: &WorkloadProblem) -> (usize, Vec<usize>, Vec<String>) {
    let cfg = SynthesisConfig {
        prover: ProverConfig {
            parallel_branches: false,
            ..ProverConfig::default()
        },
        ..SynthesisConfig::default()
    };
    let rw = problem.derive_workload(&cfg).expect("the problem derives");
    let mut lines = Vec::new();
    for (name, def) in rw.queries() {
        lines.push(format!("{name} := {}", def.expr()));
        for note in &def.report.notes {
            if note.contains("interpolant") || note.contains("θ =") {
                lines.push(format!("{name}: {note}"));
            }
        }
    }
    let report = &rw.report().synthesis;
    (report.states_visited, report.proof_sizes.clone(), lines)
}

/// The checked-in lines of one section of [`EXPECTED`].
fn expected(section: &str) -> Vec<&'static str> {
    let header = format!("== {section}");
    EXPECTED
        .lines()
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with("== "))
        .collect()
}

fn assert_lines(section: &str, got: &[String]) {
    let want = expected(section);
    assert!(!want.is_empty(), "no checked-in section {section}");
    assert_eq!(got.len(), want.len(), "{section}: line count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w, "{section}");
    }
}

#[test]
fn partition_search_is_pinned() {
    let (visited, sizes, lines) = derive(&partition_problem());
    assert_eq!(visited, 4874);
    assert_eq!(sizes, [121]);
    assert_lines("partition", &lines);
}

#[test]
fn overlapping_workload_search_is_pinned() {
    let (visited, sizes, lines) = derive(&overlapping_workload_problem(8));
    assert_eq!(visited, 7115);
    assert_eq!(sizes, [121, 84, 52]);
    assert_lines("overlapping(8)", &lines);
}
