//! The search is pinned: a cold derivation under the default configuration
//! visits the same states, finds the same proofs and emits the same
//! definitions and interpolants, byte for byte.
//!
//! Speed-ups of the prover, the sequent representation and the assembly
//! phase must not change a single search step.  Proof search is sequential
//! (one worker, one goal at a time), so the visited-state counts and proof
//! sizes are exact, and `search_pin.txt` holds every definition,
//! interpolant and parameter-collection θ as the pipeline printed them
//! before those speed-ups.
//!
//! The product-output sections pin the definitions and proof sizes of the
//! two fixtures in `fixtures/mod.rs`; their visited-state counts may only
//! fall.  Partition and `overlapping(8)` also pin their work counters: the
//! pairs the congruence joins enumerate and skip, and the hits and misses
//! of the failure memo and the rewrite cache.

mod fixtures;

use nrs_synthesis::views::partition_problem;
use nrs_synthesis::{
    overlapping_workload_problem, ImplicitSpec, InterpolantKind, Name, SynthesisConfig,
    SynthesizedDefinition, Synthesizer, Workload, WorkloadProblem,
};

/// The checked-in definition, θ and interpolant lines, one `== <problem>`
/// section per problem.
const EXPECTED: &str = include_str!("search_pin.txt");

/// The definition, θ and interpolant lines of every definition.
fn pin_lines(defs: &[(Name, SynthesizedDefinition)]) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, def) in defs {
        lines.push(format!("{name} := {}", def.expr()));
        for (depth, theta) in &def.report.collections {
            lines.push(format!(
                "{name}: parameter collection at depth {depth}: θ = {theta}"
            ));
        }
        for (kind, kappa) in &def.report.interpolants {
            let kind = match kind {
                InterpolantKind::Ur => "Ur-output",
                InterpolantKind::Membership => "membership",
            };
            lines.push(format!("{name}: {kind} interpolant: {kappa}"));
        }
    }
    lines
}

/// Derive `problem` cold: (visited states, proof sizes, the definition and
/// interpolant lines of every query).
fn derive(problem: &WorkloadProblem) -> (usize, Vec<usize>, Vec<String>) {
    let rw = problem
        .derive_workload(&SynthesisConfig::default())
        .expect("the problem derives");
    let report = &rw.report().synthesis;
    (
        report.states_visited,
        report.proof_sizes.clone(),
        pin_lines(rw.queries()),
    )
}

/// Synthesize `spec` cold, as the one entry `P` of a workload: (visited
/// states, proof sizes, pinned lines).
fn derive_spec(spec: ImplicitSpec) -> (usize, Vec<usize>, Vec<String>) {
    let run = Synthesizer::new()
        .synthesize_workload(&Workload::new().with_entry("P", spec))
        .expect("the spec synthesizes");
    let report = &run.report.synthesis;
    (
        report.states_visited,
        report.proof_sizes.clone(),
        pin_lines(&run.definitions),
    )
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
    // `ProverConfig::default()`, through a held default synthesizer, reads
    // the pinned count too: the default is the measured configuration
    let rw = Synthesizer::new()
        .derive_workload(&partition_problem())
        .expect("the problem derives");
    assert_eq!(rw.report().synthesis.states_visited, 4874);
}

#[test]
fn overlapping_workload_search_is_pinned() {
    let (visited, sizes, lines) = derive(&overlapping_workload_problem(8));
    assert_eq!(visited, 7115);
    assert_eq!(sizes, [121, 84, 52]);
    assert_lines("overlapping(8)", &lines);
}

/// The work counters of a cold derivation of `problem`: (inequality,
/// literal) pairs the congruence joins enumerated and the pairs their
/// variable filters skipped, failure-memo hits and misses, and
/// rewrite-cache hits and misses.
fn work_counters(problem: &WorkloadProblem) -> [usize; 6] {
    let rw = problem
        .derive_workload(&SynthesisConfig::default())
        .expect("the problem derives");
    let m = &rw.report().synthesis.metrics;
    [
        m.occ_join_pairs,
        m.occ_join_pruned,
        m.memo_hits,
        m.memo_misses,
        m.rewrite_cache_hits,
        m.rewrite_cache_misses,
    ]
}

/// The joins select the same literals and the caches answer the same
/// probes, not only the same visited states: these counters repeat exactly
/// because the search is sequential.
#[test]
fn partition_work_counters_are_pinned() {
    assert_eq!(
        work_counters(&partition_problem()),
        [24_024, 80_229, 473, 2_123, 20_506, 1_185]
    );
}

#[test]
fn overlapping_workload_work_counters_are_pinned() {
    assert_eq!(
        work_counters(&overlapping_workload_problem(8)),
        [36_647, 122_647, 603, 3_246, 31_621, 1_564]
    );
}

#[test]
fn ur_and_set_product_search_is_pinned() {
    let (visited, sizes, lines) = derive_spec(fixtures::ur_and_set_spec());
    assert!(visited <= 31, "visited {visited} states");
    assert_eq!(sizes, [12, 19]);
    assert_lines("product Ur x Set(Ur)", &lines);
}

#[test]
fn ur_unit_ur_product_search_is_pinned() {
    let (visited, sizes, lines) = derive_spec(fixtures::ur_unit_ur_spec());
    assert!(visited <= 32, "visited {visited} states");
    assert_eq!(sizes, [15, 17]);
    assert_lines("product Ur x (Unit x Ur)", &lines);
}

/// The top-level determinacy goal implies the components' determinacy, so a
/// product output proves it once.  The bound 87 is the search of the
/// recursive synthesizer, which proved determinacy again for every product
/// component.  `Ur × Set(Ur)`'s top-level determinacy goal is beyond the
/// default budget, so that fixture is pinned under the default config only.
#[test]
fn product_determinacy_is_proved_once() {
    let cfg = SynthesisConfig {
        check_determinacy: true,
        ..SynthesisConfig::default()
    };
    let run = Synthesizer::with_config(cfg)
        .synthesize_workload(&Workload::new().with_entry("P", fixtures::ur_unit_ur_spec()))
        .expect("the spec synthesizes");
    let report = &run.report.synthesis;
    let determinacy = report
        .metrics
        .per_goal
        .iter()
        .filter(|g| g.purpose.contains("determinacy"))
        .count();
    assert_eq!(determinacy, 1, "{:?}", report.metrics.per_goal);
    assert_eq!(report.goals_proved, 3);
    assert!(
        report.states_visited <= 87,
        "visited {} states",
        report.states_visited
    );
    // the definition is the one pinned under the default config
    assert_eq!(
        pin_lines(&run.definitions)[0],
        expected("product Ur x (Unit x Ur)")[0]
    );
}
