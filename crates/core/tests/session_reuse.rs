//! Cross-goal prover-session reuse on the E2 (partition rewriting) spec:
//!
//! * re-proving a goal through a warm session replays the identical proof
//!   from the goal-outcome cache without searching, and the session's
//!   rewrite-candidate cache persists (and is hit) across `prove_batch`
//!   calls.
//!
//! * synthesis through a session shared across runs matches synthesis
//!   through a cold session, and searches no more.
//!
//! Shared-batch proving against per-goal cold proving is checked by
//! `workload::tests::shared_batch_matches_cold_goal_by_goal_proving`.
//!
//! Proof search is sequential, so the search counters the tests compare
//! between two runs are exact.

use nrs_delta0::macros as d0;
use nrs_delta0::{InContext, Term};
use nrs_proof::{check_proof, Sequent};
use nrs_prover::{ProverConfig, ProverSession};
use nrs_synthesis::views::{partition_instance, partition_problem};
use nrs_synthesis::{SynthesisConfig, Synthesizer};
use nrs_value::NameGen;

/// The determinacy sequent of the E2 partition spec: `φ ∧ φ' ⊢ Q ≡ Q'`.
fn e2_determinacy_sequent() -> Sequent {
    let workload = partition_problem().workload().expect("well-formed spec");
    let spec = &workload.entries()[0].1;
    let mut gen = NameGen::new();
    let (phi_primed, primed_out, _) = spec.primed();
    let goal = d0::equiv(
        &spec.output.1,
        &Term::Var(spec.output.0),
        &Term::Var(primed_out),
        &mut gen,
    );
    Sequent::two_sided(InContext::new(), [spec.formula.clone(), phi_primed], [goal])
}

#[test]
fn cross_goal_memo_reuse_strictly_reduces_visited_states() {
    let seq = e2_determinacy_sequent();
    let session = ProverSession::new(ProverConfig::default());
    let (p1, s1) = session.prove_sequent(&seq).expect("determinacy provable");
    let (p2, s2) = session.prove_sequent(&seq).expect("still provable warm");
    assert!(check_proof(&p1).is_ok() && check_proof(&p2).is_ok());
    assert!(s1.risky_level > 0, "determinacy requires risky search");
    assert_eq!(p1, p2, "the warm session replays the identical proof");
    assert_eq!(
        s2.visited, 0,
        "a settled goal replays from the goal-outcome cache without searching"
    );
    assert_eq!(s2.goal_cache_hits, 1);
    // the failure memo (populated by the cold run's refuted deepening
    // levels) and the settled-goal outcome both survive in the session
    assert!(session.memo_len() > 0);
    assert_eq!(session.goal_cache_len(), 1);
}

#[test]
fn rewrite_candidate_cache_persists_across_batches() {
    let seq = e2_determinacy_sequent();
    let session = ProverSession::new(ProverConfig::default());
    let first = session.prove_batch(std::slice::from_ref(&seq));
    let (_, s1) = first[0].as_ref().expect("determinacy provable");
    assert!(
        s1.rewrite_cache_hits > 0,
        "the ≠-candidate cache must be hit within a single E2 search"
    );
    let cached = session.rewrite_cache_len();
    assert!(cached > 0, "the cold batch populates the candidate cache");
    // A second fresh session reproduces the same hit profile (the cache is
    // deterministic), while the original warm session replays the settled
    // goal without disturbing its persisted entries.
    let session2 = ProverSession::new(ProverConfig::default());
    let cold = session2.prove_batch(std::slice::from_ref(&seq));
    let (_, c1) = cold[0].as_ref().expect("provable");
    assert_eq!(
        s1.rewrite_cache_hits, c1.rewrite_cache_hits,
        "fresh sessions behave identically"
    );
    let second = session.prove_batch(std::slice::from_ref(&seq));
    let (_, s2) = second[0].as_ref().expect("still provable");
    assert_eq!(s2.goal_cache_hits, 1, "same goal replays");
    assert_eq!(
        session.rewrite_cache_len(),
        cached,
        "replaying does not disturb the persisted candidate cache"
    );
}

#[test]
fn shared_session_synthesis_matches_cold_synthesis() {
    let problem = partition_problem();
    let cfg = SynthesisConfig {
        check_determinacy: true,
        ..SynthesisConfig::default()
    };
    // one session carried from a first derivation into the second
    let session = ProverSession::new(cfg.prover.clone());
    let synth = Synthesizer::with_session(cfg.clone(), session);
    synth
        .derive_workload(&problem)
        .expect("first shared run ok");
    let shared = synth.derive_workload(&problem).expect("shared ok");
    let cold = problem.derive_workload(&cfg).expect("cold ok");
    let (shared_report, cold_report) = (&shared.report().synthesis, &cold.report().synthesis);
    assert_eq!(shared_report.goals_proved, cold_report.goals_proved);
    assert!(
        shared_report.states_visited <= cold_report.states_visited,
        "session sharing must not search more ({} vs {})",
        shared_report.states_visited,
        cold_report.states_visited
    );
    for ((_, a), (_, b)) in shared.queries().iter().zip(cold.queries()) {
        assert_eq!(a.expr(), b.expr(), "shared and cold sessions agree");
    }
    for seed in 0..6 {
        let base = partition_instance(6, seed);
        assert!(shared.verify_on_base(&base).unwrap(), "shared, seed {seed}");
        assert!(cold.verify_on_base(&base).unwrap(), "cold, seed {seed}");
    }
}

#[test]
fn e2_membership_goal_hits_the_rewrite_candidate_cache() {
    let result = partition_problem()
        .derive_workload(&SynthesisConfig::default())
        .expect("rewriting");
    let goal = result.queries()[0]
        .1
        .report
        .metrics
        .per_goal
        .iter()
        .find(|g| g.purpose.contains("membership interpolation goal"))
        .expect("membership goal records prover stats");
    assert!(
        goal.stats.rewrite_cache_hits > 0,
        "the ≠-candidate cache must be hit on the membership goal: {:?}",
        goal.stats
    );
}
