//! The [`Synthesizer`] facade: one owner for the prover session, the FOL
//! session and the synthesis configuration.
//!
//! Every run goes through one path: a [`Workload`] is planned into one
//! deduplicated goal batch, proved in one
//! [`ProverSession::prove_batch`] call, and assembled.  A single spec is the
//! one-entry workload, and a [`WorkloadProblem`] builds its workload from the
//! views and queries.  The builder owns the session and the configuration
//! (the prover budgets and whether to check determinacy), so any number of
//! specs, workloads or rewriting problems run through the same warm state.
//!
//! ```no_run
//! use nrs_synthesis::{Synthesizer, Workload};
//! # fn spec() -> nrs_synthesis::ImplicitSpec { unimplemented!() }
//! let synth = Synthesizer::new().check_determinacy(true);
//! let one = synth.synthesize(&spec()).unwrap();
//! let many = synth
//!     .synthesize_workload(&Workload::new().with_entry("q", spec()))
//!     .unwrap();
//! ```

use crate::synthesis::{ImplicitSpec, SynthesisConfig, SynthesisError, SynthesizedDefinition};
use crate::workload::{
    synthesize_in_session, Workload, WorkloadProblem, WorkloadRewriting, WorkloadSynthesis,
};
use nrs_fol::{FoProverConfig, FolSession};
use nrs_prover::{ProverConfig, ProverSession};
use std::sync::OnceLock;

/// A session-owning synthesis facade: holds the [`SynthesisConfig`], the
/// shared [`ProverSession`] every run warms, and a lazily created
/// [`FolSession`] for first-order side goals.
///
/// All knob methods consume and return the builder; methods that change the
/// prover budgets rebuild the session (memo entries are only valid for the
/// budgets they were recorded under).
#[derive(Debug)]
pub struct Synthesizer {
    cfg: SynthesisConfig,
    session: ProverSession,
    fol: OnceLock<FolSession>,
}

impl Default for Synthesizer {
    fn default() -> Synthesizer {
        Synthesizer::new()
    }
}

impl Clone for Synthesizer {
    /// Cloning shares the warm sessions (both are internally `Arc`-backed):
    /// a clone benefits from — and contributes to — the same memos.
    fn clone(&self) -> Synthesizer {
        Synthesizer {
            cfg: self.cfg.clone(),
            session: self.session.clone(),
            fol: match self.fol.get() {
                Some(s) => {
                    let lock = OnceLock::new();
                    let _ = lock.set(s.clone());
                    lock
                }
                None => OnceLock::new(),
            },
        }
    }
}

impl Synthesizer {
    /// A synthesizer with the default configuration and a fresh session.
    pub fn new() -> Synthesizer {
        Synthesizer::with_config(SynthesisConfig::default())
    }

    /// A synthesizer over an explicit configuration; the session is created
    /// from `cfg.prover`.
    pub fn with_config(cfg: SynthesisConfig) -> Synthesizer {
        let session = ProverSession::new(cfg.prover.clone());
        Synthesizer {
            cfg,
            session,
            fol: OnceLock::new(),
        }
    }

    /// A synthesizer adopting a caller-owned warm session.  The session's
    /// budgets take precedence: `cfg.prover` is overwritten with the
    /// session's config so the two can never disagree.
    pub fn with_session(mut cfg: SynthesisConfig, session: ProverSession) -> Synthesizer {
        cfg.prover = session.config().clone();
        Synthesizer {
            cfg,
            session,
            fol: OnceLock::new(),
        }
    }

    /// Set the prover budgets (rebuilds the session — existing memo entries
    /// are only valid for the budgets they were recorded under).
    pub fn prover(mut self, prover: ProverConfig) -> Synthesizer {
        self.cfg.prover = prover.clone();
        self.session = ProverSession::new(prover);
        self
    }

    /// Establish the top-level determinacy entailment before synthesizing.
    pub fn check_determinacy(mut self, yes: bool) -> Synthesizer {
        self.cfg.check_determinacy = yes;
        self
    }

    /// The current configuration.
    pub fn config(&self) -> &SynthesisConfig {
        &self.cfg
    }

    /// The shared prover session (cloning it shares the memos).
    pub fn session(&self) -> &ProverSession {
        &self.session
    }

    /// The lazily created first-order session, for callers discharging FOL
    /// side goals alongside synthesis.
    pub fn fol_session(&self) -> &FolSession {
        self.fol
            .get_or_init(|| FolSession::new(FoProverConfig::default()))
    }

    /// Synthesize one implicit spec (Theorem 2) through the warm session, as
    /// the one-entry workload named after its output.
    pub fn synthesize(&self, spec: &ImplicitSpec) -> Result<SynthesizedDefinition, SynthesisError> {
        let workload = Workload::new().with_entry(spec.output.0, spec.clone());
        let mut run = self.synthesize_workload(&workload)?;
        Ok(run.definitions.swap_remove(0).1)
    }

    /// Synthesize a whole [`Workload`] through one deduplicated goal batch
    /// and the warm session.
    pub fn synthesize_workload(
        &self,
        workload: &Workload,
    ) -> Result<WorkloadSynthesis, SynthesisError> {
        synthesize_in_session(workload, &self.cfg, &self.session)
    }

    /// Derive the view rewritings of a [`WorkloadProblem`] (Corollary 3) with
    /// a shared view set; a single query is a one-query problem.
    pub fn derive_workload(
        &self,
        problem: &WorkloadProblem,
    ) -> Result<WorkloadRewriting, SynthesisError> {
        let synthesis = self.synthesize_workload(&problem.workload()?)?;
        Ok(WorkloadRewriting {
            problem: problem.clone(),
            synthesis,
        })
    }

    /// Warm the session on a spec and discard the result: later runs of
    /// related specs start from the populated failure/goal-outcome memos.
    pub fn warm(&self, spec: &ImplicitSpec) -> Result<&Synthesizer, SynthesisError> {
        self.synthesize(spec)?;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::partition_problem;

    #[test]
    fn facade_matches_free_function() {
        let problem = partition_problem();
        let spec = problem.workload().unwrap().entries()[0].1.clone();
        let cfg = SynthesisConfig::default();
        let direct = crate::synthesis::synthesize(&spec, &cfg).unwrap();
        let synth = Synthesizer::with_config(cfg);
        let via_facade = synth.synthesize(&spec).unwrap();
        assert_eq!(direct.expr(), via_facade.expr());
    }

    #[test]
    fn warm_facade_is_reusable() {
        let problem = partition_problem();
        let spec = problem.workload().unwrap().entries()[0].1.clone();
        let synth = Synthesizer::new();
        let first = synth.warm(&spec).unwrap().synthesize(&spec).unwrap();
        let second = synth.synthesize(&spec).unwrap();
        assert_eq!(first.expr(), second.expr());
        // rewriting through the same warm facade
        let rw = synth.derive_workload(&problem).unwrap();
        assert_eq!(rw.queries()[0].1.expr(), first.expr());
    }

    #[test]
    fn fol_session_is_lazy_and_shared_by_clones() {
        let synth = Synthesizer::new();
        let clone_before = synth.clone();
        let _ = synth.fol_session();
        let clone_after = synth.clone();
        // the clone taken after initialization shares the session
        assert_eq!(
            clone_after.fol_session().memo_len(),
            synth.fol_session().memo_len()
        );
        let _ = clone_before.fol_session();
    }
}
