//! # nrs-prover
//!
//! Bounded proof search for the focused Δ0 calculus.
//!
//! The paper deliberately leaves automation open ("a crucial limitation of our
//! work is that we do not yet know how to find the proofs", §7).  This crate
//! provides a pragmatic search engine so that the synthesis pipeline and the
//! examples run end-to-end without hand-written proof witnesses:
//!
//! * **Invertible phase** — ⊤/`t = t` axioms are detected, and ∧, ∨, ∀ are
//!   decomposed eagerly (these rules are invertible, so no backtracking is
//!   needed over them).
//! * **Saturation phase** — "safe" ∃ instantiations (whose result contains no
//!   conjunction, hence never forces a case split) and ≠-congruence rewrites
//!   are added exhaustively, bounded per round.
//! * **Choice phase** — "risky" ∃ instantiations (those introducing
//!   conjunctions, e.g. instantiating a goal `∃z' ∈ o' . z ≡ z'` at a
//!   candidate witness) are explored with backtracking under an iterative
//!   deepening budget.
//!
//! Failed sub-goals are memoized — across goals: a [`ProverSession`] owns the
//! failure memo and a pool of long-lived big-stack worker threads, so the
//! many sequents of one synthesis run prune each other's searches and stop
//! paying a thread spawn per goal.  The engine is complete only up to its
//! budgets — exactly the compromise the paper anticipates.  Within the
//! default budgets it proves the goals of the benchmark families (partition,
//! the overlapping workloads, the product fixtures); the paper's running
//! flatten/nest example and the lossless-join decomposition exceed them
//! (`examples/flatten_view.rs` reports the budget it ran out of).  Every
//! proof it returns can be re-checked with [`nrs_proof::check_proof`];
//! synthesis consumes only proofs found here — no entry point takes a
//! hand-built [`Proof`] witness.
//!
//! Set `NRS_PROVER_TRACE=1` to stream every visited search state to stderr.

pub mod search;
pub mod session;

pub use search::{prove, prove_sequent, ProverConfig, ProverStats};
pub use session::ProverSession;

pub use nrs_proof::{Proof, ProofError, Sequent};
