//! # nrs-proof
//!
//! The focused sequent calculus for Δ0 formulas (paper §4, Figure 3), with
//! explicit proof objects, a proof checker, and the admissible-rule
//! transformations the synthesis algorithm relies on.
//!
//! The calculus is one-sided: sequents have the form `Θ ⊢ Δ`, where `Θ` is an
//! ∈-context (primitive membership atoms) and `Δ` a finite set of Δ0 formulas,
//! read disjunctively.  A two-sided sequent `Θ; Γ ⊢ Δ` of the higher-level
//! system of Figure 2 is represented as `Θ ⊢ ¬Γ, Δ` (negation being the Δ0
//! dualization macro); the constructor [`Sequent::two_sided`] performs that
//! encoding, so the two-sided rules of Figure 2 are available as admissible
//! macros over this system (see [`transform`]).
//!
//! Every algorithm in the paper that consumes proofs — interpolation
//! (Theorem 4), parameter collection (Theorem 8/Lemma 9), and the main
//! synthesis recursion (Theorems 2 and 10) — is a structural induction over
//! the [`Proof`] trees defined here.

pub mod check;
pub mod proof;
pub mod sequent;
pub mod transform;

pub use check::{check_proof, ProofError};
pub use proof::{Premises, Proof, Rule};
pub use sequent::{formula_hash_mixed, Literals, LiteralsIter, Sequent, SequentKey};

pub use nrs_delta0::{Formula, InContext, MemAtom, Term};
pub use nrs_value::{Name, NameGen, Type};
