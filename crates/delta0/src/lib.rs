//! # nrs-delta0
//!
//! The Δ0 logic of the paper (§3): the natural logic for talking about nested
//! relations, in which all quantification is *bounded* — quantifiers range
//! over the members of a set denoted by a term.
//!
//! The crate provides:
//!
//! * [`Term`]s built from variables, tupling and projections;
//! * [`Formula`]s: Ur-equalities / inequalities, the Boolean connectives, and
//!   bounded quantifiers, plus the *extended* membership literals `t ∈ u`
//!   used in ∈-contexts during proofs;
//! * the macro layer of the paper: negation by dualization, equality up to
//!   extensionality `≡_T`, inclusion `⊆_T`, membership up to extensionality
//!   `∈̂_T`, implication/bi-implication, and bounded quantification along a
//!   subtype occurrence `∃x ∈^p t . φ` ([`macros`]);
//! * typing of terms and formulas against a [`Schema`];
//! * evaluation of formulas over nested relational instances ([`eval`]);
//! * brute-force *bounded* entailment checking over small universes
//!   ([`entail`]) — used by the test suites to validate proof rules,
//!   interpolants and synthesized expressions semantically;
//! * specialization of existential blocks with respect to ∈-contexts
//!   ([`specialize`]), the engine behind the focused ∃ rule.

pub mod context;
pub mod entail;
pub mod eval;
pub mod formula;
pub mod macros;
#[cfg(test)]
mod shared;
pub mod specialize;
pub mod term;
pub mod typing;

pub use context::{InContext, MemAtom};
pub use formula::{Formula, Polarity};
pub use nrs_shared::{intern_stats, InternStats, Shared};
pub use term::Term;

pub use nrs_value::{Name, NameGen, Schema, Type, Value};

/// Errors produced by the Δ0 layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicError {
    /// A term or formula was not well-typed.
    IllTyped(String),
    /// A variable was not bound in the environment / schema.
    UnboundVariable(Name),
    /// Evaluation reached a structurally impossible situation (e.g. projecting
    /// a non-pair); indicates an ill-typed input that slipped through.
    Stuck(String),
    /// A formula that was required to be Δ0 (membership-free) contained a
    /// primitive membership literal.
    NotDelta0(String),
}

impl std::fmt::Display for LogicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogicError::IllTyped(m) => write!(f, "ill-typed: {m}"),
            LogicError::UnboundVariable(n) => write!(f, "unbound variable: {n}"),
            LogicError::Stuck(m) => write!(f, "evaluation stuck: {m}"),
            LogicError::NotDelta0(m) => write!(f, "formula is not Δ0: {m}"),
        }
    }
}

impl std::error::Error for LogicError {}
