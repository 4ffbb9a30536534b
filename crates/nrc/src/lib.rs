//! # nrs-nrc
//!
//! The Nested Relational Calculus (NRC) of the paper (§3, Figure 1): the
//! standard query language for nested relations, extended with `get_T` as in
//! the paper so that transformations with Ur-element output are expressible.
//!
//! The crate provides:
//!
//! * the core syntax ([`Expr`]) and its typing ([`typing`]) and evaluation
//!   ([`eval`]) semantics — the naive recursive evaluator, kept as the
//!   oracle for the optimizing pipeline;
//! * the optimizing evaluation pipeline: algebraic simplification ([`opt`])
//!   and plan-based execution ([`plan`]) with hash joins, indexed membership
//!   probes, short-circuiting guards and loop-invariant sharing — the
//!   production path for evaluating synthesized rewritings
//!   ([`CompiledQuery`], [`eval_optimized`]);
//! * the macro layer the paper uses freely ([`macros`]): Booleans, equality
//!   and membership at every type, conditionals, Δ0-comprehension, maps,
//!   cartesian products, and the "collect all atoms below a value" expression
//!   used by the base case of Theorem 10;
//! * compilation of Δ0 formulas to Boolean NRC expressions ([`compile`]),
//!   which is what makes NRC "closed under Δ0 comprehension";
//! * input/output specifications `Σ_E` of composition-free view definitions as
//!   Δ0 formulas ([`spec`]), the bridge from NRC views and queries to the
//!   implicit-definability setting of the main theorem (paper §3, Appendix B).

pub mod compile;
pub mod eval;
pub mod expr;
pub mod macros;
pub mod opt;
pub mod plan;
pub mod spec;
pub mod typing;

pub use expr::Expr;
pub use plan::{
    eval_optimized, exec_filter, exec_plan, exec_plan_bound, filter_cond, holds_bound,
    CompiledQuery, Plan,
};
pub use spec::{GenExpr, Generator, ViewDef};

pub use nrs_delta0::{Formula, Term};
pub use nrs_value::{Name, NameGen, Schema, Type, Value};

/// Errors raised by the NRC layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NrcError {
    /// An expression was not well-typed.
    IllTyped(String),
    /// A variable was unbound during typing or evaluation.
    UnboundVariable(Name),
    /// Evaluation got stuck on a structurally impossible case (ill-typed input).
    Stuck(String),
    /// A construct outside the supported composition-free fragment was used
    /// where an input/output specification was required.
    UnsupportedForSpec(String),
}

impl std::fmt::Display for NrcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NrcError::IllTyped(m) => write!(f, "ill-typed NRC expression: {m}"),
            NrcError::UnboundVariable(n) => write!(f, "unbound variable: {n}"),
            NrcError::Stuck(m) => write!(f, "evaluation stuck: {m}"),
            NrcError::UnsupportedForSpec(m) => {
                write!(f, "expression outside the composition-free fragment supported for specifications: {m}")
            }
        }
    }
}

impl std::error::Error for NrcError {}

impl From<nrs_delta0::LogicError> for NrcError {
    fn from(e: nrs_delta0::LogicError) -> Self {
        match e {
            nrs_delta0::LogicError::UnboundVariable(n) => NrcError::UnboundVariable(n),
            nrs_delta0::LogicError::IllTyped(m) => NrcError::IllTyped(m),
            nrs_delta0::LogicError::Stuck(m) => NrcError::Stuck(m),
            nrs_delta0::LogicError::NotDelta0(m) => NrcError::UnsupportedForSpec(m),
        }
    }
}
