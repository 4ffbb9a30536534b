//! # nrs-ivm
//!
//! Incremental view maintenance for compiled NRC plans.
//!
//! The paper's headline use case is keeping an implicitly-specified derived
//! dataset up to date from its sources: once synthesis has produced an
//! explicit NRC definition (a *view*), the view must track the base data as
//! it changes.  Re-running the compiled plan on every update costs O(n) per
//! batch no matter how small the change; this crate makes a single-tuple
//! update cost O(|Δ| · log n) instead.
//!
//! The unit of change is an [`UpdateBatch`]: per relation symbol, a set of
//! inserted and deleted tuples.  A [`MaintainedQuery`] wraps a
//! [`CompiledQuery`][nrs_nrc::CompiledQuery] together with per-operator
//! state — membership materializations, per-member loop-body caches, join
//! key indexes, and **multiset support counts** that make deletions sound
//! for union, projection-like loops and joins (an output tuple disappears
//! only when its *last* producer does).  Filter loops `{x ∈ R | φ(x)}` — the
//! shape of every synthesized view and answer — keep **no per-member
//! state** at all: each output element is produced only by the member equal
//! to it, so the output set alone says which members pass, and a batch
//! costs one condition evaluation per inserted or probe-touched member.  [`MaintainedQuery::apply`]
//! propagates a batch through the operator tree and returns the exact
//! [`DeltaSet`] of the output; the materialized value is always available
//! through [`MaintainedQuery::value`] as the same `Arc`-shared
//! [`Value`]s the evaluators use.
//!
//! The naive evaluator remains the oracle: see
//! `tests/maintenance_equivalence.rs` for the random-update equivalence
//! harness, and `nrs-synthesis`'s `MaintainedWorkload` for the synthesized-view
//! lifecycle built on top of this engine.

pub mod batch;
pub mod engine;
pub mod fault;

pub use batch::{DeltaSet, UpdateBatch};
pub use engine::{
    CoverageReport, MaintStats, MaintainedPlan, MaintainedQuery, Maintenance, OperatorCoverage,
};

use nrs_nrc::NrcError;
use nrs_value::{Name, Type, Value};

/// Errors of the maintenance layer.
///
/// The variants split into three classes that callers (notably the
/// `nrs-serve` ingest path) treat differently:
///
/// * **validation** ([`UnknownRelation`], [`TypeMismatch`],
///   [`OverlappingDelta`], [`DuplicateInsert`], [`MissingDelete`],
///   [`NotASet`], [`UnboundRelation`]) — the *batch* (or query) was
///   malformed; no state was modified and the caller may fix and resubmit;
/// * **operator failure** ([`Operator`], [`FaultInjected`], [`Nrc`]) — a
///   delta rule failed mid-propagation; operator caches are unspecified
///   until the query is [rebuilt][MaintainedQuery::rebuild] (the
///   transactional entry points instead restore the clone they took
///   before the batch);
/// * **invariant violation** ([`Internal`]) — a bug in the delta rules.
///
/// [`UnknownRelation`]: IvmError::UnknownRelation
/// [`TypeMismatch`]: IvmError::TypeMismatch
/// [`OverlappingDelta`]: IvmError::OverlappingDelta
/// [`DuplicateInsert`]: IvmError::DuplicateInsert
/// [`MissingDelete`]: IvmError::MissingDelete
/// [`NotASet`]: IvmError::NotASet
/// [`UnboundRelation`]: IvmError::UnboundRelation
/// [`Operator`]: IvmError::Operator
/// [`FaultInjected`]: IvmError::FaultInjected
/// [`Nrc`]: IvmError::Nrc
/// [`Internal`]: IvmError::Internal
#[derive(Debug, Clone)]
pub enum IvmError {
    /// Evaluating a (sub)plan failed.
    Nrc(NrcError),
    /// An update targeted a binding that is not a set (or the maintained
    /// output is not set-valued).
    NotASet(Name),
    /// A batch mentioned a relation the schema does not declare.
    UnknownRelation(Name),
    /// A tuple in a batch does not have the element type the schema
    /// declares for its relation.
    TypeMismatch {
        /// The relation the ill-typed tuple targeted.
        rel: Name,
        /// The declared element type of that relation.
        expected: Type,
        /// The offending tuple.
        tuple: Value,
    },
    /// A delta listed the same tuple on both its insert and delete side —
    /// such a delta has no sequential meaning and is rejected outright.
    OverlappingDelta {
        /// The relation whose delta overlaps.
        rel: Name,
        /// A tuple present on both sides.
        tuple: Value,
    },
    /// Strict validation: an insert of a tuple that is already present.
    DuplicateInsert {
        /// The relation targeted.
        rel: Name,
        /// The already-present tuple.
        tuple: Value,
    },
    /// Strict validation: a delete of a tuple that is not present.
    MissingDelete {
        /// The relation targeted.
        rel: Name,
        /// The absent tuple.
        tuple: Value,
    },
    /// A maintained plan reads a relation the environment does not bind.
    UnboundRelation(Name),
    /// A delta rule failed at a specific operator of the maintained plan.
    /// `op` is the preorder index of the operator ([`MaintainedQuery::
    /// coverage`] lists them); degrading that operator to
    /// recompute-on-dirty usually lets the batch through.
    Operator {
        /// Preorder index of the failing operator.
        op: usize,
        /// Human-readable operator kind (`"join"`, `"for-union"`, …).
        kind: &'static str,
        /// The underlying failure.
        source: Box<IvmError>,
    },
    /// A fault-injection hook fired (only with the `fault-injection`
    /// feature and an installed [`fault::FaultPlan`]).
    FaultInjected {
        /// The instrumentation site that fired.
        site: &'static str,
    },
    /// An operator cache violated its invariant — a bug in the delta rules.
    Internal(String),
}

impl IvmError {
    /// Tag this error with the operator it surfaced at, unless it already
    /// carries a (deeper, more precise) operator tag.
    pub(crate) fn at(self, op: usize, kind: &'static str) -> IvmError {
        match self {
            e @ IvmError::Operator { .. } => e,
            source => IvmError::Operator {
                op,
                kind,
                source: Box::new(source),
            },
        }
    }

    /// The preorder operator index this error is tagged with, if any.
    pub fn operator(&self) -> Option<usize> {
        match self {
            IvmError::Operator { op, .. } => Some(*op),
            _ => None,
        }
    }

    /// Whether this error rejected the *input* before any state changed
    /// (the caller may fix the batch and resubmit; nothing needs rebuilding).
    pub fn is_validation(&self) -> bool {
        matches!(
            self,
            IvmError::UnknownRelation(_)
                | IvmError::TypeMismatch { .. }
                | IvmError::OverlappingDelta { .. }
                | IvmError::DuplicateInsert { .. }
                | IvmError::MissingDelete { .. }
                | IvmError::NotASet(_)
                | IvmError::UnboundRelation(_)
        )
    }
}

impl std::fmt::Display for IvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IvmError::Nrc(e) => write!(f, "plan evaluation failed: {e}"),
            IvmError::NotASet(n) => write!(f, "update target {n} is not a set"),
            IvmError::UnknownRelation(n) => {
                write!(
                    f,
                    "update targets relation {n}, which the schema does not declare"
                )
            }
            IvmError::TypeMismatch {
                rel,
                expected,
                tuple,
            } => write!(
                f,
                "tuple {tuple} does not have the element type {expected} of relation {rel}"
            ),
            IvmError::OverlappingDelta { rel, tuple } => write!(
                f,
                "delta for {rel} lists {tuple} as both inserted and deleted"
            ),
            IvmError::DuplicateInsert { rel, tuple } => {
                write!(f, "insert of {tuple} into {rel}, but it is already present")
            }
            IvmError::MissingDelete { rel, tuple } => {
                write!(f, "delete of {tuple} from {rel}, but it is not present")
            }
            IvmError::UnboundRelation(n) => write!(
                f,
                "maintained plan reads {n}, which the environment does not bind"
            ),
            IvmError::Operator { op, kind, source } => {
                write!(f, "operator #{op} ({kind}) failed: {source}")
            }
            IvmError::FaultInjected { site } => {
                write!(f, "injected fault fired at site {site:?}")
            }
            IvmError::Internal(m) => write!(f, "maintenance invariant violated: {m}"),
        }
    }
}

impl std::error::Error for IvmError {}

impl From<NrcError> for IvmError {
    fn from(e: NrcError) -> Self {
        IvmError::Nrc(e)
    }
}
