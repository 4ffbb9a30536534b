//! # nrs-synthesis
//!
//! The paper's primary contribution: *effective implicit-to-explicit
//! definability for nested relations* (Theorem 2), together with its
//! view-rewriting corollary (Corollary 3).
//!
//! Given a Δ0 specification `φ(ī, ā, o)` that implicitly defines the object
//! `o` in terms of the inputs `ī` (up to extensionality), the pipeline
//! produces an NRC expression `E(ī)` that explicitly defines `o`:
//!
//! 1. **Theorem 10 / "collect answers"** ([`synthesis`]): a type-directed
//!    recursion over the output type.  At `𝔘` it collects the atoms below the
//!    inputs, at products it takes componentwise products, and at set types it
//!    combines a superset expression (from the recursion one level down) with
//!    the **NRC Parameter Collection** theorem.
//! 2. **Parameter collection / Theorem 8, Lemma 9** ([`collect`]): an
//!    induction over a focused proof of
//!    `… ⊢ ∃y ∈^p o'. ∀z ∈ c (λ(z) ↔ ρ(z, y))` producing an NRC expression
//!    containing `{z ∈ c | λ(z)}` as an element, plus a side formula θ used by
//!    the induction — the paper's key new tool.
//! 3. **Interpolation (Theorem 4)** from `nrs-interp` supplies the filter
//!    `κ(ī, x)` that cuts the collected superset down to exactly `o`:
//!    the final definition is `{x ∈ E(ī) | κ(ī, x)}`.
//! 4. **Corollary 3** ([`workload`]): when the specification arises from NRC
//!    views and queries (via the input/output specifications of `nrs-nrc`),
//!    the synthesized definitions are rewritings of the queries over the
//!    views, which can be evaluated and verified against materialized
//!    instances.  A [`WorkloadProblem`] with one query is the single-query
//!    case; [`views`] holds the standard problems.
//!
//! ### Where proofs come from
//!
//! The paper's algorithm consumes *one* proof witness of determinacy and
//! massages it with admissible rules (Lemmas 6 and 7) into the shapes needed
//! by the recursion.  This implementation keeps the extraction algorithms
//! (Lemma 9, Theorem 4) faithful inductions over proofs, but derives each
//! intermediate sequent with the bounded proof-search engine of `nrs-prover`
//! instead of performing the (extremely shape-sensitive) proof surgery.  The
//! produced definitions are identical in structure; the difference is only in
//! how the intermediate witnesses are obtained, and is reported in the result
//! metadata ([`synthesis::SynthesisReport`]).

pub mod collect;
pub mod ivm;
pub mod synthesis;
pub mod synthesizer;
pub mod views;
pub mod workload;

pub use collect::{collect_parameters, CollectInput, CollectOutput};
pub use ivm::{AnswerDeltas, DegradedOperator, MaintainedWorkload, WorkloadCoverage};
pub use nrs_ivm::{CoverageReport, DeltaSet, IvmError, MaintStats, UpdateBatch};
pub use synthesis::{
    synthesize, GoalMetrics, ImplicitSpec, InterpolantKind, SynthesisConfig, SynthesisError,
    SynthesisMetrics, SynthesisReport, SynthesizedDefinition,
};
pub use synthesizer::Synthesizer;
pub use workload::{
    overlapping_workload_problem, SharedViewSet, Workload, WorkloadProblem, WorkloadReport,
    WorkloadRewriting, WorkloadSynthesis,
};

pub use nrs_delta0::{Formula, Term};
pub use nrs_nrc::Expr;
pub use nrs_value::{Name, Type};
