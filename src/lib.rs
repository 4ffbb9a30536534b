//! # nested-synth
//!
//! Umbrella crate for the *Synthesizing Nested Relational Queries from
//! Implicit Specifications* reproduction.  It re-exports every sub-crate so
//! the examples, integration tests and downstream users can depend on a single
//! crate.
//!
//! See `README.md` for a tour, the crate map and the pipeline diagram.

pub use nrs_delta0 as delta0;
pub use nrs_fol as fol;
pub use nrs_interp as interp;
pub use nrs_ivm as ivm;
pub use nrs_nrc as nrc;
pub use nrs_obs as obs;
pub use nrs_proof as proof;
pub use nrs_prover as prover;
pub use nrs_serve as serve;
pub use nrs_synthesis as synthesis;
pub use nrs_value as value;

// The one-`use` surface: the types a consumer needs to go from an implicit
// specification (or a whole workload of them) to a served, incrementally
// maintained answer.  `use nested_synth::{Synthesizer, Workload, ViewServer,
// UpdateBatch, NrsError};` covers the pipeline end to end — see
// `examples/quickstart.rs` and `examples/workload_views.rs`.
pub use nrs_ivm::{DeltaSet, UpdateBatch};
pub use nrs_serve::{
    NrsError, ServerConfig, Snapshot, ViewServer, ViewServerBuilder, WriterHandle,
};
pub use nrs_synthesis::{
    synthesize, ImplicitSpec, MaintainedWorkload, SynthesisConfig, SynthesizedDefinition,
    Synthesizer, Workload, WorkloadProblem, WorkloadRewriting, WorkloadSynthesis,
};
pub use nrs_value::{Instance, Name, Type, Value};
