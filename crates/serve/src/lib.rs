//! # nrs-serve
//!
//! Fault-tolerant, pipelined serving of maintained rewritings.
//!
//! The synthesis pipeline ends with a [`MaintainedWorkload`]: views, shared
//! fragments and every named query answer kept incrementally up to date
//! under base updates (a single query is a one-entry workload).  This crate
//! wraps that engine in the machinery a long-running service needs:
//!
//! * **Epoch-published snapshots.**  Readers never lock against writers: a
//!   [`ViewServer`] publishes an [`Arc<Snapshot>`] per successfully applied
//!   batch, and [`ViewServer::snapshot`] hands the current one out with an
//!   atomic pointer read.  A snapshot is immutable and internally consistent
//!   (answer, views and base all from the same epoch) — the persistent
//!   values underneath make publication O(1), not a copy.
//! * **A bounded, pipelined ingest queue.**  Producers
//!   [`submit`][ViewServer::submit] (blocking when the queue is full) or
//!   [`try_submit`][ViewServer::try_submit] (returning
//!   [`NrsError::Backpressure`]) validated batches into a bounded queue
//!   without ever touching the maintenance engine; a dedicated batching
//!   writer thread ([`ViewServer::start`]) drains the queue, so producers
//!   never contend with maintenance.  Queued batches are coalesced into a
//!   single exact net batch ([`UpdateBatch::coalesce_exact`]) and the
//!   engine pass plus snapshot publication are amortized across the whole
//!   batch.  Per-flush engine round counters are surfaced in
//!   [`FlushReport`].
//! * **Transactional application with graceful degradation.**  A batch
//!   either applies completely — every view, every answer, and a new
//!   published epoch — or not at all.  An operator failure mid-propagation
//!   rolls the engine back to the pre-batch state, **degrades** the failing
//!   operator to recompute-on-dirty (visible in [`ViewServer::coverage`],
//!   ROADMAP item 5), and retries through the degraded plan: the server
//!   keeps serving, slower but correct, instead of dying or corrupting.
//! * **A typed error taxonomy.**  [`NrsError`] says *what kind* of failure
//!   occurred — batch rejected (fix and resubmit), queue full (retry
//!   later), maintenance failed (state rolled back), prover timeout vs
//!   budget exhaustion — with `Display` messages meant for operators, not
//!   `Debug` dumps.
//!
//! ## Pipeline
//!
//! ```text
//!  producers                ingest queue               writer thread
//!  submit ──▶ (validate) ─▶┌────────────┐  drain ≤    ┌─────────────┐
//!  submit ──▶ (validate) ─▶│ VecDeque,  │─ max_batch ▶│ coalesce +  │
//!     ⋮           ⋮        │ bounded,   │             │ exactness,  │─▶ publish
//!  submit ──▶ (validate) ─▶│ 2 condvars │             │ apply       │   epoch n+1
//!                ▲         └────────────┘             └─────────────┘
//!                │ full → Backpressure / block
//!                └─ space signalled per flush          readers: snapshot()
//! ```
//!
//! Failure semantics along the pipeline: a batch that fails *validation*
//! (schema, overlap, exactness) is dropped — it can never apply, so
//! retrying is pointless; a flush that fails *transiently* (injected
//! fault, maintenance failure after self-healing gave up) re-queues the
//! drained batches in order, so a retry — manual or the writer thread's
//! next cycle — converges without the producer resubmitting.  Readers keep
//! the old epoch through every failure.  A **stopping** writer bounds its
//! final drain: after [`SHUTDOWN_DRAIN_FAILURES`] consecutive failed flush
//! cycles it gives up and exits with the unflushed batches left queued
//! (visible in its [`WriterStats`] and [`ViewServer::pending_len`]), so a
//! persistent failure can never block [`WriterHandle::stop`].
//!
//! With the **`fault-injection`** feature, the server's ingest, lock,
//! coalesce, publish and writer-cycle points call the maintenance engine's
//! deterministic fault hooks (`nrs_ivm::fault`), so a chaos harness can
//! fail every reachable site and assert that readers always see a complete
//! epoch and the next clean batch converges to the naive oracle.

use nrs_ivm::fault;
use nrs_proof::ProofError;
use nrs_synthesis::{
    DegradedOperator, DeltaSet, IvmError, MaintStats, MaintainedWorkload, SynthesisError,
    UpdateBatch, WorkloadCoverage, WorkloadRewriting,
};
use nrs_value::{Instance, Name, Schema, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Cached handles into the global metrics registry (`nrs-obs`), resolved
/// once: the serving hot paths touch only atomics.
struct ObsMetrics {
    submits: Arc<nrs_obs::Counter>,
    rejected: Arc<nrs_obs::Counter>,
    backpressure: Arc<nrs_obs::Counter>,
    flushes: Arc<nrs_obs::Counter>,
    flush_errors: Arc<nrs_obs::Counter>,
    batches: Arc<nrs_obs::Counter>,
    updates: Arc<nrs_obs::Counter>,
    requeued_batches: Arc<nrs_obs::Counter>,
    dropped_batches: Arc<nrs_obs::Counter>,
    queue_depth: Arc<nrs_obs::Gauge>,
    epoch: Arc<nrs_obs::Gauge>,
    queue_wait_seconds: Arc<nrs_obs::Histogram>,
    visible_seconds: Arc<nrs_obs::Histogram>,
    batches_per_flush: Arc<nrs_obs::Histogram>,
    batch_tuples: Arc<nrs_obs::Histogram>,
    flush_seconds: Arc<nrs_obs::Histogram>,
    drain_seconds: Arc<nrs_obs::Histogram>,
    coalesce_seconds: Arc<nrs_obs::Histogram>,
    maintain_seconds: Arc<nrs_obs::Histogram>,
    publish_seconds: Arc<nrs_obs::Histogram>,
}

fn obs() -> &'static ObsMetrics {
    static OBS: OnceLock<ObsMetrics> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = nrs_obs::global();
        ObsMetrics {
            submits: r.counter("serve.submits_total"),
            rejected: r.counter("serve.rejected_batches_total"),
            backpressure: r.counter("serve.backpressure_total"),
            flushes: r.counter("serve.flushes_total"),
            flush_errors: r.counter("serve.flush_errors_total"),
            batches: r.counter("serve.batches_total"),
            updates: r.counter("serve.updates_total"),
            requeued_batches: r.counter("serve.requeued_batches_total"),
            dropped_batches: r.counter("serve.dropped_batches_total"),
            queue_depth: r.gauge("serve.queue_depth"),
            epoch: r.gauge("serve.epoch"),
            queue_wait_seconds: r.timer("serve.queue_wait_seconds"),
            visible_seconds: r.timer("serve.visible_seconds"),
            batches_per_flush: r.histogram("serve.batches_per_flush"),
            batch_tuples: r.histogram("serve.batch_tuples"),
            flush_seconds: r.timer("serve.flush_seconds"),
            drain_seconds: r.timer("serve.flush.drain_seconds"),
            coalesce_seconds: r.timer("serve.flush.coalesce_seconds"),
            maintain_seconds: r.timer("serve.flush.maintain_seconds"),
            publish_seconds: r.timer("serve.flush.publish_seconds"),
        }
    })
}

/// What went wrong, in terms a serving layer can act on.
///
/// The variants split by *recovery action*:
///
/// * [`Rejected`][NrsError::Rejected] — the batch was malformed; nothing
///   changed, fix the batch and resubmit;
/// * [`Backpressure`][NrsError::Backpressure] — the ingest queue is full;
///   nothing changed, retry after a flush drains it (or use the blocking
///   [`submit`][ViewServer::submit]);
/// * [`Maintenance`][NrsError::Maintenance] — propagation failed; the
///   server rolled back to the pre-batch epoch (degrading the failing
///   operator when it could) and keeps serving;
/// * [`Timeout`][NrsError::Timeout] / [`Cancelled`][NrsError::Cancelled] —
///   transient prover outcomes, retry may succeed;
/// * [`BudgetExhausted`][NrsError::BudgetExhausted] — a stable prover
///   verdict for the configured budgets;
/// * [`Synthesis`][NrsError::Synthesis] / [`Internal`][NrsError::Internal]
///   — derivation or invariant failures; not retryable as-is.
#[derive(Debug, Clone)]
pub enum NrsError {
    /// The batch failed validation (schema, overlap or exactness); no state
    /// was modified.
    Rejected(IvmError),
    /// The bounded ingest queue is at capacity; the batch was **not**
    /// enqueued and no state was modified.  Retry after a flush, or use
    /// the blocking [`submit`][ViewServer::submit].
    Backpressure {
        /// The configured [`ServerConfig::queue_capacity`].
        capacity: usize,
    },
    /// Incremental propagation failed; the engine was rolled back to its
    /// pre-batch state.
    Maintenance(IvmError),
    /// Proof search hit its wall-clock deadline.
    Timeout {
        /// Milliseconds elapsed when the deadline fired.
        elapsed_ms: u64,
        /// Search states visited before giving up.
        visited: usize,
    },
    /// Proof search exhausted its configured budgets.
    BudgetExhausted(String),
    /// Proof search was cancelled cooperatively.
    Cancelled,
    /// The synthesis/derivation pipeline failed.
    Synthesis(SynthesisError),
    /// An invariant of the serving layer was violated.
    Internal(String),
}

impl NrsError {
    /// Was the batch rejected without any state change (so the caller can
    /// fix it and resubmit)?
    pub fn is_rejection(&self) -> bool {
        matches!(self, NrsError::Rejected(_))
    }

    /// Is this a transient failure worth retrying as-is?  Backpressure is
    /// transient: the same batch succeeds once a flush drains the queue.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            NrsError::Timeout { .. } | NrsError::Cancelled | NrsError::Backpressure { .. }
        )
    }

    /// Was the batch refused because the ingest queue is full?
    pub fn is_backpressure(&self) -> bool {
        matches!(self, NrsError::Backpressure { .. })
    }
}

impl std::fmt::Display for NrsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NrsError::Rejected(e) => write!(f, "update batch rejected: {e}"),
            NrsError::Backpressure { capacity } => {
                write!(
                    f,
                    "ingest queue full ({capacity} batches); retry after a flush"
                )
            }
            NrsError::Maintenance(e) => {
                write!(f, "maintenance failed (state rolled back): {e}")
            }
            NrsError::Timeout {
                elapsed_ms,
                visited,
            } => {
                write!(
                    f,
                    "proof search timed out after {elapsed_ms} ms ({visited} states visited)"
                )
            }
            NrsError::BudgetExhausted(m) => write!(f, "proof search budget exhausted: {m}"),
            NrsError::Cancelled => write!(f, "proof search cancelled"),
            NrsError::Synthesis(e) => write!(f, "synthesis failed: {e}"),
            NrsError::Internal(m) => write!(f, "internal serving error: {m}"),
        }
    }
}

impl std::error::Error for NrsError {}

impl From<IvmError> for NrsError {
    fn from(e: IvmError) -> Self {
        if e.is_validation() {
            NrsError::Rejected(e)
        } else {
            NrsError::Maintenance(e)
        }
    }
}

impl From<SynthesisError> for NrsError {
    fn from(e: SynthesisError) -> Self {
        match e {
            SynthesisError::Maintenance(ivm) => ivm.into(),
            SynthesisError::ProofNotFound { error, .. } => match error {
                ProofError::Timeout {
                    elapsed_ms,
                    visited,
                } => NrsError::Timeout {
                    elapsed_ms,
                    visited,
                },
                ProofError::BudgetExhausted(m) => NrsError::BudgetExhausted(m),
                ProofError::Cancelled => NrsError::Cancelled,
                other => NrsError::Synthesis(SynthesisError::ProofNotFound {
                    purpose: String::new(),
                    error: other,
                }),
            },
            other => NrsError::Synthesis(other),
        }
    }
}

/// Tuning knobs of the serving pipeline.  The defaults suit a test or
/// small-service deployment; see each field for what it trades off.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum batches the ingest queue holds before
    /// [`try_submit`][ViewServer::try_submit] returns
    /// [`NrsError::Backpressure`] and [`submit`][ViewServer::submit]
    /// blocks.  Bounds writer memory under a producer storm.
    pub queue_capacity: usize,
    /// Maximum queued batches one flush drains and coalesces.  Larger
    /// batches amortize the engine pass and snapshot publication over more
    /// updates; smaller batches bound per-flush latency.
    pub max_batch: usize,
    /// How long the writer thread lets a batch build up after the first
    /// arrival before flushing (it flushes early when `max_batch` is
    /// reached).  Also the writer's idle poll interval for shutdown.
    pub batch_window: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            queue_capacity: 1024,
            max_batch: 256,
            batch_window: Duration::from_millis(1),
        }
    }
}

/// One published epoch: an immutable, internally consistent view of the
/// pipeline (base, views and every query answer all post the same batch).
/// Cheap to clone and hold — the values underneath are persistent and
/// shared.  A server publishes one named answer per query, all from the
/// same epoch.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Publication counter: epoch `n+1` is epoch `n` plus exactly one
    /// successfully applied (coalesced) batch.
    pub epoch: u64,
    answers: Vec<(Name, Value)>,
    views: Instance,
    base: Instance,
    degraded: Vec<DegradedOperator>,
}

impl Snapshot {
    /// The maintained answer of the first (or only) query at this epoch.
    pub fn answer(&self) -> &Value {
        &self.answers[0].1
    }

    /// The maintained answer of one named query at this epoch.
    pub fn answer_named(&self, name: &Name) -> Option<&Value> {
        self.answers.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Every `(query, answer)` pair of this epoch, in workload order.
    pub fn answers(&self) -> &[(Name, Value)] {
        &self.answers
    }

    /// One view's materialization at this epoch.
    pub fn view(&self, name: &Name) -> Option<&Value> {
        self.views.try_get(name)
    }

    /// The view instance: view and shared-fragment names bound to their
    /// materializations.
    pub fn views(&self) -> &Instance {
        &self.views
    }

    /// The base instance at this epoch.
    pub fn base(&self) -> &Instance {
        &self.base
    }

    /// Operators running degraded (recompute-on-dirty) at this epoch.
    pub fn degraded(&self) -> &[DegradedOperator] {
        &self.degraded
    }
}

/// The outcome of a successful flush: the newly published snapshot, the
/// answers' exact deltas, operators degraded while healing failures of this
/// batch, and the pipeline counters for capacity planning.
#[derive(Debug, Clone)]
pub struct FlushReport {
    /// The snapshot published for this batch.
    pub snapshot: Arc<Snapshot>,
    /// Exact per-query answer deltas, in workload order (an empty flush
    /// reports none).
    pub answer_deltas: Vec<(Name, DeltaSet)>,
    /// Operators degraded to recompute-on-dirty while applying this batch.
    pub degraded: Vec<DegradedOperator>,
    /// Queued batches coalesced into this flush (0 for an empty flush).
    pub batches: usize,
    /// Tuples (inserts + deletes) in the coalesced net batch actually
    /// driven through the engine — round trips cancel out before this.
    pub updates: usize,
    /// Engine counters attributed to this flush: evaluation rounds run and
    /// members they touched.
    pub maint: MaintStats,
    /// **Cumulative** batches this server has dropped over its lifetime
    /// (drops happen only on *failed* flushes — a validation failure of
    /// the coalesced batch — so a successful flush reports the running
    /// total, letting an operator notice drops without scraping errors).
    /// The triggering error is retained in
    /// [`ViewServer::last_drop_error`].
    pub dropped_batches: u64,
}

/// The writer-side state: the live engine plus the epoch counter.
struct ServerState {
    maintained: MaintainedWorkload,
    epoch: u64,
}

/// Consecutive failed flush cycles after which a stopping writer thread
/// gives up draining and exits with the batches left queued.  Transient
/// flush failures re-queue their drained batches, so without this bound a
/// *persistently* failing flush (e.g. an [`NrsError::Internal`] from a
/// failed rollback, which is not a rejection and is therefore re-queued)
/// would turn [`WriterHandle::stop`] into an indefinitely blocking
/// busy-loop — the batching window short-circuits once stop is requested.
pub const SHUTDOWN_DRAIN_FAILURES: u64 = 3;

/// The bounded ingest queue producers write into: a deque behind its own
/// mutex (never held across engine work) plus two condvars — `arrival`
/// wakes the writer thread, `space` wakes blocked producers after a flush.
/// Each queued batch carries its enqueue instant so the flush that drains
/// it can record the queue-wait latency (`serve.queue_wait_seconds`) and,
/// at publication, the submit → visible latency
/// (`serve.visible_seconds`); a re-queued batch is re-stamped, so both
/// measure from its latest enqueue, not cumulatively across retries.
struct Ingest {
    queue: Mutex<VecDeque<(UpdateBatch, Instant)>>,
    arrival: Condvar,
    space: Condvar,
}

/// Counters the batching writer thread accumulates over its lifetime,
/// returned by [`WriterHandle::stop`].
#[derive(Debug, Clone, Default)]
pub struct WriterStats {
    /// Flush cycles that published a new epoch.
    pub flushes: u64,
    /// Queued batches drained across all successful flushes.
    pub batches: u64,
    /// Net tuples driven through the engine across all successful flushes.
    pub updates: u64,
    /// Flush cycles that failed (the drained batches were re-queued or
    /// dropped depending on the error class; see the crate docs).
    pub errors: u64,
    /// Queued batches **dropped** by failed flushes this writer ran: a
    /// coalesced batch that fails validation can never apply, so its
    /// drained prefix is discarded.  Previously these vanished with only a
    /// generic error count; now they are tallied here (and in
    /// [`FlushReport::dropped_batches`] /
    /// [`ViewServer::dropped_batches`]), with the triggering error kept in
    /// [`ViewServer::last_drop_error`].
    pub dropped_batches: u64,
    /// The last flush error observed, if any.
    pub last_error: Option<NrsError>,
}

/// Handle to the dedicated batching writer thread started by
/// [`ViewServer::start`].  [`stop`][WriterHandle::stop] drains the queue,
/// joins the thread and returns its [`WriterStats`]; dropping the handle
/// also stops and joins the thread.
pub struct WriterHandle {
    server: Arc<ViewServer>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<WriterStats>>,
}

impl WriterHandle {
    /// Signal the writer to finish: it drains whatever is queued with a
    /// final flush, then exits.  Returns the thread's lifetime counters.
    ///
    /// The shutdown drain is **bounded**: if the final flushes keep failing
    /// ([`SHUTDOWN_DRAIN_FAILURES`] consecutive cycles), the writer gives
    /// up and exits with the unflushed batches left queued — visible as
    /// [`ViewServer::pending_len`] > 0 plus a non-zero
    /// [`errors`][WriterStats::errors] count — rather than retrying a
    /// persistent failure forever and blocking this call.  A writer thread
    /// that *panicked* is reported the same way: the returned stats carry
    /// `errors >= 1` and an [`NrsError::Internal`] `last_error`, never a
    /// clean default.
    pub fn stop(mut self) -> WriterStats {
        self.signal_stop();
        match self.thread.take() {
            Some(t) => t.join().unwrap_or_else(|_| WriterStats {
                errors: 1,
                last_error: Some(NrsError::Internal("writer thread panicked".into())),
                ..WriterStats::default()
            }),
            None => WriterStats::default(),
        }
    }

    /// Set the stop flag and wake the writer if it is parked waiting for
    /// arrivals (the flag is checked under the queue lock, so notifying
    /// under it cannot be missed).
    fn signal_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _guard = self
            .server
            .ingest
            .queue
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        self.server.ingest.arrival.notify_all();
    }
}

impl Drop for WriterHandle {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            self.signal_stop();
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for WriterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriterHandle")
            .field("running", &self.thread.is_some())
            .finish()
    }
}

/// A serving wrapper around a [`MaintainedWorkload`]: validated bounded
/// ingest, transactional coalesced batch application, epoch-published
/// snapshots, graceful degradation.  See the crate docs for the pipeline
/// and its guarantees.
///
/// The server is `Sync`: any number of reader threads call
/// [`snapshot`][ViewServer::snapshot] (an atomic pointer read behind an
/// `RwLock` held only for the clone) and any number of producers
/// [`submit`][ViewServer::submit] into the ingest queue, while one flusher
/// — the dedicated writer thread ([`start`][ViewServer::start]) or manual
/// [`flush`][ViewServer::flush] calls — drives the engine behind the state
/// mutex.
pub struct ViewServer {
    schema: Schema,
    config: ServerConfig,
    state: Mutex<ServerState>,
    published: RwLock<Arc<Snapshot>>,
    ingest: Ingest,
    /// Lifetime count of queued batches dropped by failed flushes (a
    /// coalesced batch that fails validation discards its drained prefix).
    dropped: AtomicU64,
    /// The error that triggered the most recent drop, for post-mortems.
    last_drop: Mutex<Option<NrsError>>,
}

/// Fluent construction of a [`ViewServer`]: configuration knobs, then
/// [`serve_workload`](ViewServerBuilder::serve_workload) (or
/// [`spawn_workload`](ViewServerBuilder::spawn_workload) to also start the
/// writer thread).
///
/// ```no_run
/// # use nrs_serve::ViewServer;
/// # fn demo(rewriting: &nrs_synthesis::WorkloadRewriting, base: &nrs_value::Instance) {
/// let (server, writer) = ViewServer::builder()
///     .max_batch(64)
///     .spawn_workload(rewriting, base)
///     .unwrap();
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ViewServerBuilder {
    config: ServerConfig,
}

impl ViewServerBuilder {
    /// Start from an explicit [`ServerConfig`] instead of the defaults.
    pub fn config(mut self, config: ServerConfig) -> ViewServerBuilder {
        self.config = config;
        self
    }

    /// See [`ServerConfig::queue_capacity`].
    pub fn queue_capacity(mut self, capacity: usize) -> ViewServerBuilder {
        self.config.queue_capacity = capacity;
        self
    }

    /// See [`ServerConfig::max_batch`].
    pub fn max_batch(mut self, max_batch: usize) -> ViewServerBuilder {
        self.config.max_batch = max_batch;
        self
    }

    /// See [`ServerConfig::batch_window`].
    pub fn batch_window(mut self, window: Duration) -> ViewServerBuilder {
        self.config.batch_window = window;
        self
    }

    /// Materialize a workload rewriting over `base` — every shared view
    /// maintained once per flush, one epoch covering every named answer —
    /// and publish epoch 0.  A single query is a one-entry workload.
    pub fn serve_workload(
        self,
        rewriting: &WorkloadRewriting,
        base: &Instance,
    ) -> Result<ViewServer, NrsError> {
        nrs_obs::init_from_env();
        let schema = rewriting.problem.base_schema()?;
        let maintained = MaintainedWorkload::new(rewriting, base)?;
        let snapshot = Arc::new(ViewServer::capture(&maintained, 0));
        Ok(ViewServer {
            schema,
            config: self.config,
            state: Mutex::new(ServerState {
                maintained,
                epoch: 0,
            }),
            published: RwLock::new(snapshot),
            ingest: Ingest {
                queue: Mutex::new(VecDeque::new()),
                arrival: Condvar::new(),
                space: Condvar::new(),
            },
            dropped: AtomicU64::new(0),
            last_drop: Mutex::new(None),
        })
    }

    /// [`serve_workload`](Self::serve_workload) plus [`ViewServer::start`]:
    /// returns the server and its running writer thread in one call.
    pub fn spawn_workload(
        self,
        rewriting: &WorkloadRewriting,
        base: &Instance,
    ) -> Result<(Arc<ViewServer>, WriterHandle), NrsError> {
        let server = Arc::new(self.serve_workload(rewriting, base)?);
        let writer = server.start();
        Ok((server, writer))
    }
}

impl ViewServer {
    /// Fluent construction: configuration knobs, then
    /// [`serve_workload`](ViewServerBuilder::serve_workload) (or
    /// [`spawn_workload`](ViewServerBuilder::spawn_workload) to also start
    /// the writer thread).
    pub fn builder() -> ViewServerBuilder {
        ViewServerBuilder::default()
    }

    /// The schema incoming batches are validated against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The pipeline configuration this server runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The current published snapshot — always a complete epoch, never a
    /// partially applied batch.  O(1): an `Arc` clone under a read lock.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.published
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// The current published epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Validate a batch against the schema and enqueue it, **blocking**
    /// while the ingest queue is at capacity (a concurrent flusher — the
    /// writer thread or manual [`flush`][ViewServer::flush] calls — must
    /// be draining it, or this blocks indefinitely).  Rejected batches
    /// ([`NrsError::Rejected`]) are not enqueued; nothing changes.
    pub fn submit(&self, batch: &UpdateBatch) -> Result<(), NrsError> {
        let m = obs();
        self.validate(batch).inspect_err(|_| m.rejected.inc())?;
        let mut q = self.lock_ingest();
        if q.len() >= self.config.queue_capacity {
            // counted once per blocked submit, not per spurious wakeup
            m.backpressure.inc();
            while q.len() >= self.config.queue_capacity {
                q = self.ingest.space.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        }
        q.push_back((batch.clone(), Instant::now()));
        m.submits.inc();
        m.queue_depth.set(q.len() as i64);
        self.ingest.arrival.notify_one();
        Ok(())
    }

    /// Validate a batch against the schema and enqueue it **without
    /// blocking**: a full queue returns [`NrsError::Backpressure`] and the
    /// batch is not enqueued.  Rejected batches are not enqueued either;
    /// in both cases nothing changes.
    pub fn try_submit(&self, batch: &UpdateBatch) -> Result<(), NrsError> {
        let m = obs();
        self.validate(batch).inspect_err(|_| m.rejected.inc())?;
        let mut q = self.lock_ingest();
        if q.len() >= self.config.queue_capacity {
            m.backpressure.inc();
            return Err(NrsError::Backpressure {
                capacity: self.config.queue_capacity,
            });
        }
        q.push_back((batch.clone(), Instant::now()));
        m.submits.inc();
        m.queue_depth.set(q.len() as i64);
        self.ingest.arrival.notify_one();
        Ok(())
    }

    /// Submit-time validation shared by both entry points, running the
    /// ingest fault hook (a fault here refuses the batch before anything
    /// is queued).
    fn validate(&self, batch: &UpdateBatch) -> Result<(), NrsError> {
        fault::hit("serve.ingest")?;
        batch.check_disjoint()?;
        batch.validate_schema(&self.schema)?;
        Ok(())
    }

    /// Number of batches queued and not yet flushed.
    pub fn pending_len(&self) -> usize {
        self.lock_ingest().len()
    }

    /// Start the dedicated batching writer thread: it waits for arrivals,
    /// lets a batch build for [`batch_window`][ServerConfig::batch_window]
    /// (or until [`max_batch`][ServerConfig::max_batch] batches are
    /// queued), then [flushes][ViewServer::flush].  Producers submit from
    /// any thread; readers are untouched.  Stop (and drain) it with
    /// [`WriterHandle::stop`].
    pub fn start(self: &Arc<ViewServer>) -> WriterHandle {
        let server = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || server.writer_loop(&stop_flag));
        WriterHandle {
            server: Arc::clone(self),
            stop,
            thread: Some(thread),
        }
    }

    /// Body of the batching writer thread.
    fn writer_loop(&self, stop: &AtomicBool) -> WriterStats {
        let mut stats = WriterStats::default();
        // Consecutive failed flush cycles since the last success; once stop
        // is requested this bounds the drain (see SHUTDOWN_DRAIN_FAILURES).
        let mut consecutive_failures: u64 = 0;
        loop {
            // park until a batch arrives or we are told to stop
            {
                let mut q = self.lock_ingest();
                while q.is_empty() && !stop.load(Ordering::SeqCst) {
                    let (guard, _) = self
                        .ingest
                        .arrival
                        .wait_timeout(q, self.config.batch_window)
                        .unwrap_or_else(|p| p.into_inner());
                    q = guard;
                }
                if q.is_empty() && stop.load(Ordering::SeqCst) {
                    return stats;
                }
                // batching window: give producers a moment to pile on, but
                // flush as soon as a full batch is waiting
                let deadline = Instant::now() + self.config.batch_window;
                while q.len() < self.config.max_batch && !stop.load(Ordering::SeqCst) {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, timeout) = self
                        .ingest
                        .arrival
                        .wait_timeout(q, deadline - now)
                        .unwrap_or_else(|p| p.into_inner());
                    q = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
            // the writer-cycle fault hook: a fault here kills the cycle
            // *before* anything is drained, so the queued batches survive
            // and the next cycle retries them
            let dropped_before = self.dropped_batches();
            let outcome = fault::hit("serve.writer.flush")
                .map_err(NrsError::from)
                .and_then(|()| self.flush());
            stats.dropped_batches += self.dropped_batches() - dropped_before;
            match outcome {
                Ok(report) => {
                    consecutive_failures = 0;
                    if report.batches > 0 {
                        stats.flushes += 1;
                        stats.batches += report.batches as u64;
                        stats.updates += report.updates as u64;
                    }
                }
                Err(e) => {
                    consecutive_failures += 1;
                    stats.errors += 1;
                    stats.last_error = Some(e);
                }
            }
            if stop.load(Ordering::SeqCst)
                && (self.lock_ingest().is_empty()
                    || consecutive_failures >= SHUTDOWN_DRAIN_FAILURES)
            {
                return stats;
            }
        }
    }

    /// Drain up to [`max_batch`][ServerConfig::max_batch] queued batches,
    /// apply them as **one** transactional net batch and publish a new
    /// epoch.
    ///
    /// The drained batches are coalesced with sequential exactness
    /// semantics ([`UpdateBatch::coalesce_exact`]): each batch must be
    /// exact against the base *as of its turn*, and each tuple nets to its
    /// final disposition, so round trips (insert-then-delete of a
    /// non-member, delete-then-insert of a member) vanish before the
    /// engine runs.  The net batch is driven through the engine's
    /// self-healing transactional apply and the new snapshot published.
    ///
    /// On failure the engine is rolled back to the pre-batch epoch; the
    /// drained batches are **dropped** if the combined batch failed
    /// validation (it can never apply), and **re-queued in order** on a
    /// transient failure (injected fault, unhealed maintenance error) so a
    /// retry converges — except a fault at the lock site, which fails
    /// before anything is drained.
    pub fn flush(&self) -> Result<FlushReport, NrsError> {
        let m = obs();
        let start = Instant::now();
        let mut span = nrs_obs::span("serve.flush");
        let out = self.flush_inner();
        m.flush_seconds.record_duration(start.elapsed());
        match &out {
            Ok(report) => {
                if report.batches > 0 {
                    m.flushes.inc();
                    m.batches.add(report.batches as u64);
                    m.updates.add(report.updates as u64);
                }
                m.epoch.set(report.snapshot.epoch as i64);
                span.record("batches", report.batches);
                span.record("updates", report.updates);
                span.record("epoch", report.snapshot.epoch);
            }
            Err(e) => {
                m.flush_errors.inc();
                span.record("error", true);
                nrs_obs::error("serve.flush_failed", e);
            }
        }
        out
    }

    /// [`flush`][ViewServer::flush] minus the instrumentation envelope: the
    /// wrapper records totals and the `serve.flush` span around every exit
    /// path of this body.
    fn flush_inner(&self) -> Result<FlushReport, NrsError> {
        let m = obs();
        // lock order: state mutex first, then the ingest queue (briefly).
        // A fault at the lock site therefore leaves the queue intact.
        let mut drain_span = nrs_obs::span("serve.drain");
        let drain_start = Instant::now();
        let mut st = self.lock_state()?;
        let drained: Vec<(UpdateBatch, Instant)> = {
            let mut q = self.lock_ingest();
            let n = q.len().min(self.config.max_batch);
            let d: Vec<_> = q.drain(..n).collect();
            m.queue_depth.set(q.len() as i64);
            d
        };
        let now = Instant::now();
        for (_, enqueued) in &drained {
            m.queue_wait_seconds
                .record_duration(now.saturating_duration_since(*enqueued));
        }
        m.drain_seconds.record_duration(drain_start.elapsed());
        drain_span.record("batches", drained.len());
        drop(drain_span);
        if drained.is_empty() {
            return Ok(FlushReport {
                snapshot: self.snapshot(),
                answer_deltas: Vec::new(),
                degraded: Vec::new(),
                batches: 0,
                updates: 0,
                maint: MaintStats::default(),
                dropped_batches: self.dropped_batches(),
            });
        }
        m.batches_per_flush.record(drained.len() as u64);
        // coalesce + exactness-check once for the whole batch, against the
        // live base: O(|Δ| log n) instead of cloning the base per batch
        let mut coalesce_span = nrs_obs::span("serve.coalesce");
        let coalesce_start = Instant::now();
        if let Err(e) = fault::hit("serve.coalesce") {
            self.requeue(drained);
            return Err(e.into());
        }
        let combined =
            match UpdateBatch::coalesce_exact(drained.iter().map(|(b, _)| b), st.maintained.base())
            {
                Ok(c) => c,
                Err(e) => {
                    // validation failure: the drained prefix can never apply
                    let e = NrsError::from(e);
                    self.drop_drained(drained.len(), &e);
                    return Err(e);
                }
            };
        m.coalesce_seconds.record_duration(coalesce_start.elapsed());
        m.batch_tuples.record(combined.len() as u64);
        coalesce_span.record("batches", drained.len());
        coalesce_span.record("tuples", combined.len());
        drop(coalesce_span);
        // the pre-batch state (a pointer-deep clone: every maintained
        // structure is persistent): propagation rolls itself back, but a
        // publish-site failure below must unwind to it
        let backup = st.maintained.clone();
        let maint_before = st.maintained.maint_stats();
        let mut maintain_span = nrs_obs::span("serve.maintain");
        let maintain_start = Instant::now();
        let (answer_deltas, degraded) = match st.maintained.apply_resilient(&combined) {
            Ok(out) => out,
            Err(e) => {
                let e = NrsError::from(e);
                if e.is_rejection() {
                    self.drop_drained(drained.len(), &e);
                } else {
                    self.requeue(drained);
                }
                return Err(e);
            }
        };
        m.maintain_seconds.record_duration(maintain_start.elapsed());
        maintain_span.record("tuples", combined.len());
        maintain_span.record("degraded", degraded.len());
        drop(maintain_span);
        // a fault between application and publication must reject the batch
        // as a whole: readers keep the old epoch, so the writer state must
        // return to it too — and the drained batches go back for a retry
        let mut publish_span = nrs_obs::span("serve.publish");
        let publish_start = Instant::now();
        if let Err(e) = fault::hit("serve.publish") {
            st.maintained = backup;
            self.requeue(drained);
            return Err(e.into());
        }
        st.epoch += 1;
        let snapshot = Arc::new(Self::capture(&st.maintained, st.epoch));
        *self.published.write().unwrap_or_else(|p| p.into_inner()) = snapshot.clone();
        // submit → visible: each drained batch from its enqueue instant to
        // the publication of the epoch that contains it
        let visible = Instant::now();
        for (_, enqueued) in &drained {
            m.visible_seconds
                .record_duration(visible.saturating_duration_since(*enqueued));
        }
        self.ingest.space.notify_all();
        m.publish_seconds.record_duration(publish_start.elapsed());
        publish_span.record("epoch", st.epoch);
        drop(publish_span);
        Ok(FlushReport {
            snapshot,
            answer_deltas,
            degraded,
            batches: drained.len(),
            updates: combined.len(),
            maint: st.maintained.maint_stats() - maint_before,
            dropped_batches: self.dropped_batches(),
        })
    }

    /// [`submit`][ViewServer::submit] + [`flush`][ViewServer::flush] in one
    /// call: validate, apply transactionally, publish.
    pub fn apply(&self, batch: &UpdateBatch) -> Result<FlushReport, NrsError> {
        self.submit(batch)?;
        self.flush()
    }

    /// Per-stage maintenance coverage of the live engine — every view,
    /// shared fragment and answer — including operators degraded by
    /// self-healing (ROADMAP item 5).
    pub fn coverage(&self) -> WorkloadCoverage {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .maintained
            .coverage()
    }

    /// The operators currently degraded across the pipeline.
    pub fn degraded_operators(&self) -> Vec<DegradedOperator> {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .maintained
            .degraded_operators()
    }

    /// Cumulative engine round counters (see `nrs_ivm::MaintStats`).
    pub fn maint_stats(&self) -> MaintStats {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .maintained
            .maint_stats()
    }

    /// Naive end-to-end oracle check of the *live* engine state: every
    /// view, shared fragment and named answer compared against from-scratch
    /// evaluation (and each answer against its unrewritten query on the
    /// base).
    pub fn cross_check(&self, rewriting: &WorkloadRewriting) -> Result<bool, NrsError> {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        Ok(st.maintained.cross_check(rewriting)?)
    }

    /// Acquire the writer lock, running the lock-site fault hook (a fault
    /// here fails the operation before anything is read or written).
    fn lock_state(&self) -> Result<std::sync::MutexGuard<'_, ServerState>, NrsError> {
        fault::hit("serve.lock")?;
        Ok(self.state.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Lock the ingest queue (never held across engine work).
    fn lock_ingest(&self) -> std::sync::MutexGuard<'_, VecDeque<(UpdateBatch, Instant)>> {
        self.ingest.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Put transiently-failed batches back at the front of the queue, in
    /// their original order (re-stamped: queue wait is measured per
    /// residency), and wake the writer for a retry.
    fn requeue(&self, drained: Vec<(UpdateBatch, Instant)>) {
        let m = obs();
        m.requeued_batches.add(drained.len() as u64);
        let mut q = self.lock_ingest();
        for (b, _) in drained.into_iter().rev() {
            q.push_front((b, Instant::now()));
        }
        m.queue_depth.set(q.len() as i64);
        self.ingest.arrival.notify_one();
    }

    /// A validation failure consumed the drained prefix: count the dropped
    /// batches, retain the triggering error for post-mortems, and notify
    /// producers blocked on a full queue that there may now be space.
    /// (These drops used to vanish silently — the only trace was a generic
    /// error return.)
    fn drop_drained(&self, count: usize, cause: &NrsError) {
        self.dropped.fetch_add(count as u64, Ordering::Relaxed);
        *self.last_drop.lock().unwrap_or_else(|p| p.into_inner()) = Some(cause.clone());
        obs().dropped_batches.add(count as u64);
        nrs_obs::error(
            "serve.dropped_batches",
            format_args!("dropped {count} queued batch(es): {cause}"),
        );
        self.ingest.space.notify_all();
    }

    /// Lifetime count of queued batches dropped by failed flushes (a
    /// coalesced batch that fails validation can never apply, so its
    /// drained prefix is discarded rather than re-queued).
    pub fn dropped_batches(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The error that triggered the most recent batch drop, if any.
    pub fn last_drop_error(&self) -> Option<NrsError> {
        self.last_drop
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// One coherent snapshot of **every** registered metric — prover, FO
    /// prover, synthesis, IVM engine and this serving layer share one
    /// global registry, so a single call reports the whole pipeline.  The
    /// server's point-in-time gauges (queue depth, published epoch) are
    /// refreshed before the registry is read.  Render it with
    /// [`to_json`][nrs_obs::MetricsSnapshot::to_json] or query it with the
    /// typed accessors.
    pub fn metrics_snapshot(&self) -> nrs_obs::MetricsSnapshot {
        let m = obs();
        m.queue_depth.set(self.pending_len() as i64);
        m.epoch.set(self.epoch() as i64);
        nrs_obs::global().snapshot()
    }

    /// [`metrics_snapshot`][ViewServer::metrics_snapshot] rendered in the
    /// Prometheus text exposition format, ready to serve from a
    /// `/metrics` endpoint.
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().to_prometheus()
    }

    /// An immutable snapshot of the engine at `epoch`: `O(#answers)`
    /// pointer copies.  The answers, the view instance and the base share
    /// every node with the live engine; the writer's next flush path-copies
    /// only the `O(|Δ| log n)` nodes it edits and leaves the rest shared,
    /// so holding a snapshot never makes a flush copy a whole set.
    fn capture(maintained: &MaintainedWorkload, epoch: u64) -> Snapshot {
        Snapshot {
            epoch,
            answers: maintained
                .answers()
                .into_iter()
                .map(|(n, v)| (n, v.clone()))
                .collect(),
            views: maintained.answer_instance().clone(),
            base: maintained.base().clone(),
            degraded: maintained.degraded_operators(),
        }
    }
}

impl std::fmt::Debug for ViewServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("ViewServer")
            .field("epoch", &snap.epoch)
            .field("degraded", &snap.degraded.len())
            .field("pending", &self.pending_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrs_synthesis::views::{partition_instance, partition_problem};
    use nrs_synthesis::SynthesisConfig;
    use std::collections::BTreeSet;

    /// The one-query partition rewriting (`Q = S` over `V1`, `V2`).
    fn rewriting() -> WorkloadRewriting {
        partition_problem()
            .derive_workload(&SynthesisConfig::default())
            .expect("rewriting exists")
    }

    fn setup(size: usize, seed: u64) -> (WorkloadRewriting, Instance) {
        (rewriting(), partition_instance(size, seed))
    }

    fn serve(result: &WorkloadRewriting, base: &Instance, config: ServerConfig) -> ViewServer {
        ViewServer::builder()
            .config(config)
            .serve_workload(result, base)
            .expect("server")
    }

    fn small_base() -> Instance {
        let s: BTreeSet<Value> = [1u64, 2, 3].into_iter().map(Value::atom).collect();
        let f: BTreeSet<Value> = [2u64].into_iter().map(Value::atom).collect();
        Instance::from_bindings([
            (Name::new("S"), Value::from_set(s)),
            (Name::new("F"), Value::from_set(f)),
        ])
    }

    #[test]
    fn server_publishes_epochs_and_readers_keep_old_snapshots() {
        let (result, base) = setup(30, 11);
        let server = serve(&result, &base, ServerConfig::default());
        assert_eq!(server.epoch(), 0);
        let old = server.snapshot();
        let answer0 = old.answer().clone();
        let mut batch = UpdateBatch::new();
        batch.insert("S", Value::atom(9001));
        batch.insert("F", Value::atom(9001));
        let report = server.apply(&batch).expect("apply");
        assert_eq!(report.snapshot.epoch, 1);
        assert_eq!(server.epoch(), 1);
        assert_eq!(report.batches, 1);
        assert_eq!(report.updates, 2);
        // a reader holding the old epoch is untouched by the publication
        assert_eq!(old.epoch, 0);
        assert_eq!(old.answer(), &answer0);
        assert_ne!(server.snapshot().answer(), &answer0);
        assert!(server.cross_check(&result).expect("oracle"));
        assert!(report.degraded.is_empty());
    }

    #[test]
    fn rejected_batches_change_nothing() {
        let (result, base) = setup(20, 3);
        let server = serve(&result, &base, ServerConfig::default());
        let before = server.snapshot();

        // unknown relation: schema validation at submit time
        let mut unknown = UpdateBatch::new();
        unknown.insert("Nope", Value::atom(1));
        let err = server.submit(&unknown).unwrap_err();
        assert!(err.is_rejection(), "got {err}");

        // overlapping delta: only constructible by wrapping one verbatim
        let mut ds = DeltaSet::new();
        ds.inserts.insert(Value::atom(7));
        ds.deletes.insert(Value::atom(7));
        let overlap = UpdateBatch::from_delta("S", ds);
        let err = server.submit(&overlap).unwrap_err();
        assert!(
            matches!(err, NrsError::Rejected(IvmError::OverlappingDelta { .. })),
            "got {err}"
        );

        // ill-typed tuple: S holds atoms, not sets
        let mut ill = UpdateBatch::new();
        ill.insert("S", Value::from_set(BTreeSet::new()));
        let err = server.submit(&ill).unwrap_err();
        assert!(err.is_rejection(), "got {err}");

        assert_eq!(server.pending_len(), 0, "rejected batches are not enqueued");
        assert_eq!(server.epoch(), 0);
        assert_eq!(server.snapshot().answer(), before.answer());
        assert!(server.cross_check(&result).expect("oracle"));
    }

    #[test]
    fn flush_checks_exactness_against_the_live_base() {
        let result = rewriting();
        let server = serve(&result, &small_base(), ServerConfig::default());
        // inserting a member passes the schema but fails exactness at flush
        let mut dup = UpdateBatch::new();
        dup.insert("S", Value::atom(1));
        server.submit(&dup).expect("schema-valid");
        assert_eq!(server.pending_len(), 1);
        let err = server.flush().unwrap_err();
        assert!(
            matches!(err, NrsError::Rejected(IvmError::DuplicateInsert { .. })),
            "got {err}"
        );
        assert_eq!(server.pending_len(), 0, "rejected queue is dropped");
        assert_eq!(server.epoch(), 0);
        assert!(server.cross_check(&result).expect("oracle"));
    }

    #[test]
    fn queued_batches_coalesce_with_sequential_semantics() {
        let result = rewriting();
        let server = serve(&result, &small_base(), ServerConfig::default());
        // insert 10 then delete it again: the coalesced batch must cancel,
        // otherwise exactness would reject the delete of a non-member
        let mut b1 = UpdateBatch::new();
        b1.insert("S", Value::atom(10));
        b1.insert("S", Value::atom(11));
        let mut b2 = UpdateBatch::new();
        b2.delete("S", Value::atom(10));
        server.submit(&b1).expect("b1");
        server.submit(&b2).expect("b2");
        let report = server.flush().expect("flush");
        assert_eq!(report.snapshot.epoch, 1);
        assert_eq!(report.batches, 2);
        assert_eq!(
            report.updates, 1,
            "the 10 round trip cancels before the engine"
        );
        let (_, delta) = &report.answer_deltas[0];
        assert!(delta.inserts.contains(&Value::atom(11)));
        assert!(!delta.inserts.contains(&Value::atom(10)));
        assert!(server.cross_check(&result).expect("oracle"));
        // an empty flush is a no-op at the same epoch
        let report = server.flush().expect("empty flush");
        assert_eq!(report.snapshot.epoch, 1);
        assert!(report.answer_deltas.is_empty());
        assert_eq!(report.batches, 0);
    }

    #[test]
    fn try_submit_backpressures_at_capacity_and_flush_makes_room() {
        let result = rewriting();
        let config = ServerConfig {
            queue_capacity: 2,
            ..ServerConfig::default()
        };
        let server = serve(&result, &small_base(), config);
        let mut b1 = UpdateBatch::new();
        b1.insert("S", Value::atom(10));
        let mut b2 = UpdateBatch::new();
        b2.insert("S", Value::atom(11));
        let mut b3 = UpdateBatch::new();
        b3.insert("S", Value::atom(12));
        server.try_submit(&b1).expect("b1 fits");
        server.try_submit(&b2).expect("b2 fits");
        let err = server.try_submit(&b3).unwrap_err();
        assert!(
            matches!(err, NrsError::Backpressure { capacity: 2 }),
            "got {err}"
        );
        assert!(err.is_transient() && err.is_backpressure() && !err.is_rejection());
        assert_eq!(server.pending_len(), 2, "the refused batch was not queued");
        // a flush drains the queue; the batch fits afterwards
        server.flush().expect("flush");
        server.try_submit(&b3).expect("b3 fits after flush");
        server.flush().expect("flush b3");
        assert_eq!(server.epoch(), 2);
        assert!(server.cross_check(&result).expect("oracle"));
    }

    #[test]
    fn blocking_submit_waits_for_space_instead_of_failing() {
        let result = rewriting();
        let config = ServerConfig {
            queue_capacity: 1,
            ..ServerConfig::default()
        };
        let server = Arc::new(serve(&result, &small_base(), config));
        let mut b1 = UpdateBatch::new();
        b1.insert("S", Value::atom(10));
        let mut b2 = UpdateBatch::new();
        b2.insert("S", Value::atom(11));
        server.submit(&b1).expect("b1 fits");
        // the queue is full: submit(b2) must block until a flush drains it
        let producer = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.submit(&b2))
        };
        // flush repeatedly until the producer's batch lands and is flushed
        // (the producer may enqueue just after a drain)
        loop {
            server.flush().expect("flush");
            if producer.is_finished() && server.pending_len() == 0 {
                break;
            }
            std::thread::yield_now();
        }
        producer
            .join()
            .expect("join")
            .expect("blocked submit succeeds");
        server.flush().expect("final flush");
        let snap = server.snapshot();
        let s = snap.base().try_get(&Name::new("S")).expect("S");
        let s = s.as_set().expect("set");
        assert!(s.contains(&Value::atom(10)) && s.contains(&Value::atom(11)));
        assert!(server.cross_check(&result).expect("oracle"));
    }

    #[test]
    fn max_batch_bounds_one_flush_and_the_rest_stays_queued() {
        let result = rewriting();
        let config = ServerConfig {
            max_batch: 2,
            ..ServerConfig::default()
        };
        let server = serve(&result, &small_base(), config);
        for i in 0..5u64 {
            let mut b = UpdateBatch::new();
            b.insert("S", Value::atom(100 + i));
            server.submit(&b).expect("submit");
        }
        let report = server.flush().expect("flush");
        assert_eq!(report.batches, 2);
        assert_eq!(server.pending_len(), 3, "drained only max_batch");
        assert_eq!(server.epoch(), 1);
        // three more flushes drain the rest
        assert_eq!(server.flush().expect("flush").batches, 2);
        assert_eq!(server.flush().expect("flush").batches, 1);
        assert_eq!(server.flush().expect("flush").batches, 0);
        assert!(server.cross_check(&result).expect("oracle"));
    }

    #[test]
    fn writer_thread_drains_producers_end_to_end() {
        let (result, base) = setup(30, 5);
        let config = ServerConfig {
            batch_window: Duration::from_millis(1),
            ..ServerConfig::default()
        };
        let server = Arc::new(serve(&result, &base, config));
        let handle = server.start();
        let mut producers = Vec::new();
        for p in 0..3u64 {
            let server = Arc::clone(&server);
            producers.push(std::thread::spawn(move || {
                for i in 0..10u64 {
                    let mut b = UpdateBatch::new();
                    // disjoint fresh tuples per producer: exact under any
                    // interleaving
                    b.insert("S", Value::atom(10_000 + p * 100 + i));
                    server.submit(&b).expect("submit");
                }
            }));
        }
        for t in producers {
            t.join().expect("producer");
        }
        let stats = handle.stop();
        assert_eq!(server.pending_len(), 0, "stop drains the queue");
        assert_eq!(stats.batches, 30, "every submitted batch was flushed");
        assert_eq!(stats.updates, 30);
        assert!(stats.flushes >= 1 && stats.flushes <= 30);
        assert!(stats.errors == 0, "clean run: {:?}", stats.last_error);
        let snap = server.snapshot();
        assert_eq!(snap.epoch, stats.flushes);
        let s = snap.base().try_get(&Name::new("S")).expect("S");
        let s = s.as_set().expect("set");
        for p in 0..3u64 {
            for i in 0..10u64 {
                assert!(s.contains(&Value::atom(10_000 + p * 100 + i)));
            }
        }
        assert!(server.cross_check(&result).expect("oracle"));
    }

    #[test]
    fn dropped_batches_are_counted_with_the_triggering_error() {
        let result = rewriting();
        let server = serve(&result, &small_base(), ServerConfig::default());
        assert_eq!(server.dropped_batches(), 0);
        assert!(server.last_drop_error().is_none());
        // two schema-valid batches whose coalesced net fails exactness (1 is
        // already a member): the whole drained prefix is dropped — and must
        // be accounted for, not silently vanish
        let mut dup = UpdateBatch::new();
        dup.insert("S", Value::atom(1));
        let mut fine = UpdateBatch::new();
        fine.insert("S", Value::atom(50));
        server.submit(&dup).expect("schema-valid");
        server.submit(&fine).expect("schema-valid");
        let err = server.flush().unwrap_err();
        assert!(err.is_rejection(), "got {err}");
        assert_eq!(server.dropped_batches(), 2, "both drained batches dropped");
        let cause = server.last_drop_error().expect("drop cause retained");
        assert!(
            matches!(cause, NrsError::Rejected(IvmError::DuplicateInsert { .. })),
            "got {cause}"
        );
        // the innocent bystander was dropped too — resubmitting it works,
        // and a successful flush reports the lifetime drop count
        server.submit(&fine).expect("resubmit");
        let report = server.flush().expect("flush");
        assert_eq!(report.dropped_batches, 2);
        assert!(server.cross_check(&result).expect("oracle"));
    }

    #[test]
    fn writer_stats_count_dropped_batches() {
        let result = rewriting();
        let server = Arc::new(serve(&result, &small_base(), ServerConfig::default()));
        let mut dup = UpdateBatch::new();
        dup.insert("S", Value::atom(1));
        server.submit(&dup).expect("schema-valid");
        let handle = server.start();
        let stats = handle.stop();
        assert_eq!(server.pending_len(), 0, "the bad batch is gone");
        assert_eq!(stats.dropped_batches, 1, "and the writer accounted for it");
        assert!(stats.errors >= 1);
        assert!(
            matches!(stats.last_error, Some(NrsError::Rejected(_))),
            "got {:?}",
            stats.last_error
        );
        assert_eq!(server.epoch(), 0, "nothing was applied");
        assert!(server.cross_check(&result).expect("oracle"));
    }

    #[test]
    fn metrics_snapshot_reports_the_whole_pipeline() {
        // derive_workload exercises the prover + synthesis, the server
        // flush exercises the IVM engine and the serving layer: one
        // snapshot must report all of them (shared global registry).
        let (result, base) = setup(20, 7);
        let server = serve(&result, &base, ServerConfig::default());
        let mut batch = UpdateBatch::new();
        batch.insert("S", Value::atom(7777));
        batch.insert("F", Value::atom(7777));
        server.apply(&batch).expect("apply");
        let snap = server.metrics_snapshot();
        assert!(snap.counter("prover.goals_total").unwrap_or(0) > 0);
        assert!(snap.counter("synth.runs_total").unwrap_or(0) > 0);
        assert!(snap.counter("ivm.applies_total").unwrap_or(0) > 0);
        assert!(snap.counter("serve.flushes_total").unwrap_or(0) > 0);
        assert_eq!(snap.gauge("serve.queue_depth"), Some(0));
        assert!(snap.gauge("serve.epoch").unwrap_or(0) >= 1);
        let flush = snap.histogram("serve.flush_seconds").expect("timer");
        assert!(flush.count > 0 && flush.quantile(0.99) >= flush.quantile(0.50));
        // and the Prometheus rendering carries the same families
        let text = server.metrics_text();
        for family in [
            "# TYPE nrs_prover_goals_total counter",
            "# TYPE nrs_ivm_applies_total counter",
            "# TYPE nrs_serve_flushes_total counter",
            "# TYPE nrs_serve_flush_seconds histogram",
            "nrs_serve_flush_seconds_bucket{le=\"+Inf\"}",
        ] {
            assert!(text.contains(family), "missing {family:?} in:\n{text}");
        }
    }

    #[test]
    fn workload_server_publishes_named_answers_in_one_epoch() {
        let problem = nrs_synthesis::overlapping_workload_problem(4);
        let rewriting = problem
            .derive_workload(&SynthesisConfig::default())
            .expect("workload rewriting exists");
        let base = partition_instance(20, 13);
        let server = ViewServer::builder()
            .serve_workload(&rewriting, &base)
            .expect("server");
        let snap = server.snapshot();
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.answers().len(), 4, "one named answer per query");
        // Q0 and Q3 are the same query: identical answers from the shared view
        assert_eq!(
            snap.answer_named(&Name::new("Q0")),
            snap.answer_named(&Name::new("Q3"))
        );
        assert!(snap.answer_named(&Name::new("Nope")).is_none());
        // one batch updates every answer at the same epoch
        let mut batch = UpdateBatch::new();
        batch.insert("S", Value::atom(8888));
        batch.insert("F", Value::atom(8888));
        let report = server.apply(&batch).expect("apply");
        assert_eq!(report.snapshot.epoch, 1);
        assert_eq!(report.answer_deltas.len(), 4);
        // Q0 (all of S) and Q1 (S ∩ F) both gained the new member
        for q in ["Q0", "Q1", "Q3"] {
            let (_, delta) = report
                .answer_deltas
                .iter()
                .find(|(n, _)| n == &Name::new(q))
                .expect("delta present");
            assert!(
                delta.inserts.contains(&Value::atom(8888)),
                "{q} delta: {delta:?}"
            );
        }
        assert!(server.cross_check(&rewriting).expect("oracle"));
        // coverage is reported per query, with the shared fragments visible
        let wc = server.coverage();
        assert_eq!(wc.answers.len(), 4);
        assert!(!wc.shared.is_empty(), "the fixture shares a fragment");
        assert!(wc.fully_incremental());
    }

    #[test]
    fn workload_server_with_writer_thread_converges() {
        let problem = nrs_synthesis::overlapping_workload_problem(2);
        let rewriting = problem
            .derive_workload(&SynthesisConfig::default())
            .expect("workload rewriting exists");
        let base = partition_instance(16, 21);
        let (server, writer) = ViewServer::builder()
            .batch_window(Duration::from_millis(1))
            .spawn_workload(&rewriting, &base)
            .expect("spawn");
        for i in 0..12u64 {
            let mut b = UpdateBatch::new();
            b.insert("S", Value::atom(30_000 + i));
            server.submit(&b).expect("submit");
        }
        let stats = writer.stop();
        assert_eq!(stats.batches, 12);
        assert_eq!(server.pending_len(), 0);
        assert!(server.cross_check(&rewriting).expect("oracle"));
        let snap = server.snapshot();
        for (name, _) in rewriting.queries() {
            assert!(snap.answer_named(name).is_some(), "answer {name} published");
        }
    }

    #[test]
    fn workload_without_queries_is_rejected_by_maintenance_and_serving() {
        let mut problem = nrs_synthesis::overlapping_workload_problem(1);
        problem.queries.clear();
        let rewriting = problem
            .derive_workload(&SynthesisConfig::default())
            .expect("an empty workload derives");
        assert!(rewriting.queries().is_empty());
        let base = partition_instance(8, 1);
        let err = MaintainedWorkload::new(&rewriting, &base).unwrap_err();
        assert!(matches!(err, SynthesisError::Ill(_)), "got {err}");
        let err = ViewServer::builder()
            .serve_workload(&rewriting, &base)
            .unwrap_err();
        assert!(
            matches!(err, NrsError::Synthesis(SynthesisError::Ill(_))),
            "got {err}"
        );
    }

    #[test]
    fn error_taxonomy_maps_prover_outcomes() {
        let timeout: NrsError = SynthesisError::ProofNotFound {
            purpose: "test".into(),
            error: ProofError::Timeout {
                elapsed_ms: 12,
                visited: 34,
            },
        }
        .into();
        assert!(
            matches!(
                timeout,
                NrsError::Timeout {
                    elapsed_ms: 12,
                    visited: 34
                }
            ),
            "got {timeout}"
        );
        assert!(timeout.is_transient());
        let budget: NrsError = SynthesisError::ProofNotFound {
            purpose: "test".into(),
            error: ProofError::BudgetExhausted("max_states=5".into()),
        }
        .into();
        assert!(
            matches!(budget, NrsError::BudgetExhausted(_)),
            "got {budget}"
        );
        assert!(!budget.is_transient());
        let cancelled: NrsError = SynthesisError::ProofNotFound {
            purpose: "test".into(),
            error: ProofError::Cancelled,
        }
        .into();
        assert!(matches!(cancelled, NrsError::Cancelled), "got {cancelled}");
        assert!(cancelled.is_transient());
    }
}
