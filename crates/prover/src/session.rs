//! Reusable prover sessions.
//!
//! [`ProverSession`] owns everything worth keeping *between* proof-search
//! calls of one synthesis run:
//!
//! * the **failure memo** — sequents refuted while proving one goal prune the
//!   search for every later goal (and every later deepening level);
//! * one or more **long-lived worker threads** with the large stack the deep
//!   saturation recursion needs, so each `prove_sequent` call stops paying a
//!   256 MiB-stack thread spawn;
//! * the configuration, fixed at construction — memo entries are only valid
//!   for the budgets they were recorded under, so a session proves every goal
//!   with the same [`ProverConfig`].
//!
//! The caches are hash maps behind one lock.  A worker takes the lock once
//! per job (one [`prove_batch`] call) and lends the maps to the search, so
//! a probe takes no lock of its own.  Sessions are `Sync`: independent
//! goals may call [`prove_sequent`] from several threads, in which case idle
//! workers are reused and extra workers are spawned on demand, and their
//! jobs take turns on the caches.
//!
//! [`prove_batch`]: ProverSession::prove_batch
//! [`prove_sequent`]: ProverSession::prove_sequent

use crate::search::{prove_sequent_inner, ProverConfig, ProverStats, SearchCaches};
use nrs_delta0::{Formula, InContext};
use nrs_proof::{Proof, ProofError, Sequent};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Stack size for search workers: the saturation recursion uses one stack
/// frame per proof step, which can run deep on the synthesis goals.
const WORKER_STACK: usize = 256 * 1024 * 1024;

/// A unit of worker work: one or more sequents proved back-to-back on the
/// same worker.  Batches are how `nrs-synthesis` ships all per-depth goals
/// of one run in a single call — one dispatch, one warm walk over the
/// session's memo and specialization cache.
struct Job {
    seqs: Vec<Sequent>,
    reply: Sender<Vec<Result<(Proof, ProverStats), ProofError>>>,
}

struct SessionInner {
    cfg: ProverConfig,
    /// The session-lifetime caches (failure memo, specialization cache,
    /// rewrite-candidate cache, goal outcomes), held by a worker for the
    /// whole of a job.  Poisoning is recovered: a panicking search leaves at
    /// worst an entry missing, never a torn one, since entries go in whole.
    caches: Mutex<SearchCaches>,
    idle: Mutex<Vec<Sender<Job>>>,
    /// Cooperative cancellation token: set by [`ProverSession::cancel`],
    /// observed by every in-flight search at state-visit granularity.
    cancelled: AtomicBool,
}

/// A reusable handle to the proof-search engine.  See the module docs.
#[derive(Clone)]
pub struct ProverSession {
    inner: Arc<SessionInner>,
}

impl ProverSession {
    /// Create a session with the given budgets.
    pub fn new(cfg: ProverConfig) -> ProverSession {
        ProverSession {
            inner: Arc::new(SessionInner {
                cfg,
                caches: Mutex::default(),
                idle: Mutex::new(Vec::new()),
                cancelled: AtomicBool::new(false),
            }),
        }
    }

    /// The budgets every goal of this session is proved under.
    pub fn config(&self) -> &ProverConfig {
        &self.inner.cfg
    }

    /// The caches, once no job holds them.
    fn caches(&self) -> MutexGuard<'_, SearchCaches> {
        lock_caches(&self.inner)
    }

    /// Number of refuted search states currently memoized.
    pub fn memo_len(&self) -> usize {
        self.caches().memo.len()
    }

    /// Number of cached ≠-rewrite candidates.  Grows while goals are proved
    /// and persists across [`ProverSession::prove_batch`] calls — later
    /// goals of a warm session answer most candidate probes from here.
    pub fn rewrite_cache_len(&self) -> usize {
        self.caches().rewrites.len()
    }

    /// Number of cached specialization enumerations.
    pub fn spec_cache_len(&self) -> usize {
        self.caches().specs.len()
    }

    /// Audit the specialization and rewrite caches: re-derive every entry
    /// from its key and compare.  The caches keep only what the search
    /// reads — interned results with their precomputed ranks — so this
    /// checks that they still say what `max_specializations` and the ≠
    /// rewrite say.  Returns the numbers of specialization and rewrite
    /// entries checked, or the first disagreement.
    pub fn verify_caches(&self) -> Result<(usize, usize), String> {
        self.caches().verify(&self.inner.cfg)
    }

    /// Number of root goals this session has settled (proved or exhausted);
    /// re-proving any of them replays the remembered outcome without
    /// searching.
    pub fn goal_cache_len(&self) -> usize {
        self.caches().goals.len()
    }

    /// Cooperatively cancel every in-flight and future search of this
    /// session (and its clones — the token is shared).  In-flight goals stop
    /// at their next state visit and report [`ProofError::Cancelled`];
    /// cancelled outcomes are never cached, and the session's warm caches
    /// survive, so after [`ProverSession::reset_cancel`] the session is as
    /// good as before.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Has [`ProverSession::cancel`] been called (without a reset since)?
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Clear the cancellation token, making the session (with its warm
    /// caches) usable for new goals again.
    pub fn reset_cancel(&self) {
        self.inner.cancelled.store(false, Ordering::SeqCst);
    }

    /// Prove `Θ ; ⊢ Δ` (one-sided), returning a checked proof object.  Runs
    /// on one of the session's big-stack workers; concurrent calls get
    /// workers of their own, whose jobs take turns on the caches.
    pub fn prove_sequent(&self, sequent: &Sequent) -> Result<(Proof, ProverStats), ProofError> {
        self.prove_batch(std::slice::from_ref(sequent))
            .pop()
            .expect("one result per sequent")
    }

    /// Prove a batch of sequents in one worker dispatch: the goals run
    /// back-to-back on the same big-stack worker, each pruned by the failures
    /// (and warmed by the specialization cache) of the ones before it.
    /// Results come back in input order.  The batch **short-circuits**: a
    /// failed goal fails the whole run for the callers this serves (the
    /// batched synthesis goals), so the remaining sequents are not searched
    /// and report a "skipped" error instead.  This is the call
    /// `nrs-synthesis` funnels the per-depth goals of one synthesis run
    /// through.
    pub fn prove_batch(
        &self,
        sequents: &[Sequent],
    ) -> Vec<Result<(Proof, ProverStats), ProofError>> {
        if sequents.is_empty() {
            return Vec::new();
        }
        if self.is_cancelled() {
            return sequents
                .iter()
                .map(|_| Err(ProofError::Cancelled))
                .collect();
        }
        let worker = match self
            .inner
            .idle
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop()
        {
            Some(w) => w,
            None => match self.spawn_worker() {
                Ok(w) => w,
                Err(e) => return sequents.iter().map(|_| Err(e.clone())).collect(),
            },
        };
        let (reply_tx, reply_rx) = channel();
        if worker
            .send(Job {
                seqs: sequents.to_vec(),
                reply: reply_tx,
            })
            .is_err()
        {
            return sequents
                .iter()
                .map(|_| {
                    Err(ProofError::SearchFailed(
                        "prover worker exited unexpectedly".into(),
                    ))
                })
                .collect();
        }
        let Ok(out) = reply_rx.recv() else {
            return sequents
                .iter()
                .map(|_| {
                    Err(ProofError::SearchFailed(
                        "proof search thread panicked".into(),
                    ))
                })
                .collect();
        };
        // Only a worker that answered goes back in the pool; a panicked one
        // is simply dropped (its channel closed with it).
        self.inner
            .idle
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(worker);
        out
    }

    /// Convenience wrapper: prove that `assumptions` entail one of `goals`
    /// under the membership context `ctx` (a two-sided sequent `Θ; Γ ⊢ Δ`).
    pub fn prove(
        &self,
        ctx: &InContext,
        assumptions: &[Formula],
        goals: &[Formula],
    ) -> Result<(Proof, ProverStats), ProofError> {
        let seq = Sequent::two_sided(
            ctx.clone(),
            assumptions.iter().cloned(),
            goals.iter().cloned(),
        );
        self.prove_sequent(&seq)
    }

    fn spawn_worker(&self) -> Result<Sender<Job>, ProofError> {
        let (job_tx, job_rx) = channel::<Job>();
        // The worker must hold the session state *weakly*: its own job sender
        // lives in `SessionInner.idle`, so a strong reference here would form
        // a cycle that kept every worker thread (and the memo) alive after
        // the last session handle is dropped.  With a weak reference, the
        // drop of the last handle drops the idle senders, `recv` disconnects,
        // and the workers exit.
        let inner = Arc::downgrade(&self.inner);
        std::thread::Builder::new()
            .name("nrs-prover-worker".into())
            .stack_size(WORKER_STACK)
            .spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    // the caller holds a session handle for the duration of
                    // its call, so an upgrade failure means the session is
                    // gone and nobody is waiting for replies
                    let Some(inner) = inner.upgrade() else { break };
                    let mut caches = lock_caches(&inner);
                    let mut results = Vec::with_capacity(job.seqs.len());
                    let mut failed = false;
                    for seq in &job.seqs {
                        if failed {
                            results.push(Err(ProofError::SearchFailed(
                                "skipped: an earlier goal of the batch failed".into(),
                            )));
                            continue;
                        }
                        let out = prove_sequent_inner(
                            seq,
                            &inner.cfg,
                            &mut caches,
                            Some(&inner.cancelled),
                        );
                        failed = out.is_err();
                        results.push(out);
                    }
                    drop(caches);
                    drop(inner);
                    // a dropped receiver just means the caller gave up
                    let _ = job.reply.send(results);
                }
            })
            .map_err(|e| ProofError::SearchFailed(format!("could not spawn search worker: {e}")))?;
        Ok(job_tx)
    }
}

/// Lock a session's caches, recovering them from a panicked job.
fn lock_caches(inner: &SessionInner) -> MutexGuard<'_, SearchCaches> {
    inner.caches.lock().unwrap_or_else(PoisonError::into_inner)
}

impl std::fmt::Debug for ProverSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProverSession")
            .field("cfg", &self.inner.cfg)
            .field("memo_len", &self.memo_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrs_delta0::MemAtom;
    use nrs_proof::check_proof;

    #[test]
    fn session_reuses_workers_and_memo() {
        let session = ProverSession::new(ProverConfig::quick());
        let ctx = InContext::from_atoms([MemAtom::new("x", "S")]);
        let goal = Formula::exists("z", "S", Formula::eq_ur("z", "x"));
        let (p1, _s1) = session
            .prove(&ctx, &[], std::slice::from_ref(&goal))
            .unwrap();
        assert!(check_proof(&p1).is_ok());
        let (p2, s2) = session.prove(&ctx, &[], &[goal]).unwrap();
        assert!(check_proof(&p2).is_ok());
        assert_eq!(p1, p2, "replayed goal returns the identical proof");
        assert_eq!(s2.visited, 0, "second run replays from the goal cache");
        assert_eq!(s2.goal_cache_hits, 1);
        assert_eq!(session.goal_cache_len(), 1);
        // an invalid goal populates the memo…
        let bad = Formula::forall("z", "S", Formula::eq_ur("z", "x"));
        assert!(session
            .prove(&ctx, &[], std::slice::from_ref(&bad))
            .is_err());
        let memo_after_first = session.memo_len();
        assert!(memo_after_first > 0);
        // …and the second failing run is pruned by it
        assert!(session.prove(&ctx, &[], &[bad]).is_err());
    }

    #[test]
    fn a_session_keeps_serving_after_a_panic_poisons_its_caches() {
        let session = ProverSession::new(ProverConfig::quick());
        let ctx = InContext::from_atoms([MemAtom::new("x", "S")]);
        let goal = Formula::exists("z", "S", Formula::eq_ur("z", "x"));
        session
            .prove(&ctx, &[], std::slice::from_ref(&goal))
            .unwrap();
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _caches = lock_caches(&session.inner);
                    panic!("a job panics while it holds the caches");
                })
                .join()
                .is_err()
        });
        assert!(panicked && session.inner.caches.is_poisoned());
        // the warm entries survive and new goals are searched and cached
        assert_eq!(session.goal_cache_len(), 1);
        let (_, replay) = session.prove(&ctx, &[], &[goal]).unwrap();
        assert_eq!(replay.goal_cache_hits, 1);
        let bad = Formula::forall("z", "S", Formula::eq_ur("z", "x"));
        assert!(session.prove(&ctx, &[], &[bad]).is_err());
        assert!(session.memo_len() > 0);
        assert_eq!(session.goal_cache_len(), 2);
        assert!(session.verify_caches().is_ok());
    }

    #[test]
    fn concurrent_goals_share_one_session() {
        let session = ProverSession::new(ProverConfig::quick());
        let goals: Vec<Formula> = (0..4)
            .map(|i| {
                Formula::or(
                    Formula::eq_ur(format!("x{i}").as_str(), "y"),
                    Formula::neq_ur(format!("x{i}").as_str(), "y"),
                )
            })
            .collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = goals
                .iter()
                .map(|g| {
                    let session = &session;
                    scope.spawn(move || {
                        session.prove(&InContext::new(), &[], std::slice::from_ref(g))
                    })
                })
                .collect();
            for h in handles {
                let (proof, _) = h.join().unwrap().unwrap();
                assert!(check_proof(&proof).is_ok());
            }
        });
    }
}
