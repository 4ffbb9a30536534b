//! Deterministic fault injection for the maintenance engine.
//!
//! Compiled in only with the **`fault-injection`** feature; without it every
//! hook compiles to a no-op and the engine carries zero overhead.  With the
//! feature on, a thread-local [`FaultPlan`] arms the instrumentation sites
//! the engine (and `nrs-serve`) call at operator-apply and lock/publish
//! points.  Each call while a plan is armed counts as one **hit**; the plan
//! fires exactly once, at its chosen hit, returning
//! [`IvmError::FaultInjected`] from that site.
//!
//! The intended protocol — used by the chaos proptests — is:
//!
//! 1. run the workload once under [`FaultPlan::count_only`] to learn how
//!    many sites a batch reaches (`hits`);
//! 2. re-run it once per reachable site under [`FaultPlan::fail_nth`],
//!    asserting after each injected failure that readers still see the old
//!    epoch, the engine reports a degraded (not corrupt) operator, and the
//!    next clean batch converges to the naive oracle.
//!
//! Plans are **thread-local**: arming a plan affects only maintenance work
//! performed on the current thread, so concurrent reader threads in a test
//! are never faulted by accident.  `FaultScope` is the RAII way to arm a
//! plan for one workload run.
//!
//! The pipelined server runs maintenance on a dedicated **writer thread**
//! the test never executes on, so thread-local plans can't reach it.  For
//! that one case a **process-global** plan (`install_global` /
//! `GlobalFaultScope`, compiled in with the feature) is consulted by any
//! thread whose local plan is not armed.  Global plans follow the same count/fire protocol; a thread-local
//! plan, when armed, shadows the global one on its thread (keeping the
//! established single-threaded chaos tests deterministic even if both are
//! armed).

use crate::IvmError;

/// When (at which instrumented hit) a fault fires.  See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    fail_at: Option<u64>,
    persistent: bool,
}

impl FaultPlan {
    /// Count instrumentation hits without ever firing — the discovery pass.
    pub fn count_only() -> FaultPlan {
        FaultPlan {
            fail_at: None,
            persistent: false,
        }
    }

    /// Fire at the `n`-th hit (0-based), once.
    pub fn fail_nth(n: u64) -> FaultPlan {
        FaultPlan {
            fail_at: Some(n),
            persistent: false,
        }
    }

    /// Fire at the `n`-th hit (0-based) **and at every hit after it** — a
    /// persistent failure rather than a one-shot glitch.  This is how the
    /// chaos suite models a subsystem that stays broken (e.g. a flush that
    /// fails on every retry), exercising give-up paths like the writer
    /// thread's bounded shutdown drain.
    pub fn fail_from(n: u64) -> FaultPlan {
        FaultPlan {
            fail_at: Some(n),
            persistent: true,
        }
    }

    /// Derive a single-shot plan from a seed: fires at hit `seed % sites`.
    /// `sites` is the hit count a [`count_only`][FaultPlan::count_only]
    /// discovery pass reported for the same workload.
    pub fn seeded(seed: u64, sites: u64) -> FaultPlan {
        FaultPlan::fail_nth(seed % sites.max(1))
    }
}

#[cfg(feature = "fault-injection")]
mod armed {
    use super::FaultPlan;
    use std::cell::RefCell;

    #[derive(Default)]
    pub(super) struct State {
        pub(super) armed: bool,
        pub(super) fail_at: Option<u64>,
        pub(super) persistent: bool,
        pub(super) hits: u64,
        pub(super) fired: Option<&'static str>,
    }

    thread_local! {
        pub(super) static STATE: RefCell<State> = RefCell::new(State::default());
    }

    pub(super) fn install(plan: FaultPlan) {
        STATE.with(|s| {
            *s.borrow_mut() = State {
                armed: true,
                fail_at: plan.fail_at,
                persistent: plan.persistent,
                hits: 0,
                fired: None,
            };
        });
    }

    pub(super) fn uninstall() -> u64 {
        STATE.with(|s| {
            let mut st = s.borrow_mut();
            st.armed = false;
            st.fail_at = None;
            st.hits
        })
    }

    pub(super) static GLOBAL: std::sync::Mutex<State> = std::sync::Mutex::new(State {
        armed: false,
        fail_at: None,
        persistent: false,
        hits: 0,
        fired: None,
    });

    pub(super) fn install_global(plan: FaultPlan) {
        let mut st = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
        *st = State {
            armed: true,
            fail_at: plan.fail_at,
            persistent: plan.persistent,
            hits: 0,
            fired: None,
        };
    }

    pub(super) fn uninstall_global() -> u64 {
        let mut st = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
        st.armed = false;
        st.fail_at = None;
        st.hits
    }
}

/// Arm `plan` on the current thread, resetting the hit counter.  Replaces
/// any previously armed plan.
#[cfg(feature = "fault-injection")]
pub fn install(plan: FaultPlan) {
    armed::install(plan);
}

/// Disarm the current thread's plan; returns how many hits were counted
/// since [`install`].
#[cfg(feature = "fault-injection")]
pub fn uninstall() -> u64 {
    armed::uninstall()
}

/// Hits counted since the last [`install`] (the counter keeps running after
/// the plan fires, so a discovery pass and an injection pass agree).
#[cfg(feature = "fault-injection")]
pub fn hits() -> u64 {
    armed::STATE.with(|s| s.borrow().hits)
}

/// The site the armed plan fired at, if it has fired.
#[cfg(feature = "fault-injection")]
pub fn fired() -> Option<&'static str> {
    armed::STATE.with(|s| s.borrow().fired)
}

/// Arm `plan` **process-wide**: every thread whose local plan is not armed
/// (notably the server's writer thread) counts against — and can be failed
/// by — this plan.  Replaces any previous global plan and
/// resets its hit counter.
#[cfg(feature = "fault-injection")]
pub fn install_global(plan: FaultPlan) {
    armed::install_global(plan);
}

/// Disarm the process-global plan; returns how many hits it counted since
/// [`install_global`].
#[cfg(feature = "fault-injection")]
pub fn uninstall_global() -> u64 {
    armed::uninstall_global()
}

/// Hits counted by the global plan since the last [`install_global`].
#[cfg(feature = "fault-injection")]
pub fn global_hits() -> u64 {
    armed::GLOBAL.lock().unwrap_or_else(|p| p.into_inner()).hits
}

/// The site the global plan fired at, if it has fired.
#[cfg(feature = "fault-injection")]
pub fn global_fired() -> Option<&'static str> {
    armed::GLOBAL
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .fired
}

/// RAII guard for a process-global plan: arms on construction, disarms on
/// drop.  Tests arming this must not run concurrently with any other test
/// that reaches a `hit()` site (`cargo test` runs each *test binary*'s tests
/// in one process), so they live in binaries of their own
/// (`tests/global_fault.rs` here, `pipeline_chaos.rs` in `nrs-serve`) and
/// serialize among themselves.
#[cfg(feature = "fault-injection")]
pub struct GlobalFaultScope {
    _priv: (),
}

#[cfg(feature = "fault-injection")]
impl GlobalFaultScope {
    /// Arm `plan` globally for the lifetime of the guard.
    pub fn new(plan: FaultPlan) -> GlobalFaultScope {
        install_global(plan);
        GlobalFaultScope { _priv: () }
    }

    /// Hits counted so far under this scope.
    pub fn hits(&self) -> u64 {
        global_hits()
    }
}

#[cfg(feature = "fault-injection")]
impl Drop for GlobalFaultScope {
    fn drop(&mut self) {
        armed::uninstall_global();
    }
}

/// RAII guard: arms `plan` on construction, disarms on drop (also on
/// panic/early-return, keeping proptest iterations independent).
#[cfg(feature = "fault-injection")]
pub struct FaultScope {
    _priv: (),
}

#[cfg(feature = "fault-injection")]
impl FaultScope {
    /// Arm `plan` for the lifetime of the guard.
    pub fn new(plan: FaultPlan) -> FaultScope {
        install(plan);
        FaultScope { _priv: () }
    }

    /// Hits counted so far under this scope.
    pub fn hits(&self) -> u64 {
        hits()
    }
}

#[cfg(feature = "fault-injection")]
impl Drop for FaultScope {
    fn drop(&mut self) {
        armed::uninstall();
    }
}

/// Instrumentation hook.  Sites are cheap string constants like
/// `"ivm.join.apply"`; the engine calls this at the top of every operator
/// delta rule, `nrs-serve` at its lock/publish points.
#[cfg(feature = "fault-injection")]
#[inline]
pub fn hit(site: &'static str) -> Result<(), IvmError> {
    let local = armed::STATE.with(|s| {
        let mut st = s.borrow_mut();
        if !st.armed {
            return None;
        }
        let n = st.hits;
        st.hits += 1;
        if st.fail_at.is_some_and(|k| n >= k) {
            // one-shot plans keep counting but never fire again; persistent
            // plans fire at every hit from `fail_at` on
            if !st.persistent {
                st.fail_at = None;
            }
            st.fired = Some(site);
            return Some(Err(IvmError::FaultInjected { site }));
        }
        Some(Ok(()))
    });
    if let Some(outcome) = local {
        return outcome;
    }
    // the thread-local plan is not armed on this thread — fall back to the
    // process-global plan (inert unless a chaos test armed it)
    let mut st = armed::GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
    if !st.armed {
        return Ok(());
    }
    let n = st.hits;
    st.hits += 1;
    if st.fail_at.is_some_and(|k| n >= k) {
        if !st.persistent {
            st.fail_at = None;
        }
        st.fired = Some(site);
        return Err(IvmError::FaultInjected { site });
    }
    Ok(())
}

/// Instrumentation hook — no-op without the `fault-injection` feature.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn hit(_site: &'static str) -> Result<(), IvmError> {
    Ok(())
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    #[test]
    fn plan_fires_exactly_once_at_the_chosen_hit() {
        let scope = FaultScope::new(FaultPlan::fail_nth(1));
        assert!(hit("a").is_ok());
        let e = hit("b").unwrap_err();
        assert!(matches!(e, IvmError::FaultInjected { site: "b" }));
        assert!(hit("c").is_ok(), "one-shot plans never fire twice");
        assert_eq!(scope.hits(), 3);
        assert_eq!(fired(), Some("b"));
        drop(scope);
        assert!(hit("d").is_ok(), "disarmed hooks are inert");
    }

    #[test]
    fn persistent_plan_fires_at_every_hit_from_its_start() {
        let scope = FaultScope::new(FaultPlan::fail_from(2));
        assert!(hit("a").is_ok());
        assert!(hit("b").is_ok());
        for _ in 0..3 {
            let e = hit("c").unwrap_err();
            assert!(matches!(e, IvmError::FaultInjected { site: "c" }));
        }
        assert_eq!(scope.hits(), 5);
        assert_eq!(fired(), Some("c"));
        drop(scope);
        assert!(hit("d").is_ok(), "disarmed persistent plans are inert");
    }

    #[test]
    fn count_only_never_fires() {
        let scope = FaultScope::new(FaultPlan::count_only());
        for _ in 0..10 {
            assert!(hit("x").is_ok());
        }
        assert_eq!(scope.hits(), 10);
        assert_eq!(fired(), None);
    }
}
