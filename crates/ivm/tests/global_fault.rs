//! The process-global fault plan, tested in a binary of its own.
//!
//! A global plan counts the `hit()` calls of every thread whose local plan is
//! not armed, so any other test running concurrently in the same process
//! (the lib unit tests, the chaos suite) would add hits to it and move the
//! hit it fires at.  Keeping this test alone in its binary makes the count
//! exact.

#![cfg(feature = "fault-injection")]

use nrs_ivm::fault::{global_fired, hit, FaultPlan, FaultScope, GlobalFaultScope};
use nrs_ivm::IvmError;

#[test]
fn global_plan_reaches_other_threads_and_is_shadowed_locally() {
    let scope = GlobalFaultScope::new(FaultPlan::fail_nth(1));
    // another thread, no local plan: counts against the global plan
    std::thread::spawn(|| {
        assert!(hit("w0").is_ok());
        let e = hit("w1").unwrap_err();
        assert!(matches!(e, IvmError::FaultInjected { site: "w1" }));
        assert!(hit("w2").is_ok(), "global plans are one-shot too");
    })
    .join()
    .unwrap();
    assert_eq!(scope.hits(), 3);
    assert_eq!(global_fired(), Some("w1"));
    // an armed local plan shadows the global one on its thread
    {
        let local = FaultScope::new(FaultPlan::count_only());
        assert!(hit("local").is_ok());
        assert_eq!(local.hits(), 1);
        assert_eq!(scope.hits(), 3, "shadowed: the global count is frozen");
    }
    drop(scope);
    assert!(hit("idle").is_ok(), "disarmed global plans are inert");
}
