//! Hash-consing of Δ0 syntax: [`Term`](crate::Term)s and
//! [`Formula`](crate::Formula)s intern their children through
//! [`nrs_shared`], so structurally equal nodes are pointer-equal and carry
//! cached hashes and free-variable sets.  Test-only: the machinery itself
//! lives in `nrs-shared`.

mod tests {
    use crate::{Formula, Term};
    use nrs_shared::{empty_name_set, intern_stats, union_name_sets, Shared};
    use nrs_value::Name;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    #[test]
    fn interning_dedupes_structurally_equal_nodes() {
        let a = Formula::and(Formula::eq_ur("x", "y"), Formula::True);
        let b = Formula::and(Formula::eq_ur("x", "y"), Formula::True);
        // the two conjunctions were built independently, yet share children
        match (&a, &b) {
            (Formula::And(l1, r1), Formula::And(l2, r2)) => {
                assert!(l1.ptr_eq(l2));
                assert!(r1.ptr_eq(r2));
                assert_eq!(l1.hash64(), l2.hash64());
            }
            _ => unreachable!(),
        }
        assert_eq!(a, b);
    }

    #[test]
    fn interner_counts_hits_and_misses() {
        let before = intern_stats();
        // a fresh, never-before-interned term (uses a unique name)
        let t = Term::proj1(Term::var("shared_rs_unique_counter_probe"));
        let mid = intern_stats();
        assert!(mid.misses > before.misses);
        let u = Term::proj1(Term::var("shared_rs_unique_counter_probe"));
        let after = intern_stats();
        assert!(after.hits > mid.hits);
        assert_eq!(t, u);
    }

    #[test]
    fn free_vars_are_cached_and_correct() {
        let f = Formula::exists("v", "S", Formula::eq_ur(Term::var("v"), Term::var("w")));
        match &f {
            Formula::Exists { body, .. } => {
                let fv = body.free_vars_set();
                assert!(fv.contains(&Name::new("v")));
                assert!(fv.contains(&Name::new("w")));
                // second call returns the identical cached Arc
                assert!(Arc::ptr_eq(fv, body.free_vars_set()));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn reinterning_returns_the_same_node() {
        let make = || Shared::new(Term::proj2(Term::var("shared_rs_reintern_probe")));
        // the handle is a temporary, gone at the end of the statement
        let addr: *const Term = make().value();
        // nodes are immortal: interning again returns the node it pointed at
        assert!(std::ptr::eq(addr, make().value()));
    }

    #[test]
    fn formula_handles_are_one_word_without_drop_glue() {
        assert_eq!(std::mem::size_of::<Shared<Formula>>(), 8);
        assert!(!std::mem::needs_drop::<Shared<Formula>>());
        assert!(!std::mem::needs_drop::<Shared<Term>>());
    }

    #[test]
    fn name_set_helpers_are_reexported() {
        let e = empty_name_set();
        assert!(e.is_empty());
        let a: Arc<BTreeSet<Name>> = Arc::new([Name::new("a")].into_iter().collect());
        assert!(Arc::ptr_eq(&union_name_sets(&a, &e), &a));
    }
}
