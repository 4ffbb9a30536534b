//! Property-based equivalence: proving a family of sequents through one
//! shared [`ProverSession`] (warm failure memo, reused workers) must be
//! **provability-equivalent** to proving each sequent with a cold prover —
//! same Ok/Err verdict per sequent, and every returned proof still passes the
//! independent checker.  This is what makes cross-goal memo reuse safe in
//! practice: the memo key carries the search-relevant state, so away from
//! budget boundaries (where candidate discovery order can matter — see the
//! caveat in `search.rs`) a hit only prunes subtrees that would fail again.

use nrs_delta0::{Formula, InContext, MemAtom, Term};
use nrs_proof::{check_proof, Sequent};
use nrs_prover::{ProverConfig, ProverSession};
use proptest::prelude::*;

/// Small budgets keep the exhaustive-failure cases fast while staying far
/// from the state cap on these tiny formulas (an abort could otherwise make
/// verdicts budget-dependent).
fn cfg() -> ProverConfig {
    ProverConfig {
        max_risky: 2,
        max_formulas: 60,
        max_rewrites: 12,
        spec_limit: 16,
        max_states: 20_000,
        ..ProverConfig::default()
    }
}

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next() % items.len() as u64) as usize]
    }

    fn var(&mut self) -> Term {
        Term::var(*self.pick(&["x", "y", "z"]))
    }

    fn formula(&mut self, depth: usize) -> Formula {
        let leaf = depth == 0 || self.next().is_multiple_of(3);
        if leaf {
            match self.next() % 6 {
                0 | 1 => Formula::eq_ur(self.var(), self.var()),
                2 | 3 => Formula::neq_ur(self.var(), self.var()),
                4 => Formula::True,
                _ => Formula::False,
            }
        } else {
            let bound = *self.pick(&["S", "T"]);
            let var = *self.pick(&["v", "w"]);
            match self.next() % 4 {
                0 => Formula::and(self.formula(depth - 1), self.formula(depth - 1)),
                1 => Formula::or(self.formula(depth - 1), self.formula(depth - 1)),
                2 => Formula::forall(var, bound, self.formula(depth - 1)),
                _ => Formula::exists(var, bound, self.formula(depth - 1)),
            }
        }
    }

    fn sequent(&mut self) -> Sequent {
        let mut atoms = Vec::new();
        for (elem, set) in [("x", "S"), ("y", "S"), ("z", "T")] {
            if self.next().is_multiple_of(2) {
                atoms.push(MemAtom::new(elem, set));
            }
        }
        let assumptions: Vec<Formula> = (0..self.next() % 2).map(|_| self.formula(2)).collect();
        let goals: Vec<Formula> = (0..1 + self.next() % 2).map(|_| self.formula(2)).collect();
        Sequent::two_sided(InContext::from_atoms(atoms), assumptions, goals)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Session-cached search ≡ cold search on generated sequent families.
    #[test]
    fn prop_session_cached_search_is_provability_equivalent(seed in 0u64..100_000) {
        let mut gen = Gen(seed);
        let sequents: Vec<Sequent> = (0..4).map(|_| gen.sequent()).collect();

        let warm = ProverSession::new(cfg());
        for seq in &sequents {
            let warm_outcome = warm.prove_sequent(seq);
            let cold_outcome = ProverSession::new(cfg()).prove_sequent(seq);
            prop_assert!(
                warm_outcome.is_ok() == cold_outcome.is_ok(),
                "verdicts diverge on {}: warm {:?} vs cold {:?}",
                seq,
                warm_outcome.as_ref().map(|_| "Ok"),
                cold_outcome.as_ref().map(|_| "Ok")
            );
            if let Ok((proof, _)) = &warm_outcome {
                prop_assert!(
                    check_proof(proof).is_ok(),
                    "session-cached proof fails the checker on {seq}"
                );
                prop_assert!(&proof.conclusion == seq);
            }
            if let Ok((proof, _)) = &cold_outcome {
                prop_assert!(
                    check_proof(proof).is_ok(),
                    "cold proof fails the checker on {seq}"
                );
            }
        }
    }
}
