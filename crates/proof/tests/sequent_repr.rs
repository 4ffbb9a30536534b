//! The incremental representation of a sequent agrees with a from-scratch
//! build of the same set.
//!
//! A sequent is edited in place along a proof-search branch (`insert`,
//! `with_formula`, `without_formula`, `with_atom`), keeping a sorted side of
//! interned handles, an order-independent hash and an occurrence index up to
//! date at every step.  Random edit sequences from a seeded generator must
//! end in exactly the sequent that [`Sequent::new`] builds from the final
//! context and set: the same side order, equality, hash and memo key, and
//! the same index, which must equal the plain filters it stands for.  A
//! premise built by a rule must hold the very nodes its conclusion holds,
//! and membership by handle (pointer) must agree with membership by value.

use nrs_delta0::{Formula, InContext, MemAtom, Shared, Term};
use nrs_proof::{Rule, Sequent};
use nrs_value::Name;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

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

    /// Variables, projections, pairs and the ground unit, so that literals
    /// mention zero, one or several variables (and some ≠ have a ground
    /// left term).
    fn term(&mut self) -> Term {
        match self.next() % 6 {
            0..=2 => Term::var(*self.pick(&["x", "y", "z"])),
            3 => Term::proj1(Term::var(*self.pick(&["x", "y"]))),
            4 => Term::pair(self.term(), Term::Unit),
            _ => Term::Unit,
        }
    }

    fn formula(&mut self, depth: usize) -> Formula {
        let leaf = depth == 0 || self.next().is_multiple_of(2);
        if leaf {
            match self.next() % 8 {
                0..=2 => Formula::eq_ur(self.term(), self.term()),
                3..=5 => Formula::neq_ur(self.term(), self.term()),
                6 => Formula::True,
                _ => Formula::False,
            }
        } else {
            let bound = *self.pick(&["S", "T"]);
            match self.next() % 4 {
                0 => Formula::and(self.formula(depth - 1), self.formula(depth - 1)),
                1 => Formula::or(self.formula(depth - 1), self.formula(depth - 1)),
                2 => Formula::forall("v", bound, self.formula(depth - 1)),
                _ => Formula::exists("v", bound, self.formula(depth - 1)),
            }
        }
    }

    fn atom(&mut self) -> MemAtom {
        MemAtom::new(*self.pick(&["x", "y", "z"]), *self.pick(&["S", "T"]))
    }
}

fn hash_of(x: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// The formulas a random edit sequence ends with, tracked as a plain set.
fn edited(gen: &mut Gen) -> (Sequent, InContext, BTreeSet<Formula>) {
    let mut seq = Sequent::goals(Vec::<Formula>::new());
    let mut ctx = InContext::new();
    let mut set = BTreeSet::new();
    for _ in 0..gen.next() % 16 {
        match gen.next() % 5 {
            0 => {
                let f = gen.formula(2);
                set.insert(f.clone());
                seq.insert(f);
            }
            1 => {
                let f = gen.formula(2);
                set.insert(f.clone());
                seq = seq.with_formula(Shared::new(f));
            }
            2 | 3 => {
                // remove a present formula most of the time, an absent one
                // otherwise
                let present: Vec<Formula> = set.iter().cloned().collect();
                let f = if present.is_empty() || gen.next().is_multiple_of(4) {
                    gen.formula(1)
                } else {
                    gen.pick(&present).clone()
                };
                set.remove(&f);
                seq = seq.without_formula(&f);
            }
            _ => {
                let a = gen.atom();
                ctx.insert(a.clone());
                seq = seq.with_atom(a);
            }
        }
    }
    (seq, ctx, set)
}

fn mentions(f: &Formula, v: &Name) -> bool {
    f.free_vars().contains(v)
}

#[test]
fn edited_sequents_equal_their_from_scratch_builds() {
    for seed in 0..400 {
        let mut gen = Gen(seed);
        let (seq, ctx, set) = edited(&mut gen);
        // the reverse insertion order must not matter to the build
        let fresh = Sequent::new(ctx, set.iter().rev().cloned());
        let values =
            |s: &Sequent| -> Vec<Formula> { s.rhs().iter().map(|f| f.value().clone()).collect() };
        let sorted: Vec<Formula> = set.iter().cloned().collect();
        assert_eq!(values(&seq), sorted, "seed {seed}: side order");
        assert_eq!(values(&fresh), sorted, "seed {seed}: side order");
        assert_eq!(seq, fresh, "seed {seed}");
        assert_eq!(hash_of(&seq), hash_of(&fresh), "seed {seed}: hash");
        assert_eq!(seq.key(), fresh.key(), "seed {seed}: key");
        assert_eq!(hash_of(&seq.key()), hash_of(&seq), "seed {seed}: key hash");
        assert_eq!(
            hash_of(&fresh.key()),
            hash_of(&seq),
            "seed {seed}: key hash"
        );

        for s in [&seq, &fresh] {
            for v in ["x", "y", "z", "v", "S", "T"].map(Name::new) {
                let filtered: Vec<&Shared<Formula>> =
                    s.eq_literals().iter().filter(|f| mentions(f, &v)).collect();
                let bucket: Vec<&Shared<Formula>> = s.eq_literals_with_var(&v).iter().collect();
                assert_eq!(bucket, filtered, "seed {seed}: bucket of {v}");
            }
            let ground: Vec<&Shared<Formula>> = s
                .inequalities()
                .iter()
                .filter(|f| matches!(f.value(), Formula::NeqUr(t, _) if t.is_ground()))
                .collect();
            let tracked: Vec<&Shared<Formula>> = s.ground_lhs_inequalities().iter().collect();
            assert_eq!(tracked, ground, "seed {seed}: ground-lhs inequalities");
        }
    }
}

/// Every formula a premise shares with its conclusion is the same node.
fn assert_shares_nodes(conclusion: &Sequent, premise: &Sequent, what: &str) {
    for f in premise.rhs() {
        if let Some(g) = conclusion.rhs().iter().find(|g| g.value() == f.value()) {
            assert!(f.ptr_eq(g), "{what}: {f} is a copy in the premise");
        }
    }
}

#[test]
fn premises_hold_their_conclusions_nodes() {
    let mut checked = 0;
    for seed in 0..400 {
        let mut gen = Gen(seed);
        let (seq, _, _) = edited(&mut gen);
        let seq = seq.with_atom(MemAtom::new("m", "S"));
        for f in seq.rhs() {
            let rule = match f.value() {
                Formula::And(_, _) => Rule::And { conj: f.clone() },
                Formula::Or(_, _) => Rule::Or { disj: f.clone() },
                Formula::Forall { .. } => Rule::Forall {
                    quant: f.clone(),
                    witness: Name::new("w#99"),
                },
                _ => continue,
            };
            for premise in rule.premises_unchecked(&seq) {
                assert_shares_nodes(&seq, &premise, rule.name());
                checked += 1;
            }
        }
        let extra = gen.formula(1);
        assert_shares_nodes(&seq, &seq.with_formula(extra), "with_formula");
        if let Some(f) = seq.rhs().first() {
            let removed = seq.without_formula(f);
            assert_shares_nodes(&seq, &removed, "without_formula");
        }
    }
    assert!(checked > 100, "only {checked} premises were generated");
}

/// Pointer membership agrees with structural membership, for the members of
/// an edited sequent and for random formulas (mostly non-members).
#[test]
fn handle_membership_agrees_with_structural_membership() {
    let (mut members, mut others) = (0, 0);
    for seed in 0..400 {
        let mut gen = Gen(seed);
        let (seq, _, set) = edited(&mut gen);
        for f in &set {
            assert!(
                seq.contains_handle(&Shared::new(f.clone())),
                "seed {seed}: {f}"
            );
            members += 1;
        }
        for _ in 0..8 {
            let f = gen.formula(2);
            let expected = set.contains(&f);
            assert_eq!(seq.contains(&f), expected, "seed {seed}: {f}");
            assert_eq!(
                seq.contains_handle(&Shared::new(f)),
                expected,
                "seed {seed}"
            );
            others += usize::from(!expected);
        }
    }
    assert!(
        members > 100 && others > 100,
        "{members} members, {others} others"
    );
}
