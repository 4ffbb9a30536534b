//! The incremental representation of a sequent agrees with a from-scratch
//! build of the same set.
//!
//! A sequent is edited in place along a proof-search branch (`insert`,
//! `with_formula`, `without_formula`, `with_atom`, and the combined
//! `replaced` a rule premise makes), keeping a sorted side of interned
//! handles, its kind-group starts, an order-independent hash and a count of
//! ground-lhs `≠` literals up to date at every step.  Random edit sequences
//! from a seeded generator must end in exactly the sequent that
//! [`Sequent::new`] builds from the final context and set: the same side
//! order, equality, hash and memo key.  The sequent keeps no occurrence
//! index; its per-variable and ground-lhs views filter the literal slices
//! when read, and must equal the plain filters of the side that they stand
//! for (the filters an occurrence index once held).  A premise built by a
//! rule must hold the very nodes its conclusion holds, and membership by
//! handle (pointer) must agree with membership by value.

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
            for premise in rule.premises_unchecked(&seq).iter() {
                assert_shares_nodes(&seq, premise, rule.name());
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

fn slice(s: &[Shared<Formula>]) -> Vec<&Shared<Formula>> {
    s.iter().collect()
}

/// The kind slices, the variable and ground-lhs views and the hash of `seq`
/// are exactly what a plain filter of its side and a from-scratch build give.
fn assert_representation(seq: &Sequent, what: &str) {
    let side = seq.rhs();
    let ranked = |lo: u8, hi: u8| -> Vec<&Shared<Formula>> {
        side.iter()
            .filter(|f| (lo..=hi).contains(&f.variant_rank()))
            .collect()
    };
    assert_eq!(slice(seq.equalities()), ranked(0, 0), "{what}: =");
    assert_eq!(slice(seq.inequalities()), ranked(1, 1), "{what}: ≠");
    assert_eq!(slice(seq.eq_literals()), ranked(0, 1), "{what}: literals");
    assert_eq!(slice(seq.existentials()), ranked(7, 7), "{what}: ∃");
    assert_eq!(
        seq.first_invertible(),
        ranked(4, 6).first().copied(),
        "{what}: first ∧/∨/∀"
    );
    assert_eq!(
        seq.rhs_all_el(),
        ranked(2, 2).is_empty() && ranked(4, 6).is_empty(),
        "{what}: EL side condition"
    );
    for f in side {
        assert!(seq.contains_handle(f), "{what}: {f} by handle");
    }
    for v in ["x", "y", "z", "v", "w#7", "S", "T"].map(Name::new) {
        let filtered: Vec<&Shared<Formula>> = seq
            .eq_literals()
            .iter()
            .filter(|f| mentions(f, &v))
            .collect();
        let bucket: Vec<&Shared<Formula>> = seq.eq_literals_with_var(&v).iter().collect();
        assert_eq!(bucket, filtered, "{what}: bucket of {v}");
    }
    let ground: Vec<&Shared<Formula>> = seq
        .inequalities()
        .iter()
        .filter(|f| matches!(f.value(), Formula::NeqUr(t, _) if t.is_ground()))
        .collect();
    let tracked: Vec<&Shared<Formula>> = seq.ground_lhs_inequalities().iter().collect();
    assert_eq!(tracked, ground, "{what}: ground-lhs inequalities");
    let fresh = Sequent::new(seq.ctx.clone(), side.iter().cloned());
    assert_eq!(hash_of(seq), hash_of(&fresh), "{what}: hash");
    assert_eq!(seq, &fresh, "{what}: equality");
}

/// Random edit sequences that mix the single-formula edits with the
/// combined ones a rule makes — the principal of an ∧, ∨ or ∀ replaced by
/// its components ([`Sequent::replaced`], and the premises
/// [`Rule::premises_unchecked`] builds with it) — keep the representation
/// exact after every step.
#[test]
fn combined_edits_keep_kind_slices_buckets_and_hash_exact() {
    let mut combined = 0;
    for seed in 0..300 {
        let mut gen = Gen(1000 + seed);
        let mut seq = Sequent::goals((0..gen.next() % 6).map(|_| gen.formula(2)));
        assert_representation(&seq, &format!("seed {seed}: start"));
        for step in 0..12 {
            let what = format!("seed {seed} step {step}");
            let principals: Vec<Shared<Formula>> = seq
                .rhs()
                .iter()
                .filter(|f| (4..=6).contains(&f.variant_rank()))
                .cloned()
                .collect();
            match gen.next() % 6 {
                0 | 1 if !principals.is_empty() => {
                    let principal = gen.pick(&principals).clone();
                    let components: Vec<Shared<Formula>> = match principal.value() {
                        Formula::And(a, b) | Formula::Or(a, b) => vec![a.clone(), b.clone()],
                        Formula::Forall { body, .. } => vec![body.clone(), gen.formula(1).into()],
                        _ => unreachable!("only ∧/∨/∀ are principals"),
                    };
                    let expected = components
                        .iter()
                        .fold(seq.without_formula(&principal), |s, f| {
                            s.with_formula(f.clone())
                        });
                    seq = seq.replaced(&principal, &components);
                    assert_eq!(seq, expected, "{what}: replaced");
                    combined += 1;
                }
                2 if !principals.is_empty() => {
                    let principal = gen.pick(&principals).clone();
                    let rule = match principal.value() {
                        Formula::And(_, _) => Rule::And { conj: principal },
                        Formula::Or(_, _) => Rule::Or { disj: principal },
                        _ => Rule::Forall {
                            quant: principal,
                            witness: Name::new("w#7"),
                        },
                    };
                    // the witness must be fresh for the ∀ rule
                    if seq.free_vars().contains(&Name::new("w#7")) {
                        continue;
                    }
                    let premises = rule.premises_unchecked(&seq);
                    for (i, premise) in premises.iter().enumerate() {
                        assert_representation(premise, &format!("{what}: premise {i}"));
                    }
                    seq = premises[gen.next() as usize % premises.len()].clone();
                    combined += 1;
                }
                3 => seq = seq.with_formula(gen.formula(2)),
                4 => {
                    let f = match seq.rhs() {
                        [] => gen.formula(1).into(),
                        side => gen.pick(side).clone(),
                    };
                    seq = seq.without_formula(&f);
                }
                _ => seq.insert(gen.formula(1)),
            }
            assert_representation(&seq, &what);
        }
    }
    assert!(combined > 300, "only {combined} combined edits were made");
}
