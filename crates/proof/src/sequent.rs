//! One-sided sequents `Θ ⊢ Δ` of the focused calculus.

use nrs_delta0::{Formula, InContext, MemAtom, Shared, Term};
use nrs_value::Name;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A one-sided sequent: an ∈-context `Θ` and a finite set `Δ` of Δ0 formulas
/// read disjunctively.
///
/// `Δ` is kept sorted and de-duplicated, so sequents compare as the finite
/// sets the paper works with and all algorithms see a deterministic order.
///
/// `Δ` holds **interned handles** ([`Shared<Formula>`], 8 bytes each), not
/// formula values: every sequent that contains a formula points at the one
/// hash-consed node for it.  The proof search visits thousands of sequents
/// over a hundred or so distinct formulas, and keeps the refuted ones in its
/// failure memo, so a slot costs a pointer instead of a 56-byte formula
/// copy.  Handles order structurally (with a pointer-equality fast path),
/// so the sorted side is exactly the order of the formulas themselves, and
/// compare equal by pointer.
///
/// Three things make sequents cheap enough to serve as memo keys in the proof
/// search (where ~10⁵–10⁶ of them are cloned, hashed and compared per run):
///
/// * the right-hand side is an **`Arc`-shared copy-on-write vector** of
///   handles, so cloning a sequent is O(1) and only the copy that actually
///   inserts or removes pays for the vector — in one allocation of exactly
///   the new length (the same holds for the index buckets below), so a
///   sequent the failure memo or a proof keeps holds no spare capacity;
/// * both sides maintain **cached hashes** (an order-independent incremental
///   mix of the handles' cached node hashes for the right-hand side, the
///   context's own cached hash for `Θ`), so hashing a sequent never walks
///   the formulas; and
/// * because the derived `Ord` on [`Formula`] compares the variant first, the
///   sorted right-hand side is **grouped by formula kind** — the accessors
///   [`Sequent::equalities`], [`Sequent::inequalities`],
///   [`Sequent::existentials`] and [`Sequent::first_invertible`] expose those
///   groups as subslices located by binary search, replacing the prover's
///   full-side scans.
///
/// The `ctx` field is public for read access; it must not be mutated in
/// place (every producer goes through [`Sequent::with_atom`] or
/// [`Sequent::new`]).
///
/// On top of the kind slices, the (in)equality literals are **indexed by
/// free variable** ([`Sequent::eq_literals_with_var`]): the prover's
/// ≠-congruence joins only ever pair literals that share a term, and since
/// literals have no binders, a literal containing a term contains every free
/// variable of that term — so a variable bucket is a sound (and in practice
/// tight) superset of the literals a given inequality can rewrite.  The
/// index is maintained incrementally under the same Arc-CoW regime as the
/// side itself: buckets are `Arc`-shared vectors of the same handles, so a
/// copy that inserts one literal clones only the touched buckets.
///
/// The index is derived data, needed only while a sequent is searched.
/// Tables that key on sequents keep a [`SequentKey`] ([`Sequent::key`]),
/// which holds the two sides and the right-hand side's hash but no index.
#[derive(Debug, Clone, Default)]
pub struct Sequent {
    /// The ∈-context `Θ`.  Read-only by convention — see the type docs.
    pub ctx: InContext,
    /// The right-hand side `Δ`.
    rhs: Arc<Vec<Shared<Formula>>>,
    /// Order-independent combined hash of `rhs`, maintained incrementally.
    rhs_hash: u64,
    /// Occurrence index: variable → sorted (in)equality literals (variant
    /// ranks 0–1) of `rhs` containing it.  Derived data — excluded from
    /// `Eq`/`Hash`/`Ord`.
    occ: Arc<HashMap<Name, Arc<Vec<Shared<Formula>>>>>,
    /// The inequalities `t ≠ u` whose *left* term is ground, sorted.  Such a
    /// `t` can occur in a literal sharing no variable with the inequality,
    /// so rewrite joins must always consider these few (usually zero)
    /// candidates on top of the variable buckets.
    ground_rw: Arc<Vec<Shared<Formula>>>,
}

/// The per-formula contribution to an XOR-combined (order-independent) set
/// hash: the node's cached structural hash diffused through splitmix64 so
/// that combining contributions doesn't cancel structured patterns.  Shared
/// with `nrs-prover`, which keys its failure memo on the same combined
/// hashes.
pub fn formula_hash_mixed(f: &Shared<Formula>) -> u64 {
    mix(f.hash64())
}

/// The splitmix64 finalizer.
fn mix(hash: u64) -> u64 {
    let mut z = hash.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Insert `f` at `pos`, leaving the vector at exactly its new length: a
/// shared vector is rebuilt in one allocation of the final size (where
/// `Arc::make_mut` would copy it and `Vec::insert` then double it), an
/// unshared one grows by one slot.
fn insert_exact(v: &mut Arc<Vec<Shared<Formula>>>, pos: usize, f: Shared<Formula>) {
    if let Some(v) = Arc::get_mut(v) {
        v.reserve_exact(1);
        v.insert(pos, f);
        return;
    }
    let mut out = Vec::with_capacity(v.len() + 1);
    out.extend_from_slice(&v[..pos]);
    out.push(f);
    out.extend_from_slice(&v[pos..]);
    *v = Arc::new(out);
}

/// Remove and return the element at `pos`; a shared vector is rebuilt at
/// exactly its new length.
fn remove_exact(v: &mut Arc<Vec<Shared<Formula>>>, pos: usize) -> Shared<Formula> {
    if let Some(v) = Arc::get_mut(v) {
        return v.remove(pos);
    }
    let removed = v[pos].clone();
    let mut out = Vec::with_capacity(v.len() - 1);
    out.extend_from_slice(&v[..pos]);
    out.extend_from_slice(&v[pos + 1..]);
    *v = Arc::new(out);
    removed
}

/// `f` with `replacement` substituted for `var`; a formula without the
/// variable keeps its handle.
pub(crate) fn subst_handle(f: &Shared<Formula>, var: &Name, replacement: &Term) -> Shared<Formula> {
    if f.free_vars_set().contains(var) {
        Shared::new(f.subst_var(var, replacement))
    } else {
        f.clone()
    }
}

/// Binary search of a sorted handle slice for a formula value.
fn find(side: &[Shared<Formula>], f: &Formula) -> Result<usize, usize> {
    side.binary_search_by(|g| g.value().cmp(f))
}

impl Sequent {
    /// Build a sequent, normalizing the right-hand side.  Accepts formulas
    /// (interned here) as well as handles.
    pub fn new<F: Into<Shared<Formula>>>(ctx: InContext, rhs: impl IntoIterator<Item = F>) -> Self {
        let mut rhs: Vec<Shared<Formula>> = rhs.into_iter().map(Into::into).collect();
        rhs.sort_unstable();
        rhs.dedup();
        rhs.shrink_to_fit();
        let mut s = Sequent {
            ctx,
            rhs: Arc::new(Vec::new()),
            rhs_hash: 0,
            occ: Arc::new(HashMap::new()),
            ground_rw: Arc::new(Vec::new()),
        };
        for f in &rhs {
            s.rhs_hash ^= formula_hash_mixed(f);
            if f.variant_rank() <= 1 {
                s.index_literal(f);
            }
        }
        s.rhs = Arc::new(rhs);
        s
    }

    /// A sequent with an empty context.
    pub fn goals<F: Into<Shared<Formula>>>(rhs: impl IntoIterator<Item = F>) -> Self {
        Sequent::new(InContext::new(), rhs)
    }

    /// Encode a two-sided sequent `Θ; Γ ⊢ Δ` of the higher-level system as the
    /// one-sided `Θ ⊢ ¬Γ, Δ`.
    pub fn two_sided(
        ctx: InContext,
        gamma: impl IntoIterator<Item = Formula>,
        delta: impl IntoIterator<Item = Formula>,
    ) -> Self {
        let mut rhs: Vec<Formula> = gamma.into_iter().map(|f| f.negate()).collect();
        rhs.extend(delta);
        Sequent::new(ctx, rhs)
    }

    /// The right-hand side, sorted and de-duplicated.
    pub fn rhs(&self) -> &[Shared<Formula>] {
        &self.rhs
    }

    /// This sequent as an index-free map key (two `Arc` clones).
    pub fn key(&self) -> SequentKey {
        SequentKey {
            ctx: self.ctx.clone(),
            rhs: self.rhs.clone(),
            rhs_hash: self.rhs_hash,
        }
    }

    /// Insert a formula into the right-hand side (set semantics).  A handle
    /// goes in as it is; a formula value is interned first.
    pub fn insert(&mut self, f: impl Into<Shared<Formula>>) {
        let f = f.into();
        if let Err(pos) = self.rhs.binary_search(&f) {
            self.rhs_hash ^= formula_hash_mixed(&f);
            if f.variant_rank() <= 1 {
                self.index_literal(&f);
            }
            insert_exact(&mut self.rhs, pos, f);
        }
    }

    /// Add a freshly inserted (in)equality literal to the occurrence index.
    /// The literal is known absent from `rhs`, hence from every bucket, so
    /// finding it at its slot means a repeated name already indexed it.
    fn index_literal(&mut self, f: &Shared<Formula>) {
        let occ = Arc::make_mut(&mut self.occ);
        f.for_each_free_var(&mut |v| {
            let bucket = occ.entry(*v).or_default();
            let pos = bucket.partition_point(|g| g < f);
            if bucket.get(pos) != Some(f) {
                insert_exact(bucket, pos, f.clone());
            }
        });
        if let Formula::NeqUr(t, _) = f.value() {
            if t.is_ground() {
                let pos = self.ground_rw.partition_point(|g| g < f);
                insert_exact(&mut self.ground_rw, pos, f.clone());
            }
        }
    }

    /// Remove a just-removed (in)equality literal from the occurrence index.
    fn unindex_literal(&mut self, f: &Shared<Formula>) {
        let occ = Arc::make_mut(&mut self.occ);
        f.for_each_free_var(&mut |v| {
            if let Some(bucket) = occ.get_mut(v) {
                if let Ok(pos) = bucket.binary_search(f) {
                    if bucket.len() == 1 {
                        occ.remove(v);
                    } else {
                        remove_exact(bucket, pos);
                    }
                }
            }
        });
        if let Formula::NeqUr(t, _) = f.value() {
            if t.is_ground() {
                if let Ok(pos) = self.ground_rw.binary_search(f) {
                    remove_exact(&mut self.ground_rw, pos);
                }
            }
        }
    }

    /// A copy with one more right-hand-side formula.
    pub fn with_formula(&self, f: impl Into<Shared<Formula>>) -> Sequent {
        let mut out = self.clone();
        out.insert(f);
        out
    }

    /// A copy with several more right-hand-side formulas.
    pub fn with_formulas<F: Into<Shared<Formula>>>(
        &self,
        fs: impl IntoIterator<Item = F>,
    ) -> Sequent {
        let mut out = self.clone();
        for f in fs {
            out.insert(f);
        }
        out
    }

    /// A copy with a formula removed (no-op if absent).
    pub fn without_formula(&self, f: &Formula) -> Sequent {
        let mut out = self.clone();
        if let Ok(pos) = find(&out.rhs, f) {
            let removed = remove_exact(&mut out.rhs, pos);
            out.rhs_hash ^= formula_hash_mixed(&removed);
            if removed.variant_rank() <= 1 {
                out.unindex_literal(&removed);
            }
        }
        out
    }

    /// A copy with an extra ∈-context atom.
    pub fn with_atom(&self, atom: MemAtom) -> Sequent {
        Sequent {
            ctx: self.ctx.with(atom),
            rhs: self.rhs.clone(),
            rhs_hash: self.rhs_hash,
            occ: self.occ.clone(),
            ground_rw: self.ground_rw.clone(),
        }
    }

    /// Does the right-hand side contain this formula?
    pub fn contains(&self, f: &Formula) -> bool {
        find(&self.rhs, f).is_ok()
    }

    /// Does the right-hand side contain this interned formula?  Interning
    /// makes two handles structurally equal exactly when they point at the
    /// same node, so this scans the slice of `f`'s variant rank by pointer
    /// and never compares formulas structurally.
    pub fn contains_handle(&self, f: &Shared<Formula>) -> bool {
        let rank = f.variant_rank();
        let found = self.rank_range(rank, rank).iter().any(|g| g.ptr_eq(f));
        debug_assert_eq!(found, self.contains(f));
        found
    }

    /// The subrange of the sorted right-hand side whose variant ranks lie in
    /// `lo..=hi` (see [`Formula::variant_rank`]).
    fn rank_range(&self, lo: u8, hi: u8) -> &[Shared<Formula>] {
        let start = self.rhs.partition_point(|f| f.variant_rank() < lo);
        let end = self.rhs.partition_point(|f| f.variant_rank() <= hi);
        &self.rhs[start..end]
    }

    /// The `t =𝔘 u` formulas of the right-hand side.
    pub fn equalities(&self) -> &[Shared<Formula>] {
        self.rank_range(0, 0)
    }

    /// The `t ≠𝔘 u` formulas of the right-hand side.
    pub fn inequalities(&self) -> &[Shared<Formula>] {
        self.rank_range(1, 1)
    }

    /// The (in)equality literals of the right-hand side (the atoms the ≠
    /// congruence rule may rewrite), as one contiguous slice.
    pub fn eq_literals(&self) -> &[Shared<Formula>] {
        self.rank_range(0, 1)
    }

    /// The (in)equality literals of the right-hand side containing the given
    /// free variable, sorted — one bucket of the occurrence index.  A
    /// literal containing a term `t` contains every free variable of `t`
    /// (literals have no binders), so for a non-ground `t` the bucket of any
    /// of its variables is a superset of the literals `t` occurs in.
    pub fn eq_literals_with_var(&self, v: &Name) -> &[Shared<Formula>] {
        self.occ.get(v).map(|b| b.as_slice()).unwrap_or(&[])
    }

    /// The inequalities whose left term is ground (no free variables),
    /// sorted.  Rewrite joins driven by [`Sequent::eq_literals_with_var`]
    /// must always include these: a ground term can occur in a literal that
    /// shares no variable with its inequality.
    pub fn ground_lhs_inequalities(&self) -> &[Shared<Formula>] {
        &self.ground_rw
    }

    /// The bounded existentials of the right-hand side.
    pub fn existentials(&self) -> &[Shared<Formula>] {
        self.rank_range(7, 7)
    }

    /// The first non-atomic alternative-leading formula (∧, ∨ or ∀) of the
    /// right-hand side, if any — the next principal formula of the prover's
    /// invertible phase.  Equals the first match of a left-to-right scan of
    /// the sorted side, located in O(log |Δ|).
    pub fn first_invertible(&self) -> Option<&Shared<Formula>> {
        self.rank_range(4, 6).first()
    }

    /// Are all right-hand-side formulas existential-leading?  (Side condition
    /// of the ∃, ≠, ×η and ×β rules.)  O(log |Δ|): the only AL-only variants
    /// are ⊤, ∧, ∨ and ∀, which occupy contiguous rank ranges.
    pub fn rhs_all_el(&self) -> bool {
        self.rank_range(2, 2).is_empty() && self.rank_range(4, 6).is_empty()
    }

    /// Free variables of the whole sequent.
    pub fn free_vars(&self) -> BTreeSet<Name> {
        let mut out = self.ctx.free_vars();
        for f in self.rhs.iter() {
            out.extend(f.free_vars_set().iter().copied());
        }
        out
    }

    /// Substitute a term for a variable throughout the sequent.  Formulas
    /// without the variable keep their handles.
    pub fn subst_var(&self, var: &Name, replacement: &Term) -> Sequent {
        Sequent::new(
            self.ctx.subst_var(var, replacement),
            self.rhs.iter().map(|f| subst_handle(f, var, replacement)),
        )
    }

    /// Replace a whole sub-term throughout the sequent (used by ×η / ×β and
    /// congruence reasoning).
    pub fn replace_term(&self, target: &Term, replacement: &Term) -> Sequent {
        Sequent::new(
            self.ctx.replace_term(target, replacement),
            self.rhs.iter().map(|f| f.replace_term(target, replacement)),
        )
    }

    /// Total number of formula/term nodes; the size measure used by the
    /// complexity claims and the benchmark harness.
    pub fn size(&self) -> usize {
        let ctx: usize = self.ctx.iter().map(|a| a.elem.size() + a.set.size()).sum();
        let rhs: usize = self.rhs.iter().map(|f| f.size()).sum();
        ctx + rhs
    }
}

/// Equality of two sequents given as (context, right-hand side, its hash):
/// the cached hashes first (the context compares its own first), then the
/// sides themselves — handle by handle, a pointer compare each.
fn same_sides(
    a: (&InContext, &Arc<Vec<Shared<Formula>>>, u64),
    b: (&InContext, &Arc<Vec<Shared<Formula>>>, u64),
) -> bool {
    a.2 == b.2 && (Arc::ptr_eq(a.1, b.1) || a.1 == b.1) && a.0 == b.0
}

impl PartialEq for Sequent {
    fn eq(&self, other: &Self) -> bool {
        same_sides(
            (&self.ctx, &self.rhs, self.rhs_hash),
            (&other.ctx, &other.rhs, other.rhs_hash),
        )
    }
}

impl Eq for Sequent {}

impl Hash for Sequent {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ctx.hash(state);
        state.write_u64(self.rhs_hash);
    }
}

/// A sequent as a map key: its context and right-hand side with the
/// right-hand side's cached hash, without the derived occurrence index.
/// Equal and hashed exactly like the [`Sequent`] it came from.  A table of
/// keys holds two `Arc`s per entry, which sibling sequents share, and the
/// handles in them point at the interned formulas every other sequent uses.
#[derive(Debug, Clone)]
pub struct SequentKey {
    ctx: InContext,
    rhs: Arc<Vec<Shared<Formula>>>,
    rhs_hash: u64,
}

impl PartialEq for SequentKey {
    fn eq(&self, other: &Self) -> bool {
        same_sides(
            (&self.ctx, &self.rhs, self.rhs_hash),
            (&other.ctx, &other.rhs, other.rhs_hash),
        )
    }
}

impl Eq for SequentKey {}

impl Hash for SequentKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ctx.hash(state);
        state.write_u64(self.rhs_hash);
    }
}

impl PartialOrd for Sequent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sequent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.ctx
            .cmp(&other.ctx)
            .then_with(|| self.rhs.cmp(&other.rhs))
    }
}

impl fmt::Display for Sequent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} |- ", self.ctx)?;
        for (i, g) in self.rhs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrs_delta0::MemAtom;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(s: &Sequent) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    #[test]
    fn rhs_is_a_set() {
        let s = Sequent::goals([Formula::True, Formula::True, Formula::eq_ur("x", "y")]);
        assert_eq!(s.rhs().len(), 2);
        assert!(s.contains(&Formula::True));
        let s2 = s.with_formula(Formula::True);
        assert_eq!(s2, s);
        let s3 = s.without_formula(&Formula::True);
        assert_eq!(s3.rhs().len(), 1);
        assert!(!s3.contains(&Formula::True));
    }

    #[test]
    fn two_sided_encoding_negates_gamma() {
        let gamma = [Formula::forall("x", "S", Formula::eq_ur("x", "x"))];
        let delta = [Formula::eq_ur("a", "b")];
        let s = Sequent::two_sided(InContext::new(), gamma.clone(), delta.clone());
        assert!(s.contains(&gamma[0].negate()));
        assert!(s.contains(&delta[0]));
        assert_eq!(s.rhs().len(), 2);
    }

    #[test]
    fn el_side_condition() {
        let el_only = Sequent::goals([
            Formula::eq_ur("x", "y"),
            Formula::exists("z", "S", Formula::True),
        ]);
        assert!(el_only.rhs_all_el());
        let with_al = el_only.with_formula(Formula::forall("z", "S", Formula::True));
        assert!(!with_al.rhs_all_el());
        let with_top = el_only.with_formula(Formula::True);
        assert!(!with_top.rhs_all_el());
    }

    #[test]
    fn substitution_and_replacement() {
        let s = Sequent::new(
            InContext::from_atoms([MemAtom::new("x", "S")]),
            [Formula::eq_ur(Term::proj1(Term::var("x")), Term::var("y"))],
        );
        let t = s.subst_var(&Name::new("x"), &Term::var("w"));
        assert!(t.ctx.contains(&MemAtom::new("w", "S")));
        assert!(t.contains(&Formula::eq_ur(Term::proj1(Term::var("w")), Term::var("y"))));
        let r = s.replace_term(&Term::proj1(Term::var("x")), &Term::var("k"));
        assert!(r.contains(&Formula::eq_ur(Term::var("k"), Term::var("y"))));
        assert!(s.free_vars().contains(&Name::new("S")));
        assert!(s.size() > 3);
    }

    #[test]
    fn display_is_readable() {
        let s = Sequent::new(
            InContext::from_atoms([MemAtom::new("x", "S")]),
            [Formula::eq_ur("x", "y")],
        );
        assert_eq!(s.to_string(), "x in S |- x = y");
    }

    #[test]
    fn incremental_hash_is_order_independent_and_tracks_edits() {
        let a = Formula::eq_ur("x", "y");
        let b = Formula::neq_ur("u", "v");
        let c = Formula::exists("z", "S", Formula::eq_ur("z", "x"));
        let s1 = Sequent::goals([a.clone(), b.clone(), c.clone()]);
        let s2 = Sequent::goals([c.clone(), a.clone(), b.clone()]);
        assert_eq!(s1, s2);
        assert_eq!(hash_of(&s1), hash_of(&s2));
        // removing and re-adding restores the hash exactly
        let s3 = s1.without_formula(&b).with_formula(b.clone());
        assert_eq!(s1, s3);
        assert_eq!(hash_of(&s1), hash_of(&s3));
        // a genuine edit changes equality
        let s4 = s1.without_formula(&b);
        assert_ne!(s1, s4);
    }

    #[test]
    fn occurrence_index_tracks_inserts_and_removals() {
        let xy = Shared::new(Formula::eq_ur("x", "y"));
        let xz = Shared::new(Formula::neq_ur("x", "z"));
        let s = Sequent::goals([
            xy.clone(),
            xz.clone(),
            Shared::new(Formula::exists("x", "S", Formula::True)), // not a literal: unindexed
        ]);
        let x = Name::new("x");
        assert_eq!(s.eq_literals_with_var(&x), &[xy.clone(), xz.clone()]);
        assert_eq!(
            s.eq_literals_with_var(&Name::new("y")),
            std::slice::from_ref(&xy)
        );
        assert_eq!(
            s.eq_literals_with_var(&Name::new("z")),
            std::slice::from_ref(&xz)
        );
        assert!(s.eq_literals_with_var(&Name::new("S")).is_empty());
        // buckets stay sorted like the kind slices they refine
        assert_eq!(s.eq_literals_with_var(&x), s.eq_literals());
        // removal unindexes; re-adding restores (CoW: the original is intact)
        let s2 = s.without_formula(&xy);
        assert_eq!(s2.eq_literals_with_var(&x), std::slice::from_ref(&xz));
        assert!(s2.eq_literals_with_var(&Name::new("y")).is_empty());
        assert_eq!(s.eq_literals_with_var(&x).len(), 2);
        let s3 = s2.with_formula(xy.clone());
        assert_eq!(s3.eq_literals_with_var(&x), &[xy, xz]);
        // duplicate inserts don't double-index
        let s4 = s3.with_formula(Formula::neq_ur("x", "z"));
        assert_eq!(s4.eq_literals_with_var(&x).len(), 2);
    }

    #[test]
    fn copies_are_built_at_exact_size() {
        let s = Sequent::goals([
            Formula::eq_ur("x", "y"),
            Formula::neq_ur("x", "z"),
            Formula::exists("z", "S", Formula::True),
        ]);
        assert_eq!(s.rhs.capacity(), s.rhs.len());
        // `s` still shares every vector with the copy, which rebuilds the
        // ones it edits at their new length
        let t = s.with_formula(Formula::eq_ur("x", "w"));
        assert_eq!(t.rhs.len(), 4);
        assert_eq!(t.rhs.capacity(), 4);
        let bucket = t.occ.get(&Name::new("x")).expect("x is indexed");
        assert_eq!((bucket.len(), bucket.capacity()), (3, 3));
        let u = t.without_formula(&Formula::neq_ur("x", "z"));
        assert_eq!((u.rhs.len(), u.rhs.capacity()), (3, 3));
        let bucket = u.occ.get(&Name::new("x")).expect("x is indexed");
        assert_eq!((bucket.len(), bucket.capacity()), (2, 2));
        assert!(u.occ.get(&Name::new("z")).is_none());
        // a literal naming one variable twice is indexed once
        let v = u.with_formula(Formula::neq_ur("x", "x"));
        assert_eq!(v.eq_literals_with_var(&Name::new("x")).len(), 3);
    }

    #[test]
    fn keys_equal_and_hash_like_their_sequents() {
        let a = Sequent::goals([Formula::eq_ur("x", "y"), Formula::neq_ur("u", "v")]);
        let b = Sequent::goals([Formula::neq_ur("u", "v"), Formula::eq_ur("x", "y")]);
        let c = a.with_atom(MemAtom::new("x", "S"));
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        let key_hash = |k: &SequentKey| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        assert_eq!(key_hash(&a.key()), hash_of(&a));
        assert_eq!(key_hash(&c.key()), hash_of(&c));
    }

    #[test]
    fn ground_lhs_inequalities_are_tracked_separately() {
        let ground = Shared::new(Formula::neq_ur(Term::Unit, Term::var("y")));
        let vars = Shared::new(Formula::neq_ur("x", "y"));
        let s = Sequent::goals([ground.clone(), vars.clone()]);
        assert_eq!(s.ground_lhs_inequalities(), std::slice::from_ref(&ground));
        // the ground-lhs inequality still appears in its variables' buckets
        assert_eq!(
            s.eq_literals_with_var(&Name::new("y")),
            &[vars, ground.clone()]
        );
        let s2 = s.without_formula(&ground);
        assert!(s2.ground_lhs_inequalities().is_empty());
    }

    #[test]
    fn kind_slices_partition_the_sorted_rhs() {
        let s = Sequent::goals([
            Formula::exists("z", "S", Formula::True),
            Formula::neq_ur("a", "b"),
            Formula::eq_ur("x", "y"),
            Formula::neq_ur("c", "d"),
            Formula::forall("w", "S", Formula::True),
            Formula::and(Formula::True, Formula::False),
        ]);
        assert_eq!(s.equalities().len(), 1);
        assert_eq!(s.inequalities().len(), 2);
        assert_eq!(s.eq_literals().len(), 3);
        assert_eq!(s.existentials().len(), 1);
        // the invertible scan finds the ∧ first, as a left-to-right scan would
        assert!(matches!(
            s.first_invertible().map(|f| f.value()),
            Some(Formula::And(_, _))
        ));
        let no_invertible = Sequent::goals([Formula::eq_ur("x", "y")]);
        assert!(no_invertible.first_invertible().is_none());
        assert!(no_invertible.rhs_all_el());
    }
}
