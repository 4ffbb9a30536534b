//! One-sided sequents `Θ ⊢ Δ` of the focused calculus.

use nrs_delta0::{Formula, InContext, MemAtom, Shared, Term};
use nrs_value::Name;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// A one-sided sequent: an ∈-context `Θ` and a finite set `Δ` of Δ0 formulas
/// read disjunctively.
///
/// `Δ` is kept sorted and de-duplicated, so sequents compare as the finite
/// sets the paper works with and all algorithms see a deterministic order.
///
/// `Δ` holds **interned handles** ([`Shared<Formula>`], 8 bytes each), not
/// formula values: every sequent that contains a formula points at the one
/// hash-consed node for it.  Handles order structurally (with a
/// pointer-equality fast path), so the sorted side is exactly the order of
/// the formulas themselves, and compare equal by pointer.
///
/// Besides its context, a sequent is one shared allocation and a record
/// kept in place (five words of layout in all):
///
/// * the **side**, an exact-size `Arc<[Shared<Formula>]>` holding `Δ`.
///   Cloning a sequent is O(1), and memo keys ([`Sequent::key`]) share the
///   side without a header allocation of their own;
/// * the **derived record**, 16 bytes: the order-independent combined hash
///   of `Δ` (a mix of the handles' cached node hashes, cut to 32 bits),
///   where the kind groups start in `Δ`, and how many `≠` literals have a
///   ground left term.  Hashing or comparing a sequent never walks the
///   formulas.
///
/// Because the derived `Ord` on [`Formula`] compares the variant first, the
/// sorted side is **grouped by formula kind** (`=`, `≠`, `⊤`, `⊥`,
/// `∧ ∨ ∀`, `∃`, `∈ ∉`).  The stored group starts make the accessors
/// [`Sequent::equalities`], [`Sequent::inequalities`],
/// [`Sequent::existentials`], [`Sequent::first_invertible`] and the
/// membership tests plain subslices that touch no formula.
///
/// The (in)equality literals containing a free variable
/// ([`Sequent::eq_literals_with_var`]) and the `≠` literals with a ground
/// left term ([`Sequent::ground_lhs_inequalities`]) are **filtered views**
/// of the `=`/`≠` slices, yielded in the order of `Δ`.  The prover's
/// ≠-congruence joins only ever pair literals that share a term, and since
/// literals have no binders, a literal containing a term contains every free
/// variable of that term — so a variable's view is a sound (and in practice
/// tight) superset of the literals a given inequality can rewrite.  A view
/// costs a scan of the literal slices when it is read and nothing when a
/// premise is built: a sequent keeps no index to copy or update.
///
/// Every builder goes through one edit, which removes at most one formula
/// and adds any number: the ∧, ∨ and ∀ premises (principal out, components
/// in) are one edit each.  It stages the new side in a per-thread buffer
/// and copies it into one allocation, so a premise costs one allocation,
/// and the record moves by the edited formulas in place of being rebuilt.  The group starts are 16-bit: a sequent holds at most
/// 65,535 formulas in front of its last kind group.
///
/// The `ctx` field is public for read access; it must not be mutated in
/// place (every producer goes through [`Sequent::with_atom`] or
/// [`Sequent::new`]).
#[derive(Debug, Clone)]
pub struct Sequent {
    /// The ∈-context `Θ`.  Read-only by convention — see the type docs.
    pub ctx: InContext,
    /// The right-hand side `Δ`, sorted.
    rhs: Arc<[Shared<Formula>]>,
    /// Data derived from `rhs`.  Excluded from `Eq`/`Hash`/`Ord` (the hash
    /// stands for `rhs` itself).
    meta: Meta,
}

/// The kind groups of a sorted side: `=`, `≠`, `⊤`, `⊥`, `∧ ∨ ∀`, `∃`,
/// `∈ ∉`.
const GROUPS: usize = 7;
const EQ: usize = 0;
const NEQ: usize = 1;
const TOP: usize = 2;
const BOTTOM: usize = 3;
const INVERTIBLE: usize = 4;
const EXISTS: usize = 5;

/// The groups whose starts [`Meta`] stores.  `⊤` and `⊥` are one formula
/// each, so a bit says whether their group holds it, and the `⊥` and
/// `∧ ∨ ∀` groups start after the bits.
const STORED: [usize; 4] = [NEQ, TOP, EXISTS, GROUPS - 1];

/// The kind group of a variant rank (see [`Formula::variant_rank`]).
fn group_of(rank: u8) -> usize {
    match rank {
        0..=3 => usize::from(rank),
        4..=6 => INVERTIBLE,
        7 => EXISTS,
        _ => GROUPS - 1,
    }
}

/// A sequent's derived record: 16 bytes, kept in the sequent itself.
#[derive(Debug, Clone, Copy, Default)]
struct Meta {
    /// The combined hash of `Δ`, cut to 32 bits.
    hash: u32,
    /// Where the [`STORED`] groups start in `Δ`.
    starts: [u16; 4],
    /// The number of `≠` literals of `Δ` whose left term is ground.
    ground: u16,
    /// Does `Δ` hold `⊤` (bit 0) and `⊥` (bit 1)?
    units: u8,
}

impl Meta {
    /// Where group `g` starts in a side of `len` formulas (`g = GROUPS`
    /// is the end).
    fn start_of(&self, g: usize, len: usize) -> usize {
        let [neq, top, exists, mem] = self.starts.map(usize::from);
        let (has_top, has_bottom) = (usize::from(self.units & 1), usize::from(self.units >> 1));
        match g {
            EQ => 0,
            NEQ => neq,
            TOP => top,
            BOTTOM => top + has_top,
            INVERTIBLE => top + has_top + has_bottom,
            EXISTS => exists,
            GROUPS => len,
            // the `∈ ∉` group
            _ => mem,
        }
    }

    /// The range of groups `lo..=hi` of a side of `len` formulas.
    fn range(&self, lo: usize, hi: usize, len: usize) -> Range<usize> {
        self.start_of(lo, len)..self.start_of(hi + 1, len)
    }

    /// Account for `f` entering (`grow`) or leaving `Δ`.
    fn note(&mut self, f: &Shared<Formula>, grow: bool) {
        // the low half of the mixed hash: XOR commutes with the cut
        self.hash ^= formula_hash_mixed(f) as u32;
        let group = group_of(f.variant_rank());
        for (s, g) in self.starts.iter_mut().zip(STORED) {
            if g > group {
                *s = if grow {
                    u16::try_from(usize::from(*s) + 1).expect(
                        "a sequent holds at most 65,535 formulas before its last kind group",
                    )
                } else {
                    *s - 1
                };
            }
        }
        match group {
            TOP => self.units ^= 1,
            BOTTOM => self.units ^= 2,
            _ => {}
        }
        if is_ground_lhs(f) {
            self.ground = if grow {
                self.ground + 1
            } else {
                self.ground - 1
            };
        }
    }
}

/// Is `f` an inequality `t ≠ u` whose left term `t` is ground?
fn is_ground_lhs(f: &Formula) -> bool {
    matches!(f, Formula::NeqUr(t, _) if t.is_ground())
}

thread_local! {
    /// Per-thread staging for [`Sequent::edit`]: the new side is assembled
    /// here, then copied into one allocation.
    static STAGING: RefCell<Vec<Shared<Formula>>> = const { RefCell::new(Vec::new()) };
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

/// `f` with `replacement` substituted for `var`; a formula without the
/// variable keeps its handle.
pub(crate) fn subst_handle(f: &Shared<Formula>, var: &Name, replacement: &Term) -> Shared<Formula> {
    if f.free_vars_set().contains(var) {
        Shared::new(f.subst_var(var, replacement))
    } else {
        f.clone()
    }
}

impl Sequent {
    /// Build a sequent, normalizing the right-hand side.  Accepts formulas
    /// (interned here) as well as handles.
    pub fn new<F: Into<Shared<Formula>>>(ctx: InContext, rhs: impl IntoIterator<Item = F>) -> Self {
        let mut rhs: Vec<Shared<Formula>> = rhs.into_iter().map(Into::into).collect();
        rhs.sort_unstable();
        rhs.dedup();
        let mut meta = Meta::default();
        for f in &rhs {
            meta.note(f, true);
        }
        Sequent {
            ctx,
            rhs: rhs.into(),
            meta,
        }
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

    /// The kind groups `lo..=hi` of the right-hand side.
    fn groups(&self, lo: usize, hi: usize) -> &[Shared<Formula>] {
        &self.rhs[self.meta.range(lo, hi, self.rhs.len())]
    }

    /// The position of a formula value in the right-hand side.
    fn position(&self, f: &Formula) -> Option<usize> {
        let group = group_of(f.variant_rank());
        let range = self.meta.range(group, group, self.rhs.len());
        let found = self.rhs[range.clone()].binary_search_by(|g| g.value().cmp(f));
        found.ok().map(|at| range.start + at)
    }

    /// The position of an interned formula in the right-hand side, found by
    /// pointer in its kind group.
    fn position_of_handle(&self, f: &Shared<Formula>) -> Option<usize> {
        let group = group_of(f.variant_rank());
        let range = self.meta.range(group, group, self.rhs.len());
        let found = self.rhs[range.clone()].iter().position(|g| g.ptr_eq(f));
        found.map(|at| range.start + at)
    }

    /// This sequent as a map key without its derived record (a clone of the
    /// context handle and of the side `Arc`).
    pub fn key(&self) -> SequentKey {
        SequentKey {
            ctx: self.ctx.clone(),
            rhs: self.rhs.clone(),
            rhs_hash: self.meta.hash,
        }
    }

    /// The one edit every builder goes through: the right-hand side without
    /// the formula at `remove` and with every formula of `add` it lacks.
    /// The new side is staged in the per-thread buffer and copied out in one
    /// allocation; the record moves by the edited formulas.
    fn edit(&self, remove: Option<usize>, add: &[Shared<Formula>]) -> Sequent {
        let mut meta = self.meta;
        let rhs = STAGING.with(|staging| {
            let side = &mut *staging.borrow_mut();
            side.clear();
            side.extend_from_slice(&self.rhs);
            if let Some(at) = remove {
                meta.note(&side.remove(at), false);
            }
            for f in add {
                let group = group_of(f.variant_rank());
                let range = meta.range(group, group, side.len());
                let Err(at) = side[range.clone()].binary_search(f) else {
                    continue;
                };
                side.insert(range.start + at, f.clone());
                meta.note(f, true);
            }
            Arc::from(&side[..])
        });
        Sequent {
            ctx: self.ctx.clone(),
            rhs,
            meta,
        }
    }

    /// Insert a formula into the right-hand side (set semantics).  A handle
    /// goes in as it is; a formula value is interned first.
    pub fn insert(&mut self, f: impl Into<Shared<Formula>>) {
        let f = f.into();
        if !self.contains_handle(&f) {
            *self = self.edit(None, std::slice::from_ref(&f));
        }
    }

    /// A copy with one more right-hand-side formula.
    pub fn with_formula(&self, f: impl Into<Shared<Formula>>) -> Sequent {
        let mut out = self.clone();
        out.insert(f);
        out
    }

    /// A copy with several more right-hand-side formulas, added in one edit.
    pub fn with_formulas<F: Into<Shared<Formula>>>(
        &self,
        fs: impl IntoIterator<Item = F>,
    ) -> Sequent {
        let add: Vec<Shared<Formula>> = fs.into_iter().map(Into::into).collect();
        self.edit(None, &add)
    }

    /// A copy with a formula removed (no-op if absent).
    pub fn without_formula(&self, f: &Formula) -> Sequent {
        match self.position(f) {
            Some(at) => self.edit(Some(at), &[]),
            None => self.clone(),
        }
    }

    /// A copy with `principal` (when present) replaced by `components`, in
    /// one edit: the premise of an ∧, ∨ or ∀ step.
    pub fn replaced(&self, principal: &Shared<Formula>, components: &[Shared<Formula>]) -> Sequent {
        self.edit(self.position_of_handle(principal), components)
    }

    /// A copy with an extra ∈-context atom.
    pub fn with_atom(&self, atom: MemAtom) -> Sequent {
        Sequent {
            ctx: self.ctx.with(atom),
            rhs: self.rhs.clone(),
            meta: self.meta,
        }
    }

    /// Does the right-hand side contain this formula?
    pub fn contains(&self, f: &Formula) -> bool {
        self.position(f).is_some()
    }

    /// Does the right-hand side contain this interned formula?  Interning
    /// makes two handles structurally equal exactly when they point at the
    /// same node, so this scans the kind group of `f` by pointer and never
    /// compares formulas structurally.
    pub fn contains_handle(&self, f: &Shared<Formula>) -> bool {
        let found = self.position_of_handle(f).is_some();
        debug_assert_eq!(found, self.contains(f));
        found
    }

    /// The `t =𝔘 u` formulas of the right-hand side.
    pub fn equalities(&self) -> &[Shared<Formula>] {
        self.groups(EQ, EQ)
    }

    /// The `t ≠𝔘 u` formulas of the right-hand side.
    pub fn inequalities(&self) -> &[Shared<Formula>] {
        self.groups(NEQ, NEQ)
    }

    /// The (in)equality literals of the right-hand side (the atoms the ≠
    /// congruence rule may rewrite), as one contiguous slice.
    pub fn eq_literals(&self) -> &[Shared<Formula>] {
        self.groups(EQ, NEQ)
    }

    /// The (in)equality literals of the right-hand side containing the given
    /// free variable, sorted: a view of [`Sequent::eq_literals`].  A literal
    /// containing a term `t` contains every free variable of `t` (literals
    /// have no binders), so for a non-ground `t` the literals with any of
    /// its variables are a superset of the literals `t` occurs in.
    pub fn eq_literals_with_var(&self, v: &Name) -> Literals<'_> {
        Literals {
            lits: self.eq_literals(),
            neq: self.equalities().len(),
            filter: Filter::Var(*v),
        }
    }

    /// The inequalities whose left term is ground (no free variables),
    /// sorted: a view of [`Sequent::inequalities`], empty without a scan
    /// when the record counts none.  Rewrite joins driven by
    /// [`Sequent::eq_literals_with_var`] must always include these: a
    /// ground term can occur in a literal that shares no variable with its
    /// inequality.
    pub fn ground_lhs_inequalities(&self) -> Literals<'_> {
        let lits = if self.meta.ground == 0 {
            &[]
        } else {
            self.inequalities()
        };
        Literals {
            lits,
            neq: 0,
            filter: Filter::GroundLhs,
        }
    }

    /// The bounded existentials of the right-hand side.
    pub fn existentials(&self) -> &[Shared<Formula>] {
        self.groups(EXISTS, EXISTS)
    }

    /// The first non-atomic alternative-leading formula (∧, ∨ or ∀) of the
    /// right-hand side, if any — the next principal formula of the prover's
    /// invertible phase.  Equals the first match of a left-to-right scan of
    /// the sorted side.
    pub fn first_invertible(&self) -> Option<&Shared<Formula>> {
        self.groups(INVERTIBLE, INVERTIBLE).first()
    }

    /// Are all right-hand-side formulas existential-leading?  (Side condition
    /// of the ∃, ≠, ×η and ×β rules.)  The only AL-only variants are ⊤, ∧, ∨
    /// and ∀, which occupy two kind groups.
    pub fn rhs_all_el(&self) -> bool {
        self.groups(TOP, TOP).is_empty() && self.groups(INVERTIBLE, INVERTIBLE).is_empty()
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

impl Default for Sequent {
    fn default() -> Self {
        Sequent::goals(std::iter::empty::<Shared<Formula>>())
    }
}

/// A sorted view of (in)equality literals of a sequent: those with one
/// free variable ([`Sequent::eq_literals_with_var`]) or the ground-lhs
/// inequalities ([`Sequent::ground_lhs_inequalities`]).  The view filters
/// the sequent's literal slice as it is iterated, so [`Literals::len`] and
/// [`Literals::is_empty`] scan.
#[derive(Debug, Clone, Copy)]
pub struct Literals<'a> {
    /// The literals the filter runs over, sorted like `Δ`.
    lits: &'a [Shared<Formula>],
    /// Where the `≠` literals start in `lits`.
    neq: usize,
    filter: Filter,
}

/// Which literals a [`Literals`] view admits.
#[derive(Debug, Clone, Copy)]
enum Filter {
    /// Those with the variable free.
    Var(Name),
    /// The inequalities whose left term is ground.
    GroundLhs,
}

impl Filter {
    /// Does the view admit the `=`/`≠` literal `lit`?
    fn admits(self, lit: &Formula) -> bool {
        match (self, lit) {
            (Filter::Var(v), Formula::EqUr(t, u) | Formula::NeqUr(t, u)) => {
                t.mentions(&v) || u.mentions(&v)
            }
            (Filter::GroundLhs, _) => is_ground_lhs(lit),
            (Filter::Var(_), _) => unreachable!("a view holds only = and ≠ literals"),
        }
    }
}

impl<'a> Literals<'a> {
    /// The number of literals (a scan).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.first().is_none()
    }

    /// The first literal.
    pub fn first(&self) -> Option<&'a Shared<Formula>> {
        self.iter().next()
    }

    /// The `≠` literals of the view: a suffix, since literals sort
    /// variant-first.
    pub fn inequalities(&self) -> Literals<'a> {
        Literals {
            lits: &self.lits[self.neq..],
            neq: 0,
            filter: self.filter,
        }
    }

    /// The literals in order.
    pub fn iter(&self) -> LiteralsIter<'a> {
        LiteralsIter {
            lits: self.lits.iter(),
            filter: self.filter,
        }
    }
}

impl<'a> IntoIterator for Literals<'a> {
    type Item = &'a Shared<Formula>;
    type IntoIter = LiteralsIter<'a>;

    fn into_iter(self) -> LiteralsIter<'a> {
        self.iter()
    }
}

/// The iterator of a [`Literals`] view.
#[derive(Debug, Clone)]
pub struct LiteralsIter<'a> {
    lits: std::slice::Iter<'a, Shared<Formula>>,
    filter: Filter,
}

impl<'a> Iterator for LiteralsIter<'a> {
    type Item = &'a Shared<Formula>;

    fn next(&mut self) -> Option<&'a Shared<Formula>> {
        let filter = self.filter;
        self.lits.find(|f| filter.admits(f))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, self.lits.size_hint().1)
    }
}

/// Equality of two sequents given as (context, right-hand side, its hash):
/// the cached hashes first (the context compares its own first), then the
/// sides themselves — handle by handle, a pointer compare each.
fn same_sides(
    a: (&InContext, &Arc<[Shared<Formula>]>, u32),
    b: (&InContext, &Arc<[Shared<Formula>]>, u32),
) -> bool {
    a.2 == b.2 && (Arc::ptr_eq(a.1, b.1) || a.1 == b.1) && a.0 == b.0
}

impl PartialEq for Sequent {
    fn eq(&self, other: &Self) -> bool {
        same_sides(
            (&self.ctx, &self.rhs, self.meta.hash),
            (&other.ctx, &other.rhs, other.meta.hash),
        )
    }
}

impl Eq for Sequent {}

impl Hash for Sequent {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ctx.hash(state);
        state.write_u32(self.meta.hash);
    }
}

/// A sequent as a map key: its context and right-hand side with the
/// right-hand side's cached hash, without the derived record.  Equal and
/// hashed exactly like the [`Sequent`] it came from.  A table of keys holds
/// two `Arc`s per entry, which sibling sequents share, and the handles in
/// them point at the interned formulas every other sequent uses.
#[derive(Debug, Clone)]
pub struct SequentKey {
    ctx: InContext,
    rhs: Arc<[Shared<Formula>]>,
    rhs_hash: u32,
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
        state.write_u32(self.rhs_hash);
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

    fn bucket(s: &Sequent, v: &str) -> Vec<Shared<Formula>> {
        s.eq_literals_with_var(&Name::new(v))
            .iter()
            .cloned()
            .collect()
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
            Shared::new(Formula::exists("x", "S", Formula::True)), // not a literal: in no view
        ]);
        assert_eq!(bucket(&s, "x"), [xy.clone(), xz.clone()]);
        assert_eq!(bucket(&s, "y"), std::slice::from_ref(&xy));
        assert_eq!(bucket(&s, "z"), std::slice::from_ref(&xz));
        assert!(s.eq_literals_with_var(&Name::new("S")).is_empty());
        // views stay sorted like the kind slices they filter
        assert_eq!(bucket(&s, "x"), s.eq_literals());
        // removal drops it from the views; re-adding restores (the original
        // is intact)
        let s2 = s.without_formula(&xy);
        assert_eq!(bucket(&s2, "x"), std::slice::from_ref(&xz));
        assert!(s2.eq_literals_with_var(&Name::new("y")).is_empty());
        assert_eq!(s.eq_literals_with_var(&Name::new("x")).len(), 2);
        let s3 = s2.with_formula(xy.clone());
        assert_eq!(bucket(&s3, "x"), [xy, xz]);
        // duplicate inserts don't repeat a literal
        let s4 = s3.with_formula(Formula::neq_ur("x", "z"));
        assert_eq!(s4.eq_literals_with_var(&Name::new("x")).len(), 2);
    }

    #[test]
    fn copies_are_built_at_exact_size() {
        let s = Sequent::goals([
            Formula::eq_ur("x", "y"),
            Formula::neq_ur("x", "z"),
            Formula::exists("z", "S", Formula::True),
        ]);
        assert_eq!(s.rhs.len(), 3);
        // the record is kept in place: a sequent is five words on a 64-bit
        // target
        assert!(std::mem::size_of::<Sequent>() <= 40);
        // `s` keeps its side; the copy builds its own at the new length
        let t = s.with_formula(Formula::eq_ur("x", "w"));
        assert_eq!(t.rhs.len(), 4);
        assert_eq!(bucket(&t, "x").len(), 3);
        assert_eq!(s.rhs.len(), 3);
        let u = t.without_formula(&Formula::neq_ur("x", "z"));
        assert_eq!(u.rhs.len(), 3);
        assert_eq!(bucket(&u, "x").len(), 2);
        assert!(bucket(&u, "z").is_empty());
        // a literal naming one variable twice is in its view once
        let v = u.with_formula(Formula::neq_ur("x", "x"));
        assert_eq!(bucket(&v, "x").len(), 3);
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
        let tracked: Vec<_> = s.ground_lhs_inequalities().iter().cloned().collect();
        assert_eq!(tracked, std::slice::from_ref(&ground));
        // the ground-lhs inequality still appears in its variables' buckets
        assert_eq!(bucket(&s, "y"), [vars, ground.clone()]);
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

    #[test]
    fn replacing_a_principal_is_one_edit() {
        let conj = Shared::new(Formula::and(Formula::eq_ur("x", "y"), Formula::True));
        let s = Sequent::goals([conj.clone(), Shared::new(Formula::neq_ur("x", "z"))]);
        let (a, b) = match conj.value() {
            Formula::And(a, b) => (a.clone(), b.clone()),
            _ => unreachable!(),
        };
        let both = s.replaced(&conj, &[a.clone(), b.clone(), a.clone()]);
        assert_eq!(both, s.without_formula(&conj).with_formulas([a.clone(), b]));
        assert_eq!(bucket(&both, "x").len(), 2);
        // an absent principal removes nothing
        let absent = Shared::new(Formula::or(Formula::True, Formula::False));
        assert_eq!(
            s.replaced(&absent, std::slice::from_ref(&a)),
            s.with_formula(a)
        );
    }
}
