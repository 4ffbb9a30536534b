//! Update batches and set deltas.
//!
//! A [`DeltaSet`] is the exact difference between two canonical sets:
//! disjoint insert and delete sides, with every insert genuinely absent
//! before and every delete genuinely present.  Exactness is the invariant
//! the whole maintenance engine leans on — it lets support counts and
//! membership transitions be updated without consulting the old value.
//!
//! An [`UpdateBatch`] is a delta per relation symbol: the external update
//! language of the maintenance layer ("insert tuple t into S, delete u from
//! F").  Batches as written by callers may be sloppy (inserting a present
//! tuple, deleting an absent one); [`UpdateBatch::normalize_against`] reduces
//! them to exact deltas against a concrete instance before application.
//! One malformation is rejected rather than normalized: a tuple listed on
//! **both** sides of a delta has no sequential meaning (the
//! [`insert`][UpdateBatch::insert]/[`delete`][UpdateBatch::delete] builders
//! cannot produce it; only hand-built [`DeltaSet`]s can) and every
//! application path reports it as [`IvmError::OverlappingDelta`].
//!
//! A serving boundary wants to *reject* sloppiness instead of silently
//! normalizing it: [`UpdateBatch::validate_schema`] checks relation names
//! and tuple types against a [`Schema`], [`UpdateBatch::validate_against`]
//! checks exactness against a concrete instance, and
//! [`UpdateBatch::apply_strict`] applies only batches that pass both the
//! overlap and exactness checks.

use crate::IvmError;
use nrs_value::{Instance, Name, Schema, SetValue, Value};
use std::collections::{BTreeMap, BTreeSet};

/// An exact set delta: disjoint inserts and deletes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSet {
    /// Elements added (absent before, present after).
    pub inserts: BTreeSet<Value>,
    /// Elements removed (present before, absent after).
    pub deletes: BTreeSet<Value>,
}

impl DeltaSet {
    /// The empty delta.
    pub fn new() -> DeltaSet {
        DeltaSet::default()
    }

    /// The exact delta turning `old` into `new`.
    pub fn diff(old: &BTreeSet<Value>, new: &BTreeSet<Value>) -> DeltaSet {
        DeltaSet {
            inserts: new.difference(old).cloned().collect(),
            deletes: old.difference(new).cloned().collect(),
        }
    }

    /// No change at all?
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total number of touched tuples.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// All touched elements (inserts then deletes).
    pub fn elems(&self) -> impl Iterator<Item = &Value> {
        self.inserts.iter().chain(self.deletes.iter())
    }

    /// `old` membership of `x`, reconstructed from the *new* set and this
    /// (exact) delta: flipped for touched elements, unchanged otherwise.
    pub fn was_member(&self, new: &BTreeSet<Value>, x: &Value) -> bool {
        if self.inserts.contains(x) {
            false
        } else if self.deletes.contains(x) {
            true
        } else {
            new.contains(x)
        }
    }

    /// Apply the delta to a set in place (deletes then inserts).
    pub fn apply_to(&self, set: &mut BTreeSet<Value>) {
        for d in &self.deletes {
            set.remove(d);
        }
        for i in &self.inserts {
            set.insert(i.clone());
        }
    }

    /// A tuple listed on both sides, if any — such a delta is malformed
    /// (the builders keep the sides disjoint; only hand-assembled deltas
    /// can overlap) and is rejected by every application path.
    pub fn overlap(&self) -> Option<&Value> {
        self.inserts.intersection(&self.deletes).next()
    }
}

/// A batch of updates: a delta per relation symbol.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    rels: BTreeMap<Name, DeltaSet>,
}

impl UpdateBatch {
    /// The empty batch.
    pub fn new() -> UpdateBatch {
        UpdateBatch::default()
    }

    /// Record an insertion (cancelling any pending delete of the same tuple,
    /// so the two sides stay disjoint).
    pub fn insert(&mut self, rel: impl Into<Name>, tuple: Value) -> &mut Self {
        let d = self.rels.entry(rel.into()).or_default();
        d.deletes.remove(&tuple);
        d.inserts.insert(tuple);
        self
    }

    /// Record a deletion (cancelling any pending insert of the same tuple).
    pub fn delete(&mut self, rel: impl Into<Name>, tuple: Value) -> &mut Self {
        let d = self.rels.entry(rel.into()).or_default();
        d.inserts.remove(&tuple);
        d.deletes.insert(tuple);
        self
    }

    /// A batch holding one relation's delta.
    pub fn from_delta(rel: impl Into<Name>, delta: DeltaSet) -> UpdateBatch {
        let mut b = UpdateBatch::new();
        if !delta.is_empty() {
            b.rels.insert(rel.into(), delta);
        }
        b
    }

    /// Merge another relation's delta into the batch (sequential semantics:
    /// the new delta is applied after whatever the batch already records).
    pub fn push_delta(&mut self, rel: impl Into<Name>, delta: DeltaSet) -> &mut Self {
        let rel = rel.into();
        for i in delta.inserts {
            self.insert(rel, i);
        }
        for d in delta.deletes {
            self.delete(rel, d);
        }
        self
    }

    /// Does the batch record no updates?
    pub fn is_empty(&self) -> bool {
        self.rels.values().all(DeltaSet::is_empty)
    }

    /// Total number of touched tuples across relations.
    pub fn len(&self) -> usize {
        self.rels.values().map(DeltaSet::len).sum()
    }

    /// The per-relation deltas, in name order.
    pub fn relations(&self) -> impl Iterator<Item = (&Name, &DeltaSet)> {
        self.rels.iter()
    }

    /// Reduce the batch to *exact* deltas against an instance: drop inserts
    /// of tuples already present and deletes of tuples already absent.
    /// Unbound relation names are treated as the empty set (the update
    /// introduces the relation); a non-set binding is an error.
    pub fn normalize_against(&self, inst: &Instance) -> Result<UpdateBatch, IvmError> {
        self.check_disjoint()?;
        let mut out = UpdateBatch::new();
        for (name, delta) in &self.rels {
            let exact = match inst.try_get(name) {
                None => DeltaSet {
                    inserts: delta.inserts.clone(),
                    deletes: BTreeSet::new(),
                },
                Some(v) => {
                    let old = v.as_set().map_err(|_| IvmError::NotASet(*name))?;
                    DeltaSet {
                        inserts: delta.inserts.difference(old).cloned().collect(),
                        deletes: delta
                            .deletes
                            .iter()
                            .filter(|d| old.contains(*d))
                            .cloned()
                            .collect(),
                    }
                }
            };
            if !exact.is_empty() {
                out.rels.insert(*name, exact);
            }
        }
        Ok(out)
    }

    /// The instance after this batch: for each touched relation,
    /// `new = (old ∖ deletes) ∪ inserts` (functional; the input is shared,
    /// not copied, except along the touched paths).
    pub fn apply(&self, inst: &Instance) -> Result<Instance, IvmError> {
        self.check_disjoint()?;
        let mut bindings = Vec::with_capacity(self.rels.len());
        for (name, delta) in &self.rels {
            let mut set = match inst.try_get(name) {
                None => SetValue::empty(),
                Some(v) => v
                    .as_set_value()
                    .map_err(|_| IvmError::NotASet(*name))?
                    .clone(),
            };
            // the one copy of a shared relation: `make_mut` on the clone
            delta.apply_to(set.make_mut());
            bindings.push((*name, Value::Set(set)));
        }
        Ok(inst.with_many(bindings))
    }

    /// Reject deltas with a tuple on both sides ([`IvmError::
    /// OverlappingDelta`]) — the check every application path runs first.
    pub fn check_disjoint(&self) -> Result<(), IvmError> {
        for (name, delta) in &self.rels {
            if let Some(t) = delta.overlap() {
                return Err(IvmError::OverlappingDelta {
                    rel: *name,
                    tuple: t.clone(),
                });
            }
        }
        Ok(())
    }

    /// Validate the batch against a schema: every touched relation must be
    /// declared with a set type, and every tuple must have that set's
    /// element type.  Reports [`IvmError::UnknownRelation`],
    /// [`IvmError::NotASet`] or [`IvmError::TypeMismatch`]; state is never
    /// touched.
    pub fn validate_schema(&self, schema: &Schema) -> Result<(), IvmError> {
        for (name, delta) in &self.rels {
            let Ok(ty) = schema.type_of(name) else {
                return Err(IvmError::UnknownRelation(*name));
            };
            let Some(elem_ty) = ty.elem() else {
                return Err(IvmError::NotASet(*name));
            };
            for t in delta.elems() {
                if !t.has_type(elem_ty) {
                    return Err(IvmError::TypeMismatch {
                        rel: *name,
                        expected: elem_ty.clone(),
                        tuple: t.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Strict exactness check against a concrete instance: beyond
    /// [disjointness][UpdateBatch::check_disjoint], every insert must be
    /// genuinely absent ([`IvmError::DuplicateInsert`] otherwise) and every
    /// delete genuinely present ([`IvmError::MissingDelete`]).  This is the
    /// serving boundary's alternative to silent normalization.
    pub fn validate_against(&self, inst: &Instance) -> Result<(), IvmError> {
        self.check_disjoint()?;
        for (name, delta) in &self.rels {
            let bound;
            let old = match inst.try_get(name) {
                None => &EMPTY,
                Some(v) => {
                    bound = v.as_set().map_err(|_| IvmError::NotASet(*name))?;
                    bound
                }
            };
            if let Some(t) = delta.inserts.iter().find(|t| old.contains(*t)) {
                return Err(IvmError::DuplicateInsert {
                    rel: *name,
                    tuple: t.clone(),
                });
            }
            if let Some(t) = delta.deletes.iter().find(|t| !old.contains(*t)) {
                return Err(IvmError::MissingDelete {
                    rel: *name,
                    tuple: t.clone(),
                });
            }
        }
        Ok(())
    }

    /// [`validate_against`][UpdateBatch::validate_against] +
    /// [`apply`][UpdateBatch::apply]: apply the batch only if it is an
    /// exact delta of the instance.
    pub fn apply_strict(&self, inst: &Instance) -> Result<Instance, IvmError> {
        self.validate_against(inst)?;
        self.apply(inst)
    }

    /// Merge a later batch into this one with sequential semantics: the
    /// result applied once is the two batches applied in order (later
    /// operations cancel earlier opposite ones tuple-wise).
    pub fn merge(&mut self, later: &UpdateBatch) -> &mut Self {
        for (name, delta) in &later.rels {
            self.push_delta(*name, delta.clone());
        }
        self
    }

    /// Coalesce a sequence of batches into one with sequential semantics —
    /// the ingest-queue compaction of the serving layer.
    pub fn coalesce<'a>(batches: impl IntoIterator<Item = &'a UpdateBatch>) -> UpdateBatch {
        let mut out = UpdateBatch::new();
        for b in batches {
            out.merge(b);
        }
        out
    }

    /// Validate and coalesce a queue of batches against `base` in one pass,
    /// returning the single **exact** delta whose application equals
    /// applying the batches in order.
    ///
    /// Semantically this is the strict-serving composition
    ///
    /// ```text
    /// for b in batches { b.validate_against(&state)?; state = b.apply(&state)?; }
    /// ```
    ///
    /// followed by [`UpdateBatch::coalesce`] + [`UpdateBatch::
    /// normalize_against`] — but where that composition clones every touched
    /// relation per batch (O(queue · n)), this maintains only an *overlay*:
    /// the exact delta accumulated so far, with membership after batch `i`
    /// answered as "base membership, flipped if the overlay touches the
    /// tuple".  Cost is O(|Δ| · log n) total, which is what lets a batched
    /// flush amortize toward the bare maintenance cost per update.
    ///
    /// Errors are the same as the sequential composition's:
    /// [`IvmError::OverlappingDelta`], [`IvmError::DuplicateInsert`] and
    /// [`IvmError::MissingDelete`] (against the *evolving* state, so a
    /// later batch may legally delete what an earlier one inserted), and
    /// [`IvmError::NotASet`] for non-set base bindings.  On error, nothing
    /// is returned and `base` is untouched (it never is).
    pub fn coalesce_exact<'a>(
        batches: impl IntoIterator<Item = &'a UpdateBatch>,
        base: &Instance,
    ) -> Result<UpdateBatch, IvmError> {
        let mut overlay: BTreeMap<Name, DeltaSet> = BTreeMap::new();
        for b in batches {
            b.check_disjoint()?;
            for (name, delta) in &b.rels {
                let base_set = match base.try_get(name) {
                    None => &EMPTY,
                    Some(v) => v.as_set().map_err(|_| IvmError::NotASet(*name))?,
                };
                let ov = overlay.entry(*name).or_default();
                // Mutating the overlay while validating is equivalent to
                // validate-whole-batch-then-apply: one batch's sides are
                // disjoint, so no tuple is checked twice within a batch.
                for t in &delta.inserts {
                    let in_base = base_set.contains(t);
                    let present = if in_base {
                        !ov.deletes.contains(t)
                    } else {
                        ov.inserts.contains(t)
                    };
                    if present {
                        return Err(IvmError::DuplicateInsert {
                            rel: *name,
                            tuple: t.clone(),
                        });
                    }
                    if in_base {
                        // re-insert of a base tuple deleted earlier in the
                        // queue: the two cancel out of the exact delta
                        ov.deletes.remove(t);
                    } else {
                        ov.inserts.insert(t.clone());
                    }
                }
                for t in &delta.deletes {
                    let in_base = base_set.contains(t);
                    let present = if in_base {
                        !ov.deletes.contains(t)
                    } else {
                        ov.inserts.contains(t)
                    };
                    if !present {
                        return Err(IvmError::MissingDelete {
                            rel: *name,
                            tuple: t.clone(),
                        });
                    }
                    if in_base {
                        ov.deletes.insert(t.clone());
                    } else {
                        ov.inserts.remove(t);
                    }
                }
            }
        }
        overlay.retain(|_, d| !d.is_empty());
        Ok(UpdateBatch { rels: overlay })
    }
}

static EMPTY: BTreeSet<Value> = BTreeSet::new();

#[cfg(test)]
mod tests {
    use super::*;

    fn atoms(ids: impl IntoIterator<Item = u64>) -> BTreeSet<Value> {
        ids.into_iter().map(Value::atom).collect()
    }

    #[test]
    fn insert_and_delete_stay_disjoint() {
        let mut b = UpdateBatch::new();
        b.insert("S", Value::atom(1));
        b.delete("S", Value::atom(1));
        b.delete("S", Value::atom(2));
        b.insert("S", Value::atom(2));
        let d = b.relations().next().unwrap().1;
        assert_eq!(d.inserts, atoms([2]));
        assert_eq!(d.deletes, atoms([1]));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn diff_and_apply_roundtrip() {
        let old = atoms([1, 2, 3]);
        let new = atoms([2, 3, 4, 5]);
        let d = DeltaSet::diff(&old, &new);
        assert_eq!(d.inserts, atoms([4, 5]));
        assert_eq!(d.deletes, atoms([1]));
        let mut applied = old.clone();
        d.apply_to(&mut applied);
        assert_eq!(applied, new);
        assert!(d.was_member(&new, &Value::atom(1)));
        assert!(!d.was_member(&new, &Value::atom(4)));
        assert!(d.was_member(&new, &Value::atom(2)));
    }

    #[test]
    fn normalization_drops_noop_updates() {
        let inst = Instance::from_bindings([(Name::new("S"), Value::set(atoms([1, 2])))]);
        let mut b = UpdateBatch::new();
        b.insert("S", Value::atom(1)) // already present
            .insert("S", Value::atom(9))
            .delete("S", Value::atom(2))
            .delete("S", Value::atom(7)); // already absent
        b.insert("T", Value::atom(4)); // unbound relation
        let n = b.normalize_against(&inst).unwrap();
        let s = n.relations().find(|(r, _)| r.as_str() == "S").unwrap().1;
        assert_eq!(s.inserts, atoms([9]));
        assert_eq!(s.deletes, atoms([2]));
        let t = n.relations().find(|(r, _)| r.as_str() == "T").unwrap().1;
        assert_eq!(t.inserts, atoms([4]));
        assert!(t.deletes.is_empty());
        // a non-set binding is rejected
        let bad = Instance::from_bindings([(Name::new("S"), Value::atom(0))]);
        assert!(b.normalize_against(&bad).is_err());
    }

    /// The spec `coalesce_exact` must match: strict-validate and apply each
    /// batch in order, then diff the end state against the base.
    fn oracle_coalesce(batches: &[UpdateBatch], base: &Instance) -> Result<UpdateBatch, IvmError> {
        let mut state = base.clone();
        for b in batches {
            state = b.apply_strict(&state)?;
        }
        let mut out = UpdateBatch::new();
        for (name, _) in batches.iter().flat_map(|b| b.relations()) {
            let as_set = |inst: &Instance| -> BTreeSet<Value> {
                inst.try_get(name)
                    .map(|v| v.as_set().unwrap().clone())
                    .unwrap_or_default()
            };
            let d = DeltaSet::diff(&as_set(base), &as_set(&state));
            if !d.is_empty() {
                out.rels.insert(*name, d);
            }
        }
        Ok(out)
    }

    #[test]
    fn coalesce_exact_matches_the_sequential_composition() {
        let base = Instance::from_bindings([(Name::new("S"), Value::set(atoms([1, 2, 3])))]);
        // delete a base tuple, re-insert it, insert-then-delete a fresh one,
        // and leave one genuine insert and one genuine delete
        let mut b1 = UpdateBatch::new();
        b1.delete("S", Value::atom(1)).insert("S", Value::atom(9));
        let mut b2 = UpdateBatch::new();
        b2.insert("S", Value::atom(1)).delete("S", Value::atom(9));
        let mut b3 = UpdateBatch::new();
        b3.insert("S", Value::atom(7)).delete("S", Value::atom(2));
        b3.insert("T", Value::atom(4)); // unbound relation = empty base
        let queue = [b1, b2, b3];
        let got = UpdateBatch::coalesce_exact(&queue, &base).unwrap();
        let want = oracle_coalesce(&queue, &base).unwrap();
        assert_eq!(got, want);
        let s = got.relations().find(|(r, _)| r.as_str() == "S").unwrap().1;
        assert_eq!(s.inserts, atoms([7]), "cancelled pairs drop out");
        assert_eq!(s.deletes, atoms([2]));
        // and applying the one coalesced batch equals applying the queue
        assert_eq!(
            got.apply(&base).unwrap().get(&Name::new("S")),
            queue
                .iter()
                .try_fold(base.clone(), |st, b| b.apply(&st))
                .unwrap()
                .get(&Name::new("S"))
        );
    }

    #[test]
    fn coalesce_exact_rejects_what_strict_application_rejects() {
        let base = Instance::from_bindings([(Name::new("S"), Value::set(atoms([1])))]);
        // duplicate insert of a base tuple
        let mut dup = UpdateBatch::new();
        dup.insert("S", Value::atom(1));
        assert!(matches!(
            UpdateBatch::coalesce_exact([&dup], &base),
            Err(IvmError::DuplicateInsert { .. })
        ));
        // duplicate insert across batches: b1 inserts 5, b2 inserts 5 again
        let mut b1 = UpdateBatch::new();
        b1.insert("S", Value::atom(5));
        let mut b2 = UpdateBatch::new();
        b2.insert("S", Value::atom(5));
        assert!(matches!(
            UpdateBatch::coalesce_exact([&b1, &b2], &base),
            Err(IvmError::DuplicateInsert { .. })
        ));
        // missing delete against the evolving state: b1 deletes 1, b2 too
        let mut d1 = UpdateBatch::new();
        d1.delete("S", Value::atom(1));
        let mut d2 = UpdateBatch::new();
        d2.delete("S", Value::atom(1));
        assert!(matches!(
            UpdateBatch::coalesce_exact([&d1, &d2], &base),
            Err(IvmError::MissingDelete { .. })
        ));
        // but delete-of-own-insert is legal (evolving-state semantics)
        let mut i = UpdateBatch::new();
        i.insert("S", Value::atom(5));
        let mut d = UpdateBatch::new();
        d.delete("S", Value::atom(5));
        let merged = UpdateBatch::coalesce_exact([&i, &d], &base).unwrap();
        assert!(merged.is_empty());
        // non-set base binding
        let bad = Instance::from_bindings([(Name::new("S"), Value::atom(0))]);
        assert!(matches!(
            UpdateBatch::coalesce_exact([&i], &bad),
            Err(IvmError::NotASet(_))
        ));
    }

    #[test]
    fn apply_is_functional() {
        let inst = Instance::from_bindings([(Name::new("S"), Value::set(atoms([1])))]);
        let mut b = UpdateBatch::new();
        b.insert("S", Value::atom(2)).delete("S", Value::atom(1));
        let out = b.apply(&inst).unwrap();
        assert_eq!(out.get(&Name::new("S")).unwrap(), &Value::set(atoms([2])));
        assert_eq!(inst.get(&Name::new("S")).unwrap(), &Value::set(atoms([1])));
    }
}
