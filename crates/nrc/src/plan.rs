//! Plan-based evaluation of NRC expressions.
//!
//! The synthesized rewritings of Theorem 2 are dominated by two shapes that
//! the naive evaluator executes quadratically:
//!
//! * **membership filters** — `⋃{ eq_𝔘(x, E) | x ∈ E' }` (the compiled
//!   `∈`/interpolant guards), a linear scan per candidate;
//! * **equality joins** — `⋃{ ⋃{ ⋃{ B | w ∈ eq_𝔘(k1, k2) } | y ∈ E2 } |
//!   x ∈ E1 }`, a nested loop over `E1 × E2`.
//!
//! This module lowers an [`Expr`] into a small physical-plan IR ([`Plan`])
//! that recognizes those shapes and executes them as indexed operations:
//! membership tests become `O(log n)` probes of the (already canonical)
//! `BTreeSet`, equality joins become hash joins over a [`HashMap`]-keyed
//! index, Boolean guards short-circuit, and loop-invariant subplans are
//! hoisted into [`Plan::Let`] bindings evaluated once and shared by
//! reference.
//!
//! Conditions are decided, not built: a guard's condition goes through
//! [`holds_bound`]'s kernel, which turns `member` into a probe, `eq` into a
//! value comparison, `∪` into `||`, `guard` into `&&` and `{()} \ b` into
//! `!b`, so no `Set(Unit)` Boolean is allocated.  A filter loop
//! `for[x in R]{guard(φ; {x})}` — the shape of every synthesized view —
//! runs set at a time ([`exec_filter`]): when `φ` is those
//! connectives over probes `member(x, H)` and `x`-free sub-conditions, each
//! haystack is evaluated once and `R` is walked in order with one forward
//! cursor per haystack (a haystack much larger than `R` is probed instead),
//! and the output is bulk-built.  A filter that only probes operands of its
//! own `∪`-range is no filter at all: `{x ∈ ⋃O | ⋁_{h ∈ H} x ∈ h} = ⋃H` for
//! `H ⊆ O`, so it lowers to the union of the probed operands (the range
//! itself when all are probed) — the shape of the partition answer `Q` and
//! of the overlapping workload's answers and shared fragments, whose
//! interpolant tests membership in the very views their range is made of.
//! Lowering is purely structural — every recognizer is justified
//! by an NRC equivalence on canonical values, and the naive
//! [`crate::eval::eval`] stays available as an oracle (see
//! `tests/opt_equivalence.rs`).
//!
//! Entry points: [`CompiledQuery::compile`] (simplify → lower → hoist) and
//! [`eval_optimized`] for one-shot use; [`exec_plan_bound`],
//! [`holds_bound`] and [`exec_filter`] are the executor's pieces that
//! `nrs-ivm` reuses.

use crate::expr::Expr;
use crate::opt;
use crate::NrcError;
use nrs_value::{Cursor, Instance, Name, SetValue, Value};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A physical evaluation plan.  Mirrors [`Expr`] plus the indexed operators
/// the recognizers introduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// Environment lookup.
    Var(Name),
    /// The unit value.
    Unit,
    /// Pair construction.
    Pair(Box<Plan>, Box<Plan>),
    /// First projection.
    Proj1(Box<Plan>),
    /// Second projection.
    Proj2(Box<Plan>),
    /// Singleton set.
    Singleton(Box<Plan>),
    /// `get_T`.
    Get {
        /// The element type `T` (for the default on non-singletons).
        ty: nrs_value::Type,
        /// The set-typed argument.
        arg: Box<Plan>,
    },
    /// The empty set.
    Empty,
    /// Set union.
    Union(Box<Plan>, Box<Plan>),
    /// Set difference.
    Diff(Box<Plan>, Box<Plan>),
    /// Fallback nested-loop `⋃{ body | var ∈ over }`.
    ForUnion {
        /// The bound variable.
        var: Name,
        /// The set iterated over.
        over: Box<Plan>,
        /// The set-typed body.
        body: Box<Plan>,
    },
    /// `⋃{ body | _ ∈ cond }` with the binder unused: `body` if `cond` is
    /// non-empty, `∅` otherwise.  Short-circuits the body entirely when the
    /// condition is empty, and evaluates it once (not per member) otherwise.
    Guard {
        /// The (typically Boolean) condition set.
        cond: Box<Plan>,
        /// The set produced when the condition is non-empty.
        body: Box<Plan>,
    },
    /// The compiled equality Boolean at *any* type: the `eq_𝔘` macro, the
    /// componentwise product conjunction, and the subset-both-ways expansion
    /// of `eq_{Set(T)}` all lower here.  Executes as structural equality of
    /// canonical values, which coincides with extensional NRC equality at
    /// every type — so a set-valued equality guard is a single O(min(m,n))
    /// comparison instead of the macro's nested quantifier loops.
    Eq(Box<Plan>, Box<Plan>),
    /// The compiled membership Boolean `⋃{ eq(x, elem) | x ∈ set }`:
    /// an `O(log n)` probe instead of a linear scan.
    Member {
        /// The needle.
        elem: Box<Plan>,
        /// The haystack set.
        set: Box<Plan>,
    },
    /// An equality join `⋃{ ⋃{ guard(eq(lkey, rkey), body) | rvar ∈ right } |
    /// lvar ∈ left }` executed by building a hash index of `right` keyed by
    /// `rkey` and probing it once per `left` member.
    HashJoin {
        /// Probe side.
        left: Box<Plan>,
        /// Binder for probe-side members.
        lvar: Name,
        /// Probe key, in terms of `lvar` (and outer bindings).
        lkey: Box<Plan>,
        /// Build side (independent of `lvar`).
        right: Box<Plan>,
        /// Binder for build-side members.
        rvar: Name,
        /// Build key, in terms of `rvar` (and outer bindings).
        rkey: Box<Plan>,
        /// Per-match set expression (may use both binders).
        body: Box<Plan>,
    },
    /// Evaluate `value` once, bind it, and run `body` — the carrier of
    /// loop-invariant hoisting ("shared values").
    Let {
        /// The binding introduced (a reserved `%h#k` name).
        var: Name,
        /// The shared subplan.
        value: Box<Plan>,
        /// The plan evaluated under the binding.
        body: Box<Plan>,
    },
}

impl Plan {
    fn boxed(self) -> Box<Plan> {
        Box::new(self)
    }

    /// Free variables of the plan (binders of `ForUnion`/`HashJoin`/`Let`
    /// are respected).
    pub fn free_vars(&self) -> BTreeSet<Name> {
        let mut out = BTreeSet::new();
        self.collect_free(&mut Vec::new(), &mut out);
        out
    }

    fn collect_free(&self, bound: &mut Vec<Name>, out: &mut BTreeSet<Name>) {
        match self {
            Plan::Var(n) => {
                if !bound.contains(n) {
                    out.insert(*n);
                }
            }
            Plan::Unit | Plan::Empty => {}
            Plan::Pair(a, b) | Plan::Union(a, b) | Plan::Diff(a, b) | Plan::Eq(a, b) => {
                a.collect_free(bound, out);
                b.collect_free(bound, out);
            }
            Plan::Proj1(x) | Plan::Proj2(x) | Plan::Singleton(x) => x.collect_free(bound, out),
            Plan::Get { arg, .. } => arg.collect_free(bound, out),
            Plan::Guard { cond, body } => {
                cond.collect_free(bound, out);
                body.collect_free(bound, out);
            }
            Plan::Member { elem, set } => {
                elem.collect_free(bound, out);
                set.collect_free(bound, out);
            }
            Plan::ForUnion { var, over, body } => {
                over.collect_free(bound, out);
                bound.push(*var);
                body.collect_free(bound, out);
                bound.pop();
            }
            Plan::Let { var, value, body } => {
                value.collect_free(bound, out);
                bound.push(*var);
                body.collect_free(bound, out);
                bound.pop();
            }
            Plan::HashJoin {
                left,
                lvar,
                lkey,
                right,
                rvar,
                rkey,
                body,
            } => {
                left.collect_free(bound, out);
                right.collect_free(bound, out);
                bound.push(*lvar);
                lkey.collect_free(bound, out);
                bound.push(*rvar);
                rkey.collect_free(bound, out);
                body.collect_free(bound, out);
                bound.pop();
                bound.pop();
            }
        }
    }

    /// Is evaluating this plan potentially super-constant work (it builds or
    /// scans sets)?  Cheap plans are never worth a `Let`.
    fn is_expensive(&self) -> bool {
        match self {
            Plan::Var(_) | Plan::Unit | Plan::Empty => false,
            Plan::Proj1(x) | Plan::Proj2(x) | Plan::Singleton(x) => x.is_expensive(),
            Plan::Get { arg, .. } => arg.is_expensive(),
            Plan::Pair(a, b) | Plan::Eq(a, b) => a.is_expensive() || b.is_expensive(),
            Plan::Member { elem, set } => elem.is_expensive() || set.is_expensive(),
            Plan::Guard { cond, body } => cond.is_expensive() || body.is_expensive(),
            Plan::Union(..) | Plan::Diff(..) | Plan::ForUnion { .. } | Plan::HashJoin { .. } => {
                true
            }
            Plan::Let { .. } => true,
        }
    }

    /// Number of plan nodes (for reports and tests).
    pub fn size(&self) -> usize {
        match self {
            Plan::Var(_) | Plan::Unit | Plan::Empty => 1,
            Plan::Proj1(x) | Plan::Proj2(x) | Plan::Singleton(x) => 1 + x.size(),
            Plan::Get { arg, .. } => 1 + arg.size(),
            Plan::Pair(a, b) | Plan::Union(a, b) | Plan::Diff(a, b) | Plan::Eq(a, b) => {
                1 + a.size() + b.size()
            }
            Plan::Member { elem, set } => 1 + elem.size() + set.size(),
            Plan::Guard { cond, body } => 1 + cond.size() + body.size(),
            Plan::ForUnion { over, body, .. } => 1 + over.size() + body.size(),
            Plan::Let { value, body, .. } => 1 + value.size() + body.size(),
            Plan::HashJoin {
                left,
                lkey,
                right,
                rkey,
                body,
                ..
            } => 1 + left.size() + lkey.size() + right.size() + rkey.size() + body.size(),
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plan::Var(n) => write!(f, "{n}"),
            Plan::Unit => write!(f, "()"),
            Plan::Pair(a, b) => write!(f, "<{a}, {b}>"),
            Plan::Proj1(x) => write!(f, "p1({x})"),
            Plan::Proj2(x) => write!(f, "p2({x})"),
            Plan::Singleton(x) => write!(f, "{{{x}}}"),
            Plan::Get { arg, .. } => write!(f, "get({arg})"),
            Plan::Empty => write!(f, "empty"),
            Plan::Union(a, b) => write!(f, "({a} u {b})"),
            Plan::Diff(a, b) => write!(f, "({a} \\ {b})"),
            Plan::ForUnion { var, over, body } => write!(f, "for[{var} in {over}]{{{body}}}"),
            Plan::Guard { cond, body } => write!(f, "guard({cond}; {body})"),
            Plan::Eq(a, b) => write!(f, "eq({a}, {b})"),
            Plan::Member { elem, set } => write!(f, "member({elem}, {set})"),
            Plan::HashJoin {
                left,
                lvar,
                lkey,
                right,
                rvar,
                rkey,
                body,
            } => write!(
                f,
                "hashjoin[{lvar} in {left} on {lkey} = {rkey} on {rvar} in {right}]{{{body}}}"
            ),
            Plan::Let { var, value, body } => write!(f, "let {var} = {value} in {body}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Pattern recognizers
// ---------------------------------------------------------------------------

/// Recognize the Boolean macro `eq_𝔘(a, b)`:
/// `{()} \ ⋃{ {()} | w ∈ ({a}\{b}) ∪ ({b}\{a}) }`.
fn match_eq_ur(e: &Expr) -> Option<(&Expr, &Expr)> {
    let Expr::Diff(tt, loop_) = e else {
        return None;
    };
    if !is_tt(tt) {
        return None;
    }
    let Expr::BigUnion { over, body, .. } = &**loop_ else {
        return None;
    };
    if !is_tt(body) {
        return None;
    }
    let Expr::Union(d1, d2) = &**over else {
        return None;
    };
    let (Expr::Diff(sa, sb), Expr::Diff(sb2, sa2)) = (&**d1, &**d2) else {
        return None;
    };
    let (Expr::Singleton(a), Expr::Singleton(b)) = (&**sa, &**sb) else {
        return None;
    };
    let (Expr::Singleton(b2), Expr::Singleton(a2)) = (&**sb2, &**sa2) else {
        return None;
    };
    (a == a2 && b == b2).then_some((&**a, &**b))
}

/// Is this the Boolean `true`, `{()}`?
fn is_tt(e: &Expr) -> bool {
    matches!(e, Expr::Singleton(u) if matches!(&**u, Expr::Unit))
}

/// Recognize the compiled `eq_T(a, b)` at **any** type: the Ur macro, the
/// componentwise conjunction at products, or the subset-both-ways expansion
/// at set types (`macros::eq_at`).  Since values are canonical, all of them
/// denote structural equality and lower to [`Plan::Eq`].
fn match_eq_at(e: &Expr) -> Option<(&Expr, &Expr)> {
    if let Some(p) = match_eq_ur(e) {
        return Some(p);
    }
    // Both remaining shapes are an `and(l, r)`: a binding union whose binder
    // is unused in the body.
    let Expr::BigUnion { var, over, body } = e else {
        return None;
    };
    if body.free_vars().contains(var) {
        return None;
    }
    match_eq_prod(over, body).or_else(|| match_eq_set(over, body))
}

/// `and(eq_{T1}(π1 a, π1 b), eq_{T2}(π2 a, π2 b))`: componentwise equality at
/// a product type (either conjunct order / argument order).
fn match_eq_prod<'a>(lhs: &'a Expr, rhs: &'a Expr) -> Option<(&'a Expr, &'a Expr)> {
    let (l1, r1) = match_eq_at(lhs)?;
    let (l2, r2) = match_eq_at(rhs)?;
    let (Expr::Proj1(a1), Expr::Proj1(b1)) = (l1, r1) else {
        return None;
    };
    let (Expr::Proj2(a2), Expr::Proj2(b2)) = (l2, r2) else {
        return None;
    };
    if (a1 == a2 && b1 == b2) || (a1 == b2 && b1 == a2) {
        Some((a1, b1))
    } else {
        None
    }
}

/// `and(subset(a, b), subset(b, a))`: extensional equality at a set type.
fn match_eq_set<'a>(lhs: &'a Expr, rhs: &'a Expr) -> Option<(&'a Expr, &'a Expr)> {
    let (a1, b1) = match_subset(lhs)?;
    let (b2, a2) = match_subset(rhs)?;
    (a1 == a2 && b1 == b2).then_some((a1, b1))
}

/// The `macros::subset` shape
/// `{()} \ ⋃{ {()} \ ⋃{ eq_T(y, x) | y ∈ b } | x ∈ a }` (i.e. ∀x∈a. x ∈ b),
/// returning `(a, b)`.
fn match_subset(e: &Expr) -> Option<(&Expr, &Expr)> {
    let Expr::Diff(tt1, outer) = e else {
        return None;
    };
    if !is_tt(tt1) {
        return None;
    }
    let Expr::BigUnion {
        var: x,
        over: a,
        body: inner,
    } = &**outer
    else {
        return None;
    };
    let Expr::Diff(tt2, mem) = &**inner else {
        return None;
    };
    if !is_tt(tt2) {
        return None;
    }
    let Expr::BigUnion {
        var: y,
        over: b,
        body: eq,
    } = &**mem
    else {
        return None;
    };
    if x == y || b.free_vars().contains(x) {
        return None;
    }
    let (l, r) = match_eq_at(eq)?;
    let (vx, vy) = (Expr::Var(*x), Expr::Var(*y));
    ((*l == vy && *r == vx) || (*l == vx && *r == vy)).then_some((&**a, &**b))
}

/// Recognize the compiled membership test `⋃{ eq_T(x, E) | x ∈ S }` at any
/// element type (in either argument order), returning `(needle, haystack)`.
fn match_member(e: &Expr) -> Option<(&Expr, &Expr)> {
    let Expr::BigUnion { var, over, body } = e else {
        return None;
    };
    let (a, b) = match_eq_at(body)?;
    let needle = if *a == Expr::Var(*var) && !b.free_vars().contains(var) {
        b
    } else if *b == Expr::Var(*var) && !a.free_vars().contains(var) {
        a
    } else {
        return None;
    };
    Some((needle, over))
}

/// Recognize the two-loop equality join (see the module docs) rooted at
/// `⋃{ body | lvar ∈ left }` and lower it to a [`Plan::HashJoin`].
fn match_hash_join(lvar: &Name, left: &Expr, outer_body: &Expr) -> Option<Plan> {
    let Expr::BigUnion {
        var: rvar,
        over: right,
        body: inner,
    } = outer_body
    else {
        return None;
    };
    if rvar == lvar || right.free_vars().contains(lvar) {
        return None;
    }
    // The innermost level must be a guard: a binder unused in its body.
    let Expr::BigUnion {
        var: w,
        over: cond,
        body: jbody,
    } = &**inner
    else {
        return None;
    };
    if jbody.free_vars().contains(w) {
        return None;
    }
    let (k1, k2) = match_eq_at(cond)?;
    let (f1, f2) = (k1.free_vars(), k2.free_vars());
    let lkey_rkey =
        if f1.contains(lvar) && !f1.contains(rvar) && f2.contains(rvar) && !f2.contains(lvar) {
            Some((k1, k2))
        } else if f2.contains(lvar) && !f2.contains(rvar) && f1.contains(rvar) && !f1.contains(lvar)
        {
            Some((k2, k1))
        } else {
            None
        };
    let (lkey, rkey) = lkey_rkey?;
    Some(Plan::HashJoin {
        left: lower_expr(left).boxed(),
        lvar: *lvar,
        lkey: lower_expr(lkey).boxed(),
        right: lower_expr(right).boxed(),
        rvar: *rvar,
        rkey: lower_expr(rkey).boxed(),
        body: lower_expr(jbody).boxed(),
    })
}

/// Lower an expression to a plan (without invariant hoisting).
fn lower_expr(e: &Expr) -> Plan {
    if let Some((a, b)) = match_eq_at(e) {
        return Plan::Eq(lower_expr(a).boxed(), lower_expr(b).boxed());
    }
    if let Some((elem, set)) = match_member(e) {
        return Plan::Member {
            elem: lower_expr(elem).boxed(),
            set: lower_expr(set).boxed(),
        };
    }
    match e {
        Expr::Var(n) => Plan::Var(*n),
        Expr::Unit => Plan::Unit,
        Expr::Pair(a, b) => Plan::Pair(lower_expr(a).boxed(), lower_expr(b).boxed()),
        Expr::Proj1(x) => Plan::Proj1(lower_expr(x).boxed()),
        Expr::Proj2(x) => Plan::Proj2(lower_expr(x).boxed()),
        Expr::Singleton(x) => Plan::Singleton(lower_expr(x).boxed()),
        Expr::Get { ty, arg } => Plan::Get {
            ty: ty.clone(),
            arg: lower_expr(arg).boxed(),
        },
        Expr::Empty(_) => Plan::Empty,
        Expr::Union(a, b) => Plan::Union(lower_expr(a).boxed(), lower_expr(b).boxed()),
        Expr::Diff(a, b) => Plan::Diff(lower_expr(a).boxed(), lower_expr(b).boxed()),
        Expr::BigUnion { var, over, body } => {
            if let Some(join) = match_hash_join(var, over, body) {
                return join;
            }
            if !body.free_vars().contains(var) {
                return Plan::Guard {
                    cond: lower_expr(over).boxed(),
                    body: lower_expr(body).boxed(),
                };
            }
            Plan::ForUnion {
                var: *var,
                over: lower_expr(over).boxed(),
                body: lower_expr(body).boxed(),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Plan-level peephole simplification
// ---------------------------------------------------------------------------
//
// The interpolation-extracted expressions carry degenerate Boolean scaffolding
// — `{e}\{e}` for "false", double negations, guards over constant-true sets —
// that the *expression*-level simplifier cannot always remove because the
// empty set's element type is not syntactically available there.  `Plan::Empty`
// is untyped, so these laws become expressible after lowering.  Folding them
// is what uncovers the `ForUnion{x ∈ S} EqUr(x, e)` cores that the
// [`Plan::Member`] rule then turns into indexed probes.

/// Bound on peephole fixpoint passes (same safety-margin role as in `opt`).
const MAX_PEEPHOLE_PASSES: usize = 8;

/// Simplify a plan to a (bounded) fixpoint of the peephole rules.
fn plan_simplify(plan: Plan) -> Plan {
    let mut cur = plan;
    for _ in 0..MAX_PEEPHOLE_PASSES {
        let next = peephole_pass(&cur);
        if next == cur {
            break;
        }
        cur = next;
    }
    cur
}

fn peephole_pass(p: &Plan) -> Plan {
    let rebuilt = match p {
        Plan::Var(_) | Plan::Unit | Plan::Empty => p.clone(),
        Plan::Pair(a, b) => Plan::Pair(peephole_pass(a).boxed(), peephole_pass(b).boxed()),
        Plan::Proj1(x) => Plan::Proj1(peephole_pass(x).boxed()),
        Plan::Proj2(x) => Plan::Proj2(peephole_pass(x).boxed()),
        Plan::Singleton(x) => Plan::Singleton(peephole_pass(x).boxed()),
        Plan::Get { ty, arg } => Plan::Get {
            ty: ty.clone(),
            arg: peephole_pass(arg).boxed(),
        },
        Plan::Union(a, b) => Plan::Union(peephole_pass(a).boxed(), peephole_pass(b).boxed()),
        Plan::Diff(a, b) => Plan::Diff(peephole_pass(a).boxed(), peephole_pass(b).boxed()),
        Plan::Eq(a, b) => Plan::Eq(peephole_pass(a).boxed(), peephole_pass(b).boxed()),
        Plan::Guard { cond, body } => Plan::Guard {
            cond: peephole_pass(cond).boxed(),
            body: peephole_pass(body).boxed(),
        },
        Plan::Member { elem, set } => Plan::Member {
            elem: peephole_pass(elem).boxed(),
            set: peephole_pass(set).boxed(),
        },
        Plan::ForUnion { var, over, body } => Plan::ForUnion {
            var: *var,
            over: peephole_pass(over).boxed(),
            body: peephole_pass(body).boxed(),
        },
        Plan::Let { var, value, body } => Plan::Let {
            var: *var,
            value: peephole_pass(value).boxed(),
            body: peephole_pass(body).boxed(),
        },
        Plan::HashJoin {
            left,
            lvar,
            lkey,
            right,
            rvar,
            rkey,
            body,
        } => Plan::HashJoin {
            left: peephole_pass(left).boxed(),
            lvar: *lvar,
            lkey: peephole_pass(lkey).boxed(),
            right: peephole_pass(right).boxed(),
            rvar: *rvar,
            rkey: peephole_pass(rkey).boxed(),
            body: peephole_pass(body).boxed(),
        },
    };
    peephole_rewrite(rebuilt)
}

/// Root-level peephole rules.  All rules are justified on well-typed inputs;
/// plans are pure, so dropping an unused pure subplan is sound.
fn peephole_rewrite(p: Plan) -> Plan {
    match p {
        Plan::Union(a, b) => match (*a, *b) {
            (Plan::Empty, rhs) => rhs,
            (lhs, Plan::Empty) => lhs,
            (lhs, rhs) if lhs == rhs => lhs,
            (lhs, rhs) => Plan::Union(lhs.boxed(), rhs.boxed()),
        },
        Plan::Diff(a, b) => match (*a, *b) {
            (lhs, Plan::Empty) => lhs,
            (Plan::Empty, _) => Plan::Empty,
            // E \ E = ∅ for any pure E — `{ev}\{ev}` is synthesis's "false".
            (lhs, rhs) if lhs == rhs => Plan::Empty,
            // Boolean double negation `{()} \ ({()} \ b) → b` — the macro
            // layer writes ¬ as subtraction from {()}, and `∀∈`-style
            // quantifiers stack two of them around the membership cores the
            // `Member` rule wants to see.
            (lhs, Plan::Diff(inner_tt, inner))
                if is_tt_plan(&lhs) && is_tt_plan(&inner_tt) && is_boolean(&inner) =>
            {
                *inner
            }
            (lhs, rhs) => Plan::Diff(lhs.boxed(), rhs.boxed()),
        },
        Plan::Eq(a, b) => {
            if a == b {
                // reflexivity: e = e is true (plans are pure)
                Plan::Singleton(Plan::Unit.boxed())
            } else {
                Plan::Eq(a, b)
            }
        }
        Plan::Guard { cond, body } => match (*cond, *body) {
            (Plan::Empty, _) => Plan::Empty,
            // a singleton condition is always non-empty ⇒ always true
            (Plan::Singleton(_), body) => body,
            (_, Plan::Empty) => Plan::Empty,
            // `guard(b, {()})` normalizes any set to a Boolean; when `b` is
            // already Boolean-valued it is the identity — this peels the
            // `nonempty(...)` wrappers the Boolean macros stack around `eq`.
            (cond, body) => {
                if is_tt_plan(&body) && is_boolean(&cond) {
                    cond
                } else {
                    Plan::Guard {
                        cond: cond.boxed(),
                        body: body.boxed(),
                    }
                }
            }
        },
        Plan::Member { elem, set } => {
            if matches!(*set, Plan::Empty) {
                // nothing is a member of ∅ (elem is pure, safe to drop)
                Plan::Empty
            } else {
                Plan::Member { elem, set }
            }
        }
        Plan::Proj1(x) => match *x {
            Plan::Pair(a, _) => *a,
            other => Plan::Proj1(other.boxed()),
        },
        Plan::Proj2(x) => match *x {
            Plan::Pair(_, b) => *b,
            other => Plan::Proj2(other.boxed()),
        },
        Plan::Get { ty, arg } => match *arg {
            Plan::Singleton(inner) => *inner,
            other => Plan::Get {
                ty,
                arg: other.boxed(),
            },
        },
        Plan::ForUnion { var, over, body } => peephole_for_union(var, *over, *body),
        Plan::Let { var, value, body } => {
            if *body == Plan::Var(var) {
                *value
            } else if !body.free_vars().contains(&var) {
                // the bound (pure) value is never used
                *body
            } else {
                Plan::Let { var, value, body }
            }
        }
        Plan::HashJoin {
            left,
            lvar,
            lkey,
            right,
            rvar,
            rkey,
            body,
        } => {
            if matches!(*left, Plan::Empty)
                || matches!(*right, Plan::Empty)
                || matches!(*body, Plan::Empty)
            {
                Plan::Empty
            } else {
                Plan::HashJoin {
                    left,
                    lvar,
                    lkey,
                    right,
                    rvar,
                    rkey,
                    body,
                }
            }
        }
        other => other,
    }
}

/// Is this plan the Boolean constant `{()}`?
fn is_tt_plan(p: &Plan) -> bool {
    matches!(p, Plan::Singleton(u) if matches!(**u, Plan::Unit))
}

/// Conservative analysis: does this plan always evaluate to a Boolean
/// (`{()}` or `∅`)?  Used to peel `guard(b, {()})` wrappers.
fn is_boolean(p: &Plan) -> bool {
    match p {
        Plan::Eq(..) | Plan::Member { .. } | Plan::Empty => true,
        Plan::Singleton(u) => matches!(**u, Plan::Unit),
        Plan::Guard { body, .. } => is_boolean(body),
        Plan::Union(a, b) | Plan::Diff(a, b) => is_boolean(a) && is_boolean(b),
        Plan::ForUnion { body, .. } => is_boolean(body),
        Plan::Let { body, .. } => is_boolean(body),
        _ => false,
    }
}

/// Peephole rules for a loop `⋃{ body | var ∈ over }`: empty loops, the
/// identity map, the range-implied filter, loops that are probes or guards,
/// and singleton generators.  The range-implied filter is the identity
/// `{x ∈ ⋃O | ⋁_{h ∈ H} x ∈ h} = ⋃H` for `H ⊆ O`: a filter whose condition
/// only probes operands of its own range is the union of those operands
/// ([`probed_operands`]).  Interpolation emits every set-valued rewriting as
/// `{r ∈ C | κ(r)}`, and when the parameter collection `C` is a union of
/// views the membership interpolant `κ` often tests exactly those views, so
/// such answers execute (and are maintained) as a plain union, with no
/// filter pass and no second copy of the range.
fn peephole_for_union(var: Name, over: Plan, body: Plan) -> Plan {
    if matches!(over, Plan::Empty) || matches!(body, Plan::Empty) {
        return Plan::Empty;
    }
    // identity map: ⋃{ {x} | x ∈ E } → E
    if let Plan::Singleton(inner) = &body {
        if **inner == Plan::Var(var) {
            return over;
        }
    }
    // range-implied filter: {x ∈ ⋃O | ⋁_{h ∈ H} x ∈ h} → ⋃H for H ⊆ O
    if let Some(kept) = filter_cond(var, &body).and_then(|cond| probed_operands(var, &over, cond)) {
        return kept;
    }
    // a loop whose body folded down to an equality test IS a membership probe:
    // ⋃{ eq(x, e) | x ∈ S } ≡ e ∈ S  (with x not free in e)
    if let Plan::Eq(a, b) = &body {
        let needle = if **a == Plan::Var(var) && !b.free_vars().contains(&var) {
            Some(b.clone())
        } else if **b == Plan::Var(var) && !a.free_vars().contains(&var) {
            Some(a.clone())
        } else {
            None
        };
        if let Some(elem) = needle {
            return Plan::Member {
                elem,
                set: over.boxed(),
            };
        }
    }
    // the binder fell out of use after folding ⇒ the loop is a guard
    if !body.free_vars().contains(&var) {
        return Plan::Guard {
            cond: over.boxed(),
            body: body.boxed(),
        };
    }
    // a singleton generator is a single binding
    if let Plan::Singleton(elem) = over {
        return Plan::Let {
            var,
            value: elem,
            body: body.boxed(),
        };
    }
    Plan::ForUnion {
        var,
        over: over.boxed(),
        body: body.boxed(),
    }
}

/// The range-implied filter `{var ∈ O1 ∪ … ∪ Ok | cond}` as the union of the
/// operands it keeps, or `None` when `cond` is not a `∪`-disjunction of
/// probes `member(var, H)` with each `H` free of `var` and equal to some
/// operand `Oi`.  Each member of the range passes exactly when it lies in a
/// probed operand, so the filter is the union of those operands in range
/// order — `over` itself when every operand is probed.
fn probed_operands(var: Name, over: &Plan, cond: &Plan) -> Option<Plan> {
    let (mut operands, mut probes) = (Vec::new(), Vec::new());
    union_operands(over, &mut operands);
    union_operands(cond, &mut probes);
    let mut kept = vec![false; operands.len()];
    for probe in probes {
        match probe {
            Plan::Member { elem, set }
                if **elem == Plan::Var(var) && !set.free_vars().contains(&var) =>
            {
                kept[operands.iter().position(|o| *o == &**set)?] = true;
            }
            _ => return None,
        }
    }
    if kept.iter().all(|&k| k) {
        return Some(over.clone());
    }
    operands
        .into_iter()
        .zip(kept)
        .filter(|&(_, keep)| keep)
        .map(|(operand, _)| operand.clone())
        .reduce(|a, b| Plan::Union(a.boxed(), b.boxed()))
}

/// The operands of a `∪`-tree, left to right.
fn union_operands<'p>(p: &'p Plan, out: &mut Vec<&'p Plan>) {
    match p {
        Plan::Union(a, b) => {
            union_operands(a, out);
            union_operands(b, out);
        }
        other => out.push(other),
    }
}

// ---------------------------------------------------------------------------
// Loop-invariant hoisting
// ---------------------------------------------------------------------------

/// Fresh-name source for hoisted bindings.  `%` never occurs at the start of
/// schema/NameGen names, so these can't collide with user bindings.
struct HoistNames {
    counter: u32,
}

impl HoistNames {
    fn fresh(&mut self) -> Name {
        let n = Name::new(format!("%h#{}", self.counter));
        self.counter += 1;
        n
    }
}

/// Top-down hoisting: at every loop, extract maximal expensive subplans of
/// the body that do not depend on any binder introduced at or below the loop,
/// bind them in `Let`s evaluated once before the loop, and recurse.  Because
/// the pass is top-down, a subplan invariant across several nested loops is
/// hoisted all the way out at the outermost one.
fn hoist(plan: Plan, names: &mut HoistNames) -> Plan {
    match plan {
        Plan::ForUnion { var, over, body } => {
            let over = hoist(*over, names).boxed();
            let (lets, body) = extract_invariants(*body, &[var], names);
            let body = hoist(body, names).boxed();
            wrap_lets(lets, Plan::ForUnion { var, over, body }, names)
        }
        Plan::HashJoin {
            left,
            lvar,
            lkey,
            right,
            rvar,
            rkey,
            body,
        } => {
            let left = hoist(*left, names).boxed();
            let right = hoist(*right, names).boxed();
            let (lets, body) = extract_invariants(*body, &[lvar, rvar], names);
            let body = hoist(body, names).boxed();
            wrap_lets(
                lets,
                Plan::HashJoin {
                    left,
                    lvar,
                    lkey,
                    right,
                    rvar,
                    rkey,
                    body,
                },
                names,
            )
        }
        Plan::Let { var, value, body } => Plan::Let {
            var,
            value: hoist(*value, names).boxed(),
            body: hoist(*body, names).boxed(),
        },
        Plan::Pair(a, b) => Plan::Pair(hoist(*a, names).boxed(), hoist(*b, names).boxed()),
        Plan::Union(a, b) => Plan::Union(hoist(*a, names).boxed(), hoist(*b, names).boxed()),
        Plan::Diff(a, b) => Plan::Diff(hoist(*a, names).boxed(), hoist(*b, names).boxed()),
        Plan::Eq(a, b) => Plan::Eq(hoist(*a, names).boxed(), hoist(*b, names).boxed()),
        Plan::Proj1(x) => Plan::Proj1(hoist(*x, names).boxed()),
        Plan::Proj2(x) => Plan::Proj2(hoist(*x, names).boxed()),
        Plan::Singleton(x) => Plan::Singleton(hoist(*x, names).boxed()),
        Plan::Get { ty, arg } => Plan::Get {
            ty,
            arg: hoist(*arg, names).boxed(),
        },
        Plan::Guard { cond, body } => Plan::Guard {
            cond: hoist(*cond, names).boxed(),
            body: hoist(*body, names).boxed(),
        },
        Plan::Member { elem, set } => Plan::Member {
            elem: hoist(*elem, names).boxed(),
            set: hoist(*set, names).boxed(),
        },
        leaf => leaf,
    }
}

fn wrap_lets(lets: Vec<(Name, Plan)>, inner: Plan, names: &mut HoistNames) -> Plan {
    let mut out = inner;
    for (var, value) in lets.into_iter().rev() {
        out = Plan::Let {
            var,
            value: hoist(value, names).boxed(),
            body: out.boxed(),
        };
    }
    out
}

/// Replace every maximal hoistable subplan of `body` (expensive, and closed
/// w.r.t. `loop_vars` and any binder crossed on the way down) with a fresh
/// variable; returns the bindings in discovery order.  Structurally equal
/// subplans share one binding — that is the "shared values" payoff.
fn extract_invariants(
    body: Plan,
    loop_vars: &[Name],
    names: &mut HoistNames,
) -> (Vec<(Name, Plan)>, Plan) {
    let mut lets: Vec<(Name, Plan)> = Vec::new();
    let mut forbidden: Vec<Name> = loop_vars.to_vec();
    let new_body = extract_rec(body, &mut forbidden, &mut lets, names, true);
    (lets, new_body)
}

fn extract_rec(
    plan: Plan,
    forbidden: &mut Vec<Name>,
    lets: &mut Vec<(Name, Plan)>,
    names: &mut HoistNames,
    is_root: bool,
) -> Plan {
    // The whole body staying put is required: hoisting it would change
    // nothing (it is evaluated exactly once per iteration anyway) and the
    // root of a Guard body may legitimately be invariant.
    if !is_root && plan.is_expensive() {
        let fv = plan.free_vars();
        if forbidden.iter().all(|n| !fv.contains(n)) {
            if let Some((existing, _)) = lets.iter().find(|(_, p)| *p == plan) {
                return Plan::Var(*existing);
            }
            let var = names.fresh();
            lets.push((var, plan));
            return Plan::Var(var);
        }
    }
    match plan {
        Plan::ForUnion { var, over, body } => {
            let over = extract_rec(*over, forbidden, lets, names, false).boxed();
            forbidden.push(var);
            let body = extract_rec(*body, forbidden, lets, names, false).boxed();
            forbidden.pop();
            Plan::ForUnion { var, over, body }
        }
        Plan::HashJoin {
            left,
            lvar,
            lkey,
            right,
            rvar,
            rkey,
            body,
        } => {
            let left = extract_rec(*left, forbidden, lets, names, false).boxed();
            let right = extract_rec(*right, forbidden, lets, names, false).boxed();
            forbidden.push(lvar);
            let lkey = extract_rec(*lkey, forbidden, lets, names, false).boxed();
            forbidden.push(rvar);
            let rkey = extract_rec(*rkey, forbidden, lets, names, false).boxed();
            let body = extract_rec(*body, forbidden, lets, names, false).boxed();
            forbidden.pop();
            forbidden.pop();
            Plan::HashJoin {
                left,
                lvar,
                lkey,
                right,
                rvar,
                rkey,
                body,
            }
        }
        Plan::Let { var, value, body } => {
            let value = extract_rec(*value, forbidden, lets, names, false).boxed();
            forbidden.push(var);
            let body = extract_rec(*body, forbidden, lets, names, false).boxed();
            forbidden.pop();
            Plan::Let { var, value, body }
        }
        Plan::Pair(a, b) => Plan::Pair(
            extract_rec(*a, forbidden, lets, names, false).boxed(),
            extract_rec(*b, forbidden, lets, names, false).boxed(),
        ),
        Plan::Union(a, b) => Plan::Union(
            extract_rec(*a, forbidden, lets, names, false).boxed(),
            extract_rec(*b, forbidden, lets, names, false).boxed(),
        ),
        Plan::Diff(a, b) => Plan::Diff(
            extract_rec(*a, forbidden, lets, names, false).boxed(),
            extract_rec(*b, forbidden, lets, names, false).boxed(),
        ),
        Plan::Eq(a, b) => Plan::Eq(
            extract_rec(*a, forbidden, lets, names, false).boxed(),
            extract_rec(*b, forbidden, lets, names, false).boxed(),
        ),
        Plan::Proj1(x) => Plan::Proj1(extract_rec(*x, forbidden, lets, names, false).boxed()),
        Plan::Proj2(x) => Plan::Proj2(extract_rec(*x, forbidden, lets, names, false).boxed()),
        Plan::Singleton(x) => {
            Plan::Singleton(extract_rec(*x, forbidden, lets, names, false).boxed())
        }
        Plan::Get { ty, arg } => Plan::Get {
            ty,
            arg: extract_rec(*arg, forbidden, lets, names, false).boxed(),
        },
        Plan::Guard { cond, body } => Plan::Guard {
            cond: extract_rec(*cond, forbidden, lets, names, false).boxed(),
            body: extract_rec(*body, forbidden, lets, names, false).boxed(),
        },
        Plan::Member { elem, set } => Plan::Member {
            elem: extract_rec(*elem, forbidden, lets, names, false).boxed(),
            set: extract_rec(*set, forbidden, lets, names, false).boxed(),
        },
        leaf => leaf,
    }
}

/// Lower a (preferably simplified) expression into an executable plan:
/// structural lowering with pattern recognition, peephole constant folding,
/// then invariant hoisting.
pub fn lower(expr: &Expr) -> Plan {
    let mut names = HoistNames { counter: 0 };
    hoist(plan_simplify(lower_expr(expr)), &mut names)
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// The executor environment: the base instance, the caller's bindings, and
/// a scope stack of loop / let bindings.  Pushing a frame is O(1); lookup
/// scans the (shallow) stack innermost-first, then the caller's bindings
/// last-first, and falls back to the instance.
struct Frames<'a> {
    base: &'a Instance,
    bound: &'a [(Name, Value)],
    stack: Vec<(Name, Value)>,
}

impl<'a> Frames<'a> {
    fn new(base: &'a Instance, bound: &'a [(Name, Value)]) -> Frames<'a> {
        Frames {
            base,
            bound,
            stack: Vec::new(),
        }
    }

    fn lookup(&self, n: &Name) -> Option<&Value> {
        self.stack
            .iter()
            .rev()
            .chain(self.bound.iter().rev())
            .find(|(k, _)| k == n)
            .map(|(_, v)| v)
            .or_else(|| self.base.try_get(n))
    }

    fn scoped<T>(&mut self, name: Name, value: Value, f: impl FnOnce(&mut Frames<'a>) -> T) -> T {
        self.stack.push((name, value));
        let out = f(self);
        self.stack.pop();
        out
    }
}

/// Execute an already-lowered plan in an environment binding its free
/// variables.  This is the entry point the incremental view-maintenance
/// layer (`nrs-ivm`) uses to (re)evaluate subplans — e.g. loop bodies under
/// per-member extended environments — against the same executor the batch
/// pipeline uses.
pub fn exec_plan(plan: &Plan, env: &Instance) -> Result<Value, NrcError> {
    exec_plan_bound(plan, env, &[])
}

/// Execute a plan in `env` extended by `bindings` (later entries shadow
/// earlier ones, and all of them shadow `env`) — the result of
/// `exec_plan(plan, &env.with(x, v)…)` without copying the instance's
/// treap path per call.  This is how `nrs-ivm` evaluates a loop body,
/// filter condition or join key for one member.
pub fn exec_plan_bound(
    plan: &Plan,
    env: &Instance,
    bindings: &[(Name, Value)],
) -> Result<Value, NrcError> {
    exec(plan, &mut Frames::new(env, bindings))
}

/// Decide a condition plan in `env` extended by `bindings`: exactly
/// `!exec_plan_bound(plan, env, bindings)?.is_empty()` on well-typed plans,
/// but without building the `Set(Unit)` Booleans of `member`, `eq`, `∪`,
/// `guard` and `{()} \ b`.  This is how `nrs-ivm` re-decides a filter
/// condition for one member.
pub fn holds_bound(
    plan: &Plan,
    env: &Instance,
    bindings: &[(Name, Value)],
) -> Result<bool, NrcError> {
    holds(plan, &mut Frames::new(env, bindings))
}

/// `{var ∈ over | cond(var)}` in `env`: the set-at-a-time filter kernel the
/// executor runs for `for[var in R]{guard(cond; {var})}` (see
/// [`filter_cond`]) and `nrs-ivm` fills its filter nodes with.  A condition
/// made of probes `member(var, H)` and `var`-free sub-conditions under
/// `∪`, `guard` and `{()} \ ·` costs one evaluation of each haystack and
/// one ordered walk of `over`; any other condition is decided per member.
pub fn exec_filter(
    var: Name,
    over: &SetValue,
    cond: &Plan,
    env: &Instance,
) -> Result<Value, NrcError> {
    filter(var, over, cond, &mut Frames::new(env, &[]))
}

fn set_of(v: &Value, what: &str) -> Result<SetValue, NrcError> {
    v.as_set()
        .cloned()
        .map_err(|_| NrcError::Stuck(format!("{what} produced non-set {v}")))
}

fn exec(plan: &Plan, fr: &mut Frames<'_>) -> Result<Value, NrcError> {
    match plan {
        Plan::Var(n) => fr.lookup(n).cloned().ok_or(NrcError::UnboundVariable(*n)),
        Plan::Unit => Ok(Value::Unit),
        Plan::Pair(a, b) => Ok(Value::pair(exec(a, fr)?, exec(b, fr)?)),
        Plan::Proj1(x) => {
            let v = exec(x, fr)?;
            v.proj1()
                .cloned()
                .map_err(|_| NrcError::Stuck(format!("p1 of {v}")))
        }
        Plan::Proj2(x) => {
            let v = exec(x, fr)?;
            v.proj2()
                .cloned()
                .map_err(|_| NrcError::Stuck(format!("p2 of {v}")))
        }
        Plan::Singleton(x) => Ok(Value::set([exec(x, fr)?])),
        Plan::Get { ty, arg } => {
            let v = exec(arg, fr)?;
            let set = v
                .as_set()
                .map_err(|_| NrcError::Stuck(format!("get of non-set {v}")))?;
            if set.len() == 1 {
                Ok(set.iter().next().cloned().expect("nonempty"))
            } else {
                Ok(Value::default_of(ty))
            }
        }
        Plan::Empty => Ok(Value::empty_set()),
        Plan::Union(a, b) => {
            let va = exec(a, fr)?;
            let vb = exec(b, fr)?;
            va.union(&vb).map_err(|e| NrcError::Stuck(e.to_string()))
        }
        Plan::Diff(a, b) => {
            let va = exec(a, fr)?;
            let vb = exec(b, fr)?;
            va.difference(&vb)
                .map_err(|e| NrcError::Stuck(e.to_string()))
        }
        Plan::ForUnion { var, over, body } => {
            let over_v = exec(over, fr)?;
            let members = set_of(&over_v, "binding union over")?;
            if let Some(cond) = filter_cond(*var, body) {
                return filter(*var, &members, cond, fr);
            }
            let mut out: BTreeSet<Value> = BTreeSet::new();
            for m in members.iter() {
                let body_v = fr.scoped(*var, m.clone(), |fr| exec(body, fr))?;
                let body_set = body_v.as_set().map_err(|_| {
                    NrcError::Stuck(format!("binding union body produced non-set {body_v}"))
                })?;
                out.extend(body_set.iter().cloned());
            }
            Ok(Value::from_set(out))
        }
        Plan::Guard { cond, body } => {
            if holds(cond, fr)? {
                exec(body, fr)
            } else {
                Ok(Value::empty_set())
            }
        }
        Plan::Eq(a, b) => {
            let va = exec(a, fr)?;
            let vb = exec(b, fr)?;
            Ok(Value::from_bool(va == vb))
        }
        Plan::Member { elem, set } => {
            let set_v = exec(set, fr)?;
            let members = set_of(&set_v, "membership haystack")?;
            let needle = exec(elem, fr)?;
            Ok(Value::from_bool(members.contains(&needle)))
        }
        Plan::HashJoin {
            left,
            lvar,
            lkey,
            right,
            rvar,
            rkey,
            body,
        } => {
            let left_v = exec(left, fr)?;
            let left_set = set_of(&left_v, "join probe side")?;
            let right_v = exec(right, fr)?;
            let right_set = set_of(&right_v, "join build side")?;
            let mut index: HashMap<Value, Vec<Value>> = HashMap::with_capacity(right_set.len());
            for y in right_set.iter() {
                let k = fr.scoped(*rvar, y.clone(), |fr| exec(rkey, fr))?;
                index.entry(k).or_default().push(y.clone());
            }
            let mut out: BTreeSet<Value> = BTreeSet::new();
            for x in left_set.iter() {
                fr.scoped(*lvar, x.clone(), |fr| -> Result<(), NrcError> {
                    let k = exec(lkey, fr)?;
                    let Some(matches) = index.get(&k) else {
                        return Ok(());
                    };
                    for y in matches {
                        let body_v = fr.scoped(*rvar, y.clone(), |fr| exec(body, fr))?;
                        let body_set = body_v.as_set().map_err(|_| {
                            NrcError::Stuck(format!("join body produced non-set {body_v}"))
                        })?;
                        out.extend(body_set.iter().cloned());
                    }
                    Ok(())
                })?;
            }
            Ok(Value::from_set(out))
        }
        Plan::Let { var, value, body } => {
            let v = exec(value, fr)?;
            fr.scoped(*var, v, |fr| exec(body, fr))
        }
    }
}

// ---------------------------------------------------------------------------
// Conditions and filters
// ---------------------------------------------------------------------------

/// Decide a condition: `!exec(plan)?.is_empty()`, without building the
/// `Set(Unit)` Booleans of the connectives.  `member` is a probe and `eq` a
/// value comparison; `∪` is `||` with both sides evaluated, so errors surface
/// as in [`exec`]; `guard` is a short-circuit `&&`; `{()} \ b` is `!b`
/// (sound because `b : Set(Unit)` in a well-typed plan); `∅` and singletons
/// are constants.  Anything else is executed and tested for emptiness.
fn holds(plan: &Plan, fr: &mut Frames<'_>) -> Result<bool, NrcError> {
    match plan {
        Plan::Empty => Ok(false),
        Plan::Singleton(x) => exec(x, fr).map(|_| true),
        Plan::Member { elem, set } => {
            let members = set_of(&exec(set, fr)?, "membership haystack")?;
            Ok(members.contains(&exec(elem, fr)?))
        }
        Plan::Eq(a, b) => Ok(exec(a, fr)? == exec(b, fr)?),
        Plan::Union(a, b) => {
            let lhs = holds(a, fr)?;
            Ok(holds(b, fr)? || lhs)
        }
        Plan::Guard { cond, body } => Ok(holds(cond, fr)? && holds(body, fr)?),
        Plan::Diff(tt, b) if is_tt_plan(tt) => Ok(!holds(b, fr)?),
        other => Ok(!set_of(&exec(other, fr)?, "condition")?.is_empty()),
    }
}

/// The condition `φ` of a filter-shaped loop body `guard(φ; {var})`: the
/// loop `for[var in R]{guard(φ; {var})}` is the filter `{var ∈ R | φ(var)}`,
/// the shape of every synthesized view (and, before the range-implied
/// filter rule drops it, of the partition answers and fragments).
pub fn filter_cond(var: Name, body: &Plan) -> Option<&Plan> {
    match body {
        Plan::Guard { cond, body } => match &**body {
            Plan::Singleton(elem) if matches!(**elem, Plan::Var(v) if v == var) => Some(cond),
            _ => None,
        },
        _ => None,
    }
}

/// A filter condition compiled for the merge walk: the connectives
/// [`holds`] decides directly, over [`Leaf`] answers.
enum Test {
    Leaf(usize),
    Or(Box<Test>, Box<Test>),
    And(Box<Test>, Box<Test>),
    Not(Box<Test>),
}

/// A leaf of a [`Test`]; neither kind depends on the filtered member, so
/// each is evaluated once per fill.
#[derive(PartialEq)]
enum Leaf<'p> {
    /// `member(var, H)`: the haystack `H`.
    Probe(&'p Plan),
    /// A sub-condition free of `var`.
    Fixed(&'p Plan),
}

/// A [`Leaf`] evaluated for one fill.
enum LeafValue {
    Haystack(SetValue),
    Fixed(bool),
}

/// A leaf's answer source during the walk.
enum Probe<'v> {
    /// One forward cursor over the haystack.
    Merge(Cursor<'v>),
    Fixed(bool),
}

impl Test {
    /// Compile `p`, a condition on `var`; `None` when it uses anything but
    /// the connectives over probes and `var`-free sub-conditions.
    fn compile<'p>(var: Name, p: &'p Plan, leaves: &mut Vec<Leaf<'p>>) -> Option<Test> {
        if !p.free_vars().contains(&var) {
            return Some(Test::leaf(Leaf::Fixed(p), leaves));
        }
        let mut sub = |q: &'p Plan| Test::compile(var, q, leaves).map(Box::new);
        Some(match p {
            Plan::Member { elem, set }
                if **elem == Plan::Var(var) && !set.free_vars().contains(&var) =>
            {
                Test::leaf(Leaf::Probe(set), leaves)
            }
            Plan::Union(a, b) => Test::Or(sub(a)?, sub(b)?),
            Plan::Guard { cond, body } => Test::And(sub(cond)?, sub(body)?),
            Plan::Diff(tt, b) if is_tt_plan(tt) => Test::Not(sub(b)?),
            _ => return None,
        })
    }

    /// The leaf for `l`, shared with an equal earlier leaf.
    fn leaf<'p>(l: Leaf<'p>, leaves: &mut Vec<Leaf<'p>>) -> Test {
        Test::Leaf(leaves.iter().position(|x| *x == l).unwrap_or_else(|| {
            leaves.push(l);
            leaves.len() - 1
        }))
    }

    fn eval(&self, hits: &[bool]) -> bool {
        match self {
            Test::Leaf(i) => hits[*i],
            Test::Or(a, b) => a.eval(hits) || b.eval(hits),
            Test::And(a, b) => a.eval(hits) && b.eval(hits),
            Test::Not(a) => !a.eval(hits),
        }
    }
}

impl Probe<'_> {
    /// Is `m` in the haystack?  Members must arrive in ascending order.
    fn test(&mut self, m: &Value) -> bool {
        match self {
            Probe::Merge(cursor) => {
                cursor.seek(m);
                cursor.peek() == Some(m)
            }
            Probe::Fixed(b) => *b,
        }
    }
}

/// The filter kernel: `{var ∈ over | cond(var)}`, set at a time.
///
/// When `cond` compiles to a [`Test`], each haystack and `var`-free
/// sub-condition is evaluated once — and only for a non-empty `over` — and
/// `over` is walked in order against one forward cursor per haystack; a
/// cursor seeks within the current chunk of the haystack and re-descends
/// only past it, so a haystack much larger than `over` costs
/// `O(|over| log |H|)`, not `O(|H|)`.  Any other condition is decided per
/// member by [`holds`].  Members pass in order, so the output is a bulk
/// build.
fn filter(var: Name, over: &SetValue, cond: &Plan, fr: &mut Frames<'_>) -> Result<Value, NrcError> {
    let mut out = Vec::new();
    let mut leaves = Vec::new();
    if over.is_empty() {
        // nothing to evaluate: not even the haystacks
    } else if let Some(test) = Test::compile(var, cond, &mut leaves) {
        let values = leaves
            .iter()
            .map(|leaf| match leaf {
                Leaf::Probe(hay) => {
                    set_of(&exec(hay, fr)?, "membership haystack").map(LeafValue::Haystack)
                }
                Leaf::Fixed(p) => holds(p, fr).map(LeafValue::Fixed),
            })
            .collect::<Result<Vec<_>, NrcError>>()?;
        let mut probes: Vec<Probe<'_>> = values
            .iter()
            .map(|v| match v {
                LeafValue::Haystack(h) => Probe::Merge(h.cursor()),
                LeafValue::Fixed(b) => Probe::Fixed(*b),
            })
            .collect();
        let mut hits = vec![false; probes.len()];
        for m in over {
            for (hit, probe) in hits.iter_mut().zip(&mut probes) {
                *hit = probe.test(m);
            }
            if test.eval(&hits) {
                out.push(m.clone());
            }
        }
    } else {
        for m in over {
            if fr.scoped(var, m.clone(), |fr| holds(cond, fr))? {
                out.push(m.clone());
            }
        }
    }
    Ok(Value::Set(out.into_iter().collect()))
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// An expression compiled down to an executable plan.
///
/// Compilation runs the algebraic simplifier ([`crate::opt::simplify`]),
/// lowers to the plan IR, and hoists loop invariants; [`CompiledQuery::execute`]
/// then evaluates the plan over an instance.  Results are byte-identical to
/// the naive evaluator on well-typed inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledQuery {
    plan: Plan,
}

impl CompiledQuery {
    /// Simplify, lower and hoist an expression.
    pub fn compile(expr: &Expr) -> CompiledQuery {
        let simplified = opt::simplify(expr);
        CompiledQuery {
            plan: lower(&simplified),
        }
    }

    /// The physical plan (for inspection / tests).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Evaluate the plan in an environment binding its free variables.
    pub fn execute(&self, env: &Instance) -> Result<Value, NrcError> {
        exec_plan(&self.plan, env)
    }
}

/// One-shot optimized evaluation: simplify → plan → execute.
///
/// For repeated evaluation of the same expression, compile once with
/// [`CompiledQuery::compile`] and call [`CompiledQuery::execute`] per
/// instance.
pub fn eval_optimized(expr: &Expr, env: &Instance) -> Result<Value, NrcError> {
    CompiledQuery::compile(expr).execute(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::macros;
    use nrs_value::generate::keyed_nested_instance;
    use nrs_value::{NameGen, Type};

    fn check_agrees(expr: &Expr, env: &Instance) {
        let naive = eval(expr, env).unwrap();
        let optimized = eval_optimized(expr, env).unwrap();
        assert_eq!(naive, optimized, "plan disagrees on {expr}");
    }

    #[test]
    fn eq_ur_macro_is_recognized() {
        let e = macros::eq_ur(Expr::var("a"), Expr::var("b"));
        let q = CompiledQuery::compile(&e);
        assert_eq!(
            q.plan(),
            &Plan::Eq(
                Plan::Var(Name::new("a")).boxed(),
                Plan::Var(Name::new("b")).boxed()
            )
        );
    }

    #[test]
    fn set_valued_equality_is_recognized() {
        let mut gen = NameGen::new();
        // eq at Set(U): subset both ways — must become a single Eq node.
        let e = macros::eq_at(
            &Type::set(Type::Ur),
            Expr::var("A"),
            Expr::var("B"),
            &mut gen,
        );
        let q = CompiledQuery::compile(&e);
        assert_eq!(
            q.plan(),
            &Plan::Eq(
                Plan::Var(Name::new("A")).boxed(),
                Plan::Var(Name::new("B")).boxed()
            )
        );
        // ... and at a nested type: Set(U × Set(U)).
        let nested = Type::set(Type::prod(Type::Ur, Type::set(Type::Ur)));
        let e2 = macros::eq_at(&nested, Expr::var("A"), Expr::var("B"), &mut gen);
        let q2 = CompiledQuery::compile(&e2);
        assert_eq!(
            q2.plan(),
            &Plan::Eq(
                Plan::Var(Name::new("A")).boxed(),
                Plan::Var(Name::new("B")).boxed()
            )
        );
        let inst = Instance::from_bindings([
            (Name::new("A"), Value::set([Value::atom(1), Value::atom(2)])),
            (Name::new("B"), Value::set([Value::atom(2), Value::atom(1)])),
        ]);
        check_agrees(&e, &inst);
        let inst2 = Instance::from_bindings([
            (Name::new("A"), Value::set([Value::atom(1)])),
            (Name::new("B"), Value::set([Value::atom(2), Value::atom(1)])),
        ]);
        check_agrees(&e, &inst2);
    }

    #[test]
    fn product_equality_is_recognized() {
        let mut gen = NameGen::new();
        let ty = Type::prod(Type::Ur, Type::Ur);
        let e = macros::eq_at(&ty, Expr::var("p"), Expr::var("q"), &mut gen);
        let q = CompiledQuery::compile(&e);
        assert_eq!(
            q.plan(),
            &Plan::Eq(
                Plan::Var(Name::new("p")).boxed(),
                Plan::Var(Name::new("q")).boxed()
            )
        );
        let inst = Instance::from_bindings([
            (Name::new("p"), Value::pair(Value::atom(1), Value::atom(2))),
            (Name::new("q"), Value::pair(Value::atom(1), Value::atom(2))),
        ]);
        check_agrees(&e, &inst);
    }

    #[test]
    fn set_membership_at_set_type_is_an_indexed_probe() {
        let mut gen = NameGen::new();
        // x ∈ S where S : Set(Set(U)) — the element equality is set-valued.
        let e = macros::member(
            &Type::set(Type::Ur),
            Expr::var("x"),
            Expr::var("S"),
            &mut gen,
        );
        let q = CompiledQuery::compile(&e);
        assert!(
            matches!(q.plan(), Plan::Member { .. }),
            "expected Member, got {}",
            q.plan()
        );
        let inst = Instance::from_bindings([
            (Name::new("x"), Value::set([Value::atom(1)])),
            (
                Name::new("S"),
                Value::set([
                    Value::set([Value::atom(1)]),
                    Value::set([Value::atom(1), Value::atom(2)]),
                ]),
            ),
        ]);
        check_agrees(&e, &inst);
    }

    #[test]
    fn double_negated_membership_folds_to_a_probe() {
        let mut gen = NameGen::new();
        // { x ∈ S | ¬(x ∈ F) } — the not-member guard must not loop over F.
        let not_member = macros::not(macros::member(
            &Type::Ur,
            Expr::var("x"),
            Expr::var("F"),
            &mut gen,
        ));
        let e = Expr::big_union(
            "x",
            Expr::var("S"),
            macros::guard(not_member, Expr::singleton(Expr::var("x")), &mut gen),
        );
        let q = CompiledQuery::compile(&e);
        fn has_loop_over(p: &Plan, name: Name) -> bool {
            match p {
                Plan::ForUnion { over, body, .. } => {
                    **over == Plan::Var(name)
                        || has_loop_over(over, name)
                        || has_loop_over(body, name)
                }
                Plan::Pair(a, b) | Plan::Union(a, b) | Plan::Diff(a, b) | Plan::Eq(a, b) => {
                    has_loop_over(a, name) || has_loop_over(b, name)
                }
                Plan::Proj1(x) | Plan::Proj2(x) | Plan::Singleton(x) => has_loop_over(x, name),
                Plan::Get { arg, .. } => has_loop_over(arg, name),
                Plan::Guard { cond, body } => {
                    has_loop_over(cond, name) || has_loop_over(body, name)
                }
                Plan::Member { elem, set } => has_loop_over(elem, name) || has_loop_over(set, name),
                Plan::Let { value, body, .. } => {
                    has_loop_over(value, name) || has_loop_over(body, name)
                }
                Plan::HashJoin {
                    left, right, body, ..
                } => {
                    has_loop_over(left, name)
                        || has_loop_over(right, name)
                        || has_loop_over(body, name)
                }
                _ => false,
            }
        }
        assert!(
            !has_loop_over(q.plan(), Name::new("F")),
            "negated membership still loops over F: {}",
            q.plan()
        );
        let inst = Instance::from_bindings([
            (
                Name::new("S"),
                Value::set([Value::atom(1), Value::atom(2), Value::atom(3)]),
            ),
            (Name::new("F"), Value::set([Value::atom(2)])),
        ]);
        check_agrees(&e, &inst);
    }

    #[test]
    fn membership_is_recognized() {
        let mut gen = NameGen::new();
        let e = macros::member(&Type::Ur, Expr::var("x"), Expr::var("S"), &mut gen);
        let q = CompiledQuery::compile(&e);
        assert!(
            matches!(q.plan(), Plan::Member { .. }),
            "expected Member, got {}",
            q.plan()
        );
    }

    #[test]
    fn key_join_lowered_to_hash_join() {
        let mut gen = NameGen::new();
        let join = Expr::big_union(
            "a",
            Expr::var("R"),
            Expr::big_union(
                "b",
                Expr::var("R"),
                macros::guard(
                    macros::eq_ur(Expr::proj1(Expr::var("a")), Expr::proj1(Expr::var("b"))),
                    Expr::singleton(Expr::pair(
                        Expr::proj2(Expr::var("a")),
                        Expr::proj2(Expr::var("b")),
                    )),
                    &mut gen,
                ),
            ),
        );
        let q = CompiledQuery::compile(&join);
        assert!(
            matches!(q.plan(), Plan::HashJoin { .. }),
            "expected HashJoin, got {}",
            q.plan()
        );
        // ... and the join computes the same relation as the nested loop.
        let rows = Value::set([
            Value::pair(Value::atom(1), Value::atom(10)),
            Value::pair(Value::atom(1), Value::atom(11)),
            Value::pair(Value::atom(2), Value::atom(12)),
        ]);
        let inst = Instance::from_bindings([(Name::new("R"), rows)]);
        check_agrees(&join, &inst);
    }

    #[test]
    fn invariant_membership_haystack_is_hoisted() {
        let mut gen = NameGen::new();
        // { x ∈ S | x ∈ (A ∪ B) }: the union must be computed once, not per x.
        let member = macros::member(
            &Type::Ur,
            Expr::var("x"),
            Expr::union(Expr::var("A"), Expr::var("B")),
            &mut gen,
        );
        let e = Expr::big_union(
            "x",
            Expr::var("S"),
            macros::guard(member, Expr::singleton(Expr::var("x")), &mut gen),
        );
        let q = CompiledQuery::compile(&e);
        assert!(
            matches!(q.plan(), Plan::Let { .. }),
            "expected a hoisted Let, got {}",
            q.plan()
        );
        let inst = Instance::from_bindings([
            (Name::new("S"), Value::set([Value::atom(1), Value::atom(2)])),
            (Name::new("A"), Value::set([Value::atom(1)])),
            (Name::new("B"), Value::set([Value::atom(5)])),
        ]);
        check_agrees(&e, &inst);
    }

    #[test]
    fn guards_short_circuit_but_agree() {
        let mut gen = NameGen::new();
        let e = macros::if_then_else(
            macros::eq_ur(Expr::var("k"), Expr::var("k")),
            Expr::var("S"),
            Expr::var("T"),
            &mut gen,
        );
        let inst = Instance::from_bindings([
            (Name::new("k"), Value::atom(3)),
            (Name::new("S"), Value::set([Value::atom(1)])),
            (Name::new("T"), Value::set([Value::atom(2)])),
        ]);
        check_agrees(&e, &inst);
    }

    #[test]
    fn flatten_agrees_on_generated_instances() {
        let flatten = Expr::big_union(
            "b",
            Expr::var("B"),
            Expr::big_union(
                "c",
                Expr::proj2(Expr::var("b")),
                Expr::singleton(Expr::pair(Expr::proj1(Expr::var("b")), Expr::var("c"))),
            ),
        );
        for seed in 0..4 {
            let inst = keyed_nested_instance(6, 3, seed);
            check_agrees(&flatten, &inst);
        }
    }

    #[test]
    fn executor_reports_errors_like_the_naive_evaluator() {
        let inst = Instance::from_bindings([(Name::new("x"), Value::atom(1))]);
        assert!(matches!(
            eval_optimized(&Expr::var("missing"), &inst),
            Err(NrcError::UnboundVariable(_))
        ));
        assert!(matches!(
            eval_optimized(&Expr::proj1(Expr::var("x")), &inst),
            Err(NrcError::Stuck(_))
        ));
        // NB: the identity map `⋃{{y} | y ∈ x}` would be simplified to `x`
        // and no longer error — by design, equivalence holds on *well-typed*
        // inputs — so use a body the simplifier keeps.
        assert!(matches!(
            eval_optimized(
                &Expr::big_union(
                    "y",
                    Expr::var("x"),
                    Expr::singleton(Expr::pair(Expr::var("y"), Expr::var("y")))
                ),
                &inst
            ),
            Err(NrcError::Stuck(_))
        ));
    }

    #[test]
    fn empty_filters_never_evaluate_their_haystacks() {
        // `{x ∈ S | x ∈ F}` with S = ∅ and an ill-typed (non-set) F: the
        // kernel evaluates haystacks only for a non-empty `over`, so this is
        // ∅ and not an error — as with per-member evaluation.
        let (x, s, f) = (Name::new("x"), Name::new("S"), Name::new("F"));
        let cond = Plan::Member {
            elem: Plan::Var(x).boxed(),
            set: Plan::Var(f).boxed(),
        };
        let filter_loop = Plan::ForUnion {
            var: x,
            over: Plan::Var(s).boxed(),
            body: Plan::Guard {
                cond: cond.clone().boxed(),
                body: Plan::Singleton(Plan::Var(x).boxed()).boxed(),
            }
            .boxed(),
        };
        let env = Instance::from_bindings([(s, Value::empty_set()), (f, Value::atom(1))]);
        assert_eq!(exec_plan(&filter_loop, &env).unwrap(), Value::empty_set());
        assert_eq!(
            exec_filter(x, &SetValue::empty(), &cond, &env).unwrap(),
            Value::empty_set()
        );
        // a non-empty `over` does evaluate it, and reports the bad haystack
        let env = env.with(s, Value::set([Value::atom(1)]));
        assert!(matches!(
            exec_plan(&filter_loop, &env),
            Err(NrcError::Stuck(_))
        ));
    }

    #[test]
    fn bound_execution_matches_an_extended_environment() {
        // Caller bindings shadow the instance and later ones shadow earlier
        // ones, exactly like `env.with(..).with(..)`; loop binders inside
        // the plan shadow the caller's bindings.
        let (x, y, s) = (Name::new("x"), Name::new("y"), Name::new("S"));
        let env = Instance::from_bindings([
            (x, Value::atom(1)),
            (s, Value::set([Value::atom(5), Value::atom(6)])),
        ]);
        let pair = Plan::Pair(Plan::Var(x).boxed(), Plan::Var(y).boxed());
        let loop_over_s = Plan::ForUnion {
            var: x,
            over: Plan::Var(s).boxed(),
            body: Plan::Singleton(pair.clone().boxed()).boxed(),
        };
        let bindings = [
            (x, Value::atom(2)),
            (y, Value::atom(3)),
            (x, Value::atom(4)),
        ];
        let extended = bindings
            .iter()
            .fold(env.clone(), |e, (n, v)| e.with(*n, v.clone()));
        for plan in [&pair, &loop_over_s] {
            assert_eq!(
                exec_plan_bound(plan, &env, &bindings).unwrap(),
                exec_plan(plan, &extended).unwrap(),
                "{plan}"
            );
        }
        assert_eq!(
            exec_plan_bound(&pair, &env, &bindings).unwrap(),
            Value::pair(Value::atom(4), Value::atom(3))
        );
    }

    /// `for[x in over]{guard(cond; {x})}`.
    fn filter_loop(x: Name, over: Plan, cond: Plan) -> Plan {
        Plan::ForUnion {
            var: x,
            over: over.boxed(),
            body: Plan::Guard {
                cond: cond.boxed(),
                body: Plan::Singleton(Plan::Var(x).boxed()).boxed(),
            }
            .boxed(),
        }
    }

    fn probe(elem: Name, set: Plan) -> Plan {
        Plan::Member {
            elem: Plan::Var(elem).boxed(),
            set: set.boxed(),
        }
    }

    fn union(a: Plan, b: Plan) -> Plan {
        Plan::Union(a.boxed(), b.boxed())
    }

    #[test]
    fn filters_probing_their_own_range_operands_become_unions() {
        let [x, a, b, c] = ["x", "A", "B", "C"].map(Name::new);
        let set = |ks: &[u64]| Value::set(ks.iter().map(|&k| Value::atom(k)));
        let env =
            Instance::from_bindings([(a, set(&[1, 2, 3])), (b, set(&[3, 4])), (c, set(&[5, 1]))]);
        let (va, vb, vc) = (Plan::Var(a), Plan::Var(b), Plan::Var(c));
        let a_or_b = union(va.clone(), vb.clone());
        let cases = [
            // {x ∈ A ∪ B | x ∈ B ∨ x ∈ A} = A ∪ B
            (
                filter_loop(
                    x,
                    a_or_b.clone(),
                    union(probe(x, vb.clone()), probe(x, va.clone())),
                ),
                a_or_b.clone(),
            ),
            // {x ∈ A ∪ B | x ∈ A} = A
            (
                filter_loop(x, a_or_b.clone(), probe(x, va.clone())),
                va.clone(),
            ),
            // {x ∈ (A ∪ B) ∪ C | x ∈ C ∨ x ∈ A} = A ∪ C, in range order
            (
                filter_loop(
                    x,
                    union(a_or_b.clone(), vc.clone()),
                    union(probe(x, vc.clone()), probe(x, va.clone())),
                ),
                union(va.clone(), vc.clone()),
            ),
        ];
        for (filter, expected) in cases {
            let simplified = plan_simplify(filter.clone());
            assert_eq!(simplified, expected, "{filter}");
            assert_eq!(
                exec_plan(&simplified, &env).unwrap(),
                exec_plan(&filter, &env).unwrap(),
                "{filter}"
            );
        }
    }

    #[test]
    fn filters_that_are_not_range_implied_stay_filters() {
        let [x, y, a, b, c] = ["x", "y", "A", "B", "C"].map(Name::new);
        let (va, vb) = (Plan::Var(a), Plan::Var(b));
        let a_or_b = union(va.clone(), vb.clone());
        let tt = Plan::Singleton(Plan::Unit.boxed());
        let cases = [
            // a haystack that is not a range operand
            filter_loop(
                x,
                a_or_b.clone(),
                union(probe(x, va.clone()), probe(x, Plan::Var(c))),
            ),
            // a needle that is not the loop variable
            filter_loop(x, a_or_b.clone(), probe(y, va.clone())),
            // a haystack that mentions the loop variable: the operand `x` is
            // the outer set, the haystack `x` the member itself
            filter_loop(x, union(Plan::Var(x), vb.clone()), probe(x, Plan::Var(x))),
            // a conjunction
            filter_loop(
                x,
                a_or_b.clone(),
                Plan::Guard {
                    cond: probe(x, va.clone()).boxed(),
                    body: probe(x, vb.clone()).boxed(),
                },
            ),
            // a negation
            filter_loop(
                x,
                a_or_b.clone(),
                Plan::Diff(tt.boxed(), probe(x, va.clone()).boxed()),
            ),
        ];
        for filter in cases {
            assert_eq!(plan_simplify(filter.clone()), filter, "{filter}");
        }
    }
}
