//! Incremental restriction evaluation along a growing computation prefix.
//!
//! The batch checker ([`check_many`](crate::check_many)) decides a
//! temporal restriction by enumerating history sequences of a *finished*
//! computation — O(sequences × formula) per run. During state-space
//! exploration the runs share prefixes along the DFS tree, and almost all
//! of that work is repeated. This module compiles a restriction into an
//! **incremental evaluator**: processing each event once, as it is
//! emitted, in O(formula) — so a whole DFS subtree pays for its common
//! prefix once.
//!
//! ## The compilation contract
//!
//! Three shapes are supported (everything else falls back to batch):
//!
//! 1. **Leaf** — non-temporal restrictions. These are immediate
//!    assertions evaluated on the single full history
//!    (`Strategy::Complete` semantics), so nothing per-prefix is needed:
//!    the caller runs the one formula evaluator,
//!    [`holds_on_computation`](crate::holds_on_computation), at the leaf
//!    over a [`World`] backed by its incremental projection state,
//!    skipping seal/projection entirely. Nothing is compiled for them.
//! 2. **Box** — `◻ ∀x̄ · body` with a quantifier-free (after rewriting)
//!    body. The negated body is put in disjunctive normal form; each
//!    conjunct is a set of *In* events (must have occurred), *Out*
//!    events (must not have), frozen static literals, and *All-out* sets
//!    (no matching event may have occurred). A violation exists iff some
//!    binding makes a conjunct *realizable*: statics hold and no
//!    Out/All-out event lies in the downward closure of the In events —
//!    the minimal witness downset.
//! 3. **BoxBox** — `◻ ∀x̄ (γ ⊃ ◻ δ)` (the `priority`/`fcfs`
//!    abbreviations). Falsified iff some binding admits a pair of
//!    downsets `D₁ ⊆ D₂` with `γ` at `D₁` and `¬δ` at `D₂`; the minimal
//!    witnesses are `down(In₁)` and `down(In₁ ∪ In₂)`.
//!
//! ## Why once-per-event is enough
//!
//! For simulation-grown computations every edge targets the newest
//! event, so (a) the temporal order between two existing events is
//! final, (b) the truth of a quantifier-free body at a *fixed* downset
//! never changes as the computation grows, and (c) a binding's
//! realizability is final the moment its last event is emitted: later
//! events can never precede existing ones, so they neither enter the
//! witness downsets nor break them. Each binding is therefore checked
//! exactly once — when its newest event arrives — and violations are
//! sticky for the whole DFS subtree below that point.
//!
//! Unsupported constructs inside a temporal body (positive `∃`, inner
//! `∀`/`◇`, `new`/`potential`, non-variable event terms, thread-instance
//! selectors, order atoms under an `∃`) make the truth of a fixed-downset
//! body time-dependent or require re-visiting old bindings; [`compile`]
//! rejects them with a [`FallbackReason`] and the caller keeps using the
//! batch checker for that restriction.

use std::fmt;

use gem_core::{ThreadTypeId, Value};

use crate::eval::param_value;
use crate::{Atom, CmpOp, EvalError, EventSel, EventTerm, Formula, ParamRef, ValueTerm, World};

/// Why a restriction could not be compiled incrementally. Recorded per
/// restriction under `logic.incr.*` so fallbacks are attributable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FallbackReason {
    /// Temporal structure other than `◻∀*(body)` / `◻∀*(γ ⊃ ◻δ)` — e.g.
    /// `◇`, nested quantifier/temporal mixes.
    TemporalShape,
    /// A positive existential (or negated universal) inside a temporal
    /// body — would require re-checking old bindings as witnesses arrive.
    PositiveExists,
    /// `new` / `potential` — time-dependent at a fixed downset.
    TimeDependentAtom,
    /// A non-variable event term (`EL^i` / fixed id) inside a temporal
    /// body — its resolution changes as events arrive.
    NonVariableTerm,
    /// A selector constrains a concrete thread instance, whose numbering
    /// is assignment-dependent.
    ThreadInstanceSel,
    /// An unbound event variable (the batch checker reports an
    /// evaluation error; keep that behavior).
    UnboundVariable,
    /// Disjunctive normal form exceeded the compilation budget.
    Budget,
    /// An order atom under an existential quantifier.
    OrderAtomUnderExists,
}

impl fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FallbackReason::TemporalShape => "temporal-shape",
            FallbackReason::PositiveExists => "positive-exists",
            FallbackReason::TimeDependentAtom => "time-dependent-atom",
            FallbackReason::NonVariableTerm => "non-variable-term",
            FallbackReason::ThreadInstanceSel => "thread-instance-selector",
            FallbackReason::UnboundVariable => "unbound-variable",
            FallbackReason::Budget => "dnf-budget",
            FallbackReason::OrderAtomUnderExists => "order-atom-under-exists",
        };
        f.write_str(s)
    }
}

/// A compiled restriction.
#[derive(Clone, Debug)]
pub enum Compiled {
    /// Non-temporal: evaluate the original formula at the leaf with
    /// [`holds_on_computation`](crate::holds_on_computation) over the
    /// caller's [`World`].
    Leaf,
    /// `◻∀*` shape: check bindings incrementally with
    /// [`BoxShape::check_event`].
    Boxed(BoxShape),
}

impl Compiled {
    /// True for the non-temporal leaf shape.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Compiled::Leaf)
    }
}

/// A quantified variable of the `∀` prefix.
#[derive(Clone, Debug)]
pub struct QVar {
    /// Variable name (for diagnostics).
    pub name: String,
    /// Candidate selector.
    pub sel: EventSel,
}

/// The compiled form of `◻∀x̄·body` / `◻∀x̄(γ ⊃ ◻δ)`.
///
/// `pairs` enumerates the ways the restriction can be falsified: for the
/// single-box shape each pair's second conjunct is empty (trivially
/// realizable); for the double-box shape the first conjunct comes from
/// `DNF(γ)` and the second from `DNF(¬δ)`.
#[derive(Clone, Debug)]
pub struct BoxShape {
    /// The `∀` prefix, outermost first.
    pub vars: Vec<QVar>,
    pairs: Vec<(Conjunct, Conjunct)>,
}

/// Index of a bound variable; `FRESH` refers to an All-out set's local
/// candidate variable.
type VarIx = u8;
const FRESH: VarIx = u8::MAX;

/// A frozen (history-independent, time-final) literal over a binding.
#[derive(Clone, Debug)]
enum StaticLit {
    /// Order relation between two bound events — final once both exist.
    /// `neg` asserts the relation itself is absent (occurrence is
    /// handled separately by the DNF split).
    Rel {
        kind: RelKind,
        a: VarIx,
        b: VarIx,
        neg: bool,
    },
    /// `samethread`/`distinctthreads` — tags are assignment-final.
    Thread {
        same: bool,
        a: VarIx,
        b: VarIx,
        ty: ThreadTypeId,
        neg: bool,
    },
    /// Event identity.
    Eq { a: VarIx, b: VarIx, neg: bool },
    /// Element/class/selector membership.
    Shape { a: VarIx, sel: EventSel, neg: bool },
    /// Value comparison over parameters/occurrence numbers.
    Cmp {
        op: CmpOp,
        lhs: VTerm,
        rhs: VTerm,
        neg: bool,
    },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RelKind {
    Enables,
    ElementPrecedes,
    TemporallyPrecedes,
    Concurrent,
}

/// A value term restricted to bound variables.
#[derive(Clone, Debug)]
enum VTerm {
    Const(Value),
    Param(VarIx, ParamRef),
    SeqOf(VarIx),
}

/// A set of events none of which may have occurred in the witness
/// downset.
#[derive(Clone, Debug)]
enum AllOut {
    /// From `¬∃y:sel (statics ∧ occurred(y))`: every event matching
    /// `sel` and the statics (with `FRESH` bound to the candidate).
    NoMatch {
        sel: EventSel,
        statics: Vec<StaticLit>,
    },
    /// From `x at sel` (§8.2): every event enabled by `x` that matches
    /// `sel`.
    Control { var: VarIx, sel: EventSel },
}

/// One falsifying conjunct: statics must hold, In events are in the
/// witness downset, Out events and All-out candidates must stay outside
/// it.
#[derive(Clone, Debug, Default)]
struct Conjunct {
    ins: Vec<VarIx>,
    outs: Vec<VarIx>,
    statics: Vec<StaticLit>,
    all_outs: Vec<AllOut>,
}

/// Budget on the number of DNF conjuncts (and pair products) per
/// restriction; beyond this the compiler falls back.
const DNF_BUDGET: usize = 128;

/// Compiles a restriction formula into an incremental evaluator, or
/// explains why it must stay on the batch path.
///
/// # Errors
///
/// Returns the [`FallbackReason`] for unsupported shapes; the caller
/// records it and keeps using [`check_many`](crate::check_many) for this
/// restriction.
pub fn compile(formula: &Formula) -> Result<Compiled, FallbackReason> {
    if !formula.is_temporal() {
        check_leaf_supported(formula, &mut Vec::new())?;
        return Ok(Compiled::Leaf);
    }
    let Formula::Henceforth(body) = formula else {
        return Err(FallbackReason::TemporalShape);
    };
    // Peel the ∀ prefix.
    let mut vars: Vec<QVar> = Vec::new();
    let mut rest: &Formula = body;
    while let Formula::ForAll(name, sel, inner) = rest {
        if sel.thread.is_some() {
            return Err(FallbackReason::ThreadInstanceSel);
        }
        if vars.len() >= usize::from(FRESH) - 1 {
            return Err(FallbackReason::Budget);
        }
        vars.push(QVar {
            name: name.clone(),
            sel: sel.clone(),
        });
        rest = inner;
    }
    let names: Vec<&str> = vars.iter().map(|v| v.name.as_str()).collect();
    let pairs = match rest {
        Formula::Implies(guard, boxed) if !guard.is_temporal() => {
            if let Formula::Henceforth(delta) = &**boxed {
                if delta.is_temporal() {
                    return Err(FallbackReason::TemporalShape);
                }
                let firsts = to_dnf(guard, true, &names)?;
                let seconds = to_dnf(delta, false, &names)?;
                if firsts.len() * seconds.len() > DNF_BUDGET {
                    return Err(FallbackReason::Budget);
                }
                let mut pairs = Vec::new();
                for c1 in &firsts {
                    for c2 in &seconds {
                        pairs.push((c1.clone(), c2.clone()));
                    }
                }
                pairs
            } else if boxed.is_temporal() {
                return Err(FallbackReason::TemporalShape);
            } else {
                to_dnf(rest, false, &names)?
                    .into_iter()
                    .map(|c| (c, Conjunct::default()))
                    .collect()
            }
        }
        rest if !rest.is_temporal() => to_dnf(rest, false, &names)?
            .into_iter()
            .map(|c| (c, Conjunct::default()))
            .collect(),
        _ => return Err(FallbackReason::TemporalShape),
    };
    Ok(Compiled::Boxed(BoxShape { vars, pairs }))
}

/// Rejects leaf (non-temporal) formulas an incremental world cannot
/// decide: unbound variables (every leaf would only reproduce the batch
/// error), thread-instance selectors (instance numbering is
/// assignment-local), and fixed event ids (global numbering is
/// world-dependent).
fn check_leaf_supported<'a>(
    f: &'a Formula,
    bound: &mut Vec<&'a str>,
) -> Result<(), FallbackReason> {
    let check_term = |t: &EventTerm, bound: &Vec<&str>| match t {
        EventTerm::Var(v) if !bound.iter().any(|b| b == v) => Err(FallbackReason::UnboundVariable),
        // Fixed ids name events of one concrete computation; an
        // incremental world's global numbering need not coincide with the
        // sealed projection's, so their resolution is not reproducible.
        EventTerm::Fixed(_) => Err(FallbackReason::NonVariableTerm),
        _ => Ok(()),
    };
    let check_sel = |sel: &EventSel| {
        if sel.thread.is_some() {
            Err(FallbackReason::ThreadInstanceSel)
        } else {
            Ok(())
        }
    };
    match f {
        Formula::True | Formula::False => Ok(()),
        Formula::Atom(a) => {
            match a {
                Atom::Occurred(t) | Atom::New(t) | Atom::Potential(t) => check_term(t, bound)?,
                Atom::AtElement(t, _) | Atom::InClass(t, _) => check_term(t, bound)?,
                Atom::Matches(t, sel) | Atom::AtControlPoint(t, sel) => {
                    check_term(t, bound)?;
                    check_sel(sel)?;
                }
                Atom::Enables(a1, a2)
                | Atom::ElementPrecedes(a1, a2)
                | Atom::TemporallyPrecedes(a1, a2)
                | Atom::Concurrent(a1, a2)
                | Atom::EventEq(a1, a2) => {
                    check_term(a1, bound)?;
                    check_term(a2, bound)?;
                }
                Atom::SameThread(a1, a2, _) | Atom::DistinctThreads(a1, a2, _) => {
                    check_term(a1, bound)?;
                    check_term(a2, bound)?;
                }
                Atom::ValueCmp(_, v1, v2) => {
                    for v in [v1, v2] {
                        if let ValueTerm::Param(t, _) | ValueTerm::SeqOf(t) = v {
                            check_term(t, bound)?;
                        }
                    }
                }
            }
            Ok(())
        }
        Formula::Not(g) | Formula::Henceforth(g) | Formula::Eventually(g) => {
            check_leaf_supported(g, bound)
        }
        Formula::And(fs) | Formula::Or(fs) => {
            fs.iter().try_for_each(|g| check_leaf_supported(g, bound))
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            check_leaf_supported(a, bound)?;
            check_leaf_supported(b, bound)
        }
        Formula::ForAll(v, sel, g)
        | Formula::Exists(v, sel, g)
        | Formula::ExistsUnique(v, sel, g)
        | Formula::AtMostOne(v, sel, g) => {
            check_sel(sel)?;
            bound.push(v);
            let r = check_leaf_supported(g, bound);
            bound.pop();
            r
        }
    }
}

fn var_index(name: &str, names: &[&str]) -> Result<VarIx, FallbackReason> {
    names
        .iter()
        .rposition(|n| *n == name)
        .map(|i| i as VarIx)
        .ok_or(FallbackReason::UnboundVariable)
}

fn var_term(t: &EventTerm, names: &[&str]) -> Result<VarIx, FallbackReason> {
    match t {
        EventTerm::Var(v) => var_index(v, names),
        _ => Err(FallbackReason::NonVariableTerm),
    }
}

/// Literal-level normal form: each leaf either constrains occurrence
/// (In/Out), is frozen (Static), or excludes a set (AllOut).
#[derive(Clone, Debug)]
enum Nnf {
    True,
    False,
    In(VarIx),
    Out(VarIx),
    Static(StaticLit),
    AllOut(AllOut),
    And(Vec<Nnf>),
    Or(Vec<Nnf>),
}

/// Rewrites `f` (negated unless `positive`) into [`Nnf`].
fn to_nnf(f: &Formula, positive: bool, names: &[&str]) -> Result<Nnf, FallbackReason> {
    Ok(match f {
        Formula::True => {
            if positive {
                Nnf::True
            } else {
                Nnf::False
            }
        }
        Formula::False => {
            if positive {
                Nnf::False
            } else {
                Nnf::True
            }
        }
        Formula::Not(g) => to_nnf(g, !positive, names)?,
        Formula::And(fs) => {
            let parts = fs
                .iter()
                .map(|g| to_nnf(g, positive, names))
                .collect::<Result<Vec<_>, _>>()?;
            if positive {
                Nnf::And(parts)
            } else {
                Nnf::Or(parts)
            }
        }
        Formula::Or(fs) => {
            let parts = fs
                .iter()
                .map(|g| to_nnf(g, positive, names))
                .collect::<Result<Vec<_>, _>>()?;
            if positive {
                Nnf::Or(parts)
            } else {
                Nnf::And(parts)
            }
        }
        Formula::Implies(a, b) => {
            let (na, nb) = (to_nnf(a, !positive, names)?, to_nnf(b, positive, names)?);
            if positive {
                Nnf::Or(vec![na, nb])
            } else {
                // ¬(a ⊃ b) = a ∧ ¬b; note `na` above was built with the
                // flipped polarity, which is what both cases need.
                Nnf::And(vec![na, nb])
            }
        }
        Formula::Iff(a, b) => {
            // a ⟺ b  =  (a ∧ b) ∨ (¬a ∧ ¬b); negation flips one side.
            let pp = Nnf::And(vec![to_nnf(a, true, names)?, to_nnf(b, positive, names)?]);
            let nn = Nnf::And(vec![to_nnf(a, false, names)?, to_nnf(b, !positive, names)?]);
            Nnf::Or(vec![pp, nn])
        }
        Formula::Exists(v, sel, inner) => {
            if positive {
                return Err(FallbackReason::PositiveExists);
            }
            if sel.thread.is_some() {
                return Err(FallbackReason::ThreadInstanceSel);
            }
            Nnf::AllOut(parse_all_out(v, sel, inner, names)?)
        }
        Formula::ForAll(..) => Err(if positive {
            // An inner ∀ ranges over future events too; its truth at a
            // fixed downset is not final.
            FallbackReason::TemporalShape
        } else {
            FallbackReason::PositiveExists
        })?,
        Formula::ExistsUnique(..) | Formula::AtMostOne(..) => Err(FallbackReason::TemporalShape)?,
        Formula::Henceforth(_) | Formula::Eventually(_) => Err(FallbackReason::TemporalShape)?,
        Formula::Atom(atom) => atom_nnf(atom, positive, names)?,
    })
}

/// `¬∃v:sel(body)` with `body` a conjunction of `occurred(v)` and frozen
/// statics becomes an All-out set.
fn parse_all_out(
    var: &str,
    sel: &EventSel,
    body: &Formula,
    names: &[&str],
) -> Result<AllOut, FallbackReason> {
    let mut statics = Vec::new();
    let mut occurred = false;
    let mut stack: Vec<&Formula> = vec![body];
    while let Some(f) = stack.pop() {
        match f {
            Formula::And(fs) => stack.extend(fs.iter()),
            Formula::True => {}
            Formula::Atom(Atom::Occurred(EventTerm::Var(v))) if v == var => occurred = true,
            Formula::Atom(a) => {
                statics.push(static_atom(a, false, &with_fresh(names, var), Some(var))?)
            }
            Formula::Not(inner) => match &**inner {
                Formula::Atom(a) => {
                    statics.push(static_atom(a, true, &with_fresh(names, var), Some(var))?)
                }
                _ => return Err(FallbackReason::PositiveExists),
            },
            _ => return Err(FallbackReason::PositiveExists),
        }
    }
    if !occurred {
        // Without `occurred(v)` the ∃ ranges over all events of the final
        // computation — time-dependent at a fixed downset.
        return Err(FallbackReason::TimeDependentAtom);
    }
    Ok(AllOut::NoMatch {
        sel: sel.clone(),
        statics,
    })
}

/// Variable scope inside an All-out body: outer names plus the fresh
/// candidate variable (mapped to [`FRESH`] by `static_atom`).
fn with_fresh<'a>(names: &[&'a str], fresh: &'a str) -> Vec<&'a str> {
    let mut v = names.to_vec();
    v.push(fresh);
    v
}

/// Classifies an atom (under `neg`ation) as a frozen static literal.
/// `fresh` names the All-out candidate variable, if inside one.
fn static_atom(
    atom: &Atom,
    neg: bool,
    names: &[&str],
    fresh: Option<&str>,
) -> Result<StaticLit, FallbackReason> {
    let ix = |t: &EventTerm| -> Result<VarIx, FallbackReason> {
        let i = var_term(t, names)?;
        Ok(match fresh {
            Some(_) if usize::from(i) == names.len() - 1 => FRESH,
            _ => i,
        })
    };
    Ok(match atom {
        Atom::SameThread(a, b, ty) => StaticLit::Thread {
            same: true,
            a: ix(a)?,
            b: ix(b)?,
            ty: *ty,
            neg,
        },
        Atom::DistinctThreads(a, b, ty) => StaticLit::Thread {
            same: false,
            a: ix(a)?,
            b: ix(b)?,
            ty: *ty,
            neg,
        },
        Atom::EventEq(a, b) => StaticLit::Eq {
            a: ix(a)?,
            b: ix(b)?,
            neg,
        },
        Atom::AtElement(t, el) => StaticLit::Shape {
            a: ix(t)?,
            sel: EventSel::at_element(*el),
            neg,
        },
        Atom::InClass(t, c) => StaticLit::Shape {
            a: ix(t)?,
            sel: EventSel::of_class(*c),
            neg,
        },
        Atom::Matches(t, sel) => {
            if sel.thread.is_some() {
                return Err(FallbackReason::ThreadInstanceSel);
            }
            StaticLit::Shape {
                a: ix(t)?,
                sel: sel.clone(),
                neg,
            }
        }
        Atom::ValueCmp(op, l, r) => {
            let conv = |t: &ValueTerm| -> Result<VTerm, FallbackReason> {
                Ok(match t {
                    ValueTerm::Const(v) => VTerm::Const(v.clone()),
                    ValueTerm::Param(e, p) => VTerm::Param(ix(e)?, p.clone()),
                    ValueTerm::SeqOf(e) => VTerm::SeqOf(ix(e)?),
                })
            };
            StaticLit::Cmp {
                op: *op,
                lhs: conv(l)?,
                rhs: conv(r)?,
                neg,
            }
        }
        // Order atoms require both events to have occurred — inside an
        // All-out body that couples the candidate's exclusion to another
        // event's occurrence, which the single-set model cannot express.
        Atom::Enables(..)
        | Atom::ElementPrecedes(..)
        | Atom::TemporallyPrecedes(..)
        | Atom::Concurrent(..)
            if fresh.is_some() =>
        {
            return Err(FallbackReason::OrderAtomUnderExists)
        }
        Atom::New(_) | Atom::Potential(_) => return Err(FallbackReason::TimeDependentAtom),
        _ => return Err(FallbackReason::TemporalShape),
    })
}

/// Atom → NNF at the given polarity (outside any All-out body).
fn atom_nnf(atom: &Atom, positive: bool, names: &[&str]) -> Result<Nnf, FallbackReason> {
    let rel = |kind: RelKind, a: &EventTerm, b: &EventTerm| -> Result<Nnf, FallbackReason> {
        let (ia, ib) = (var_term(a, names)?, var_term(b, names)?);
        Ok(if positive {
            Nnf::And(vec![
                Nnf::In(ia),
                Nnf::In(ib),
                Nnf::Static(StaticLit::Rel {
                    kind,
                    a: ia,
                    b: ib,
                    neg: false,
                }),
            ])
        } else {
            // ¬(occ(a) ∧ occ(b) ∧ rel) — the relation itself is frozen,
            // so the split is exact.
            Nnf::Or(vec![
                Nnf::Out(ia),
                Nnf::Out(ib),
                Nnf::Static(StaticLit::Rel {
                    kind,
                    a: ia,
                    b: ib,
                    neg: true,
                }),
            ])
        })
    };
    Ok(match atom {
        Atom::Occurred(t) => {
            let i = var_term(t, names)?;
            if positive {
                Nnf::In(i)
            } else {
                Nnf::Out(i)
            }
        }
        Atom::Enables(a, b) => rel(RelKind::Enables, a, b)?,
        Atom::ElementPrecedes(a, b) => rel(RelKind::ElementPrecedes, a, b)?,
        Atom::TemporallyPrecedes(a, b) => rel(RelKind::TemporallyPrecedes, a, b)?,
        Atom::Concurrent(a, b) => rel(RelKind::Concurrent, a, b)?,
        Atom::AtControlPoint(t, sel) => {
            if !positive {
                // ¬(x at sel) = ¬occ(x) ∨ ∃ enabled match — a positive
                // existential witness.
                return Err(FallbackReason::PositiveExists);
            }
            if sel.thread.is_some() {
                return Err(FallbackReason::ThreadInstanceSel);
            }
            let i = var_term(t, names)?;
            Nnf::And(vec![
                Nnf::In(i),
                Nnf::AllOut(AllOut::Control {
                    var: i,
                    sel: sel.clone(),
                }),
            ])
        }
        Atom::New(_) | Atom::Potential(_) => return Err(FallbackReason::TimeDependentAtom),
        a => Nnf::Static(static_atom(a, !positive, names, None)?),
    })
}

/// Expands NNF into DNF conjuncts under [`DNF_BUDGET`].
fn to_dnf(f: &Formula, positive: bool, names: &[&str]) -> Result<Vec<Conjunct>, FallbackReason> {
    let nnf = to_nnf(f, positive, names)?;
    let mut out: Vec<Conjunct> = Vec::new();
    expand(&nnf, Conjunct::default(), &mut out)?;
    Ok(out)
}

fn expand(n: &Nnf, acc: Conjunct, out: &mut Vec<Conjunct>) -> Result<(), FallbackReason> {
    match n {
        Nnf::False => Ok(()),
        Nnf::True => push_conjunct(acc, out),
        Nnf::In(v) => {
            let mut acc = acc;
            if !acc.ins.contains(v) {
                acc.ins.push(*v);
            }
            push_conjunct(acc, out)
        }
        Nnf::Out(v) => {
            let mut acc = acc;
            if !acc.outs.contains(v) {
                acc.outs.push(*v);
            }
            push_conjunct(acc, out)
        }
        Nnf::Static(s) => {
            let mut acc = acc;
            acc.statics.push(s.clone());
            push_conjunct(acc, out)
        }
        Nnf::AllOut(a) => {
            let mut acc = acc;
            acc.all_outs.push(a.clone());
            push_conjunct(acc, out)
        }
        Nnf::And(parts) => {
            // Fold left: conjunction distributes by expanding each part
            // against every partial conjunct accumulated so far.
            let mut partials = vec![acc];
            for p in parts {
                let mut next = Vec::new();
                for acc in partials.drain(..) {
                    expand(p, acc, &mut next)?;
                    if next.len() > DNF_BUDGET {
                        return Err(FallbackReason::Budget);
                    }
                }
                partials = next;
            }
            for acc in partials {
                push_conjunct(acc, out)?;
            }
            Ok(())
        }
        Nnf::Or(parts) => {
            for p in parts {
                expand(p, acc.clone(), out)?;
            }
            Ok(())
        }
    }
}

fn push_conjunct(c: Conjunct, out: &mut Vec<Conjunct>) -> Result<(), FallbackReason> {
    if out.len() >= DNF_BUDGET {
        return Err(FallbackReason::Budget);
    }
    out.push(c);
    Ok(())
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

impl BoxShape {
    /// Checks every binding whose newest bound event is `n` (all other
    /// variables range over events `≤ n`) and reports whether any
    /// falsifies the restriction. Call once per emitted event, in order;
    /// violations are final and sticky for the subtree below.
    ///
    /// # Errors
    ///
    /// The [`EvalError`] the batch evaluator raises for a bad parameter
    /// reference; the caller should fall back to batch for this run.
    pub fn check_event(&self, world: &impl World, n: usize) -> Result<bool, EvalError> {
        let mut binding = vec![0usize; self.vars.len()];
        if self.vars.is_empty() {
            // No prefix: the body is variable-free; check it once, at the
            // first event (downsets exist from the empty history on, and
            // variable-free realizability never changes).
            return if n == 0 {
                self.check_binding(world, &binding)
            } else {
                Ok(false)
            };
        }
        self.enumerate(world, n, 0, false, &mut binding)
    }

    fn enumerate(
        &self,
        world: &impl World,
        n: usize,
        depth: usize,
        used_n: bool,
        binding: &mut Vec<usize>,
    ) -> Result<bool, EvalError> {
        if depth == self.vars.len() {
            return if used_n {
                self.check_binding(world, binding)
            } else {
                Ok(false)
            };
        }
        let sel = &self.vars[depth].sel;
        let must_use_n = !used_n && depth + 1 == self.vars.len();
        let lo = if must_use_n { n } else { 0 };
        for e in lo..=n {
            if !world.matches(sel, e) {
                continue;
            }
            binding[depth] = e;
            if self.enumerate(world, n, depth + 1, used_n || e == n, binding)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn check_binding(&self, world: &impl World, binding: &[usize]) -> Result<bool, EvalError> {
        if gem_obs::ambient::active() {
            gem_obs::ambient::add("logic.incr.bindings_checked", 1);
        }
        for (c1, c2) in &self.pairs {
            if self.pair_realizable(world, binding, c1, c2)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Is the falsification `(c1 at D₁, c2 at D₂)` realizable with the
    /// minimal witnesses `D₁ = down(In₁)`, `D₂ = down(In₁ ∪ In₂)`?
    fn pair_realizable(
        &self,
        world: &impl World,
        binding: &[usize],
        c1: &Conjunct,
        c2: &Conjunct,
    ) -> Result<bool, EvalError> {
        for s in c1.statics.iter().chain(&c2.statics) {
            if !eval_static(world, s, binding, None)? {
                return Ok(false);
            }
        }
        // `in_down(e, vars)` ⟺ e ∈ down({binding[v]}) — membership in the
        // downward closure of the In events.
        let in_down = |e: usize, ins: &[&[VarIx]]| {
            ins.iter().flat_map(|s| s.iter()).any(|&v| {
                let i = binding[usize::from(v)];
                e == i || world.precedes(e, i)
            })
        };
        let d1: &[&[VarIx]] = &[&c1.ins];
        let d2: &[&[VarIx]] = &[&c1.ins, &c2.ins];
        for &o in &c1.outs {
            if in_down(binding[usize::from(o)], d1) {
                return Ok(false);
            }
        }
        for &o in &c2.outs {
            if in_down(binding[usize::from(o)], d2) {
                return Ok(false);
            }
        }
        for (ao, down) in c1
            .all_outs
            .iter()
            .map(|a| (a, d1))
            .chain(c2.all_outs.iter().map(|a| (a, d2)))
        {
            match ao {
                AllOut::Control { var, sel } => {
                    let x = binding[usize::from(*var)];
                    for y in world.enabled_from(x) {
                        if world.matches(sel, y) && in_down(y, down) {
                            return Ok(false);
                        }
                    }
                }
                AllOut::NoMatch { sel, statics } => {
                    for y in 0..world.event_count() {
                        if !world.matches(sel, y) || !in_down(y, down) {
                            continue;
                        }
                        let mut all = true;
                        for s in statics {
                            if !eval_static(world, s, binding, Some(y))? {
                                all = false;
                                break;
                            }
                        }
                        if all {
                            return Ok(false);
                        }
                    }
                }
            }
        }
        Ok(true)
    }
}

/// Evaluates a frozen literal under `binding` (selectors never constrain
/// a thread instance: the compiler rejects them).
fn eval_static(
    world: &impl World,
    lit: &StaticLit,
    binding: &[usize],
    fresh: Option<usize>,
) -> Result<bool, EvalError> {
    let ev = |v: VarIx| -> usize {
        if v == FRESH {
            fresh.expect("fresh var only inside All-out bodies")
        } else {
            binding[usize::from(v)]
        }
    };
    let raw = match lit {
        StaticLit::Rel { kind, a, b, neg } => {
            let (a, b) = (ev(*a), ev(*b));
            let holds = match kind {
                RelKind::Enables => world.enables(a, b),
                RelKind::ElementPrecedes => {
                    world.element_of(a) == world.element_of(b) && world.seq_of(a) < world.seq_of(b)
                }
                RelKind::TemporallyPrecedes => world.precedes(a, b),
                RelKind::Concurrent => a != b && !world.precedes(a, b) && !world.precedes(b, a),
            };
            holds != *neg
        }
        StaticLit::Thread {
            same,
            a,
            b,
            ty,
            neg,
        } => {
            let (ta, tb) = (
                world.thread_instance(ev(*a), *ty),
                world.thread_instance(ev(*b), *ty),
            );
            let holds = match (ta, tb) {
                (Some(x), Some(y)) => {
                    if *same {
                        x == y
                    } else {
                        x != y
                    }
                }
                _ => false,
            };
            holds != *neg
        }
        StaticLit::Eq { a, b, neg } => (ev(*a) == ev(*b)) != *neg,
        StaticLit::Shape { a, sel, neg } => world.matches(sel, ev(*a)) != *neg,
        StaticLit::Cmp { op, lhs, rhs, neg } => {
            let resolve = |t: &VTerm| -> Result<Value, EvalError> {
                Ok(match t {
                    VTerm::Const(v) => v.clone(),
                    VTerm::SeqOf(v) => Value::Int(i64::from(world.seq_of(ev(*v)))),
                    VTerm::Param(v, p) => param_value(world, ev(*v), p)?,
                })
            };
            (op.apply(&resolve(lhs)?, &resolve(rhs)?)) != *neg
        }
    };
    Ok(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_core::{Computation, ComputationBuilder, EventId, Structure};

    /// Feed every event through a BoxShape in emission order; true if
    /// any violation is found.
    fn replay(shape: &BoxShape, world: &Computation) -> bool {
        (0..world.event_count()).any(|n| shape.check_event(world, n).unwrap())
    }

    /// Two users with Req → Start → End chains, tagged by inference-like
    /// canonical instances; `interleave` controls whether user 2 starts
    /// before user 1 ends.
    fn two_user_comp(interleave: bool) -> Computation {
        use gem_core::ThreadTag;
        let mut s = Structure::new();
        let req = s.add_class("Req", &[]).unwrap();
        let start = s.add_class("Start", &[]).unwrap();
        let end = s.add_class("End", &[]).unwrap();
        let u1 = s.add_element("U1", &[req, start, end]).unwrap();
        let u2 = s.add_element("U2", &[req, start, end]).unwrap();
        let ty = ThreadTypeId::from_raw(0);
        let mut b = ComputationBuilder::new(s);
        let add = |b: &mut ComputationBuilder, el, cls, inst, prev: Option<EventId>| {
            let e = b.add_event(el, cls, vec![]).unwrap();
            b.tag_thread(e, ThreadTag::new(ty, inst)).unwrap();
            if let Some(p) = prev {
                b.enable(p, e).unwrap();
            }
            e
        };
        if interleave {
            let r1 = add(&mut b, u1, req, 0, None);
            let s1 = add(&mut b, u1, start, 0, Some(r1));
            let r2 = add(&mut b, u2, req, 1, None);
            let s2 = add(&mut b, u2, start, 1, Some(r2));
            let _e1 = add(&mut b, u1, end, 0, Some(s1));
            let _e2 = add(&mut b, u2, end, 1, Some(s2));
        } else {
            let r1 = add(&mut b, u1, req, 0, None);
            let s1 = add(&mut b, u1, start, 0, Some(r1));
            let e1 = add(&mut b, u1, end, 0, Some(s1));
            let r2 = add(&mut b, u2, req, 1, None);
            // Serialise: user 2 starts only after user 1 ended.
            let s2 = b.add_event(u2, start, vec![]).unwrap();
            b.tag_thread(s2, ThreadTag::new(ty, 1)).unwrap();
            b.enable(r2, s2).unwrap();
            b.enable(e1, s2).unwrap();
            let _e2 = add(&mut b, u2, end, 1, Some(s2));
        }
        b.seal().unwrap()
    }

    fn mutual_exclusion_formula(c: &Computation) -> Formula {
        let s = c.structure();
        let (start, end) = (s.class("Start").unwrap(), s.class("End").unwrap());
        let ty = ThreadTypeId::from_raw(0);
        let in_progress = |v: &str, end_var: &str| {
            Formula::occurred(v).and(
                Formula::exists(
                    end_var,
                    EventSel::of_class(end),
                    Formula::same_thread(v, end_var, ty).and(Formula::occurred(end_var)),
                )
                .not(),
            )
        };
        Formula::forall(
            "s1",
            EventSel::of_class(start),
            Formula::forall(
                "s2",
                EventSel::of_class(start),
                Formula::distinct_threads("s1", "s2", ty)
                    .implies(in_progress("s1", "e1").and(in_progress("s2", "e2")).not()),
            ),
        )
        .henceforth()
    }

    #[test]
    fn mutual_exclusion_compiles_to_box() {
        let c = two_user_comp(false);
        let f = mutual_exclusion_formula(&c);
        let compiled = compile(&f).unwrap();
        let Compiled::Boxed(shape) = &compiled else {
            panic!("expected Box shape");
        };
        assert_eq!(shape.vars.len(), 2);
    }

    #[test]
    fn mutual_exclusion_verdict_matches_batch() {
        for interleave in [false, true] {
            let c = two_user_comp(interleave);
            let f = mutual_exclusion_formula(&c);
            let Compiled::Boxed(shape) = compile(&f).unwrap() else {
                panic!("expected Box shape");
            };
            let incr_violated = replay(&shape, &c);
            let batch =
                crate::check(&f, &c, crate::Strategy::Linearizations { limit: 100_000 }).unwrap();
            assert_eq!(
                incr_violated, !batch.holds,
                "interleave={interleave}: incr and batch disagree"
            );
        }
    }

    #[test]
    fn priority_shape_compiles_and_matches_batch() {
        // ◻∀ra∀rb∀sb (occurred(ra) ∧ occurred(rb) ∧ samethread(rb,sb) ⊃
        //              ◻(occurred(sb) ⊃ ∃sa: samethread(ra,sa) ∧ occurred(sa)))
        // Over the serialised computation user 1 always starts first, so
        // with ra:=Req@U1 this "u1 requests are serviced before u2
        // starts" priority holds; over the interleaved one it fails.
        let ty = ThreadTypeId::from_raw(0);
        for (interleave, expect_holds) in [(false, true), (true, false)] {
            let c = two_user_comp(interleave);
            let s = c.structure();
            let (req, start) = (s.class("Req").unwrap(), s.class("Start").unwrap());
            let (u1, u2) = (s.element("U1").unwrap(), s.element("U2").unwrap());
            let f = Formula::forall(
                "ra",
                EventSel::of_class(req).at(u1),
                Formula::forall(
                    "rb",
                    EventSel::of_class(req).at(u2),
                    Formula::forall(
                        "sb",
                        EventSel::of_class(start).at(u2),
                        Formula::occurred("ra")
                            .and(Formula::occurred("rb"))
                            .and(Formula::same_thread("rb", "sb", ty))
                            .implies(
                                Formula::occurred("sb")
                                    .implies(Formula::exists(
                                        "sa",
                                        EventSel::of_class(start).at(u1),
                                        Formula::same_thread("ra", "sa", ty)
                                            .and(Formula::occurred("sa")),
                                    ))
                                    .henceforth(),
                            ),
                    ),
                ),
            )
            .henceforth();
            let Compiled::Boxed(shape) = compile(&f).unwrap() else {
                panic!("expected Box shape");
            };
            let incr_violated = replay(&shape, &c);
            let batch =
                crate::check(&f, &c, crate::Strategy::Linearizations { limit: 100_000 }).unwrap();
            assert_eq!(
                batch.holds, expect_holds,
                "batch sanity, interleave={interleave}"
            );
            assert_eq!(incr_violated, !batch.holds, "interleave={interleave}");
        }
    }

    #[test]
    fn non_temporal_compiles_to_leaf_and_matches_complete() {
        let c = two_user_comp(false);
        let s = c.structure();
        let (req, start) = (s.class("Req").unwrap(), s.class("Start").unwrap());
        // prerequisite: every Start has exactly one enabling Req.
        let f = Formula::forall(
            "t",
            EventSel::of_class(start),
            Formula::occurred("t").implies(Formula::exists_unique(
                "s",
                EventSel::of_class(req),
                Formula::enables("s", "t"),
            )),
        );
        let compiled = compile(&f).unwrap();
        assert!(compiled.is_leaf());
        // The leaf check reads the full-history scope; it agrees with the
        // complete-history sequence a batch check evaluates.
        let leaf = crate::holds_on_computation(&f, &c).unwrap();
        let batch = crate::check(&f, &c, crate::Strategy::Complete).unwrap();
        assert_eq!(leaf, batch.holds);
        assert!(leaf);
    }

    #[test]
    fn eventually_falls_back() {
        let f = Formula::occurred("e").eventually();
        assert!(matches!(
            compile(&Formula::forall("e", EventSel::any(), f).henceforth()),
            Err(FallbackReason::TemporalShape)
        ));
    }

    #[test]
    fn positive_exists_falls_back() {
        // A body-level ∃ is *negated* into an All-out set and compiles;
        // the genuinely positive case — ¬∃ in the body, so the ∃ stays
        // positive in the falsifying conjuncts — must fall back.
        let f = Formula::forall(
            "x",
            EventSel::any(),
            Formula::exists("y", EventSel::any(), Formula::occurred("y")).not(),
        )
        .henceforth();
        assert!(matches!(compile(&f), Err(FallbackReason::PositiveExists)));
        let g = Formula::forall(
            "x",
            EventSel::any(),
            Formula::exists("y", EventSel::any(), Formula::occurred("y")),
        )
        .henceforth();
        assert!(matches!(compile(&g), Ok(Compiled::Boxed(_))));
    }

    #[test]
    fn unbound_variable_falls_back() {
        let f = Formula::occurred("ghost");
        assert!(matches!(compile(&f), Err(FallbackReason::UnboundVariable)));
        let g = Formula::forall("x", EventSel::any(), Formula::occurred("ghost")).henceforth();
        assert!(matches!(compile(&g), Err(FallbackReason::UnboundVariable)));
    }

    #[test]
    fn new_and_potential_fall_back_in_temporal_bodies() {
        let f = Formula::forall("x", EventSel::any(), Formula::is_new("x")).henceforth();
        assert!(matches!(
            compile(&f),
            Err(FallbackReason::TimeDependentAtom)
        ));
        // But they are fine in leaf shapes.
        let g = Formula::forall("x", EventSel::any(), Formula::is_new("x").or(Formula::True));
        assert!(compile(&g).unwrap().is_leaf());
    }

    #[test]
    fn negated_order_atom_splits_exactly() {
        // ◻∀a∀b ¬(a ⇒ b): violated iff some downset contains an ordered
        // pair — i.e. iff any order pair exists at all.
        let c = two_user_comp(false);
        let f = Formula::forall(
            "a",
            EventSel::any(),
            Formula::forall("b", EventSel::any(), Formula::precedes("a", "b").not()),
        )
        .henceforth();
        let Compiled::Boxed(shape) = compile(&f).unwrap() else {
            panic!("expected Box shape");
        };
        let incr_violated = replay(&shape, &c);
        let batch =
            crate::check(&f, &c, crate::Strategy::Linearizations { limit: 100_000 }).unwrap();
        assert_eq!(incr_violated, !batch.holds);
        assert!(incr_violated, "chains exist, so some downset orders a pair");
    }

    #[test]
    fn no_event_is_concurrent_with_itself() {
        // ◻∀a∀b (occurred(a) ∧ occurred(b) ⊃ concurrent(a, b)) fails as
        // soon as one event occurs: a = b is a binding, and an event is
        // not concurrent with itself. The two events sit at distinct
        // elements with no edge, so no other binding falsifies it.
        let mut s = Structure::new();
        let act = s.add_class("Act", &[]).unwrap();
        let p = s.add_element("P", &[act]).unwrap();
        let q = s.add_element("Q", &[act]).unwrap();
        let mut b = ComputationBuilder::new(s);
        b.add_event(p, act, vec![]).unwrap();
        b.add_event(q, act, vec![]).unwrap();
        let c = b.seal().unwrap();
        let f = Formula::forall(
            "a",
            EventSel::any(),
            Formula::forall(
                "b",
                EventSel::any(),
                Formula::occurred("a")
                    .and(Formula::occurred("b"))
                    .implies(Formula::concurrent("a", "b")),
            ),
        )
        .henceforth();
        let Compiled::Boxed(shape) = compile(&f).unwrap() else {
            panic!("expected Box shape");
        };
        let batch =
            crate::check(&f, &c, crate::Strategy::Linearizations { limit: 100_000 }).unwrap();
        assert!(!batch.holds);
        assert!(replay(&shape, &c), "the incremental check must see it too");
    }

    #[test]
    fn fallback_reason_display() {
        assert_eq!(FallbackReason::Budget.to_string(), "dnf-budget");
        assert_eq!(
            FallbackReason::PositiveExists.to_string(),
            "positive-exists"
        );
    }
}
