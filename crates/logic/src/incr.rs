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
//! 1. **Leaf** — restrictions with one value on every history sequence
//!    of a computation: non-temporal ones (immediate assertions,
//!    `Strategy::Complete` semantics) and history-stable temporal ones
//!    (below). Their value is the one formula evaluator's,
//!    [`holds_on_computation`](crate::holds_on_computation), on the
//!    complete leaf computation, read over a [`World`] backed by the
//!    caller's incremental projection state, skipping seal/projection
//!    entirely. A [`LeafPlan`] splits the restriction into its top-level
//!    conjuncts and settles most of them event by event (below), so the
//!    leaf evaluates only the rest.
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
//! ## History-stable restrictions
//!
//! A temporal restriction is a leaf when every temporal operator is a
//! `◇g` whose body `g` is non-temporal and upward-closed in the history,
//! and every atom outside the `◇`s is history-independent. In `g`,
//! `occurred`, `⊳`, `⇒ₑ`, `⇒` and `concurrent` appear only in positive
//! position; `@`, `:`, selector match, `=`, the thread atoms and value
//! comparisons in either; `∃!` and at-most-one only over
//! history-independent bodies; `at`, `new` and `potential` not at all.
//! Quantifiers range over all events, so they keep `g` upward-closed.
//! The argument: every valid history sequence grows from the empty
//! history to the complete one (§7), so an upward-closed `g` holds at
//! some history of any suffix exactly when it holds at the complete
//! history. `◇g` is therefore `g` at the complete history on every
//! suffix of every sequence, the history-independent atoms around it
//! read the same at every history, and the restriction has one value on
//! all sequences: the value the full-history evaluation gives, where
//! `◇g` is `g` at the one complete history. The outer condition is
//! needed: in `∀r (occurred(r) ⊃ ◇φ)` the batch checker reads the outer
//! `occurred` at the empty first history and finds the formula vacuously
//! true, while the full history would judge `◇φ` for every `r`.
//!
//! ## Settling leaf conjuncts per event
//!
//! A leaf restriction holds iff each of its top-level conjuncts evaluates
//! to `Ok(true)` on the complete computation (a false or failing conjunct
//! makes the whole `∧` false or failing). [`LeafPlan`] gives each conjunct
//! a [`Settle`] rule, which says when its value on the complete leaf
//! computation is already fixed by the prefix. Each rule rests on prefix
//! finality: for simulation-grown computations every edge targets the
//! newest event, so once an event has arrived (with its edges), its
//! selector match, parameters, occurrence number, thread tags and the
//! order relations among it and older events never change, and no later
//! event can precede it. Every atom except `new`, `potential` and `at`
//! therefore has its final full-history value as soon as the events it
//! names exist. Quantifiers are the remaining danger: their domains grow.
//!
//! A quantifier `Q y:S β` is *past-anchored* when its filter (the body for
//! `∃`, `∃!` and at-most-one, the antecedent of a `∀` body `α ⊃ φ`) is a
//! conjunction with a *guard* `y ⊳ a`, `y ⇒ₑ a` or `y ⇒ a`, where `a` is
//! an anchor (defined below), and every conjunct before the guard is
//! free of parameter terms, so it cannot raise an [`EvalError`]. A guard
//! is false, without an error, for every `y` that arrives after `a`, and
//! the conjuncts ahead of it are also error-free for such a `y`. The
//! events that can still arrive therefore leave the quantifier's value
//! and its first error as they are. A formula is past-anchored to a set
//! of anchors when its atoms are final (not `new`, `potential` or `at`),
//! it has no `◻` or `◇`, every event term is an anchor, and every
//! quantifier in it is past-anchored, with its variable joining the
//! anchors inside it.
//!
//! - **(a) Ground** ([`Settle::Ground`]): a conjunct past-anchored to the
//!   `EL^k` terms it names, such as every conjunct of the bounded buffer's
//!   `fifo-values`, `remove-after-deposit` and `capacity`. Once all the
//!   `(element, k)` events it names exist, its value is final. It is
//!   judged at the arrival of the last of them. The positions come from
//!   compilation, so the caller indexes them and pays O(1) per event. A
//!   term that never resolves (a partial run) leaves the conjunct to the
//!   leaf.
//! - **(b, c) Per binding** ([`Settle::PerBinding`]): `∀x₁:S₁ … ∀xₙ:Sₙ ψ`
//!   with `ψ` past-anchored to `x₁ … xₙ`. Examples are the `∃!` half of
//!   `prerequisite` and `getval-yields-latest-write` for n = 1, and the
//!   quantifier-free `reads-isolated-from-writes` and
//!   `neighbour-exclusion` for n = 2. `ψ` of one binding only reads events
//!   up to its newest one, so each binding is judged once, when its newest
//!   event arrives. The variables other than the newest one walk their
//!   indexed candidates.
//! - **(d) Per enabler** ([`Settle::PerEnabler`]): `∀s:S ≤1 t:T (s ⊳ t ∧
//!   χ)` with `χ` past-anchored to `s` and `t`. This is the other half of
//!   `prerequisite`. The at-most-one for a fixed `s` only changes when a
//!   `T` event that `s` enables arrives, and it can only turn false. So it
//!   is re-judged for the enablers of each arriving `T` event, and the last
//!   judgement for `s` is its final value.
//!
//! Everything else stays at the leaf ([`Settle::AtLeaf`]). That covers a
//! future-anchored quantifier (`∀x ∃y (x ⊳ y)`), `◇` bodies, `new`, `at`,
//! and an `EL^k` term inside a `∀` prefix. All judging calls the one
//! evaluator with the bound variables pre-set. A conjunct whose judgement
//! is false or fails stays false for every extension, so the caller keeps
//! it as a sticky violation. The leaf then needs only the conjuncts that
//! did not settle.
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
//! sticky for the whole DFS subtree below that point. An event that no
//! quantified variable's selector matches completes no binding, and the
//! last variable it matches is the last one that can take it, so the
//! enumeration binds it there at the latest instead of walking every
//! candidate tuple to find that out.
//!
//! Unsupported constructs inside a `◻` body (positive `∃`, inner
//! `∀`/`◇`, `new`/`potential`, non-variable event terms, thread-instance
//! selectors, order atoms under an `∃`) make the truth of a fixed-downset
//! body time-dependent or require re-visiting old bindings; [`compile`]
//! rejects them with a [`FallbackReason`] and the caller keeps using the
//! batch checker for that restriction.

use std::fmt;

use gem_core::{ElementId, ThreadTypeId, Value};

use crate::eval::{holds_bound, param_value, Scope};
use crate::{Atom, CmpOp, EvalError, EventSel, EventTerm, Formula, ParamRef, ValueTerm, World};

/// Why a restriction could not be compiled incrementally. Recorded per
/// restriction under `logic.incr.*` so fallbacks are attributable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FallbackReason {
    /// Temporal structure other than `◻∀*(body)`, `◻∀*(γ ⊃ ◻δ)` or a
    /// history-stable `◇` — e.g. `◻` and `◇` in one restriction, a `◇`
    /// body that is not upward-closed (`◇¬occurred(e)`), or an
    /// occurrence atom outside the `◇`s.
    TemporalShape,
    /// A positive existential (or negated universal) inside a temporal
    /// body — would require re-checking old bindings as witnesses arrive.
    PositiveExists,
    /// `new` / `potential` — time-dependent at a fixed downset — or, in a
    /// `◇` restriction, also `at`: none of them is upward-closed.
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
    /// Non-temporal or history-stable (see the module docs): its value is
    /// [`holds_on_computation`](crate::holds_on_computation) of the
    /// original formula on the complete computation, settled conjunct by
    /// conjunct as the [`LeafPlan`] says.
    Leaf(LeafPlan),
    /// `◻∀*` shape: check bindings incrementally with
    /// [`BoxShape::check_event`].
    Boxed(BoxShape),
}

impl Compiled {
    /// True for the leaf shape.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Compiled::Leaf(_))
    }
}

/// The top-level conjuncts of a leaf restriction, each with the rule that
/// settles it (see the module docs).
#[derive(Clone, Debug)]
pub struct LeafPlan {
    conjuncts: Vec<LeafConjunct>,
    /// Every ground conjunct's positions, the highest per element: once
    /// they all exist, only the [`Settle::AtLeaf`] conjuncts are left.
    needs: Vec<(ElementId, usize)>,
}

impl LeafPlan {
    /// Splits `formula` at its top-level (nested) `∧`s, in evaluation
    /// order, and picks each conjunct's settle rule.
    fn new(formula: &Formula) -> Self {
        let mut parts = Vec::new();
        flatten_and(formula, &mut parts);
        let conjuncts = parts
            .into_iter()
            .map(|f| LeafConjunct {
                settle: settle_rule(f),
                formula: f.clone(),
            })
            .collect::<Vec<_>>();
        let mut needs = Vec::new();
        for c in &conjuncts {
            if let Settle::Ground(own) = &c.settle {
                for &(el, k) in own {
                    need(&mut needs, el, k);
                }
            }
        }
        Self { conjuncts, needs }
    }

    /// The conjuncts, in evaluation order.
    pub fn conjuncts(&self) -> &[LeafConjunct] {
        &self.conjuncts
    }

    /// The conjuncts the leaf `world` must still evaluate, in evaluation
    /// order: those not [`settled`](LeafConjunct::settled) on it.
    pub fn unsettled<'p, W: World>(
        &'p self,
        world: &'p W,
    ) -> impl Iterator<Item = &'p LeafConjunct> + 'p {
        let all_ground = self
            .needs
            .iter()
            .all(|&(el, k)| world.nth_at(el, k).is_some());
        self.conjuncts.iter().filter(move |c| match c.settle {
            Settle::AtLeaf => true,
            Settle::Ground(_) => !all_ground && !c.settled(world),
            Settle::PerBinding(_) | Settle::PerEnabler => false,
        })
    }
}

/// One top-level conjunct of a leaf restriction.
#[derive(Clone, Debug)]
pub struct LeafConjunct {
    formula: Formula,
    settle: Settle,
}

/// When a leaf conjunct's value on the complete computation becomes
/// final (the rules (a)–(d) of the module docs).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Settle {
    /// Judged at the leaf.
    AtLeaf,
    /// (a) Judged once, when the last of the `EL^k` events it names has
    /// arrived: for each element it names, the highest `k`.
    Ground(Vec<(ElementId, usize)>),
    /// (b, c) `∀x₁ … ∀xₙ ψ` with this `n`: each binding judged when its
    /// newest event arrives.
    PerBinding(usize),
    /// (d) `∀s:S ≤1 t:T (s ⊳ t ∧ χ)`: re-judged for the `S` enablers of
    /// each arriving `T` event.
    PerEnabler,
}

impl LeafConjunct {
    /// The conjunct.
    pub fn formula(&self) -> &Formula {
        &self.formula
    }

    /// Its settle rule.
    pub fn settle(&self) -> &Settle {
        &self.settle
    }

    /// The selectors of the events whose arrival can settle a judgement
    /// of a per-binding or per-enabler conjunct (the `∀` prefix, the
    /// at-most-one's target): [`judge_event`](Self::judge_event) judges
    /// nothing at an event none of them matches. Empty for the other
    /// rules.
    pub fn triggers(&self) -> Vec<&EventSel> {
        match (&self.settle, &self.formula) {
            (Settle::PerBinding(_), f) => forall_prefix(f).collect(),
            (Settle::PerEnabler, Formula::ForAll(_, _, inner)) => match &**inner {
                Formula::AtMostOne(_, target, _) => vec![target],
                _ => Vec::new(),
            },
            _ => Vec::new(),
        }
    }

    /// True when every judgement [`judge_event`](Self::judge_event) made
    /// on the prefixes of `world` together decide the conjunct, so the
    /// leaf need not evaluate it: always for the per-binding and
    /// per-enabler rules, once every named event exists for a ground one.
    pub fn settled(&self, world: &impl World) -> bool {
        match &self.settle {
            Settle::AtLeaf => false,
            Settle::Ground(needs) => needs.iter().all(|&(el, k)| world.nth_at(el, k).is_some()),
            Settle::PerBinding(_) | Settle::PerEnabler => true,
        }
    }

    /// Judges what the arrival of event `t`, the newest event of `world`
    /// with all its incoming edges, settles. Returns `Ok(true)` when all
    /// of it holds (or nothing settled). A `false` or an error is final
    /// for every extension, so the caller keeps it as a sticky violation
    /// and stops judging this conjunct below it. `judged` counts the
    /// evaluator calls.
    ///
    /// Call once per event, in emission order. For a ground conjunct the
    /// caller may skip every event whose position its
    /// [`Settle::Ground`] list does not name.
    ///
    /// # Errors
    ///
    /// The [`EvalError`] the evaluator raises for a settled binding.
    pub fn judge_event(
        &self,
        world: &impl World,
        t: usize,
        judged: &mut u64,
    ) -> Result<bool, EvalError> {
        match &self.settle {
            Settle::AtLeaf => Ok(true),
            Settle::Ground(needs) => {
                let at = (world.element_of(t), world.seq_of(t) as usize);
                if !needs.contains(&at) || !self.settled(world) {
                    return Ok(true);
                }
                *judged += 1;
                holds_bound(&self.formula, world, &Scope::Empty)
            }
            Settle::PerBinding(n) => {
                // As in `BoxShape::check_event`: the last variable whose
                // selector `t` matches bounds where `t` can be bound.
                let Some(last) = forall_prefix(&self.formula)
                    .enumerate()
                    .filter_map(|(depth, sel)| world.matches(sel, t).then_some(depth))
                    .last()
                else {
                    return Ok(true);
                };
                let newest = Newest {
                    world,
                    t,
                    vars: *n,
                    last,
                };
                newest.bind(&self.formula, 0, false, &Scope::Empty, judged)
            }
            Settle::PerEnabler => {
                let Formula::ForAll(s, sel, body) = &self.formula else {
                    unreachable!("a per-enabler conjunct is ∀s ≤1 t");
                };
                let Formula::AtMostOne(_, target, _) = &**body else {
                    unreachable!("a per-enabler conjunct is ∀s ≤1 t");
                };
                if !world.matches(target, t) {
                    return Ok(true);
                }
                for e in world.enablers_of(t) {
                    if !world.matches(sel, e) {
                        continue;
                    }
                    *judged += 1;
                    let scope = Scope::Bound {
                        var: s,
                        event: e,
                        outer: &Scope::Empty,
                    };
                    if !holds_bound(body, world, &scope)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
        }
    }
}

/// The bindings of a per-binding conjunct whose newest bound event is
/// `t`: the variable at `last`, the last one `t` can bind, takes `t`
/// unless an earlier one did, and every other variable walks its
/// candidates up to `t`.
struct Newest<'w, W> {
    world: &'w W,
    t: usize,
    /// The length of the `∀` prefix.
    vars: usize,
    last: usize,
}

impl<W: World> Newest<'_, W> {
    /// Judges the bindings of the `∀` prefix of `f` from variable `depth`
    /// on (`used_t` once an earlier variable took `t`).
    fn bind(
        &self,
        f: &Formula,
        depth: usize,
        used_t: bool,
        scope: &Scope,
        judged: &mut u64,
    ) -> Result<bool, EvalError> {
        if !used_t && depth > self.last {
            return Ok(true);
        }
        if depth == self.vars {
            *judged += 1;
            return holds_bound(f, self.world, scope);
        }
        let Formula::ForAll(var, sel, body) = f else {
            unreachable!("a per-binding conjunct has a ∀ prefix of its length");
        };
        let bind = |e: usize, judged: &mut u64| {
            let inner = Scope::Bound {
                var,
                event: e,
                outer: scope,
            };
            self.bind(body, depth + 1, used_t || e == self.t, &inner, judged)
        };
        if !used_t && depth == self.last {
            return bind(self.t, judged);
        }
        for e in self.world.candidates(sel).take_while(|&e| e <= self.t) {
            if self.world.matches(sel, e) && !bind(e, judged)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Records that the `k`-th event at `el` must exist: `needs` keeps the
/// highest `k` per element.
fn need(needs: &mut Vec<(ElementId, usize)>, el: ElementId, k: usize) {
    match needs.iter_mut().find(|(e, _)| *e == el) {
        Some((_, top)) => *top = (*top).max(k),
        None => needs.push((el, k)),
    }
}

/// The selectors of the leading `∀`s of `f`, outermost first.
fn forall_prefix(f: &Formula) -> impl Iterator<Item = &EventSel> {
    std::iter::successors(Some(f), |f| match f {
        Formula::ForAll(_, _, inner) => Some(&**inner),
        _ => None,
    })
    .filter_map(|f| match f {
        Formula::ForAll(_, sel, _) => Some(sel),
        _ => None,
    })
}

/// Appends the top-level conjuncts of `f` (nested `∧`s flattened) in
/// evaluation order.
fn flatten_and<'a>(f: &'a Formula, out: &mut Vec<&'a Formula>) {
    match f {
        Formula::And(fs) => fs.iter().for_each(|g| flatten_and(g, out)),
        f => out.push(f),
    }
}

/// The settle rule of one top-level leaf conjunct (module docs).
fn settle_rule(f: &Formula) -> Settle {
    let mut vars: Vec<&str> = Vec::new();
    let mut body = f;
    while let Formula::ForAll(v, _, inner) = body {
        vars.push(v);
        body = inner;
    }
    let n = vars.len();
    if n == 0 {
        let mut anchors = Anchors {
            vars,
            needs: Some(Vec::new()),
        };
        return match (anchors.past_anchored(f), anchors.needs) {
            (true, Some(needs)) if !needs.is_empty() => Settle::Ground(needs),
            _ => Settle::AtLeaf,
        };
    }
    if (Anchors { vars, needs: None }).past_anchored(body) {
        return Settle::PerBinding(n);
    }
    if let Formula::ForAll(s, _, inner) = f {
        if let Formula::AtMostOne(t, _, filter) = &**inner {
            let mut parts = Vec::new();
            flatten_and(filter, &mut parts);
            let anchored_edge = matches!(
                parts.first(),
                Some(Formula::Atom(Atom::Enables(EventTerm::Var(a), EventTerm::Var(b))))
                    if a == s && b == t && s != t
            );
            let mut anchors = Anchors {
                vars: vec![s.as_str(), t.as_str()],
                needs: None,
            };
            if anchored_edge && anchors.past_anchored(filter) {
                return Settle::PerEnabler;
            }
        }
    }
    Settle::AtLeaf
}

/// The anchors a formula is checked against: bound variables, and in a
/// ground conjunct the `EL^k` terms, whose highest position per element is
/// collected in `needs` (`None` where such terms are not anchors).
struct Anchors<'a> {
    vars: Vec<&'a str>,
    needs: Option<Vec<(ElementId, usize)>>,
}

impl<'a> Anchors<'a> {
    /// True if `t` is an anchor (recording an `EL^k` position).
    fn anchor(&mut self, t: &EventTerm) -> bool {
        match t {
            EventTerm::Var(v) => self.vars.iter().any(|a| a == v),
            EventTerm::NthAt(el, k) => match &mut self.needs {
                Some(needs) => {
                    need(needs, *el, *k);
                    true
                }
                None => false,
            },
            EventTerm::Fixed(_) => false,
        }
    }

    /// True if `f` is past-anchored to these anchors (module docs).
    fn past_anchored(&mut self, f: &'a Formula) -> bool {
        match f {
            Formula::True | Formula::False => true,
            Formula::Atom(a) => self.final_atom(a),
            Formula::Not(g) => self.past_anchored(g),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(|g| self.past_anchored(g)),
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                self.past_anchored(a) && self.past_anchored(b)
            }
            Formula::Henceforth(_) | Formula::Eventually(_) => false,
            Formula::Exists(y, _, body)
            | Formula::ExistsUnique(y, _, body)
            | Formula::AtMostOne(y, _, body) => self.guarded(y, body) && self.within(y, body),
            Formula::ForAll(y, _, body) => match &**body {
                Formula::Implies(filter, _) => self.guarded(y, filter) && self.within(y, body),
                _ => false,
            },
        }
    }

    /// `body` is past-anchored with `y` joining the anchors.
    fn within(&mut self, y: &'a str, body: &'a Formula) -> bool {
        self.vars.push(y);
        let ok = self.past_anchored(body);
        self.vars.pop();
        ok
    }

    /// True if a conjunct of `filter` is a guard `y ⊳ a`, `y ⇒ₑ a` or
    /// `y ⇒ a` with `a` an anchor, and the conjuncts before it cannot
    /// raise an evaluation error.
    fn guarded(&mut self, y: &str, filter: &Formula) -> bool {
        let mut parts = Vec::new();
        flatten_and(filter, &mut parts);
        for (i, part) in parts.iter().enumerate() {
            let Formula::Atom(
                Atom::Enables(EventTerm::Var(v), a)
                | Atom::ElementPrecedes(EventTerm::Var(v), a)
                | Atom::TemporallyPrecedes(EventTerm::Var(v), a),
            ) = part
            else {
                continue;
            };
            if v == y && !matches!(a, EventTerm::Var(w) if w == y) && self.anchor(a) {
                return parts[..i].iter().all(|p| !reads_params(p));
            }
        }
        false
    }

    /// True if the atom's value is final once the events it names exist,
    /// and each of them is an anchor.
    fn final_atom(&mut self, a: &Atom) -> bool {
        match a {
            Atom::New(_) | Atom::Potential(_) | Atom::AtControlPoint(..) => false,
            Atom::Occurred(t)
            | Atom::AtElement(t, _)
            | Atom::InClass(t, _)
            | Atom::Matches(t, _) => self.anchor(t),
            Atom::Enables(a, b)
            | Atom::ElementPrecedes(a, b)
            | Atom::TemporallyPrecedes(a, b)
            | Atom::Concurrent(a, b)
            | Atom::EventEq(a, b)
            | Atom::SameThread(a, b, _)
            | Atom::DistinctThreads(a, b, _) => self.anchor(a) && self.anchor(b),
            Atom::ValueCmp(_, l, r) => [l, r].into_iter().all(|v| match v {
                ValueTerm::Const(_) => true,
                ValueTerm::Param(t, _) | ValueTerm::SeqOf(t) => self.anchor(t),
            }),
        }
    }
}

/// True if `f` reads an event parameter anywhere: the only atom that can
/// raise an [`EvalError`] on a formula without unbound variables.
fn reads_params(f: &Formula) -> bool {
    match f {
        Formula::True | Formula::False => false,
        Formula::Atom(Atom::ValueCmp(_, l, r)) => [l, r]
            .into_iter()
            .any(|v| matches!(v, ValueTerm::Param(..))),
        Formula::Atom(_) => false,
        Formula::Not(g) | Formula::Henceforth(g) | Formula::Eventually(g) => reads_params(g),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().any(reads_params),
        Formula::Implies(a, b) | Formula::Iff(a, b) => reads_params(a) || reads_params(b),
        Formula::ForAll(_, _, g)
        | Formula::Exists(_, _, g)
        | Formula::ExistsUnique(_, _, g)
        | Formula::AtMostOne(_, _, g) => reads_params(g),
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
    let Formula::Henceforth(body) = formula else {
        check_leaf_supported(formula, &mut Vec::new())?;
        if formula.is_temporal() {
            history_stable(formula, false, None)?;
        }
        return Ok(Compiled::Leaf(LeafPlan::new(formula)));
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

/// Accepts a formula whose value is the same on every history sequence
/// of a computation: every temporal operator is a `◇g` with `g`
/// non-temporal and upward-closed in the history, and every atom outside
/// the `◇`s is history-independent. `in_eventually` is true below a `◇`;
/// `pol` is the polarity there (`Some(true)` positive, `Some(false)`
/// negative, `None` both, as under `⟺`, `∃!` and at-most-one). Outside a
/// `◇` every position counts as both polarities.
fn history_stable(
    f: &Formula,
    in_eventually: bool,
    pol: Option<bool>,
) -> Result<(), FallbackReason> {
    match f {
        Formula::True | Formula::False => Ok(()),
        // No wildcard: a new atom must be classified here, because a
        // wrong "history-independent" turns a violation into a clean leaf.
        Formula::Atom(a) => match a {
            Atom::New(_) | Atom::Potential(_) | Atom::AtControlPoint(..) => {
                Err(FallbackReason::TimeDependentAtom)
            }
            // Occurrence and the order atoms only grow with the history,
            // so they may appear where a larger history can only help.
            Atom::Occurred(_)
            | Atom::Enables(..)
            | Atom::ElementPrecedes(..)
            | Atom::TemporallyPrecedes(..)
            | Atom::Concurrent(..) => {
                if in_eventually && pol == Some(true) {
                    Ok(())
                } else {
                    Err(FallbackReason::TemporalShape)
                }
            }
            Atom::AtElement(..)
            | Atom::InClass(..)
            | Atom::Matches(..)
            | Atom::EventEq(..)
            | Atom::SameThread(..)
            | Atom::DistinctThreads(..)
            | Atom::ValueCmp(..) => Ok(()),
        },
        Formula::Not(g) => history_stable(g, in_eventually, pol.map(|p| !p)),
        Formula::And(fs) | Formula::Or(fs) => fs
            .iter()
            .try_for_each(|g| history_stable(g, in_eventually, pol)),
        Formula::Implies(a, b) => {
            history_stable(a, in_eventually, pol.map(|p| !p))?;
            history_stable(b, in_eventually, pol)
        }
        Formula::Iff(a, b) => {
            history_stable(a, in_eventually, None)?;
            history_stable(b, in_eventually, None)
        }
        Formula::ForAll(_, _, g) | Formula::Exists(_, _, g) => {
            history_stable(g, in_eventually, pol)
        }
        Formula::ExistsUnique(_, _, g) | Formula::AtMostOne(_, _, g) => {
            history_stable(g, in_eventually, None)
        }
        Formula::Eventually(g) if !in_eventually => history_stable(g, true, Some(true)),
        Formula::Eventually(_) | Formula::Henceforth(_) => Err(FallbackReason::TemporalShape),
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
                    ValueTerm::Const(v) => VTerm::Const(*v),
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
    /// `binding` is scratch space the caller owns, so that checking an
    /// event allocates nothing once it has grown to the prefix length.
    ///
    /// # Errors
    ///
    /// The [`EvalError`] the batch evaluator raises for a bad parameter
    /// reference; the caller should fall back to batch for this run.
    pub fn check_event(
        &self,
        world: &impl World,
        n: usize,
        binding: &mut Vec<usize>,
    ) -> Result<bool, EvalError> {
        binding.clear();
        binding.resize(self.vars.len(), 0);
        if self.vars.is_empty() {
            // No prefix: the body is variable-free; check it once, at the
            // first event (downsets exist from the empty history on, and
            // variable-free realizability never changes).
            return if n == 0 {
                self.check_binding(world, binding)
            } else {
                Ok(false)
            };
        }
        // A binding whose newest event is `n` binds some variable to `n`,
        // so `n` must match that variable's selector: past the last such
        // variable no binding is left to complete.
        let Some(last) = self.vars.iter().rposition(|v| world.matches(&v.sel, n)) else {
            return Ok(false);
        };
        self.enumerate(world, n, 0, false, last, binding)
    }

    fn enumerate(
        &self,
        world: &impl World,
        n: usize,
        depth: usize,
        used_n: bool,
        last: usize,
        binding: &mut [usize],
    ) -> Result<bool, EvalError> {
        if !used_n && depth > last {
            return Ok(false);
        }
        if depth == self.vars.len() {
            return self.check_binding(world, binding);
        }
        if !used_n && depth == last {
            // No later variable can take `n`, so this one must.
            binding[depth] = n;
            return self.enumerate(world, n, depth + 1, true, last, binding);
        }
        let sel = &self.vars[depth].sel;
        for e in world.candidates(sel).take_while(|&e| e <= n) {
            if !world.matches(sel, e) {
                continue;
            }
            binding[depth] = e;
            if self.enumerate(world, n, depth + 1, used_n || e == n, last, binding)? {
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
                    for y in world.candidates(sel) {
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
            let (lhs, rhs) = (vterm_value(world, lhs, ev)?, vterm_value(world, rhs, ev)?);
            op.apply(&lhs, &rhs) != *neg
        }
    };
    Ok(raw)
}

/// The value of `t` under the binding `ev` reads.
fn vterm_value(
    world: &impl World,
    t: &VTerm,
    ev: impl Fn(VarIx) -> usize,
) -> Result<Value, EvalError> {
    Ok(match t {
        VTerm::Const(v) => *v,
        VTerm::SeqOf(v) => Value::Int(i64::from(world.seq_of(ev(*v)))),
        VTerm::Param(v, p) => *param_value(world, ev(*v), p)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::holds_on_computation;
    use gem_core::{Computation, ComputationBuilder, EventId, Structure};

    /// Feed every event through a BoxShape in emission order; true if
    /// any violation is found.
    fn replay(shape: &BoxShape, world: &Computation) -> bool {
        let mut binding = Vec::new();
        (0..world.event_count()).any(|n| shape.check_event(world, n, &mut binding).unwrap())
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

    /// `∀r:Req ◇ ∃s:sel (same_thread(r, s) ∧ occurred(s))`, the shape of
    /// the readers/writers progress restrictions.
    fn eventually_serviced(c: &Computation, sel: EventSel) -> Formula {
        let req = c.structure().class("Req").unwrap();
        let ty = ThreadTypeId::from_raw(0);
        Formula::forall(
            "r",
            EventSel::of_class(req),
            Formula::exists(
                "s",
                sel,
                Formula::same_thread("r", "s", ty).and(Formula::occurred("s")),
            )
            .eventually(),
        )
    }

    #[test]
    fn history_stable_eventually_is_a_leaf_and_matches_batch() {
        for interleave in [false, true] {
            let c = two_user_comp(interleave);
            let s = c.structure();
            let (start, end) = (s.class("Start").unwrap(), s.class("End").unwrap());
            let u2 = s.element("U2").unwrap();
            // Every request starts: holds. Every request ends at U2: fails
            // for user 1's request, whose thread ends at U1.
            let holding = eventually_serviced(&c, EventSel::of_class(start));
            let failing = eventually_serviced(&c, EventSel::of_class(end).at(u2));
            for (f, expect) in [(holding, true), (failing, false)] {
                assert!(compile(&f).unwrap().is_leaf(), "{f:?}");
                let leaf = crate::holds_on_computation(&f, &c).unwrap();
                assert_eq!(leaf, expect, "interleave={interleave}");
                for strategy in [
                    crate::Strategy::Linearizations { limit: 100_000 },
                    crate::Strategy::StepSequences { limit: 100_000 },
                ] {
                    let batch = crate::check(&f, &c, strategy).unwrap();
                    assert_eq!(batch.holds, leaf, "interleave={interleave} {strategy:?}");
                }
            }
        }
    }

    #[test]
    fn history_stable_rule_rejections() {
        use FallbackReason::{
            TemporalShape, ThreadInstanceSel, TimeDependentAtom, UnboundVariable,
        };
        let all = |v: &str, f: Formula| Formula::forall(v, EventSel::any(), f);
        let all2 = |f: Formula| all("a", all("b", f));
        let occ = || Formula::occurred("e");
        let tag = gem_core::ThreadTag::new(ThreadTypeId::from_raw(0), 0);
        let cases = [
            // ◻ beside ◇, and a ◇ inside a ◇.
            (all("e", occ().eventually()).henceforth(), TemporalShape),
            (all("e", occ().eventually().eventually()), TemporalShape),
            // Occurrence and order atoms in negative position under ◇.
            (all("e", occ().not().eventually()), TemporalShape),
            (
                all2(Formula::precedes("a", "b").not().eventually()),
                TemporalShape,
            ),
            (
                all2(Formula::enables("a", "b").not().eventually()),
                TemporalShape,
            ),
            (
                all2(Formula::element_precedes("a", "b").not().eventually()),
                TemporalShape,
            ),
            (
                all2(Formula::concurrent("a", "b").not().eventually()),
                TemporalShape,
            ),
            (
                all("e", occ().implies(Formula::False).eventually()),
                TemporalShape,
            ),
            // Both polarities: ⟺, and ∃!/at-most-one over a
            // history-dependent body.
            (
                all("e", occ().iff(Formula::False).eventually()),
                TemporalShape,
            ),
            (
                Formula::exists_unique("e", EventSel::any(), occ()).eventually(),
                TemporalShape,
            ),
            (
                Formula::at_most_one("e", EventSel::any(), occ()).eventually(),
                TemporalShape,
            ),
            // Atoms that are not upward-closed.
            (
                all("e", Formula::is_new("e").eventually()),
                TimeDependentAtom,
            ),
            (
                all("e", Formula::potential("e").eventually()),
                TimeDependentAtom,
            ),
            (
                all("e", Formula::at_control("e", EventSel::any()).eventually()),
                TimeDependentAtom,
            ),
            // A history-dependent atom outside the ◇s.
            (all("e", occ().implies(occ().eventually())), TemporalShape),
            (
                all2(Formula::enables("a", "b").and(Formula::occurred("b").eventually())),
                TemporalShape,
            ),
            // The leaf checks still apply.
            (Formula::occurred("ghost").eventually(), UnboundVariable),
            (
                Formula::forall("e", EventSel::any().in_thread(tag), occ().eventually()),
                ThreadInstanceSel,
            ),
        ];
        for (f, reason) in cases {
            assert_eq!(compile(&f).err(), Some(reason), "{f:?}");
        }
        // What the rule allows: history-independent atoms in either
        // polarity on both sides of ◇, ∃! over a history-independent
        // body, and a ◇ in negative position.
        let accepted = [
            all2(
                Formula::event_eq("a", "b").not().implies(
                    Formula::occurred("a")
                        .and(Formula::event_eq("a", "b").not())
                        .eventually(),
                ),
            ),
            Formula::exists_unique("e", EventSel::any(), Formula::event_eq("e", "e"))
                .and(Formula::True)
                .eventually(),
            all2(
                Formula::precedes("a", "b")
                    .or(Formula::concurrent("a", "b"))
                    .eventually()
                    .not(),
            ),
            all(
                "e",
                Formula::exists("f", EventSel::any(), Formula::enables("e", "f")).eventually(),
            ),
        ];
        for f in accepted {
            assert!(compile(&f).unwrap().is_leaf(), "{f:?}");
        }
    }

    #[test]
    fn outer_occurrence_is_vacuous_in_batch_but_not_at_the_full_history() {
        // One request with no start. `∀r (occurred(r) ⊃ ◇∃s …)` is read at
        // the empty first history of every sequence, so batch finds it
        // vacuously true; the full history would judge the ◇ and fail it.
        // That disagreement is why the rule rejects it.
        use gem_core::ThreadTag;
        let mut s = Structure::new();
        let req = s.add_class("Req", &[]).unwrap();
        let start = s.add_class("Start", &[]).unwrap();
        let u = s.add_element("U", &[req, start]).unwrap();
        let mut b = ComputationBuilder::new(s);
        let r = b.add_event(u, req, vec![]).unwrap();
        b.tag_thread(r, ThreadTag::new(ThreadTypeId::from_raw(0), 0))
            .unwrap();
        let c = b.seal().unwrap();
        let Formula::ForAll(v, sel, body) = eventually_serviced(&c, EventSel::of_class(start))
        else {
            unreachable!("a ∀ prefix");
        };
        let f = Formula::forall(v.clone(), sel, Formula::occurred(v.as_str()).implies(*body));
        assert_eq!(compile(&f).err(), Some(FallbackReason::TemporalShape));
        let batch =
            crate::check(&f, &c, crate::Strategy::Linearizations { limit: 100_000 }).unwrap();
        assert!(batch.holds);
        assert!(!crate::holds_on_computation(&f, &c).unwrap());
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

    /// The settle rule of `f`, a leaf restriction of one conjunct.
    fn rule(f: &Formula) -> Settle {
        let Ok(Compiled::Leaf(plan)) = compile(f) else {
            panic!("a leaf restriction: {f:?}");
        };
        assert_eq!(plan.conjuncts().len(), 1, "{f:?}");
        plan.conjuncts()[0].settle().clone()
    }

    /// Judges `f`'s single conjunct on every prefix of `c` (a
    /// computation whose edges point forward in id order, as simulation
    /// grows them), returning whether every judgement held and how many
    /// evaluator calls were made.
    fn settle_along(f: &Formula, c: &Computation) -> (bool, u64) {
        let Ok(Compiled::Leaf(plan)) = compile(f) else {
            panic!("a leaf restriction");
        };
        let conjunct = &plan.conjuncts()[0];
        let (mut holds, mut judged) = (true, 0);
        for n in 1..=c.event_count() {
            let prefix = prefix_of(c, n);
            holds &= conjunct.judge_event(&prefix, n - 1, &mut judged) == Ok(true);
        }
        (holds, judged)
    }

    /// The computation of the first `n` events of `c` and the edges among
    /// them.
    fn prefix_of(c: &Computation, n: usize) -> Computation {
        let mut b = ComputationBuilder::new(c.structure_arc());
        for e in &c.events()[..n] {
            let id = b
                .add_event(e.element(), e.class(), e.params().to_vec())
                .unwrap();
            for t in e.threads() {
                b.tag_thread(id, *t).unwrap();
            }
        }
        for from in (0..n).map(|i| EventId::from_raw(i as u32)) {
            for &to in c.enabled_from(from) {
                if to.index() < n {
                    b.enable(from, to).unwrap();
                }
            }
        }
        b.seal().unwrap()
    }

    #[test]
    fn leaf_plans_pick_the_settle_rule_of_each_shape() {
        let c = two_user_comp(true);
        let s = c.structure();
        let (req, start, end) = (
            s.class("Req").unwrap(),
            s.class("Start").unwrap(),
            s.class("End").unwrap(),
        );
        let (u1, u2) = (s.element("U1").unwrap(), s.element("U2").unwrap());
        let ty = ThreadTypeId::from_raw(0);
        let nth = |el, k| EventTerm::NthAt(el, k);
        // (a) A ground conjunct needs the highest position per element.
        let ground = Formula::occurred(nth(u1, 2))
            .implies(Formula::precedes(nth(u1, 0), nth(u1, 2)).and(Formula::occurred(nth(u2, 1))));
        assert_eq!(rule(&ground), Settle::Ground(vec![(u1, 2), (u2, 1)]));
        // (b) The ∃! half of a prerequisite, and a ∃ guarded after a
        // parameter-free conjunct with a nested guarded ¬∃.
        let each_enabled = Formula::forall(
            "t",
            EventSel::of_class(start),
            Formula::occurred("t").implies(Formula::exists_unique(
                "s",
                EventSel::of_class(req),
                Formula::enables("s", "t"),
            )),
        );
        assert_eq!(rule(&each_enabled), Settle::PerBinding(1));
        let latest = Formula::forall(
            "e",
            EventSel::of_class(end),
            Formula::exists(
                "s",
                EventSel::any(),
                Formula::matches("s", EventSel::of_class(start))
                    .and(Formula::precedes("s", "e"))
                    .and(
                        Formula::exists(
                            "r",
                            EventSel::any(),
                            Formula::precedes("r", "e").and(Formula::precedes("s", "r")),
                        )
                        .not(),
                    ),
            ),
        );
        assert_eq!(rule(&latest), Settle::PerBinding(1));
        // (c) Two variables, quantifier-free.
        let isolated = Formula::forall(
            "a",
            EventSel::of_class(start),
            Formula::forall(
                "b",
                EventSel::of_class(end),
                Formula::same_thread("a", "b", ty)
                    .not()
                    .implies(Formula::concurrent("a", "b").not()),
            ),
        );
        assert_eq!(rule(&isolated), Settle::PerBinding(2));
        // (d) The at-most-one half of a prerequisite.
        let at_most_one = Formula::forall(
            "s",
            EventSel::of_class(req),
            Formula::at_most_one("t", EventSel::of_class(start), Formula::enables("s", "t")),
        );
        assert_eq!(rule(&at_most_one), Settle::PerEnabler);
        // A restriction splits at every top-level ∧, nested ones too.
        let Ok(Compiled::Leaf(plan)) = compile(&Formula::And(vec![
            each_enabled.clone().and(at_most_one),
            ground,
        ])) else {
            panic!("a leaf restriction");
        };
        let rules: Vec<_> = plan
            .conjuncts()
            .iter()
            .map(|c| c.settle().clone())
            .collect();
        assert_eq!(
            rules,
            [
                Settle::PerBinding(1),
                Settle::PerEnabler,
                Settle::Ground(vec![(u1, 2), (u2, 1)])
            ]
        );
        // Every settled value equals the full-history evaluation.
        for interleave in [false, true] {
            let c = two_user_comp(interleave);
            for f in [
                &each_enabled,
                &latest,
                &isolated,
                &plan.conjuncts()[1].formula,
            ] {
                let (settled, judged) = settle_along(f, &c);
                assert!(judged > 0, "{f:?}");
                assert_eq!(settled, holds_on_computation(f, &c) == Ok(true), "{f:?}");
            }
        }
    }

    #[test]
    fn an_at_most_one_is_rejudged_for_every_enabler_of_a_target() {
        // `a1` enables both `Act` events, but at the second one's arrival
        // it is the second of two enablers: only re-judging every enabler
        // sees the violation.
        let mut s = Structure::new();
        let (src, act) = (
            s.add_class("Src", &[]).unwrap(),
            s.add_class("Act", &[]).unwrap(),
        );
        let p = s.add_element("P", &[src, act]).unwrap();
        let mut b = ComputationBuilder::new(s);
        let a0 = b.add_event(p, src, vec![]).unwrap();
        let a1 = b.add_event(p, src, vec![]).unwrap();
        let t1 = b.add_event(p, act, vec![]).unwrap();
        b.enable(a1, t1).unwrap();
        let t2 = b.add_event(p, act, vec![]).unwrap();
        b.enable(a0, t2).unwrap();
        b.enable(a1, t2).unwrap();
        let c = b.seal().unwrap();
        let f = Formula::forall(
            "s",
            EventSel::of_class(src),
            Formula::at_most_one("t", EventSel::of_class(act), Formula::enables("s", "t")),
        );
        assert_eq!(rule(&f), Settle::PerEnabler);
        assert_eq!(holds_on_computation(&f, &c), Ok(false));
        assert_eq!(settle_along(&f, &c), (false, 3));
    }

    #[test]
    fn shapes_that_must_stay_at_the_leaf() {
        let all = |v: &str, f: Formula| Formula::forall(v, EventSel::any(), f);
        let some = |v: &str, f: Formula| Formula::exists(v, EventSel::any(), f);
        let el = ElementId::from_raw(0);
        let cases = [
            // A future-anchored ∃: y arrives after x.
            all("x", some("y", Formula::enables("x", "y"))),
            // No guard at all, and a guard on the wrong side.
            all("x", some("y", Formula::concurrent("y", "x"))),
            all("x", some("y", Formula::precedes("x", "y"))),
            // A ∀ below the prefix whose antecedent is not a guard.
            all(
                "x",
                Formula::occurred("x")
                    .implies(all("y", Formula::occurred("y").implies(Formula::True))),
            ),
            // A parameter read ahead of the guard could fail for a later y.
            all(
                "x",
                some(
                    "y",
                    Formula::value_eq(ValueTerm::param("y", 0usize), ValueTerm::lit(1i64))
                        .and(Formula::enables("y", "x")),
                ),
            ),
            // ◇ bodies.
            all("x", some("y", Formula::enables("y", "x")).eventually()),
            Formula::occurred(EventTerm::NthAt(el, 0)).eventually(),
            // Atoms whose value moves with later events.
            all("x", Formula::is_new("x").or(Formula::True)),
            all("x", Formula::at_control("x", EventSel::any())),
            // An EL^k term under a ∀ prefix.
            all("x", Formula::precedes(EventTerm::NthAt(el, 0), "x")),
            // Nothing to wait for.
            Formula::False.not(),
        ];
        for f in cases {
            assert_eq!(rule(&f), Settle::AtLeaf, "{f:?}");
        }
        // An `EL^k` that never resolves leaves its ground conjunct to the
        // leaf: nothing is judged along the way and it never settles.
        let c = two_user_comp(false);
        let u1 = c.structure().element("U1").unwrap();
        let f = Formula::occurred(EventTerm::NthAt(u1, 5))
            .not()
            .or(Formula::precedes(
                EventTerm::NthAt(u1, 0),
                EventTerm::NthAt(u1, 5),
            ));
        assert_eq!(rule(&f), Settle::Ground(vec![(u1, 5)]));
        assert_eq!(settle_along(&f, &c), (true, 0));
        let Ok(Compiled::Leaf(plan)) = compile(&f) else {
            panic!("a leaf restriction");
        };
        assert!(!plan.conjuncts()[0].settled(&c));
        assert_eq!(plan.unsettled(&c).count(), 1);
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
