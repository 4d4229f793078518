//! Evaluation of restriction formulae over computations, histories, and
//! history sequences.
//!
//! Semantics follow §7/§8 of the paper:
//!
//! * An *immediate assertion* is evaluated on a single history; a formula
//!   asserted of a history sequence holds iff it holds of the first
//!   history ( `S ⊨ ρ ⇔ α₀ ⊨ ρ` ).
//! * `◻ ρ` holds of `S` iff `ρ` holds of every tail of `S`; `◇ ρ` iff it
//!   holds of some tail.
//! * Quantified variables range over all events of the computation (the
//!   predicates `occurred`, `potential` etc. distinguish what has
//!   happened in the current history).
//!
//! There is one evaluator. It reads the computation through the [`World`]
//! trait and the current history through [`Occurred`], so the same code
//! decides a restriction on a sealed [`Computation`] and on the
//! incremental checker's projection of a computation still being built.

use std::fmt;

use gem_core::{ClassId, Computation, ElementId, EventId, History, Structure, ThreadTypeId, Value};

use crate::{Atom, EventSel, EventTerm, Formula, ParamRef, ValueTerm};

/// A computation as the evaluator reads it. Implemented for a sealed
/// [`Computation`] and by the verification driver over its
/// prefix-synchronised projection state.
///
/// Events are addressed by dense indices in emission order. For a world
/// still being built, all order queries must be final for
/// already-emitted pairs (true for simulation-grown computations, where
/// every edge targets the newest event).
pub trait World {
    /// Number of events emitted so far.
    fn event_count(&self) -> usize;
    /// Element of event `e`.
    fn element_of(&self, e: usize) -> ElementId;
    /// Class of event `e`.
    fn class_of(&self, e: usize) -> ClassId;
    /// Occurrence number of `e` at its element.
    fn seq_of(&self, e: usize) -> u32;
    /// Parameters of event `e`.
    fn params_of(&self, e: usize) -> &[Value];
    /// The instance of the thread tag of type `ty` on `e`, if any. Equal
    /// instances mean the same thread; a world that renumbers instances
    /// must keep that equality (and have at most one tag per type).
    fn thread_instance(&self, e: usize, ty: ThreadTypeId) -> Option<u32>;
    /// True if `sel` matches event `e`.
    fn matches(&self, sel: &EventSel, e: usize) -> bool;
    /// Temporal order `a ⇒ b`.
    fn precedes(&self, a: usize, b: usize) -> bool;
    /// Direct enable edge `a ⊳ b`.
    fn enables(&self, a: usize, b: usize) -> bool;
    /// Events directly enabled by `e`.
    fn enabled_from(&self, e: usize) -> impl Iterator<Item = usize> + '_;
    /// The `i`-th event at `element`, if emitted.
    fn nth_at(&self, element: ElementId, i: usize) -> Option<usize>;
    /// The structure declaring the classes (for named parameters).
    fn structure(&self) -> &Structure;
    /// True if some event of `history` follows `e`.
    fn followed_in(&self, e: usize, history: &impl Occurred) -> bool {
        (0..self.event_count()).any(|s| history.occurred(s) && self.precedes(e, s))
    }
    /// True if every event preceding `e` is in `history`.
    fn preceded_within(&self, e: usize, history: &impl Occurred) -> bool {
        (0..self.event_count()).all(|p| !self.precedes(p, e) || history.occurred(p))
    }
}

/// The events of the history an atom is read at.
pub trait Occurred {
    /// True if event `e` has occurred.
    fn occurred(&self, e: usize) -> bool;
}

impl Occurred for History {
    fn occurred(&self, e: usize) -> bool {
        self.contains(event_id(e))
    }
}

/// The complete history of a world: every emitted event has occurred.
#[derive(Clone, Copy, Debug)]
pub struct FullHistory;

impl Occurred for FullHistory {
    fn occurred(&self, _: usize) -> bool {
        true
    }
}

pub(crate) fn event_id(e: usize) -> EventId {
    EventId::from_raw(e as u32)
}

/// A sealed computation: order queries read its closure, so `new` and
/// `potential` walk the successor and predecessor bitsets.
impl World for Computation {
    fn event_count(&self) -> usize {
        Computation::event_count(self)
    }
    fn element_of(&self, e: usize) -> ElementId {
        self.events()[e].element()
    }
    fn class_of(&self, e: usize) -> ClassId {
        self.events()[e].class()
    }
    fn seq_of(&self, e: usize) -> u32 {
        self.events()[e].seq()
    }
    fn params_of(&self, e: usize) -> &[Value] {
        self.events()[e].params()
    }
    fn thread_instance(&self, e: usize, ty: ThreadTypeId) -> Option<u32> {
        self.events()[e].thread_of_type(ty).map(|t| t.instance())
    }
    fn matches(&self, sel: &EventSel, e: usize) -> bool {
        sel.matches(&self.events()[e])
    }
    fn precedes(&self, a: usize, b: usize) -> bool {
        self.temporally_precedes(event_id(a), event_id(b))
    }
    fn enables(&self, a: usize, b: usize) -> bool {
        Computation::enables(self, event_id(a), event_id(b))
    }
    fn enabled_from(&self, e: usize) -> impl Iterator<Item = usize> + '_ {
        Computation::enabled_from(self, event_id(e))
            .iter()
            .map(|s| s.index())
    }
    fn nth_at(&self, element: ElementId, i: usize) -> Option<usize> {
        Computation::nth_at(self, element, i).map(EventId::index)
    }
    fn structure(&self) -> &Structure {
        Computation::structure(self)
    }
    fn followed_in(&self, e: usize, history: &impl Occurred) -> bool {
        self.closure()
            .successors(event_id(e))
            .iter()
            .any(|s| history.occurred(s))
    }
    fn preceded_within(&self, e: usize, history: &impl Occurred) -> bool {
        self.closure()
            .predecessors(event_id(e))
            .iter()
            .all(|p| history.occurred(p))
    }
}

/// Errors raised during evaluation (programming errors in the formula, not
/// properties of the computation).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// A variable was used without an enclosing quantifier binding it.
    UnboundVariable(String),
    /// A named parameter is not declared by the event's class.
    UnknownParam {
        /// The parameter name used.
        name: String,
        /// The class the event belongs to (by name).
        class: String,
    },
    /// A positional parameter index exceeds the event's parameter list.
    ParamOutOfRange {
        /// The index used.
        index: usize,
        /// Number of parameters the event carries.
        arity: usize,
    },
    /// A formula was evaluated against an empty history sequence.
    EmptySequence,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound event variable {v:?}"),
            EvalError::UnknownParam { name, class } => {
                write!(f, "parameter {name:?} is not declared by class {class:?}")
            }
            EvalError::ParamOutOfRange { index, arity } => {
                write!(f, "parameter index {index} out of range (arity {arity})")
            }
            EvalError::EmptySequence => write!(f, "cannot evaluate over an empty sequence"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Variable bindings, innermost last; names borrow from the formula.
#[derive(Debug, Default)]
pub(crate) struct Env<'f> {
    pub(crate) bindings: Vec<(&'f str, usize)>,
    /// Formula nodes visited, for the `logic.eval.nodes` counter.
    pub(crate) nodes: u64,
}

impl Env<'_> {
    fn lookup(&self, name: &str) -> Option<usize> {
        self.bindings
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, e)| e)
    }
}

/// True if `formula` holds of the history sequence `seq` (interpreted as a
/// valid history sequence of `computation`).
///
/// # Errors
///
/// Returns [`EvalError`] for malformed formulae (unbound variables, bad
/// parameter references) or an empty `seq`.
pub fn holds_on_sequence(
    formula: &Formula,
    computation: &Computation,
    seq: &[History],
) -> Result<bool, EvalError> {
    holds_on(formula, computation, seq, &mut 0)
}

/// True if `formula` holds of the single history `history` (as the
/// one-element sequence; `◻ρ`/`◇ρ` degenerate to `ρ`).
///
/// # Errors
///
/// Returns [`EvalError`] for malformed formulae.
pub fn holds_on_history(
    formula: &Formula,
    computation: &Computation,
    history: &History,
) -> Result<bool, EvalError> {
    holds_on(formula, computation, std::slice::from_ref(history), &mut 0)
}

/// True if `formula` holds of the *complete* computation `world` —
/// evaluation on its full history, where every event has occurred. This
/// is the interpretation of computation-level (non-temporal)
/// restrictions.
///
/// # Errors
///
/// Returns [`EvalError`] for malformed formulae.
pub fn holds_on_computation(formula: &Formula, world: &impl World) -> Result<bool, EvalError> {
    holds_on(formula, world, &[FullHistory], &mut 0)
}

/// Evaluates `formula` on `seq`, adding the formula nodes visited to
/// `nodes`.
pub(crate) fn holds_on(
    formula: &Formula,
    world: &impl World,
    seq: &[impl Occurred],
    nodes: &mut u64,
) -> Result<bool, EvalError> {
    if seq.is_empty() {
        return Err(EvalError::EmptySequence);
    }
    let mut env = Env::default();
    let result = eval(formula, world, seq, &mut env);
    *nodes += env.nodes;
    result
}

fn resolve(term: &EventTerm, world: &impl World, env: &Env) -> Result<Option<usize>, EvalError> {
    match term {
        EventTerm::Var(name) => env
            .lookup(name)
            .map(Some)
            .ok_or_else(|| EvalError::UnboundVariable(name.clone())),
        EventTerm::Fixed(id) => Ok((id.index() < world.event_count()).then_some(id.index())),
        EventTerm::NthAt(el, i) => Ok(world.nth_at(*el, *i)),
    }
}

/// The parameter `p` of event `e`.
///
/// # Errors
///
/// [`EvalError::UnknownParam`] / [`EvalError::ParamOutOfRange`] when the
/// event's class does not declare it.
pub(crate) fn param_value(world: &impl World, e: usize, p: &ParamRef) -> Result<Value, EvalError> {
    let index = match p {
        ParamRef::Index(i) => *i,
        ParamRef::Named(name) => {
            let info = world.structure().class_info(world.class_of(e));
            info.param_index(name)
                .ok_or_else(|| EvalError::UnknownParam {
                    name: name.clone(),
                    class: info.name().to_owned(),
                })?
        }
    };
    let params = world.params_of(e);
    params
        .get(index)
        .cloned()
        .ok_or(EvalError::ParamOutOfRange {
            index,
            arity: params.len(),
        })
}

fn resolve_value(
    term: &ValueTerm,
    world: &impl World,
    env: &Env,
) -> Result<Option<Value>, EvalError> {
    match term {
        ValueTerm::Const(v) => Ok(Some(v.clone())),
        ValueTerm::SeqOf(e) => {
            Ok(resolve(e, world, env)?.map(|id| Value::Int(i64::from(world.seq_of(id)))))
        }
        ValueTerm::Param(e, p) => match resolve(e, world, env)? {
            Some(id) => param_value(world, id, p).map(Some),
            None => Ok(None),
        },
    }
}

/// Evaluates `formula` on the history sequence `seq` of `world`.
pub(crate) fn eval<'f>(
    formula: &'f Formula,
    world: &impl World,
    seq: &[impl Occurred],
    env: &mut Env<'f>,
) -> Result<bool, EvalError> {
    env.nodes += 1;
    match formula {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Atom(a) => eval_atom(a, world, &seq[0], env),
        Formula::Not(f) => Ok(!eval(f, world, seq, env)?),
        Formula::And(fs) => {
            for f in fs {
                if !eval(f, world, seq, env)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(fs) => {
            for f in fs {
                if eval(f, world, seq, env)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Implies(a, b) => Ok(!eval(a, world, seq, env)? || eval(b, world, seq, env)?),
        Formula::Iff(a, b) => Ok(eval(a, world, seq, env)? == eval(b, world, seq, env)?),
        Formula::ForAll(var, sel, body) => {
            for e in 0..world.event_count() {
                if world.matches(sel, e) && !eval_bound(var, e, body, world, seq, env)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Exists(var, sel, body) => {
            for e in 0..world.event_count() {
                if world.matches(sel, e) && eval_bound(var, e, body, world, seq, env)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::ExistsUnique(var, sel, body) | Formula::AtMostOne(var, sel, body) => {
            let mut count = 0usize;
            for e in 0..world.event_count() {
                if world.matches(sel, e) && eval_bound(var, e, body, world, seq, env)? {
                    count += 1;
                    if count > 1 {
                        return Ok(false);
                    }
                }
            }
            Ok(count == 1 || matches!(formula, Formula::AtMostOne(..)))
        }
        Formula::Henceforth(f) => {
            for i in 0..seq.len() {
                if !eval(f, world, &seq[i..], env)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Eventually(f) => {
            for i in 0..seq.len() {
                if eval(f, world, &seq[i..], env)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
    }
}

/// Evaluates `body` with `var` bound to event `e`.
pub(crate) fn eval_bound<'f>(
    var: &'f str,
    e: usize,
    body: &'f Formula,
    world: &impl World,
    seq: &[impl Occurred],
    env: &mut Env<'f>,
) -> Result<bool, EvalError> {
    env.bindings.push((var, e));
    let ok = eval(body, world, seq, env);
    env.bindings.pop();
    ok
}

fn eval_atom(
    atom: &Atom,
    world: &impl World,
    history: &impl Occurred,
    env: &Env,
) -> Result<bool, EvalError> {
    // Helper: resolve or decide the atom is false.
    macro_rules! ev {
        ($t:expr) => {
            match resolve($t, world, env)? {
                Some(id) => id,
                None => return Ok(false),
            }
        };
    }
    let occurred = |e: usize| history.occurred(e);
    match atom {
        Atom::Occurred(t) => Ok(occurred(ev!(t))),
        Atom::AtElement(t, el) => Ok(world.element_of(ev!(t)) == *el),
        Atom::InClass(t, c) => Ok(world.class_of(ev!(t)) == *c),
        Atom::Matches(t, sel) => Ok(world.matches(sel, ev!(t))),
        Atom::Enables(t1, t2) => {
            let (a, b) = (ev!(t1), ev!(t2));
            Ok(occurred(a) && occurred(b) && world.enables(a, b))
        }
        Atom::ElementPrecedes(t1, t2) => {
            let (a, b) = (ev!(t1), ev!(t2));
            Ok(occurred(a)
                && occurred(b)
                && world.element_of(a) == world.element_of(b)
                && world.seq_of(a) < world.seq_of(b))
        }
        Atom::TemporallyPrecedes(t1, t2) => {
            let (a, b) = (ev!(t1), ev!(t2));
            Ok(occurred(a) && occurred(b) && world.precedes(a, b))
        }
        Atom::Concurrent(t1, t2) => {
            let (a, b) = (ev!(t1), ev!(t2));
            Ok(occurred(a)
                && occurred(b)
                && a != b
                && !world.precedes(a, b)
                && !world.precedes(b, a))
        }
        Atom::EventEq(t1, t2) => Ok(ev!(t1) == ev!(t2)),
        Atom::AtControlPoint(t, sel) => {
            let e = ev!(t);
            Ok(occurred(e)
                && !world
                    .enabled_from(e)
                    .any(|s| occurred(s) && world.matches(sel, s)))
        }
        Atom::New(t) => {
            let e = ev!(t);
            Ok(occurred(e) && !world.followed_in(e, history))
        }
        Atom::Potential(t) => {
            let e = ev!(t);
            Ok(!occurred(e) && world.preceded_within(e, history))
        }
        Atom::SameThread(t1, t2, ty) | Atom::DistinctThreads(t1, t2, ty) => {
            let (a, b) = (ev!(t1), ev!(t2));
            let same = matches!(atom, Atom::SameThread(..));
            Ok(
                match (world.thread_instance(a, *ty), world.thread_instance(b, *ty)) {
                    (Some(x), Some(y)) => (x == y) == same,
                    _ => false,
                },
            )
        }
        Atom::ValueCmp(op, v1, v2) => {
            let (Some(a), Some(b)) = (
                resolve_value(v1, world, env)?,
                resolve_value(v2, world, env)?,
            ) else {
                return Ok(false);
            };
            Ok(op.apply(&a, &b))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventSel;
    use gem_core::{ComputationBuilder, HistorySequence, Structure, Value};

    /// Variable computation: Assign(1), Getval(1), Assign(2).
    fn var_comp() -> (Computation, Vec<EventId>) {
        let mut s = Structure::new();
        let assign = s.add_class("Assign", &["newval"]).unwrap();
        let getval = s.add_class("Getval", &["oldval"]).unwrap();
        let var = s.add_element("Var", &[assign, getval]).unwrap();
        let mut b = ComputationBuilder::new(s);
        let e1 = b.add_event(var, assign, vec![Value::Int(1)]).unwrap();
        let e2 = b.add_event(var, getval, vec![Value::Int(1)]).unwrap();
        let e3 = b.add_event(var, assign, vec![Value::Int(2)]).unwrap();
        b.enable(e1, e2).unwrap();
        (b.seal().unwrap(), vec![e1, e2, e3])
    }

    #[test]
    fn atoms_on_complete_computation() {
        let (c, e) = var_comp();
        assert!(holds_on_computation(&Formula::occurred(e[0]), &c).unwrap());
        assert!(holds_on_computation(&Formula::enables(e[0], e[1]), &c).unwrap());
        assert!(!holds_on_computation(&Formula::enables(e[1], e[2]), &c).unwrap());
        assert!(holds_on_computation(&Formula::element_precedes(e[1], e[2]), &c).unwrap());
        assert!(holds_on_computation(&Formula::precedes(e[0], e[2]), &c).unwrap());
        assert!(!holds_on_computation(&Formula::concurrent(e[0], e[2]), &c).unwrap());
        assert!(holds_on_computation(&Formula::event_eq(e[0], e[0]), &c).unwrap());
        assert!(!holds_on_computation(&Formula::event_eq(e[0], e[1]), &c).unwrap());
    }

    #[test]
    fn occurred_is_history_relative() {
        let (c, e) = var_comp();
        let h = History::from_events(&c, [e[0]]).unwrap();
        assert!(holds_on_history(&Formula::occurred(e[0]), &c, &h).unwrap());
        assert!(!holds_on_history(&Formula::occurred(e[1]), &c, &h).unwrap());
    }

    #[test]
    fn potential_and_new() {
        let (c, e) = var_comp();
        let h = History::from_events(&c, [e[0]]).unwrap();
        assert!(holds_on_history(&Formula::potential(e[1]), &c, &h).unwrap());
        assert!(
            !holds_on_history(&Formula::potential(e[0]), &c, &h).unwrap(),
            "occurred event is not potential"
        );
        assert!(holds_on_history(&Formula::is_new(e[0]), &c, &h).unwrap());
        let h2 = History::from_events(&c, [e[0], e[1]]).unwrap();
        assert!(!holds_on_history(&Formula::is_new(e[0]), &c, &h2).unwrap());
        assert!(holds_on_history(&Formula::is_new(e[1]), &c, &h2).unwrap());
    }

    #[test]
    fn at_control_point_is_history_relative() {
        let (c, e) = var_comp();
        let getval_sel = EventSel::of_class(c.structure().class("Getval").unwrap());
        // In the history containing only e1, e1 is still "at Getval".
        let h1 = History::from_events(&c, [e[0]]).unwrap();
        assert!(holds_on_history(&Formula::at_control(e[0], getval_sel.clone()), &c, &h1).unwrap());
        // Once e2 occurred, e1 has enabled a Getval.
        let h2 = History::from_events(&c, [e[0], e[1]]).unwrap();
        assert!(!holds_on_history(&Formula::at_control(e[0], getval_sel), &c, &h2).unwrap());
    }

    #[test]
    fn variable_semantics_restriction() {
        // Getval must yield the value last assigned — holds for our data.
        let (c, _) = var_comp();
        let s = c.structure();
        let assign = s.class("Assign").unwrap();
        let getval = s.class("Getval").unwrap();
        let f = Formula::forall(
            "a",
            EventSel::of_class(assign),
            Formula::forall(
                "g",
                EventSel::of_class(getval),
                Formula::enables("a", "g").implies(Formula::value_eq(
                    ValueTerm::param("a", "newval"),
                    ValueTerm::param("g", "oldval"),
                )),
            ),
        );
        assert!(holds_on_computation(&f, &c).unwrap());
    }

    #[test]
    fn quantifier_semantics() {
        let (c, _) = var_comp();
        let s = c.structure();
        let assign = s.class("Assign").unwrap();
        let getval = s.class("Getval").unwrap();
        // Exactly one Getval event.
        assert!(holds_on_computation(
            &Formula::exists_unique("g", EventSel::of_class(getval), Formula::occurred("g")),
            &c
        )
        .unwrap());
        // Not exactly one Assign event (there are two).
        assert!(!holds_on_computation(
            &Formula::exists_unique("a", EventSel::of_class(assign), Formula::occurred("a")),
            &c
        )
        .unwrap());
        // At most one Getval: true; at most one Assign: false.
        assert!(holds_on_computation(
            &Formula::at_most_one("g", EventSel::of_class(getval), Formula::occurred("g")),
            &c
        )
        .unwrap());
        assert!(!holds_on_computation(
            &Formula::at_most_one("a", EventSel::of_class(assign), Formula::occurred("a")),
            &c
        )
        .unwrap());
    }

    #[test]
    fn temporal_operators_on_sequences() {
        let (c, e) = var_comp();
        let seq = HistorySequence::from_linearization(&c, &[e[0], e[1], e[2]]);
        // Eventually all three occurred.
        let all = Formula::occurred(e[0])
            .and(Formula::occurred(e[1]))
            .and(Formula::occurred(e[2]));
        assert!(holds_on_sequence(&all.clone().eventually(), &c, seq.histories()).unwrap());
        assert!(!holds_on_sequence(&all.clone().henceforth(), &c, seq.histories()).unwrap());
        // Henceforth: once e1 occurred it stays occurred (monotonicity).
        let stable = Formula::occurred(e[0])
            .implies(Formula::occurred(e[0]).henceforth())
            .henceforth();
        assert!(holds_on_sequence(&stable, &c, seq.histories()).unwrap());
        // ◻(occurred(e3) ⊃ occurred(e1)): e1 (same element) precedes e3.
        let prec = Formula::occurred(e[2])
            .implies(Formula::occurred(e[0]))
            .henceforth();
        assert!(holds_on_sequence(&prec, &c, seq.histories()).unwrap());
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let (c, _) = var_comp();
        let err = holds_on_computation(&Formula::occurred("ghost"), &c).unwrap_err();
        assert!(matches!(err, EvalError::UnboundVariable(_)));
    }

    #[test]
    fn unknown_param_is_an_error() {
        let (c, e) = var_comp();
        let f = Formula::value_eq(ValueTerm::param(e[0], "missing"), ValueTerm::lit(1i64));
        assert!(matches!(
            holds_on_computation(&f, &c),
            Err(EvalError::UnknownParam { .. })
        ));
    }

    #[test]
    fn out_of_range_param_is_an_error() {
        let (c, e) = var_comp();
        let f = Formula::value_eq(ValueTerm::param(e[0], 5usize), ValueTerm::lit(1i64));
        assert!(matches!(
            holds_on_computation(&f, &c),
            Err(EvalError::ParamOutOfRange { .. })
        ));
    }

    #[test]
    fn empty_sequence_is_an_error() {
        let (c, _) = var_comp();
        assert!(matches!(
            holds_on_sequence(&Formula::True, &c, &[]),
            Err(EvalError::EmptySequence)
        ));
    }

    #[test]
    fn nth_at_term_resolution() {
        let (c, e) = var_comp();
        let var = c.structure().element("Var").unwrap();
        // Var^0 is e1; Var^5 does not exist → atom false, not an error.
        assert!(
            holds_on_computation(&Formula::event_eq(EventTerm::NthAt(var, 0), e[0]), &c).unwrap()
        );
        assert!(!holds_on_computation(&Formula::occurred(EventTerm::NthAt(var, 5)), &c).unwrap());
    }

    #[test]
    fn seq_of_value_term() {
        let (c, e) = var_comp();
        let f = Formula::value_eq(
            ValueTerm::SeqOf(EventTerm::Fixed(e[2])),
            ValueTerm::lit(2i64),
        );
        assert!(holds_on_computation(&f, &c).unwrap());
    }

    #[test]
    fn thread_atoms() {
        use gem_core::{ThreadTag, ThreadTypeId};
        let mut s = Structure::new();
        let a = s.add_class("A", &[]).unwrap();
        let p = s.add_element("P", &[a]).unwrap();
        let mut b = ComputationBuilder::new(s);
        let e1 = b.add_event(p, a, vec![]).unwrap();
        let e2 = b.add_event(p, a, vec![]).unwrap();
        let e3 = b.add_event(p, a, vec![]).unwrap();
        let ty = ThreadTypeId::from_raw(0);
        b.tag_thread(e1, ThreadTag::new(ty, 0)).unwrap();
        b.tag_thread(e2, ThreadTag::new(ty, 0)).unwrap();
        b.tag_thread(e3, ThreadTag::new(ty, 1)).unwrap();
        let c = b.seal().unwrap();
        assert!(holds_on_computation(&Formula::same_thread(e1, e2, ty), &c).unwrap());
        assert!(!holds_on_computation(&Formula::same_thread(e1, e3, ty), &c).unwrap());
        assert!(holds_on_computation(&Formula::distinct_threads(e1, e3, ty), &c).unwrap());
        assert!(!holds_on_computation(&Formula::distinct_threads(e1, e2, ty), &c).unwrap());
    }
}
