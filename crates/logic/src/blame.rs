//! Formula blame: *why* did a restriction fail on this sequence?
//!
//! [`check`](crate::check) reports that some valid history sequence
//! falsifies a restriction, but the formula is a tree of quantifiers and
//! connectives — the user still has to re-derive which subformula, which
//! binding, and which events broke it. [`blame_on_sequence`] re-runs the
//! evaluator along the *falsifying path* only: at each node it records a
//! [`BlameFrame`] naming the subformula, what it was expected to be, and
//! the witness binding that decided the outcome (the failing `FORALL`
//! candidate, the failing conjunct index, the suffix where a `◻` broke).
//! The chain from root to leaf is the machine-readable core of a
//! counterexample artifact's `blame.json`, and the collected witness
//! events drive blamed-event highlighting in the dot export.

use gem_core::{Computation, EventId, History};

use crate::eval::{eval, eval_bound, event_id, Env, EvalError};
use crate::Formula;

/// One step of the falsification path, from the root restriction down to
/// the deciding atom.
#[derive(Clone, Debug)]
pub struct BlameFrame {
    /// Node kind (`forall`, `and`, `henceforth`, `atom`, …).
    pub kind: &'static str,
    /// The subformula at this node, rendered against the structure
    /// (truncated if very large).
    pub node: String,
    /// The truth value this node was required to have on the blamed path.
    pub expect: bool,
    /// Why the node misses its expectation: which conjunct, which
    /// candidate, which suffix.
    pub note: String,
    /// Bindings introduced or implicated at this node, as
    /// `(variable, event)` pairs.
    pub witnesses: Vec<(String, EventId)>,
}

/// The falsification path of one restriction on one history sequence.
#[derive(Clone, Debug)]
pub struct Blame {
    /// Frames from the root formula down to the deciding leaf.
    pub frames: Vec<BlameFrame>,
}

impl Blame {
    /// All witness events implicated anywhere on the path, deduplicated
    /// in first-seen order — the set to highlight in a counterexample
    /// rendering.
    pub fn witness_events(&self) -> Vec<EventId> {
        let mut out = Vec::new();
        for frame in &self.frames {
            for &(_, e) in &frame.witnesses {
                if !out.contains(&e) {
                    out.push(e);
                }
            }
        }
        out
    }
}

/// Truncation bound for rendered subformulae in frames: blame output is
/// for humans and diffs, not a parser.
const NODE_RENDER_MAX: usize = 240;

fn rendered(f: &Formula, computation: &Computation) -> String {
    let mut text = f.render(computation.structure());
    if text.chars().count() > NODE_RENDER_MAX {
        let cut: String = text.chars().take(NODE_RENDER_MAX).collect();
        text = format!("{cut}…");
    }
    text
}

/// Explains why `formula` fails on `seq`: `Ok(None)` when it holds,
/// otherwise the root-to-leaf falsification path.
///
/// # Errors
///
/// Propagates [`EvalError`] for malformed formulae or an empty sequence.
pub fn blame_on_sequence(
    formula: &Formula,
    computation: &Computation,
    seq: &[History],
) -> Result<Option<Blame>, EvalError> {
    if seq.is_empty() {
        return Err(EvalError::EmptySequence);
    }
    let mut env = Env::default();
    if eval(formula, computation, seq, &mut env)? {
        return Ok(None);
    }
    let mut frames = Vec::new();
    descend(formula, computation, seq, &mut env, true, &mut frames)?;
    Ok(Some(Blame { frames }))
}

/// Explains why `formula` fails on the complete computation (the full
/// history as a one-element sequence), the reading used for
/// computation-level restrictions.
///
/// # Errors
///
/// Propagates [`EvalError`] for malformed formulae.
pub fn blame_on_computation(
    formula: &Formula,
    computation: &Computation,
) -> Result<Option<Blame>, EvalError> {
    blame_on_sequence(formula, computation, &[History::full(computation)])
}

/// Walks the falsifying path of `formula`, which is known to evaluate to
/// `!expect`, appending one frame per node.
fn descend<'f>(
    formula: &'f Formula,
    computation: &Computation,
    seq: &[History],
    env: &mut Env<'f>,
    expect: bool,
    frames: &mut Vec<BlameFrame>,
) -> Result<(), EvalError> {
    let mut frame = BlameFrame {
        kind: "?",
        node: rendered(formula, computation),
        expect,
        note: String::new(),
        witnesses: Vec::new(),
    };
    macro_rules! leaf {
        ($kind:expr, $note:expr) => {{
            frame.kind = $kind;
            frame.note = $note;
            frames.push(frame);
            return Ok(());
        }};
    }
    let label = |e: EventId| computation.event_label(e);
    match formula {
        Formula::True => leaf!("true", "the literal true (was required false)".into()),
        Formula::False => leaf!("false", "the literal false (was required true)".into()),
        Formula::Atom(_) => {
            // The deciding leaf: record the bindings in scope so the
            // atom's variables are resolvable to concrete events.
            frame.witnesses = env
                .bindings
                .iter()
                .map(|&(v, e)| (v.to_owned(), event_id(e)))
                .collect();
            let bound = if env.bindings.is_empty() {
                String::new()
            } else {
                let pairs: Vec<String> = env
                    .bindings
                    .iter()
                    .map(|&(v, e)| format!("{v} = {}", label(event_id(e))))
                    .collect();
                format!(" under [{}]", pairs.join(", "))
            };
            leaf!(
                "atom",
                format!(
                    "atom evaluates to {}{bound}",
                    if expect { "false" } else { "true" }
                )
            );
        }
        Formula::Not(inner) => {
            frame.kind = "not";
            frame.note = format!(
                "negation: operand must be shown {}",
                if expect { "true" } else { "false" }
            );
            frames.push(frame);
            descend(inner, computation, seq, env, !expect, frames)
        }
        Formula::And(fs) => {
            if expect {
                for (i, f) in fs.iter().enumerate() {
                    if !eval(f, computation, seq, env)? {
                        frame.kind = "and";
                        frame.note = format!("conjunct {}/{} fails", i + 1, fs.len());
                        frames.push(frame);
                        return descend(f, computation, seq, env, true, frames);
                    }
                }
                leaf!(
                    "and",
                    "no failing conjunct found (evaluation raced?)".into()
                );
            }
            leaf!("and", format!("all {} conjuncts hold", fs.len()));
        }
        Formula::Or(fs) => {
            if expect {
                frame.kind = "or";
                frame.note = format!("all {} disjuncts fail; expanding the first", fs.len());
                frames.push(frame);
                match fs.first() {
                    Some(f) => descend(f, computation, seq, env, true, frames),
                    None => Ok(()),
                }
            } else {
                for (i, f) in fs.iter().enumerate() {
                    if eval(f, computation, seq, env)? {
                        frame.kind = "or";
                        frame.note = format!("disjunct {}/{} holds", i + 1, fs.len());
                        frames.push(frame);
                        return descend(f, computation, seq, env, false, frames);
                    }
                }
                leaf!("or", "no holding disjunct found (evaluation raced?)".into());
            }
        }
        Formula::Implies(a, b) => {
            if expect {
                frame.kind = "implies";
                frame.note = "antecedent holds but consequent fails".into();
                frames.push(frame);
                descend(b, computation, seq, env, true, frames)
            } else {
                // The implication holds: either the antecedent fails or
                // the consequent holds.
                if !eval(a, computation, seq, env)? {
                    frame.kind = "implies";
                    frame.note = "holds vacuously: antecedent fails".into();
                    frames.push(frame);
                    descend(a, computation, seq, env, true, frames)
                } else {
                    frame.kind = "implies";
                    frame.note = "holds: consequent holds".into();
                    frames.push(frame);
                    descend(b, computation, seq, env, false, frames)
                }
            }
        }
        Formula::Iff(a, b) => {
            let va = eval(a, computation, seq, env)?;
            let vb = eval(b, computation, seq, env)?;
            if expect {
                frame.kind = "iff";
                frame.note = format!("sides disagree: lhs is {va}, rhs is {vb}");
                frames.push(frame);
                // Expand the false side: showing why it fails pins the
                // disagreement.
                if va {
                    descend(b, computation, seq, env, true, frames)
                } else {
                    descend(a, computation, seq, env, true, frames)
                }
            } else {
                leaf!("iff", format!("sides agree: both are {va}"));
            }
        }
        Formula::ForAll(var, sel, body) => {
            if expect {
                let candidates: Vec<EventId> = sel.select(computation).collect();
                let total = candidates.len();
                for e in candidates {
                    if !eval_bound(var, e.index(), body, computation, seq, env)? {
                        frame.kind = "forall";
                        frame.note =
                            format!("fails for {var} = {} (of {total} candidates)", label(e));
                        frame.witnesses.push((var.clone(), e));
                        frames.push(frame);
                        env.bindings.push((var, e.index()));
                        let result = descend(body, computation, seq, env, true, frames);
                        env.bindings.pop();
                        return result;
                    }
                }
                leaf!(
                    "forall",
                    "no failing candidate found (evaluation raced?)".into()
                );
            }
            let total = sel.select(computation).count();
            leaf!("forall", format!("holds for all {total} candidates"));
        }
        Formula::Exists(var, sel, body) => {
            if expect {
                let total = sel.select(computation).count();
                leaf!("exists", format!("no witness among {total} candidates"));
            }
            let candidates: Vec<EventId> = sel.select(computation).collect();
            for e in candidates {
                if eval_bound(var, e.index(), body, computation, seq, env)? {
                    frame.kind = "exists";
                    frame.note = format!("witness {var} = {}", label(e));
                    frame.witnesses.push((var.clone(), e));
                    frames.push(frame);
                    env.bindings.push((var, e.index()));
                    let result = descend(body, computation, seq, env, false, frames);
                    env.bindings.pop();
                    return result;
                }
            }
            leaf!("exists", "no witness found (evaluation raced?)".into());
        }
        Formula::ExistsUnique(var, sel, body) | Formula::AtMostOne(var, sel, body) => {
            let unique = matches!(formula, Formula::ExistsUnique(..));
            let kind = if unique {
                "exists_unique"
            } else {
                "at_most_one"
            };
            let candidates: Vec<EventId> = sel.select(computation).collect();
            let total = candidates.len();
            let mut witnesses = Vec::new();
            for e in candidates {
                if eval_bound(var, e.index(), body, computation, seq, env)? {
                    witnesses.push(e);
                    if witnesses.len() > 2 {
                        break;
                    }
                }
            }
            frame
                .witnesses
                .extend(witnesses.iter().map(|&e| (var.clone(), e)));
            let shown: Vec<String> = witnesses.iter().map(|&e| label(e)).collect();
            if expect {
                if witnesses.len() >= 2 {
                    leaf!(
                        kind,
                        format!(
                            "{} witnesses among {total} candidates (first two: {})",
                            witnesses.len(),
                            shown.join(", ")
                        )
                    );
                }
                leaf!(kind, format!("no witness among {total} candidates"));
            }
            leaf!(
                kind,
                format!("holds with witness(es): [{}]", shown.join(", "))
            );
        }
        Formula::Henceforth(inner) => {
            if expect {
                for i in 0..seq.len() {
                    if !eval(inner, computation, &seq[i..], env)? {
                        frame.kind = "henceforth";
                        frame.note = format!(
                            "fails at suffix {i} of {} (history sizes {:?})",
                            seq.len(),
                            suffix_sizes(seq, i)
                        );
                        frames.push(frame);
                        return descend(inner, computation, &seq[i..], env, true, frames);
                    }
                }
                leaf!(
                    "henceforth",
                    "no failing suffix found (evaluation raced?)".into()
                );
            }
            leaf!(
                "henceforth",
                format!("holds at every of {} suffixes", seq.len())
            );
        }
        Formula::Eventually(inner) => {
            if expect {
                frame.kind = "eventually";
                frame.note = format!(
                    "body fails at every of {} suffixes; expanding suffix 0",
                    seq.len()
                );
                frames.push(frame);
                descend(inner, computation, seq, env, true, frames)
            } else {
                for i in 0..seq.len() {
                    if eval(inner, computation, &seq[i..], env)? {
                        frame.kind = "eventually";
                        frame.note = format!("holds at suffix {i} of {}", seq.len());
                        frames.push(frame);
                        return descend(inner, computation, &seq[i..], env, false, frames);
                    }
                }
                leaf!(
                    "eventually",
                    "no holding suffix found (evaluation raced?)".into()
                );
            }
        }
    }
}

/// History sizes of the first few steps from `i`, for suffix notes.
fn suffix_sizes(seq: &[History], i: usize) -> Vec<usize> {
    seq[i..].iter().take(4).map(History::len).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventSel, ValueTerm};
    use gem_core::{ComputationBuilder, HistorySequence, Structure, Value};

    /// Variable computation with a *wrong* read: Assign(1) ⊳ Getval(7).
    fn bad_var_comp() -> (Computation, Vec<EventId>) {
        let mut s = Structure::new();
        let assign = s.add_class("Assign", &["newval"]).unwrap();
        let getval = s.add_class("Getval", &["oldval"]).unwrap();
        let var = s.add_element("Var", &[assign, getval]).unwrap();
        let mut b = ComputationBuilder::new(s);
        let e1 = b.add_event(var, assign, vec![Value::Int(1)]).unwrap();
        let e2 = b.add_event(var, getval, vec![Value::Int(7)]).unwrap();
        b.enable(e1, e2).unwrap();
        (b.seal().unwrap(), vec![e1, e2])
    }

    fn read_correctness(c: &Computation) -> Formula {
        let s = c.structure();
        let assign = s.class("Assign").unwrap();
        let getval = s.class("Getval").unwrap();
        Formula::forall(
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
        )
    }

    #[test]
    fn holds_means_no_blame() {
        let (c, e) = bad_var_comp();
        let blame = blame_on_computation(&Formula::occurred(e[0]), &c).unwrap();
        assert!(blame.is_none());
    }

    #[test]
    fn forall_blame_names_the_failing_bindings() {
        let (c, e) = bad_var_comp();
        let f = read_correctness(&c);
        let blame = blame_on_computation(&f, &c).unwrap().expect("fails");
        let kinds: Vec<&str> = blame.frames.iter().map(|fr| fr.kind).collect();
        assert_eq!(kinds, ["forall", "forall", "implies", "atom"], "{blame:#?}");
        assert!(
            blame.frames[0].note.contains("a = Var.Assign^0"),
            "{blame:#?}"
        );
        assert!(
            blame.frames[1].note.contains("g = Var.Getval^1"),
            "{blame:#?}"
        );
        // Both bound events are implicated.
        let witnesses = blame.witness_events();
        assert!(
            witnesses.contains(&e[0]) && witnesses.contains(&e[1]),
            "{witnesses:?}"
        );
        // The leaf atom carries the full binding context.
        let leaf = blame.frames.last().unwrap();
        assert!(leaf.note.contains("a = Var.Assign^0"), "{leaf:?}");
        assert!(leaf.note.contains("g = Var.Getval^1"), "{leaf:?}");
    }

    #[test]
    fn negation_flips_expectation() {
        let (c, e) = bad_var_comp();
        // NOT occurred(e1) fails because occurred(e1) holds.
        let f = Formula::occurred(e[0]).not();
        let blame = blame_on_computation(&f, &c).unwrap().expect("fails");
        assert_eq!(blame.frames[0].kind, "not");
        let leaf = blame.frames.last().unwrap();
        assert_eq!(leaf.kind, "atom");
        assert!(!leaf.expect, "atom was required false");
        assert!(leaf.note.contains("evaluates to true"), "{leaf:?}");
    }

    #[test]
    fn exists_blame_reports_candidate_count() {
        let (c, _) = bad_var_comp();
        let s = c.structure();
        let assign = s.class("Assign").unwrap();
        // No Assign writes 9.
        let f = Formula::exists(
            "a",
            EventSel::of_class(assign),
            Formula::value_eq(ValueTerm::param("a", "newval"), ValueTerm::lit(9i64)),
        );
        let blame = blame_on_computation(&f, &c).unwrap().expect("fails");
        assert_eq!(blame.frames.len(), 1);
        assert!(
            blame.frames[0]
                .note
                .contains("no witness among 1 candidates"),
            "{blame:#?}"
        );
    }

    #[test]
    fn henceforth_blame_points_at_the_suffix() {
        let (c, e) = bad_var_comp();
        let seq = HistorySequence::from_linearization(&c, &[e[0], e[1]]);
        // ◻ ¬occurred(getval): fails at the suffix where e2 appears.
        let f = Formula::occurred(e[1]).not().henceforth();
        let blame = blame_on_sequence(&f, &c, seq.histories())
            .unwrap()
            .expect("fails");
        assert_eq!(blame.frames[0].kind, "henceforth");
        assert!(
            blame.frames[0].note.contains("fails at suffix"),
            "{blame:#?}"
        );
    }

    #[test]
    fn at_most_one_blame_shows_two_witnesses() {
        let (c, _) = bad_var_comp();
        let s = c.structure();
        let any = s.class("Assign").unwrap();
        let getval = s.class("Getval").unwrap();
        let f = Formula::at_most_one("x", EventSel::any(), Formula::occurred("x"));
        let blame = blame_on_computation(&f, &c).unwrap().expect("fails");
        let frame = &blame.frames[0];
        assert_eq!(frame.kind, "at_most_one");
        assert_eq!(frame.witnesses.len(), 2, "{frame:?}");
        let _ = (any, getval);
    }
}
