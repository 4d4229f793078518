//! Checking strategies: deciding whether a restriction holds of *every*
//! valid history sequence of a computation.
//!
//! The paper's semantics quantifies restrictions over all valid history
//! sequences of a computation. The number of vhs is (doubly) exponential,
//! so [`check_many`] approximates the set by a [`Strategy`]:
//!
//! * [`Strategy::Complete`] — a single sequence containing the complete
//!   history. Exact for non-temporal (computation-level) restrictions.
//! * [`Strategy::Linearizations`] — every one-event-at-a-time vhs. Exact
//!   for `◻`-safety formulae (every history lies on some linearization,
//!   and every pair `α ⊑ β` lies on a common one).
//! * [`Strategy::StepSequences`] — every vhs with arbitrary antichain
//!   steps. Fully exact, but only feasible for very small computations.
//! * [`Strategy::RandomLinearizations`] — seeded sample of linearizations;
//!   sound for *refuting* (a found violation is real) but not exhaustive.
//! * [`Strategy::GreedySteps`] — the single maximal-parallelism vhs.
//!
//! [`check_many`] is the one loop over a strategy's sequences: it decides
//! temporal-free formulas once on the complete history and walks the
//! sequences once for all temporal formulas. [`check`] is its
//! one-formula case.

use std::collections::HashMap;
use std::ops::ControlFlow;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gem_core::{
    for_each_linearization, for_each_step_sequence, Computation, EventId, History, HistorySequence,
};

use crate::eval::holds_on;
use crate::{EvalError, Formula};

/// How to enumerate the history sequences a formula is checked against.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// The single sequence `[complete history]`.
    Complete,
    /// All linearizations (singleton-step vhs), up to `limit` sequences.
    Linearizations {
        /// Maximum number of sequences to check.
        limit: usize,
    },
    /// All antichain-step vhs, up to `limit` sequences.
    StepSequences {
        /// Maximum number of sequences to check.
        limit: usize,
    },
    /// `count` random linearizations drawn with the given seed.
    RandomLinearizations {
        /// Number of sampled schedules.
        count: usize,
        /// RNG seed, for reproducibility.
        seed: u64,
    },
    /// The single greedy maximal-step sequence.
    GreedySteps,
}

impl Default for Strategy {
    /// Defaults to exhaustive linearizations with a generous limit.
    fn default() -> Self {
        Strategy::Linearizations { limit: 100_000 }
    }
}

/// A violating history sequence, recorded as the event sets of its
/// histories.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Counterexample {
    /// Each history of the violating sequence, as its event list.
    pub histories: Vec<Vec<EventId>>,
}

impl Counterexample {
    fn from_histories(seq: &[History]) -> Self {
        Self {
            histories: seq.iter().map(|h| h.iter().collect()).collect(),
        }
    }

    /// Renders the violating sequence with event names resolved against
    /// the computation.
    pub fn describe(&self, computation: &Computation) -> String {
        use std::fmt::Write as _;
        let s = computation.structure();
        let mut out = String::from("violating history sequence:\n");
        let mut prev: Vec<EventId> = Vec::new();
        for (i, h) in self.histories.iter().enumerate() {
            let added: Vec<String> = h
                .iter()
                .filter(|e| !prev.contains(e))
                .map(|&e| {
                    let ev = computation.event(e);
                    format!(
                        "{}.{}^{}",
                        s.element_info(ev.element()).name(),
                        s.class_info(ev.class()).name(),
                        ev.seq()
                    )
                })
                .collect();
            let _ = writeln!(
                out,
                "  step {i}: +[{}] ({} events)",
                added.join(", "),
                h.len()
            );
            prev = h.clone();
        }
        out
    }
}

/// Result of checking a formula against a computation under a strategy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckReport {
    /// True if no checked sequence violated the formula.
    pub holds: bool,
    /// Number of sequences evaluated.
    pub sequences_checked: usize,
    /// True if the strategy's family was fully enumerated (the limit was
    /// not hit). A `holds == true` report with `exhaustive == false` is
    /// only evidence, not proof.
    pub exhaustive: bool,
    /// A violating sequence, if one was found.
    pub counterexample: Option<Counterexample>,
}

impl CheckReport {
    fn passing(sequences_checked: usize, exhaustive: bool) -> Self {
        Self {
            holds: true,
            sequences_checked,
            exhaustive,
            counterexample: None,
        }
    }
}

/// Checks `formula` against `computation` under `strategy`: the formula
/// must hold of every generated history sequence. The one-formula case of
/// [`check_many`].
///
/// # Errors
///
/// Returns [`EvalError`] if the formula is malformed (unbound variables,
/// bad parameter references).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gem_core::{ComputationBuilder, Structure};
/// use gem_logic::{check, Formula, Strategy};
/// let mut s = Structure::new();
/// let act = s.add_class("Act", &[])?;
/// let el = s.add_element("P", &[act])?;
/// let mut b = ComputationBuilder::new(s);
/// let e = b.add_event(el, act, vec![])?;
/// let c = b.seal()?;
/// let report = check(&Formula::occurred(e).eventually(), &c, Strategy::default())?;
/// assert!(report.holds && report.exhaustive);
/// # Ok(())
/// # }
/// ```
pub fn check(
    formula: &Formula,
    computation: &Computation,
    strategy: Strategy,
) -> Result<CheckReport, EvalError> {
    check_many(&[formula], computation, strategy)
        .pop()
        .expect("one outcome per formula")
        .report
}

/// Per-formula outcome of [`check_many`].
#[derive(Debug)]
pub struct MultiCheck {
    /// The report (or error), exactly as [`check`] would have produced it.
    pub report: Result<CheckReport, EvalError>,
    /// Nanoseconds this formula spent in evaluation, excluding the shared
    /// enumeration of sequences, for per-restriction timing attribution.
    /// Tracked only while an ambient probe is active; 0 otherwise.
    pub eval_ns: u64,
}

/// One formula's state during [`check_many`].
struct Pending<'f> {
    formula: &'f Formula,
    /// `p` when the formula is `◻ p` with an immediate `p`: such a formula
    /// holds on a sequence iff `p` holds at each of its histories, and
    /// `p`'s verdict at a history does not depend on the sequence around
    /// it, so verdicts are memoized per history in `memo`.
    safety_body: Option<&'f Formula>,
    memo: HashMap<History, bool>,
    /// The report once decided (a failure, an error, or a non-temporal
    /// verdict); undecided formulas pass.
    outcome: Option<Result<CheckReport, EvalError>>,
    eval_ns: u64,
}

/// Evaluations made and formula nodes visited, for `logic.eval.*`.
#[derive(Default)]
struct EvalTally {
    calls: u64,
    nodes: u64,
}

impl EvalTally {
    fn holds_on(
        &mut self,
        formula: &Formula,
        computation: &Computation,
        seq: &[History],
    ) -> Result<bool, EvalError> {
        self.calls += 1;
        holds_on(formula, computation, seq, &mut self.nodes)
    }
}

impl Pending<'_> {
    /// Evaluates the formula on `seq`, the `checked`-th sequence, and
    /// records a failure or an error as its outcome. True if that decided
    /// it.
    fn decide(
        &mut self,
        probing: bool,
        tally: &mut EvalTally,
        computation: &Computation,
        seq: &[History],
        checked: usize,
        exhaustive: bool,
    ) -> bool {
        let started = probing.then(std::time::Instant::now);
        let verdict = self.holds_on(tally, computation, seq);
        if let Some(started) = started {
            self.eval_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        self.outcome = match verdict {
            Ok(true) => return false,
            Ok(false) => Some(Ok(CheckReport {
                holds: false,
                sequences_checked: checked,
                exhaustive,
                counterexample: Some(Counterexample::from_histories(seq)),
            })),
            Err(e) => Some(Err(e)),
        };
        true
    }

    fn holds_on(
        &mut self,
        tally: &mut EvalTally,
        computation: &Computation,
        seq: &[History],
    ) -> Result<bool, EvalError> {
        let Some(p) = self.safety_body else {
            return tally.holds_on(self.formula, computation, seq);
        };
        for h in seq {
            let holds = match self.memo.get(h) {
                Some(&v) => v,
                None => {
                    let v = tally.holds_on(p, computation, std::slice::from_ref(h))?;
                    self.memo.insert(h.clone(), v);
                    v
                }
            };
            if !holds {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Checks several formulas against *one shared enumeration* of history
/// sequences.
///
/// A temporal-free formula is an *immediate assertion* about the
/// computation (§8): evaluating it at the front of every history sequence
/// would test the empty history. It is decided once, on the complete
/// history, regardless of the strategy (to assert an immediate property
/// of every history, wrap it in `◻`). The temporal formulas share one walk
/// over the strategy's sequences: each [`HistorySequence`] is built once
/// and every still-undecided formula is evaluated on it. A formula stops
/// counting at its first failing sequence, a passing formula sees the
/// whole enumeration, and the walk stops early once every formula has
/// failed. With no temporal formula nothing is enumerated.
///
/// Each report is the one a single-formula call would produce: the
/// enumeration order is deterministic and does not depend on the other
/// formulas.
pub fn check_many(
    formulas: &[&Formula],
    computation: &Computation,
    strategy: Strategy,
) -> Vec<MultiCheck> {
    let probing = gem_obs::ambient::active();
    let mut pending: Vec<Pending> = formulas
        .iter()
        .map(|&formula| Pending {
            formula,
            safety_body: match formula {
                Formula::Henceforth(p) if !p.is_temporal() => Some(p),
                _ => None,
            },
            memo: HashMap::new(),
            outcome: None,
            eval_ns: 0,
        })
        .collect();
    let mut tally = EvalTally::default();
    let full = [History::full(computation)];
    for f in pending.iter_mut().filter(|f| !f.formula.is_temporal()) {
        if !f.decide(probing, &mut tally, computation, &full, 1, true) {
            f.outcome = Some(Ok(CheckReport::passing(1, true)));
        }
    }

    // Random samples are never exhaustive, not even when they refute.
    let sampled = matches!(strategy, Strategy::RandomLinearizations { .. });
    let mut undecided = pending.iter().filter(|f| f.outcome.is_none()).count();
    let temporal = undecided;
    let mut checked = 0usize;
    let mut on_sequence = |seq: &[History]| {
        checked += 1;
        for f in pending.iter_mut().filter(|f| f.outcome.is_none()) {
            if f.decide(probing, &mut tally, computation, seq, checked, !sampled) {
                undecided -= 1;
            }
        }
        if undecided == 0 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };
    let truncated = temporal > 0
        && match strategy {
            Strategy::Complete => {
                let _ = on_sequence(&full);
                false
            }
            Strategy::GreedySteps => {
                let _ = on_sequence(HistorySequence::greedy_steps(computation).histories());
                false
            }
            Strategy::RandomLinearizations { count, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..count {
                    let order = random_linearization(computation, &mut rng);
                    let seq = HistorySequence::from_linearization(computation, &order);
                    if on_sequence(seq.histories()).is_break() {
                        break;
                    }
                }
                false
            }
            Strategy::Linearizations { limit } => {
                for_each_linearization(computation, limit, |order| {
                    on_sequence(HistorySequence::from_linearization(computation, order).histories())
                })
                .truncated
            }
            Strategy::StepSequences { limit } => {
                for_each_step_sequence(computation, limit, on_sequence).truncated
            }
        };

    if probing && tally.calls > 0 {
        gem_obs::ambient::add("logic.eval.calls", tally.calls);
        gem_obs::ambient::add("logic.eval.nodes", tally.nodes);
    }
    if probing && temporal > 0 {
        gem_obs::ambient::add("logic.check_many.calls", 1);
        gem_obs::ambient::add("logic.check_many.formulas", temporal as u64);
        gem_obs::ambient::add("logic.check_many.sequences", checked as u64);
    }
    pending
        .into_iter()
        .map(|f| MultiCheck {
            report: f
                .outcome
                .unwrap_or(Ok(CheckReport::passing(checked, !sampled && !truncated))),
            eval_ns: f.eval_ns,
        })
        .collect()
}

/// Draws one uniform-at-random-ish linearization (random frontier choice at
/// each step).
pub fn random_linearization(computation: &Computation, rng: &mut impl Rng) -> Vec<EventId> {
    let mut h = History::empty(computation);
    let mut order = Vec::with_capacity(computation.event_count());
    loop {
        let frontier = h.frontier(computation);
        if frontier.is_empty() {
            break;
        }
        let pick = frontier[rng.gen_range(0..frontier.len())];
        h.try_insert(computation, pick)
            .expect("frontier event is insertable");
        order.push(pick);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventSel;
    use gem_core::{ComputationBuilder, Structure};

    /// Two concurrent chains: p1 → p2 and q1 → q2.
    fn two_chains() -> (Computation, Vec<EventId>) {
        let mut s = Structure::new();
        let act = s.add_class("Act", &[]).unwrap();
        let p = s.add_element("P", &[act]).unwrap();
        let q = s.add_element("Q", &[act]).unwrap();
        let mut b = ComputationBuilder::new(s);
        let p1 = b.add_event(p, act, vec![]).unwrap();
        let p2 = b.add_event(p, act, vec![]).unwrap();
        let q1 = b.add_event(q, act, vec![]).unwrap();
        let q2 = b.add_event(q, act, vec![]).unwrap();
        (b.seal().unwrap(), vec![p1, p2, q1, q2])
    }

    #[test]
    fn linearizations_check_safety() {
        let (c, e) = two_chains();
        // Safety: p2 never occurs before p1 — holds on all 6 interleavings.
        let f = Formula::occurred(e[1])
            .implies(Formula::occurred(e[0]))
            .henceforth();
        let r = check(&f, &c, Strategy::Linearizations { limit: 100 }).unwrap();
        assert!(r.holds);
        assert!(r.exhaustive);
        assert_eq!(r.sequences_checked, 6);
    }

    #[test]
    fn violation_found_with_counterexample() {
        let (c, e) = two_chains();
        // False claim: q1 always occurs before p1.
        let f = Formula::occurred(e[0])
            .implies(Formula::occurred(e[2]))
            .henceforth();
        let r = check(&f, &c, Strategy::Linearizations { limit: 100 }).unwrap();
        assert!(!r.holds);
        let cex = r.counterexample.unwrap();
        let desc = cex.describe(&c);
        assert!(desc.contains("P.Act^0"), "{desc}");
    }

    #[test]
    fn complete_strategy_for_immediate_restrictions() {
        let (c, _) = two_chains();
        let act = c.structure().class("Act").unwrap();
        let f = Formula::forall("e", EventSel::of_class(act), Formula::occurred("e"));
        let r = check(&f, &c, Strategy::Complete).unwrap();
        assert!(r.holds && r.exhaustive);
        assert_eq!(r.sequences_checked, 1);
    }

    #[test]
    fn step_sequences_catch_simultaneity() {
        let (c, e) = two_chains();
        // "Some history separates p1 from q1" holds of every linearization
        // (one of them is added first) but fails on the step sequence where
        // p1 and q1 enter simultaneously (§7: events occurring "at the same
        // time").
        let p_first = Formula::occurred(e[0]).and(Formula::occurred(e[2]).not());
        let q_first = Formula::occurred(e[2]).and(Formula::occurred(e[0]).not());
        let f = p_first.eventually().or(q_first.eventually());
        let lin = check(&f, &c, Strategy::Linearizations { limit: 1000 }).unwrap();
        assert!(lin.holds, "every linearization separates them");
        let steps = check(&f, &c, Strategy::StepSequences { limit: 10_000 }).unwrap();
        assert!(!steps.holds, "a simultaneous step never separates them");
        assert!(steps.counterexample.is_some());
    }

    #[test]
    fn check_many_matches_individual_checks() {
        let (c, e) = two_chains();
        // A mix of verdicts: a holding safety formula, a failing one, and
        // a holding liveness formula — over both enumerating strategies.
        let holds_safety = Formula::occurred(e[1])
            .implies(Formula::occurred(e[0]))
            .henceforth();
        let fails = Formula::occurred(e[0])
            .implies(Formula::occurred(e[2]))
            .henceforth();
        let holds_liveness = Formula::occurred(e[3]).eventually();
        // An immediate assertion rides along, decided on the complete
        // history under every strategy.
        let immediate = Formula::occurred(e[0]);
        let formulas = [&holds_safety, &fails, &holds_liveness, &immediate];
        for strategy in [
            Strategy::Linearizations { limit: 100 },
            Strategy::StepSequences { limit: 10_000 },
            Strategy::GreedySteps,
            Strategy::Complete,
            Strategy::RandomLinearizations { count: 20, seed: 7 },
        ] {
            let many = check_many(&formulas, &c, strategy);
            for (f, outcome) in formulas.iter().zip(many) {
                let solo = check(f, &c, strategy).unwrap();
                let got = outcome.report.expect("well-formed formula");
                assert_eq!(solo.holds, got.holds, "{strategy:?}");
                assert_eq!(
                    solo.sequences_checked, got.sequences_checked,
                    "{strategy:?}"
                );
                assert_eq!(solo.exhaustive, got.exhaustive, "{strategy:?}");
                assert_eq!(solo.counterexample, got.counterexample, "{strategy:?}");
            }
        }
    }

    #[test]
    fn check_many_stops_enumerating_once_all_formulas_fail() {
        let (c, e) = two_chains();
        // Both fail on the very first linearization: enumeration must not
        // visit the remaining sequences.
        let f1 = Formula::occurred(e[0])
            .implies(Formula::occurred(e[2]))
            .henceforth();
        let f2 = Formula::occurred(e[1])
            .implies(Formula::occurred(e[3]))
            .henceforth();
        let many = check_many(&[&f1, &f2], &c, Strategy::Linearizations { limit: 100 });
        for outcome in many {
            let report = outcome.report.unwrap();
            assert!(!report.holds);
            assert_eq!(report.sequences_checked, 1);
            assert!(report.exhaustive);
        }
    }

    #[test]
    fn greedy_steps_single_sequence() {
        let (c, e) = two_chains();
        let f = Formula::occurred(e[0]).eventually();
        let r = check(&f, &c, Strategy::GreedySteps).unwrap();
        assert!(r.holds);
        assert_eq!(r.sequences_checked, 1);
    }

    #[test]
    fn random_linearizations_reproducible() {
        let (c, e) = two_chains();
        let f = Formula::occurred(e[0])
            .implies(Formula::occurred(e[2]))
            .henceforth();
        let r1 = check(
            &f,
            &c,
            Strategy::RandomLinearizations { count: 50, seed: 7 },
        )
        .unwrap();
        let r2 = check(
            &f,
            &c,
            Strategy::RandomLinearizations { count: 50, seed: 7 },
        )
        .unwrap();
        assert_eq!(r1, r2, "same seed, same verdict");
        assert!(!r1.exhaustive);
        // With 50 samples over 6 interleavings a violation is all but
        // certain to be sampled.
        assert!(!r1.holds);
    }

    #[test]
    fn limit_marks_non_exhaustive() {
        let (c, _) = two_chains();
        let f = Formula::True.henceforth();
        let r = check(&f, &c, Strategy::Linearizations { limit: 2 }).unwrap();
        assert!(r.holds);
        assert!(!r.exhaustive);
        assert_eq!(r.sequences_checked, 2);
    }

    #[test]
    fn a_family_of_exactly_limit_sequences_is_exhaustive() {
        let (c, _) = two_chains();
        let f = Formula::True.henceforth();
        // Two independent 2-chains: C(4,2) = 6 linearizations and the
        // Delannoy number D(2,2) = 13 step sequences.
        for (family, strategy) in [
            (6, Strategy::Linearizations { limit: 6 }),
            (13, Strategy::StepSequences { limit: 13 }),
        ] {
            let r = check(&f, &c, strategy).unwrap();
            assert_eq!(
                (r.sequences_checked, r.exhaustive),
                (family, true),
                "{strategy:?}"
            );
        }
        for (limit, strategy) in [
            (5, Strategy::Linearizations { limit: 5 }),
            (12, Strategy::StepSequences { limit: 12 }),
        ] {
            let r = check(&f, &c, strategy).unwrap();
            assert_eq!(
                (r.sequences_checked, r.exhaustive),
                (limit, false),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn check_many_enumerates_nothing_without_a_temporal_formula() {
        use gem_obs::StatsProbe;
        use std::sync::Arc;
        let (c, e) = two_chains();
        let probe = Arc::new(StatsProbe::new());
        let _guard = gem_obs::ambient::install(probe.clone());
        let many = check_many(
            &[&Formula::occurred(e[0])],
            &c,
            Strategy::Linearizations { limit: 100 },
        );
        let report = many[0].report.as_ref().unwrap();
        assert_eq!((report.sequences_checked, report.exhaustive), (1, true));
        assert_eq!(probe.counter("core.history.linearizations"), 0);
        assert_eq!(probe.counter("logic.check_many.calls"), 0);
    }

    #[test]
    fn immediate_assertions_dispatch_to_complete() {
        // A temporal-free formula is a computation-level restriction: it
        // is evaluated once on the complete history even under a
        // sequence-producing strategy.
        let (c, e) = two_chains();
        let f = Formula::occurred(e[0]);
        let r = check(&f, &c, Strategy::Linearizations { limit: 100 }).unwrap();
        assert!(r.holds);
        assert_eq!(r.sequences_checked, 1);
        assert!(r.exhaustive);
    }

    #[test]
    fn random_linearization_is_topological() {
        let (c, e) = two_chains();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let order = random_linearization(&c, &mut rng);
            assert_eq!(order.len(), 4);
            let p1 = order.iter().position(|&x| x == e[0]).unwrap();
            let p2 = order.iter().position(|&x| x == e[1]).unwrap();
            assert!(p1 < p2);
        }
    }
}
