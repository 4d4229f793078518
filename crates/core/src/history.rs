//! Histories and valid history sequences (§7).
//!
//! A *history* describes "what has happened so far": a downward-closed
//! subset (prefix) of a computation's events — if `e2` is in a history and
//! `e1 ⇒ e2`, then `e1` is in the history too. A *valid history sequence*
//! (vhs) is a monotonically increasing sequence of histories in which any
//! two events appearing for the first time in the same history are
//! potentially concurrent. A computation can be viewed as the set of all
//! its valid history sequences; temporal restrictions (`◻`, `◇`) are
//! interpreted over them.
//!
//! Enumeration helpers are provided for the verification layer:
//! [`for_each_history`] walks every prefix (order ideal) of a computation
//! exactly once, [`for_each_linearization`] walks every total interleaving
//! and [`for_each_step_sequence`] every maximal vhs. All accept visit
//! limits because the counts are exponential in the width of the partial
//! order; the sequence enumerators report whether the limit cut the family
//! ([`Enumerated::truncated`]).

use std::fmt;
use std::ops::ControlFlow;

use crate::{Computation, DenseBitSet, EventId};

/// Error when a set of events is not downward-closed, or an extension step
/// is not enabled.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PrefixError {
    /// The event whose temporal predecessor is missing.
    pub event: EventId,
    /// A missing predecessor of `event`.
    pub missing: EventId,
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "not a history: {} requires its temporal predecessor {}",
            self.event, self.missing
        )
    }
}

impl std::error::Error for PrefixError {}

/// A history: a downward-closed set of events of one computation.
///
/// The invariant (all temporal predecessors of a member are members) is
/// maintained by every constructor and mutator.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gem_core::{ComputationBuilder, History, Structure};
/// let mut s = Structure::new();
/// let act = s.add_class("Act", &[])?;
/// let el = s.add_element("P", &[act])?;
/// let mut b = ComputationBuilder::new(s);
/// let e1 = b.add_event(el, act, vec![])?;
/// let e2 = b.add_event(el, act, vec![])?;
/// let c = b.seal()?;
/// let mut h = History::empty(&c);
/// h.try_insert(&c, e1)?;
/// assert!(h.try_insert(&c, e2).is_ok());
/// assert!(h.contains(e2));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct History {
    set: DenseBitSet,
}

impl History {
    /// The empty history of `computation`.
    pub fn empty(computation: &Computation) -> Self {
        Self {
            set: DenseBitSet::new(computation.event_count()),
        }
    }

    /// The complete history: every event of `computation`.
    pub fn full(computation: &Computation) -> Self {
        Self {
            set: DenseBitSet::full(computation.event_count()),
        }
    }

    /// Builds a history from an explicit set of events, verifying downward
    /// closure.
    ///
    /// # Errors
    ///
    /// Returns [`PrefixError`] naming an event whose temporal predecessor
    /// is missing.
    pub fn from_events(
        computation: &Computation,
        events: impl IntoIterator<Item = EventId>,
    ) -> Result<Self, PrefixError> {
        let mut set = DenseBitSet::new(computation.event_count());
        for e in events {
            set.insert(e.index());
        }
        for e in set.clone().iter() {
            let e = EventId::from_raw(e as u32);
            for p in computation.closure().predecessors(e).iter() {
                if !set.contains(p) {
                    return Err(PrefixError {
                        event: e,
                        missing: EventId::from_raw(p as u32),
                    });
                }
            }
        }
        Ok(Self { set })
    }

    /// Builds the smallest history containing `events`: the downward
    /// closure under the temporal order.
    pub fn downward_closure(
        computation: &Computation,
        events: impl IntoIterator<Item = EventId>,
    ) -> Self {
        let mut set = DenseBitSet::new(computation.event_count());
        for e in events {
            set.insert(e.index());
            set.union_with(computation.closure().predecessors(e));
        }
        Self { set }
    }

    /// True if `event` has occurred in this history.
    pub fn contains(&self, event: EventId) -> bool {
        self.set.contains(event.index())
    }

    /// Number of events that have occurred.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True if nothing has occurred yet.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Iterates over the occurred events in id order.
    pub fn iter(&self) -> impl Iterator<Item = EventId> + '_ {
        self.set.iter().map(|i| EventId::from_raw(i as u32))
    }

    /// The prefix relation `self ⊑ other`.
    pub fn is_prefix_of(&self, other: &History) -> bool {
        self.set.is_subset(&other.set)
    }

    /// Adds `event`, verifying all its temporal predecessors are present.
    ///
    /// # Errors
    ///
    /// Returns [`PrefixError`] if a predecessor is missing; the history is
    /// unchanged in that case.
    pub fn try_insert(
        &mut self,
        computation: &Computation,
        event: EventId,
    ) -> Result<(), PrefixError> {
        for p in computation.closure().predecessors(event).iter() {
            if !self.set.contains(p) {
                return Err(PrefixError {
                    event,
                    missing: EventId::from_raw(p as u32),
                });
            }
        }
        self.set.insert(event.index());
        Ok(())
    }

    /// Events not yet occurred whose temporal predecessors have all
    /// occurred — the events that may extend this history.
    pub fn frontier(&self, computation: &Computation) -> Vec<EventId> {
        computation
            .event_ids()
            .filter(|&e| {
                !self.contains(e)
                    && computation
                        .closure()
                        .predecessors(e)
                        .iter()
                        .all(|p| self.set.contains(p))
            })
            .collect()
    }

    /// True if this history contains every event of the computation.
    pub fn is_complete(&self, computation: &Computation) -> bool {
        self.len() == computation.event_count()
    }

    /// The underlying bit set (for hashing / state keys).
    pub fn as_bitset(&self) -> &DenseBitSet {
        &self.set
    }

    /// The events in `other` but not in `self` (`other − self`).
    pub fn new_events_in(&self, other: &History) -> Vec<EventId> {
        other
            .set
            .iter()
            .filter(|&i| !self.set.contains(i))
            .map(|i| EventId::from_raw(i as u32))
            .collect()
    }

    /// The join (least upper bound) of two histories under the prefix
    /// order: their union. Histories of a computation form a lattice —
    /// downward-closed sets are closed under union and intersection — so
    /// the result is again a history.
    pub fn join(&self, other: &History) -> History {
        let mut set = self.set.clone();
        set.union_with(&other.set);
        History { set }
    }

    /// The meet (greatest lower bound) of two histories under the prefix
    /// order: their intersection.
    pub fn meet(&self, other: &History) -> History {
        let mut set = self.set.clone();
        set.intersect_with(&other.set);
        History { set }
    }
}

/// Error when a sequence of histories is not a valid history sequence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VhsError {
    /// A history in the sequence is not downward-closed.
    NotAHistory(PrefixError),
    /// `histories[index]` is not a prefix of `histories[index + 1]`.
    NotMonotone {
        /// Index of the first offending history.
        index: usize,
    },
    /// Two events first occurring in the same step are temporally ordered.
    OrderedStep {
        /// Index of the history introducing both events.
        index: usize,
        /// The earlier event.
        first: EventId,
        /// The later event (ordered after `first`, so they cannot be
        /// simultaneous).
        second: EventId,
    },
}

impl fmt::Display for VhsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VhsError::NotAHistory(p) => write!(f, "{p}"),
            VhsError::NotMonotone { index } => {
                write!(
                    f,
                    "history {index} is not a prefix of history {}",
                    index + 1
                )
            }
            VhsError::OrderedStep {
                index,
                first,
                second,
            } => write!(
                f,
                "history {index} introduces ordered events {first} and {second} simultaneously"
            ),
        }
    }
}

impl std::error::Error for VhsError {}

/// A valid history sequence (§7): monotone, with simultaneous steps of
/// pairwise-concurrent events.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HistorySequence {
    histories: Vec<History>,
}

impl HistorySequence {
    /// Validates and wraps a sequence of histories.
    ///
    /// # Errors
    ///
    /// Returns a [`VhsError`] describing the first violated vhs condition.
    pub fn new(computation: &Computation, histories: Vec<History>) -> Result<Self, VhsError> {
        for h in &histories {
            History::from_events(computation, h.iter()).map_err(VhsError::NotAHistory)?;
        }
        for (i, pair) in histories.windows(2).enumerate() {
            if !pair[0].is_prefix_of(&pair[1]) {
                return Err(VhsError::NotMonotone { index: i });
            }
            let added = pair[0].new_events_in(&pair[1]);
            for (k, &a) in added.iter().enumerate() {
                for &b in &added[k + 1..] {
                    if computation.temporally_precedes(a, b) {
                        return Err(VhsError::OrderedStep {
                            index: i + 1,
                            first: a,
                            second: b,
                        });
                    }
                    if computation.temporally_precedes(b, a) {
                        return Err(VhsError::OrderedStep {
                            index: i + 1,
                            first: b,
                            second: a,
                        });
                    }
                }
            }
        }
        Ok(Self { histories })
    }

    /// The vhs obtained by adding one event at a time in the order of
    /// `linearization` (which must be a topological order).
    ///
    /// The sequence starts with the empty history, so it has
    /// `linearization.len() + 1` entries.
    ///
    /// # Panics
    ///
    /// Panics if `linearization` is not a valid topological order of the
    /// computation (an event appears before one of its predecessors).
    pub fn from_linearization(computation: &Computation, linearization: &[EventId]) -> Self {
        let mut histories = Vec::with_capacity(linearization.len() + 1);
        let mut h = History::empty(computation);
        histories.push(h.clone());
        for &e in linearization {
            h.try_insert(computation, e)
                .expect("linearization must respect the temporal order");
            histories.push(h.clone());
        }
        gem_obs::ambient::add("core.history.prefixes", histories.len() as u64);
        Self { histories }
    }

    /// The *greedy-step* vhs: each step adds the entire frontier at once
    /// (all newly-enabled events occur "at the same time"). This is the
    /// shortest vhs ending in the complete history.
    pub fn greedy_steps(computation: &Computation) -> Self {
        let mut histories = Vec::new();
        let mut h = History::empty(computation);
        histories.push(h.clone());
        loop {
            let frontier = h.frontier(computation);
            if frontier.is_empty() {
                break;
            }
            for e in frontier {
                h.try_insert(computation, e)
                    .expect("frontier events are insertable");
            }
            histories.push(h.clone());
        }
        gem_obs::ambient::add("core.history.prefixes", histories.len() as u64);
        Self { histories }
    }

    /// The histories, in order.
    pub fn histories(&self) -> &[History] {
        &self.histories
    }

    /// Number of histories in the sequence.
    pub fn len(&self) -> usize {
        self.histories.len()
    }

    /// True if the sequence has no histories.
    pub fn is_empty(&self) -> bool {
        self.histories.is_empty()
    }

    /// The first history (`α₀`), if any.
    pub fn first(&self) -> Option<&History> {
        self.histories.first()
    }

    /// The last history, if any.
    pub fn last(&self) -> Option<&History> {
        self.histories.last()
    }

    /// The tail `S[i] = αᵢ, αᵢ₊₁, …` as a borrowed slice. Tail closure (§7)
    /// guarantees every tail of a vhs is itself a vhs.
    pub fn tail(&self, i: usize) -> &[History] {
        &self.histories[i..]
    }
}

/// Visits every history (order ideal) of `computation` exactly once, in an
/// order where each history is visited after some of its prefixes.
///
/// Enumeration is depth-first over the canonical ideal tree (branching on
/// the inclusion/exclusion of the least frontier event), so no
/// deduplication set is needed. Returns the number of histories visited.
/// The visitor may stop enumeration early by returning
/// [`ControlFlow::Break`]; `limit` bounds the number of visits
/// (`usize::MAX` for unbounded).
pub fn for_each_history(
    computation: &Computation,
    limit: usize,
    mut visit: impl FnMut(&History) -> ControlFlow<()>,
) -> usize {
    fn rec(
        computation: &Computation,
        current: &mut History,
        excluded: &mut DenseBitSet,
        visited: &mut usize,
        limit: usize,
        visit: &mut impl FnMut(&History) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if *visited >= limit {
            return ControlFlow::Break(());
        }
        *visited += 1;
        visit(current)?;
        let frontier: Vec<EventId> = current
            .frontier(computation)
            .into_iter()
            .filter(|e| !excluded.contains(e.index()))
            .collect();
        let mut newly_excluded = Vec::new();
        for &e in &frontier {
            current
                .try_insert(computation, e)
                .expect("frontier event is insertable");
            let flow = rec(computation, current, excluded, visited, limit, visit);
            current.set.remove(e.index());
            if flow.is_break() {
                for &x in &newly_excluded {
                    excluded.remove(x);
                }
                return ControlFlow::Break(());
            }
            excluded.insert(e.index());
            newly_excluded.push(e.index());
        }
        for &x in &newly_excluded {
            excluded.remove(x);
        }
        ControlFlow::Continue(())
    }

    let mut visited = 0;
    let mut current = History::empty(computation);
    let mut excluded = DenseBitSet::new(computation.event_count());
    let _ = rec(
        computation,
        &mut current,
        &mut excluded,
        &mut visited,
        limit,
        &mut visit,
    );
    gem_obs::ambient::add("core.history.histories_enumerated", visited as u64);
    visited
}

/// How a bounded sequence enumeration ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Enumerated {
    /// Number of sequences visited.
    pub visited: usize,
    /// True if a (`limit`+1)-th sequence exists and was left unvisited: the
    /// family was cut by the limit, not enumerated in full.
    pub truncated: bool,
}

impl Enumerated {
    /// Accounts for reaching one more complete sequence: `Break` (and
    /// marks the enumeration truncated) when `limit` are already visited.
    fn reach(&mut self, limit: usize) -> ControlFlow<()> {
        if self.visited >= limit {
            self.truncated = true;
            return ControlFlow::Break(());
        }
        self.visited += 1;
        ControlFlow::Continue(())
    }
}

/// Visits every linearization (topological order / total interleaving) of
/// the computation, at most `limit` of them.
///
/// Each visit receives the full order of all events. The visitor may stop
/// enumeration early by returning [`ControlFlow::Break`]; that does not
/// count as truncation.
pub fn for_each_linearization(
    computation: &Computation,
    limit: usize,
    mut visit: impl FnMut(&[EventId]) -> ControlFlow<()>,
) -> Enumerated {
    fn rec(
        computation: &Computation,
        current: &mut History,
        order: &mut Vec<EventId>,
        done: &mut Enumerated,
        limit: usize,
        visit: &mut impl FnMut(&[EventId]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if order.len() == computation.event_count() {
            done.reach(limit)?;
            return visit(order);
        }
        for e in current.frontier(computation) {
            current
                .try_insert(computation, e)
                .expect("frontier event is insertable");
            order.push(e);
            let flow = rec(computation, current, order, done, limit, visit);
            order.pop();
            current.set.remove(e.index());
            flow?;
        }
        ControlFlow::Continue(())
    }

    let mut done = Enumerated::default();
    let mut current = History::empty(computation);
    let mut order = Vec::new();
    let _ = rec(
        computation,
        &mut current,
        &mut order,
        &mut done,
        limit,
        &mut visit,
    );
    gem_obs::ambient::add("core.history.linearizations", done.visited as u64);
    done
}

/// Visits every *maximal valid history sequence* of the computation whose
/// steps are arbitrary non-empty antichains of the frontier — i.e. every
/// way the computation can unfold when any set of pairwise-concurrent
/// enabled events may occur "at the same time" (§7).
///
/// This is the fully general vhs semantics; the number of sequences grows
/// doubly exponentially, so `limit` bounds the number of complete
/// sequences visited. Every sequence starts with the empty history and
/// ends with the complete history.
pub fn for_each_step_sequence(
    computation: &Computation,
    limit: usize,
    mut visit: impl FnMut(&[History]) -> ControlFlow<()>,
) -> Enumerated {
    fn antichain_subsets(
        computation: &Computation,
        frontier: &[EventId],
        pick: &mut Vec<EventId>,
        start: usize,
        out: &mut Vec<Vec<EventId>>,
    ) {
        if !pick.is_empty() {
            out.push(pick.clone());
        }
        for i in start..frontier.len() {
            let e = frontier[i];
            // Frontier events are pairwise unordered only if concurrent;
            // same-element frontier events cannot coexist in a step.
            if pick.iter().all(|&p| computation.concurrent(p, e)) {
                pick.push(e);
                antichain_subsets(computation, frontier, pick, i + 1, out);
                pick.pop();
            }
        }
    }

    fn rec(
        computation: &Computation,
        seq: &mut Vec<History>,
        done: &mut Enumerated,
        limit: usize,
        visit: &mut impl FnMut(&[History]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let current = seq.last().expect("sequence starts non-empty").clone();
        let frontier = current.frontier(computation);
        if frontier.is_empty() {
            done.reach(limit)?;
            return visit(seq);
        }
        let mut steps = Vec::new();
        antichain_subsets(computation, &frontier, &mut Vec::new(), 0, &mut steps);
        for step in steps {
            let mut next = current.clone();
            for e in step {
                next.try_insert(computation, e)
                    .expect("antichain of frontier events is insertable");
            }
            seq.push(next);
            let flow = rec(computation, seq, done, limit, visit);
            seq.pop();
            flow?;
        }
        ControlFlow::Continue(())
    }

    let mut done = Enumerated::default();
    let mut seq = vec![History::empty(computation)];
    let _ = rec(computation, &mut seq, &mut done, limit, &mut visit);
    done
}

/// Counts the histories of a computation (up to `limit`).
pub fn history_count(computation: &Computation, limit: usize) -> usize {
    for_each_history(computation, limit, |_| ControlFlow::Continue(()))
}

/// Counts the linearizations of a computation (up to `limit`).
pub fn linearization_count(computation: &Computation, limit: usize) -> usize {
    for_each_linearization(computation, limit, |_| ControlFlow::Continue(())).visited
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComputationBuilder, Structure};

    /// The §7 example: e1 ⊳ e2, e1 ⊳ e3, {e2, e3} ⊳ e4 at four distinct
    /// elements.
    fn diamond() -> (Computation, Vec<EventId>) {
        let mut s = Structure::new();
        let act = s.add_class("Act", &[]).unwrap();
        let els: Vec<_> = (0..4)
            .map(|i| s.add_element(format!("P{i}"), &[act]).unwrap())
            .collect();
        let mut b = ComputationBuilder::new(s);
        let e: Vec<_> = els
            .iter()
            .map(|&el| b.add_event(el, act, vec![]).unwrap())
            .collect();
        b.enable(e[0], e[1]).unwrap();
        b.enable(e[0], e[2]).unwrap();
        b.enable(e[1], e[3]).unwrap();
        b.enable(e[2], e[3]).unwrap();
        (b.seal().unwrap(), e)
    }

    #[test]
    fn section7_history_count() {
        // §7 lists the histories: {}, {e1}, {e1,e2}, {e1,e3}, {e1,e2,e3},
        // {e1,e2,e3,e4} — six including the empty history.
        let (c, _) = diamond();
        assert_eq!(history_count(&c, usize::MAX), 6);
    }

    #[test]
    fn section7_linearizations() {
        let (c, _) = diamond();
        // e1 (e2 e3 | e3 e2) e4 — two linearizations.
        assert_eq!(linearization_count(&c, usize::MAX), 2);
    }

    #[test]
    fn prefix_invariant_enforced() {
        let (c, e) = diamond();
        assert!(History::from_events(&c, [e[1]]).is_err());
        assert!(History::from_events(&c, [e[0], e[1]]).is_ok());
        let mut h = History::empty(&c);
        let err = h.try_insert(&c, e[3]).unwrap_err();
        assert_eq!(err.event, e[3]);
        assert!(h.is_empty(), "failed insert leaves history unchanged");
    }

    #[test]
    fn downward_closure_builds_prefix() {
        let (c, e) = diamond();
        let h = History::downward_closure(&c, [e[3]]);
        assert_eq!(h.len(), 4);
        assert!(h.is_complete(&c));
        let h2 = History::downward_closure(&c, [e[1]]);
        assert_eq!(h2.iter().collect::<Vec<_>>(), vec![e[0], e[1]]);
    }

    #[test]
    fn frontier_tracks_enabled_events() {
        let (c, e) = diamond();
        let mut h = History::empty(&c);
        assert_eq!(h.frontier(&c), vec![e[0]]);
        h.try_insert(&c, e[0]).unwrap();
        assert_eq!(h.frontier(&c), vec![e[1], e[2]]);
        h.try_insert(&c, e[1]).unwrap();
        h.try_insert(&c, e[2]).unwrap();
        assert_eq!(h.frontier(&c), vec![e[3]]);
        h.try_insert(&c, e[3]).unwrap();
        assert!(h.frontier(&c).is_empty());
    }

    #[test]
    fn vhs_simultaneous_step_requires_concurrency() {
        let (c, e) = diamond();
        // α0 = {e1}, α3 = {e1, e2, e3}: e2 and e3 occur "at the same time".
        let a0 = History::from_events(&c, [e[0]]).unwrap();
        let a3 = History::from_events(&c, [e[0], e[1], e[2]]).unwrap();
        let a4 = History::full(&c);
        assert!(HistorySequence::new(&c, vec![a0.clone(), a3.clone(), a4.clone()]).is_ok());
        // But a step adding e1 and e2 together is invalid: e1 ⇒ e2.
        let bad = History::from_events(&c, [e[0], e[1]]).unwrap();
        let err = HistorySequence::new(&c, vec![History::empty(&c), bad]).unwrap_err();
        assert!(matches!(err, VhsError::OrderedStep { .. }));
    }

    #[test]
    fn vhs_monotonicity_required() {
        let (c, e) = diamond();
        let a1 = History::from_events(&c, [e[0], e[1]]).unwrap();
        let a2 = History::from_events(&c, [e[0], e[2]]).unwrap();
        let err = HistorySequence::new(&c, vec![a1, a2]).unwrap_err();
        assert!(matches!(err, VhsError::NotMonotone { index: 0 }));
    }

    #[test]
    fn vhs_from_linearization() {
        let (c, e) = diamond();
        let s = HistorySequence::from_linearization(&c, &[e[0], e[2], e[1], e[3]]);
        assert_eq!(s.len(), 5);
        assert!(s.first().unwrap().is_empty());
        assert!(s.last().unwrap().is_complete(&c));
        // Stuttering-free single-event steps are always valid.
        assert!(HistorySequence::new(&c, s.histories().to_vec()).is_ok());
    }

    #[test]
    fn greedy_steps_is_shortest_complete_vhs() {
        let (c, _) = diamond();
        let s = HistorySequence::greedy_steps(&c);
        // {}, {e1}, {e1,e2,e3}, all — 4 histories.
        assert_eq!(s.len(), 4);
        assert!(s.last().unwrap().is_complete(&c));
        assert!(HistorySequence::new(&c, s.histories().to_vec()).is_ok());
    }

    #[test]
    fn tail_closure() {
        let (c, e) = diamond();
        let s = HistorySequence::from_linearization(&c, &[e[0], e[1], e[2], e[3]]);
        for i in 0..s.len() {
            let tail = s.tail(i).to_vec();
            assert!(
                HistorySequence::new(&c, tail).is_ok(),
                "tail {i} must be a vhs"
            );
        }
    }

    #[test]
    fn enumeration_limit_respected() {
        let (c, _) = diamond();
        assert_eq!(history_count(&c, 3), 3);
        assert_eq!(linearization_count(&c, 1), 1);
    }

    #[test]
    fn history_enumeration_unique() {
        let (c, _) = diamond();
        let mut seen = std::collections::HashSet::new();
        for_each_history(&c, usize::MAX, |h| {
            assert!(seen.insert(h.as_bitset().clone()), "duplicate history");
            ControlFlow::Continue(())
        });
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn linearizations_of_antichain() {
        // n independent events: n! linearizations, 2^n histories.
        let mut s = Structure::new();
        let act = s.add_class("Act", &[]).unwrap();
        let els: Vec<_> = (0..4)
            .map(|i| s.add_element(format!("Q{i}"), &[act]).unwrap())
            .collect();
        let mut b = ComputationBuilder::new(s);
        for &el in &els {
            b.add_event(el, act, vec![]).unwrap();
        }
        let c = b.seal().unwrap();
        assert_eq!(linearization_count(&c, usize::MAX), 24);
        assert_eq!(history_count(&c, usize::MAX), 16);
    }

    #[test]
    fn step_sequences_of_diamond() {
        let (c, _) = diamond();
        // Unfoldings: e1; then {e2},{e3} in either order or {e2,e3} at once;
        // then e4. That is 3 maximal step sequences.
        let mut count = 0;
        let n = for_each_step_sequence(&c, usize::MAX, |seq| {
            count += 1;
            assert!(seq.first().unwrap().is_empty());
            assert!(seq.last().unwrap().is_complete(&c));
            // Every produced sequence is a valid history sequence.
            assert!(HistorySequence::new(&c, seq.to_vec()).is_ok());
            ControlFlow::Continue(())
        });
        assert_eq!(n.visited, 3);
        assert!(!n.truncated);
        assert_eq!(count, 3);
    }

    #[test]
    fn step_sequences_exclude_ordered_steps() {
        // Two events at the SAME element are never simultaneous.
        let mut s = Structure::new();
        let act = s.add_class("Act", &[]).unwrap();
        let el = s.add_element("P", &[act]).unwrap();
        let mut b = ComputationBuilder::new(s);
        b.add_event(el, act, vec![]).unwrap();
        b.add_event(el, act, vec![]).unwrap();
        let c = b.seal().unwrap();
        assert_eq!(
            for_each_step_sequence(&c, usize::MAX, |_| ControlFlow::Continue(())).visited,
            1
        );
    }

    #[test]
    fn step_sequences_limit() {
        let (c, _) = diamond();
        let cut = for_each_step_sequence(&c, 2, |_| ControlFlow::Continue(()));
        assert_eq!((cut.visited, cut.truncated), (2, true));
        // Exactly the family's size: every sequence visited, none cut.
        let all = for_each_step_sequence(&c, 3, |_| ControlFlow::Continue(()));
        assert_eq!((all.visited, all.truncated), (3, false));
        // A visitor's own Break is not truncation.
        let stopped = for_each_linearization(&c, 1, |_| ControlFlow::Break(()));
        assert_eq!((stopped.visited, stopped.truncated), (1, false));
    }

    #[test]
    fn new_events_in_difference() {
        let (c, e) = diamond();
        let a = History::from_events(&c, [e[0]]).unwrap();
        let b = History::from_events(&c, [e[0], e[1], e[2]]).unwrap();
        assert_eq!(a.new_events_in(&b), vec![e[1], e[2]]);
        assert!(b.new_events_in(&a).is_empty());
    }
}
