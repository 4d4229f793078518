//! Significant-object correspondences and computation projection (§9).
//!
//! The paper's proof method: *"For each group, element, event type, event
//! parameter, and thread in P, choose a corresponding object in PROG. We
//! call these the significant objects of PROG. … If we examine a
//! computation which is legal with respect to PROG, and only take note of
//! significant objects, those significant objects exhibit the same
//! behavior as a computation that is legal with respect to P."*
//!
//! A [`Correspondence`] names the significant objects: each pair maps a
//! program-side [`EventSel`] to a problem-side element/class (with a
//! parameter mapping). [`project`] then *takes note of only the
//! significant objects*: it keeps the matching events, re-expresses them
//! over the problem structure, and bridges enable edges through
//! insignificant events (an enable path in `PROG` whose intermediate
//! events are all insignificant becomes a direct enable edge in the
//! projection).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::OnceLock;

use gem_core::{
    ClassId, Computation, ComputationBuilder, ElementId, Event, EventId, Structure, Value,
};
use gem_logic::EventSel;

/// One correspondence pair: program events matching `program` are the
/// significant occurrences of `problem_class` at `problem_element`.
#[derive(Clone, PartialEq, Debug)]
pub struct Pair {
    /// Selector over the *program* structure.
    pub program: EventSel,
    /// Target element in the *problem* structure.
    pub problem_element: ElementId,
    /// Target class in the problem structure.
    pub problem_class: ClassId,
    /// Parameter mapping: `(program index, problem index)` — the
    /// significant event parameters. Unmapped problem parameters default
    /// to [`Value::Unit`].
    pub params: Vec<(usize, usize)>,
}

/// A significant-object correspondence between a program specification and
/// a problem specification.
///
/// # Examples
///
/// The §9 Readers/Writers correspondence maps, e.g., the `Begin` event of
/// entry `StartRead` to the problem's `ReqRead`, and the `readernum`
/// assignment inside `StartRead` to the problem's `StartRead`.
#[derive(Clone, Debug, Default)]
pub struct Correspondence {
    pairs: Vec<Pair>,
    /// The pairs indexed by the program (element, class) they can match,
    /// built on the first lookup after the last pair was added.
    index: OnceLock<PairIndex>,
}

impl PartialEq for Correspondence {
    fn eq(&self, other: &Self) -> bool {
        self.pairs == other.pairs
    }
}

/// The candidate pairs of each program (element, class), in pair order.
///
/// A pair's selector names at most one element and one class, so an event
/// can only match the pairs whose named element and class are its own or
/// absent. Rows and columns run over the element and class ids the pairs
/// name, plus one last row (column) for every id no pair names; the
/// table is as large as the part of the program structure the pairs
/// mention, whatever structure the events come from.
#[derive(Clone, Debug)]
pub(crate) struct PairIndex {
    /// One past the largest element id a pair names: the row of every
    /// other element.
    elements: usize,
    /// One past the largest class id a pair names: the column of every
    /// other class.
    classes: usize,
    /// `candidates[starts[cell]..starts[cell + 1]]` are the pair indices
    /// of `cell = row * (classes + 1) + column`, ascending.
    starts: Vec<u32>,
    candidates: Vec<u32>,
}

impl PairIndex {
    fn new(pairs: &[Pair]) -> Self {
        let bound = |id: Option<usize>| id.map_or(0, |i| i + 1);
        let elements = pairs
            .iter()
            .map(|p| bound(p.program.element.map(ElementId::index)))
            .max()
            .unwrap_or(0);
        let classes = pairs
            .iter()
            .map(|p| bound(p.program.class.map(ClassId::index)))
            .max()
            .unwrap_or(0);
        let mut starts = Vec::with_capacity((elements + 1) * (classes + 1) + 1);
        let mut candidates = Vec::new();
        starts.push(0);
        for row in 0..=elements {
            for column in 0..=classes {
                candidates.extend(
                    (0u32..)
                        .zip(pairs)
                        .filter(|(_, p)| {
                            p.program.element.is_none_or(|el| el.index() == row)
                                && p.program.class.is_none_or(|cl| cl.index() == column)
                        })
                        .map(|(i, _)| i),
                );
                starts.push(candidates.len() as u32);
            }
        }
        Self {
            elements,
            classes,
            starts,
            candidates,
        }
    }

    /// The index of the first of `pairs` (the pairs this index was built
    /// from) whose selector matches `event`, trying only the candidates
    /// of the event's element and class.
    pub(crate) fn first_match(&self, pairs: &[Pair], event: &Event) -> Option<usize> {
        let row = event.element().index().min(self.elements);
        let cell = row * (self.classes + 1) + event.class().index().min(self.classes);
        self.candidates[self.starts[cell] as usize..self.starts[cell + 1] as usize]
            .iter()
            .map(|&i| i as usize)
            .find(|&i| pairs[i].program.matches(event))
    }
}

impl Correspondence {
    /// Creates an empty correspondence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a pair mapping `program` events to `problem_class` at
    /// `problem_element`, with no parameters.
    pub fn map(
        mut self,
        program: EventSel,
        problem_element: ElementId,
        problem_class: ClassId,
    ) -> Self {
        self.index = OnceLock::new();
        self.pairs.push(Pair {
            program,
            problem_element,
            problem_class,
            params: Vec::new(),
        });
        self
    }

    /// Adds a pair with a parameter mapping.
    pub fn map_with_params(
        mut self,
        program: EventSel,
        problem_element: ElementId,
        problem_class: ClassId,
        params: &[(usize, usize)],
    ) -> Self {
        self.index = OnceLock::new();
        self.pairs.push(Pair {
            program,
            problem_element,
            problem_class,
            params: params.to_vec(),
        });
        self
    }

    /// The pairs, in precedence order (first match wins).
    pub fn pairs(&self) -> &[Pair] {
        &self.pairs
    }

    /// The index of the first pair whose selector matches `event`, if
    /// any: the pair that makes `event` significant. Only the pairs whose
    /// selector admits the event's element and class are tried, in pair
    /// order.
    pub fn first_match(&self, event: &Event) -> Option<usize> {
        self.pair_index().first_match(&self.pairs, event)
    }

    /// The pair index, built on first use.
    pub(crate) fn pair_index(&self) -> &PairIndex {
        self.index.get_or_init(|| PairIndex::new(&self.pairs))
    }
}

/// Errors arising during projection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProjectError {
    /// Two significant events map to the same problem element but are
    /// concurrent in the program — the projected element order would be
    /// ill-defined.
    UnorderedAtElement {
        /// First program event.
        first: EventId,
        /// Second program event.
        second: EventId,
    },
    /// A mapped parameter index is out of range for the program event.
    BadParam {
        /// The program event.
        event: EventId,
        /// The out-of-range program parameter index.
        index: usize,
    },
}

impl fmt::Display for ProjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProjectError::UnorderedAtElement { first, second } => write!(
                f,
                "significant events {first} and {second} map to one element but are concurrent"
            ),
            ProjectError::BadParam { event, index } => {
                write!(f, "event {event}: mapped parameter {index} out of range")
            }
        }
    }
}

impl std::error::Error for ProjectError {}

/// The events of `c` in least-id-first topological order: of the events
/// whose predecessors are all placed, the one with the least id goes
/// next. That is plain id order whenever every edge points at a newer
/// event, as in every simulator-grown computation.
fn least_id_topological(c: &Computation) -> Vec<EventId> {
    let closure = c.closure();
    let mut waiting: Vec<usize> = c
        .event_ids()
        .map(|e| closure.predecessors(e).len())
        .collect();
    let mut ready: BinaryHeap<Reverse<usize>> = (0..waiting.len())
        .filter(|&i| waiting[i] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(waiting.len());
    while let Some(Reverse(i)) = ready.pop() {
        let e = EventId::from_raw(i as u32);
        order.push(e);
        for s in closure.successors(e).iter() {
            waiting[s] -= 1;
            if waiting[s] == 0 {
                ready.push(Reverse(s));
            }
        }
    }
    order
}

/// Projects a program computation onto its significant objects, producing
/// a computation over the problem structure.
///
/// Events matching no pair are dropped; enable edges are bridged through
/// them (a `PROG` enable path `e₁ ⊳ x₁ ⊳ … ⊳ xₖ ⊳ e₂` with every `xᵢ`
/// insignificant becomes `e₁' ⊳ e₂'`).
///
/// # Errors
///
/// Returns [`ProjectError`] if the correspondence is inconsistent with
/// the computation (see the variants). Whether the *projection* is legal
/// for the problem specification is checked downstream by
/// [`Specification::check`](gem_spec::Specification::check) — an illegal
/// projection is exactly how `PROG sat P` fails.
pub fn project(
    program: &Computation,
    problem_structure: impl Into<std::sync::Arc<Structure>>,
    corr: &Correspondence,
) -> Result<Computation, ProjectError> {
    let problem_structure = problem_structure.into();
    // Significant events in least-id-first topological order, so
    // same-element events are appended in their temporal order and the
    // projection numbers events as the incremental checker does.
    let significant: Vec<(EventId, &Pair)> = least_id_topological(program)
        .into_iter()
        .filter_map(|e| Some((e, &corr.pairs[corr.first_match(program.event(e))?])))
        .collect();

    if gem_obs::ambient::active() {
        gem_obs::ambient::add("project.projections", 1);
        gem_obs::ambient::add("project.significant_events", significant.len() as u64);
    }

    // Element-order consistency: same-element significant events must be
    // temporally ordered in the program.
    for (i, &(a, pa)) in significant.iter().enumerate() {
        for &(b, pb) in &significant[i + 1..] {
            if pa.problem_element == pb.problem_element && program.concurrent(a, b) {
                return Err(ProjectError::UnorderedAtElement {
                    first: a,
                    second: b,
                });
            }
        }
    }

    let mut builder = ComputationBuilder::new(problem_structure.clone());
    let mut image: Vec<Option<EventId>> = vec![None; program.event_count()];
    for &(e, pair) in &significant {
        let ev = program.event(e);
        let arity = problem_structure.class_info(pair.problem_class).arity();
        let mut params = vec![Value::Unit; arity];
        for &(prog_idx, prob_idx) in &pair.params {
            let v = *ev.param(prog_idx).ok_or(ProjectError::BadParam {
                event: e,
                index: prog_idx,
            })?;
            if prob_idx < arity {
                params[prob_idx] = v;
            }
        }
        let new_id = builder
            .add_event(pair.problem_element, pair.problem_class, params)
            .expect("problem ids are from the problem structure");
        image[e.index()] = Some(new_id);
    }

    // Bridged enable edges: DFS through insignificant events.
    for &(e, _) in &significant {
        let mut stack: Vec<EventId> = program.enabled_from(e).to_vec();
        let mut seen = vec![false; program.event_count()];
        while let Some(next) = stack.pop() {
            if seen[next.index()] {
                continue;
            }
            seen[next.index()] = true;
            if let Some(target) = image[next.index()] {
                builder
                    .enable(image[e.index()].expect("significant"), target)
                    .expect("known events");
            } else {
                stack.extend(program.enabled_from(next).iter().copied());
            }
        }
    }

    // Behaviour preservation (§9's "exhibit the same behavior"): the
    // projection's temporal order must be the restriction of the
    // program's, even where the mediating insignificant events are gone.
    for (i, &(a, pa)) in significant.iter().enumerate() {
        for &(b, pb) in &significant[i + 1..] {
            if pa.problem_element == pb.problem_element {
                continue; // already captured by the element order
            }
            if program.temporally_precedes(a, b) {
                builder
                    .add_precedence(
                        image[a.index()].expect("significant"),
                        image[b.index()].expect("significant"),
                    )
                    .expect("known events");
            } else if program.temporally_precedes(b, a) {
                builder
                    .add_precedence(
                        image[b.index()].expect("significant"),
                        image[a.index()].expect("significant"),
                    )
                    .expect("known events");
            }
        }
    }

    Ok(builder
        .seal()
        .expect("projection of an acyclic computation is acyclic"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_core::Structure;

    /// Program: user chain  A -> x -> y -> B  (x, y insignificant), plus a
    /// concurrent C on another element.
    fn program() -> (Computation, Vec<EventId>) {
        let mut s = Structure::new();
        let a = s.add_class("A", &["v"]).unwrap();
        let mid = s.add_class("Mid", &[]).unwrap();
        let b = s.add_class("B", &[]).unwrap();
        let c = s.add_class("C", &[]).unwrap();
        let p = s.add_element("P", &[a, mid, b]).unwrap();
        let q = s.add_element("Q", &[c]).unwrap();
        let mut builder = ComputationBuilder::new(s);
        let e_a = builder.add_event(p, a, vec![Value::Int(7)]).unwrap();
        let e_x = builder.add_event(p, mid, vec![]).unwrap();
        let e_y = builder.add_event(p, mid, vec![]).unwrap();
        let e_b = builder.add_event(p, b, vec![]).unwrap();
        let e_c = builder.add_event(q, c, vec![]).unwrap();
        builder.enable(e_a, e_x).unwrap();
        builder.enable(e_x, e_y).unwrap();
        builder.enable(e_y, e_b).unwrap();
        (builder.seal().unwrap(), vec![e_a, e_x, e_y, e_b, e_c])
    }

    fn problem_structure() -> (Structure, ElementId, ClassId, ClassId, ClassId) {
        let mut s = Structure::new();
        let start = s.add_class("Start", &["val"]).unwrap();
        let finish = s.add_class("Finish", &[]).unwrap();
        let other = s.add_class("Other", &[]).unwrap();
        let ctl = s.add_element("Ctl", &[start, finish]).unwrap();
        (s, ctl, start, finish, other)
    }

    #[test]
    fn projection_bridges_enable_edges() {
        let (prog, e) = program();
        let ps = prog.structure();
        let (problem, ctl, start, finish, _) = problem_structure();
        let corr = Correspondence::new()
            .map_with_params(
                EventSel::of_class(ps.class("A").unwrap()),
                ctl,
                start,
                &[(0, 0)],
            )
            .map(EventSel::of_class(ps.class("B").unwrap()), ctl, finish);
        let projected = project(&prog, problem, &corr).unwrap();
        assert_eq!(projected.event_count(), 2);
        let s0 = projected.nth_at(ctl, 0).unwrap();
        let s1 = projected.nth_at(ctl, 1).unwrap();
        // A's param carried over; bridged edge A' |> B'.
        assert_eq!(projected.event(s0).param(0), Some(&Value::Int(7)));
        assert!(projected.enables(s0, s1));
        let _ = e;
    }

    #[test]
    fn insignificant_events_dropped() {
        let (prog, _) = program();
        let ps = prog.structure();
        let (problem, ctl, start, _, _) = problem_structure();
        let corr =
            Correspondence::new().map(EventSel::of_class(ps.class("A").unwrap()), ctl, start);
        let projected = project(&prog, problem, &corr).unwrap();
        assert_eq!(projected.event_count(), 1);
        assert!(projected.enable_edges().count() == 0);
    }

    #[test]
    fn concurrent_events_to_same_element_rejected() {
        let (prog, _) = program();
        let ps = prog.structure();
        let (problem, ctl, start, finish, _) = problem_structure();
        // Map both A (at P) and C (at Q, concurrent with A) to element Ctl.
        let corr = Correspondence::new()
            .map(EventSel::of_class(ps.class("A").unwrap()), ctl, start)
            .map(EventSel::of_class(ps.class("C").unwrap()), ctl, finish);
        let err = project(&prog, problem, &corr).unwrap_err();
        assert!(matches!(err, ProjectError::UnorderedAtElement { .. }));
        assert!(err.to_string().contains("concurrent"));
    }

    #[test]
    fn bad_param_mapping_rejected() {
        let (prog, _) = program();
        let ps = prog.structure();
        let (problem, ctl, start, _, _) = problem_structure();
        let corr = Correspondence::new().map_with_params(
            EventSel::of_class(ps.class("B").unwrap()),
            ctl,
            start,
            &[(3, 0)], // B has no params
        );
        let err = project(&prog, problem, &corr).unwrap_err();
        assert!(matches!(err, ProjectError::BadParam { .. }));
    }

    #[test]
    fn first_match_wins() {
        let (prog, _) = program();
        let ps = prog.structure();
        let (problem, ctl, start, finish, _) = problem_structure();
        // Both pairs match class A; the first takes precedence.
        let sel = EventSel::of_class(ps.class("A").unwrap());
        let corr = Correspondence::new()
            .map(sel.clone(), ctl, start)
            .map(sel, ctl, finish);
        let projected = project(&prog, problem, &corr).unwrap();
        assert_eq!(projected.event_count(), 1);
        assert_eq!(projected.events()[0].class(), start);
    }

    #[test]
    fn first_match_looks_up_by_element_and_class() {
        let (prog, e) = program();
        let ps = prog.structure();
        let (_, ctl, start, finish, _) = problem_structure();
        let (p, q) = (ps.element("P").unwrap(), ps.element("Q").unwrap());
        let (a, mid) = (ps.class("A").unwrap(), ps.class("Mid").unwrap());
        let pairs = [
            // 0: a parameter selector, matching A^0 (v = 7) only.
            EventSel::of_class(a).with_param(0, 8),
            EventSel::of_class(a).at(p).with_param(0, 7),
            // 2 and 3 overlap on Mid at P: 2 must win.
            EventSel::of_class(mid),
            EventSel::at_element(p),
            // 4: a wildcard, matching what nothing before it does.
            EventSel::any(),
        ];
        let corr = pairs.iter().fold(Correspondence::new(), |c, sel| {
            c.map(sel.clone(), ctl, start)
        });
        let want = [Some(1), Some(2), Some(2), Some(3), Some(4)];
        for (&id, want) in e.iter().zip(want) {
            let ev = prog.event(id);
            assert_eq!(corr.first_match(ev), want, "{}", prog.event_label(id));
            assert_eq!(
                corr.pairs().iter().position(|p| p.program.matches(ev)),
                want
            );
        }
        // `C` sits at `Q`: a named element has a row of its own, an
        // unnamed one shares the last row with every other.
        let corr = Correspondence::new()
            .map(EventSel::at_element(p), ctl, start)
            .map(EventSel::at_element(q), ctl, finish);
        assert_eq!(corr.first_match(prog.event(e[4])), Some(1));
        let corr = Correspondence::new().map(EventSel::at_element(p), ctl, start);
        assert_eq!(corr.first_match(prog.event(e[4])), None);
        assert_eq!(corr.first_match(prog.event(e[0])), Some(0));
        // Adding a pair drops the index the lookups above built.
        let corr = corr.map(EventSel::any(), ctl, finish);
        assert_eq!(corr.first_match(prog.event(e[4])), Some(1));
    }

    #[test]
    fn unmapped_params_default_to_unit() {
        let (prog, _) = program();
        let ps = prog.structure();
        let (problem, ctl, start, _, _) = problem_structure();
        let corr =
            Correspondence::new().map(EventSel::of_class(ps.class("A").unwrap()), ctl, start);
        let projected = project(&prog, problem, &corr).unwrap();
        assert_eq!(projected.events()[0].param(0), Some(&Value::Unit));
    }
}
