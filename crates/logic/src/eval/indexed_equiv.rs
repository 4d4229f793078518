//! Differential property: indexed domains change nothing.
//!
//! [`Unindexed`] forwards every [`World`] method of a sealed computation
//! except `candidates` and `enablers_of`, so it runs the trait's default
//! scans; [`Indexed`] forwards those too. Over generated computations and
//! formulas both must give identical results, errors included, and the
//! indexed world may never test more selector matches than the unindexed
//! one.

use std::cell::Cell;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gem_core::{ClassId, Computation, ComputationBuilder, ElementId, Structure, Value};

use super::*;
use crate::strategy::check_many_in;
use crate::{check_many, MultiCheck, Strategy};

/// The [`World`] methods both wrappers forward unchanged, counting
/// `matches` calls.
macro_rules! forward {
    () => {
        fn event_count(&self) -> usize {
            self.world.event_count()
        }
        fn element_of(&self, e: usize) -> ElementId {
            self.world.element_of(e)
        }
        fn class_of(&self, e: usize) -> ClassId {
            self.world.class_of(e)
        }
        fn seq_of(&self, e: usize) -> u32 {
            self.world.seq_of(e)
        }
        fn params_of(&self, e: usize) -> &[Value] {
            self.world.params_of(e)
        }
        fn thread_instance(&self, e: usize, ty: ThreadTypeId) -> Option<u32> {
            self.world.thread_instance(e, ty)
        }
        fn matches(&self, sel: &EventSel, e: usize) -> bool {
            self.matches.set(self.matches.get() + 1);
            self.world.matches(sel, e)
        }
        fn precedes(&self, a: usize, b: usize) -> bool {
            self.world.precedes(a, b)
        }
        fn enables(&self, a: usize, b: usize) -> bool {
            self.world.enables(a, b)
        }
        fn enabled_from(&self, e: usize) -> impl Iterator<Item = usize> + '_ {
            self.world.enabled_from(e)
        }
        fn nth_at(&self, element: ElementId, i: usize) -> Option<usize> {
            self.world.nth_at(element, i)
        }
        fn structure(&self) -> &Structure {
            self.world.structure()
        }
        fn followed_in(&self, e: usize, history: &impl Occurred) -> bool {
            self.world.followed_in(e, history)
        }
        fn preceded_within(&self, e: usize, history: &impl Occurred) -> bool {
            self.world.preceded_within(e, history)
        }
    };
}

/// `world` with the trait's default `candidates` and `enablers_of`.
struct Unindexed<'a, W> {
    world: &'a W,
    matches: Cell<u64>,
}

impl<W: World> World for Unindexed<'_, W> {
    forward!();
}

/// `world` with its own indexes.
struct Indexed<'a, W> {
    world: &'a W,
    matches: Cell<u64>,
}

impl<W: World> World for Indexed<'_, W> {
    forward!();
    fn candidates(&self, sel: &EventSel) -> impl Iterator<Item = usize> + '_ {
        self.world.candidates(sel)
    }
    fn enablers_of(&self, e: usize) -> impl Iterator<Item = usize> + '_ {
        self.world.enablers_of(e)
    }
}

/// Classes `A(x)`, `B(y, x)` and `C()`, so a parameter read is an
/// [`EvalError::UnknownParam`] on some events; three elements allowing
/// all of them. Ids 3 of either kind are foreign.
fn structure() -> Structure {
    let mut s = Structure::new();
    let a = s.add_class("A", &["x"]).unwrap();
    let b = s.add_class("B", &["y", "x"]).unwrap();
    let c = s.add_class("C", &[]).unwrap();
    for i in 0..3 {
        s.add_element(format!("E{i}"), &[a, b, c]).unwrap();
    }
    s
}

/// Up to six events with small integer parameters and forward enable
/// edges added in shuffled order, so adjacency lists need not be sorted.
fn computation(rng: &mut StdRng) -> Computation {
    let mut b = ComputationBuilder::new(structure());
    let n = rng.gen_range(1..7usize);
    let ids: Vec<_> = (0..n)
        .map(|_| {
            let class = rng.gen_range(0..3u32);
            let params = (0..[1, 2, 0][class as usize])
                .map(|_| Value::Int(rng.gen_range(0..3i64)))
                .collect::<Vec<_>>();
            let el = ElementId::from_raw(rng.gen_range(0..3u32));
            b.add_event(el, ClassId::from_raw(class), params).unwrap()
        })
        .collect();
    let mut edges: Vec<_> = (0..n)
        .flat_map(|j| (0..j).map(move |i| (i, j)))
        .filter(|_| rng.gen_bool(0.4))
        .collect();
    for k in (1..edges.len()).rev() {
        edges.swap(k, rng.gen_range(0..k + 1));
    }
    for (i, j) in edges {
        b.enable(ids[i], ids[j]).unwrap();
    }
    b.seal().unwrap()
}

fn element(rng: &mut StdRng) -> ElementId {
    ElementId::from_raw(rng.gen_range(0..4u32))
}

fn class(rng: &mut StdRng) -> ClassId {
    ClassId::from_raw(rng.gen_range(0..4u32))
}

fn selector(rng: &mut StdRng) -> EventSel {
    match rng.gen_range(0..6u32) {
        0 => EventSel::any(),
        1 => EventSel::at_element(element(rng)),
        2 => EventSel::of_class(class(rng)),
        3 => EventSel::of_class(class(rng)).at(element(rng)),
        4 => EventSel::any().with_param(0, rng.gen_range(0..3i64)),
        _ => EventSel::of_class(class(rng)).with_param(0, rng.gen_range(0..3i64)),
    }
}

const VARS: [&str; 3] = ["u", "v", "w"];

fn atom(rng: &mut StdRng, bound: usize) -> Formula {
    let mut var = || VARS[rng.gen_range(0..bound)];
    let (a, b) = (var(), var());
    match rng.gen_range(0..12u32) {
        0 => Formula::occurred(a),
        1 => Formula::enables(a, b),
        2 => Formula::precedes(a, b),
        3 => Formula::concurrent(a, b),
        4 => Formula::event_eq(a, b),
        5 | 6 => Formula::value_eq(
            ValueTerm::param(a, "x"),
            ValueTerm::lit(rng.gen_range(0..3i64)),
        ),
        7 | 8 => Formula::value_eq(ValueTerm::param(a, "y"), ValueTerm::param(b, "x")),
        9 => Formula::matches(a, selector(rng)),
        10 => Formula::occurred(EventTerm::NthAt(element(rng), rng.gen_range(0..3usize))),
        _ => Formula::at_control(a, selector(rng)),
    }
}

/// A formula over the first `bound` of [`VARS`]; quantifiers bind the
/// next one, and about half of them are anchored on an enable edge to a
/// bound variable in the shapes the evaluator walks by adjacency.
fn formula(rng: &mut StdRng, bound: usize, depth: u32) -> Formula {
    let quantify = bound < VARS.len() && depth > 0 && rng.gen_bool(0.6);
    if !quantify {
        if bound == 0 || depth == 0 || rng.gen_bool(0.4) {
            return if bound == 0 {
                Formula::occurred(EventTerm::NthAt(element(rng), 0))
            } else {
                atom(rng, bound)
            };
        }
        let (a, b) = (
            formula(rng, bound, depth - 1),
            formula(rng, bound, depth - 1),
        );
        return match rng.gen_range(0..4u32) {
            0 => a.and(b),
            1 => a.or(b),
            2 => a.implies(b),
            _ => a.not(),
        };
    }
    let var = VARS[bound];
    let sel = selector(rng);
    let body = formula(rng, bound + 1, depth - 1);
    let kind = rng.gen_range(0..4u32);
    if bound > 0 && rng.gen_bool(0.5) {
        let u = VARS[rng.gen_range(0..bound)];
        let edge = if rng.gen_bool(0.5) {
            Formula::enables(var, u)
        } else {
            Formula::enables(u, var)
        };
        // A parameter read beside the edge raises `UnknownParam` on some
        // adjacent events and not on others, so the visiting order shows.
        let filtered = match rng.gen_range(0..3u32) {
            0 => edge.clone(),
            1 => edge.clone().and(atom(rng, bound + 1)),
            _ => edge.clone().and(body.clone()),
        };
        return match kind {
            0 => Formula::forall(var, sel, edge.implies(body)),
            1 => Formula::exists(var, sel, filtered),
            2 => Formula::exists_unique(var, sel, filtered),
            _ => Formula::at_most_one(var, sel, filtered),
        };
    }
    match kind {
        0 => Formula::forall(var, sel, body),
        1 => Formula::exists(var, sel, body),
        2 => Formula::exists_unique(var, sel, body),
        _ => Formula::at_most_one(var, sel, body),
    }
}

#[test]
fn anchored_quantifiers_visit_enablers_in_id_order() {
    // Event 3, the only `A` with x = 2, is enabled by 2, 1 and 0, added in
    // that order: a `B(y, x = 0)`, a `C`, which has no `x`, and an
    // `A(x = 1)`.
    let mut b = ComputationBuilder::new(structure());
    let (el, cl) = (ElementId::from_raw, ClassId::from_raw);
    let e0 = b.add_event(el(0), cl(0), vec![Value::Int(1)]).unwrap();
    let e1 = b.add_event(el(1), cl(2), vec![]).unwrap();
    let e2 = b
        .add_event(el(2), cl(1), vec![Value::Int(0), Value::Int(0)])
        .unwrap();
    let e3 = b.add_event(el(0), cl(0), vec![Value::Int(2)]).unwrap();
    for s in [e2, e1, e0] {
        b.enable(s, e3).unwrap();
    }
    let c = b.seal().unwrap();
    let x_is = |n: i64| Formula::value_eq(ValueTerm::param("s", "x"), ValueTerm::lit(n));
    let each_t =
        |f: Formula| Formula::forall("t", EventSel::of_class(cl(0)).with_param(0, 2i64), f);
    let cases = [
        // In id order `s = 0` is a witness before `s = 1` raises.
        (
            each_t(Formula::exists(
                "s",
                EventSel::any(),
                Formula::enables("s", "t").and(x_is(1)),
            )),
            Ok(true),
        ),
        // In id order `s = 0` falsifies the `∀` before `s = 1` raises.
        (
            each_t(Formula::forall(
                "s",
                EventSel::any(),
                Formula::enables("s", "t").implies(x_is(0)),
            )),
            Ok(false),
        ),
    ];
    for (f, want) in cases {
        let plain = Unindexed {
            world: &c,
            matches: Cell::new(0),
        };
        assert_eq!(holds_on_computation(&f, &plain), want, "{f:?}");
        assert_eq!(holds_on_computation(&f, &c), want, "{f:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn indexed_domains_match_the_default_scans(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = computation(&mut rng);
        let fs = [
            formula(&mut rng, 0, 4),
            formula(&mut rng, 0, 4).henceforth(),
            formula(&mut rng, 0, 4).eventually(),
        ];
        let plain = Unindexed { world: &c, matches: Cell::new(0) };
        let indexed = Indexed { world: &c, matches: Cell::new(0) };
        for f in &fs {
            let want = holds_on_computation(f, &plain);
            prop_assert_eq!(holds_on_computation(f, &indexed), want.clone());
            prop_assert_eq!(holds_on_computation(f, &c), want);
        }
        let refs: Vec<&Formula> = fs.iter().collect();
        for strategy in [
            Strategy::StepSequences { limit: 500 },
            Strategy::Linearizations { limit: 500 },
        ] {
            let reports = |checks: Vec<MultiCheck>| {
                checks.into_iter().map(|m| m.report).collect::<Vec<_>>()
            };
            let want = reports(check_many_in(&refs, &c, &plain, strategy));
            prop_assert_eq!(reports(check_many_in(&refs, &c, &indexed, strategy)), want.clone());
            prop_assert_eq!(reports(check_many(&refs, &c, strategy)), want);
        }
        prop_assert!(
            indexed.matches.get() <= plain.matches.get(),
            "indexed world tested {} matches, unindexed {}",
            indexed.matches.get(),
            plain.matches.get()
        );
    }
}
