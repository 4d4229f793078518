//! Property-based tests of the core GEM invariants, driven by random
//! structures, computations, and schedules.

use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use gem::core::{
    check_legality, for_each_history, for_each_linearization, BuilderMark, ClassId, Computation,
    ComputationBuilder, DenseBitSet, ElementId, EventId, History, HistorySequence, Structure,
};
use gem::logic::{holds_on_computation, EventSel, Formula};
use gem::obs::StatsProbe;
use gem::spec::{ElementType, SpecBuilder, Specification};
use gem::verify::{project, Correspondence, IncrChecker, LeafStatus};

/// Strategy: a random DAG computation over up to `max_el` elements and
/// `max_ev` events; edges only point from lower to higher event ids, so
/// sealing always succeeds.
fn computation_strategy(max_el: usize, max_ev: usize) -> impl Strategy<Value = Computation> {
    (1..=max_el, 1..=max_ev).prop_flat_map(move |(n_el, n_ev)| {
        let assignments = proptest::collection::vec(0..n_el, n_ev);
        let edges = proptest::collection::vec((0..n_ev, 0..n_ev), 0..n_ev * 2);
        (assignments, edges).prop_map(move |(assignments, edges)| {
            let mut s = Structure::new();
            let act = s.add_class("Act", &[]).expect("class");
            let els: Vec<_> = (0..n_el)
                .map(|i| s.add_element(format!("P{i}"), &[act]).expect("element"))
                .collect();
            let mut b = ComputationBuilder::new(s);
            let ids: Vec<_> = assignments
                .iter()
                .map(|&el| b.add_event(els[el], act, vec![]).expect("event"))
                .collect();
            for (x, y) in edges {
                if x < y {
                    b.enable(ids[x], ids[y]).expect("edge");
                }
            }
            b.seal().expect("forward edges are acyclic")
        })
    })
}

/// One builder operation a rollback script can leave standing.
#[derive(Clone, Copy, Debug)]
enum BuildOp {
    Event(usize),
    Enable(u32, u32),
    Precede(u32, u32),
}

fn apply_build_op(b: &mut ComputationBuilder, els: &[ElementId], op: BuildOp) {
    let e = EventId::from_raw;
    match op {
        BuildOp::Event(el) => {
            b.add_event(els[el], ClassId::from_raw(0), vec![])
                .expect("event");
        }
        BuildOp::Enable(x, y) => b.enable(e(x), e(y)).expect("edge"),
        BuildOp::Precede(x, y) => b.add_precedence(e(x), e(y)).expect("edge"),
    }
}

/// Asserts that `a` (grown, rolled back and regrown) is indistinguishable
/// from a builder that only ever saw `survivors`, with repeated edges
/// dropped (a duplicate must leave the fingerprint unchanged).
fn assert_same_as_replayed(
    a: &ComputationBuilder,
    els: &[ElementId],
    survivors: &[BuildOp],
) -> Result<(), TestCaseError> {
    let e = EventId::from_raw;
    let (mut enables, mut precedences) = (Vec::new(), Vec::new());
    let mut b = ComputationBuilder::new(a.structure().clone());
    for &op in survivors {
        let (journal, edge) = match op {
            BuildOp::Event(_) => {
                apply_build_op(&mut b, els, op);
                continue;
            }
            BuildOp::Enable(x, y) => (&mut enables, (e(x), e(y))),
            BuildOp::Precede(x, y) => (&mut precedences, (e(x), e(y))),
        };
        if !journal.contains(&edge) {
            apply_build_op(&mut b, els, op);
        }
        journal.push(edge);
    }
    prop_assert_eq!(a.event_count(), b.event_count());
    prop_assert_eq!(a.enable_journal(), &enables[..]);
    prop_assert_eq!(a.precedence_journal(), &precedences[..]);
    match (a.seal_ref(), b.seal_ref()) {
        (Ok(ca), Ok(cb)) => {
            prop_assert_eq!(ca.events(), cb.events());
            prop_assert_eq!(
                ca.enable_edges().collect::<Vec<_>>(),
                cb.enable_edges().collect::<Vec<_>>()
            );
            // Rows, not `Closure` equality: the topological order Kahn
            // picks may differ with repeated edges.
            for x in ca.event_ids() {
                prop_assert_eq!(ca.closure().successors(x), cb.closure().successors(x));
                prop_assert_eq!(ca.closure().predecessors(x), cb.closure().predecessors(x));
            }
            prop_assert_eq!(ca.fingerprint(), cb.fingerprint());
        }
        (Err(ea), Err(eb)) => prop_assert_eq!(format!("{ea}"), format!("{eb}")),
        (ra, rb) => prop_assert!(
            false,
            "cycle verdicts diverge: {:?} vs {:?}",
            ra.is_ok(),
            rb.is_ok()
        ),
    }
    Ok(())
}

/// One round of a rollback script: events to add, an edge seed, extra
/// edges, whether to mark first, and which mark to truncate to (if any).
type Round = (usize, u64, usize, u8, usize);

/// Rollback scripts over one to three elements.
fn rollback_scripts() -> impl Strategy<Value = (usize, Vec<Round>)> {
    (1usize..=3).prop_flat_map(|n_el| {
        let round = (1usize..60, any::<u64>(), 0usize..6, 0u8..3, 0usize..8);
        (Just(n_el), proptest::collection::vec(round, 2..10))
    })
}

/// Plays `rounds` on `a`, whose elements are `els`, and hands the builder
/// and the operations that still stand to `check` twice a round: after
/// the events grew, and after the extra edges and the truncate.
fn play_rollback_script(
    a: &mut ComputationBuilder,
    els: &[ElementId],
    rounds: Vec<Round>,
    mut check: impl FnMut(&ComputationBuilder, &[BuildOp]) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let n_el = els.len();
    let mut log: Vec<BuildOp> = Vec::new();
    let mut marks: Vec<(BuilderMark, usize)> = Vec::new();
    for (grow, mut seed, extra, mark_first, target) in rounds {
        let mut next = move |bound: u32| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) % u64::from(bound.max(1))) as u32
        };
        if mark_first > 0 {
            marks.push((a.mark(), log.len()));
        }
        for _ in 0..grow.min(150usize.saturating_sub(a.event_count())) {
            let n = a.event_count() as u32;
            let mut ops = vec![BuildOp::Event(next(n_el as u32) as usize)];
            if n > 0 {
                // The step's chain edge, sometimes twice (a duplicate the
                // fingerprint must not count), plus an occasional second
                // enabler.
                ops.push(BuildOp::Enable(n - 1, n));
                if next(4) == 0 {
                    ops.push(BuildOp::Enable(n - 1, n));
                }
                if next(3) == 0 {
                    ops.push(BuildOp::Enable(next(n), n));
                }
            }
            for op in ops {
                apply_build_op(a, els, op);
                log.push(op);
            }
        }
        check(a, &log)?;
        let n = a.event_count() as u32;
        for k in 0..extra {
            if n < 2 {
                break;
            }
            let (x, y) = (next(n), next(n));
            // Forward edges, a repeat of any earlier operation (a duplicate
            // edge far from its first sighting, or one more event), and a
            // retroactive or cycle-closing edge (a rollback that restamps
            // its target, and a cycle the rollback must forget).
            let op = match k % 4 {
                0 if x != y => BuildOp::Enable(x.min(y), x.max(y)),
                1 if x != y => BuildOp::Precede(x.min(y), x.max(y)),
                2 if !log.is_empty() => log[next(log.len() as u32) as usize],
                _ => BuildOp::Enable(x, y),
            };
            apply_build_op(a, els, op);
            log.push(op);
        }
        if target < marks.len() {
            let (mark, kept) = marks[target].clone();
            marks.truncate(target + 1);
            a.truncate_to(&mark);
            log.truncate(kept);
        }
        check(a, &log)?;
    }
    Ok(())
}

/// A specification over elements `P0..P{n-1}` of one type with the one
/// event `Act` (class 0, the class rollback scripts emit). Its one `◻∀`
/// restriction says no `P0` event directly enables two distinct events
/// at the last element. The correspondence leaves a middle element
/// insignificant, so that edges through it are bridged.
fn fan_out_spec(n_el: usize) -> (Specification, Correspondence, Vec<ElementId>) {
    let ty = ElementType::new("Proc").event("Act", &[]);
    let mut sb = SpecBuilder::new("FanOut");
    let els: Vec<_> = (0..n_el)
        .map(|i| {
            sb.instantiate_element(&ty, format!("P{i}"))
                .expect("element")
        })
        .collect();
    let (first, last) = (&els[0], &els[n_el - 1]);
    sb.add_restriction(
        "no-fan-out",
        Formula::forall(
            "a",
            first.sel("Act"),
            Formula::forall(
                "b",
                last.sel("Act"),
                Formula::forall(
                    "c",
                    last.sel("Act"),
                    Formula::enables("a", "b")
                        .and(Formula::enables("a", "c"))
                        .and(Formula::event_eq("b", "c").not())
                        .not(),
                ),
            ),
        )
        .henceforth(),
    );
    let spec = sb.finish();
    assert_eq!(first.class("Act"), ClassId::from_raw(0));
    let corr = Correspondence::new()
        .map(first.sel("Act"), first.id(), first.class("Act"))
        .map(last.sel("Act"), last.id(), last.class("Act"));
    let ids = els.iter().map(|el| el.id()).collect();
    (spec, corr, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The temporal order is a strict partial order: irreflexive,
    /// antisymmetric, transitive, and it extends both constituent orders.
    #[test]
    fn temporal_order_is_strict_partial(c in computation_strategy(4, 12)) {
        let ids: Vec<EventId> = c.event_ids().collect();
        for &a in &ids {
            prop_assert!(!c.temporally_precedes(a, a), "irreflexive");
            for &b in &ids {
                if c.temporally_precedes(a, b) {
                    prop_assert!(!c.temporally_precedes(b, a), "antisymmetric");
                }
                if c.enables(a, b) || c.element_precedes(a, b) {
                    prop_assert!(c.temporally_precedes(a, b), "extends ⊳ and ⇒el");
                }
                for &d in &ids {
                    if c.temporally_precedes(a, b) && c.temporally_precedes(b, d) {
                        prop_assert!(c.temporally_precedes(a, d), "transitive");
                    }
                }
            }
        }
    }


    /// Rolling a builder back to a mark erases the rolled-back suffix
    /// completely: sealing afterwards gives exactly what a builder that
    /// never saw the suffix gives — same events, enables, temporal order,
    /// and the same cycle verdict. This is the contract the exploration
    /// undo fast path rests on.
    #[test]
    fn builder_truncate_equals_never_built(
        (n_el, assignments, edges, split) in (1usize..=3).prop_flat_map(|n_el| {
            (1usize..=10).prop_flat_map(move |n_ev| {
                let assignments = proptest::collection::vec(0..n_el, n_ev);
                // Unconstrained direction: suffix edges may point backwards
                // (a rollback that restamps their targets) or even create
                // cycles the rollback must forget.
                let edges = proptest::collection::vec((0..n_ev, 0..n_ev), 0..n_ev * 2);
                (Just(n_el), assignments, edges, 0..=n_ev * 2)
            })
        })
    ) {
        let mut s = Structure::new();
        let act = s.add_class("Act", &[]).expect("class");
        let els: Vec<_> = (0..n_el)
            .map(|i| s.add_element(format!("P{i}"), &[act]).expect("element"))
            .collect();
        let s = std::sync::Arc::new(s);
        let split = split.min(edges.len());

        // Builder A sees everything, then rolls the suffix back.
        let mut a = ComputationBuilder::new(s.clone());
        let ids_a: Vec<_> = assignments
            .iter()
            .map(|&el| a.add_event(els[el], act, vec![]).expect("event"))
            .collect();
        for &(x, y) in &edges[..split] {
            a.enable(ids_a[x], ids_a[y]).expect("edge");
        }
        let mark = a.mark();
        for &(x, y) in &edges[split..] {
            a.enable(ids_a[x], ids_a[y]).expect("edge");
        }
        a.truncate_to(&mark);

        // Builder B never sees the suffix.
        let mut b = ComputationBuilder::new(s);
        let ids_b: Vec<_> = assignments
            .iter()
            .map(|&el| b.add_event(els[el], act, vec![]).expect("event"))
            .collect();
        for &(x, y) in &edges[..split] {
            b.enable(ids_b[x], ids_b[y]).expect("edge");
        }

        match (a.seal_ref(), b.seal_ref()) {
            (Ok(ca), Ok(cb)) => {
                prop_assert_eq!(ca.event_count(), cb.event_count());
                for x in ca.event_ids() {
                    for y in ca.event_ids() {
                        prop_assert_eq!(ca.enables(x, y), cb.enables(x, y));
                        prop_assert_eq!(
                            ca.temporally_precedes(x, y),
                            cb.temporally_precedes(x, y)
                        );
                    }
                }
            }
            (Err(ea), Err(eb)) => prop_assert_eq!(format!("{ea}"), format!("{eb}")),
            (ra, rb) => prop_assert!(false,
                "seal verdicts diverge after rollback: {:?} vs {:?}", ra.is_ok(), rb.is_ok()),
        }
    }

    /// Rolling back whole events, not just edges: random scripts grow up
    /// to 150 events in rounds (sealed closures of up to three row
    /// words), add forward, duplicate, retroactive and cycle-closing
    /// edges, take marks and truncate to any of them, then regrow over the
    /// buffers the rollback left behind. Twice a round the builder must
    /// seal to the closure rows of one that saw only the surviving
    /// operations.
    #[test]
    fn builder_rollback_of_events_equals_replay((n_el, rounds) in rollback_scripts()) {
        let mut s = Structure::new();
        let act = s.add_class("Act", &[]).expect("class");
        let els: Vec<_> = (0..n_el)
            .map(|i| s.add_element(format!("P{i}"), &[act]).expect("element"))
            .collect();
        let mut a = ComputationBuilder::new(s);
        play_rollback_script(&mut a, &els, rounds, |a, log| assert_same_as_replayed(a, &els, log))?;
    }

    /// The incremental checker's leg of the same scripts. At every check
    /// point, a checker synced to the builder at every earlier one must
    /// report what a fresh checker synced once reports, unless an
    /// out-of-order edge has disabled it; a disabled checker is replaced
    /// by a new long-lived one. A clean leaf must pass the batch pipeline.
    #[test]
    fn long_lived_checker_agrees_with_a_fresh_one_under_rollback(
        (n_el, rounds) in rollback_scripts()
    ) {
        let (spec, corr, els) = fan_out_spec(n_el);
        let mut a = ComputationBuilder::new(spec.structure_arc());
        let mut chk = IncrChecker::new(&spec, &corr, false);
        // Only the long-lived checker syncs under this probe, so its
        // `disabled` counter is that checker's alone.
        let mut stats = Arc::new(StatsProbe::new());
        play_rollback_script(&mut a, &els, rounds, |a, _| {
            let status = {
                let _ambient = gem::obs::ambient::install(stats.clone());
                chk.sync_to(a)
            };
            let fresh = IncrChecker::new(&spec, &corr, false).sync_to(a);
            if stats.counter("logic.incr.disabled") == 0 {
                prop_assert_eq!(status, fresh);
            } else {
                chk = IncrChecker::new(&spec, &corr, false);
                stats = Arc::new(StatsProbe::new());
            }
            if status == LeafStatus::Clean {
                let sealed = a.seal_ref().expect("a clean leaf is acyclic");
                let projected = project(&sealed, spec.structure_arc(), &corr)
                    .expect("a clean leaf projects");
                // A few sampled schedules: a long chain has many.
                let strategy = gem::logic::Strategy::RandomLinearizations { count: 8, seed: 1 };
                let batch = spec.check(&projected, strategy).expect("batch check");
                prop_assert!(batch.is_legal(), "clean leaf fails the batch check");
            }
            Ok(())
        })?;
    }

    /// Concurrency is symmetric and excludes ordered pairs; element order
    /// is total within an element.
    #[test]
    fn concurrency_and_element_order(c in computation_strategy(4, 10)) {
        let ids: Vec<EventId> = c.event_ids().collect();
        for &a in &ids {
            for &b in &ids {
                prop_assert_eq!(c.concurrent(a, b), c.concurrent(b, a));
                if c.concurrent(a, b) {
                    prop_assert!(!c.temporally_precedes(a, b));
                    prop_assert!(c.event(a).element() != c.event(b).element(),
                        "same-element events are never concurrent");
                }
                if a != b && c.event(a).element() == c.event(b).element() {
                    prop_assert!(c.element_precedes(a, b) || c.element_precedes(b, a));
                }
            }
        }
    }

    /// Every enumerated history is downward-closed, enumeration is
    /// duplicate-free, and the complete history is always reached.
    #[test]
    fn histories_are_downward_closed_prefixes(c in computation_strategy(3, 9)) {
        let mut seen = BTreeSet::new();
        let mut found_complete = false;
        for_each_history(&c, 20_000, |h| {
            let key: Vec<usize> = h.iter().map(|e| e.index()).collect();
            assert!(seen.insert(key), "duplicate history");
            for e in h.iter() {
                for p in c.closure().predecessors(e).iter() {
                    assert!(h.contains(EventId::from_raw(p as u32)), "not a prefix");
                }
            }
            if h.is_complete(&c) {
                found_complete = true;
            }
            ControlFlow::Continue(())
        });
        prop_assert!(found_complete);
    }

    /// Every enumerated linearization is a topological order, and turning
    /// it into a history sequence yields a valid vhs whose tails are vhs.
    #[test]
    fn linearizations_are_topological(c in computation_strategy(3, 8)) {
        for_each_linearization(&c, 2_000, |order| {
            assert_eq!(order.len(), c.event_count());
            for (i, &a) in order.iter().enumerate() {
                for &b in &order[i + 1..] {
                    assert!(!c.temporally_precedes(b, a), "order respects ⇒");
                }
            }
            let seq = HistorySequence::from_linearization(&c, order);
            assert!(HistorySequence::new(&c, seq.histories().to_vec()).is_ok());
            for i in 0..seq.len() {
                assert!(
                    HistorySequence::new(&c, seq.tail(i).to_vec()).is_ok(),
                    "tail closure (§7)"
                );
            }
            ControlFlow::Continue(())
        });
    }

    /// Generated computations with only intra-structure edges are legal,
    /// and along any greedy extension, `potential(e)` holds exactly of
    /// the frontier while `new(e)` holds exactly of the occurred events
    /// with no occurred successor.
    #[test]
    fn frontier_potential_new_consistency(c in computation_strategy(3, 8)) {
        use gem::logic::holds_on_history;
        prop_assert!(check_legality(&c).is_empty());
        let mut h = History::empty(&c);
        loop {
            let frontier = h.frontier(&c);
            for e in c.event_ids() {
                let pot = holds_on_history(&Formula::potential(e), &c, &h).unwrap();
                prop_assert_eq!(pot, frontier.contains(&e), "potential = frontier");
                let is_new = holds_on_history(&Formula::is_new(e), &c, &h).unwrap();
                let expect_new = h.contains(e)
                    && c.closure()
                        .successors(e)
                        .iter()
                        .all(|s| !h.contains(EventId::from_raw(s as u32)));
                prop_assert_eq!(is_new, expect_new, "new = maximal in history");
            }
            match frontier.first() {
                Some(&e) => h.try_insert(&c, e).expect("frontier insertable"),
                None => break,
            }
        }
        prop_assert!(h.is_complete(&c));
        // On the complete computation nothing is potential.
        for e in c.event_ids() {
            prop_assert!(!holds_on_computation(&Formula::potential(e), &c).unwrap());
        }
    }

    /// Histories form a lattice: join/meet of histories are histories
    /// (downward-closed), and satisfy the lattice laws.
    #[test]
    fn histories_form_a_lattice(c in computation_strategy(3, 8)) {
        // Collect a few histories deterministically.
        let mut histories = Vec::new();
        for_each_history(&c, 12, |h| {
            histories.push(h.clone());
            ControlFlow::Continue(())
        });
        for a in &histories {
            for b in &histories {
                let j = a.join(b);
                let m = a.meet(b);
                // Results are downward-closed (constructible as histories).
                prop_assert!(History::from_events(&c, j.iter()).is_ok());
                prop_assert!(History::from_events(&c, m.iter()).is_ok());
                // Lattice laws.
                prop_assert!(a.is_prefix_of(&j) && b.is_prefix_of(&j));
                prop_assert!(m.is_prefix_of(a) && m.is_prefix_of(b));
                prop_assert_eq!(&a.join(a), a);
                prop_assert_eq!(&a.meet(a), a);
                prop_assert_eq!(a.join(b), b.join(a));
                prop_assert_eq!(a.meet(b), b.meet(a));
                // Absorption: a ∨ (a ∧ b) = a.
                prop_assert_eq!(&a.join(&a.meet(b)), a);
            }
        }
    }

    /// DenseBitSet behaves like a BTreeSet model.
    #[test]
    fn bitset_model(ops in proptest::collection::vec((0usize..128, any::<bool>()), 0..200)) {
        let mut bs = DenseBitSet::new(128);
        let mut model = BTreeSet::new();
        for (i, insert) in ops {
            if insert {
                prop_assert_eq!(bs.insert(i), model.insert(i));
            } else {
                prop_assert_eq!(bs.remove(i), model.remove(&i));
            }
            prop_assert_eq!(bs.len(), model.len());
        }
        prop_assert_eq!(bs.iter().collect::<Vec<_>>(), model.into_iter().collect::<Vec<_>>());
    }

    /// Quantifier duality: ¬∃x.φ ⇔ ∀x.¬φ on arbitrary computations.
    #[test]
    fn quantifier_duality(c in computation_strategy(3, 8)) {
        let body = |v: &str| Formula::is_new(v);
        let exists = Formula::exists("x", EventSel::any(), body("x"));
        let forall_not = Formula::forall("x", EventSel::any(), body("x").not());
        let lhs = holds_on_computation(&exists.clone().not(), &c).unwrap();
        let rhs = holds_on_computation(&forall_not, &c).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// `retagged` preserves every order and the event data.
    #[test]
    fn retagging_preserves_structure(c in computation_strategy(3, 8)) {
        use gem::core::{ThreadTag, ThreadTypeId};
        let tag = ThreadTag::new(ThreadTypeId::from_raw(0), 1);
        let t = c.retagged(|_| vec![tag]);
        prop_assert_eq!(t.event_count(), c.event_count());
        for a in c.event_ids() {
            prop_assert!(t.event(a).in_thread(tag));
            prop_assert_eq!(t.event(a).class(), c.event(a).class());
            for b in c.event_ids() {
                prop_assert_eq!(t.temporally_precedes(a, b), c.temporally_precedes(a, b));
                prop_assert_eq!(t.enables(a, b), c.enables(a, b));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// ◻-safety verdicts agree between singleton-step (linearization) and
    /// fully general antichain-step vhs semantics: every coarse-step
    /// history is an order ideal, and every ideal lies on a linearization.
    #[test]
    fn step_and_linearization_safety_agree(c in computation_strategy(3, 6)) {
        use gem::core::for_each_step_sequence;
        use gem::logic::{check, holds_on_sequence, Strategy};
        if c.event_count() < 2 {
            return Ok(());
        }
        let e0 = EventId::from_raw(0);
        let e1 = EventId::from_raw(1);
        let f = Formula::occurred(e1).implies(Formula::occurred(e0)).henceforth();
        let lin = check(&f, &c, Strategy::Linearizations { limit: 50_000 })
            .unwrap()
            .holds;
        let mut steps_hold = true;
        for_each_step_sequence(&c, 20_000, |seq| {
            if !holds_on_sequence(&f, &c, seq).unwrap() {
                steps_hold = false;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        prop_assert_eq!(lin, steps_hold);
    }
}

/// Sanity check of a substrate's independence oracle at one reachable
/// state: every pair of enabled actions the oracle claims independent
/// must actually commute there — symmetrically, without disabling each
/// other, reaching observationally equal states (`enabled`,
/// `is_complete`) whose computations share a canonical key. This is the
/// exact contract `Explorer::reduce` relies on for soundness.
fn check_oracle_diamond<S: gem::lang::System>(
    sys: &S,
    picks: &[usize],
    extract: impl Fn(&S::State) -> gem::core::Computation,
) -> Result<(), TestCaseError> {
    use gem::verify::canonical_key;
    let mut state = sys.initial();
    for &pick in picks {
        let enabled = sys.enabled(&state);
        if enabled.is_empty() {
            break;
        }
        let action = enabled[pick % enabled.len()].clone();
        sys.apply(&mut state, &action);
    }
    let enabled = sys.enabled(&state);
    for a in &enabled {
        for b in &enabled {
            if a == b || !sys.independent(&state, a, b) {
                continue;
            }
            prop_assert!(
                sys.independent(&state, b, a),
                "oracle asymmetric on {a:?} / {b:?}"
            );
            let mut ab = state.clone();
            sys.apply(&mut ab, a);
            prop_assert!(
                sys.enabled(&ab).contains(b),
                "{a:?} disables supposedly independent {b:?}"
            );
            sys.apply(&mut ab, b);
            let mut ba = state.clone();
            sys.apply(&mut ba, b);
            prop_assert!(
                sys.enabled(&ba).contains(a),
                "{b:?} disables supposedly independent {a:?}"
            );
            sys.apply(&mut ba, a);
            prop_assert_eq!(
                sys.enabled(&ab),
                sys.enabled(&ba),
                "enabled sets diverge after {:?}·{:?} vs {:?}·{:?}",
                a,
                b,
                b,
                a
            );
            prop_assert_eq!(sys.is_complete(&ab), sys.is_complete(&ba));
            prop_assert_eq!(
                canonical_key(&extract(&ab)),
                canonical_key(&extract(&ba)),
                "canonical keys diverge after {:?}·{:?} vs {:?}·{:?}",
                a,
                b,
                b,
                a
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Monitor oracle diamond property on the readers/writers program.
    #[test]
    fn monitor_independence_oracle_commutes(
        picks in proptest::collection::vec(0usize..64, 0..40),
    ) {
        use gem::lang::monitor::readers_writers_monitor;
        use gem::problems::readers_writers::rw_program;
        let sys = rw_program(readers_writers_monitor(), 1, 2, false);
        check_oracle_diamond(&sys, &picks, |s| sys.computation(s).expect("acyclic"))?;
    }

    /// Monitor oracle diamond property on the bounded buffer.
    #[test]
    fn monitor_bounded_independence_oracle_commutes(
        picks in proptest::collection::vec(0usize..64, 0..40),
    ) {
        let sys = gem::problems::bounded::monitor_solution(&[1, 2, 3], 2);
        check_oracle_diamond(&sys, &picks, |s| sys.computation(s).expect("acyclic"))?;
    }

    /// CSP oracle diamond property on the bounded buffer.
    #[test]
    fn csp_independence_oracle_commutes(
        picks in proptest::collection::vec(0usize..64, 0..40),
    ) {
        let sys = gem::problems::bounded::csp_solution(&[1, 2, 3], 2);
        check_oracle_diamond(&sys, &picks, |s| sys.computation(s).expect("acyclic"))?;
    }

    /// ADA oracle diamond property on the bounded buffer.
    #[test]
    fn ada_independence_oracle_commutes(
        picks in proptest::collection::vec(0usize..64, 0..40),
    ) {
        let sys = gem::problems::bounded::ada_solution(&[1, 2, 3], 2);
        check_oracle_diamond(&sys, &picks, |s| sys.computation(s).expect("acyclic"))?;
    }
}

/// Builds a small monitor program from raw opcode streams: entries over
/// two monitor variables and two conditions (assignments, signals,
/// waits, guarded branches), processes mixing entry calls, local events,
/// and shared-variable traffic. This is exactly the mix the per-entry
/// footprint oracle must judge — entries touching one variable against
/// script steps touching another, with Hoare signal chains able to run
/// parked continuations of *other* entries within one action.
fn random_monitor_system(
    hoare: bool,
    entry_ops: &[Vec<u8>],
    script_ops: &[Vec<u8>],
) -> gem::lang::monitor::MonitorSystem {
    use gem::lang::monitor::{
        MonitorDef, MonitorProgram, MonitorSystem, ProcessDef, ScriptStep, SignalSemantics, Stmt,
    };
    use gem::lang::Expr;
    let mvar = |op: u8| {
        if (op / 4).is_multiple_of(2) {
            "m0"
        } else {
            "m1"
        }
    };
    let cond = |op: u8| {
        if (op / 8).is_multiple_of(2) {
            "c0"
        } else {
            "c1"
        }
    };
    let svar = |op: u8| {
        if (op / 4).is_multiple_of(2) {
            "s0"
        } else {
            "s1"
        }
    };
    let mut def = MonitorDef::new("Rand")
        .var("m0", 0i64)
        .var("m1", 0i64)
        .condition("c0")
        .condition("c1");
    for (i, ops) in entry_ops.iter().enumerate() {
        let body = ops
            .iter()
            .map(|&op| match op % 4 {
                0 => Stmt::assign(mvar(op), Expr::var(mvar(op)).add(Expr::int(1))),
                1 => Stmt::signal(cond(op)),
                2 => Stmt::if_then(
                    Expr::var(mvar(op)).lt(Expr::int(2)),
                    vec![Stmt::assign(mvar(op), Expr::int(0))],
                ),
                // Waits are rare by construction (one opcode in four) so
                // most sampled prefixes stay live.
                _ => Stmt::wait(cond(op)),
            })
            .collect();
        def = def.entry(format!("E{i}"), &[], body);
    }
    let n_entries = entry_ops.len();
    let mut program = MonitorProgram::new(def)
        .with_semantics(if hoare {
            SignalSemantics::Hoare
        } else {
            SignalSemantics::Mesa
        })
        .shared_var("s0", 0i64)
        .shared_var("s1", 0i64)
        .user_class("Tick", &[]);
    for (p, ops) in script_ops.iter().enumerate() {
        let script = ops
            .iter()
            .map(|&op| match op % 4 {
                0 => ScriptStep::Call {
                    entry: format!("E{}", (op as usize / 4) % n_entries),
                    args: vec![],
                },
                1 => ScriptStep::Event {
                    class: "Tick".into(),
                    params: vec![],
                },
                2 => ScriptStep::ReadShared {
                    var: svar(op).into(),
                },
                _ => ScriptStep::WriteShared {
                    var: svar(op).into(),
                    value: Expr::int(i64::from(op)),
                },
            })
            .collect();
        program = program.process(ProcessDef::new(format!("p{p}"), script));
    }
    MonitorSystem::new(program)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The strengthened per-entry footprint oracle satisfies the
    /// commute-diamond property on *randomized* monitor programs, under
    /// both signal semantics. Every pair of enabled actions the oracle
    /// calls independent at any state along a random schedule must
    /// commute to the same canonical computation — the exact soundness
    /// contract sleep-set POR relies on.
    #[test]
    fn random_monitor_independence_oracle_commutes(
        hoare in (0u8..2).prop_map(|b| b == 1),
        entry_ops in proptest::collection::vec(
            proptest::collection::vec(0u8..32, 1..5), 1..4),
        script_ops in proptest::collection::vec(
            proptest::collection::vec(0u8..32, 1..6), 2..4),
        picks in proptest::collection::vec(0usize..64, 0..30),
    ) {
        let sys = random_monitor_system(hoare, &entry_ops, &script_ops);
        check_oracle_diamond(&sys, &picks, |s| sys.computation(s).expect("acyclic"))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Checking a safety formula over all linearizations agrees with a
    /// brute-force check over all histories for ◻(immediate) formulas.
    #[test]
    fn henceforth_agrees_with_history_enumeration(c in computation_strategy(3, 7)) {
        use gem::logic::{check, holds_on_history, Strategy};
        if c.event_count() < 2 {
            return Ok(());
        }
        let e0 = EventId::from_raw(0);
        let e1 = EventId::from_raw(1);
        let imm = Formula::occurred(e1).implies(Formula::occurred(e0));
        let via_sequences = check(&imm.clone().henceforth(), &c, Strategy::Linearizations { limit: 100_000 })
            .unwrap()
            .holds;
        let mut via_histories = true;
        for_each_history(&c, 100_000, |h| {
            if !holds_on_history(&imm, &c, h).unwrap() {
                via_histories = false;
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        prop_assert_eq!(via_sequences, via_histories);
    }
}

/// An atom over the prefix variables `x` and `y` whose truth does not
/// depend on the history.
fn history_independent_atom() -> BoxedStrategy<Formula> {
    prop_oneof![
        Just(Formula::event_eq("x", "y")),
        (0..3u32, any::<bool>()).prop_map(|(el, on_x)| {
            Formula::at_element(if on_x { "x" } else { "y" }, ElementId::from_raw(el))
        }),
    ]
    .boxed()
}

/// An atom over `x` and `y` that can only become true as the history
/// grows; the quantified ones range over all events.
fn upward_atom() -> BoxedStrategy<Formula> {
    prop_oneof![
        Just(Formula::occurred("x")),
        Just(Formula::occurred("y")),
        Just(Formula::precedes("x", "y")),
        Just(Formula::enables("x", "y")),
        Just(Formula::element_precedes("x", "y")),
        Just(Formula::concurrent("x", "y")),
        Just(Formula::exists(
            "z",
            EventSel::any(),
            Formula::occurred("z").and(Formula::precedes("z", "x")),
        )),
        (0..3u32).prop_map(|el| Formula::forall(
            "z",
            EventSel::at_element(ElementId::from_raw(el)),
            Formula::occurred("z"),
        )),
    ]
    .boxed()
}

/// A `◇` body atom that is not upward-closed, or not accepted as such:
/// a negated occurrence or order atom (also as the left side of `⊃`),
/// `new`, `potential`, `at`, and `∃!`/`⟺` over a history-dependent body.
fn non_upward_atom() -> BoxedStrategy<Formula> {
    prop_oneof![
        upward_atom().prop_map(Formula::not),
        Just(Formula::is_new("x")),
        Just(Formula::potential("y")),
        Just(Formula::at_control("x", EventSel::any())),
        Just(Formula::exists_unique(
            "z",
            EventSel::any(),
            Formula::occurred("z"),
        )),
        upward_atom().prop_map(|a| a.iff(Formula::False)),
        upward_atom().prop_map(|a| a.implies(Formula::False)),
    ]
    .boxed()
}

/// A `◇` body under `∧`/`∨`: upward-closed with `strict`, otherwise
/// about one leaf in three comes from [`non_upward_atom`].
fn eventually_body(strict: bool) -> BoxedStrategy<Formula> {
    let upward = prop_oneof![
        upward_atom(),
        history_independent_atom(),
        history_independent_atom().prop_map(Formula::not),
        (history_independent_atom(), upward_atom()).prop_map(|(a, b)| a.implies(b)),
        Just(Formula::exists_unique(
            "z",
            EventSel::any(),
            Formula::event_eq("z", "x"),
        )),
    ];
    let leaf = if strict {
        upward.boxed()
    } else {
        prop_oneof![upward.clone(), upward, non_upward_atom()].boxed()
    };
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
        ]
    })
    .boxed()
}

/// `Q x Q y · M`, where `M` joins a `◇` to a combination of `◇` bodies
/// and history-independent atoms under `∧`/`∨`/`¬`. Unless `strict`, `M`
/// may also read `occurred` outside the `◇`s, and one in four sits under
/// a `◻`.
fn eventually_restriction(strict: bool) -> BoxedStrategy<Formula> {
    let eventually = || eventually_body(strict).prop_map(Formula::eventually);
    let stable = prop_oneof![eventually(), history_independent_atom()];
    let leaf = if strict {
        stable.boxed()
    } else {
        prop_oneof![stable.clone(), stable, Just(Formula::occurred("x"))].boxed()
    };
    let matrix = leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
        ]
    });
    let matrix = (eventually(), matrix, 0..3u8).prop_map(|(e, m, join)| match join {
        0 => e,
        1 => e.and(m),
        _ => e.not().or(m),
    });
    (any::<bool>(), any::<bool>(), 0..4u8, matrix)
        .prop_map(move |(ex, ey, boxed, m)| {
            let q = |exists: bool, v: &str, body: Formula| {
                if exists {
                    Formula::exists(v, EventSel::any(), body)
                } else {
                    Formula::forall(v, EventSel::any(), body)
                }
            };
            let f = q(ex, "x", q(ey, "y", m));
            if boxed == 0 && !strict {
                f.henceforth()
            } else {
                f
            }
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A restriction `compile` judges at the leaf has one value on every
    /// history sequence, so the full-history evaluation the incremental
    /// checker runs equals the batch verdict, under exact step sequences
    /// and under linearizations. Upward-closed `◇` bodies with
    /// history-independent atoms around them are always accepted.
    #[test]
    fn history_stable_leaf_matches_batch(
        c in computation_strategy(3, 5),
        (strict, f) in any::<bool>()
            .prop_flat_map(|strict| (Just(strict), eventually_restriction(strict))),
    ) {
        use gem::logic::incr::compile;
        use gem::logic::{check, Strategy};
        let leaf = compile(&f).is_ok_and(|compiled| compiled.is_leaf());
        prop_assert!(leaf || !strict, "an upward-closed restriction was rejected: {f:?}");
        if !leaf {
            return Ok(());
        }
        let full = holds_on_computation(&f, &c).unwrap();
        for strategy in [
            Strategy::StepSequences { limit: 50_000 },
            Strategy::Linearizations { limit: 50_000 },
        ] {
            let batch = check(&f, &c, strategy).unwrap();
            prop_assert!(batch.exhaustive, "{strategy:?} truncated");
            prop_assert_eq!(batch.holds, full, "{:?} disagrees on {:?}", strategy, f);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Knuth's weighted-backtrack estimator is unbiased on the real run
    /// trees: on fully-enumerable bounded-buffer instances every
    /// `Explorer::sample_run` probe must (a) replay exactly — its
    /// `tree_product` is the product of the enabled-action counts along
    /// its own path and the path is a maximal run — and (b) feed a
    /// `KnuthEstimator` whose deterministic seed-sweep mean lands within
    /// 2× of the exact run count from the exhaustive sweep. The seeds
    /// are fixed, so the statistical bound is reproducible, not flaky.
    #[test]
    fn knuth_probe_unbiased_on_enumerable_trees(
        items in 1usize..=3,
        cap in 1usize..=2,
    ) {
        use gem::lang::{Explorer, System};
        use gem::obs::KnuthEstimator;
        let values = [1i64, 2, 3];
        let sys = gem::problems::bounded::monitor_solution(&values[..items], cap);
        let explorer = Explorer::default();
        let mut exact = 0usize;
        explorer.for_each_run(&sys, |_, _| {
            exact += 1;
            ControlFlow::Continue(())
        });
        prop_assert!(exact > 0);

        let mut est = KnuthEstimator::new();
        for seed in 0..256u64 {
            let sample = explorer.sample_run(&sys, seed);
            prop_assert!(!sample.depth_limited, "tiny instance hit the depth cap");

            // Replay: the recorded product is exactly the branching
            // product along the sampled path, every action was enabled
            // when taken, and the walk stopped only at a terminal state.
            let mut state = sys.initial();
            let mut product = 1.0f64;
            for action in &sample.path {
                let enabled = sys.enabled(&state);
                prop_assert!(
                    enabled.iter().any(|a| format!("{a:?}") == format!("{action:?}")),
                    "sampled action {action:?} not enabled"
                );
                product *= enabled.len() as f64;
                sys.apply(&mut state, action);
            }
            prop_assert!(sys.enabled(&state).is_empty(), "sampled run not maximal");
            prop_assert!((product - sample.tree_product).abs() < 1e-9);

            est.record(sample.tree_product);
        }
        prop_assert_eq!(est.samples(), 256);
        let mean = est.estimate().expect("samples recorded");
        let exact = exact as f64;
        prop_assert!(
            mean >= exact / 2.0 && mean <= exact * 2.0,
            "Knuth estimate {} vs exact {} run(s)", mean, exact
        );
    }
}

/// A computation grown as a simulation grows one: every edge points from
/// an earlier event to a later one. Up to three elements `P0..P2` carry
/// the classes `A(v)` and `B(v)`, with `v` in `0..3`.
fn grown_computation(max_ev: usize) -> impl Strategy<Value = Computation> {
    (1..=max_ev).prop_flat_map(|n_ev| {
        let events = proptest::collection::vec((0..3usize, 0..2usize, 0..3i64), n_ev);
        let edges = proptest::collection::vec((0..n_ev, 0..n_ev), 0..n_ev * 3);
        (events, edges).prop_map(|(events, edges)| {
            let mut s = Structure::new();
            let classes = [
                s.add_class("A", &["v"]).expect("class"),
                s.add_class("B", &["v"]).expect("class"),
            ];
            let els: Vec<_> = (0..3)
                .map(|i| s.add_element(format!("P{i}"), &classes).expect("element"))
                .collect();
            let mut b = ComputationBuilder::new(s);
            let ids: Vec<_> = events
                .iter()
                .map(|&(el, cl, v)| {
                    b.add_event(els[el], classes[cl], [gem::core::Value::Int(v)])
                        .expect("event")
                })
                .collect();
            for (x, y) in edges {
                if x < y {
                    b.enable(ids[x], ids[y]).expect("edge");
                }
            }
            b.seal().expect("forward edges are acyclic")
        })
    })
}

/// The computation of the first `n` events of `c` and the edges among
/// them: the prefix a simulation had built when event `n - 1` arrived.
fn prefix_of(c: &Computation, n: usize) -> Computation {
    let mut b = ComputationBuilder::new(c.structure_arc());
    for e in &c.events()[..n] {
        b.add_event(e.element(), e.class(), e.params().to_vec())
            .expect("event");
    }
    for from in (0..n).map(|i| EventId::from_raw(i as u32)) {
        for &to in c.enabled_from(from) {
            if to.index() < n {
                b.enable(from, to).expect("edge");
            }
        }
    }
    b.seal().expect("a prefix of an acyclic computation")
}

/// A selector of [`grown_computation`]'s events.
fn grown_sel() -> BoxedStrategy<EventSel> {
    let class = |i: u32| ClassId::from_raw(i);
    prop_oneof![
        Just(EventSel::any()),
        (0..2u32).prop_map(move |c| EventSel::of_class(class(c))),
        (0..3u32).prop_map(|e| EventSel::at_element(ElementId::from_raw(e))),
        (0..2u32, 0..3u32)
            .prop_map(move |(c, e)| EventSel::of_class(class(c)).at(ElementId::from_raw(e))),
    ]
    .boxed()
}

/// A leaf conjunct of one of the settleable shapes (a)–(d) of
/// `gem_logic::incr` over [`grown_computation`]'s events.
fn settleable_conjunct() -> BoxedStrategy<Formula> {
    use gem::logic::{CmpOp, EventTerm, ValueTerm};
    let nth = |el: u32, k: usize| EventTerm::NthAt(ElementId::from_raw(el), k);
    let v = |t: EventTerm| ValueTerm::param(t, "v");
    let ground = (0..4u8, 0..3u32, 0..3usize, 0..3u32, 0..3usize, grown_sel()).prop_map(
        move |(shape, e1, k1, e2, k2, sel)| {
            let (a, b) = (nth(e1, k1), nth(e2, k2));
            match shape {
                0 => Formula::occurred(a.clone()).implies(Formula::precedes(b, a)),
                1 => Formula::occurred(a.clone())
                    .implies(Formula::occurred(b.clone()).and(Formula::value_eq(v(b), v(a)))),
                2 => Formula::occurred(a.clone()).implies(Formula::exists(
                    "y",
                    sel,
                    Formula::enables("y", a),
                )),
                _ => Formula::concurrent(a, b).not(),
            }
        },
    );
    let per_binding = (0..5u8, grown_sel(), grown_sel()).prop_map(move |(shape, sx, sy)| {
        let var = |s: &str| EventTerm::Var(s.to_owned());
        match shape {
            0 => Formula::forall(
                "x",
                sx,
                Formula::occurred("x").implies(Formula::exists_unique(
                    "y",
                    sy,
                    Formula::enables("y", "x"),
                )),
            ),
            1 => Formula::forall(
                "x",
                sx,
                Formula::exists(
                    "y",
                    sy,
                    Formula::element_precedes("y", "x")
                        .and(Formula::value_eq(v(var("y")), v(var("x")))),
                ),
            ),
            2 => Formula::forall(
                "x",
                sx,
                Formula::exists(
                    "y",
                    EventSel::any(),
                    Formula::matches("y", sy)
                        .and(Formula::precedes("y", "x"))
                        .and(
                            Formula::exists(
                                "z",
                                EventSel::any(),
                                Formula::precedes("z", "x").and(Formula::precedes("y", "z")),
                            )
                            .not(),
                        ),
                ),
            ),
            3 => Formula::forall(
                "x",
                sx,
                Formula::forall("y", sy, Formula::concurrent("x", "y").not()),
            ),
            _ => Formula::forall(
                "x",
                sx,
                Formula::forall(
                    "y",
                    sy,
                    Formula::enables("y", "x").implies(Formula::value_cmp(
                        CmpOp::Le,
                        v(var("y")),
                        v(var("x")),
                    )),
                ),
            ),
        }
    });
    let per_enabler = (any::<bool>(), grown_sel(), grown_sel()).prop_map(move |(eq, ss, st)| {
        let var = |s: &str| EventTerm::Var(s.to_owned());
        let edge = Formula::enables("s", "t");
        let body = if eq {
            edge.and(Formula::value_eq(v(var("t")), v(var("s"))))
        } else {
            edge
        };
        Formula::forall("s", ss, Formula::at_most_one("t", st, body))
    });
    prop_oneof![ground, per_binding, per_enabler].boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Wherever the checker settles a leaf conjunct event by event, the
    /// judgements made on the growing prefixes hold exactly when the
    /// conjunct holds of the complete computation. A ground conjunct
    /// whose events never all arrive is left to the leaf, unjudged.
    #[test]
    fn settled_leaf_conjuncts_match_the_complete_computation(
        c in grown_computation(7),
        f in settleable_conjunct(),
    ) {
        use gem::logic::incr::{compile, Compiled, Settle};
        let compiled = compile(&f);
        prop_assert!(matches!(compiled, Ok(Compiled::Leaf(_))), "{:?}", f);
        let Ok(Compiled::Leaf(plan)) = compiled else { unreachable!() };
        prop_assert_eq!(plan.conjuncts().len(), 1);
        let conjunct = &plan.conjuncts()[0];
        prop_assert!(conjunct.settle() != &Settle::AtLeaf, "{:?} stays at the leaf", f);
        let (mut holds, mut judged) = (true, 0);
        for n in 1..=c.event_count() {
            let prefix = prefix_of(&c, n);
            holds &= conjunct.judge_event(&prefix, n - 1, &mut judged) == Ok(true);
        }
        if conjunct.settled(&c) {
            let full = holds_on_computation(&f, &c) == Ok(true);
            prop_assert_eq!(holds, full, "{:?}", f);
            prop_assert_eq!(plan.unsettled(&c).count(), 0);
        } else {
            prop_assert!(matches!(conjunct.settle(), Settle::Ground(_)), "{:?}", f);
            prop_assert_eq!(judged, 0);
            prop_assert_eq!(plan.unsettled(&c).count(), 1);
        }
    }

    /// A quantifier whose witnesses can still arrive, and a `◇` body,
    /// keep the conjunct at the leaf whatever the selectors.
    #[test]
    fn future_anchored_conjuncts_stay_at_the_leaf(
        sx in grown_sel(),
        sy in grown_sel(),
        shape in 0..3u8,
    ) {
        use gem::logic::incr::{compile, Compiled, Settle};
        let f = match shape {
            0 => Formula::forall("x", sx, Formula::exists("y", sy, Formula::enables("x", "y"))),
            1 => Formula::forall(
                "x",
                sx,
                Formula::exists("y", sy, Formula::enables("y", "x")).eventually(),
            ),
            _ => Formula::forall(
                "s",
                sx,
                Formula::at_most_one("t", sy, Formula::precedes("s", "t")),
            ),
        };
        let compiled = compile(&f);
        prop_assert!(matches!(compiled, Ok(Compiled::Leaf(_))), "{:?}", f);
        let Ok(Compiled::Leaf(plan)) = compiled else { unreachable!() };
        prop_assert_eq!(plan.conjuncts()[0].settle(), &Settle::AtLeaf);
    }
}
