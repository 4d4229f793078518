//! Sweeps run on the calling thread, so a `System` needs neither `Sync`
//! nor a `Send` state or action: a state holding an `Rc` can be verified
//! and searched for deadlocks like any other.

use std::cell::Cell;
use std::ops::ControlFlow;
use std::rc::Rc;

use gem::core::ComputationBuilder;
use gem::lang::{find_deadlock, Explorer, System};
use gem::obs::NoopProbe;
use gem::problems::{one_slot, philosophers};
use gem::verify::{verify_system, VerifyOptions};

/// Wraps a system so that its state also holds an `Rc`, shared by every
/// clone of one sweep's initial state, that counts the applied actions.
struct Counted<S>(S);

#[derive(Clone)]
struct CountedState<T> {
    inner: T,
    applies: Rc<Cell<usize>>,
}

impl<S: System> System for Counted<S> {
    type State = CountedState<S::State>;
    type Action = S::Action;
    type Checkpoint = S::Checkpoint;

    fn initial(&self) -> Self::State {
        CountedState {
            inner: self.0.initial(),
            applies: Rc::default(),
        }
    }

    fn enabled(&self, state: &Self::State) -> Vec<S::Action> {
        self.0.enabled(&state.inner)
    }

    fn apply(&self, state: &mut Self::State, action: &S::Action) {
        state.applies.set(state.applies.get() + 1);
        self.0.apply(&mut state.inner, action);
    }

    fn is_complete(&self, state: &Self::State) -> bool {
        self.0.is_complete(&state.inner)
    }

    fn control_key(&self, state: &Self::State) -> Option<u64> {
        self.0.control_key(&state.inner)
    }

    fn checkpoint(&self, state: &Self::State) -> Option<S::Checkpoint> {
        self.0.checkpoint(&state.inner)
    }

    fn undo(&self, state: &mut Self::State, checkpoint: S::Checkpoint) {
        self.0.undo(&mut state.inner, checkpoint);
    }

    fn independent(&self, state: &Self::State, a: &S::Action, b: &S::Action) -> bool {
        self.0.independent(&state.inner, a, b)
    }

    fn trace_builder<'a>(&self, state: &'a Self::State) -> Option<&'a ComputationBuilder> {
        self.0.trace_builder(&state.inner)
    }
}

#[test]
fn a_state_holding_an_rc_can_be_verified() {
    let spec = one_slot::one_slot_spec();
    let plain = one_slot::monitor_solution(&[1, 2, 3]);
    let corr = one_slot::monitor_correspondence(&plain, &spec);
    let options = VerifyOptions::default();
    let want = verify_system(
        &plain,
        &spec,
        &corr,
        |s| plain.computation(s).expect("acyclic"),
        &options,
    )
    .expect("projection");
    let counted = Counted(one_slot::monitor_solution(&[1, 2, 3]));
    let got = verify_system(
        &counted,
        &spec,
        &corr,
        |s| counted.0.computation(&s.inner).expect("acyclic"),
        &options,
    )
    .expect("projection");
    assert!(want.ok(), "{want}");
    assert_eq!(want, got);

    // The `Rc` really travels with the state: every clone of the sweep's
    // state counts into it, and it ends at the sweep's step count.
    let mut applies = None;
    let stats = Explorer::default().for_each_run(&counted, |state, _| {
        applies.get_or_insert_with(|| state.applies.clone());
        ControlFlow::Continue(())
    });
    assert_eq!(applies.expect("a run").get(), stats.steps);
}

#[test]
fn a_state_holding_an_rc_can_be_searched_for_deadlocks() {
    let order = philosophers::ForkOrder::Naive;
    let pruned = Explorer {
        prune: true,
        ..Explorer::default()
    };
    for explorer in [Explorer::default(), pruned] {
        let want = find_deadlock(
            &philosophers::philosophers_program(2, 1, order),
            &explorer,
            &NoopProbe,
        );
        let got = find_deadlock(
            &Counted(philosophers::philosophers_program(2, 1, order)),
            &explorer,
            &NoopProbe,
        );
        assert!(want.is_some(), "naive philosophers deadlock");
        assert_eq!(want, got);
    }
}
