//! [`TimedSystem`]: a transparent [`System`] wrapper that counts and times
//! every call the explorer makes into a simulator.

use std::cell::Cell;
use std::time::{Duration, Instant};

use gem_core::ComputationBuilder;
use gem_lang::System;

/// Nanoseconds in `d`, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Calls made to one simulator method and the time they took.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Tally {
    /// Number of calls.
    pub calls: u64,
    /// Summed wall time of the calls, in nanoseconds.
    pub ns: u64,
}

impl Tally {
    /// Mean nanoseconds per call, or 0 without calls.
    pub fn ns_per_call(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// The tallies of one [`TimedSystem`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SimTallies {
    /// `System::enabled`.
    pub enabled: Tally,
    /// `System::apply` (the step, the builder append, the incremental
    /// order and the fingerprint).
    pub apply: Tally,
    /// `System::checkpoint`.
    pub checkpoint: Tally,
    /// `System::undo`.
    pub undo: Tally,
    /// `System::independent`, the POR oracle.
    pub independent: Tally,
    /// Oracle queries answered "independent".
    pub grants: u64,
}

impl SimTallies {
    /// The five timed methods, by trace name.
    pub fn methods(&self) -> [(&'static str, Tally); 5] {
        [
            ("lang.sim.enabled", self.enabled),
            ("lang.sim.apply", self.apply),
            ("lang.sim.checkpoint", self.checkpoint),
            ("lang.sim.undo", self.undo),
            ("lang.sim.independent", self.independent),
        ]
    }
}

impl std::ops::AddAssign for SimTallies {
    fn add_assign(&mut self, o: SimTallies) {
        self.enabled += o.enabled;
        self.apply += o.apply;
        self.checkpoint += o.checkpoint;
        self.undo += o.undo;
        self.independent += o.independent;
        self.grants += o.grants;
    }
}

/// Wraps a system, delegating every [`System`] method to it unchanged and
/// tallying `enabled`, `apply`, `checkpoint`, `undo` and `independent`.
pub struct TimedSystem<'a, S> {
    inner: &'a S,
    tallies: Cell<SimTallies>,
}

impl<'a, S: System> TimedSystem<'a, S> {
    /// Wraps `inner` with zeroed tallies.
    pub fn new(inner: &'a S) -> Self {
        TimedSystem {
            inner,
            tallies: Cell::new(SimTallies::default()),
        }
    }

    /// The tallies so far.
    pub fn tallies(&self) -> SimTallies {
        self.tallies.get()
    }

    fn timed<R>(&self, pick: fn(&mut SimTallies) -> &mut Tally, call: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = call();
        let elapsed = ns(t0.elapsed());
        let mut t = self.tallies.get();
        let tally = pick(&mut t);
        tally.calls += 1;
        tally.ns += elapsed;
        self.tallies.set(t);
        r
    }
}

impl<S: System> System for TimedSystem<'_, S> {
    type State = S::State;
    type Action = S::Action;
    type Checkpoint = S::Checkpoint;

    fn initial(&self) -> S::State {
        self.inner.initial()
    }

    fn enabled(&self, state: &S::State) -> Vec<S::Action> {
        self.timed(|t| &mut t.enabled, || self.inner.enabled(state))
    }

    fn apply(&self, state: &mut S::State, action: &S::Action) {
        self.timed(|t| &mut t.apply, || self.inner.apply(state, action));
    }

    fn is_complete(&self, state: &S::State) -> bool {
        self.inner.is_complete(state)
    }

    fn control_key(&self, state: &S::State) -> Option<u64> {
        self.inner.control_key(state)
    }

    fn checkpoint(&self, state: &S::State) -> Option<S::Checkpoint> {
        self.timed(|t| &mut t.checkpoint, || self.inner.checkpoint(state))
    }

    fn undo(&self, state: &mut S::State, checkpoint: S::Checkpoint) {
        self.timed(|t| &mut t.undo, || self.inner.undo(state, checkpoint));
    }

    fn independent(&self, state: &S::State, a: &S::Action, b: &S::Action) -> bool {
        let granted = self.timed(
            |t| &mut t.independent,
            || self.inner.independent(state, a, b),
        );
        if granted {
            let mut t = self.tallies.get();
            t.grants += 1;
            self.tallies.set(t);
        }
        granted
    }

    fn trace_builder<'b>(&self, state: &'b S::State) -> Option<&'b ComputationBuilder> {
        self.inner.trace_builder(state)
    }
}
