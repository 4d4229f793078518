//! Bounded exhaustive exploration of a concurrent system's schedules.
//!
//! The verification methodology of §9 requires quantifying over the legal
//! computations of a program specification. The substrates in this crate
//! (Monitor, CSP, ADA) generate a GEM computation per *schedule*; this
//! module enumerates all schedules up to configurable bounds — the
//! machine-checked stand-in for the paper's hand proofs (see DESIGN.md).
//!
//! A [`System`] exposes its nondeterminism as a set of enabled actions per
//! state; [`Explorer::for_each_run`] drives a depth-first search over all
//! maximal action sequences on the calling thread, one node at a time:
//! the control-key prune check and run cap at node entry, the `enabled`
//! scan, the leaf and depth-limit decision, the sleep-set partition, the
//! step cap before each edge, the child-sleep filter and the
//! checkpoint-or-clone edge. No state pruning is performed by default:
//! restrictions depend on the *computation* (the full event past), so two
//! schedules reaching the same control state must still both be checked.
//! A state-hash pruning mode is available for pure state properties such
//! as deadlock-freedom (the ablation of DESIGN.md §4).
//!
//! Two opt-in fast paths cut the cost of the default full sweep without
//! giving up its guarantees. Systems that implement
//! [`System::checkpoint`]/[`System::undo`] let the walk mutate one shared
//! state along the schedule and roll it back on backtrack, instead of
//! cloning the whole accumulated trace per edge. The three substrate
//! simulators do so without heap traffic: a step saves the control state
//! it changes into a slot kept per depth, the trace builder rolls back to
//! a mark and keeps the parameter vectors of the events it drops, and
//! string parameters are shared, so once a depth has been reached the
//! step, its checkpoint and its undo allocate nothing. What a sweep still
//! allocates is about one `enabled` vector per node.
//!
//! The other opt-in, [`Explorer::reduce`], uses classic *sleep sets*
//! (Godefroid) over the substrate's [`System::independent`] oracle to
//! avoid *exploring* redundant interleavings at all — roughly one
//! representative schedule per sealed computation. Unlike control-state
//! pruning this is sound for trace properties, because two schedules
//! sealing to the same computation satisfy exactly the same restrictions
//! (the Mazurkiewicz-trace view — see docs/PERFORMANCE.md), but run
//! counts shrink: [`ExploreStats`] reports the representatives explored
//! (`por_runs`) and the branches pruned (`sleep_skipped`).

use std::collections::HashSet;
use std::fmt;
use std::ops::ControlFlow;
use std::time::Instant;

use gem_obs::{ambient, NoopProbe, Probe};
use rand::Rng;

/// Records one `enabled`-scan width sample (`explore.step.enabled_width`)
/// on the ambient probe. Substrate simulators call this from
/// [`System::enabled`] for non-empty scans only, so the histogram counts
/// the nodes that branch and leaves out the dead ends.
pub(crate) fn record_enabled_width(n: usize) {
    if n > 0 {
        ambient::record("explore.step.enabled_width", n as u64);
    }
}

/// Starts an apply-cost measurement, timestamping only when an ambient
/// probe that wants timings is installed somewhere (one relaxed atomic
/// load otherwise).
pub(crate) fn apply_timer() -> Option<Instant> {
    ambient::timings_active().then(Instant::now)
}

/// Finishes an apply-cost measurement started by [`apply_timer`]: one
/// `explore.step.apply_ns` histogram sample per applied edge.
pub(crate) fn record_apply_ns(t0: Option<Instant>) {
    if let Some(t0) = t0 {
        ambient::record(
            "explore.step.apply_ns",
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
    }
}

/// Records one checkpoint-rewind depth sample
/// (`explore.step.undo_depth`): how many trace events a [`System::undo`]
/// rolled back. A sweep undoes every edge it applies on the checkpoint
/// fast path, so there is one sample per such edge.
pub(crate) fn record_undo_depth(events_truncated: usize) {
    ambient::record("explore.step.undo_depth", events_truncated as u64);
}

/// A concurrent system driven by scheduler choices.
pub trait System {
    /// Full system state, including the event trace being accumulated.
    type State: Clone;
    /// One scheduler choice. `PartialEq` is required so sleep sets can
    /// match actions across sibling branches of the DFS.
    type Action: Clone + PartialEq + std::fmt::Debug;
    /// Rollback point for the opt-in apply/undo fast path: whatever
    /// [`System::undo`] needs to roll one [`System::apply`] back. Systems
    /// without the fast path use `()`.
    type Checkpoint;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// The actions enabled in `state`. An empty result means the run is
    /// over (completed or deadlocked).
    fn enabled(&self, state: &Self::State) -> Vec<Self::Action>;

    /// Applies `action` to `state`.
    fn apply(&self, state: &mut Self::State, action: &Self::Action);

    /// True if `state` is a proper terminal state (all processes
    /// finished). A state with no enabled actions that is *not* complete
    /// is a deadlock.
    fn is_complete(&self, state: &Self::State) -> bool;

    /// Optional hash of the *control* state (excluding the trace), used
    /// only by pruning exploration. `None` (the default) disables pruning
    /// for this system.
    fn control_key(&self, _state: &Self::State) -> Option<u64> {
        None
    }

    /// Marks the point that [`System::undo`] rolls the next
    /// [`System::apply`] on `state` back to. Returning `Some` opts the
    /// system into the exploration fast path that mutates a single shared
    /// state along the schedule instead of cloning the accumulated trace
    /// per DFS edge; `None` (the default) keeps the clone-per-edge path.
    ///
    /// A checkpoint need not carry the state it restores. The substrate
    /// simulators return the trace builder's mark plus a depth and hold
    /// no heap data: their `apply` saves the control state it is about to
    /// change into a slot of the state kept for that depth, and `undo`
    /// truncates the builder and swaps the slot back in.
    ///
    /// The contract: for every state `s` and enabled action `a`,
    /// `checkpoint(s)` then `apply(s, a)`, any balanced
    /// checkpoint/apply/undo below it, then `undo(s, cp)` must leave `s`
    /// observably identical to a clone taken before the checkpoint (same
    /// `enabled`, `is_complete`, `control_key`, trace builder and
    /// extracted computation). A clone honours the contract on its own,
    /// whatever happens to the state it was cloned from.
    fn checkpoint(&self, _state: &Self::State) -> Option<Self::Checkpoint> {
        None
    }

    /// Rolls back the single [`System::apply`] performed since
    /// `checkpoint` was taken. Only called with a checkpoint this system
    /// returned, so systems that never return `Some` can leave the
    /// default (which panics).
    fn undo(&self, _state: &mut Self::State, _checkpoint: Self::Checkpoint) {
        unreachable!("System::undo called without System::checkpoint support")
    }

    /// Independence oracle for partial-order reduction
    /// ([`Explorer::reduce`]). Must return `true` only if `a` and `b` are
    /// both enabled in `state` and *commute there*: neither disables the
    /// other, and executing `a·b` and `b·a` from `state` yields the same
    /// state and computations with equal canonical keys (equivalently:
    /// the two orders emit the same per-element event sequences). The
    /// explorer only calls this with two distinct actions both enabled in
    /// `state`.
    ///
    /// Claiming independence for a dependent pair is **unsound** (runs
    /// whose computations are genuinely distinct get pruned); answering
    /// `false` is always safe. The default is maximally conservative —
    /// nothing commutes — which makes [`Explorer::reduce`] a no-op for
    /// systems that do not implement the oracle.
    fn independent(&self, _state: &Self::State, _a: &Self::Action, _b: &Self::Action) -> bool {
        false
    }

    /// The computation builder accumulating `state`'s event trace, if
    /// this system grows its trace in a [`gem_core::ComputationBuilder`]
    /// whose edges always target the newest event. Exposing it lets
    /// incremental observers (prefix-sharing restriction checkers, see
    /// `gem_verify`) read the computation-under-construction and its undo
    /// journals without sealing; `None` (the default) keeps such
    /// observers on their batch path.
    fn trace_builder<'a>(
        &self,
        _state: &'a Self::State,
    ) -> Option<&'a gem_core::ComputationBuilder> {
        None
    }
}

/// Why an exploration stopped short of the full schedule space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TruncationReason {
    /// The [`Explorer::max_runs`] cap stopped the search.
    RunLimit,
    /// The [`Explorer::max_steps`] cap stopped the search.
    StepLimit,
    /// At least one run was cut off at [`Explorer::max_depth`]; the
    /// search itself ran to completion but those runs are not maximal.
    DepthLimit,
}

impl fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::RunLimit => "run limit",
            Self::StepLimit => "step limit",
            Self::DepthLimit => "depth limit",
        })
    }
}

impl TruncationReason {
    /// Stable machine-readable name, used as a probe counter suffix.
    pub fn key(self) -> &'static str {
        match self {
            Self::RunLimit => "run_limit",
            Self::StepLimit => "step_limit",
            Self::DepthLimit => "depth_limit",
        }
    }
}

/// Statistics from an exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExploreStats {
    /// Number of maximal runs visited.
    pub runs: usize,
    /// Total actions applied across all runs.
    pub steps: usize,
    /// Why the search was cut short, or `None` if it was exhaustive.
    /// A run-limit or step-limit stop supersedes a depth-limit flag.
    pub truncation: Option<TruncationReason>,
    /// Runs reported at the depth limit while actions were still enabled.
    pub depth_limited_runs: usize,
    /// Longest run prefix reached (the DFS depth high-water mark).
    pub max_depth_seen: usize,
    /// States skipped by control-key pruning (already seen).
    pub prune_hits: usize,
    /// States admitted by control-key pruning (seen for the first time).
    pub prune_misses: usize,
    /// Enabled actions skipped because they were in the sleep set
    /// (branches pruned by partial-order reduction; always zero unless
    /// [`Explorer::reduce`] is on and the system's oracle claims some
    /// independence).
    pub sleep_skipped: usize,
    /// Independence-oracle queries answered "independent" while
    /// filtering child sleep sets (zero unless [`Explorer::reduce`]).
    /// The grant rate is the per-instance signal for how much structure
    /// the oracle certifies — a denial-heavy instance cannot reduce.
    pub oracle_grants: usize,
    /// Independence-oracle queries answered "dependent".
    pub oracle_denials: usize,
    /// Maximal runs visited while [`Explorer::reduce`] was on — each one
    /// a representative linearization of its computation. Equal to `runs`
    /// under reduction, zero otherwise; kept separate so mixed reports
    /// stay unambiguous.
    pub por_runs: usize,
}

impl ExploreStats {
    /// True if any bound cut the exploration short.
    pub fn truncated(&self) -> bool {
        self.truncation.is_some()
    }
}

impl fmt::Display for ExploreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} run(s), {} step(s), max depth {}",
            self.runs, self.steps, self.max_depth_seen
        )?;
        if self.prune_hits > 0 || self.prune_misses > 0 {
            write!(
                f,
                ", pruned {}/{}",
                self.prune_hits,
                self.prune_hits + self.prune_misses
            )?;
        }
        if self.sleep_skipped > 0 || self.por_runs > 0 {
            write!(
                f,
                ", POR: {} representative(s), {} branch(es) slept",
                self.por_runs, self.sleep_skipped
            )?;
        }
        if self.oracle_grants + self.oracle_denials > 0 {
            write!(
                f,
                ", oracle {}/{} independent",
                self.oracle_grants,
                self.oracle_grants + self.oracle_denials
            )?;
        }
        if self.depth_limited_runs > 0 {
            write!(f, ", {} depth-limited run(s)", self.depth_limited_runs)?;
        }
        match self.truncation {
            Some(reason) => write!(f, " [truncated: {reason}]"),
            None => write!(f, " [exhaustive]"),
        }
    }
}

/// Bounded depth-first exploration of all schedules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Explorer {
    /// Maximum number of maximal runs to visit.
    pub max_runs: usize,
    /// Maximum total actions across the whole search (a wall against
    /// exponential blowup that `max_runs` alone cannot bound, since one
    /// run may be arbitrarily long). `usize::MAX` disables the cap.
    pub max_steps: usize,
    /// Maximum actions per run (a safety net against unbounded systems).
    pub max_depth: usize,
    /// If true, prune states already seen (by [`System::control_key`]);
    /// sound only for state properties, not trace properties.
    pub prune: bool,
    /// Read by nothing: every sweep runs serially on the calling thread.
    /// The field is left over from the removed parallel explorer (`gem
    /// --jobs`) and stays only so struct literals that still set it
    /// compile; it goes once none do.
    pub jobs: usize,
    /// Read by nothing: every leaf is judged by the incremental checker or
    /// by seal → project → check. The field is left over from the removed
    /// computation-level deduplication and stays only so struct literals
    /// that still set it compile; it goes once none do.
    pub dedup_computations: bool,
    /// If true, apply sleep-set partial-order reduction: branches whose
    /// action is in the sleep set (already covered, up to commutations
    /// certified by [`System::independent`], by an earlier sibling) are
    /// not explored at all. Sound for computation-level verdicts — every
    /// sealed computation still gets at least one representative run —
    /// but run counts and representative schedules change, so drivers
    /// comparing raw run sequences should leave it off. A no-op (beyond
    /// bookkeeping) for systems with the conservative default oracle.
    pub reduce: bool,
}

impl Default for Explorer {
    fn default() -> Self {
        Self {
            max_runs: 1_000_000,
            max_steps: usize::MAX,
            max_depth: 10_000,
            prune: false,
            jobs: 1,
            dedup_computations: false,
            reduce: false,
        }
    }
}

impl Explorer {
    /// Creates an explorer with the given run limit and default depth.
    pub fn with_max_runs(max_runs: usize) -> Self {
        Self {
            max_runs,
            ..Self::default()
        }
    }

    /// Visits every maximal run of `sys` (up to the bounds), calling
    /// `visit` with the terminal state and the action sequence that led
    /// there. The visitor may abort exploration early.
    pub fn for_each_run<S: System>(
        &self,
        sys: &S,
        visit: impl FnMut(&S::State, &[S::Action]) -> ControlFlow<()>,
    ) -> ExploreStats {
        self.for_each_run_probed(sys, &NoopProbe, visit)
    }

    /// [`Explorer::for_each_run`] with instrumentation: `probe` receives
    /// `explore.runs` / `explore.steps` counters batched once per maximal
    /// run (never per step), pruning hit/miss counts, the DFS depth
    /// high-water mark, and the truncation cause. With [`NoopProbe`] the
    /// overhead is one virtual call per run.
    pub fn for_each_run_probed<S: System>(
        &self,
        sys: &S,
        probe: &dyn Probe,
        visit: impl FnMut(&S::State, &[S::Action]) -> ControlFlow<()>,
    ) -> ExploreStats {
        let mut sweep = Sweep {
            explorer: self,
            sys,
            probe,
            visit,
            stats: ExploreStats::default(),
            seen: HashSet::new(),
            flushed_steps: 0,
        };
        let _ = sweep.walk(&mut sys.initial(), &mut Vec::new(), &mut Vec::new(), 0);
        sweep.finish()
    }

    /// Runs one random schedule to completion (or the depth bound),
    /// returning the terminal state and the actions taken.
    pub fn random_run<S: System>(&self, sys: &S, rng: &mut impl Rng) -> (S::State, Vec<S::Action>) {
        let (state, path, _) = self.descend(sys, |n| rng.gen_range(0..n));
        (state, path)
    }

    /// Walks one uniformly random root-to-leaf schedule — a *Knuth
    /// probe* — recording the product of the branching factors (number
    /// of enabled actions) seen along the way. Over uniformly random
    /// descents the expectation of that product is exactly the number of
    /// maximal runs, so feeding `tree_product` from repeated samples
    /// into `gem_obs::KnuthEstimator` estimates the run-tree size
    /// without enumerating it.
    ///
    /// Deterministic in `seed` (a private SplitMix64 stream, independent
    /// of the `rand` shim), and emits nothing through any probe: callers
    /// sample *before* a sweep without perturbing its report.
    pub fn sample_run<S: System>(&self, sys: &S, seed: u64) -> RunSample<S> {
        let mut rng = gem_obs::estimate::SplitMix64::new(seed);
        let mut tree_product = 1.0f64;
        let (state, path, depth_limited) = self.descend(sys, |n| {
            tree_product *= n as f64;
            rng.below(n)
        });
        RunSample {
            state,
            path,
            tree_product,
            depth_limited,
        }
    }

    /// One schedule from the initial state, taking the action at index
    /// `pick(n)` among the `n` enabled ones until none is enabled or the
    /// depth bound is reached. Returns the terminal state, the actions
    /// taken, and whether the depth bound cut the run short.
    fn descend<S: System>(
        &self,
        sys: &S,
        mut pick: impl FnMut(usize) -> usize,
    ) -> (S::State, Vec<S::Action>, bool) {
        let mut state = sys.initial();
        let mut path = Vec::new();
        loop {
            let actions = sys.enabled(&state);
            if actions.is_empty() {
                return (state, path, false);
            }
            if path.len() >= self.max_depth {
                return (state, path, true);
            }
            let action = actions[pick(actions.len())].clone();
            sys.apply(&mut state, &action);
            path.push(action);
        }
    }
}

/// One sampled schedule ([`Explorer::sample_run`]): where it ended, how
/// it got there, and its Knuth sample of the run count.
pub struct RunSample<S: System> {
    /// Terminal (or depth-capped) state of the sampled schedule.
    pub state: S::State,
    /// The actions taken, in order.
    pub path: Vec<S::Action>,
    /// Product of the branching factors along the path — one unbiased
    /// Knuth sample of the number of maximal runs.
    pub tree_product: f64,
    /// True if the walk was cut at [`Explorer::max_depth`] with actions
    /// still enabled (the product then underestimates).
    pub depth_limited: bool,
}

/// One sweep in progress: [`ExploreStats`] accounting, control-key
/// pruning, per-run probe flushes and the visitor.
struct Sweep<'a, S: System, V> {
    explorer: &'a Explorer,
    sys: &'a S,
    probe: &'a dyn Probe,
    visit: V,
    stats: ExploreStats,
    seen: HashSet<u64>,
    /// `stats.steps` at the last per-run probe flush.
    flushed_steps: usize,
}

impl<S: System, V> Sweep<'_, S, V>
where
    V: FnMut(&S::State, &[S::Action]) -> ControlFlow<()>,
{
    /// The schedule walk: depth-first from `state`, whose path from the
    /// initial state is `path` and whose inherited sleep set is
    /// `sleep[base..]`. `Break` stops the whole sweep (a budget ran out or
    /// the visitor asked).
    ///
    /// All sleep sets of a walk live on the one `sleep` stack: a node's
    /// set is the slice from its `base` up, a child's set is pushed above
    /// it and truncated on return, and the action just explored is then
    /// pushed onto the node's own set. Once the stack has grown to the
    /// deepest sleep set, sleep-set bookkeeping allocates nothing.
    fn walk(
        &mut self,
        state: &mut S::State,
        path: &mut Vec<S::Action>,
        sleep: &mut Vec<S::Action>,
        base: usize,
    ) -> ControlFlow<()> {
        if self.explorer.prune {
            if let Some(key) = self.sys.control_key(state) {
                if !self.seen.insert(key) {
                    self.stats.prune_hits += 1;
                    return ControlFlow::Continue(());
                }
                self.stats.prune_misses += 1;
            }
        }
        // The run cap is checked at node entry (every node leads to at
        // least one more maximal run), but the step cap just before each
        // edge application below: a space with exactly `max_runs` runs or
        // `max_steps` steps is exhausted, not truncated. (Under `reduce` a
        // fully-slept node yields no run, so an exact run budget may be
        // flagged as truncated spuriously — the safe direction.)
        if self.stats.runs >= self.explorer.max_runs {
            self.stats.truncation = Some(TruncationReason::RunLimit);
            return ControlFlow::Break(());
        }
        let mut awake = self.sys.enabled(state);
        if awake.is_empty() || path.len() >= self.explorer.max_depth {
            return self.leaf(state, path, !awake.is_empty());
        }
        // Sleep-set partition: actions in the sleep set were already
        // explored (up to independent commutations) by an earlier sibling
        // branch, so skipping them here loses no computation. Incoming
        // entries are filtered to the still-enabled actions first — a slept
        // action that got disabled on the way down can no longer occur and
        // keeping it would only slow the membership tests.
        // Both filters work in place and keep the order of what they keep.
        // Without `reduce` every sleep set is empty.
        if self.explorer.reduce {
            let mut kept = base;
            for i in base..sleep.len() {
                if awake.contains(&sleep[i]) {
                    sleep.swap(kept, i);
                    kept += 1;
                }
            }
            sleep.truncate(kept);
            let enabled = awake.len();
            awake.retain(|a| !sleep[base..].contains(a));
            if awake.len() < enabled {
                self.stats.sleep_skipped += enabled - awake.len();
            }
            if awake.is_empty() {
                // Every continuation is covered elsewhere: prune the whole
                // node without counting a run.
                return ControlFlow::Continue(());
            }
        }
        for action in awake {
            if self.stats.steps >= self.explorer.max_steps {
                self.stats.truncation = Some(TruncationReason::StepLimit);
                return ControlFlow::Break(());
            }
            // The child's sleep set keeps only entries that commute with the
            // action being taken — computed against the *pre-apply* state
            // (the state where both are enabled), before the checkpoint fast
            // path mutates it in place. Each oracle answer is attributed so
            // reduction payoff is explainable per instance.
            let child = sleep.len();
            for i in base..child {
                if self.sys.independent(state, &action, &sleep[i]) {
                    let b = sleep[i].clone();
                    sleep.push(b);
                }
            }
            let grants = sleep.len() - child;
            let denials = child - base - grants;
            let flow = if let Some(cp) = self.sys.checkpoint(state) {
                // Fast path: mutate the one shared state down the edge and
                // roll it back afterwards — no clone of the accumulated trace.
                self.sys.apply(state, &action);
                self.edge(grants, denials);
                path.push(action);
                let flow = self.walk(state, path, sleep, child);
                self.sys.undo(state, cp);
                flow
            } else {
                let mut next = state.clone();
                self.sys.apply(&mut next, &action);
                self.edge(grants, denials);
                path.push(action);
                self.walk(&mut next, path, sleep, child)
            };
            sleep.truncate(child);
            let action = path.pop().expect("path underflow");
            if self.explorer.reduce {
                sleep.push(action);
            }
            flow?;
        }
        ControlFlow::Continue(())
    }

    /// A maximal run ends at `state`; `depth_limited` if it was cut at
    /// [`Explorer::max_depth`] with actions still enabled.
    fn leaf(
        &mut self,
        state: &S::State,
        path: &[S::Action],
        depth_limited: bool,
    ) -> ControlFlow<()> {
        let stats = &mut self.stats;
        if depth_limited {
            stats.depth_limited_runs += 1;
            if stats.truncation.is_none() {
                stats.truncation = Some(TruncationReason::DepthLimit);
            }
        }
        stats.runs += 1;
        if self.explorer.reduce {
            stats.por_runs += 1;
        }
        stats.max_depth_seen = stats.max_depth_seen.max(path.len());
        if self.probe.enabled() {
            // Batched flush: one counter update per maximal run keeps the
            // instrumented hot path within noise of the bare one.
            self.probe.add("explore.runs", 1);
            self.probe
                .add("explore.steps", (stats.steps - self.flushed_steps) as u64);
            self.flushed_steps = stats.steps;
        }
        (self.visit)(state, path)
    }

    /// One edge was applied; its child-sleep filter got `grants`
    /// "independent" and `denials` "dependent" oracle answers.
    fn edge(&mut self, grants: usize, denials: usize) {
        self.stats.oracle_grants += grants;
        self.stats.oracle_denials += denials;
        self.stats.steps += 1;
    }

    /// Final flush: steps of a truncated tail run, pruning totals
    /// (emitted even when zero so reports are comparable), the depth
    /// high-water mark, and the truncation cause.
    fn finish(self) -> ExploreStats {
        let (probe, stats) = (self.probe, self.stats);
        if probe.enabled() {
            probe.add("explore.steps", (stats.steps - self.flushed_steps) as u64);
            probe.add("explore.prune.hits", stats.prune_hits as u64);
            probe.add("explore.prune.misses", stats.prune_misses as u64);
            probe.add("explore.sleep_skipped", stats.sleep_skipped as u64);
            probe.add("explore.por_runs", stats.por_runs as u64);
            probe.add("explore.oracle.grants", stats.oracle_grants as u64);
            probe.add("explore.oracle.denials", stats.oracle_denials as u64);
            probe.gauge_max("explore.depth_high_water", stats.max_depth_seen as u64);
            if let Some(reason) = stats.truncation {
                probe.add(&format!("explore.truncation.{}", reason.key()), 1);
            }
        }
        stats
    }
}

/// Searches all runs for a deadlock: a terminal state that is not
/// complete. Returns the action sequence leading to the first deadlock
/// found (the first in DFS order), or `None` if every explored run
/// completes. `probe` receives the search's `explore.*` counters, as in
/// [`Explorer::for_each_run_probed`].
pub fn find_deadlock<S: System>(
    sys: &S,
    explorer: &Explorer,
    probe: &dyn Probe,
) -> Option<Vec<S::Action>> {
    let mut witness = None;
    explorer.for_each_run_probed(sys, probe, |state, path| {
        if !sys.is_complete(state) {
            witness = Some(path.to_vec());
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    witness
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy system: `n` independent counters each stepping to 2.
    struct Counters {
        n: usize,
        stuck: bool,
    }

    // POR: conservative — exercises the default (no-reduction) oracle.
    impl System for Counters {
        type State = Vec<u8>;
        type Action = usize;
        type Checkpoint = ();

        fn initial(&self) -> Vec<u8> {
            vec![0; self.n]
        }

        fn enabled(&self, state: &Vec<u8>) -> Vec<usize> {
            if self.stuck && state.contains(&2) {
                // Contrived deadlock: once anyone reaches 2, nobody moves,
                // but others may be unfinished.
                return Vec::new();
            }
            (0..self.n).filter(|&i| state[i] < 2).collect()
        }

        fn apply(&self, state: &mut Vec<u8>, &i: &usize) {
            state[i] += 1;
        }

        fn is_complete(&self, state: &Vec<u8>) -> bool {
            state.iter().all(|&c| c == 2)
        }

        fn control_key(&self, state: &Vec<u8>) -> Option<u64> {
            let mut k = 0u64;
            for &c in state {
                k = k * 3 + u64::from(c);
            }
            Some(k)
        }
    }

    #[test]
    fn exhaustive_run_count() {
        // 2 counters × 2 steps = interleavings of aabb = C(4,2) = 6.
        let sys = Counters { n: 2, stuck: false };
        let stats = Explorer::default().for_each_run(&sys, |s, path| {
            assert!(sys.is_complete(s));
            assert_eq!(path.len(), 4);
            ControlFlow::Continue(())
        });
        assert_eq!(stats.runs, 6);
        assert!(!stats.truncated());
        assert_eq!(stats.truncation, None);
        assert_eq!(stats.depth_limited_runs, 0);
        assert_eq!(stats.max_depth_seen, 4);
    }

    #[test]
    fn run_limit_truncates() {
        let sys = Counters { n: 3, stuck: false };
        let stats = Explorer::with_max_runs(5).for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        assert_eq!(stats.runs, 5);
        assert!(stats.truncated());
        assert_eq!(stats.truncation, Some(TruncationReason::RunLimit));
    }

    #[test]
    fn step_limit_truncates() {
        let sys = Counters { n: 3, stuck: false };
        let stats = Explorer {
            max_steps: 40,
            ..Explorer::default()
        }
        .for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        assert_eq!(stats.truncation, Some(TruncationReason::StepLimit));
        assert!(stats.steps >= 40, "{stats}");
        // Full space is 90 runs; the cap must have cut it short.
        assert!(stats.runs < 90);
    }

    #[test]
    fn exact_run_budget_is_exhaustive() {
        // A space with exactly `max_runs` maximal runs is exhausted, not
        // truncated: the bound never bites.
        let sys = Counters { n: 2, stuck: false };
        let stats = Explorer::with_max_runs(6).for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        assert_eq!(stats.runs, 6);
        assert_eq!(stats.truncation, None, "{stats}");
        // One fewer and the limit genuinely cuts work off.
        let stats = Explorer::with_max_runs(5).for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        assert_eq!(stats.runs, 5);
        assert_eq!(stats.truncation, Some(TruncationReason::RunLimit));
    }

    #[test]
    fn exact_step_budget_is_exhaustive() {
        let sys = Counters { n: 2, stuck: false };
        let total = Explorer::default()
            .for_each_run(&sys, |_, _| ControlFlow::Continue(()))
            .steps;
        let exact = Explorer {
            max_steps: total,
            ..Explorer::default()
        }
        .for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        assert_eq!(exact.steps, total);
        assert_eq!(exact.runs, 6);
        assert_eq!(exact.truncation, None, "{exact}");
        let short = Explorer {
            max_steps: total - 1,
            ..Explorer::default()
        }
        .for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        assert_eq!(short.steps, total - 1);
        assert_eq!(short.truncation, Some(TruncationReason::StepLimit));
        assert!(short.runs < 6);
    }

    #[test]
    fn pruning_visits_fewer_paths() {
        let sys = Counters { n: 3, stuck: false };
        let full = Explorer::default().for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        let pruned = Explorer {
            prune: true,
            ..Explorer::default()
        }
        .for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        assert!(pruned.steps < full.steps, "{pruned:?} vs {full:?}");
        assert_eq!(full.runs, 90); // multinomial 6!/(2!2!2!)
    }

    #[test]
    fn deadlock_found() {
        let sys = Counters { n: 2, stuck: true };
        let witness = find_deadlock(&sys, &Explorer::default(), &NoopProbe);
        assert!(witness.is_some());
        let sys_ok = Counters { n: 2, stuck: false };
        assert!(find_deadlock(&sys_ok, &Explorer::default(), &NoopProbe).is_none());
    }

    #[test]
    fn random_run_completes() {
        use rand::SeedableRng;
        let sys = Counters { n: 2, stuck: false };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (state, path) = Explorer::default().random_run(&sys, &mut rng);
        assert!(sys.is_complete(&state));
        assert_eq!(path.len(), 4);
    }

    #[test]
    fn depth_limit_flags() {
        let sys = Counters { n: 2, stuck: false };
        let stats = Explorer {
            max_depth: 2,
            ..Explorer::default()
        }
        .for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        assert!(stats.depth_limited_runs > 0);
        assert_eq!(stats.truncation, Some(TruncationReason::DepthLimit));
        assert_eq!(stats.max_depth_seen, 2);
    }

    #[test]
    fn probed_exploration_matches_stats() {
        use gem_obs::StatsProbe;
        let sys = Counters { n: 3, stuck: false };
        let probe = StatsProbe::new();
        let stats = Explorer {
            prune: true,
            ..Explorer::default()
        }
        .for_each_run_probed(&sys, &probe, |_, _| ControlFlow::Continue(()));
        let report = probe.report();
        assert_eq!(report.counters["explore.runs"], stats.runs as u64);
        assert_eq!(report.counters["explore.steps"], stats.steps as u64);
        assert_eq!(
            report.counters["explore.prune.hits"],
            stats.prune_hits as u64
        );
        assert_eq!(
            report.counters["explore.prune.misses"],
            stats.prune_misses as u64
        );
        assert_eq!(
            report.gauges["explore.depth_high_water"],
            stats.max_depth_seen as u64
        );
        assert!(!report
            .counters
            .keys()
            .any(|k| k.starts_with("explore.truncation")));
    }

    #[test]
    fn probed_truncation_cause_reported() {
        use gem_obs::StatsProbe;
        let sys = Counters { n: 3, stuck: false };
        let probe = StatsProbe::new();
        Explorer::with_max_runs(5)
            .for_each_run_probed(&sys, &probe, |_, _| ControlFlow::Continue(()));
        assert_eq!(probe.report().counters["explore.truncation.run_limit"], 1);
    }

    #[test]
    fn stats_display_is_readable() {
        let sys = Counters { n: 2, stuck: false };
        let stats = Explorer::default().for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        assert_eq!(
            stats.to_string(),
            format!(
                "6 run(s), {} step(s), max depth 4 [exhaustive]",
                stats.steps
            )
        );
        let truncated =
            Explorer::with_max_runs(2).for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        assert!(truncated.to_string().ends_with("[truncated: run limit]"));
    }

    #[test]
    fn pruned_search_still_finds_deadlock() {
        // Pruning is sound for state properties: the deadlock is found
        // with fewer steps.
        let sys = Counters { n: 3, stuck: true };
        let pruned = Explorer {
            prune: true,
            ..Explorer::default()
        };
        assert!(find_deadlock(&sys, &pruned, &NoopProbe).is_some());
        let full_steps = Explorer::default()
            .for_each_run(&sys, |_, _| ControlFlow::Continue(()))
            .steps;
        let pruned_steps = pruned
            .for_each_run(&sys, |_, _| ControlFlow::Continue(()))
            .steps;
        assert!(pruned_steps <= full_steps);
    }

    /// `Counters` with the apply/undo fast path enabled: the checkpoint
    /// snapshots the whole (tiny) state, so the undo DFS must enumerate
    /// exactly what the clone-per-edge DFS does.
    struct UndoCounters(Counters);

    // POR: conservative — exercises the default (no-reduction) oracle.
    impl System for UndoCounters {
        type State = Vec<u8>;
        type Action = usize;
        type Checkpoint = Vec<u8>;

        fn initial(&self) -> Vec<u8> {
            self.0.initial()
        }
        fn enabled(&self, state: &Vec<u8>) -> Vec<usize> {
            self.0.enabled(state)
        }
        fn apply(&self, state: &mut Vec<u8>, action: &usize) {
            self.0.apply(state, action);
        }
        fn is_complete(&self, state: &Vec<u8>) -> bool {
            self.0.is_complete(state)
        }
        fn control_key(&self, state: &Vec<u8>) -> Option<u64> {
            self.0.control_key(state)
        }
        fn checkpoint(&self, state: &Vec<u8>) -> Option<Vec<u8>> {
            Some(state.clone())
        }
        fn undo(&self, state: &mut Vec<u8>, checkpoint: Vec<u8>) {
            *state = checkpoint;
        }
    }

    #[test]
    fn undo_fast_path_enumerates_identically() {
        let plain = Counters { n: 3, stuck: false };
        let undo = UndoCounters(Counters { n: 3, stuck: false });
        for explorer in [
            Explorer::default(),
            Explorer::with_max_runs(7),
            Explorer {
                max_steps: 40,
                ..Explorer::default()
            },
            Explorer {
                max_depth: 3,
                ..Explorer::default()
            },
            Explorer {
                prune: true,
                ..Explorer::default()
            },
        ] {
            let mut a = Vec::new();
            let sa = explorer.for_each_run(&plain, |state, path| {
                a.push((state.clone(), path.to_vec()));
                ControlFlow::Continue(())
            });
            let mut b = Vec::new();
            let sb = explorer.for_each_run(&undo, |state, path| {
                b.push((state.clone(), path.to_vec()));
                ControlFlow::Continue(())
            });
            assert_eq!(a, b, "{explorer:?}");
            assert_eq!(sa, sb, "{explorer:?}");
        }
    }

    /// `Counters` with a full independence oracle: distinct counters
    /// never interact, so every interleaving of a complete run belongs to
    /// one Mazurkiewicz trace.
    struct PorCounters(Counters);

    impl System for PorCounters {
        type State = Vec<u8>;
        type Action = usize;
        type Checkpoint = ();

        fn initial(&self) -> Vec<u8> {
            self.0.initial()
        }
        fn enabled(&self, state: &Vec<u8>) -> Vec<usize> {
            self.0.enabled(state)
        }
        fn apply(&self, state: &mut Vec<u8>, action: &usize) {
            self.0.apply(state, action);
        }
        fn is_complete(&self, state: &Vec<u8>) -> bool {
            self.0.is_complete(state)
        }
        fn independent(&self, _state: &Vec<u8>, a: &usize, b: &usize) -> bool {
            // Steps of distinct counters commute; two steps of the same
            // counter are the same action (each index is enabled at most
            // once per state) and never reach here.
            a != b
        }
    }

    #[test]
    fn sleep_sets_explore_one_run_per_trace() {
        // All actions commute, so the whole schedule space is a single
        // trace: sleep sets must collapse it to exactly one run.
        for n in [2, 3] {
            let sys = PorCounters(Counters { n, stuck: false });
            let full = Explorer::default().for_each_run(&sys, |_, _| ControlFlow::Continue(()));
            let reduced = Explorer {
                reduce: true,
                ..Explorer::default()
            }
            .for_each_run(&sys, |s, path| {
                assert!(sys.is_complete(s));
                assert_eq!(path.len(), 2 * n);
                ControlFlow::Continue(())
            });
            assert_eq!(reduced.runs, 1, "n={n}");
            assert_eq!(reduced.por_runs, 1, "n={n}");
            assert!(reduced.sleep_skipped > 0, "n={n}");
            assert!(reduced.steps < full.steps, "n={n}");
            assert_eq!(reduced.truncation, None, "n={n}");
            assert_eq!(full.por_runs, 0);
            assert_eq!(full.sleep_skipped, 0);
            // A fully-independent system grants every oracle query.
            assert!(reduced.oracle_grants > 0, "n={n}");
            assert_eq!(reduced.oracle_denials, 0, "n={n}");
            assert_eq!(full.oracle_grants, 0);
        }
    }

    #[test]
    fn sample_run_is_deterministic_and_estimates_run_count() {
        let sys = Counters { n: 2, stuck: false };
        let explorer = Explorer::default();
        // Determinism in the seed.
        let a = explorer.sample_run(&sys, 7);
        let b = explorer.sample_run(&sys, 7);
        assert_eq!(a.path, b.path);
        assert_eq!(a.tree_product, b.tree_product);
        assert!(!a.depth_limited);
        assert!(sys.is_complete(&a.state));
        // The mean branching product over many probes approaches the
        // true run count (6 for two 2-step counters).
        let mut est = gem_obs::KnuthEstimator::new();
        for seed in 0..500 {
            est.record(explorer.sample_run(&sys, seed).tree_product);
        }
        let mean = est.estimate().unwrap();
        assert!((5.0..=7.0).contains(&mean), "mean {mean} for true 6");
    }

    #[test]
    fn sample_run_respects_depth_cap() {
        let sys = Counters { n: 2, stuck: false };
        let capped = Explorer {
            max_depth: 1,
            ..Explorer::default()
        };
        let s = capped.sample_run(&sys, 1);
        assert_eq!(s.path.len(), 1);
        assert!(s.depth_limited);
    }

    #[test]
    fn reduce_with_conservative_oracle_is_identity() {
        // A system with the default oracle claims nothing commutes, so
        // reduction must visit exactly the full run sequence.
        let sys = Counters { n: 2, stuck: false };
        let mut full_runs = Vec::new();
        let full = Explorer::default().for_each_run(&sys, |s, p| {
            full_runs.push((s.clone(), p.to_vec()));
            ControlFlow::Continue(())
        });
        let mut reduced_runs = Vec::new();
        let reduced = Explorer {
            reduce: true,
            ..Explorer::default()
        }
        .for_each_run(&sys, |s, p| {
            reduced_runs.push((s.clone(), p.to_vec()));
            ControlFlow::Continue(())
        });
        assert_eq!(full_runs, reduced_runs);
        assert_eq!(reduced.runs, full.runs);
        assert_eq!(reduced.sleep_skipped, 0);
        assert_eq!(reduced.por_runs, full.runs);
    }

    #[test]
    fn reduced_runs_are_a_subsequence_of_the_full_sweep() {
        // Sleep sets only ever skip branches, so the reduced run list is
        // a subsequence of the full DFS run list (same relative order).
        // Use the deadlocking variant so distinct traces exist.
        let sys = PorCounters(Counters { n: 2, stuck: true });
        let mut full = Vec::new();
        Explorer::default().for_each_run(&sys, |_, p| {
            full.push(p.to_vec());
            ControlFlow::Continue(())
        });
        let mut reduced = Vec::new();
        Explorer {
            reduce: true,
            ..Explorer::default()
        }
        .for_each_run(&sys, |_, p| {
            reduced.push(p.to_vec());
            ControlFlow::Continue(())
        });
        assert!(!reduced.is_empty());
        assert!(reduced.len() < full.len());
        let mut it = full.iter();
        for r in &reduced {
            assert!(it.any(|f| f == r), "{r:?} missing from full sweep");
        }
    }

    #[test]
    fn probed_reduction_reports_sleep_counters() {
        use gem_obs::StatsProbe;
        let sys = PorCounters(Counters { n: 3, stuck: false });
        let probe = StatsProbe::new();
        let stats = Explorer {
            reduce: true,
            ..Explorer::default()
        }
        .for_each_run_probed(&sys, &probe, |_, _| ControlFlow::Continue(()));
        let report = probe.report();
        assert_eq!(
            report.counters["explore.sleep_skipped"],
            stats.sleep_skipped as u64
        );
        assert_eq!(report.counters["explore.por_runs"], stats.por_runs as u64);
        assert_eq!(report.counters["explore.runs"], stats.runs as u64);
    }

    #[test]
    fn por_stats_display_mentions_reduction() {
        let sys = PorCounters(Counters { n: 2, stuck: false });
        let stats = Explorer {
            reduce: true,
            ..Explorer::default()
        }
        .for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        let text = stats.to_string();
        assert!(text.contains("POR: 1 representative(s)"), "{text}");
    }

    #[test]
    fn early_break_stops_search() {
        let sys = Counters { n: 3, stuck: false };
        let mut count = 0;
        Explorer::default().for_each_run(&sys, |_, _| {
            count += 1;
            if count == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(count, 3);
    }
}
