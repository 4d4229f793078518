//! Progress and deadlock checking (§9, footnote 9).
//!
//! The paper's *weak progress* requirement: if all prerequisites of an
//! event are fulfilled and remain fulfilled, the event must eventually
//! occur. For a system explored to termination this reduces to two
//! checks:
//!
//! * **No deadlock** — every maximal run reaches a complete terminal
//!   state ([`assert_no_deadlock`] / re-exported
//!   [`find_deadlock`](gem_lang::find_deadlock)).
//! * **Eventual occurrence** — on every run, the events a liveness claim
//!   names do occur ([`eventually_on_all_runs`]): the `◇`-check of a
//!   formula over each run's computation.

use std::ops::ControlFlow;

use gem_core::Computation;
use gem_lang::{Explorer, System, TruncationReason};
use gem_logic::{check, Formula, Strategy};

/// Result of a liveness sweep over all runs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LivenessOutcome {
    /// Runs explored.
    pub runs: usize,
    /// Runs on which the formula failed.
    pub failing_runs: Vec<usize>,
    /// Why exploration stopped short, or `None` if it was exhaustive.
    pub truncation: Option<TruncationReason>,
}

impl LivenessOutcome {
    /// True if the formula held on every explored run.
    pub fn ok(&self) -> bool {
        self.failing_runs.is_empty()
    }

    /// True if some bound truncated the sweep.
    pub fn truncated(&self) -> bool {
        self.truncation.is_some()
    }
}

/// Checks a (typically `◇…`) formula against every run's computation
/// under the given strategy. Runs are enumerated with
/// [`Explorer::for_each_run`], and a failing run is reported by its index
/// in that order.
pub fn eventually_on_all_runs<S: System>(
    sys: &S,
    formula: &Formula,
    extract: impl Fn(&S::State) -> Computation,
    explorer: &Explorer,
    strategy: Strategy,
) -> LivenessOutcome {
    let mut runs = 0usize;
    let mut failing_runs = Vec::new();
    let stats = explorer.for_each_run(sys, |state, _| {
        let c = extract(state);
        let holds = matches!(check(formula, &c, strategy), Ok(report) if report.holds);
        if !holds {
            gem_obs::ambient::add("progress.failing_runs", 1);
            failing_runs.push(runs);
        }
        runs += 1;
        ControlFlow::Continue(())
    });
    gem_obs::ambient::add("progress.liveness_sweeps", 1);
    LivenessOutcome {
        runs,
        failing_runs,
        truncation: stats.truncation,
    }
}

/// Asserts the system is deadlock-free within the explorer's bounds.
///
/// Returns `Ok(runs_explored)` or the action trace of the first deadlock
/// rendered with `Debug`. The witness is the first deadlock in DFS
/// order.
///
/// Deadlock is a property of the terminal *state* (incomplete with no
/// enabled action), not of the sealed computation, so no run is sealed.
pub fn assert_no_deadlock<S: System>(sys: &S, explorer: &Explorer) -> Result<usize, String> {
    let mut runs = 0usize;
    let mut witness: Option<String> = None;
    explorer.for_each_run(sys, |state, path| {
        runs += 1;
        if sys.is_complete(state) {
            ControlFlow::Continue(())
        } else {
            witness = Some(format!("{path:?}"));
            ControlFlow::Break(())
        }
    });
    match witness {
        Some(w) => Err(w),
        None => Ok(runs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_lang::csp::{CspProcess, CspProgram, CspStmt, CspSystem};
    use gem_lang::Expr;
    use gem_logic::EventSel;

    fn ping() -> CspSystem {
        CspSystem::new(
            CspProgram::new()
                .process(CspProcess::new("a", vec![CspStmt::send("b", Expr::int(1))]))
                .process(CspProcess::new("b", vec![CspStmt::recv("a", "x")]).local("x", 0i64)),
        )
    }

    #[test]
    fn no_deadlock_on_matching_pair() {
        let sys = ping();
        assert_eq!(assert_no_deadlock(&sys, &Explorer::default()), Ok(1));
    }

    #[test]
    fn deadlock_reported_with_trace() {
        let sys = CspSystem::new(
            CspProgram::new()
                .process(CspProcess::new("a", vec![CspStmt::recv("b", "x")]).local("x", 0i64))
                .process(CspProcess::new("b", vec![CspStmt::recv("a", "y")]).local("y", 0i64)),
        );
        let err = assert_no_deadlock(&sys, &Explorer::default()).unwrap_err();
        assert!(err.starts_with('['), "action trace rendered: {err}");
    }

    #[test]
    fn eventual_exchange_holds() {
        let sys = ping();
        let f = Formula::exists(
            "e",
            EventSel::of_class(sys.class("InEnd")),
            Formula::occurred("e"),
        )
        .eventually();
        let outcome = eventually_on_all_runs(
            &sys,
            &f,
            |s| sys.computation(s).unwrap(),
            &Explorer::default(),
            Strategy::Linearizations { limit: 1000 },
        );
        assert!(outcome.ok());
        assert_eq!(outcome.runs, 1);
    }

    #[test]
    fn liveness_outcome_reports_truncation() {
        // A larger pipeline with a tight run budget: the sweep still
        // passes but flags truncation.
        let mut prog = CspProgram::new();
        let mut a_body = Vec::new();
        let mut b_body = Vec::new();
        for _ in 0..3 {
            a_body.push(CspStmt::send("b", Expr::int(1)));
            b_body.push(CspStmt::recv("a", "x"));
        }
        prog = prog
            .process(CspProcess::new("a", a_body))
            .process(CspProcess::new("b", b_body).local("x", 0i64));
        // Add an independent pair so there is more than one schedule.
        prog = prog
            .process(CspProcess::new("c", vec![CspStmt::send("d", Expr::int(2))]))
            .process(CspProcess::new("d", vec![CspStmt::recv("c", "y")]).local("y", 0i64));
        let sys = CspSystem::new(prog);
        let f = Formula::exists(
            "e",
            EventSel::of_class(sys.class("InEnd")),
            Formula::occurred("e"),
        )
        .eventually();
        let outcome = eventually_on_all_runs(
            &sys,
            &f,
            |s| sys.computation(s).unwrap(),
            &Explorer::with_max_runs(2),
            Strategy::GreedySteps,
        );
        assert!(outcome.ok());
        assert_eq!(outcome.truncation, Some(TruncationReason::RunLimit));
        assert_eq!(outcome.runs, 2);
    }

    #[test]
    fn impossible_liveness_fails() {
        let sys = ping();
        // Claim: eventually two InEnd events occur — false, only one
        // exchange happens.
        let f = Formula::exists(
            "e",
            EventSel::of_class(sys.class("InEnd")),
            Formula::exists(
                "e2",
                EventSel::of_class(sys.class("InEnd")),
                Formula::event_eq("e", "e2")
                    .not()
                    .and(Formula::occurred("e"))
                    .and(Formula::occurred("e2")),
            ),
        )
        .eventually();
        let outcome = eventually_on_all_runs(
            &sys,
            &f,
            |s| sys.computation(s).unwrap(),
            &Explorer::default(),
            Strategy::Linearizations { limit: 1000 },
        );
        assert!(!outcome.ok());
    }
}
