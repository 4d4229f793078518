//! `PROG sat P`: exhaustive bounded verification of a program against a
//! problem specification (§9).
//!
//! [`verify_system`] is the machine-checked stand-in for the paper's hand
//! proofs (DESIGN.md substitution): it explores every schedule of a
//! program system, extracts the GEM computation of each run, projects it
//! onto the significant objects, and checks every restriction of the
//! problem specification. Deadlocked runs (terminal but incomplete) are
//! reported separately — the paper's "lack of deadlock" claims.

use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

use gem_core::Computation;
use gem_lang::{Explorer, System, TruncationReason};
use gem_logic::Strategy;
use gem_obs::{NoopProbe, Probe, Span};
use gem_spec::{SpecReport, Specification};

use crate::correspondence::{project, Correspondence, ProjectError};
use crate::forensics::{self, ArtifactRecord, ArtifactSink};
use crate::incr::{IncrChecker, LeafStatus};

/// Verdict of checking one computation: `None` if it satisfies the
/// specification, otherwise the violated names plus the failure detail.
type CheckVerdict = Option<(Vec<String>, String)>;

/// Full result of checking one program computation against a problem —
/// the verdict plus the intermediate products forensics needs (the
/// projected computation and the per-restriction report for blame).
#[derive(Clone, Debug)]
pub struct RunCheck {
    /// `None` if the run satisfies the specification, otherwise the
    /// violated names plus a human-readable detail.
    pub verdict: CheckVerdict,
    /// The program computation projected onto the significant objects.
    pub projected: Computation,
    /// The problem specification's report on the projected computation,
    /// or `None` if a restriction formula failed to evaluate (that error
    /// is then the verdict).
    pub spec_report: Option<SpecReport>,
}

/// Checks one program computation against `problem`: optional program
/// legality, projection through `corr`, then every restriction. Pure in
/// the computation — `gem replay` re-runs it on a recorded schedule to
/// reproduce a verdict.
///
/// # Errors
///
/// Returns [`ProjectError`] if the correspondence is inconsistent with
/// the computation. Restriction evaluation errors are a *verdict*
/// (`evaluation-error`), not an `Err`.
pub fn check_computation(
    program_comp: &Computation,
    problem: &Specification,
    corr: &Correspondence,
    strategy: Strategy,
    check_program_legality: bool,
) -> Result<RunCheck, ProjectError> {
    let mut violated = Vec::new();
    let mut detail = String::new();
    if check_program_legality {
        let legality = gem_core::check_legality(program_comp);
        if !legality.is_empty() {
            violated.push("program-legality".to_owned());
            detail = legality[0].describe(program_comp);
        }
    }
    let projected = project(program_comp, problem.structure_arc(), corr)?;
    let spec_report = match problem.check(&projected, strategy) {
        Ok(report) => {
            if !report.legality.is_empty() {
                violated.push("projection-legality".to_owned());
                if detail.is_empty() {
                    detail = report.legality[0].describe(&projected);
                }
            }
            for name in report.failed() {
                violated.push(name.to_owned());
            }
            if detail.is_empty() && !violated.is_empty() {
                detail = report.to_string();
            }
            Some(report)
        }
        Err(e) => {
            violated.push("evaluation-error".to_owned());
            detail = e.to_string();
            None
        }
    };
    Ok(RunCheck {
        verdict: (!violated.is_empty()).then_some((violated, detail)),
        projected,
        spec_report,
    })
}

/// One failing run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunFailure {
    /// Index of the run in exploration order.
    pub run: usize,
    /// Names of legality categories or restrictions violated.
    pub violated: Vec<String>,
    /// Human-readable description of the failure.
    pub detail: String,
}

/// Outcome of verifying a program against a problem specification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyOutcome {
    /// Number of maximal runs explored.
    pub runs: usize,
    /// Number of deadlocked runs (terminal but incomplete).
    pub deadlocks: usize,
    /// Restriction/legality failures across runs (capped at
    /// [`VerifyOptions::max_failures`]).
    pub failures: Vec<RunFailure>,
    /// Why exploration stopped short, or `None` if it was exhaustive.
    pub truncation: Option<TruncationReason>,
}

impl VerifyOutcome {
    /// True if every explored run completed and satisfied the
    /// specification.
    pub fn ok(&self) -> bool {
        self.deadlocks == 0 && self.failures.is_empty()
    }

    /// True if some bound truncated exploration.
    pub fn truncated(&self) -> bool {
        self.truncation.is_some()
    }

    /// True if the verdict covers *all* schedules (no truncation).
    pub fn exhaustive(&self) -> bool {
        !self.truncated()
    }
}

impl fmt::Display for VerifyOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} run(s): {} deadlock(s), {} failing run(s)",
            self.runs,
            self.deadlocks,
            self.failures.len(),
        )?;
        if let Some(reason) = self.truncation {
            write!(f, " (truncated: {reason})")?;
        }
        for fail in &self.failures {
            write!(f, "\n  run {}: {}", fail.run, fail.violated.join(", "))?;
        }
        Ok(())
    }
}

/// Options for [`verify_system`].
#[derive(Clone)]
pub struct VerifyOptions {
    /// Bounds on schedule exploration.
    pub explorer: Explorer,
    /// Strategy for temporal restrictions on each projected computation.
    pub strategy: Strategy,
    /// Stop after this many failing runs (a few witnesses suffice).
    pub max_failures: usize,
    /// Also require the *program* computation itself to be GEM-legal.
    pub check_program_legality: bool,
    /// Instrumentation sink. The default [`NoopProbe`] costs one enabled
    /// check per run; see `gem_obs::StatsProbe` for aggregation. The probe
    /// is also installed as the ambient probe for the duration of the
    /// sweep, so the logic/core layers report into it.
    pub probe: Arc<dyn Probe>,
    /// When set, the first failing or deadlocked run is dumped as a
    /// self-contained counterexample artifact directory (schedule,
    /// computation, blame, dot renderings), and `outcome.json` records
    /// the sweep outcome — see [`crate::forensics`].
    pub artifacts: Option<ArtifactSink>,
}

impl fmt::Debug for VerifyOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerifyOptions")
            .field("explorer", &self.explorer)
            .field("strategy", &self.strategy)
            .field("max_failures", &self.max_failures)
            .field("check_program_legality", &self.check_program_legality)
            .field("probe_enabled", &self.probe.enabled())
            .field("artifacts", &self.artifacts.as_ref().map(|s| &s.dir))
            .finish()
    }
}

impl Default for VerifyOptions {
    fn default() -> Self {
        Self {
            explorer: Explorer::default(),
            strategy: Strategy::Linearizations { limit: 20_000 },
            max_failures: 3,
            check_program_legality: true,
            probe: Arc::new(NoopProbe),
            artifacts: None,
        }
    }
}

/// Verifies `PROG sat P`: explores every schedule of `sys`, extracts each
/// run's computation with `extract`, projects through `corr`, and checks
/// `problem`'s restrictions.
///
/// Schedules are explored with [`Explorer::for_each_run_probed`] on the
/// calling thread, in DFS order. Each leaf is judged one of two ways: the
/// incremental checker proves it clean, or it is sealed, projected and
/// checked by [`check_computation`].
///
/// # Errors
///
/// Returns [`ProjectError`] if the correspondence is inconsistent with a
/// generated computation (a setup error rather than a verification
/// verdict). Malformed restriction formulas also surface as an error
/// string via the panic-free path: they are reported as failures with the
/// evaluation error in `detail`.
pub fn verify_system<S: System>(
    sys: &S,
    problem: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> Computation,
    options: &VerifyOptions,
) -> Result<VerifyOutcome, ProjectError> {
    let mut runs = 0usize;
    let mut deadlocks = 0usize;
    // Leaves the incremental checker proved clean; every other leaf took
    // the batch path.
    let mut incremental_leaves = 0usize;
    let mut failures: Vec<RunFailure> = Vec::new();
    let mut project_error: Option<ProjectError> = None;
    let mut artifact_record: Option<ArtifactRecord> = None;

    let probe = options.probe.as_ref();
    // Deep layers (restriction checking, formula evaluation, closure and
    // history construction) report through the ambient probe. Installed
    // only for an enabled probe so the default stays on its fast path.
    let _ambient = probe
        .enabled()
        .then(|| gem_obs::ambient::install(options.probe.clone()));
    let _total = Span::enter(probe, "verify");

    // Phase attribution (see `gem_obs::profile`): each per-run stage is
    // timed with a manual clock read gated on `probe.wants_timings()`, and the
    // time the sweep spends *outside* those stages — schedule
    // enumeration, state stepping, backtracking — is emitted afterwards
    // as the `phase.explore` residual, so the phase timers partition the
    // `verify` span.
    let probing = probe.wants_timings();
    let sweep_started = probing.then(Instant::now);
    let mut phased_ns = 0u64;
    let elapsed_ns =
        |t: Instant| -> u64 { u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX) };

    // Prefix-sharing incremental checker (see `crate::incr`): compiled
    // once per sweep (after the ambient install, so the per-restriction
    // fallback decisions land in the stats), synchronised per leaf. A
    // spec it cannot compile falls back as a whole, and every leaf takes
    // the batch path.
    let mut checker = Some(IncrChecker::new(
        problem,
        corr,
        options.check_program_legality,
    ))
    .filter(|c| !c.global_fallback());

    let stats = options
        .explorer
        .for_each_run_probed(sys, probe, |state, path| {
            runs += 1;
            let deadlocked = !sys.is_complete(state);
            if deadlocked {
                // Deadlock is judged on the *state* (terminal but
                // incomplete), not the computation.
                deadlocks += 1;
            }
            // A leaf the incremental checker proves clean needs no seal,
            // no projection, and no batch check. Deadlocked leaves always
            // take the batch path so deadlock artifacts and forensics are
            // untouched; violating or unsupported leaves fall back and
            // the batch verdict is adopted wholesale.
            if let Some(chk) = checker.as_mut() {
                if let Some(builder) = sys.trace_builder(state) {
                    let incr_started = probing.then(Instant::now);
                    let status = chk.sync_to(builder);
                    if let Some(t) = incr_started {
                        let ns = elapsed_ns(t);
                        phased_ns += ns;
                        probe.time_ns("phase.check_incr", ns);
                    }
                    if status == LeafStatus::Clean && !deadlocked {
                        incremental_leaves += 1;
                        return ControlFlow::Continue(());
                    }
                }
            }
            let seal_started = probing.then(Instant::now);
            let program_comp = extract(state);
            if let Some(t) = seal_started {
                let ns = elapsed_ns(t);
                phased_ns += ns;
                probe.time_ns("phase.seal", ns);
            }
            let check_started = probing.then(Instant::now);
            let check = match check_computation(
                &program_comp,
                problem,
                corr,
                options.strategy,
                options.check_program_legality,
            ) {
                Ok(v) => v,
                Err(e) => {
                    project_error = Some(e);
                    return ControlFlow::Break(());
                }
            };
            if let Some(t) = check_started {
                let ns = elapsed_ns(t);
                phased_ns += ns;
                probe.time_ns("phase.check", ns);
            }
            // First failing or deadlocked run with a sink configured:
            // dump the counterexample artifact.
            if let Some(sink) = &options.artifacts {
                if artifact_record.is_none() && (deadlocked || check.verdict.is_some()) {
                    let run = runs - 1;
                    let written = forensics::write_run_artifact(
                        sink,
                        sys,
                        path,
                        run,
                        deadlocked,
                        &program_comp,
                        &check,
                        problem,
                    );
                    match written {
                        Ok(()) => {
                            probe.add("verify.artifacts.written", 1);
                            artifact_record = Some(ArtifactRecord {
                                run,
                                deadlock: deadlocked,
                                failure: check.verdict.clone().map(|(violated, detail)| {
                                    RunFailure {
                                        run,
                                        violated,
                                        detail,
                                    }
                                }),
                            });
                        }
                        Err(_) => probe.add("verify.artifacts.errors", 1),
                    }
                }
            }
            if let Some((violated, detail)) = check.verdict {
                if failures.is_empty() {
                    probe.gauge_set("verify.first_failure_run", (runs - 1) as u64);
                }
                probe.add("verify.failing_runs", 1);
                failures.push(RunFailure {
                    run: runs - 1,
                    violated,
                    detail,
                });
                if failures.len() >= options.max_failures {
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        });

    // Everything the sweep spent outside the timed stages is exploration:
    // schedule enumeration, state stepping, backtracking, sleep-set
    // bookkeeping.
    if let Some(started) = sweep_started {
        probe.time_ns(
            "phase.explore",
            elapsed_ns(started).saturating_sub(phased_ns),
        );
    }
    // One post-sweep flush so the counter is present (possibly zero) in
    // every report.
    probe.add("verify.deadlocks", deadlocks as u64);
    // Leaf provenance: how each explored leaf was judged.
    if probe.enabled() {
        probe.add("verify.leaf.incremental", incremental_leaves as u64);
        probe.add("verify.leaf.batch", (runs - incremental_leaves) as u64);
    }

    if let Some(e) = project_error {
        return Err(e);
    }
    let outcome = VerifyOutcome {
        runs,
        deadlocks,
        failures,
        truncation: stats.truncation,
    };
    // `outcome.json` is written whenever a sink is configured — also for
    // clean sweeps, so a collector can tell "passed" from "crashed
    // before finishing".
    if let Some(sink) = &options.artifacts {
        match forensics::write_outcome(sink, &outcome, artifact_record.as_ref()) {
            Ok(()) => probe.add("verify.artifacts.written", 1),
            Err(_) => probe.add("verify.artifacts.errors", 1),
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_lang::monitor::{
        MonitorDef, MonitorProgram, MonitorSystem, ProcessDef, ScriptStep, Stmt,
    };
    use gem_lang::Expr;
    use gem_logic::EventSel;
    use gem_spec::{prerequisite, ElementType, SpecBuilder};

    /// Problem: a "ticket" protocol — every Done is preceded by exactly
    /// one Begin that enables it.
    fn ticket_problem() -> Specification {
        let ctl = ElementType::new("Ctl")
            .event("TBegin", &[])
            .event("TDone", &[]);
        let mut sb = SpecBuilder::new("Ticket");
        let c = sb.instantiate_element(&ctl, "ctl").unwrap();
        sb.add_restriction(
            "begin-then-done",
            prerequisite(&c.sel("TBegin"), &c.sel("TDone")),
        );
        sb.finish()
    }

    fn counter_system(entries_per_proc: usize) -> MonitorSystem {
        let monitor = MonitorDef::new("Counter").var("count", 0i64).entry(
            "Inc",
            &[],
            vec![Stmt::assign("count", Expr::var("count").add(Expr::int(1)))],
        );
        let mut prog = MonitorProgram::new(monitor);
        for i in 0..2 {
            prog = prog.process(ProcessDef::new(
                format!("p{i}"),
                vec![
                    ScriptStep::Call {
                        entry: "Inc".into(),
                        args: vec![]
                    };
                    entries_per_proc
                ],
            ));
        }
        MonitorSystem::new(prog)
    }

    #[test]
    fn monitor_satisfies_ticket_protocol() {
        let sys = counter_system(1);
        let problem = ticket_problem();
        let ps = problem.structure();
        let ctl = ps.element("ctl").unwrap();
        let tb = ps.class("TBegin").unwrap();
        let td = ps.class("TDone").unwrap();
        // Significant objects: entry Begin ↦ TBegin, entry End ↦ TDone.
        let corr = Correspondence::new()
            .map(
                EventSel::of_class(sys.class("Begin")).at(sys.entry_element("Inc")),
                ctl,
                tb,
            )
            .map(
                EventSel::of_class(sys.class("End")).at(sys.entry_element("Inc")),
                ctl,
                td,
            );
        let outcome = verify_system(
            &sys,
            &problem,
            &corr,
            |state| sys.computation(state).unwrap(),
            &VerifyOptions::default(),
        )
        .unwrap();
        assert!(outcome.ok(), "{outcome}");
        assert!(outcome.exhaustive());
        assert!(outcome.runs >= 2);
    }

    #[test]
    fn wrong_correspondence_fails_sat() {
        // Mapping Begin ↦ TDone breaks the prerequisite: a TDone with no
        // TBegin enabling it.
        let sys = counter_system(1);
        let problem = ticket_problem();
        let ps = problem.structure();
        let ctl = ps.element("ctl").unwrap();
        let td = ps.class("TDone").unwrap();
        let corr = Correspondence::new().map(
            EventSel::of_class(sys.class("Begin")).at(sys.entry_element("Inc")),
            ctl,
            td,
        );
        let outcome = verify_system(
            &sys,
            &problem,
            &corr,
            |state| sys.computation(state).unwrap(),
            &VerifyOptions::default(),
        )
        .unwrap();
        assert!(!outcome.ok());
        assert!(outcome.failures[0]
            .violated
            .contains(&"begin-then-done".to_owned()));
        assert!(outcome.to_string().contains("failing"));
    }

    #[test]
    fn failing_sweep_writes_artifact_dir() {
        let sys = counter_system(1);
        let problem = ticket_problem();
        let ps = problem.structure();
        let ctl = ps.element("ctl").unwrap();
        let td = ps.class("TDone").unwrap();
        let corr = Correspondence::new().map(
            EventSel::of_class(sys.class("Begin")).at(sys.entry_element("Inc")),
            ctl,
            td,
        );
        let dir =
            std::env::temp_dir().join(format!("gem-sat-artifact-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let outcome = verify_system(
            &sys,
            &problem,
            &corr,
            |state| sys.computation(state).unwrap(),
            &VerifyOptions {
                artifacts: Some(ArtifactSink::new(&dir).meta("problem", "ticket")),
                ..VerifyOptions::default()
            },
        )
        .unwrap();
        assert!(!outcome.ok());
        for name in [
            "meta.json",
            "schedule.json",
            "computation.json",
            "blame.json",
            "counterexample.dot",
            "counterexample_slice.dot",
            "outcome.json",
        ] {
            assert!(dir.join(name).exists(), "missing artifact file {name}");
        }
        // Every JSON artifact must parse, and the outcome record must
        // carry the replay expectation for the captured run.
        for name in [
            "meta.json",
            "schedule.json",
            "computation.json",
            "blame.json",
        ] {
            let text = std::fs::read_to_string(dir.join(name)).unwrap();
            gem_obs::json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let text = std::fs::read_to_string(dir.join("outcome.json")).unwrap();
        let parsed = gem_obs::json::parse(&text).unwrap();
        let replay = parsed.get("replay").expect("replay section");
        assert_eq!(replay.get("runs").and_then(|v| v.as_u64()), Some(1));
        assert!(parsed.get("artifact").and_then(|a| a.get("run")).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failure_cap_respected() {
        let sys = counter_system(2);
        let problem = ticket_problem();
        let ps = problem.structure();
        let ctl = ps.element("ctl").unwrap();
        let td = ps.class("TDone").unwrap();
        let corr = Correspondence::new().map(
            EventSel::of_class(sys.class("Begin")).at(sys.entry_element("Inc")),
            ctl,
            td,
        );
        let outcome = verify_system(
            &sys,
            &problem,
            &corr,
            |state| sys.computation(state).unwrap(),
            &VerifyOptions {
                max_failures: 1,
                ..VerifyOptions::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.failures.len(), 1);
    }
}
