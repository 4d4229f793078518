//! # gem-verify — the GEM verification methodology (§9)
//!
//! Machine-checked `PROG sat P`: choose the **significant objects** of a
//! program specification via a [`Correspondence`], [`project`] each of
//! the program's computations onto them, and check every restriction of
//! the problem specification — over *all* schedules of the program, via
//! [`verify_system`]. Deadlock-freedom is a property of terminal states,
//! searched by [`gem_lang::find_deadlock`]; a liveness claim is a `◇`
//! restriction that [`verify_system`] judges like any other.
//!
//! This replaces the paper's hand proofs with exhaustive bounded
//! verification (see DESIGN.md, "Substitutions"): the judgement is the
//! same — the monitor of §9 *does* give readers priority — but the
//! evidence is a sweep over every schedule of a bounded instance rather
//! than a manual argument.
//!
//! ## Example
//!
//! ```
//! use gem_lang::monitor::{MonitorDef, MonitorProgram, MonitorSystem, ProcessDef, ScriptStep, Stmt};
//! use gem_lang::Expr;
//! use gem_logic::EventSel;
//! use gem_spec::{prerequisite, ElementType, SpecBuilder};
//! use gem_verify::{verify_system, Correspondence, VerifyOptions};
//!
//! // Problem: every Done is enabled by exactly one Begin.
//! let ticket = ElementType::new("Ctl").event("TBegin", &[]).event("TDone", &[]);
//! let mut sb = SpecBuilder::new("Ticket");
//! let ctl = sb.instantiate_element(&ticket, "ctl").unwrap();
//! sb.add_restriction("begin-then-done", prerequisite(&ctl.sel("TBegin"), &ctl.sel("TDone")));
//! let problem = sb.finish();
//!
//! // Program: a trivial monitor entry called by two processes.
//! let monitor = MonitorDef::new("M").var("x", 0i64).entry(
//!     "Inc", &[], vec![Stmt::assign("x", Expr::var("x").add(Expr::int(1)))]);
//! let mut prog = MonitorProgram::new(monitor);
//! for i in 0..2 {
//!     prog = prog.process(ProcessDef::new(format!("p{i}"), vec![ScriptStep::Call {
//!         entry: "Inc".into(), args: vec![] }]));
//! }
//! let sys = MonitorSystem::new(prog);
//!
//! // Significant objects: entry Begin ↦ TBegin, entry End ↦ TDone.
//! let ps = problem.structure();
//! let corr = Correspondence::new()
//!     .map(EventSel::of_class(sys.class("Begin")), ps.element("ctl").unwrap(),
//!          ps.class("TBegin").unwrap())
//!     .map(EventSel::of_class(sys.class("End")), ps.element("ctl").unwrap(),
//!          ps.class("TDone").unwrap());
//!
//! let outcome = verify_system(&sys, &problem, &corr,
//!     |s| sys.computation(s).unwrap(), &VerifyOptions::default()).unwrap();
//! assert!(outcome.ok() && outcome.exhaustive());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canon;
mod correspondence;
pub mod forensics;
pub mod incr;
mod sat;

pub use canon::{canonical_key, CanonicalKey};
pub use correspondence::{project, Correspondence, Pair, ProjectError};
pub use forensics::{computation_json, derive_schedule, outcome_path, ArtifactSink};
pub use incr::{IncrChecker, LeafStatus};
pub use sat::{
    check_computation, verify_system, RunCheck, RunFailure, VerifyOptions, VerifyOutcome,
};
