//! The paper's claims (§1, §9, §11) as one integration suite — the
//! executable index behind EXPERIMENTS.md. Each test is a compact version
//! of an experiment E1–E10; the heavyweight variants live in the
//! per-crate test suites.

use std::ops::ControlFlow;

use gem::lang::monitor::{entries_sequential, monitor_restrictions, readers_writers_monitor};
use gem::lang::{csp::csp_restrictions, find_deadlock, Explorer};
use gem::logic::{holds_on_computation, Strategy};
use gem::obs::NoopProbe;
use gem::problems::readers_writers::{
    rw_correspondence, rw_program, rw_spec, writers_priority_monitor, RwVariant,
};
use gem::problems::{bounded, db_update, life, one_slot};
use gem::verify::{verify_system, VerifyOptions};

/// E1 — "sequential execution of monitor entries" (§11): all
/// monitor-internal events are totally ordered, plus the Monitor-primitive
/// restrictions, on every schedule.
#[test]
fn e1_monitor_description() {
    let sys = rw_program(readers_writers_monitor(), 1, 1, false);
    let restrictions = monitor_restrictions(&sys);
    let mut runs = 0;
    Explorer::default().for_each_run(&sys, |state, _| {
        runs += 1;
        let c = sys.computation(state).expect("acyclic");
        assert!(entries_sequential(&sys, &c));
        for (name, f) in &restrictions {
            assert!(holds_on_computation(f, &c).unwrap(), "{name}");
        }
        ControlFlow::Continue(())
    });
    assert!(runs >= 2);
}

/// E2 — the §8.3 mutual-exclusion restriction holds of the §9 monitor,
/// including the shared-data events.
#[test]
fn e2_mutual_exclusion() {
    let sys = rw_program(readers_writers_monitor(), 1, 1, true);
    let problem = rw_spec(2, true, RwVariant::MutexOnly);
    let corr = rw_correspondence(&sys, &problem, true);
    let outcome = verify_system(
        &sys,
        &problem,
        &corr,
        |s| sys.computation(s).unwrap(),
        &VerifyOptions::default(),
    )
    .unwrap();
    assert!(outcome.ok(), "{outcome}");
    assert!(outcome.exhaustive());
}

/// E3 — the §9 readers-priority proof, mechanized; with the
/// writers-priority spec as a refuted negative control.
#[test]
fn e3_readers_priority() {
    let sys = rw_program(readers_writers_monitor(), 1, 2, false);
    for (variant, expect) in [
        (RwVariant::ReadersPriority, true),
        (RwVariant::WritersPriority, false),
    ] {
        let problem = rw_spec(3, false, variant);
        let corr = rw_correspondence(&sys, &problem, false);
        let outcome = verify_system(
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).unwrap(),
            &VerifyOptions::default(),
        )
        .unwrap();
        assert_eq!(outcome.ok(), expect, "{variant:?}: {outcome}");
    }
}

/// E4 — the One-Slot Buffer solved in Monitor, CSP, and ADA.
#[test]
fn e4_one_slot_three_substrates() {
    let items = [5i64, 6];
    let problem = one_slot::one_slot_spec();
    let m = one_slot::monitor_solution(&items);
    let mc = one_slot::monitor_correspondence(&m, &problem);
    assert!(verify_system(
        &m,
        &problem,
        &mc,
        |s| m.computation(s).unwrap(),
        &VerifyOptions::default()
    )
    .unwrap()
    .ok());
    let c = one_slot::csp_solution(&items);
    let cc = one_slot::csp_correspondence(&c, &problem);
    assert!(verify_system(
        &c,
        &problem,
        &cc,
        |s| c.computation(s).unwrap(),
        &VerifyOptions::default()
    )
    .unwrap()
    .ok());
    let a = one_slot::ada_solution(&items);
    let ac = one_slot::ada_correspondence(&a, &problem);
    assert!(verify_system(
        &a,
        &problem,
        &ac,
        |s| a.computation(s).unwrap(),
        &VerifyOptions::default()
    )
    .unwrap()
    .ok());
}

/// E5 — the Bounded Buffer solved in Monitor, CSP, and ADA.
#[test]
fn e5_bounded_three_substrates() {
    let items = [1i64, 2, 3];
    let cap = 2;
    let problem = bounded::bounded_spec(items.len(), cap);
    let m = bounded::monitor_solution(&items, cap);
    let mc = bounded::monitor_correspondence(&m, &problem, cap);
    assert!(verify_system(
        &m,
        &problem,
        &mc,
        |s| m.computation(s).unwrap(),
        &VerifyOptions::default()
    )
    .unwrap()
    .ok());
    let c = bounded::csp_solution(&items, cap);
    let cc = bounded::csp_correspondence(&c, &problem, cap);
    assert!(verify_system(
        &c,
        &problem,
        &cc,
        |s| c.computation(s).unwrap(),
        &VerifyOptions::default()
    )
    .unwrap()
    .ok());
    let a = bounded::ada_solution(&items, cap);
    let ac = bounded::ada_correspondence(&a, &problem, cap);
    assert!(verify_system(
        &a,
        &problem,
        &ac,
        |s| a.computation(s).unwrap(),
        &VerifyOptions::default()
    )
    .unwrap()
    .ok());
}

/// E6 — the five Readers/Writers variants distinguish the two schedulers.
#[test]
fn e6_variants_distinguish_schedulers() {
    // (monitor, variant) -> expected verdict table.
    let verdict = |writers_first: bool, variant: RwVariant, r: usize, w: usize| {
        let monitor = if writers_first {
            writers_priority_monitor()
        } else {
            readers_writers_monitor()
        };
        let sys = rw_program(monitor, r, w, false);
        let problem = rw_spec(r + w, false, variant);
        let corr = rw_correspondence(&sys, &problem, false);
        verify_system(
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).unwrap(),
            &VerifyOptions::default(),
        )
        .unwrap()
        .ok()
    };
    assert!(verdict(false, RwVariant::MutexOnly, 1, 1));
    assert!(verdict(true, RwVariant::MutexOnly, 1, 1));
    assert!(verdict(false, RwVariant::Progress, 1, 1));
    assert!(verdict(true, RwVariant::Progress, 1, 1));
    assert!(verdict(false, RwVariant::ReadersPriority, 1, 2));
    assert!(!verdict(true, RwVariant::ReadersPriority, 1, 2));
    assert!(!verdict(false, RwVariant::WritersPriority, 1, 2));
    assert!(verdict(true, RwVariant::WritersPriority, 2, 1));
}

/// E7 — distributed database update: deadlock-free, convergent, ordered.
#[test]
fn e7_db_update() {
    let sys = db_update::db_update_program(2, 2);
    assert!(find_deadlock(&sys, &Explorer::default(), &NoopProbe).is_none());
    let problem = db_update::db_update_spec(2, 2);
    let corr = db_update::db_update_correspondence(&sys, &problem, 2);
    let outcome = verify_system(
        &sys,
        &problem,
        &corr,
        |s| sys.computation(s).unwrap(),
        &VerifyOptions::default(),
    )
    .unwrap();
    assert!(outcome.ok(), "{outcome}");
}

/// E8 — asynchronous Game of Life matches the synchronous reference.
#[test]
fn e8_async_life() {
    let grid = life::block();
    let gens = 1;
    let sys = life::life_program(&grid, gens);
    let problem = life::life_spec(&grid, gens);
    let corr = life::life_correspondence(&sys, &problem, &grid);
    let outcome = verify_system(
        &sys,
        &problem,
        &corr,
        |s| sys.computation(s).unwrap(),
        &VerifyOptions {
            explorer: Explorer::with_max_runs(30),
            ..VerifyOptions::default()
        },
    )
    .unwrap();
    assert!(outcome.ok(), "{outcome}");
}

/// E9 — the CSP simultaneity-of-exchange restriction (§8.2).
#[test]
fn e9_csp_simultaneity() {
    use gem::lang::csp::{CspProcess, CspProgram, CspStmt, CspSystem};
    use gem::lang::Expr;
    let prog = CspProgram::new()
        .process(CspProcess::new(
            "a",
            vec![
                CspStmt::send("b", Expr::int(1)),
                CspStmt::send("b", Expr::int(2)),
            ],
        ))
        .process(
            CspProcess::new("b", vec![CspStmt::recv("a", "x"), CspStmt::recv("a", "x")])
                .local("x", 0i64),
        );
    let sys = CspSystem::new(prog);
    let restrictions = csp_restrictions(&sys);
    Explorer::default().for_each_run(&sys, |state, _| {
        let c = sys.computation(state).unwrap();
        for (name, f) in &restrictions {
            assert!(holds_on_computation(f, &c).unwrap(), "{name}");
        }
        ControlFlow::Continue(())
    });
}

/// E10 — thread identifiers are created uniquely per transaction and
/// passed along the control chain (§8.3).
#[test]
fn e10_thread_mechanism() {
    use gem::spec::check_thread_tags;
    use gem::verify::project;
    let sys = rw_program(readers_writers_monitor(), 2, 1, false);
    let problem = rw_spec(3, false, RwVariant::MutexOnly);
    let corr = rw_correspondence(&sys, &problem, false);
    let mut checked = 0;
    Explorer::with_max_runs(10).for_each_run(&sys, |state, _| {
        let c = sys.computation(state).unwrap();
        let p = project(&c, problem.structure_arc(), &corr).unwrap();
        let tagged = problem.assign_threads(&p);
        for spec in problem.threads() {
            assert!(check_thread_tags(&tagged, spec).is_empty());
        }
        checked += 1;
        ControlFlow::Continue(())
    });
    assert_eq!(checked, 10);
}

/// Larger-instance smoke: 2R+2W exceeds 10⁶ schedules, so exhaustive
/// verification is infeasible — the documented fallback is bounded
/// exploration plus seeded random-linearization checking, which still
/// finds no violation and correctly reports non-exhaustiveness.
#[test]
fn large_instance_bounded_verification() {
    use gem::verify::VerifyOptions;
    let sys = rw_program(readers_writers_monitor(), 2, 2, false);
    let problem = rw_spec(4, false, RwVariant::MutexOnly);
    let corr = rw_correspondence(&sys, &problem, false);
    let outcome = verify_system(
        &sys,
        &problem,
        &corr,
        |s| sys.computation(s).unwrap(),
        &VerifyOptions {
            explorer: Explorer::with_max_runs(300),
            strategy: Strategy::RandomLinearizations {
                count: 20,
                seed: 42,
            },
            ..VerifyOptions::default()
        },
    )
    .unwrap();
    assert!(outcome.ok(), "{outcome}");
    assert!(!outcome.exhaustive(), "run budget must be reported as hit");
    assert_eq!(outcome.runs, 300);
}

/// The strategies agree on the RW mutex verdict (consistency of the
/// checking machinery itself).
#[test]
fn strategies_agree_on_mutex() {
    let sys = rw_program(readers_writers_monitor(), 1, 1, false);
    let problem = rw_spec(2, false, RwVariant::MutexOnly);
    let corr = rw_correspondence(&sys, &problem, false);
    for strategy in [
        Strategy::Linearizations { limit: 50_000 },
        Strategy::RandomLinearizations {
            count: 50,
            seed: 11,
        },
        Strategy::GreedySteps,
    ] {
        let outcome = verify_system(
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).unwrap(),
            &VerifyOptions {
                strategy,
                ..VerifyOptions::default()
            },
        )
        .unwrap();
        assert!(outcome.ok(), "{strategy:?}: {outcome}");
    }
}
