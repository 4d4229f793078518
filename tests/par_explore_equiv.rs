//! Differential harness: computation-level deduplication must never change
//! a verification outcome.
//!
//! For Monitor, CSP, and ADA bounded buffers and a failing
//! readers/writers instance, the whole [`gem::verify::VerifyOutcome`] —
//! run counts, deadlocks, every failure's index/names/detail, truncation —
//! is compared with `Explorer::dedup_computations` on and off. The file
//! once also compared a parallel explorer against the serial sweep; that
//! explorer is gone and every sweep here is the serial one.

use gem::lang::monitor::readers_writers_monitor;
use gem::lang::{Explorer, System};
use gem::problems::bounded;
use gem::problems::readers_writers::{rw_correspondence, rw_program, rw_spec, RwVariant};
use gem::spec::Specification;
use gem::verify::{verify_system, Correspondence, VerifyOptions};

/// True when CI forces sleep-set partial-order reduction across the suite
/// (`GEM_TEST_POR=1`). Both sides of every differential here honour the
/// flag, so under that leg the file checks dedup × POR.
fn por_env() -> bool {
    std::env::var("GEM_TEST_POR").is_ok_and(|v| v.trim() == "1")
}

/// Computation-dedup differential on one system: the outcome with dedup
/// on must equal the outcome with it off. This is the soundness witness
/// for `Explorer::dedup_computations`: it skips redundant *checking*,
/// never runs.
fn assert_dedup_equiv<S: System>(
    sys: &S,
    spec: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> gem::core::Computation + Copy,
    what: &str,
) {
    let outcome_at = |dedup: bool| {
        verify_system(
            sys,
            spec,
            corr,
            extract,
            &VerifyOptions {
                explorer: Explorer {
                    reduce: por_env(),
                    dedup_computations: dedup,
                    ..Explorer::default()
                },
                ..VerifyOptions::default()
            },
        )
        .expect("correspondence consistent")
    };
    let baseline = outcome_at(false);
    assert!(baseline.runs > 0, "{what}: empty sweep ({baseline})");
    assert_eq!(
        baseline,
        outcome_at(true),
        "{what}: VerifyOutcome diverges with dedup on"
    );
}

#[test]
fn dedup_outcome_identical_monitor_bounded() {
    let sys = bounded::monitor_solution(&[1, 2, 3], 2);
    let spec = bounded::bounded_spec(3, 2);
    let corr = bounded::monitor_correspondence(&sys, &spec, 2);
    assert_dedup_equiv(
        &sys,
        &spec,
        &corr,
        |s| sys.computation(s).expect("acyclic"),
        "monitor bounded buffer",
    );
}

#[test]
fn dedup_outcome_identical_csp_bounded() {
    let sys = bounded::csp_solution(&[1, 2, 3], 2);
    let spec = bounded::bounded_spec(3, 2);
    let corr = bounded::csp_correspondence(&sys, &spec, 2);
    assert_dedup_equiv(
        &sys,
        &spec,
        &corr,
        |s| sys.computation(s).expect("acyclic"),
        "csp bounded buffer",
    );
}

#[test]
fn dedup_outcome_identical_ada_bounded() {
    let sys = bounded::ada_solution(&[1, 2, 3], 2);
    let spec = bounded::bounded_spec(3, 2);
    let corr = bounded::ada_correspondence(&sys, &spec, 2);
    assert_dedup_equiv(
        &sys,
        &spec,
        &corr,
        |s| sys.computation(s).expect("acyclic"),
        "ada bounded buffer",
    );
}

#[test]
fn dedup_outcome_identical_on_failing_instance() {
    // A failing sweep is the sharp case: cached verdicts must replay the
    // first failure at the same run index with the same detail string,
    // and the max_failures early exit must fire at the same point.
    let sys = rw_program(readers_writers_monitor(), 1, 2, false);
    let spec = rw_spec(3, false, RwVariant::WritersPriority);
    let corr = rw_correspondence(&sys, &spec, false);
    assert_dedup_equiv(
        &sys,
        &spec,
        &corr,
        |s| sys.computation(s).expect("acyclic"),
        "monitor rw 1r2w vs writers-priority",
    );
}
