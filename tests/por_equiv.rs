//! Differential soundness suite for sleep-set partial-order reduction
//! (`Explorer::reduce`).
//!
//! POR deliberately changes *which* and *how many* schedules are explored,
//! so the comparison is not run-by-run but computation-level, matching
//! the property POR actually promises:
//!
//! * `verify_system` reports the same verdict (pass / fail / deadlock)
//!   with reduction on and off — on Monitor, CSP, and ADA instances,
//!   including a genuinely failing one and a deadlocking one;
//! * the *set* of canonical computations reached (via
//!   [`gem::verify::canonical_key`]) is identical — sleep sets drop
//!   redundant linearizations of a trace, never whole traces — and the
//!   reduced sweep reaches each of them exactly once;
//! * the counterexample surfaced on a failing instance is
//!   canonical-key-equivalent to the unreduced one;
//! * a proptest: swapping two adjacent actions the oracle claims
//!   independent inside a real schedule preserves enabledness of the
//!   remainder and the final computation's canonical key.

use std::collections::BTreeSet;
use std::ops::ControlFlow;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use gem::core::Computation;
use gem::lang::monitor::readers_writers_monitor;
use gem::lang::{find_deadlock, ExploreStats, Explorer, System};
use gem::logic::{check, EventSel, Formula, Strategy};
use gem::obs::NoopProbe;
use gem::problems::bounded;
use gem::problems::philosophers::{philosophers_program, ForkOrder};
use gem::problems::readers_writers::{rw_correspondence, rw_program, rw_spec, RwVariant};
use gem::spec::Specification;
use gem::verify::{canonical_key, verify_system, CanonicalKey, Correspondence, VerifyOptions};

/// Sweeps every maximal run and collects the canonical key of each sealed
/// computation, plus the exploration stats.
fn computation_keys<S: System>(
    sys: &S,
    explorer: &Explorer,
    extract: impl Fn(&S::State) -> Computation,
) -> (BTreeSet<CanonicalKey>, ExploreStats) {
    let mut keys = BTreeSet::new();
    let stats = explorer.for_each_run(sys, |state, _| {
        keys.insert(canonical_key(&extract(state)));
        ControlFlow::Continue(())
    });
    (keys, stats)
}

/// Boils a `VerifyOutcome` down to what POR must preserve. Run counts and
/// failure indices legitimately shrink under reduction, so the comparison
/// is the verdict: did it pass, did it fail, did it deadlock.
fn verdict(outcome: &gem::verify::VerifyOutcome) -> (bool, bool, bool) {
    (
        outcome.ok(),
        !outcome.failures.is_empty(),
        outcome.deadlocks > 0,
    )
}

/// Sweeps `sys` reduced and asserts that no two runs seal to the same
/// computation: sleep sets keep one representative per computation, so
/// the number of distinct canonical keys equals the run count. Returns the
/// keys and the stats.
fn assert_each_computation_once<S: System>(
    sys: &S,
    extract: impl Fn(&S::State) -> Computation,
    what: &str,
) -> (BTreeSet<CanonicalKey>, ExploreStats) {
    let reduced = Explorer {
        reduce: true,
        ..Explorer::default()
    };
    let (keys, stats) = computation_keys(sys, &reduced, extract);
    assert!(
        !stats.truncated(),
        "{what}: reduced sweep truncated: {stats}"
    );
    assert_eq!(
        keys.len(),
        stats.runs,
        "{what}: POR reached some computation more than once"
    );
    (keys, stats)
}

/// The core differential: on one instance, reduction must preserve the
/// verify verdict and the exact set of canonical computations, reach each
/// computation once, and never explore *more* runs. Returns
/// `(full, reduced)` stats so callers can assert the reduction actually
/// bites where it should.
fn assert_por_equiv<S: System>(
    sys: &S,
    spec: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> Computation + Copy,
    what: &str,
) -> (ExploreStats, ExploreStats) {
    let (full_keys, full_stats) = computation_keys(sys, &Explorer::default(), extract);
    let (keys, reduced_stats) = assert_each_computation_once(sys, extract, what);
    assert_eq!(
        full_keys, keys,
        "{what}: POR changed the set of canonical computations"
    );
    assert!(
        reduced_stats.runs <= full_stats.runs,
        "{what}: POR explored more runs ({}) than the full sweep ({})",
        reduced_stats.runs,
        full_stats.runs
    );
    assert_eq!(
        reduced_stats.por_runs, reduced_stats.runs,
        "{what}: every run under reduce must be counted as a representative"
    );

    let baseline = outcome_at(sys, spec, corr, extract, false);
    let reduced = outcome_at(sys, spec, corr, extract, true);
    assert_eq!(
        verdict(&baseline),
        verdict(&reduced),
        "{what}: verdict diverges under POR\n\
         full: {baseline}\nreduced: {reduced}"
    );
    (full_stats, reduced_stats)
}

/// `verify_system` with default options, reduced or not.
fn outcome_at<S: System>(
    sys: &S,
    spec: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> Computation,
    reduce: bool,
) -> gem::verify::VerifyOutcome {
    verify_system(
        sys,
        spec,
        corr,
        extract,
        &VerifyOptions {
            explorer: Explorer {
                reduce,
                ..Explorer::default()
            },
            ..VerifyOptions::default()
        },
    )
    .expect("correspondence consistent")
}

/// Canonical key of the computation behind the first reported failure:
/// re-enumerates runs with the same explorer (run indices are stable in
/// DFS order) and seals the one `verify_system` pointed at.
fn first_failure_key<S: System>(
    sys: &S,
    spec: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> Computation + Copy,
    explorer: Explorer,
) -> Option<CanonicalKey> {
    let outcome = verify_system(
        sys,
        spec,
        corr,
        extract,
        &VerifyOptions {
            explorer,
            ..VerifyOptions::default()
        },
    )
    .expect("correspondence consistent");
    let target = outcome.failures.first()?.run;
    let mut run = 0usize;
    let mut key = None;
    explorer.for_each_run(sys, |state, _| {
        if run == target {
            key = Some(canonical_key(&extract(state)));
            return ControlFlow::Break(());
        }
        run += 1;
        ControlFlow::Continue(())
    });
    Some(key.expect("failure index within run count"))
}

#[test]
fn monitor_bounded_buffer_por_equiv() {
    let sys = bounded::monitor_solution(&[1, 2, 3], 2);
    let spec = bounded::bounded_spec(3, 2);
    let corr = bounded::monitor_correspondence(&sys, &spec, 2);
    let (full, reduced) = assert_por_equiv(
        &sys,
        &spec,
        &corr,
        |s| sys.computation(s).expect("acyclic"),
        "monitor bounded buffer",
    );
    // Every step of this program is a monitor entry call, and entry
    // traffic serialises on the lock element, so the oracle rightly
    // finds nothing to commute: POR must be an exact no-op here.
    assert_eq!(
        (full.runs, 0),
        (reduced.runs, reduced.sleep_skipped),
        "pure entry-call programs admit no reduction: full={full} reduced={reduced}"
    );
}

#[test]
fn csp_bounded_buffer_por_equiv() {
    let sys = bounded::csp_solution(&[1, 2, 3], 2);
    let spec = bounded::bounded_spec(3, 2);
    let corr = bounded::csp_correspondence(&sys, &spec, 2);
    assert_por_equiv(
        &sys,
        &spec,
        &corr,
        |s| sys.computation(s).expect("acyclic"),
        "csp bounded buffer",
    );
}

#[test]
fn ada_bounded_buffer_por_equiv() {
    let sys = bounded::ada_solution(&[1, 2, 3], 2);
    let spec = bounded::bounded_spec(3, 2);
    let corr = bounded::ada_correspondence(&sys, &spec, 2);
    assert_por_equiv(
        &sys,
        &spec,
        &corr,
        |s| sys.computation(s).expect("acyclic"),
        "ada bounded buffer",
    );
}

#[test]
fn ada_bounded_buffer_four_items_por_equiv() {
    // `gem verify bounded items=4 cap=2 substrate=ada`: 2 008 schedules
    // collapse to 8 representatives, one per computation.
    let sys = bounded::ada_solution(&[1, 2, 3, 4], 2);
    let spec = bounded::bounded_spec(4, 2);
    let corr = bounded::ada_correspondence(&sys, &spec, 2);
    let (_, reduced) = assert_por_equiv(
        &sys,
        &spec,
        &corr,
        |s| sys.computation(s).expect("acyclic"),
        "ada bounded buffer 4 items",
    );
    assert_eq!(reduced.runs, 8, "{reduced}");
}

#[test]
fn monitor_rw_1r2w_with_data_por_reaches_each_computation_once() {
    // `gem verify rw readers=1 writers=2 variant=mutex data=true`. The
    // unreduced sweep exceeds the default run cap, so only the reduced
    // side is swept: every representative is a distinct computation, and
    // the verdict holds.
    let sys = rw_program(readers_writers_monitor(), 1, 2, true);
    let spec = rw_spec(3, true, RwVariant::MutexOnly);
    let corr = rw_correspondence(&sys, &spec, true);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    let (_, reduced) = assert_each_computation_once(&sys, extract, "monitor rw 1r2w with data");
    assert_eq!(reduced.runs, 2_070, "{reduced}");
    let outcome = outcome_at(&sys, &spec, &corr, extract, true);
    assert!(outcome.ok() && outcome.exhaustive(), "{outcome}");
    assert_eq!(outcome.runs, reduced.runs);
}

#[test]
fn monitor_rw_with_data_por_reduces_and_preserves_verdict() {
    // The exact instance the F7 benchmark measures
    // (`rw_verify/mutex_with_data_1r1w`): user-level events and shared
    // `data` accesses interleave with monitor-entry traffic of the other
    // process, and those pairs commute — this is where sleep sets bite.
    let sys = rw_program(readers_writers_monitor(), 1, 1, true);
    let spec = rw_spec(2, true, RwVariant::MutexOnly);
    let corr = rw_correspondence(&sys, &spec, true);
    let (full, reduced) = assert_por_equiv(
        &sys,
        &spec,
        &corr,
        |s| sys.computation(s).expect("acyclic"),
        "monitor rw 1r1w with data",
    );
    assert!(
        reduced.sleep_skipped > 0 && reduced.runs < full.runs,
        "monitor rw 1r1w with data: expected a real reduction, got full={full} reduced={reduced}"
    );
}

#[test]
fn failing_instance_verdict_and_counterexample_preserved() {
    // The readers-priority monitor violates writers-priority on 1R+2W.
    // POR must still fail, and the counterexample it surfaces must seal
    // to the same canonical computation as some unreduced failure —
    // checked here at the strongest level that holds: first-failure keys.
    let sys = rw_program(readers_writers_monitor(), 1, 2, false);
    let spec = rw_spec(3, false, RwVariant::WritersPriority);
    let corr = rw_correspondence(&sys, &spec, false);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_por_equiv(&sys, &spec, &corr, extract, "monitor rw 1r2w failing");

    let full_key = first_failure_key(&sys, &spec, &corr, extract, Explorer::default())
        .expect("instance fails");
    let por_key = first_failure_key(
        &sys,
        &spec,
        &corr,
        extract,
        Explorer {
            reduce: true,
            ..Explorer::default()
        },
    )
    .expect("still fails under POR");
    assert_eq!(
        full_key, por_key,
        "POR counterexample is not canonical-key-equivalent"
    );
}

#[test]
fn deadlock_preserved_under_por() {
    // Two naive-order philosophers deadlock; sleep sets keep at least one
    // linearization per trace, so the deadlock must survive reduction and
    // seal to the same canonical computation.
    let sys = philosophers_program(2, 1, ForkOrder::Naive);
    let key_of = |path: &[_]| {
        let mut state = sys.initial();
        for action in path {
            sys.apply(&mut state, action);
        }
        canonical_key(&sys.computation(&state).expect("acyclic"))
    };
    let reduced = Explorer {
        reduce: true,
        ..Explorer::default()
    };
    let full =
        find_deadlock(&sys, &Explorer::default(), &NoopProbe).expect("naive philosophers deadlock");
    let reduced_witness =
        find_deadlock(&sys, &reduced, &NoopProbe).expect("deadlock must survive POR");
    assert_eq!(
        key_of(&full),
        key_of(&reduced_witness),
        "deadlock witness computation diverges under POR"
    );

    // And the deadlock-free bounded buffer must stay deadlock-free.
    let clean = bounded::monitor_solution(&[1, 2], 2);
    assert!(
        find_deadlock(&clean, &reduced, &NoopProbe).is_none(),
        "POR invented a deadlock"
    );
}

#[test]
fn liveness_verdict_preserved_under_por() {
    // Two items keep the sweep small: the failing formula below cannot
    // early-exit, so every linearization of every run gets checked.
    let sys = bounded::monitor_solution(&[1, 2], 2);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    // "Eventually some event occurs" holds on every run; "eventually an
    // event carries the value 999" holds on none. Both verdicts must
    // survive reduction.
    let holds = Formula::exists("x", EventSel::any(), Formula::occurred("x")).eventually();
    let fails = Formula::exists(
        "x",
        EventSel::any().with_param(0, 999i64),
        Formula::occurred("x"),
    )
    .eventually();
    // Each run's computation is judged with `check`; the sweep reports
    // its run count and whether the formula held on every run.
    let judge = |formula: &Formula, reduce: bool| {
        let mut all_hold = true;
        let explorer = Explorer {
            reduce,
            ..Explorer::default()
        };
        let stats = explorer.for_each_run(&sys, |state, _| {
            let strategy = Strategy::Linearizations { limit: 1_000 };
            all_hold &= check(formula, &extract(state), strategy).is_ok_and(|r| r.holds);
            ControlFlow::Continue(())
        });
        (stats.runs, all_hold)
    };
    for (formula, expect_ok) in [(&holds, true), (&fails, false)] {
        let (base_runs, base_ok) = judge(formula, false);
        assert_eq!(base_ok, expect_ok, "baseline liveness verdict");
        let (reduced_runs, reduced_ok) = judge(formula, true);
        assert_eq!(base_ok, reduced_ok, "liveness verdict diverges under POR");
        assert!(reduced_runs <= base_runs);
    }
}

/// Replays `picks` as scheduler choices (index mod enabled-count) and
/// returns the states along the way plus the chosen actions.
fn random_run<S: System>(sys: &S, picks: &[usize]) -> (Vec<S::State>, Vec<S::Action>) {
    let mut states = vec![sys.initial()];
    let mut path = Vec::new();
    for &pick in picks {
        let enabled = sys.enabled(states.last().expect("nonempty"));
        if enabled.is_empty() {
            break;
        }
        let action = enabled[pick % enabled.len()].clone();
        let mut next = states.last().expect("nonempty").clone();
        sys.apply(&mut next, &action);
        path.push(action);
        states.push(next);
    }
    (states, path)
}

/// The commutation contract behind sleep sets, checked on one concrete
/// schedule: wherever the oracle claims adjacent actions independent (and
/// the later one was already enabled before the earlier), swapping them
/// must keep the rest of the schedule enabled and seal to a computation
/// with the *same canonical key*.
fn check_adjacent_swaps<S: System>(
    sys: &S,
    picks: &[usize],
    extract: impl Fn(&S::State) -> Computation,
) -> Result<(), TestCaseError> {
    let (states, path) = random_run(sys, picks);
    if path.len() < 2 {
        return Ok(());
    }
    let full_key = canonical_key(&extract(states.last().expect("nonempty")));
    for i in 0..path.len() - 1 {
        let (a, b) = (&path[i], &path[i + 1]);
        if !sys.enabled(&states[i]).contains(b) || !sys.independent(&states[i], a, b) {
            continue;
        }
        let mut state = states[i].clone();
        sys.apply(&mut state, b);
        prop_assert!(
            sys.enabled(&state).contains(a),
            "oracle claimed {a:?} ⫫ {b:?} but {b:?} disables {a:?}"
        );
        sys.apply(&mut state, a);
        for c in &path[i + 2..] {
            prop_assert!(
                sys.enabled(&state).contains(c),
                "swap of {a:?}/{b:?} at position {i} disables later action {c:?}"
            );
            sys.apply(&mut state, c);
        }
        prop_assert_eq!(
            &canonical_key(&extract(&state)),
            &full_key,
            "swapping independent {:?}/{:?} at position {} changed the canonical key",
            a,
            b,
            i
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn monitor_adjacent_independent_swaps_preserve_canonical_key(
        picks in proptest::collection::vec(0usize..64, 1..48),
        readers in 1usize..=2,
        writers in 1usize..=2,
    ) {
        let sys = rw_program(readers_writers_monitor(), readers, writers, false);
        check_adjacent_swaps(&sys, &picks, |s| sys.computation(s).expect("acyclic"))?;
    }

    #[test]
    fn csp_adjacent_independent_swaps_preserve_canonical_key(
        picks in proptest::collection::vec(0usize..64, 1..48),
    ) {
        let sys = bounded::csp_solution(&[1, 2, 3], 2);
        check_adjacent_swaps(&sys, &picks, |s| sys.computation(s).expect("acyclic"))?;
    }

    #[test]
    fn ada_adjacent_independent_swaps_preserve_canonical_key(
        picks in proptest::collection::vec(0usize..64, 1..48),
    ) {
        let sys = bounded::ada_solution(&[1, 2, 3], 2);
        check_adjacent_swaps(&sys, &picks, |s| sys.computation(s).expect("acyclic"))?;
    }

    #[test]
    fn monitor_bounded_adjacent_independent_swaps_preserve_canonical_key(
        picks in proptest::collection::vec(0usize..64, 1..48),
    ) {
        let sys = bounded::monitor_solution(&[1, 2, 3], 2);
        check_adjacent_swaps(&sys, &picks, |s| sys.computation(s).expect("acyclic"))?;
    }
}

/// CLI surface: `--por` preserves the verdict line, is rejected with an
/// inline value, records itself in artifact bundles, and `gem replay`
/// flags the schedule as a sleep-set representative.
#[test]
fn cli_por_flag_verdict_artifacts_and_replay() {
    let runv = |args: &[&str]| {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        gem_cli::run(&owned).map(|out| out.stdout)
    };
    let verdict_line = |out: &str| {
        out.lines()
            .find(|l| l.starts_with("verdict:"))
            .map(str::to_owned)
            .unwrap_or_else(|| panic!("no verdict line in {out:?}"))
    };

    // Passing instance: the verdict is identical, only the sweep shrinks.
    let base = &[
        "verify",
        "rw",
        "readers=1",
        "writers=1",
        "data=true",
        "variant=mutex",
        "--heartbeat",
        "0",
    ];
    let plain = runv(base).expect("plain verify");
    let mut with_por: Vec<&str> = base.to_vec();
    with_por.push("--por");
    let reduced = runv(&with_por).expect("por verify");
    assert_eq!(verdict_line(&plain), verdict_line(&reduced));
    assert!(plain.contains("812 run(s)"), "{plain}");
    assert!(reduced.contains("24 run(s)"), "{reduced}");

    // Flag hygiene: `--por` is a bare switch.
    let e = runv(&["verify", "rw", "--por=yes"]).expect_err("inline value");
    assert!(e.to_string().contains("--por takes no value"), "{e}");

    // A failing sweep under --por records the flag in meta.json, and
    // replay warns that the schedule is a reduced-enumeration witness.
    let dir = std::env::temp_dir().join(format!("gem-por-cli-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let out = runv(&[
        "verify",
        "rw",
        "readers=1",
        "writers=2",
        "variant=writers",
        "--por",
        "--artifacts",
        dir_s,
        "--heartbeat",
        "0",
    ])
    .expect("failing verify still returns output");
    assert!(out.contains("FAILS"), "{out}");
    let meta = std::fs::read_to_string(dir.join("meta.json")).expect("meta.json");
    assert!(meta.contains("\"por\": \"true\""), "{meta}");
    let replayed = runv(&["replay", dir_s, "--heartbeat", "0"]).expect("replay");
    assert!(replayed.contains("REPRODUCED"), "{replayed}");
    assert!(replayed.contains("sleep-set representative"), "{replayed}");
    std::fs::remove_dir_all(&dir).ok();
}
