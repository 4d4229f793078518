//! Differential harness: incremental restriction checking must be
//! observationally invisible.
//!
//! `verify_system` proves leaves clean with a prefix-sharing incremental
//! evaluator and sends only the rest down the seal→project→check
//! pipeline — but verdicts, failure details, deadlock counts, blame
//! artifacts, and the exploration-level counters must equal those of
//! the plain batch sweep in `support` that checks every leaf, across
//! every substrate (monitor, CSP, ADA), with and without sleep-set POR,
//! on holding, failing, and deadlocking instances alike. Only the
//! work-reflecting namespaces (`logic.*`, `restriction.*`, `project.*`,
//! `core.*`, phase timers) may differ: that skipped work *is* the
//! optimisation.

mod support;

use std::ops::ControlFlow;
use std::sync::Arc;

use gem::core::Computation;
use gem::lang::monitor::readers_writers_monitor;
use gem::lang::{Explorer, System};
use gem::logic::Formula;
use gem::obs::json::{self, JsonValue};
use gem::obs::StatsProbe;
use gem::problems::readers_writers::{
    rw_correspondence, rw_program, rw_spec, writers_priority_monitor, RwVariant,
};
use gem::problems::{bounded, one_slot, philosophers};
use gem::spec::Specification;
use gem::verify::{
    computation_json, verify_system, ArtifactSink, Correspondence, VerifyOptions, VerifyOutcome,
};
use support::batch_sweep;
use support::specs::{batch_only_spec, rw_control_spec};

/// The default options, with sleep-set POR on or off.
fn options(por: bool) -> VerifyOptions {
    VerifyOptions {
        explorer: Explorer {
            reduce: por,
            ..Explorer::default()
        },
        ..VerifyOptions::default()
    }
}

/// One probed `verify_system` sweep.
fn sweep<S: System>(
    sys: &S,
    spec: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> Computation,
    por: bool,
) -> (VerifyOutcome, gem::obs::Report) {
    let probe = Arc::new(StatsProbe::new());
    let outcome = verify_system(
        sys,
        spec,
        corr,
        extract,
        &VerifyOptions {
            probe: probe.clone(),
            ..options(por)
        },
    )
    .expect("projection");
    (outcome, probe.report())
}

/// Asserts `verify_system` agrees with the batch sweep on the outcome and
/// on every `explore.*` counter, with sleep-set POR off and on.
fn assert_matches_batch<S: System>(
    sys: &S,
    spec: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> Computation + Copy,
    what: &str,
) {
    for por in [false, true] {
        let (base_out, base_counters) = batch_sweep(sys, spec, corr, extract, &options(por));
        let (out, rep) = sweep(sys, spec, corr, extract, por);
        assert_eq!(base_out, out, "{what}: outcome diverges at por={por}");
        let mut counters = rep.counters;
        counters.retain(|k, _| k.starts_with("explore."));
        assert_eq!(
            base_counters, counters,
            "{what}: counters diverge at por={por}"
        );
    }
}

#[test]
fn monitor_holding_instance_agrees() {
    let sys = rw_program(readers_writers_monitor(), 1, 1, false);
    let spec = rw_spec(2, false, RwVariant::MutexOnly);
    let corr = rw_correspondence(&sys, &spec, false);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_matches_batch(&sys, &spec, &corr, extract, "rw 1r1w mutex");
    // Sanity: the instance really is in the incremental fragment, so the
    // equivalence above exercised the fast path, not a silent fallback.
    let (outcome, rep) = sweep(&sys, &spec, &corr, extract, false);
    assert!(outcome.ok());
    assert_eq!(
        rep.counters.get("logic.incr.leaf_clean").copied(),
        Some(outcome.runs as u64),
        "{:?}",
        rep.counters
    );
}

#[test]
fn monitor_failing_instance_agrees() {
    // Readers-priority monitor checked against the writers-priority spec:
    // the sweep FAILS, and the failure list (run indices, violated
    // restriction names, rendered details) must be the batch sweep's —
    // incr-flagged leaves adopt the batch verdict wholesale.
    let sys = rw_program(readers_writers_monitor(), 1, 2, false);
    let spec = rw_spec(3, false, RwVariant::WritersPriority);
    let corr = rw_correspondence(&sys, &spec, false);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_matches_batch(&sys, &spec, &corr, extract, "rw 1r2w writers");
    let (outcome, _) = sweep(&sys, &spec, &corr, extract, false);
    assert!(!outcome.ok(), "{outcome}");
    assert!(!outcome.failures.is_empty());
}

#[test]
fn monitor_violation_detected_incrementally_still_matches_batch() {
    // The writers-priority monitor *satisfies* writers-priority; flip the
    // spec to readers-priority so the temporal box restrictions violate
    // mid-run — the incremental checker flags them (not just fallback),
    // and the final report must still be the batch pipeline's.
    let sys = rw_program(writers_priority_monitor(), 2, 1, false);
    let spec = rw_spec(3, false, RwVariant::ReadersPriority);
    let corr = rw_correspondence(&sys, &spec, false);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_matches_batch(&sys, &spec, &corr, extract, "rw 2r1w readers-on-writers");
}

#[test]
fn csp_substrate_agrees() {
    let items: Vec<i64> = vec![1, 2];
    let spec = bounded::bounded_spec(items.len(), 1);
    let sys = bounded::csp_solution(&items, 1);
    let corr = bounded::csp_correspondence(&sys, &spec, 1);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_matches_batch(&sys, &spec, &corr, extract, "bounded csp");
}

#[test]
fn ada_substrate_agrees() {
    let items: Vec<i64> = vec![10, 20];
    let spec = one_slot::one_slot_spec();
    let sys = one_slot::ada_solution(&items);
    let corr = one_slot::ada_correspondence(&sys, &spec);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_matches_batch(&sys, &spec, &corr, extract, "one-slot ada");
}

#[test]
fn deadlocking_instance_agrees() {
    // Naive-order philosophers deadlock; deadlocked leaves always take
    // the batch path (their projections feed deadlock artifacts), while
    // complete clean leaves still ride the incremental one.
    let sys = philosophers::philosophers_program(2, 1, philosophers::ForkOrder::Naive);
    let spec = philosophers::philosophers_spec(2);
    let corr = philosophers::philosophers_correspondence(&sys, &spec, 2);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_matches_batch(&sys, &spec, &corr, extract, "philosophers naive");
    let (outcome, rep) = sweep(&sys, &spec, &corr, extract, false);
    assert!(outcome.deadlocks > 0, "{outcome}");
    assert!(
        rep.counters
            .get("logic.incr.leaf_clean")
            .copied()
            .unwrap_or(0)
            > 0,
        "clean leaves must still use the fast path: {:?}",
        rep.counters
    );
}

#[test]
fn forced_fallback_formula_agrees_and_is_reported() {
    // "No read transaction starts twice" as `◻∀s ¬∃t (…)`: the `∃` is
    // positive in the falsifying conjuncts, which the incremental
    // fragment excludes. One such restriction makes the whole sweep fall
    // back globally, the history-stable progress restrictions beside it
    // included; the reason lands in the report, and the outcome still
    // matches the batch sweep exactly.
    let sys = rw_program(readers_writers_monitor(), 1, 1, false);
    let spec = batch_only_spec();
    let corr = rw_correspondence(&sys, &spec, false);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_matches_batch(&sys, &spec, &corr, extract, "rw positive-exists (fallback)");
    // The fallback is decided when the checker compiles, so it is visible
    // per restriction; the sweep then skips the per-leaf machinery.
    let (outcome, rep) = sweep(&sys, &spec, &corr, extract, false);
    assert!(outcome.ok(), "{outcome}");
    let fallbacks: Vec<_> = rep
        .counters
        .keys()
        .filter(|k| k.starts_with("logic.incr.restriction.") && k.contains(".fallback."))
        .collect();
    assert_eq!(
        fallbacks,
        ["logic.incr.restriction.read-starts-once.fallback.positive-exists"],
        "expected exactly the one per-restriction fallback reason: {:?}",
        rep.counters
    );
    for leaf_counter in [
        "logic.incr.syncs",
        "logic.incr.leaf_clean",
        "logic.incr.leaf_fallback",
    ] {
        assert_eq!(
            rep.counters.get(leaf_counter).copied(),
            None,
            "global fallback syncs no leaf: {:?}",
            rep.counters
        );
    }
}

/// Sweeps with an artifact sink under `dir` and checks the dump against
/// the batch sweep: the outcome is the batch outcome, `outcome.json`
/// names its first failing run, `computation.json` is that run's
/// computation, and the blame names `restriction`.
fn assert_artifacts_match_batch<S: System>(
    sys: &S,
    spec: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> Computation + Copy,
    dir: &std::path::Path,
    restriction: &str,
) {
    let options = VerifyOptions {
        artifacts: Some(ArtifactSink::new(dir)),
        ..VerifyOptions::default()
    };
    let outcome = verify_system(sys, spec, corr, extract, &options).expect("projection");
    let (batch, _) = batch_sweep(sys, spec, corr, extract, &options);
    assert_eq!(outcome, batch);
    let first = batch.failures.first().expect("batch sweep fails").run;

    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("artifact file");
    let recorded = json::parse(&read("outcome.json")).expect("outcome JSON");
    let artifact_run = recorded
        .get("artifact")
        .and_then(|a| a.get("run"))
        .and_then(JsonValue::as_u64);
    assert_eq!(artifact_run, Some(first as u64));
    assert_eq!(
        Some(read("computation.json")),
        nth_computation_json(sys, extract, first)
    );
    assert!(read("blame.json").contains(restriction));
    std::fs::remove_dir_all(dir).ok();
}

/// The `computation.json` rendering of run `n` of the default sweep.
fn nth_computation_json<S: System>(
    sys: &S,
    extract: impl Fn(&S::State) -> Computation,
    n: usize,
) -> Option<String> {
    let mut run = 0;
    let mut computation = None;
    Explorer::default().for_each_run(sys, |state, _| {
        if run == n {
            computation = Some(computation_json(&extract(state)));
            return ControlFlow::Break(());
        }
        run += 1;
        ControlFlow::Continue(())
    });
    computation
}

#[test]
fn capacity_violation_settled_mid_replay_keeps_the_batch_verdict() {
    // A three-slot buffer checked against a two-slot specification: the
    // ground `capacity` conjunct `In^2 ⊃ Out^0 ⇒ In^2` settles false as
    // soon as the third deposit arrives before the first removal. Leaves
    // under that settled violation fall back to batch, whose outcome,
    // failure details and artifacts must match the batch sweep.
    let items: Vec<i64> = vec![1, 2, 3];
    let spec = bounded::bounded_spec(items.len(), 2);
    let sys = bounded::monitor_solution(&items, 3);
    let corr = bounded::monitor_correspondence(&sys, &spec, 3);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_matches_batch(&sys, &spec, &corr, extract, "bounded cap 3 on 2");
    let (outcome, rep) = sweep(&sys, &spec, &corr, extract, false);
    assert!(!outcome.failures.is_empty(), "{outcome}");
    for failure in &outcome.failures {
        assert_eq!(failure.violated, ["capacity"], "{failure:?}");
    }
    let counter = |name: &str| rep.counters.get(name).copied().unwrap_or(0);
    assert!(
        counter("logic.incr.leaf_eval.violations") > 0,
        "{:?}",
        rep.counters
    );
    assert!(counter("logic.incr.leaf_clean") > 0, "{:?}", rep.counters);

    let dir = std::env::temp_dir().join(format!("gem-incr-capacity-{}", std::process::id()));
    assert_artifacts_match_batch(&sys, &spec, &corr, extract, &dir, "capacity");
}

#[test]
fn explore_bound_leaf_restrictions_settle_per_event() {
    // On the benchmark's `explore_bound` instances every leaf restriction
    // is settled during replay: none is evaluated at a leaf.
    let pinned = [
        "fifo-values",
        "remove-after-deposit",
        "capacity",
        "read-chain",
        "write-chain",
    ];
    for line in [
        "bounded items=4 cap=2",
        "bounded items=4 cap=2 substrate=ada",
        "bounded items=5 cap=3 substrate=csp",
        "rw readers=2 writers=1 monitor=writers variant=writers",
    ] {
        let mut words = line.split_whitespace().map(str::to_owned);
        let problem = words.next().expect("problem name");
        let params = gem_cli::Params::parse(&words.collect::<Vec<_>>()).expect("params");
        let inst = gem_cli::instance(&problem, &params).expect("instance");
        let probe = Arc::new(StatsProbe::new());
        let options = VerifyOptions {
            probe: probe.clone(),
            explorer: Explorer::with_max_runs(inst.max_runs),
            ..VerifyOptions::default()
        };
        let outcome = match &inst.program {
            gem_cli::Program::Monitor(sys) => {
                let extract = |s: &_| sys.computation(s).expect("acyclic");
                verify_system(sys, &inst.spec, &inst.corr, extract, &options)
            }
            gem_cli::Program::Csp(sys) => {
                let extract = |s: &_| sys.computation(s).expect("acyclic");
                verify_system(sys, &inst.spec, &inst.corr, extract, &options)
            }
            gem_cli::Program::Ada(sys) => {
                let extract = |s: &_| sys.computation(s).expect("acyclic");
                verify_system(sys, &inst.spec, &inst.corr, extract, &options)
            }
        }
        .expect("projection");
        assert!(outcome.ok(), "{line}: {outcome}");
        let counter = |name: String| probe.counter(&name);
        let mut seen = 0;
        for (i, r) in inst.spec.restrictions().iter().enumerate() {
            if !pinned.contains(&r.name.as_str()) {
                continue;
            }
            seen += 1;
            let key = |k: &str| format!("logic.incr.leaf_eval.by_restriction.{i}.{k}");
            assert_eq!(counter(key("evals")), 0, "{line}: {} at the leaf", r.name);
            assert!(
                counter(key("settled")) > 0,
                "{line}: {} never settled",
                r.name
            );
        }
        assert!(seen >= 2, "{line}: pinned restrictions present");
        assert_eq!(probe.counter("logic.incr.leaf_eval.at_leaf"), 0, "{line}");
    }
}

#[test]
fn memoised_may_enable_matches_every_shipped_structure() {
    // The checker's scope memo against `Structure::may_enable` on every
    // (from, to, class) triple of the program and problem structures of
    // every shipped problem, asked twice so the second round reads the
    // filled table.
    use gem::core::{MayEnableMemo, Structure};
    let check = |s: &Structure, what: &str| {
        let mut memo = MayEnableMemo::new(s);
        for _ in 0..2 {
            for from in s.elements() {
                for to in s.elements() {
                    for class in s.classes() {
                        assert_eq!(
                            memo.may_enable(s, from, to, class),
                            s.may_enable(from, to, class),
                            "{what}: {from:?} -> {to:?} {class:?}"
                        );
                    }
                }
            }
        }
    };
    for line in [
        "bounded items=2 cap=1",
        "bounded items=2 cap=1 substrate=csp",
        "bounded items=2 cap=1 substrate=ada",
        "rw readers=1 writers=1 data=true",
        "one-slot",
        "one-slot substrate=ada",
        "philosophers n=3",
        "db-update",
        "life",
    ] {
        let mut words = line.split_whitespace().map(str::to_owned);
        let problem = words.next().expect("problem name");
        let params = gem_cli::Params::parse(&words.collect::<Vec<_>>()).expect("params");
        let inst = gem_cli::instance(&problem, &params).expect("instance");
        check(inst.spec.structure(), line);
        match &inst.program {
            gem_cli::Program::Monitor(sys) => check(
                sys.trace_builder(&sys.initial())
                    .expect("builder")
                    .structure(),
                line,
            ),
            gem_cli::Program::Csp(sys) => check(
                sys.trace_builder(&sys.initial())
                    .expect("builder")
                    .structure(),
                line,
            ),
            gem_cli::Program::Ada(sys) => check(
                sys.trace_builder(&sys.initial())
                    .expect("builder")
                    .structure(),
                line,
            ),
        }
    }
}

#[test]
fn violated_eventually_restriction_falls_back_per_leaf() {
    // "Every read request is followed by a started write" is a
    // history-stable `∀◇` restriction, judged at the leaf. The writer can
    // start before the reader asks, so it fails on some complete,
    // deadlock-free leaves and holds on others: the failing leaves fall
    // back to batch, whose outcome, failure details and artifacts (blame
    // included) must match the batch sweep.
    let sys = rw_program(readers_writers_monitor(), 1, 1, false);
    let spec = rw_control_spec(|control| {
        vec![(
            "write-follows-read",
            Formula::forall(
                "r",
                control.sel("ReqRead"),
                Formula::exists(
                    "s",
                    control.sel("StartWrite"),
                    Formula::occurred("s").and(Formula::precedes("r", "s")),
                )
                .eventually(),
            ),
        )]
    });
    let corr = rw_correspondence(&sys, &spec, false);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_matches_batch(&sys, &spec, &corr, extract, "rw write-follows-read");
    let (outcome, rep) = sweep(&sys, &spec, &corr, extract, false);
    assert_eq!(outcome.deadlocks, 0, "{outcome}");
    assert!(!outcome.failures.is_empty(), "{outcome}");
    for failure in &outcome.failures {
        assert_eq!(failure.violated, ["write-follows-read"], "{failure:?}");
    }
    let counter = |name: &str| rep.counters.get(name).copied().unwrap_or(0);
    assert!(counter("logic.incr.leaf_clean") > 0, "{:?}", rep.counters);
    assert!(
        counter("logic.incr.leaf_fallback") > 0,
        "{:?}",
        rep.counters
    );
    assert_eq!(
        counter("logic.incr.leaf_clean") + counter("logic.incr.leaf_fallback"),
        counter("explore.runs"),
        "every leaf is judged one way or the other"
    );

    let dir = std::env::temp_dir().join(format!("gem-incr-eventually-{}", std::process::id()));
    assert_artifacts_match_batch(&sys, &spec, &corr, extract, &dir, "write-follows-read");
}

#[test]
fn cli_artifacts_and_stats_agree_across_modes() {
    // Full CLI path on the failing instance with artifacts: the stdout
    // outcome, the counterexample artifacts and the `explore.*` counters
    // of the stats report must agree with the batch sweep of the same
    // instance, built as the CLI builds it.
    let line = ["rw", "readers=1", "writers=2", "variant=writers"];
    let dir = std::env::temp_dir().join(format!("gem-incr-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let art = dir.join("artifacts");
    let stats = dir.join("stats.json");
    let mut args = vec!["verify"];
    args.extend(line);
    args.extend(["--artifacts", art.to_str().expect("utf-8")]);
    args.extend(["--stats-json", stats.to_str().expect("utf-8")]);
    args.extend(["--heartbeat", "0"]);
    let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
    let stdout = gem_cli::run(&args).expect("cli run").stdout;

    let params: Vec<String> = line[1..].iter().map(|s| (*s).to_owned()).collect();
    let params = gem_cli::Params::parse(&params).expect("params");
    let inst = gem_cli::instance(line[0], &params).expect("instance");
    let gem_cli::Program::Monitor(sys) = &inst.program else {
        panic!("rw runs on the monitor substrate");
    };
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    let options = VerifyOptions {
        explorer: Explorer::with_max_runs(inst.max_runs),
        ..VerifyOptions::default()
    };
    let (batch, batch_counters) = batch_sweep(sys, &inst.spec, &inst.corr, extract, &options);
    let first = batch.failures.first().expect("batch sweep fails");

    let verdict = format!("{batch}\nverdict: PROG sat P FAILS");
    assert!(
        stdout.starts_with(&verdict),
        "{stdout}\n--- want ---\n{verdict}"
    );
    let report =
        gem::obs::Report::from_json(&std::fs::read_to_string(&stats).expect("stats written"))
            .expect("valid report");
    let mut counters = report.counters;
    counters.retain(|k, _| k.starts_with("explore."));
    assert_eq!(batch_counters, counters, "counters diverge");

    let read = |name: &str| std::fs::read_to_string(art.join(name)).expect("artifact file");
    let recorded = json::parse(&read("outcome.json")).expect("outcome JSON");
    let artifact_run = recorded
        .get("artifact")
        .and_then(|a| a.get("run"))
        .and_then(JsonValue::as_u64);
    assert_eq!(artifact_run, Some(first.run as u64));
    assert_eq!(
        Some(read("computation.json")),
        nth_computation_json(sys, extract, first.run)
    );
    let blame = read("blame.json");
    for restriction in &first.violated {
        assert!(
            blame.contains(restriction.as_str()),
            "{restriction}: {blame}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_incremental_checker_proves_every_leaf_clean() {
    // The fast path itself, not only its invisibility: on these holding
    // instances the incremental checker judges every leaf, so no leaf is
    // sealed and batch-checked. The run counts pin the instances.
    let cases: [(&[&str], u64); 6] = [
        (&["rw", "readers=1", "writers=2", "variant=readers"], 2_070),
        (&["rw", "readers=1", "writers=2", "variant=progress"], 2_070),
        (
            &[
                "rw",
                "readers=2",
                "writers=1",
                "monitor=writers",
                "variant=writers",
            ],
            5_394,
        ),
        (
            &[
                "rw",
                "readers=2",
                "writers=1",
                "monitor=writers",
                "variant=progress",
            ],
            5_394,
        ),
        (&["bounded", "items=4", "cap=2"], 6_297),
        (&["bounded", "items=4", "cap=2", "substrate=ada"], 2_008),
    ];
    let dir = std::env::temp_dir().join(format!("gem-incr-clean-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let stats = dir.join("stats.json");
    for (instance, runs) in cases {
        let mut args = vec!["verify"];
        args.extend_from_slice(instance);
        args.extend(["--stats-json", stats.to_str().expect("utf-8")]);
        args.extend(["--heartbeat", "0"]);
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        let out = gem_cli::run(&args).expect("cli run").stdout;
        assert!(out.contains("HOLDS"), "{instance:?}: {out}");
        let report =
            gem::obs::Report::from_json(&std::fs::read_to_string(&stats).expect("stats written"))
                .expect("valid report");
        let counter = |name: &str| report.counters.get(name).copied();
        assert_eq!(counter("explore.runs"), Some(runs), "{instance:?}");
        assert_eq!(counter("logic.incr.leaf_clean"), Some(runs), "{instance:?}");
        assert_eq!(counter("logic.incr.leaf_fallback"), None, "{instance:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
