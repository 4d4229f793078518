//! Differential harness: incremental restriction checking must be
//! observationally invisible.
//!
//! `--incr-check auto` replaces the per-leaf seal→project→check
//! pipeline with a prefix-sharing incremental evaluator for leaves it
//! can prove clean — but verdicts, failure details, deadlock counts,
//! blame artifacts, and the exploration-level counters of `--stats-json`
//! must be byte-identical to `--incr-check off` across every substrate
//! (monitor, CSP, ADA) and reduction strategy, on holding,
//! failing, and deadlocking instances alike. Only the work-reflecting
//! namespaces (`logic.*`, `restriction.*`, `project.*`, `core.*`,
//! phase timers) may differ: that skipped work *is* the optimisation.

use std::collections::BTreeMap;
use std::sync::Arc;

use gem::core::Computation;
use gem::lang::monitor::readers_writers_monitor;
use gem::lang::{Explorer, System};
use gem::logic::Formula;
use gem::obs::StatsProbe;
use gem::problems::readers_writers::{
    rw_correspondence, rw_program, rw_spec, writers_priority_monitor, RwVariant, PI_RW,
};
use gem::problems::{bounded, one_slot, philosophers};
use gem::spec::{ElementInstance, ElementType, SpecBuilder, Specification};
use gem::verify::{
    verify_system, ArtifactSink, Correspondence, IncrCheck, VerifyOptions, VerifyOutcome,
};

/// One probed sweep with the given knobs.
fn sweep<S: System>(
    sys: &S,
    spec: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> Computation,
    por: bool,
    incr: IncrCheck,
) -> (VerifyOutcome, gem::obs::Report) {
    let probe = Arc::new(StatsProbe::new());
    let outcome = verify_system(
        sys,
        spec,
        corr,
        extract,
        &VerifyOptions {
            probe: probe.clone(),
            explorer: Explorer {
                reduce: por,
                ..Explorer::default()
            },
            incr_check: incr,
            ..VerifyOptions::default()
        },
    )
    .expect("projection");
    (outcome, probe.report())
}

/// The counters that must be invariant under the incremental fast path:
/// everything the explorer reports, plus the deadlock tally. The
/// checking-layer namespaces legitimately shrink when leaves are proven
/// clean without batch work.
fn curated(report: &gem::obs::Report) -> BTreeMap<String, u64> {
    report
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("explore.") || *k == "verify.deadlocks")
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Asserts `Auto` agrees with `Off` on outcome and curated counters,
/// with sleep-set POR off and on.
fn assert_modes_agree<S: System>(
    sys: &S,
    spec: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> Computation + Copy,
    what: &str,
) {
    for por in [false, true] {
        let (base_out, base_rep) = sweep(sys, spec, corr, extract, por, IncrCheck::Off);
        let (out, rep) = sweep(sys, spec, corr, extract, por, IncrCheck::Auto);
        assert_eq!(base_out, out, "{what}: outcome diverges at por={por}");
        assert_eq!(
            curated(&base_rep),
            curated(&rep),
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
    assert_modes_agree(&sys, &spec, &corr, extract, "rw 1r1w mutex");
    // Sanity: the instance really is in the incremental fragment, so the
    // equivalence above exercised the fast path, not a silent fallback.
    let (outcome, rep) = sweep(&sys, &spec, &corr, extract, false, IncrCheck::Auto);
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
    // restriction names, rendered details) must be identical in both
    // modes — incr-flagged leaves adopt the batch verdict wholesale.
    let sys = rw_program(readers_writers_monitor(), 1, 2, false);
    let spec = rw_spec(3, false, RwVariant::WritersPriority);
    let corr = rw_correspondence(&sys, &spec, false);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_modes_agree(&sys, &spec, &corr, extract, "rw 1r2w writers");
    let (outcome, _) = sweep(&sys, &spec, &corr, extract, false, IncrCheck::Auto);
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
    assert_modes_agree(&sys, &spec, &corr, extract, "rw 2r1w readers-on-writers");
}

#[test]
fn csp_substrate_agrees() {
    let items: Vec<i64> = vec![1, 2];
    let spec = bounded::bounded_spec(items.len(), 1);
    let sys = bounded::csp_solution(&items, 1);
    let corr = bounded::csp_correspondence(&sys, &spec, 1);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_modes_agree(&sys, &spec, &corr, extract, "bounded csp");
}

#[test]
fn ada_substrate_agrees() {
    let items: Vec<i64> = vec![10, 20];
    let spec = one_slot::one_slot_spec();
    let sys = one_slot::ada_solution(&items);
    let corr = one_slot::ada_correspondence(&sys, &spec);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_modes_agree(&sys, &spec, &corr, extract, "one-slot ada");
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
    assert_modes_agree(&sys, &spec, &corr, extract, "philosophers naive");
    let (outcome, rep) = sweep(&sys, &spec, &corr, extract, false, IncrCheck::Auto);
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

/// The control-only readers/writers structure and `πRW` thread type of
/// `rw_spec`, with `restrictions` over the control element in place of
/// the variant's, so that `rw_correspondence` maps the monitor onto it.
fn rw_control_spec(
    restrictions: impl FnOnce(&ElementInstance) -> Vec<(&'static str, Formula)>,
) -> Specification {
    let control_t = ElementType::new("RWControl")
        .event("ReqRead", &[])
        .event("StartRead", &[])
        .event("EndRead", &[])
        .event("ReqWrite", &[])
        .event("StartWrite", &[])
        .event("EndWrite", &[]);
    let mut sb = SpecBuilder::new("RWControl");
    let control = sb
        .instantiate_element(&control_t, "control")
        .expect("fresh spec");
    let path = |events: [&str; 3]| events.map(|e| control.sel(e)).to_vec();
    let pi_rw = sb.declare_thread(
        "pi_RW",
        vec![
            path(["ReqRead", "StartRead", "EndRead"]),
            path(["ReqWrite", "StartWrite", "EndWrite"]),
        ],
    );
    assert_eq!(pi_rw, PI_RW);
    for (name, formula) in restrictions(&control) {
        sb.add_restriction(name, formula);
    }
    sb.finish()
}

#[test]
fn forced_fallback_formula_agrees_and_is_reported() {
    // "No read transaction starts twice" as `◻∀s ¬∃t (…)`: the `∃` is
    // positive in the falsifying conjuncts, which the incremental
    // fragment excludes. One such restriction makes the whole sweep fall
    // back globally, the history-stable progress restrictions beside it
    // included; the reason lands in the report, and the outcome still
    // matches `Off` exactly.
    let sys = rw_program(readers_writers_monitor(), 1, 1, false);
    let spec = rw_control_spec(|control| {
        let start = control.sel("StartRead");
        let serviced = |r: &str, s: &str| {
            Formula::forall(
                "r",
                control.sel(r),
                Formula::exists(
                    "s",
                    control.sel(s),
                    Formula::same_thread("r", "s", PI_RW).and(Formula::occurred("s")),
                )
                .eventually(),
            )
        };
        let starts_once = Formula::forall(
            "s",
            start.clone(),
            Formula::exists(
                "t",
                start,
                Formula::occurred("t")
                    .and(Formula::event_eq("s", "t").not())
                    .and(Formula::same_thread("s", "t", PI_RW)),
            )
            .not(),
        )
        .henceforth();
        vec![
            ("every-read-serviced", serviced("ReqRead", "StartRead")),
            ("every-write-serviced", serviced("ReqWrite", "StartWrite")),
            ("read-starts-once", starts_once),
        ]
    });
    let corr = rw_correspondence(&sys, &spec, false);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_modes_agree(&sys, &spec, &corr, extract, "rw positive-exists (fallback)");
    // The fallback is decided when the checker compiles, so it is visible
    // per restriction; the sweep then skips the per-leaf machinery.
    let (outcome, rep) = sweep(&sys, &spec, &corr, extract, false, IncrCheck::Auto);
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

/// The artifact files of a default-option sweep in mode `incr`, written
/// under `dir`, by file name.
fn artifact_files<S: System>(
    sys: &S,
    spec: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> Computation,
    incr: IncrCheck,
    dir: &std::path::Path,
) -> BTreeMap<String, String> {
    let art = dir.join(format!("{incr:?}"));
    verify_system(
        sys,
        spec,
        corr,
        extract,
        &VerifyOptions {
            incr_check: incr,
            artifacts: Some(ArtifactSink::new(&art)),
            ..VerifyOptions::default()
        },
    )
    .expect("projection");
    std::fs::read_dir(&art)
        .expect("artifact dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let body = std::fs::read_to_string(entry.path()).expect("artifact file");
            (entry.file_name().to_string_lossy().into_owned(), body)
        })
        .collect()
}

#[test]
fn capacity_violation_settled_mid_replay_keeps_the_batch_verdict() {
    // A three-slot buffer checked against a two-slot specification: the
    // ground `capacity` conjunct `In^2 ⊃ Out^0 ⇒ In^2` settles false as
    // soon as the third deposit arrives before the first removal. Leaves
    // under that settled violation fall back to batch, whose outcome,
    // failure details and artifacts must match `Off`.
    let items: Vec<i64> = vec![1, 2, 3];
    let spec = bounded::bounded_spec(items.len(), 2);
    let sys = bounded::monitor_solution(&items, 3);
    let corr = bounded::monitor_correspondence(&sys, &spec, 3);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_modes_agree(&sys, &spec, &corr, extract, "bounded cap 3 on 2");
    let (outcome, rep) = sweep(&sys, &spec, &corr, extract, false, IncrCheck::Auto);
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
    let artifacts = |incr| artifact_files(&sys, &spec, &corr, extract, incr, &dir);
    let off = artifacts(IncrCheck::Off);
    assert!(
        off.get("blame.json")
            .is_some_and(|b| b.contains("capacity")),
        "{off:?}"
    );
    assert_eq!(off, artifacts(IncrCheck::Auto), "artifacts diverge");
    std::fs::remove_dir_all(&dir).ok();
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
    // included) must match `Off`.
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
    assert_modes_agree(&sys, &spec, &corr, extract, "rw write-follows-read");
    let (outcome, rep) = sweep(&sys, &spec, &corr, extract, false, IncrCheck::Auto);
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
    let artifacts = |incr| artifact_files(&sys, &spec, &corr, extract, incr, &dir);
    let off = artifacts(IncrCheck::Off);
    assert!(
        off.get("blame.json")
            .is_some_and(|b| b.contains("write-follows-read")),
        "{off:?}"
    );
    assert_eq!(off, artifacts(IncrCheck::Auto), "artifacts diverge");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_artifacts_and_stats_agree_across_modes() {
    // Full CLI path on the failing instance with artifacts: stdout, every
    // counterexample artifact file, and the stats report (minus timers
    // and the work-reflecting namespaces) must match `--incr-check off`.
    let dir = std::env::temp_dir().join(format!("gem-incr-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run_mode = |mode: &str| -> (String, String, BTreeMap<String, String>) {
        let art = dir.join(format!("artifacts-{mode}"));
        let stats = dir.join(format!("stats-{mode}.json"));
        let args: Vec<String> = [
            "verify",
            "rw",
            "readers=1",
            "writers=2",
            "variant=writers",
            "--incr-check",
            mode,
            "--artifacts",
            art.to_str().expect("utf-8"),
            "--stats-json",
            stats.to_str().expect("utf-8"),
            "--heartbeat",
            "0",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        // Artifact paths differ per mode; normalise them out of stdout.
        let stdout = gem_cli::run(&args)
            .expect("cli run")
            .replace(art.to_str().expect("utf-8"), "<artifacts>");
        let report =
            gem::obs::Report::from_json(&std::fs::read_to_string(&stats).expect("stats written"))
                .expect("valid report");
        let kept: BTreeMap<String, u64> = report
            .counters
            .iter()
            .filter(|(k, _)| {
                !k.starts_with("logic.")
                    && !k.starts_with("restriction.")
                    && !k.starts_with("project.")
                    && !k.starts_with("core.")
            })
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let mut files = BTreeMap::new();
        for entry in std::fs::read_dir(&art).expect("artifact dir") {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            files.insert(
                name,
                std::fs::read_to_string(entry.path()).expect("artifact file"),
            );
        }
        (stdout, format!("{kept:?}"), files)
    };
    let (off_out, off_counters, off_files) = run_mode("off");
    let (out, counters, files) = run_mode("auto");
    assert_eq!(off_out, out, "stdout diverges");
    assert_eq!(off_counters, counters, "counters diverge");
    assert_eq!(
        off_files.keys().collect::<Vec<_>>(),
        files.keys().collect::<Vec<_>>(),
        "artifact file set diverges"
    );
    for (name, body) in &off_files {
        assert_eq!(body, &files[name], "artifact {name} diverges");
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
        let out = gem_cli::run(&args).expect("cli run");
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
