//! Instrumentation integration: verifying the §9 Readers/Writers monitor
//! with a [`gem::obs::StatsProbe`] attached must report the exact run
//! count the verifier saw, nonzero restriction-evaluation counters from
//! the deep layers, and — because exploration is deterministic — a report
//! that is byte-identical across runs once timing fields are zeroed.

#[path = "support/specs.rs"]
mod specs;

use std::sync::Arc;

use gem::lang::monitor::readers_writers_monitor;
use gem::obs::StatsProbe;
use gem::problems::readers_writers::{rw_correspondence, rw_program, rw_spec, RwVariant};
use gem::verify::{verify_system, VerifyOptions};

/// Verifies the readers-priority monitor against
/// [`specs::batch_only_spec`]. This suite pins down the *batch*
/// pipeline's counters (restriction.evals, per-restriction timers,
/// projections, the seal and check phases), which the incremental
/// checker skips for clean leaves; that spec sends every leaf to batch.
fn verify_rw_with_probe(probe: Arc<StatsProbe>) -> gem::verify::VerifyOutcome {
    let sys = rw_program(readers_writers_monitor(), 1, 1, false);
    let spec = specs::batch_only_spec();
    let corr = rw_correspondence(&sys, &spec, false);
    verify_system(
        &sys,
        &spec,
        &corr,
        |state| sys.computation(state).expect("acyclic"),
        &VerifyOptions {
            probe,
            ..VerifyOptions::default()
        },
    )
    .expect("projection")
}

#[test]
fn readers_writers_probe_reports_exact_counts() {
    let probe = Arc::new(StatsProbe::new());
    let outcome = verify_rw_with_probe(probe.clone());
    assert!(outcome.ok(), "{outcome}");
    assert!(outcome.exhaustive());

    // The probe's run counter must agree exactly with the verifier.
    assert_eq!(probe.counter("explore.runs"), outcome.runs as u64);
    assert!(probe.counter("explore.steps") > 0);

    // Deep layers report through the ambient probe: every run checks
    // every restriction of the spec at least once.
    let report = probe.report();
    let restriction_evals = probe.counter("restriction.evals");
    assert!(
        restriction_evals >= outcome.runs as u64,
        "expected >= {} restriction evals, got {restriction_evals}\n{}",
        outcome.runs,
        report.to_json()
    );
    let per_restriction: Vec<_> = report
        .counters
        .keys()
        .filter(|k| {
            k.starts_with("restriction.") && k.ends_with(".evals") && *k != "restriction.evals"
        })
        .collect();
    assert!(
        !per_restriction.is_empty(),
        "expected per-restriction counters\n{}",
        report.to_json()
    );
    for name in per_restriction {
        assert!(report.counters[name] > 0, "{name} is zero");
    }

    // Per-restriction check timers exist alongside the counters.
    assert!(
        report.timers.keys().any(|k| k.starts_with("restriction.")),
        "expected restriction timers\n{}",
        report.to_json()
    );

    // Deadlocks are reported even when zero, so reports are comparable.
    assert!(report.counters.contains_key("verify.deadlocks"));
    assert_eq!(probe.counter("verify.deadlocks"), outcome.deadlocks as u64);

    // The logic and core layers were exercised too.
    assert!(probe.counter("logic.eval.calls") > 0);
    assert!(probe.counter("core.closure.built") > 0);
    assert!(probe.counter("project.projections") >= outcome.runs as u64);

    // No truncation counters for an exhaustive sweep.
    assert!(report
        .counters
        .keys()
        .all(|k| !k.starts_with("explore.truncation.")));
}

#[test]
fn reports_are_deterministic_modulo_timings() {
    let first = Arc::new(StatsProbe::new());
    let second = Arc::new(StatsProbe::new());
    verify_rw_with_probe(first.clone());
    verify_rw_with_probe(second.clone());
    let a = first.report().without_timings().to_json();
    let b = second.report().without_timings().to_json();
    assert_eq!(
        a, b,
        "deterministic workload must produce identical reports"
    );
    // Sanity: the stripped report still carries the counter sections.
    assert!(a.contains("\"explore.runs\""));
}

#[test]
fn span_timings_recorded() {
    let probe = Arc::new(StatsProbe::new());
    verify_rw_with_probe(probe.clone());
    let report = probe.report();
    let verify_span = report.timers.get("verify").expect("verify span");
    assert_eq!(verify_span.count, 1);
    assert!(verify_span.total_ns > 0);
}

#[test]
fn chrome_trace_serialisation_matches_golden() {
    // `chrome_trace_json` is a pure function of its event list with a
    // deliberately rigid field order; a fixed event mix — durations,
    // a running-total counter, a name needing JSON escapes — must
    // serialise byte-for-byte to the checked-in golden.
    use gem::obs::{chrome_trace_json, ChromeEvent};
    let ev = |name: &str, cat: &str, ts_us: u64, dur_us: u64, tid: u64| ChromeEvent {
        name: name.into(),
        cat: cat.into(),
        ts_us,
        dur_us,
        tid,
        counter: None,
    };
    let events = vec![
        ev("verify", "verify", 0, 1500, 0),
        ev("phase.explore", "phase", 0, 700, 0),
        ev("phase.seal", "phase", 700, 300, 0),
        ev("phase.check", "phase", 1000, 500, 2),
        ChromeEvent {
            name: "explore.runs".into(),
            cat: "explore".into(),
            ts_us: 1200,
            dur_us: 0,
            tid: 0,
            counter: Some(812),
        },
        ev("note \"quoted\"\tkey", "note \"quoted\"\tkey", 1400, 1, 1),
    ];
    let got = chrome_trace_json(&events);
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chrome_trace.json");
    let want = std::fs::read_to_string(&golden).expect("golden file");
    assert_eq!(
        got, want,
        "Chrome-trace serialisation drifted from tests/golden/chrome_trace.json"
    );
}

#[test]
fn chrome_trace_of_probed_verify_partitions_the_wall() {
    // A real verify through an event log, rendered as a Chrome
    // trace: every top-level phase must appear as a complete duration
    // event, the per-phase durations must sum to at most the verify
    // span, and the final `explore.runs` running total must agree with
    // the verifier.
    use gem::obs::EventLog;
    let probe = Arc::new(EventLog::new(1 << 20));
    let sys = rw_program(readers_writers_monitor(), 1, 1, false);
    // Batch phases (seal/check) must all fire; the incremental fast
    // path would skip them for clean leaves of an in-fragment spec.
    let spec = specs::batch_only_spec();
    let corr = rw_correspondence(&sys, &spec, false);
    let outcome = verify_system(
        &sys,
        &spec,
        &corr,
        |state| sys.computation(state).expect("acyclic"),
        &VerifyOptions {
            probe: probe.clone(),
            ..VerifyOptions::default()
        },
    )
    .expect("projection");
    assert!(outcome.ok(), "{outcome}");
    let events = probe.chrome_events();
    assert_eq!(probe.dropped(), 0);

    let dur_of = |name: &str| -> u64 {
        events
            .iter()
            .filter(|e| e.name == name && e.counter.is_none())
            .map(|e| e.dur_us)
            .sum()
    };
    for phase in gem::obs::profile::TOP_PHASES {
        if phase == "phase.check_incr" {
            continue; // only recorded when incremental checking is on
        }
        assert!(
            events
                .iter()
                .any(|e| e.name == phase && e.counter.is_none()),
            "missing duration events for {phase}"
        );
        assert_eq!(
            events.iter().find(|e| e.name == phase).unwrap().cat,
            "phase"
        );
    }
    let verify_dur = dur_of("verify");
    assert!(verify_dur > 0, "verify span must be recorded");
    let accounted: u64 = gem::obs::profile::TOP_PHASES
        .iter()
        .map(|p| dur_of(p))
        .sum();
    assert!(
        accounted <= verify_dur,
        "phases overflow the verify span: {accounted}us > {verify_dur}us"
    );

    let final_runs = events
        .iter()
        .filter(|e| e.name == "explore.runs")
        .filter_map(|e| e.counter)
        .next_back()
        .expect("explore.runs counter events");
    assert_eq!(final_runs, outcome.runs as u64);

    let json = probe.to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\": [\n"));
    assert!(json.ends_with("\n]}\n"));
}

#[test]
fn phase_profile_accounts_for_the_wall() {
    // The §9 Readers/Writers monitor on the batch pipeline: the
    // aggregated phase profile must attribute (almost) the whole verify
    // span to the top-level phases.
    use gem::obs::PhaseProfile;
    let probe = Arc::new(StatsProbe::new());
    let sys = rw_program(readers_writers_monitor(), 1, 1, false);
    // The render check wants every batch phase present.
    let spec = specs::batch_only_spec();
    let corr = rw_correspondence(&sys, &spec, false);
    let outcome = verify_system(
        &sys,
        &spec,
        &corr,
        |state| sys.computation(state).expect("acyclic"),
        &VerifyOptions {
            probe: probe.clone(),
            ..VerifyOptions::default()
        },
    )
    .expect("projection");
    assert!(outcome.ok(), "{outcome}");
    let report = probe.report();
    let profile = PhaseProfile::from_report(&report).expect("phase timers recorded");
    assert!(profile.wall_ns > 0);
    assert!(
        profile.accounted_ns <= profile.wall_ns,
        "accounted {} > wall {}",
        profile.accounted_ns,
        profile.wall_ns
    );
    // The residual-attribution design makes the partition tight: the
    // phases cover the sweep, so well over half the wall must be
    // accounted for even on a tiny instance.
    assert!(
        profile.accounted_ns * 2 > profile.wall_ns,
        "accounted {} vs wall {} — phases lost the sweep",
        profile.accounted_ns,
        profile.wall_ns
    );
    let rendered = profile.render();
    for phase in gem::obs::profile::TOP_PHASES {
        if phase == "phase.check_incr" {
            continue; // only recorded when incremental checking is on
        }
        assert!(
            rendered.contains(phase),
            "render missing {phase}:\n{rendered}"
        );
    }
}

#[test]
fn phase_partition_holds_with_incremental_checking_on() {
    // With the incremental checker active every clean leaf skips the
    // seal/check pipeline, so `phase.check_incr` takes over as the
    // dominant per-leaf phase. The timer-partition invariant must still
    // hold (accounted <= wall), the new phase must join the profile,
    // and the explain pass must report the incremental verdict.
    use gem::obs::PhaseProfile;
    let probe = Arc::new(StatsProbe::new());
    let sys = rw_program(readers_writers_monitor(), 1, 1, false);
    let spec = rw_spec(2, false, RwVariant::MutexOnly);
    let corr = rw_correspondence(&sys, &spec, false);
    let outcome = verify_system(
        &sys,
        &spec,
        &corr,
        |state| sys.computation(state).expect("acyclic"),
        &VerifyOptions {
            probe: probe.clone(),
            ..VerifyOptions::default()
        },
    )
    .expect("projection");
    assert!(outcome.ok(), "{outcome}");
    let report = probe.report();

    // Every run of this instance is proven clean incrementally, so the
    // batch counters vanish while the incremental ones take over.
    assert_eq!(probe.counter("logic.incr.leaf_clean"), outcome.runs as u64);
    assert_eq!(probe.counter("logic.incr.leaf_fallback"), 0);
    assert_eq!(probe.counter("restriction.evals"), 0);
    assert!(probe.counter("logic.incr.bindings_checked") > 0);
    assert!(probe.counter("logic.incr.events_replayed") > 0);
    assert!(
        probe.counter("logic.incr.events_reused") > 0,
        "DFS siblings must share a prefix on this instance"
    );

    // phase.check_incr participates in the partition and the partition
    // invariant survives the fast path.
    let incr_timer = report.timers.get("phase.check_incr").expect("incr timer");
    assert_eq!(incr_timer.count, outcome.runs as u64);
    let profile = PhaseProfile::from_report(&report).expect("phase timers recorded");
    assert!(
        profile.accounted_ns <= profile.wall_ns,
        "accounted {} > wall {}",
        profile.accounted_ns,
        profile.wall_ns
    );
    assert!(
        profile
            .rows
            .iter()
            .any(|r| r.name == "phase.check_incr" && !r.nested),
        "phase.check_incr missing from profile:\n{}",
        profile.render()
    );

    let verdicts = gem::obs::explain(&report);
    assert!(
        verdicts
            .iter()
            .any(|v| v.starts_with("incremental check:") && v.contains("proven clean")),
        "expected an incremental verdict, got {verdicts:?}"
    );
}

#[test]
fn openmetrics_serialisation_matches_golden() {
    // `render_openmetrics` is a pure function of the snapshot series
    // with rigid family/sample ordering; a fixed mix — counters, gauges,
    // a counter and a gauge appearing mid-series —
    // must serialise byte-for-byte to the checked-in golden, and that
    // golden must pass the format's own linter.
    use gem::obs::{lint_openmetrics, render_openmetrics, SeriesSnapshot};
    use std::collections::BTreeMap;
    let snaps = vec![
        SeriesSnapshot {
            at_ms: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        },
        SeriesSnapshot {
            at_ms: 1000,
            counters: BTreeMap::from([
                ("explore.runs".to_owned(), 7),
                ("explore.steps".to_owned(), 12),
            ]),
            gauges: BTreeMap::from([("estimate.total_runs".to_owned(), 40)]),
        },
        SeriesSnapshot {
            at_ms: 2500,
            counters: BTreeMap::from([
                ("explore.runs".to_owned(), 21),
                ("explore.steps".to_owned(), 30),
                ("verify.deadlocks".to_owned(), 1),
            ]),
            gauges: BTreeMap::from([
                ("estimate.total_runs".to_owned(), 40),
                ("explore.depth".to_owned(), 6),
            ]),
        },
    ];
    let got = render_openmetrics(&snaps);
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/openmetrics.om");
    let want = std::fs::read_to_string(&golden).expect("golden file");
    assert_eq!(
        got, want,
        "OpenMetrics serialisation drifted from tests/golden/openmetrics.om"
    );
    let summary = lint_openmetrics(&got).expect("golden must lint clean");
    assert_eq!(summary.snapshots, 3);
    assert!(summary.families >= 5, "{summary:?}");
}

#[test]
fn probed_verify_feeds_a_lintable_series() {
    // End-to-end: a series of snapshots of the stats report of a verify
    // must yield an exposition that lints clean, with the final
    // explore.runs total agreeing with the verifier.
    use gem::obs::{lint_openmetrics, render_openmetrics, Series};
    use std::time::Duration;
    let probe = Arc::new(StatsProbe::new());
    let mut series = Series::new(Duration::from_secs(3600));
    let sys = rw_program(readers_writers_monitor(), 1, 1, false);
    let spec = rw_spec(2, false, RwVariant::MutexOnly);
    let corr = rw_correspondence(&sys, &spec, false);
    let outcome = verify_system(
        &sys,
        &spec,
        &corr,
        |state| sys.computation(state).expect("acyclic"),
        &VerifyOptions {
            probe: probe.clone(),
            ..VerifyOptions::default()
        },
    )
    .expect("projection");
    assert!(outcome.ok(), "{outcome}");
    series.push(Duration::from_secs(1), probe.report());
    let snaps = series.snapshots();
    assert!(snaps.len() >= 2, "baseline + final");
    let last = snaps.last().expect("final snapshot");
    assert_eq!(last.counters["explore.runs"], outcome.runs as u64);
    let text = render_openmetrics(&snaps);
    let summary = lint_openmetrics(&text).expect("exposition must lint clean");
    assert!(summary.snapshots >= 2, "{summary:?}");
    assert!(
        text.contains(&format!("gem_explore_runs_total {} ", outcome.runs)),
        "{text}"
    );
}

#[test]
fn noop_probe_leaves_ambient_inactive() {
    // The default options use a NoopProbe; the verifier must install
    // nothing in the ambient slot for it, so deep layers keep their fast
    // path. Observed through this thread's slot, not the process-wide
    // `ambient::active()` (sibling tests install probes while this one
    // runs): with an outer probe installed here, an install by the
    // verifier would shadow it and the deep-layer counters of the
    // incremental checker would never reach it.
    let outer = Arc::new(StatsProbe::new());
    let _guard = gem::obs::ambient::install(outer.clone());
    let sys = rw_program(readers_writers_monitor(), 1, 1, false);
    let spec = rw_spec(2, false, RwVariant::MutexOnly);
    let corr = rw_correspondence(&sys, &spec, false);
    let outcome = verify_system(
        &sys,
        &spec,
        &corr,
        |state| sys.computation(state).expect("acyclic"),
        &VerifyOptions::default(),
    )
    .expect("projection");
    assert!(outcome.ok());
    assert_eq!(outer.counter("logic.incr.syncs"), outcome.runs as u64);
    assert!(!VerifyOptions::default().probe.enabled());
}

/// Verifies `line` (`problem key=value…`) as the CLI builds it, under a
/// stats probe, sleep-set reduced when `reduce`.
fn verify_line(line: &str, reduce: bool) -> (gem::verify::VerifyOutcome, Arc<StatsProbe>) {
    let mut words = line.split_whitespace().map(str::to_owned);
    let problem = words.next().expect("problem name");
    let params = gem_cli::Params::parse(&words.collect::<Vec<_>>()).expect("params");
    let inst = gem_cli::instance(&problem, &params).expect("instance");
    let probe = Arc::new(StatsProbe::new());
    let options = VerifyOptions {
        probe: probe.clone(),
        explorer: gem::lang::Explorer {
            reduce,
            ..gem::lang::Explorer::with_max_runs(inst.max_runs)
        },
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
    (outcome, probe)
}

#[test]
fn every_explored_leaf_is_judged_incrementally_or_by_batch() {
    let leaves = |probe: &StatsProbe| {
        let (incremental, batch) = (
            probe.counter("verify.leaf.incremental"),
            probe.counter("verify.leaf.batch"),
        );
        assert_eq!(incremental + batch, probe.counter("explore.runs"));
        (incremental, batch)
    };
    // Passing: every leaf is proven clean.
    let (outcome, probe) = verify_line("bounded items=2 cap=1", false);
    assert!(outcome.ok() && outcome.exhaustive(), "{outcome}");
    assert_eq!(leaves(&probe), (outcome.runs as u64, 0));
    // Failing: the sweep stops at the third failing leaf, and each
    // failing leaf was judged by batch.
    let (outcome, probe) = verify_line("rw readers=1 writers=2 variant=writers", false);
    assert_eq!(outcome.failures.len(), 3, "{outcome}");
    let (incremental, batch) = leaves(&probe);
    assert!(incremental > 0 && batch >= 3, "{incremental} + {batch}");
    // Deadlocking (a reduced sweep reaches the deadlocks): deadlocked
    // leaves always take the batch path.
    let (outcome, probe) = verify_line("philosophers n=3 order=naive", true);
    assert!(outcome.deadlocks > 0, "{outcome}");
    let (incremental, batch) = leaves(&probe);
    assert!(incremental > 0 && batch >= outcome.deadlocks as u64);
    // Global fallback: a spec outside the incremental fragment sends
    // every leaf to batch.
    let probe = Arc::new(StatsProbe::new());
    let outcome = verify_rw_with_probe(probe.clone());
    assert_eq!(leaves(&probe), (0, outcome.runs as u64));
}
