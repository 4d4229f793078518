//! Differential harness: the parallel explorer must be observationally
//! identical to the serial DFS oracle on every substrate.
//!
//! For Monitor, CSP, and ADA systems — the bounded buffer and
//! readers/writers instances — the parallel explorer is checked to yield
//! the exact multiset (in fact, the exact sequence) of maximal runs as
//! `Explorer::for_each_run`, with equal `ExploreStats`, across
//! `jobs ∈ {1, 2, 4}` and split depths `{0, 1, 3}`, including under
//! `max_runs`/`max_steps`/`max_depth` truncation. Verification outcomes —
//! first failure, counterexample schedules, witnesses — are compared as
//! whole values.

use std::ops::ControlFlow;

use gem::lang::monitor::readers_writers_monitor;
use gem::lang::{find_deadlock, ExploreStats, Explorer, System};
use gem::problems::bounded;
use gem::problems::readers_writers::{
    rw_correspondence, rw_program, rw_rounds_program, rw_spec, RwVariant,
};
use gem::spec::Specification;
use gem::verify::{verify_system, Correspondence, VerifyOptions};

/// Worker counts to sweep.
const JOBS: [usize; 3] = [1, 2, 4];

/// True when CI asks the verify sweeps to run with computation-level
/// deduplication (`GEM_TEST_DEDUP=1`). Dedup must never change an
/// outcome, so enabling it across the whole suite is itself a test.
fn dedup_env() -> bool {
    std::env::var("GEM_TEST_DEDUP").is_ok_and(|v| v.trim() == "1")
}

/// True when CI forces sleep-set partial-order reduction across the suite
/// (`GEM_TEST_POR=1`). Serial and parallel exploration must stay
/// observationally identical *with reduction on* too — both sides of
/// every differential here honour the flag, so the whole file doubles as
/// a POR × parallelism equivalence matrix under that leg.
fn por_env() -> bool {
    std::env::var("GEM_TEST_POR").is_ok_and(|v| v.trim() == "1")
}

/// Baseline explorer for the sweeps: default bounds, with reduction
/// switched by `GEM_TEST_POR`.
fn base_explorer() -> Explorer {
    Explorer {
        reduce: por_env(),
        ..Explorer::default()
    }
}

const SPLIT_DEPTHS: [usize; 3] = [0, 1, 3];

/// Serial-vs-parallel differential check on one system: the run sequence
/// (terminal paths, rendered through `Debug` since actions are not `Eq`)
/// and the full `ExploreStats` must match for every jobs × split-depth
/// combination. Returns the serial stats for workload sanity checks.
fn assert_equiv<S>(explorer: Explorer, sys: &S, what: &str) -> ExploreStats
where
    S: System + Sync,
    S::State: Send,
    S::Action: Send,
{
    let mut serial_runs: Vec<String> = Vec::new();
    let serial = explorer.for_each_run(sys, |_, path| {
        serial_runs.push(format!("{path:?}"));
        ControlFlow::Continue(())
    });
    for jobs in JOBS {
        for split_depth in SPLIT_DEPTHS {
            let par_explorer = Explorer {
                jobs,
                split_depth,
                ..explorer
            };
            let mut par_runs: Vec<String> = Vec::new();
            let par = par_explorer.par_for_each_run(sys, |_, path| {
                par_runs.push(format!("{path:?}"));
                ControlFlow::Continue(())
            });
            assert_eq!(
                serial, par,
                "{what}: stats diverge at jobs={jobs} split_depth={split_depth}"
            );
            // The committer preserves serial DFS order, so not just the
            // multiset but the sequence must match. Compare sorted too,
            // so a failure distinguishes "different runs" from
            // "reordered runs".
            if serial_runs != par_runs {
                let mut a = serial_runs.clone();
                let mut b = par_runs.clone();
                a.sort();
                b.sort();
                assert_eq!(
                    a, b,
                    "{what}: run *multiset* diverges at jobs={jobs} split_depth={split_depth}"
                );
                panic!(
                    "{what}: run multiset matches but order diverges at \
                     jobs={jobs} split_depth={split_depth}"
                );
            }
        }
    }
    serial
}

/// Exhaustive and truncated sweeps for one system.
fn assert_equiv_with_budgets<S>(sys: &S, what: &str)
where
    S: System + Sync,
    S::State: Send,
    S::Action: Send,
{
    let full = assert_equiv(base_explorer(), sys, what);
    // Under GEM_TEST_POR=1 a sweep may legitimately collapse to a single
    // sleep-set representative (the CSP bounded buffer does); the
    // serial-vs-parallel comparison stays meaningful regardless.
    assert!(
        full.runs > 1 || por_env(),
        "{what}: workload too trivial ({full})"
    );

    // Truncation by run budget: an odd cap that bites mid-frontier, the
    // exact budget (which must not truncate), and cap 1.
    for max_runs in [1, full.runs / 2 + 1, full.runs] {
        let stats = assert_equiv(
            Explorer {
                max_runs,
                ..base_explorer()
            },
            sys,
            &format!("{what} [max_runs={max_runs}]"),
        );
        if por_env() && max_runs == full.runs {
            // Documented `Explorer::reduce` corner: an exact run budget
            // may flag a spurious RunLimit if the DFS still has
            // fully-slept nodes to visit after the last representative.
            // Serial/parallel agreement (asserted above) is the real
            // invariant; here only the run count is pinned.
            assert_eq!(stats.runs, full.runs, "{what}: {stats}");
        } else {
            assert_eq!(stats.truncated(), max_runs < full.runs, "{what}: {stats}");
        }
    }

    // Truncation by step budget.
    for max_steps in [3, full.steps / 2 + 1, full.steps] {
        let stats = assert_equiv(
            Explorer {
                max_steps,
                ..base_explorer()
            },
            sys,
            &format!("{what} [max_steps={max_steps}]"),
        );
        assert_eq!(stats.truncated(), max_steps < full.steps, "{what}: {stats}");
    }

    // Truncation by depth: runs are cut while actions remain enabled.
    let depth = full.max_depth_seen;
    for max_depth in [depth / 2, depth.saturating_sub(1)] {
        assert_equiv(
            Explorer {
                max_depth,
                ..base_explorer()
            },
            sys,
            &format!("{what} [max_depth={max_depth}]"),
        );
    }
}

#[test]
fn monitor_readers_writers_equivalence() {
    let sys = rw_program(readers_writers_monitor(), 1, 2, false);
    assert_equiv_with_budgets(&sys, "monitor rw 1r2w");
}

#[test]
fn monitor_rounds_instance_equivalence() {
    let sys = rw_rounds_program(readers_writers_monitor(), 1, 1, 2);
    assert_equiv_with_budgets(&sys, "monitor rw 1r1w rounds=2");
}

#[test]
fn monitor_bounded_buffer_equivalence() {
    let sys = bounded::monitor_solution(&[1, 2, 3], 2);
    assert_equiv_with_budgets(&sys, "monitor bounded buffer");
}

#[test]
fn csp_bounded_buffer_equivalence() {
    let sys = bounded::csp_solution(&[1, 2, 3], 2);
    assert_equiv_with_budgets(&sys, "csp bounded buffer");
}

#[test]
fn ada_bounded_buffer_equivalence() {
    let sys = bounded::ada_solution(&[1, 2, 3], 2);
    assert_equiv_with_budgets(&sys, "ada bounded buffer");
}

#[test]
fn verify_outcome_identical_on_failing_instance() {
    // The readers-priority monitor violates writers-priority on 1R+2W:
    // the outcome carries real counterexamples whose run indices and
    // failure details must survive parallelisation byte for byte.
    let sys = rw_program(readers_writers_monitor(), 1, 2, false);
    let spec = rw_spec(3, false, RwVariant::WritersPriority);
    let corr = rw_correspondence(&sys, &spec, false);
    let outcome_at = |jobs: usize| {
        verify_system(
            &sys,
            &spec,
            &corr,
            |s| sys.computation(s).expect("acyclic"),
            &VerifyOptions {
                explorer: Explorer {
                    jobs,
                    split_depth: 3,
                    reduce: por_env(),
                    dedup_computations: dedup_env(),
                    ..Explorer::default()
                },
                ..VerifyOptions::default()
            },
        )
        .expect("correspondence consistent")
    };
    let serial = outcome_at(1);
    assert!(!serial.ok(), "expected a failing instance: {serial}");
    assert!(!serial.failures.is_empty());
    for jobs in JOBS {
        let par = outcome_at(jobs);
        assert_eq!(serial, par, "VerifyOutcome diverges at jobs={jobs}");
    }
}

#[test]
fn verify_outcome_identical_on_passing_instance_with_truncation() {
    let sys = rw_program(readers_writers_monitor(), 2, 1, false);
    let spec = rw_spec(3, false, RwVariant::MutexOnly);
    let corr = rw_correspondence(&sys, &spec, false);
    let outcome_at = |jobs: usize, max_runs: usize| {
        verify_system(
            &sys,
            &spec,
            &corr,
            |s| sys.computation(s).expect("acyclic"),
            &VerifyOptions {
                explorer: Explorer {
                    jobs,
                    reduce: por_env(),
                    dedup_computations: dedup_env(),
                    ..Explorer::with_max_runs(max_runs)
                },
                ..VerifyOptions::default()
            },
        )
        .expect("correspondence consistent")
    };
    let exhaustive = outcome_at(1, usize::MAX);
    for max_runs in [7, exhaustive.runs, usize::MAX] {
        let serial = outcome_at(1, max_runs);
        for jobs in JOBS {
            assert_eq!(
                serial,
                outcome_at(jobs, max_runs),
                "VerifyOutcome diverges at jobs={jobs} max_runs={max_runs}"
            );
        }
    }
}

/// Computation-dedup differential on one system: the whole
/// [`gem::verify::VerifyOutcome`] — run counts, deadlocks, every failure's
/// index/names/detail, truncation — must be identical with dedup on and
/// off, at every worker count. This is the soundness witness for
/// `Explorer::dedup_computations`: it skips redundant *checking*, never
/// runs.
fn assert_dedup_equiv<S>(
    sys: &S,
    spec: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> gem::core::Computation + Copy,
    what: &str,
) where
    S: System + Sync,
    S::State: Send,
    S::Action: Send,
{
    let outcome_at = |jobs: usize, dedup: bool| {
        verify_system(
            sys,
            spec,
            corr,
            extract,
            &VerifyOptions {
                explorer: Explorer {
                    jobs,
                    split_depth: 3,
                    reduce: por_env(),
                    dedup_computations: dedup,
                    ..Explorer::default()
                },
                ..VerifyOptions::default()
            },
        )
        .expect("correspondence consistent")
    };
    let baseline = outcome_at(1, false);
    for jobs in [1, 4] {
        for dedup in [false, true] {
            assert_eq!(
                baseline,
                outcome_at(jobs, dedup),
                "{what}: VerifyOutcome diverges at jobs={jobs} dedup={dedup}"
            );
        }
    }
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

/// Removes the deliberately jobs-dependent attribution telemetry from a
/// report: `worker.<k>.*` counters and histograms and the
/// frontier-vs-worker step split. The step-cost histograms stay:
/// `explore.step.enabled_width` and `explore.step.undo_depth` are
/// deterministic and jobs-invariant (the frontier walk scans, applies and
/// undoes every edge above the split depth exactly once, like the serial
/// walk), so they participate in the byte-comparison;
/// `explore.step.apply_ns` stays too because `without_timings` reduces
/// `_ns` histograms to their (jobs-invariant) sample counts.
fn strip_attribution(report: &mut gem::obs::Report) {
    report
        .counters
        .retain(|k, _| !k.starts_with("worker.") && !k.starts_with("explore.frontier."));
    report.hists.retain(|k, _| !k.starts_with("worker."));
    report.timers.retain(|k, _| !k.starts_with("worker."));
}

/// Sums one `worker.<k>.<suffix>` counter family across workers.
fn worker_sum(report: &gem::obs::Report, suffix: &str) -> u64 {
    report
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("worker.") && k.ends_with(suffix))
        .map(|(_, v)| *v)
        .sum()
}

/// The worker-attribution sum identities on an exhaustive sweep: every
/// leaf is claimed by exactly one worker, and every DFS edge is walked
/// exactly once — by the frontier builder or by one worker.
fn assert_attribution_sums(report: &gem::obs::Report, what: &str) {
    let runs = report.counters["explore.runs"];
    let steps = report.counters["explore.steps"];
    assert_eq!(
        worker_sum(report, ".leaves"),
        runs,
        "{what}: worker leaves must sum to explore.runs"
    );
    let frontier_steps = report
        .counters
        .get("explore.frontier.steps")
        .copied()
        .unwrap_or(0);
    assert_eq!(
        frontier_steps + worker_sum(report, ".steps"),
        steps,
        "{what}: frontier + worker steps must sum to explore.steps"
    );
    assert!(
        report
            .hists
            .keys()
            .any(|k| k.starts_with("worker.") && k.ends_with(".commit_lag_ns")),
        "{what}: commit-lag histograms missing"
    );
}

/// Strips the attribution telemetry and the config line that *should*
/// differ (the report records the worker count it ran with — exactly the
/// parameter the differential varies), then drops measured timings.
fn comparable_json(mut report: gem::obs::Report) -> String {
    strip_attribution(&mut report);
    report.config.remove("jobs");
    report.without_timings().to_json()
}

#[test]
fn cli_stats_json_identical_across_jobs() {
    // The full CLI path: `gem verify … --jobs N --stats-json <file>`
    // must print the same verdict and aggregate the same report for
    // every worker count — modulo timing measurements, the config
    // block's record of the worker count, and the per-worker
    // attribution telemetry, which is *about* the worker split and is
    // held to its sum identities instead of byte equality. The small rw
    // instance yields a single frontier item, whose frontier work must
    // not be repeated; the bounded one walks most of its edges in the
    // frontier, which must undo them like the serial walk does.
    let dir = std::env::temp_dir().join(format!("gem-par-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for instance in [
        ["rw", "readers=1", "writers=2"],
        ["rw", "readers=1", "writers=0"],
        ["bounded", "items=1", "cap=1"],
    ] {
        let what = instance.join(" ");
        let run_at = |jobs: usize| {
            let path = dir.join(format!("stats-jobs{jobs}.json"));
            let jobs = jobs.to_string();
            let mut args = vec!["verify"];
            args.extend(instance);
            args.extend(["--jobs", &jobs, "--stats-json"]);
            args.push(path.to_str().expect("utf-8 temp path"));
            let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
            let stdout = gem_cli::run(&args).expect("cli run");
            let json = std::fs::read_to_string(&path).expect("stats file written");
            let report = gem::obs::Report::from_json(&json).expect("parseable report");
            (stdout, report)
        };
        let (serial_out, serial_report) = run_at(1);
        assert!(
            serial_report.counters.contains_key("explore.runs"),
            "{what}: report carries explorer counters"
        );
        // Step-cost attribution flows in serial sweeps too.
        for hist in [
            "explore.step.enabled_width",
            "explore.step.apply_ns",
            "explore.step.undo_depth",
        ] {
            assert!(
                serial_report.hists.contains_key(hist),
                "{what}: serial report missing {hist} histogram"
            );
        }
        let serial_comparable = comparable_json(serial_report);
        for jobs in JOBS {
            let (par_out, par_report) = run_at(jobs);
            assert_eq!(
                serial_out, par_out,
                "{what}: stdout diverges at --jobs {jobs}"
            );
            if jobs > 1 {
                assert_attribution_sums(&par_report, &format!("{what} --jobs {jobs}"));
            }
            assert_eq!(
                serial_comparable,
                comparable_json(par_report),
                "{what}: stats report diverges at --jobs {jobs}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn phase_profile_aggregation_identical_across_jobs() {
    // Phase attribution must survive parallelisation: a dedup verify
    // probed through a StatsProbe has to aggregate the *same* phase
    // timer sample counts (and all counters/gauges) at every worker
    // count — only the measured nanoseconds may differ. This is the
    // profiler-level analogue of `cli_stats_json_identical_across_jobs`.
    use gem::obs::StatsProbe;
    use std::sync::Arc;
    let sys = rw_program(readers_writers_monitor(), 1, 1, false);
    let spec = rw_spec(2, false, RwVariant::MutexOnly);
    let corr = rw_correspondence(&sys, &spec, false);
    let report_at = |jobs: usize| {
        let probe = Arc::new(StatsProbe::new());
        let outcome = verify_system(
            &sys,
            &spec,
            &corr,
            |s| sys.computation(s).expect("acyclic"),
            &VerifyOptions {
                probe: probe.clone(),
                explorer: Explorer {
                    jobs,
                    split_depth: 3,
                    reduce: por_env(),
                    dedup_computations: true,
                    ..Explorer::default()
                },
                // Batch-phase aggregation is the subject here; the
                // incremental fast path would skip those timers for
                // clean leaves (its own cross-jobs parity is covered
                // by tests/incr_check_equiv.rs).
                incr_check: gem::verify::IncrCheck::Off,
                ..VerifyOptions::default()
            },
        )
        .expect("projection");
        assert!(outcome.ok(), "{outcome}");
        probe.report()
    };
    let serial = report_at(1);
    for phase in gem::obs::profile::TOP_PHASES {
        if phase == "phase.check_incr" {
            continue; // only recorded when incremental checking is on
        }
        assert!(
            serial.timers.contains_key(phase),
            "serial report missing {phase} timer"
        );
    }
    let serial_stripped = comparable_json(serial);
    for jobs in JOBS {
        let par = report_at(jobs);
        if jobs > 1 {
            assert_attribution_sums(&par, &format!("profile jobs={jobs}"));
        }
        assert_eq!(
            serial_stripped,
            comparable_json(par),
            "phase aggregation diverges at jobs={jobs}"
        );
    }
}

#[test]
fn deadlock_witness_identical() {
    // Two naive-order philosophers deadlock (both grab their left fork);
    // the witness schedule must be the serial DFS-first one at any job
    // count.
    use gem::problems::philosophers::{philosophers_program, ForkOrder};
    let sys = philosophers_program(2, 1, ForkOrder::Naive);
    let serial = find_deadlock(&sys, &base_explorer());
    let serial_rendered = serial.as_ref().map(|p| format!("{p:?}"));
    for jobs in JOBS {
        let par = find_deadlock(
            &sys,
            &Explorer {
                jobs,
                split_depth: 3,
                ..base_explorer()
            },
        );
        assert_eq!(
            serial_rendered,
            par.as_ref().map(|p| format!("{p:?}")),
            "deadlock witness diverges at jobs={jobs}"
        );
    }
}
