//! Differential soundness suite for fingerprint dedup.
//!
//! The first computation dedup serialised the exact O(n²) `canonical_key`
//! for *every* run. The current pipeline reads the fingerprint hashed
//! when each computation is sealed and confirms candidate hits with the
//! closure-free exact `confirm_key`. The contract is that this is a pure
//! performance change: this suite reimplements the serialise-every-run
//! reference from public APIs and checks the new path against it —
//!
//! * byte-identical [`VerifyOutcome`]s and identical hit/miss counters,
//!   across Monitor/CSP/ADA substrates × POR on/off,
//!   including a genuinely failing and a deadlocking instance, and the
//!   same outcome as a sweep without dedup;
//! * the run partition induced by `(fingerprint, confirm_key)` coincides
//!   exactly with the partition induced by `canonical_key` — the
//!   fingerprint never merges distinct computations (soundness) and the
//!   confirmation key never splits equal ones (no lost dedup);
//! * counterexample artifact directories are byte-identical with dedup
//!   on and off.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::ControlFlow;
use std::sync::Arc;

use gem::core::Computation;
use gem::lang::monitor::readers_writers_monitor;
use gem::lang::{Explorer, System};
use gem::obs::StatsProbe;
use gem::problems::bounded;
use gem::problems::philosophers::{
    philosophers_correspondence, philosophers_program, philosophers_spec, ForkOrder,
};
use gem::problems::readers_writers::{rw_correspondence, rw_program, rw_spec, RwVariant};
use gem::spec::Specification;
use gem::verify::{
    canonical_key, check_computation, confirm_key, verify_system, ArtifactSink, CanonicalKey,
    Correspondence, RunFailure, VerifyOptions, VerifyOutcome,
};

/// PR 3's dedup, reimplemented verbatim from public APIs: serialise the
/// exact canonical key of every run, cache the check verdict per key.
/// Deadlocks are judged per run on the state and never deduplicated;
/// the failure cap breaks the sweep exactly like `verify_system`.
fn reference_dedup_sweep<S: System>(
    sys: &S,
    spec: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> Computation,
    explorer: &Explorer,
) -> (VerifyOutcome, u64, u64) {
    let defaults = VerifyOptions::default();
    let mut runs = 0usize;
    let mut deadlocks = 0usize;
    let mut failures: Vec<RunFailure> = Vec::new();
    let mut verdicts: HashMap<CanonicalKey, Option<(Vec<String>, String)>> = HashMap::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    let stats = explorer.for_each_run(sys, |state, _| {
        runs += 1;
        if !sys.is_complete(state) {
            deadlocks += 1;
        }
        let comp = extract(state);
        let key = canonical_key(&comp);
        let verdict = match verdicts.get(&key) {
            Some(cached) => {
                hits += 1;
                cached.clone()
            }
            None => {
                misses += 1;
                let check = check_computation(
                    &comp,
                    spec,
                    corr,
                    defaults.strategy,
                    defaults.check_program_legality,
                )
                .expect("correspondence consistent");
                verdicts.insert(key, check.verdict.clone());
                check.verdict
            }
        };
        if let Some((violated, detail)) = verdict {
            failures.push(RunFailure {
                run: runs - 1,
                violated,
                detail,
            });
            if failures.len() >= defaults.max_failures {
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    });
    (
        VerifyOutcome {
            runs,
            deadlocks,
            failures,
            truncation: stats.truncation,
        },
        hits,
        misses,
    )
}

/// The new pipeline: `verify_system` with `dedup_computations`, hit and
/// miss counters read back off a stats probe.
fn fingerprint_dedup_sweep<S: System>(
    sys: &S,
    spec: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> Computation,
    explorer: &Explorer,
) -> (VerifyOutcome, u64, u64) {
    let stats = Arc::new(StatsProbe::new());
    let outcome = verify_system(
        sys,
        spec,
        corr,
        extract,
        &VerifyOptions {
            explorer: *explorer,
            probe: stats.clone(),
            // This suite pins down the dedup cache itself; the
            // incremental checker legitimately bypasses it on clean
            // leaves, which would zero the hit/miss counters under test.
            incr_check: gem::verify::IncrCheck::Off,
            ..VerifyOptions::default()
        },
    )
    .expect("correspondence consistent");
    let report = stats.report();
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    (
        outcome,
        counter("verify.dedup.hits"),
        counter("verify.dedup.misses"),
    )
}

/// The core differential on one instance: reference and fingerprint
/// dedup agree byte-for-byte with POR off and on, and both report the
/// outcome of the same sweep without dedup — dedup skips redundant
/// checking, never a run, a failure index or a detail string.
fn assert_fingerprint_equiv<S: System>(
    sys: &S,
    spec: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> Computation + Copy,
    what: &str,
) {
    for reduce in [false, true] {
        let explorer = Explorer {
            reduce,
            dedup_computations: true,
            ..Explorer::default()
        };
        let (want, want_hits, want_misses) =
            reference_dedup_sweep(sys, spec, corr, extract, &explorer);
        let (got, got_hits, got_misses) =
            fingerprint_dedup_sweep(sys, spec, corr, extract, &explorer);
        assert_eq!(
            want, got,
            "{what}: outcome diverges from reference dedup at por={reduce}"
        );
        assert_eq!(
            (want_hits, want_misses),
            (got_hits, got_misses),
            "{what}: dedup hit/miss counters diverge at por={reduce}"
        );
        let plain = verify_system(
            sys,
            spec,
            corr,
            extract,
            &VerifyOptions {
                explorer: Explorer {
                    dedup_computations: false,
                    ..explorer
                },
                ..VerifyOptions::default()
            },
        )
        .expect("correspondence consistent");
        assert_eq!(
            plain, got,
            "{what}: dedup changes the outcome at por={reduce}"
        );
    }
}

/// On one instance, the run partition by `(fingerprint, confirm_key)`
/// must coincide with the partition by `canonical_key`: same classes,
/// same members.
fn assert_partitions_coincide<S: System>(
    sys: &S,
    extract: impl Fn(&S::State) -> Computation,
    what: &str,
) {
    let mut by_canonical: BTreeMap<CanonicalKey, BTreeSet<usize>> = BTreeMap::new();
    let mut by_fingerprint: BTreeMap<(u64, CanonicalKey), BTreeSet<usize>> = BTreeMap::new();
    let mut run = 0usize;
    Explorer::default().for_each_run(sys, |state, _| {
        let comp = extract(state);
        by_canonical
            .entry(canonical_key(&comp))
            .or_default()
            .insert(run);
        by_fingerprint
            .entry((comp.fingerprint(), confirm_key(&comp)))
            .or_default()
            .insert(run);
        run += 1;
        ControlFlow::Continue(())
    });
    let canonical_classes: BTreeSet<BTreeSet<usize>> = by_canonical.into_values().collect();
    let fingerprint_classes: BTreeSet<BTreeSet<usize>> = by_fingerprint.into_values().collect();
    assert_eq!(
        canonical_classes, fingerprint_classes,
        "{what}: fingerprint/confirm partition differs from canonical partition"
    );
}

#[test]
fn monitor_bounded_buffer_fingerprint_equiv() {
    let sys = bounded::monitor_solution(&[1, 2, 3], 2);
    let spec = bounded::bounded_spec(3, 2);
    let corr = bounded::monitor_correspondence(&sys, &spec, 2);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_fingerprint_equiv(&sys, &spec, &corr, extract, "monitor bounded buffer");
    assert_partitions_coincide(&sys, extract, "monitor bounded buffer");
}

#[test]
fn csp_bounded_buffer_fingerprint_equiv() {
    let sys = bounded::csp_solution(&[1, 2, 3], 2);
    let spec = bounded::bounded_spec(3, 2);
    let corr = bounded::csp_correspondence(&sys, &spec, 2);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_fingerprint_equiv(&sys, &spec, &corr, extract, "csp bounded buffer");
    assert_partitions_coincide(&sys, extract, "csp bounded buffer");
}

#[test]
fn ada_bounded_buffer_fingerprint_equiv() {
    let sys = bounded::ada_solution(&[1, 2, 3], 2);
    let spec = bounded::bounded_spec(3, 2);
    let corr = bounded::ada_correspondence(&sys, &spec, 2);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_fingerprint_equiv(&sys, &spec, &corr, extract, "ada bounded buffer");
    assert_partitions_coincide(&sys, extract, "ada bounded buffer");
}

#[test]
fn failing_rw_fingerprint_equiv() {
    // Writers-priority monitor against the readers-priority problem:
    // genuinely failing runs, so the failure list, cap break, and
    // verdict replay on cache hits are all exercised.
    let sys = rw_program(readers_writers_monitor(), 1, 2, false);
    let spec = rw_spec(3, false, RwVariant::WritersPriority);
    let corr = rw_correspondence(&sys, &spec, false);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_fingerprint_equiv(&sys, &spec, &corr, extract, "failing rw");
    assert_partitions_coincide(&sys, extract, "failing rw");
}

#[test]
fn deadlocking_philosophers_fingerprint_equiv() {
    // Naive-order philosophers deadlock: per-run (never deduplicated)
    // deadlock counting must agree between the two pipelines.
    let sys = philosophers_program(2, 1, ForkOrder::Naive);
    let spec = philosophers_spec(2);
    let corr = philosophers_correspondence(&sys, &spec, 2);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_fingerprint_equiv(&sys, &spec, &corr, extract, "deadlocking philosophers");
    assert_partitions_coincide(&sys, extract, "deadlocking philosophers");
}

#[test]
fn artifact_dirs_identical_with_and_without_dedup() {
    let sys = rw_program(readers_writers_monitor(), 1, 2, false);
    let spec = rw_spec(3, false, RwVariant::WritersPriority);
    let corr = rw_correspondence(&sys, &spec, false);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    let sweep = |dedup: bool, dir: &std::path::Path| {
        std::fs::remove_dir_all(dir).ok();
        verify_system(
            &sys,
            &spec,
            &corr,
            extract,
            &VerifyOptions {
                explorer: Explorer {
                    dedup_computations: dedup,
                    ..Explorer::default()
                },
                artifacts: Some(ArtifactSink::new(dir)),
                ..VerifyOptions::default()
            },
        )
        .expect("correspondence consistent")
    };
    let base = std::env::temp_dir().join(format!("gem-fp-equiv-{}", std::process::id()));
    let plain_dir = base.join("plain");
    let dedup_dir = base.join("dedup");
    let plain = sweep(false, &plain_dir);
    let deduped = sweep(true, &dedup_dir);
    assert_eq!(plain, deduped, "artifact sweeps must agree on the outcome");
    for name in [
        "meta.json",
        "schedule.json",
        "computation.json",
        "blame.json",
        "counterexample.dot",
        "counterexample_slice.dot",
        "outcome.json",
    ] {
        let a = std::fs::read(plain_dir.join(name)).expect(name);
        let b = std::fs::read(dedup_dir.join(name)).expect(name);
        assert_eq!(a, b, "artifact file {name} differs under dedup");
    }
    std::fs::remove_dir_all(&base).ok();
}
