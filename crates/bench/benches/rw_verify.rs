//! E1–E3, E6 — Readers/Writers verification benches: the cost of the
//! machine-checked counterparts of the paper's §9 claims.
//!
//! Series reported (§9 monitor unless noted):
//! * `mutex_with_data_1r1w` — E2: mutual exclusion with shared data.
//! * `readers_priority_1r2w` — E3: the §9 readers-priority proof.
//! * `writers_priority_monitor_2r1w` — E6: the writers-priority monitor
//!   against its own spec.
//! * `entries_sequential_2r1w` — E1: total ordering of monitor events.
//! * `*_dedup` — F6: the same sweeps with
//!   `Explorer::dedup_computations`, checking each distinct computation
//!   once (identical outcome, see `docs/PERFORMANCE.md`).
//! * `*_por` / `*_por_dedup` — F7: sleep-set partial-order reduction
//!   (`Explorer::reduce`), exploring roughly one schedule per
//!   computation — alone and combined with dedup. Control-only
//!   instances (no shared-data steps) admit no reduction and serve as
//!   the no-op baseline.
//! * `*_auto` — the `--auto` strategy picker: sample, choose, sweep
//!   with the chosen flags. The one-off sampling decision runs outside
//!   the measured loop (it is deterministic per instance and amortised
//!   over a sweep); the series must land within 10% of the best
//!   hand-picked mode above.

use criterion::{criterion_group, criterion_main, Criterion};
use gem_lang::monitor::{entries_sequential, readers_writers_monitor};
use gem_lang::Explorer;
use gem_problems::readers_writers::{
    rw_correspondence, rw_program, rw_spec, writers_priority_monitor, RwVariant,
};
use gem_verify::auto::{self, Strategy};
use gem_verify::{check_computation, sample_evidence, verify_system, VerifyOptions};
use std::ops::ControlFlow;

#[allow(clippy::too_many_arguments)] // bench table row, not an API
fn verify_bench(
    c: &mut Criterion,
    name: &str,
    monitor: gem_lang::monitor::MonitorDef,
    readers: usize,
    writers: usize,
    with_data: bool,
    variant: RwVariant,
    dedup: bool,
    reduce: bool,
) {
    let sys = rw_program(monitor, readers, writers, with_data);
    let problem = rw_spec(readers + writers, with_data, variant);
    let corr = rw_correspondence(&sys, &problem, with_data);
    let options = VerifyOptions {
        explorer: Explorer {
            dedup_computations: dedup,
            reduce,
            ..Explorer::default()
        },
        ..VerifyOptions::default()
    };
    c.bench_function(name, |b| {
        b.iter(|| {
            let outcome = verify_system(
                &sys,
                &problem,
                &corr,
                |s| sys.computation(s).expect("acyclic"),
                &options,
            )
            .expect("consistent");
            assert!(outcome.ok(), "{outcome}");
            outcome.runs
        });
    });
}

/// The `*_auto` series: let the strategy picker sample the instance and
/// choose, then sweep under the chosen flags.
fn verify_bench_auto(
    c: &mut Criterion,
    name: &str,
    monitor: gem_lang::monitor::MonitorDef,
    readers: usize,
    writers: usize,
    with_data: bool,
    variant: RwVariant,
) {
    let sys = rw_program(monitor, readers, writers, with_data);
    let problem = rw_spec(readers + writers, with_data, variant);
    let corr = rw_correspondence(&sys, &problem, with_data);
    let defaults = VerifyOptions::default();
    let evidence = sample_evidence(
        &defaults.explorer,
        &sys,
        |s| sys.computation(s).expect("acyclic"),
        |comp| {
            let _ = check_computation(
                comp,
                &problem,
                &corr,
                defaults.strategy,
                defaults.check_program_legality,
            );
        },
        auto::AUTO_SAMPLES,
        auto::AUTO_CHECKS,
    );
    let decision = auto::choose(evidence);
    let options = VerifyOptions {
        explorer: Explorer {
            dedup_computations: decision.strategy == Strategy::Dedup,
            reduce: decision.strategy == Strategy::Por,
            ..Explorer::default()
        },
        ..VerifyOptions::default()
    };
    c.bench_function(name, |b| {
        b.iter(|| {
            let outcome = verify_system(
                &sys,
                &problem,
                &corr,
                |s| sys.computation(s).expect("acyclic"),
                &options,
            )
            .expect("consistent");
            assert!(outcome.ok(), "{outcome}");
            outcome.runs
        });
    });
}

fn bench_rw(c: &mut Criterion) {
    // (suffix, dedup, reduce): the plain sweep, F6 dedup, F7 sleep-set
    // POR, and the two combined.
    const MODES: [(&str, bool, bool); 4] = [
        ("", false, false),
        ("_dedup", true, false),
        ("_por", false, true),
        ("_por_dedup", true, true),
    ];
    for (suffix, dedup, reduce) in MODES {
        verify_bench(
            c,
            &format!("rw_verify/mutex_with_data_1r1w{suffix}"),
            readers_writers_monitor(),
            1,
            1,
            true,
            RwVariant::MutexOnly,
            dedup,
            reduce,
        );
        verify_bench(
            c,
            &format!("rw_verify/readers_priority_1r2w{suffix}"),
            readers_writers_monitor(),
            1,
            2,
            false,
            RwVariant::ReadersPriority,
            dedup,
            reduce,
        );
        verify_bench(
            c,
            &format!("rw_verify/writers_priority_monitor_2r1w{suffix}"),
            writers_priority_monitor(),
            2,
            1,
            false,
            RwVariant::WritersPriority,
            dedup,
            reduce,
        );
    }
    // The strategy picker on the two instances where hand-picked flags
    // disagree most: mutex_with_data (POR is a ~100× win) and
    // readers_priority (every reduction is a regression; plain wins).
    verify_bench_auto(
        c,
        "rw_verify/mutex_with_data_1r1w_auto",
        readers_writers_monitor(),
        1,
        1,
        true,
        RwVariant::MutexOnly,
    );
    verify_bench_auto(
        c,
        "rw_verify/readers_priority_1r2w_auto",
        readers_writers_monitor(),
        1,
        2,
        false,
        RwVariant::ReadersPriority,
    );
    // E1: sequential execution of monitor entries, over all schedules.
    let sys = rw_program(readers_writers_monitor(), 2, 1, false);
    c.bench_function("rw_verify/entries_sequential_2r1w", |b| {
        b.iter(|| {
            let mut ok = true;
            Explorer::default().for_each_run(&sys, |state, _| {
                let comp = sys.computation(state).expect("acyclic");
                ok &= entries_sequential(&sys, &comp);
                ControlFlow::Continue(())
            });
            assert!(ok);
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_rw
}
criterion_main!(benches);
