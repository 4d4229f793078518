//! E4–E5 — buffer verification benches: One-Slot and Bounded Buffer,
//! each on all three language substrates (Monitor, CSP, ADA). The
//! `bounded_*_dedup` series (F6) runs the same sweep with
//! `Explorer::dedup_computations` — identical outcome, each distinct
//! computation checked once (see `docs/PERFORMANCE.md`). The
//! `bounded_*_por` series (F7) runs it with sleep-set partial-order
//! reduction (`Explorer::reduce`): substrates whose oracle finds
//! commuting actions explore fewer schedules, the rest are exact
//! no-ops. The `bounded_*_auto` series runs the `--auto` strategy
//! picker: sample the instance, choose, sweep under the chosen flags —
//! the deterministic one-off decision is made outside the measured
//! loop, and the series must land within 10% of the best hand-picked
//! mode.

use criterion::{criterion_group, criterion_main, Criterion};
use gem_core::Computation;
use gem_lang::{Explorer, System};
use gem_problems::{bounded, one_slot};
use gem_spec::Specification;
use gem_verify::auto::{self, Strategy};
use gem_verify::{
    check_computation, sample_evidence, verify_system, Correspondence, VerifyOptions,
};

const ITEMS: &[i64] = &[10, 20, 30];
const BITEMS: &[i64] = &[1, 2, 3, 4];
const CAP: usize = 2;

#[allow(clippy::too_many_arguments)] // bench table row, not an API
fn bench_one<S>(
    c: &mut Criterion,
    name: &str,
    sys: &S,
    problem: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> Computation + Copy,
    dedup: bool,
    reduce: bool,
) where
    S: System + Sync,
    S::State: Send,
    S::Action: Send,
{
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
            verify_system(sys, problem, corr, extract, &options)
                .map(|o| {
                    assert!(o.ok());
                    o.runs
                })
                .unwrap()
        });
    });
}

/// The `bounded_*_auto` series: the strategy picker samples, decides,
/// and the sweep runs under whatever it chose.
fn bench_auto<S>(
    c: &mut Criterion,
    name: &str,
    sys: &S,
    problem: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> Computation + Copy,
) where
    S: System + Sync,
    S::State: Send,
    S::Action: Send,
{
    let defaults = VerifyOptions::default();
    let evidence = sample_evidence(
        &defaults.explorer,
        sys,
        extract,
        |comp| {
            let _ = check_computation(
                comp,
                problem,
                corr,
                defaults.strategy,
                defaults.check_program_legality,
            );
        },
        auto::AUTO_SAMPLES,
        auto::AUTO_CHECKS,
    );
    let decision = auto::choose(evidence);
    bench_one(
        c,
        name,
        sys,
        problem,
        corr,
        extract,
        decision.strategy == Strategy::Dedup,
        decision.strategy == Strategy::Por,
    );
}

fn bench_buffers(c: &mut Criterion) {
    // E4: One-Slot Buffer.
    {
        let problem = one_slot::one_slot_spec();
        let sys = one_slot::monitor_solution(ITEMS);
        let corr = one_slot::monitor_correspondence(&sys, &problem);
        bench_one(
            c,
            "buffer_verify/one_slot_monitor",
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).unwrap(),
            false,
            false,
        );
        let sys = one_slot::csp_solution(ITEMS);
        let corr = one_slot::csp_correspondence(&sys, &problem);
        bench_one(
            c,
            "buffer_verify/one_slot_csp",
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).unwrap(),
            false,
            false,
        );
        let sys = one_slot::ada_solution(ITEMS);
        let corr = one_slot::ada_correspondence(&sys, &problem);
        bench_one(
            c,
            "buffer_verify/one_slot_ada",
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).unwrap(),
            false,
            false,
        );
    }
    // E5: Bounded Buffer, capacity 2 — plus the F6 dedup and F7 POR
    // ablations.
    {
        let problem = bounded::bounded_spec(BITEMS.len(), CAP);
        for (suffix, dedup, reduce) in [
            ("", false, false),
            ("_dedup", true, false),
            ("_por", false, true),
        ] {
            let sys = bounded::monitor_solution(BITEMS, CAP);
            let corr = bounded::monitor_correspondence(&sys, &problem, CAP);
            bench_one(
                c,
                &format!("buffer_verify/bounded_monitor{suffix}"),
                &sys,
                &problem,
                &corr,
                |s| sys.computation(s).unwrap(),
                dedup,
                reduce,
            );
            let sys = bounded::csp_solution(BITEMS, CAP);
            let corr = bounded::csp_correspondence(&sys, &problem, CAP);
            bench_one(
                c,
                &format!("buffer_verify/bounded_csp{suffix}"),
                &sys,
                &problem,
                &corr,
                |s| sys.computation(s).unwrap(),
                dedup,
                reduce,
            );
            let sys = bounded::ada_solution(BITEMS, CAP);
            let corr = bounded::ada_correspondence(&sys, &problem, CAP);
            bench_one(
                c,
                &format!("buffer_verify/bounded_ada{suffix}"),
                &sys,
                &problem,
                &corr,
                |s| sys.computation(s).unwrap(),
                dedup,
                reduce,
            );
        }
        // The picker, on the substrate where dedup is a known 3.4×
        // regression (bounded_monitor: every run a distinct
        // computation) and on the two where it's moot.
        let sys = bounded::monitor_solution(BITEMS, CAP);
        let corr = bounded::monitor_correspondence(&sys, &problem, CAP);
        bench_auto(
            c,
            "buffer_verify/bounded_monitor_auto",
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).unwrap(),
        );
        let sys = bounded::csp_solution(BITEMS, CAP);
        let corr = bounded::csp_correspondence(&sys, &problem, CAP);
        bench_auto(
            c,
            "buffer_verify/bounded_csp_auto",
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).unwrap(),
        );
        let sys = bounded::ada_solution(BITEMS, CAP);
        let corr = bounded::ada_correspondence(&sys, &problem, CAP);
        bench_auto(
            c,
            "buffer_verify/bounded_ada_auto",
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).unwrap(),
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_buffers
}
criterion_main!(benches);
