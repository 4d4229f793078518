//! Shared integration-test support: the plain serial batch sweep that
//! `verify_system` is compared against, and the specifications in
//! [`specs`].

pub mod specs;

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use gem::core::Computation;
use gem::lang::System;
use gem::obs::StatsProbe;
use gem::spec::Specification;
use gem::verify::{check_computation, Correspondence, RunFailure, VerifyOptions, VerifyOutcome};

/// The reference sweep: walks `options.explorer` with
/// `Explorer::for_each_run_probed` and judges every leaf with
/// [`check_computation`], with the deadlock count, `max_failures` cap and
/// truncation of `verify_system`. Returns the outcome and the `explore.*`
/// counters the walk reported.
pub fn batch_sweep<S: System>(
    sys: &S,
    spec: &Specification,
    corr: &Correspondence,
    extract: impl Fn(&S::State) -> Computation,
    options: &VerifyOptions,
) -> (VerifyOutcome, BTreeMap<String, u64>) {
    let probe = StatsProbe::new();
    let (mut runs, mut deadlocks, mut failures) = (0, 0, Vec::new());
    let stats = options
        .explorer
        .for_each_run_probed(sys, &probe, |state, _| {
            runs += 1;
            if !sys.is_complete(state) {
                deadlocks += 1;
            }
            let check = check_computation(
                &extract(state),
                spec,
                corr,
                options.strategy,
                options.check_program_legality,
            )
            .expect("projection");
            if let Some((violated, detail)) = check.verdict {
                failures.push(RunFailure {
                    run: runs - 1,
                    violated,
                    detail,
                });
                if failures.len() >= options.max_failures {
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        });
    let outcome = VerifyOutcome {
        runs,
        deadlocks,
        failures,
        truncation: stats.truncation,
    };
    let mut counters = probe.report().counters;
    counters.retain(|k, _| k.starts_with("explore."));
    (outcome, counters)
}
