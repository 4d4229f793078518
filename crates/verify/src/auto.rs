//! `--auto` strategy selection: sample the instance, estimate, choose.
//!
//! The reduction machinery is a win only when its per-run overhead is
//! repaid: `--dedup` pays a confirmation-key serialisation per run and
//! wins only when many runs collapse to few computations; `--por` prunes
//! whole subtrees but only when the independence oracle actually grants
//! commutations. BENCH_verify.json shows both flags *regressing* on the
//! wrong instances (bounded_monitor_dedup 3.4× slower than plain), so a
//! fixed default cannot be right.
//!
//! [`sample_evidence`] runs a few hundred [`Explorer::sample_run`] Knuth
//! probes — deterministic, probe-silent, and cheap relative to a sweep —
//! and distils them into a [`StrategyEvidence`]: estimated run count
//! (Knuth), estimated distinct-computation count (Chapman
//! capture-recapture over builder fingerprints), measured per-run key
//! and check costs, and the oracle's grant rate on sampled enabled
//! pairs. [`choose`] turns that evidence into a [`Strategy`] with a
//! human-readable reason; the CLI records both in `--stats-json` under
//! `config.strategy` so a decision is always auditable.

use std::time::Instant;

use gem_core::Computation;
use gem_lang::{Explorer, System};
use gem_obs::{CollapseEstimator, KnuthEstimator};

use crate::dedup::confirm_key;

/// Default number of Knuth probes for [`sample_evidence`].
pub const AUTO_SAMPLES: usize = 128;

/// Default number of sampled computations to run the (expensive) full
/// check on when measuring `check_ns`.
pub const AUTO_CHECKS: usize = 6;

/// How many sampled schedules to replay when probing the independence
/// oracle's grant rate.
const ORACLE_SEEDS: usize = 4;

/// Cap on total oracle queries across the replayed schedules, so wide
/// instances don't spend the sweep's budget on quadratic pair probing.
const ORACLE_QUERY_CAP: u64 = 2_000;

/// Dedup must beat its own overhead by this factor before `choose`
/// prefers it — estimator noise on a marginal instance should fall back
/// to `Plain`, never flip a known-good default into a regression.
pub const WIN_MARGIN: f64 = 2.0;

/// What the sampler learned about an instance — the chooser's entire
/// input, recorded verbatim in `--stats-json` so decisions replay.
#[derive(Clone, Debug, PartialEq)]
pub struct StrategyEvidence {
    /// Number of Knuth probes taken.
    pub samples: usize,
    /// Knuth estimate of the number of maximal runs.
    pub est_runs: f64,
    /// Chapman capture-recapture estimate of distinct computations.
    pub est_distinct: u64,
    /// `est_runs / est_distinct` — how many runs collapse onto each
    /// computation (1.0 means dedup can never win).
    pub collapse_ratio: f64,
    /// Independence-oracle grants among sampled enabled action pairs.
    pub oracle_grants: u64,
    /// Independence-oracle queries issued while probing.
    pub oracle_queries: u64,
    /// Mean per-run confirmation-key cost (ns), measured on samples.
    pub key_ns: u64,
    /// Mean per-run projection+check cost (ns), measured on samples.
    pub check_ns: u64,
    /// True if any probe hit the depth bound (estimates then undershoot).
    pub depth_limited: bool,
    /// True when the spec is in the incremental checker's fragment
    /// ([`crate::IncrChecker::global_fallback`] is false): per-run batch
    /// checks then cost ~nothing for clean leaves, which voids dedup's
    /// saving. [`sample_evidence`] cannot know this (it never sees the
    /// spec), so it reports `false`; callers with the spec in hand set it
    /// before [`choose`].
    pub incr_supported: bool,
}

/// The exploration strategy `choose` picks for one instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// No reduction: enumerate and check every run.
    Plain,
    /// Computation deduplication (`--dedup`).
    Dedup,
    /// Sleep-set partial-order reduction (`--por`).
    Por,
}

impl Strategy {
    /// Stable lower-case name, as recorded in `--stats-json`.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Plain => "plain",
            Strategy::Dedup => "dedup",
            Strategy::Por => "por",
        }
    }
}

/// A strategy choice together with the evidence and reasoning behind it.
#[derive(Clone, Debug)]
pub struct StrategyDecision {
    /// The chosen strategy.
    pub strategy: Strategy,
    /// The sampled evidence the choice was made on.
    pub evidence: StrategyEvidence,
    /// One-line human-readable justification (shown by `--explain`).
    pub reason: String,
}

/// Picks a strategy from sampled evidence.
///
/// POR wins whenever the oracle grants at all: a granted commutation
/// prunes an entire subtree, which dominates any per-run accounting
/// (BENCH: mutex_with_data `--por` beats even `--por --dedup`). With no
/// grants, dedup is a pure time trade: it saves the full check on every
/// duplicate run and pays the confirmation key on *every* run, so it is
/// chosen only when the estimated saving clears [`WIN_MARGIN`]×
/// overhead — and never when `incr_supported` says incremental checking
/// already skips those batch checks. Otherwise plain enumeration — the
/// reductions must *win*, not break even.
pub fn choose(evidence: StrategyEvidence) -> StrategyDecision {
    if evidence.oracle_grants > 0 {
        let reason = format!(
            "oracle granted {}/{} sampled pairs: sleep-set POR prunes subtrees",
            evidence.oracle_grants, evidence.oracle_queries
        );
        return StrategyDecision {
            strategy: Strategy::Por,
            evidence,
            reason,
        };
    }
    // Dedup's entire benefit is the batch check it skips on duplicate
    // runs. With incremental checking covering the spec, clean leaves
    // skip that check anyway — keying every run would be pure overhead.
    if evidence.incr_supported {
        let reason = format!(
            "no oracle grants; incremental checking covers the spec \
             (collapse {:.1}× moot: clean leaves skip batch checks already)",
            evidence.collapse_ratio
        );
        return StrategyDecision {
            strategy: Strategy::Plain,
            evidence,
            reason,
        };
    }
    let dup_runs = (evidence.est_runs - evidence.est_distinct as f64).max(0.0);
    let saved = dup_runs * evidence.check_ns as f64;
    let paid = evidence.est_runs * evidence.key_ns as f64;
    if saved > paid * WIN_MARGIN {
        let reason = format!(
            "no oracle grants; ~{:.0} duplicate run(s) of {:.0} estimated \
             (collapse {:.1}×) repay keying {}× over",
            dup_runs, evidence.est_runs, evidence.collapse_ratio, WIN_MARGIN,
        );
        StrategyDecision {
            strategy: Strategy::Dedup,
            evidence,
            reason,
        }
    } else {
        let reason = format!(
            "no oracle grants; collapse {:.1}× too low to repay per-run keying",
            evidence.collapse_ratio
        );
        StrategyDecision {
            strategy: Strategy::Plain,
            evidence,
            reason,
        }
    }
}

/// Samples `samples` random schedules of `sys` and distils them into a
/// [`StrategyEvidence`].
///
/// Uses [`Explorer::sample_run`] (deterministic in the seed, emits
/// nothing on any probe), so sampling before a sweep never perturbs the
/// sweep's own report. `extract` seals a terminal state's computation;
/// `check` is the full per-computation verification work, run on at most
/// `checks` samples to price `check_ns`. The oracle grant rate is probed
/// by replaying a few sampled schedules and querying
/// [`System::independent`] on enabled pairs before each step, capped at
/// `ORACLE_QUERY_CAP` total queries.
pub fn sample_evidence<S: System>(
    explorer: &Explorer,
    sys: &S,
    extract: impl Fn(&S::State) -> Computation,
    check: impl Fn(&Computation),
    samples: usize,
    checks: usize,
) -> StrategyEvidence {
    let mut knuth = KnuthEstimator::new();
    let mut collapse = CollapseEstimator::new();
    // Random walks oversample likely paths: resampling the *same* run
    // repeats its fingerprint without any two runs actually sealing the
    // same computation, which would fabricate collapse evidence (the
    // bounded_monitor trap: every run distinct, dedup pure overhead).
    // Only the first sighting of each distinct path feeds the collapse
    // estimator; a path is identified by hashing its action sequence.
    let mut seen_paths = std::collections::HashSet::new();
    let mut key_ns_total = 0u128;
    let mut check_ns_total = 0u128;
    let mut checks_done = 0u32;
    let mut depth_limited = false;

    for seed in 0..samples as u64 {
        let sample = explorer.sample_run(sys, seed);
        knuth.record(sample.tree_product);
        depth_limited |= sample.depth_limited;
        let comp = extract(&sample.state);
        let started = Instant::now();
        let _key = confirm_key(&comp);
        key_ns_total += started.elapsed().as_nanos();
        let path_id = gem_obs::fingerprint_words(
            &sample
                .path
                .iter()
                .map(|a| {
                    gem_obs::fingerprint_words(
                        &format!("{a:?}").bytes().map(u64::from).collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>(),
        );
        if seen_paths.insert(path_id) {
            collapse.record(comp.fingerprint());
        }
        if (checks_done as usize) < checks {
            let started = Instant::now();
            check(&comp);
            check_ns_total += started.elapsed().as_nanos();
            checks_done += 1;
        }
    }

    let mut oracle_grants = 0u64;
    let mut oracle_queries = 0u64;
    'probe: for seed in 0..ORACLE_SEEDS.min(samples) as u64 {
        let sample = explorer.sample_run(sys, seed);
        let mut state = sys.initial();
        for action in &sample.path {
            let actions = sys.enabled(&state);
            for i in 0..actions.len() {
                for j in (i + 1)..actions.len() {
                    if oracle_queries >= ORACLE_QUERY_CAP {
                        break 'probe;
                    }
                    oracle_queries += 1;
                    if sys.independent(&state, &actions[i], &actions[j]) {
                        oracle_grants += 1;
                    }
                }
            }
            sys.apply(&mut state, action);
        }
    }

    let est_runs = knuth.estimate().unwrap_or(1.0);
    // Chapman capture-recapture extrapolates from the *overlap* between
    // sample halves; with zero observed duplicates the overlap is empty
    // yet the formula still yields a finite distinct-count, which would
    // credit dedup with collapse nobody ever saw. No two distinct paths
    // sharing a fingerprint ⇒ no evidence of collapse ⇒ report
    // distinct = runs, and `choose` falls through to plain.
    let est_distinct = if collapse.distinct_seen() >= seen_paths.len() as u64 {
        est_runs.round().max(1.0) as u64
    } else {
        collapse
            .estimate()
            .unwrap_or_else(|| collapse.distinct_seen().max(1))
    };
    let mean = |total: u128, n: u64| -> u64 {
        if n == 0 {
            0
        } else {
            u64::try_from(total / u128::from(n)).unwrap_or(u64::MAX)
        }
    };
    StrategyEvidence {
        samples,
        est_runs,
        est_distinct,
        collapse_ratio: est_runs / est_distinct.max(1) as f64,
        oracle_grants,
        oracle_queries,
        key_ns: mean(key_ns_total, samples as u64),
        check_ns: mean(check_ns_total, u64::from(checks_done)),
        depth_limited,
        incr_supported: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evidence(
        est_runs: f64,
        est_distinct: u64,
        oracle_grants: u64,
        key_ns: u64,
        check_ns: u64,
    ) -> StrategyEvidence {
        StrategyEvidence {
            samples: 128,
            est_runs,
            est_distinct,
            collapse_ratio: est_runs / est_distinct.max(1) as f64,
            oracle_grants,
            oracle_queries: 100,
            key_ns,
            check_ns,
            depth_limited: false,
            incr_supported: false,
        }
    }

    #[test]
    fn any_oracle_grant_picks_por() {
        // Even with a dedup-hostile profile, a granted commutation means
        // whole subtrees vanish — POR dominates per-run accounting.
        let d = choose(evidence(1000.0, 1000, 1, 10_000, 10));
        assert_eq!(d.strategy, Strategy::Por);
        assert!(d.reason.contains("POR"));
    }

    #[test]
    fn high_collapse_cheap_keys_picks_dedup() {
        // 10_000 runs collapsing onto 10 computations, checks 100× the
        // key cost: saved ≈ 9_990 × 100_000 ≫ paid ≈ 10_000 × 1_000.
        let d = choose(evidence(10_000.0, 10, 0, 1_000, 100_000));
        assert_eq!(d.strategy, Strategy::Dedup);
        assert!(d.reason.contains("duplicate"));
    }

    #[test]
    fn no_collapse_picks_plain() {
        // Every run distinct (the bounded_monitor profile): dedup pays
        // keying on every run and saves nothing.
        let d = choose(evidence(1_000.0, 1_000, 0, 10_000, 100_000));
        assert_eq!(d.strategy, Strategy::Plain);
        assert!(d.reason.contains("collapse"));
    }

    #[test]
    fn marginal_collapse_stays_plain_under_win_margin() {
        // Saved barely exceeds paid but not by WIN_MARGIN: stay plain so
        // estimator noise can't flip a good default into a regression.
        // saved = 500 × 3_000 = 1.5e6; paid = 1_000 × 1_000 = 1e6.
        let d = choose(evidence(1_000.0, 500, 0, 1_000, 3_000));
        assert_eq!(d.strategy, Strategy::Plain);
        // Doubling the check cost clears the margin.
        let d = choose(evidence(1_000.0, 500, 0, 1_000, 6_000));
        assert_eq!(d.strategy, Strategy::Dedup);
    }

    #[test]
    fn incr_support_vetoes_dedup_but_not_por() {
        // The dedup-WIN profile from high_collapse_cheap_keys_picks_dedup
        // flips to plain once incremental checking covers the spec: the
        // skipped batch checks dedup would save are already skipped.
        let mut e = evidence(10_000.0, 10, 0, 1_000, 100_000);
        e.incr_supported = true;
        let d = choose(e);
        assert_eq!(d.strategy, Strategy::Plain);
        assert!(d.reason.contains("incremental"), "{}", d.reason);
        // POR prunes exploration itself, which incremental checking does
        // not touch — grants still win.
        let mut e = evidence(10_000.0, 10, 5, 1_000, 100_000);
        e.incr_supported = true;
        assert_eq!(choose(e).strategy, Strategy::Por);
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(Strategy::Plain.name(), "plain");
        assert_eq!(Strategy::Dedup.name(), "dedup");
        assert_eq!(Strategy::Por.name(), "por");
    }
}
