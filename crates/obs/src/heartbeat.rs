//! The progress heartbeat line for long sweeps.

use std::time::Duration;

use crate::report::Report;

/// Renders one heartbeat line from a stats report: runs, steps, elapsed
/// time and run rate. A periodic line (`done == false`) adds progress
/// and an ETA when the report carries a pre-sweep Knuth estimate (the
/// `estimate.total_runs` gauge). The final line (`done == true`) adds
/// the share of leaves the incremental checker proved clean when it
/// proved any, and the sleep-set reduction summary when
/// `explore.sleep_skipped` is nonzero.
///
/// `None` while nothing was counted, so heartbeat-enabled commands that
/// don't sweep stay quiet.
pub fn heartbeat_line(report: &Report, elapsed: Duration, done: bool) -> Option<String> {
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    let runs = counter("explore.runs");
    let steps = counter("explore.steps");
    if runs == 0 && steps == 0 {
        return None;
    }
    let elapsed = elapsed.as_secs_f64();
    let rate = if elapsed > 0.0 {
        runs as f64 / elapsed
    } else {
        0.0
    };
    let prefix = if done { "[gem] done:" } else { "[gem]" };
    let mut line = format!(
        "{prefix} {runs} run(s), {steps} step(s), {elapsed:.1}s elapsed ({rate:.0} runs/s)"
    );
    // The estimate turns the raw run count into progress: % explored and
    // an ETA at the current rate. Suppressed on the final line — actuals
    // say it better — and capped at 99% so the estimate never claims a
    // finish it cannot know.
    let est_total_runs = report
        .gauges
        .get("estimate.total_runs")
        .copied()
        .unwrap_or(0);
    if !done && est_total_runs > 0 && runs > 0 {
        let pct = (runs as f64 * 100.0 / est_total_runs as f64).min(99.0);
        line.push_str(&format!(", ~{pct:.0}% explored (est)"));
        if rate > 0.0 && est_total_runs > runs {
            let eta = (est_total_runs - runs) as f64 / rate;
            line.push_str(&format!(", ETA ~{eta:.0}s"));
        }
    }
    if !done {
        return Some(line);
    }
    // The incremental checker's fast path: the share of leaves proven
    // clean along the DFS (skipping seal/project/check entirely), over
    // the runs the sweep completed.
    let leaf_clean = counter("logic.incr.leaf_clean");
    if leaf_clean > 0 && runs > 0 {
        line.push_str(&format!(
            ", incr clean-leaf rate {:.0}% ({leaf_clean}/{runs})",
            leaf_clean as f64 * 100.0 / runs as f64,
        ));
    }
    let sleep_skipped = counter("explore.sleep_skipped");
    if sleep_skipped > 0 {
        line.push_str(&format!(
            ", POR: {} representative(s), {sleep_skipped} branch(es) slept",
            counter("explore.por_runs")
        ));
    }
    Some(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Probe, StatsProbe};

    fn report(counters: &[(&str, u64)]) -> Report {
        let stats = StatsProbe::new();
        for &(k, v) in counters {
            stats.add(k, v);
        }
        stats.report()
    }

    const TWO_SECONDS: Duration = Duration::from_secs(2);

    #[test]
    fn progress_line_reports_runs_steps_and_rate() {
        let r = report(&[
            ("explore.runs", 24),
            ("explore.steps", 72),
            ("unrelated", 99),
        ]);
        assert_eq!(
            heartbeat_line(&r, TWO_SECONDS, false).unwrap(),
            "[gem] 24 run(s), 72 step(s), 2.0s elapsed (12 runs/s)"
        );
        assert_eq!(
            heartbeat_line(&r, TWO_SECONDS, true).unwrap(),
            "[gem] done: 24 run(s), 72 step(s), 2.0s elapsed (12 runs/s)"
        );
    }

    #[test]
    fn silent_when_nothing_happened() {
        assert_eq!(heartbeat_line(&report(&[]), TWO_SECONDS, true), None);
        assert_eq!(
            heartbeat_line(&report(&[("code.ops", 9)]), TWO_SECONDS, false),
            None
        );
    }

    #[test]
    fn final_line_reports_incr_clean_leaf_rate() {
        let r = report(&[("explore.runs", 8), ("logic.incr.leaf_clean", 6)]);
        assert!(heartbeat_line(&r, TWO_SECONDS, true)
            .unwrap()
            .ends_with(", incr clean-leaf rate 75% (6/8)"));
        let r = report(&[("explore.runs", 4), ("logic.incr.leaf_clean", 0)]);
        assert!(!heartbeat_line(&r, TWO_SECONDS, true)
            .unwrap()
            .contains("incr clean-leaf"));
    }

    #[test]
    fn final_line_reports_sleep_set_reduction() {
        let r = report(&[
            ("explore.runs", 4),
            ("explore.por_runs", 4),
            ("explore.sleep_skipped", 11),
        ]);
        assert!(heartbeat_line(&r, TWO_SECONDS, true)
            .unwrap()
            .ends_with(", POR: 4 representative(s), 11 branch(es) slept"));
        // Zero-valued POR counters are emitted on every probed sweep;
        // the summary stays quiet about them.
        let r = report(&[
            ("explore.runs", 4),
            ("explore.por_runs", 0),
            ("explore.sleep_skipped", 0),
        ]);
        assert!(!heartbeat_line(&r, TWO_SECONDS, true)
            .unwrap()
            .contains("POR"));
    }

    #[test]
    fn estimate_gauge_adds_progress_and_eta() {
        let stats = StatsProbe::new();
        stats.gauge_set("estimate.total_runs", 100);
        stats.add("explore.runs", 5);
        let r = stats.report();
        assert_eq!(
            heartbeat_line(&r, Duration::from_secs(1), false).unwrap(),
            "[gem] 5 run(s), 0 step(s), 1.0s elapsed (5 runs/s), ~5% explored (est), ETA ~19s"
        );
        // The final summary reports actuals, not the estimate.
        let done = heartbeat_line(&r, Duration::from_secs(1), true).unwrap();
        assert!(!done.contains("explored (est)"), "{done}");
    }
}
