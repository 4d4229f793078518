//! Phase attribution and reduction cost/benefit verdicts.
//!
//! `verify_system` times each pipeline phase into `phase.*` timers
//! (exploration residual, incremental leaf checking, computation
//! sealing, restriction checking). [`PhaseProfile`] folds a
//! [`Report`] into a table whose top-level rows partition the `verify`
//! span — they sum to (approximately) wall time by construction, because
//! `phase.explore` is computed as the sweep residual — and [`explain`]
//! turns the same counters into cost/benefit verdicts: how many leaves
//! did the incremental checker prove clean? what did the independence
//! oracle grant? what did sleep sets actually skip?

use crate::report::Report;

/// Timer keys that partition the `verify` span. Order is presentation
/// order (pipeline order, not alphabetical).
pub const TOP_PHASES: [&str; 4] = [
    "phase.explore",
    "phase.check_incr",
    "phase.seal",
    "phase.check",
];

/// Sub-phases: timers nested inside a top-level phase, displayed
/// indented and excluded from the partition sum.
pub const SUB_PHASES: [(&str, &str); 1] = [("phase.closure", "phase.seal")];

/// One row of the phase table.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseRow {
    /// Timer key (`phase.check`, …).
    pub name: String,
    /// Total nanoseconds attributed to the phase.
    pub total_ns: u64,
    /// Number of samples folded into the total.
    pub count: u64,
    /// Share of wall time, in percent.
    pub pct_of_wall: f64,
    /// True for sub-phases nested inside another row (not summed).
    pub nested: bool,
}

/// A per-phase decomposition of one sweep's wall time.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseProfile {
    /// The wall-clock reference: the `verify` span when present, else
    /// the `total` span.
    pub wall_ns: u64,
    /// Which timer supplied `wall_ns` (`"verify"` or `"total"`).
    pub wall_source: &'static str,
    /// Phase rows in pipeline order (sub-phases follow their parent).
    pub rows: Vec<PhaseRow>,
    /// Sum of top-level (non-nested) rows.
    pub accounted_ns: u64,
}

impl PhaseProfile {
    /// Extracts the profile from a report. `None` when the report has
    /// neither a `verify` nor a `total` span, or no `phase.*` timers at
    /// all (nothing to attribute).
    pub fn from_report(report: &Report) -> Option<PhaseProfile> {
        let (wall_source, wall) = if let Some(t) = report.timers.get("verify") {
            ("verify", t.total_ns)
        } else {
            ("total", report.timers.get("total")?.total_ns)
        };
        if wall == 0 {
            return None;
        }
        let pct = |ns: u64| ns as f64 * 100.0 / wall as f64;
        let mut rows = Vec::new();
        let mut accounted = 0u64;
        for name in TOP_PHASES {
            let Some(t) = report.timers.get(name) else {
                continue;
            };
            accounted += t.total_ns;
            rows.push(PhaseRow {
                name: name.to_owned(),
                total_ns: t.total_ns,
                count: t.count,
                pct_of_wall: pct(t.total_ns),
                nested: false,
            });
            for (sub, parent) in SUB_PHASES {
                if parent != name {
                    continue;
                }
                if let Some(s) = report.timers.get(sub) {
                    rows.push(PhaseRow {
                        name: sub.to_owned(),
                        total_ns: s.total_ns,
                        count: s.count,
                        pct_of_wall: pct(s.total_ns),
                        nested: true,
                    });
                }
            }
        }
        if rows.is_empty() {
            return None;
        }
        Some(PhaseProfile {
            wall_ns: wall,
            wall_source,
            rows,
            accounted_ns: accounted,
        })
    }

    /// Renders the aligned table (stderr-style human output).
    pub fn render(&self) -> String {
        let width = self
            .rows
            .iter()
            .map(|r| r.name.len() + if r.nested { 2 } else { 0 })
            .max()
            .unwrap_or(8)
            .max("accounted".len());
        let mut out = String::new();
        out.push_str(&format!(
            "{:width$}  {:>12}  {:>10}  {:>8}\n",
            "phase", "total", "samples", "% wall"
        ));
        for r in &self.rows {
            let label = if r.nested {
                format!("  {}", r.name)
            } else {
                r.name.clone()
            };
            let marker = if r.nested { " (within parent)" } else { "" };
            out.push_str(&format!(
                "{label:width$}  {:>12}  {:>10}  {:>7.1}%{marker}\n",
                format_ns(r.total_ns),
                r.count,
                r.pct_of_wall
            ));
        }
        out.push_str(&format!(
            "{:width$}  {:>12}  {:>10}  {:>7.1}%\n",
            "accounted",
            format_ns(self.accounted_ns),
            "",
            self.accounted_ns as f64 * 100.0 / self.wall_ns as f64
        ));
        out.push_str(&format!(
            "{:width$}  {:>12}\n",
            format!("wall ({})", self.wall_source),
            format_ns(self.wall_ns)
        ));
        out
    }
}

/// Cost/benefit verdict lines for the reductions a sweep applied,
/// derived purely from the report's counters and timers:
///
/// * **incremental check** — when `logic.incr.*` counters exist: how
///   many leaves the prefix-sharing checker proved clean (skipping the
///   seal/check pipeline entirely), replay/reuse volume, and its cost.
/// * **POR** — sleep-set skip attribution and independence-oracle
///   grant rate.
pub fn explain(report: &Report) -> Vec<String> {
    let mut out = Vec::new();
    let c = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    let t_total = |name: &str| report.timers.get(name).map(|t| t.total_ns).unwrap_or(0);
    let wall = report
        .timers
        .get("verify")
        .or_else(|| report.timers.get("total"))
        .map(|t| t.total_ns)
        .unwrap_or(0);
    let pct_of_wall = |ns: u64| {
        if wall == 0 {
            0.0
        } else {
            ns as f64 * 100.0 / wall as f64
        }
    };

    let inc_clean = c("logic.incr.leaf_clean");
    let inc_fallback = c("logic.incr.leaf_fallback");
    if inc_clean + inc_fallback > 0 {
        let total = inc_clean + inc_fallback;
        let cost = t_total("phase.check_incr");
        let mut line = format!(
            "incremental check: {inc_clean}/{total} leaf(s) proven clean \
             ({:.0}%), {} event(s) replayed, {} reused, cost {} ({:.0}% of wall)",
            inc_clean as f64 * 100.0 / total as f64,
            c("logic.incr.events_replayed"),
            c("logic.incr.events_reused"),
            format_ns(cost),
            pct_of_wall(cost),
        );
        if inc_fallback > 0 {
            line.push_str(&format!("; {inc_fallback} fell back to batch checking"));
        }
        out.push(line);
    } else if c("logic.incr.restrictions.fallback") > 0 {
        out.push(format!(
            "incremental check disabled: {} restriction(s) outside the supported fragment",
            c("logic.incr.restrictions.fallback")
        ));
    }

    let grants = c("explore.oracle.grants");
    let denials = c("explore.oracle.denials");
    let slept = c("explore.sleep_skipped");
    let por_runs = c("explore.por_runs");
    if grants + denials > 0 || slept > 0 {
        let queries = grants + denials;
        let mut line = format!("POR: {por_runs} representative run(s), {slept} branch(es) slept");
        if queries > 0 {
            line.push_str(&format!(
                "; independence oracle granted {:.0}% of {queries} quer{}",
                grants as f64 * 100.0 / queries as f64,
                if queries == 1 { "y" } else { "ies" }
            ));
        }
        if slept == 0 {
            line.push_str(" — no reduction on this instance");
        }
        out.push(line);
    }
    out
}

/// Renders nanoseconds with a readable unit (mirrors the report table).
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::TimerStat;

    fn timer(count: u64, total_ns: u64) -> TimerStat {
        TimerStat {
            count,
            total_ns,
            min_ns: 0,
            max_ns: total_ns,
        }
    }

    fn phased_report() -> Report {
        let mut r = Report::new();
        r.timers.insert("verify".into(), timer(1, 1_000_000));
        r.timers.insert("phase.explore".into(), timer(1, 400_000));
        r.timers.insert("phase.seal".into(), timer(10, 200_000));
        r.timers.insert("phase.closure".into(), timer(10, 50_000));
        r.timers.insert("phase.check".into(), timer(4, 250_000));
        r
    }

    #[test]
    fn profile_partitions_wall() {
        let p = PhaseProfile::from_report(&phased_report()).unwrap();
        assert_eq!(p.wall_ns, 1_000_000);
        assert_eq!(p.wall_source, "verify");
        // Top-level rows sum, sub-phase excluded from the sum.
        assert_eq!(p.accounted_ns, 850_000);
        let closure = p.rows.iter().find(|r| r.name == "phase.closure").unwrap();
        assert!(closure.nested);
        // Sub-phase renders right after its parent.
        let seal_ix = p.rows.iter().position(|r| r.name == "phase.seal").unwrap();
        assert_eq!(p.rows[seal_ix + 1].name, "phase.closure");
        let table = p.render();
        assert!(table.contains("phase.check"), "{table}");
        assert!(table.contains("wall (verify)"), "{table}");
        assert!(table.contains("accounted"), "{table}");
    }

    #[test]
    fn profile_none_without_wall_or_phases() {
        assert!(PhaseProfile::from_report(&Report::new()).is_none());
        let mut r = Report::new();
        r.timers.insert("verify".into(), timer(1, 10));
        assert!(PhaseProfile::from_report(&r).is_none(), "no phase timers");
    }

    #[test]
    fn explain_por_attribution() {
        let mut r = Report::new();
        r.counters.insert("explore.oracle.grants".into(), 75);
        r.counters.insert("explore.oracle.denials".into(), 25);
        r.counters.insert("explore.sleep_skipped".into(), 40);
        r.counters.insert("explore.por_runs".into(), 24);
        let lines = explain(&r);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(
            lines[0].contains("24 representative run(s)"),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("40 branch(es) slept"), "{}", lines[0]);
        assert!(
            lines[0].contains("granted 75% of 100 queries"),
            "{}",
            lines[0]
        );
    }

    #[test]
    fn explain_incremental_check_verdicts() {
        let mut r = phased_report();
        r.counters.insert("logic.incr.leaf_clean".into(), 22);
        r.counters.insert("logic.incr.leaf_fallback".into(), 2);
        r.counters.insert("logic.incr.events_replayed".into(), 685);
        r.counters.insert("logic.incr.events_reused".into(), 259);
        r.timers
            .insert("phase.check_incr".into(), timer(24, 50_000));
        let lines = explain(&r);
        let line = lines
            .iter()
            .find(|l| l.starts_with("incremental check:"))
            .expect("incremental verdict");
        assert!(line.contains("22/24 leaf(s) proven clean (92%)"), "{line}");
        assert!(line.contains("685 event(s) replayed, 259 reused"), "{line}");
        assert!(line.contains("2 fell back to batch checking"), "{line}");

        // Globally unsupported spec: no per-leaf counters, but the
        // construction-time fallback tally still explains the absence.
        let mut r = phased_report();
        r.counters
            .insert("logic.incr.restrictions.fallback".into(), 3);
        let lines = explain(&r);
        assert!(
            lines
                .iter()
                .any(|l| l.contains("incremental check disabled: 3 restriction(s)")),
            "{lines:?}"
        );
    }

    #[test]
    fn explain_empty_report_is_silent() {
        assert!(explain(&Report::new()).is_empty());
    }
}
