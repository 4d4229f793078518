//! OpenMetrics text exposition of a snapshot series, plus a linter.
//!
//! [`render_openmetrics`] turns the [`crate::series`] snapshot ring into
//! an OpenMetrics text *endpoint-file*: the same bytes a `/metrics`
//! scrape endpoint would serve, written to disk so dashboards and CI can
//! consume sweep telemetry without a live process. Every sample carries
//! an explicit timestamp (seconds since the series began), so one file
//! holds the whole time-series, not just the final totals.
//!
//! Dot-path probe names map to metric families: `explore.runs` becomes
//! `gem_explore_runs` (counters expose `_total` samples).
//!
//! [`lint_openmetrics`] is the format's own acceptance test (used by the
//! CI metrics-smoke leg and `gem metrics-lint`): `# TYPE`/`# HELP` pairs
//! must precede samples, counter samples must end `_total` and be
//! monotone per series across snapshots, timestamps must be
//! non-decreasing, and the file must end with `# EOF`.

use std::collections::{BTreeMap, BTreeSet};

use crate::series::SeriesSnapshot;

/// Sanitizes one dot-path into an OpenMetrics family name.
fn family(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("gem_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders `at_ms` as an exposition timestamp (seconds, millisecond
/// precision).
fn timestamp(at_ms: u64) -> String {
    format!("{}.{:03}", at_ms / 1000, at_ms % 1000)
}

/// Renders the snapshot series as an OpenMetrics text exposition.
/// Deterministic: a pure function of the snapshots.
pub fn render_openmetrics(snaps: &[SeriesSnapshot]) -> String {
    // family -> original keys, split by section.
    let mut counter_families: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
    let mut gauge_families: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
    for snap in snaps {
        for name in snap.counters.keys() {
            counter_families
                .entry(family(name))
                .or_default()
                .insert(name);
        }
        for name in snap.gauges.keys() {
            gauge_families.entry(family(name)).or_default().insert(name);
        }
    }
    let mut out = String::with_capacity(4096);
    for (family, members) in &counter_families {
        out.push_str(&format!("# TYPE {family} counter\n"));
        out.push_str(&format!(
            "# HELP {family} Cumulative sweep counter ({}).\n",
            members.first().copied().unwrap_or("")
        ));
        for &name in members {
            // Cumulative totals: a key missing from an early snapshot
            // simply had not been incremented yet, so it reads 0 — the
            // monotone-from-zero shape the linter checks.
            for snap in snaps {
                let v = snap.counters.get(name).copied().unwrap_or(0);
                out.push_str(&format!("{family}_total {v} {}\n", timestamp(snap.at_ms)));
            }
        }
    }
    for (family, members) in &gauge_families {
        out.push_str(&format!("# TYPE {family} gauge\n"));
        out.push_str(&format!(
            "# HELP {family} Sweep gauge ({}).\n",
            members.first().copied().unwrap_or("")
        ));
        for &name in members {
            // Gauges only exist once set; no zero-backfill.
            for snap in snaps {
                if let Some(v) = snap.gauges.get(name) {
                    out.push_str(&format!("{family} {v} {}\n", timestamp(snap.at_ms)));
                }
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

/// What [`lint_openmetrics`] measured about a well-formed exposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenMetricsSummary {
    /// Declared metric families (`# TYPE` lines).
    pub families: usize,
    /// Total sample lines.
    pub samples: usize,
    /// Distinct sample timestamps — the number of snapshots exported.
    pub snapshots: usize,
}

/// Checks an OpenMetrics text exposition: `# TYPE`/`# HELP` declared
/// before a family's samples, counter samples named `_total` with
/// per-series monotone values and non-decreasing timestamps, and a
/// final `# EOF`.
///
/// # Errors
///
/// Returns `"line <n>: <problem>"` for the first violation.
pub fn lint_openmetrics(text: &str) -> Result<OpenMetricsSummary, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helps: BTreeSet<String> = BTreeSet::new();
    let mut last_sample: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    let mut timestamps: BTreeSet<String> = BTreeSet::new();
    let mut samples = 0usize;
    let mut saw_eof = false;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            return Err(format!("line {n}: blank line in exposition"));
        }
        if saw_eof {
            return Err(format!("line {n}: content after # EOF"));
        }
        if let Some(comment) = line.strip_prefix("# ") {
            if comment == "EOF" {
                saw_eof = true;
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.splitn(2, ' ');
                let family = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if family.is_empty() || !matches!(kind, "counter" | "gauge") {
                    return Err(format!("line {n}: malformed TYPE: {line:?}"));
                }
                if types.insert(family.to_owned(), kind.to_owned()).is_some() {
                    return Err(format!("line {n}: duplicate TYPE for {family}"));
                }
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let family = rest.split(' ').next().unwrap_or("");
                if family.is_empty() {
                    return Err(format!("line {n}: malformed HELP: {line:?}"));
                }
                helps.insert(family.to_owned());
            } else {
                return Err(format!("line {n}: unknown comment: {line:?}"));
            }
            continue;
        }
        // Sample: name[{labels}] value [timestamp]
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let name = &line[..name_end];
        if name.is_empty() {
            return Err(format!("line {n}: sample with no metric name"));
        }
        let rest = &line[name_end..];
        let (labels, rest) = if let Some(r) = rest.strip_prefix('{') {
            let close = r
                .find('}')
                .ok_or(format!("line {n}: unterminated label set"))?;
            (&r[..close], r[close + 1..].trim_start())
        } else {
            ("", rest.trim_start())
        };
        let mut fields = rest.split_whitespace();
        let value: f64 = fields
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(format!("line {n}: sample with no numeric value"))?;
        let ts_text = fields.next().unwrap_or("");
        let ts: f64 = if ts_text.is_empty() {
            0.0
        } else {
            ts_text
                .parse()
                .map_err(|_| format!("line {n}: malformed timestamp {ts_text:?}"))?
        };
        if fields.next().is_some() {
            return Err(format!("line {n}: trailing fields on sample"));
        }
        // Resolve the family: counters sample as `<family>_total`.
        let family = match name.strip_suffix("_total") {
            Some(base) if types.get(base).map(String::as_str) == Some("counter") => base,
            _ => name,
        };
        let kind = types
            .get(family)
            .ok_or(format!("line {n}: sample for undeclared family {name}"))?;
        if !helps.contains(family) {
            return Err(format!("line {n}: family {family} has TYPE but no HELP"));
        }
        if kind == "counter" && !name.ends_with("_total") {
            return Err(format!(
                "line {n}: counter sample {name} must end in _total"
            ));
        }
        let series = format!("{name}{{{labels}}}");
        if let Some((prev_value, prev_ts)) = last_sample.get(&series) {
            if ts < *prev_ts {
                return Err(format!("line {n}: timestamp regressed on {series}"));
            }
            if kind == "counter" && value < *prev_value {
                return Err(format!(
                    "line {n}: counter {series} regressed ({prev_value} -> {value})"
                ));
            }
        }
        last_sample.insert(series, (value, ts));
        if !ts_text.is_empty() {
            timestamps.insert(ts_text.to_owned());
        }
        samples += 1;
    }
    if !saw_eof {
        return Err("exposition does not end with # EOF".to_owned());
    }
    Ok(OpenMetricsSummary {
        families: types.len(),
        samples,
        snapshots: timestamps.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn snaps() -> Vec<SeriesSnapshot> {
        vec![
            SeriesSnapshot {
                at_ms: 0,
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
            },
            SeriesSnapshot {
                at_ms: 1500,
                counters: BTreeMap::from([
                    ("explore.runs".to_owned(), 7),
                    ("explore.steps".to_owned(), 12),
                ]),
                gauges: BTreeMap::from([("estimate.total_runs".to_owned(), 40)]),
            },
        ]
    }

    #[test]
    fn renders_families_and_timestamps() {
        let text = render_openmetrics(&snaps());
        assert!(text.contains("# TYPE gem_explore_runs counter"), "{text}");
        assert!(text.contains("# HELP gem_explore_runs "), "{text}");
        assert!(text.contains("gem_explore_runs_total 0 0.000"), "{text}");
        assert!(text.contains("gem_explore_runs_total 7 1.500"), "{text}");
        assert!(text.contains("gem_explore_steps_total 12 1.500"), "{text}");
        assert!(
            text.contains("# TYPE gem_estimate_total_runs gauge"),
            "{text}"
        );
        assert!(text.contains("gem_estimate_total_runs 40 1.500"), "{text}");
        assert!(text.ends_with("# EOF\n"), "{text}");
        assert!(!text.contains('{'), "no labels: {text}");
    }

    #[test]
    fn rendered_output_passes_the_lint() {
        let summary = lint_openmetrics(&render_openmetrics(&snaps())).unwrap();
        assert_eq!(summary.snapshots, 2);
        assert!(summary.families >= 3);
        assert!(summary.samples >= 5);
    }

    #[test]
    fn lint_rejects_malformed_expositions() {
        let reject = |text: &str, why: &str| {
            let e = lint_openmetrics(text).unwrap_err();
            assert!(e.contains(why), "{text:?}: {e}");
        };
        reject("gem_x_total 1 0.000\n# EOF\n", "undeclared family");
        reject(
            "# TYPE gem_x counter\ngem_x_total 1 0.000\n# EOF\n",
            "no HELP",
        );
        reject(
            "# TYPE gem_x counter\n# HELP gem_x x.\ngem_x 1 0.000\n# EOF\n",
            "must end in _total",
        );
        reject(
            "# TYPE gem_x counter\n# HELP gem_x x.\n\
             gem_x_total 5 0.000\ngem_x_total 3 1.000\n# EOF\n",
            "regressed",
        );
        reject(
            "# TYPE gem_x counter\n# HELP gem_x x.\n\
             gem_x_total 1 1.000\ngem_x_total 2 0.500\n# EOF\n",
            "timestamp regressed",
        );
        reject("# TYPE gem_x counter\n# HELP gem_x x.\n", "# EOF");
        reject("# EOF\nleftovers 1\n", "after # EOF");
    }

    #[test]
    fn lint_accepts_distinct_label_sets_independently() {
        let text = "# TYPE gem_w counter\n# HELP gem_w w.\n\
                    gem_w_total{lane=\"0\"} 9 0.000\n\
                    gem_w_total{lane=\"1\"} 2 0.000\n\
                    gem_w_total{lane=\"0\"} 9 1.000\n# EOF\n";
        let summary = lint_openmetrics(text).unwrap();
        assert_eq!(summary.families, 1);
        assert_eq!(summary.samples, 3);
        assert_eq!(summary.snapshots, 2);
    }
}
