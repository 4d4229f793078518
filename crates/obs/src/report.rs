//! Aggregated run reports with deterministic JSON serialization.

use std::collections::BTreeMap;
use std::fmt;

use crate::hist::Histogram;
use crate::json::{push_json_key, push_json_str};

/// Summary of a timer/span: count and total/min/max durations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TimerStat {
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of all durations, in nanoseconds.
    pub total_ns: u64,
    /// Shortest recorded duration, in nanoseconds.
    pub min_ns: u64,
    /// Longest recorded duration, in nanoseconds.
    pub max_ns: u64,
}

impl TimerStat {
    /// Folds one duration into the summary.
    pub fn record(&mut self, nanos: u64) {
        if self.count == 0 {
            self.min_ns = nanos;
            self.max_ns = nanos;
        } else {
            self.min_ns = self.min_ns.min(nanos);
            self.max_ns = self.max_ns.max(nanos);
        }
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(nanos);
    }

    /// Mean duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// An aggregated, serializable view of everything a probe saw.
///
/// Key order is the `BTreeMap` order, so [`Report::to_json`] is
/// byte-deterministic for a deterministic workload: two runs of the same
/// sweep differ only in the *values* under `"timers"` and
/// `"wall_time_ns"` — every counter, gauge, and meta entry is identical.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Report {
    /// Monotonic counters (`explore.runs`, `verify.deadlocks`, …).
    pub counters: BTreeMap<String, u64>,
    /// Last-write / high-water gauges (`explore.depth_high_water`, …).
    pub gauges: BTreeMap<String, u64>,
    /// Timer/span summaries. Nondeterministic (like `_ns` hists).
    pub timers: BTreeMap<String, TimerStat>,
    /// Log-bucket histograms ([`Probe::record`](crate::Probe::record)).
    /// Keys ending in `_ns` hold durations and are nondeterministic;
    /// everything else (widths, depths) is deterministic. Serialized
    /// only when non-empty, so histogram-free reports keep their
    /// historical shape.
    pub hists: BTreeMap<String, Histogram>,
    /// Free-form context (command line, problem name, parameters).
    pub meta: BTreeMap<String, String>,
    /// The run's effective configuration (problem id, por flag,
    /// heartbeat, bounds) — makes the report self-describing so artifacts
    /// need no filename conventions. Serialized only when non-empty,
    /// so configuration-free reports keep their historical shape.
    pub config: BTreeMap<String, String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience: total wall time if the conventional `total` timer was
    /// recorded.
    pub fn wall_time_ns(&self) -> Option<u64> {
        self.timers.get("total").map(|t| t.total_ns)
    }

    /// Serializes to a stable-ordered, human-diffable JSON document
    /// (two-space indent, sorted keys, trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str("  ");
        if !self.config.is_empty() {
            push_json_key(&mut out, "config");
            out.push_str(" {");
            let mut first = true;
            for (k, v) in &self.config {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("\n    ");
                push_json_key(&mut out, k);
                out.push(' ');
                push_json_str(&mut out, v);
            }
            out.push_str("\n  },\n  ");
        }
        push_json_key(&mut out, "counters");
        out.push_str(" {");
        push_u64_map(&mut out, &self.counters);
        out.push_str("},\n  ");
        push_json_key(&mut out, "gauges");
        out.push_str(" {");
        push_u64_map(&mut out, &self.gauges);
        out.push_str("},\n  ");
        if !self.hists.is_empty() {
            push_json_key(&mut out, "hists");
            out.push_str(" {");
            let mut first = true;
            for (k, h) in &self.hists {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("\n    ");
                push_json_key(&mut out, k);
                out.push_str(&format!(
                    " {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                     \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max(),
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                ));
                let mut first_bucket = true;
                for (i, n) in h.nonzero_buckets() {
                    if !first_bucket {
                        out.push_str(", ");
                    }
                    first_bucket = false;
                    out.push_str(&format!("[{i}, {n}]"));
                }
                out.push_str("]}");
            }
            out.push_str("\n  },\n  ");
        }
        push_json_key(&mut out, "meta");
        out.push_str(" {");
        let mut first = true;
        for (k, v) in &self.meta {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            push_json_key(&mut out, k);
            out.push(' ');
            push_json_str(&mut out, v);
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("},\n  ");
        push_json_key(&mut out, "timers");
        out.push_str(" {");
        let mut first = true;
        for (k, t) in &self.timers {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            push_json_key(&mut out, k);
            out.push_str(&format!(
                " {{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"mean_ns\": {}}}",
                t.count,
                t.total_ns,
                t.min_ns,
                t.max_ns,
                t.mean_ns()
            ));
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses a document produced by [`Report::to_json`] back into a
    /// `Report`. Unknown top-level keys are ignored; the derived
    /// `mean_ns` field is recomputed rather than read.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn from_json(text: &str) -> Result<Report, String> {
        use crate::json::{parse, JsonValue};
        let doc = parse(text)?;
        let obj = doc.as_obj().ok_or("report: top level is not an object")?;
        let mut report = Report::new();
        let u64_map = |v: &JsonValue, section: &str| -> Result<BTreeMap<String, u64>, String> {
            let mut map = BTreeMap::new();
            for (k, val) in v
                .as_obj()
                .ok_or(format!("report: {section} is not an object"))?
            {
                let n = val
                    .as_u64()
                    .ok_or(format!("report: {section}.{k} is not a u64"))?;
                map.insert(k.clone(), n);
            }
            Ok(map)
        };
        for (key, value) in obj {
            match key.as_str() {
                "config" => {
                    for (k, v) in value.as_obj().ok_or("report: config is not an object")? {
                        let s = v
                            .as_str()
                            .ok_or(format!("report: config.{k} is not a string"))?;
                        report.config.insert(k.clone(), s.to_owned());
                    }
                }
                "counters" => report.counters = u64_map(value, "counters")?,
                "gauges" => report.gauges = u64_map(value, "gauges")?,
                "meta" => {
                    for (k, v) in value.as_obj().ok_or("report: meta is not an object")? {
                        let s = v
                            .as_str()
                            .ok_or(format!("report: meta.{k} is not a string"))?;
                        report.meta.insert(k.clone(), s.to_owned());
                    }
                }
                "hists" => {
                    for (k, h) in value.as_obj().ok_or("report: hists is not an object")? {
                        let field = |name: &str| -> Result<u64, String> {
                            h.get(name)
                                .and_then(JsonValue::as_u64)
                                .ok_or(format!("report: hists.{k}.{name} missing or not a u64"))
                        };
                        let mut buckets = Vec::new();
                        for pair in h
                            .get("buckets")
                            .and_then(JsonValue::as_arr)
                            .ok_or(format!("report: hists.{k}.buckets missing or not an array"))?
                        {
                            let entry = pair
                                .as_arr()
                                .filter(|p| p.len() == 2)
                                .and_then(|p| Some((p[0].as_u64()?, p[1].as_u64()?)))
                                .ok_or(format!(
                                    "report: hists.{k}.buckets entry is not an [index, count] pair"
                                ))?;
                            buckets.push((entry.0 as usize, entry.1));
                        }
                        let hist = Histogram::from_parts(
                            field("count")?,
                            field("sum")?,
                            field("min")?,
                            field("max")?,
                            &buckets,
                        )
                        .map_err(|e| format!("report: hists.{k}: {e}"))?;
                        report.hists.insert(k.clone(), hist);
                    }
                }
                "timers" => {
                    for (k, t) in value.as_obj().ok_or("report: timers is not an object")? {
                        let field = |name: &str| -> Result<u64, String> {
                            t.get(name)
                                .and_then(JsonValue::as_u64)
                                .ok_or(format!("report: timers.{k}.{name} missing or not a u64"))
                        };
                        report.timers.insert(
                            k.clone(),
                            TimerStat {
                                count: field("count")?,
                                total_ns: field("total_ns")?,
                                min_ns: field("min_ns")?,
                                max_ns: field("max_ns")?,
                            },
                        );
                    }
                }
                _ => {}
            }
        }
        Ok(report)
    }

    /// The report with every timer value zeroed — byte-identical across
    /// runs of a deterministic workload; used by tests asserting report
    /// determinism "modulo timing fields". Duration-valued histograms
    /// (keys ending `_ns`) keep their counts but lose their samples;
    /// size/width/depth histograms are deterministic and kept whole.
    pub fn without_timings(&self) -> Report {
        let mut r = self.clone();
        for stat in r.timers.values_mut() {
            *stat = TimerStat {
                count: stat.count,
                ..TimerStat::default()
            };
        }
        for (name, hist) in r.hists.iter_mut() {
            if name.ends_with("_ns") {
                *hist = hist.without_values();
            }
        }
        r
    }
}

fn push_u64_map(out: &mut String, map: &BTreeMap<String, u64>) {
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        push_json_key(out, k);
        out.push_str(&format!(" {v}"));
    }
    if !first {
        out.push_str("\n  ");
    }
}

impl fmt::Display for Report {
    /// Human-readable aligned table (the `--stats` output).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.timers.keys())
            .chain(self.hists.keys())
            .map(String::len)
            .max()
            .unwrap_or(0)
            .max(8);
        if !self.meta.is_empty() {
            for (k, v) in &self.meta {
                writeln!(f, "# {k}: {v}")?;
            }
        }
        if !self.config.is_empty() {
            for (k, v) in &self.config {
                writeln!(f, "# config {k}: {v}")?;
            }
        }
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (k, v) in &self.counters {
                writeln!(f, "  {k:width$}  {v:>12}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (k, v) in &self.gauges {
                writeln!(f, "  {k:width$}  {v:>12}")?;
            }
        }
        if !self.hists.is_empty() {
            writeln!(f, "hists:")?;
            for (k, h) in &self.hists {
                writeln!(
                    f,
                    "  {k:width$}  x{:<8} p50/p90/p99 {}/{}/{} max {}",
                    h.count(),
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                    h.max(),
                )?;
            }
        }
        if !self.timers.is_empty() {
            writeln!(f, "timers:")?;
            for (k, t) in &self.timers {
                writeln!(
                    f,
                    "  {k:width$}  {:>12}  x{:<8} mean {}",
                    format_ns(t.total_ns),
                    t.count,
                    format_ns(t.mean_ns()),
                )?;
            }
        }
        Ok(())
    }
}

/// Renders nanoseconds with a readable unit.
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

    fn sample() -> Report {
        let mut r = Report::new();
        r.counters.insert("explore.runs".into(), 6);
        r.counters.insert("explore.steps".into(), 24);
        r.gauges.insert("explore.depth_high_water".into(), 4);
        r.meta.insert("problem".into(), "rw".into());
        let mut t = TimerStat::default();
        t.record(100);
        t.record(300);
        r.timers.insert("total".into(), t);
        r
    }

    #[test]
    fn json_is_stable_and_wellformed() {
        let r = sample();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b, "serialization is a pure function");
        assert!(a.contains("\"explore.runs\": 6"), "{a}");
        assert!(a.contains("\"problem\": \"rw\""), "{a}");
        assert!(a.contains("\"total_ns\": 400"), "{a}");
        assert!(a.ends_with("}\n"));
        // Keys appear in sorted order.
        let runs = a.find("explore.runs").unwrap();
        let steps = a.find("explore.steps").unwrap();
        assert!(runs < steps);
    }

    #[test]
    fn without_timings_is_timing_invariant() {
        let mut a = sample();
        let mut b = sample();
        a.timers.get_mut("total").unwrap().record(999);
        b.timers.get_mut("total").unwrap().record(1);
        assert_ne!(a.to_json(), b.to_json());
        assert_eq!(a.without_timings().to_json(), b.without_timings().to_json());
    }

    #[test]
    fn json_roundtrips_through_from_json() {
        let r = sample();
        let parsed = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), r.to_json());
        assert!(Report::from_json("{\"counters\": {\"x\": \"y\"}}").is_err());
    }

    #[test]
    fn config_section_roundtrips_and_is_elided_when_empty() {
        let plain = sample();
        assert!(
            !plain.to_json().contains("\"config\""),
            "empty config keeps the historical shape"
        );
        let mut r = sample();
        r.config.insert("problem".into(), "rw".into());
        r.config.insert("por".into(), "true".into());
        let json = r.to_json();
        assert!(json.contains("\"config\""), "{json}");
        assert!(
            json.find("\"config\"").unwrap() < json.find("\"counters\"").unwrap(),
            "config leads the document: {json}"
        );
        assert!(json.contains("\"por\""), "{json}");
        let parsed = Report::from_json(&json).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), json);
        // Old readers (pre-config) ignore the section; new readers
        // tolerate its absence.
        assert!(Report::from_json(&plain.to_json())
            .unwrap()
            .config
            .is_empty());
    }

    #[test]
    fn hists_section_roundtrips_and_is_elided_when_empty() {
        let plain = sample();
        assert!(
            !plain.to_json().contains("\"hists\""),
            "empty hists keeps the historical shape"
        );
        let mut r = sample();
        let mut lag = Histogram::new();
        for v in [10, 10, 900] {
            lag.record(v);
        }
        r.hists.insert("explore.step.undo_depth".into(), lag);
        let mut width = Histogram::new();
        width.record(2);
        r.hists.insert("explore.step.enabled_width".into(), width);
        let json = r.to_json();
        assert!(json.contains("\"hists\""), "{json}");
        assert!(json.contains("\"p50\": 15"), "bucket upper bound: {json}");
        assert!(json.contains("\"p99\": 900"), "clamped to max: {json}");
        assert!(json.contains("\"buckets\": [[4, 2], [10, 1]]"), "{json}");
        let parsed = Report::from_json(&json).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), json);
        // Old readers ignore the section; new readers tolerate absence.
        assert!(Report::from_json(&plain.to_json())
            .unwrap()
            .hists
            .is_empty());
        assert!(Report::from_json("{\"hists\": {\"x\": {\"count\": 1}}}").is_err());
    }

    #[test]
    fn without_timings_neutralizes_only_duration_hists() {
        let mut a = sample();
        let mut b = sample();
        for (r, ns) in [(&mut a, 100), (&mut b, 70_000)] {
            let mut h = Histogram::new();
            h.record(ns);
            r.hists.insert("explore.step.apply_ns".into(), h);
            let mut w = Histogram::new();
            w.record(3);
            r.hists.insert("explore.step.enabled_width".into(), w);
        }
        assert_ne!(a.to_json(), b.to_json());
        assert_eq!(a.without_timings().to_json(), b.without_timings().to_json());
        let stripped = a.without_timings();
        assert_eq!(stripped.hists["explore.step.apply_ns"].count(), 1);
        assert_eq!(stripped.hists["explore.step.apply_ns"].sum(), 0);
        assert_eq!(stripped.hists["explore.step.enabled_width"].max(), 3);
    }

    #[test]
    fn timer_stat_aggregates() {
        let mut t = TimerStat::default();
        t.record(5);
        t.record(1);
        t.record(9);
        assert_eq!(t.count, 3);
        assert_eq!(t.total_ns, 15);
        assert_eq!(t.min_ns, 1);
        assert_eq!(t.max_ns, 9);
        assert_eq!(t.mean_ns(), 5);
    }

    #[test]
    fn display_renders_table() {
        let r = sample();
        let s = r.to_string();
        assert!(s.contains("explore.runs"), "{s}");
        assert!(s.contains("# problem: rw"), "{s}");
        assert!(s.contains("timers:"), "{s}");
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(12), "12ns");
        assert_eq!(format_ns(1_500), "1.500us");
        assert_eq!(format_ns(2_000_000), "2.000ms");
        assert_eq!(format_ns(3_000_000_000), "3.000s");
    }
}
