//! Periodic counter/gauge snapshots into a bounded ring.
//!
//! A [`Series`] is a plain ring of [`SeriesSnapshot`]s: whoever owns it
//! (the CLI's ticker thread) pushes a snapshot of the command's stats
//! report on a fixed cadence. The ring serializes to a `metrics.json`
//! time-series and feeds the OpenMetrics exposition in
//! [`crate::openmetrics`]. Snapshots hold *cumulative* totals, not
//! deltas, so counters are monotone across snapshots — the property the
//! OpenMetrics lint checks.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use crate::report::Report;

/// Ring capacity: at a 1s cadence, over an hour of sweep history before
/// old snapshots fall off the front.
const CAPACITY: usize = 4096;

/// One point-in-time view of the cumulative counter and gauge totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Milliseconds since the series began (snapshot 0 is at 0).
    pub at_ms: u64,
    /// Cumulative counter totals at this instant.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values at this instant.
    pub gauges: BTreeMap<String, u64>,
}

/// Snapshots taken every `interval`, the oldest dropped first past 4096.
/// Construction takes the baseline (all-zero) snapshot, so together with
/// a final push even a sweep faster than the cadence yields two
/// snapshots.
#[derive(Debug)]
pub struct Series {
    interval: Duration,
    snaps: VecDeque<SeriesSnapshot>,
    dropped: u64,
}

impl Series {
    /// An empty series on `interval`: just the baseline snapshot.
    pub fn new(interval: Duration) -> Self {
        let baseline = SeriesSnapshot {
            at_ms: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        };
        Self {
            interval,
            snaps: VecDeque::from([baseline]),
            dropped: 0,
        }
    }

    /// Appends the counters and gauges of `report`, taken `at` since the
    /// series began.
    pub fn push(&mut self, at: Duration, report: Report) {
        self.snaps.push_back(SeriesSnapshot {
            at_ms: u64::try_from(at.as_millis()).unwrap_or(u64::MAX),
            counters: report.counters,
            gauges: report.gauges,
        });
        while self.snaps.len() > CAPACITY {
            self.snaps.pop_front();
            self.dropped += 1;
        }
    }

    /// The snapshots taken so far, oldest first.
    pub fn snapshots(&self) -> Vec<SeriesSnapshot> {
        self.snaps.iter().cloned().collect()
    }

    /// How many old snapshots fell off the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The cadence snapshots are taken at.
    pub fn interval(&self) -> Duration {
        self.interval
    }
}

/// Serializes snapshots as a deterministic `metrics.json` time-series
/// document (sorted keys, two-space indent, trailing newline).
pub fn series_json(interval: Duration, snaps: &[SeriesSnapshot]) -> String {
    use crate::json::push_json_key;
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"interval_ms\": {},\n  \"snapshots\": [",
        interval.as_millis()
    ));
    let mut first_snap = true;
    for snap in snaps {
        if !first_snap {
            out.push(',');
        }
        first_snap = false;
        out.push_str(&format!("\n    {{\"at_ms\": {}, ", snap.at_ms));
        for (section, map) in [("counters", &snap.counters), ("gauges", &snap.gauges)] {
            push_json_key(&mut out, section);
            out.push_str(" {");
            let mut first = true;
            for (k, v) in map {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                push_json_key(&mut out, k);
                out.push_str(&format!(" {v}"));
            }
            out.push('}');
            if section == "counters" {
                out.push_str(", ");
            }
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(runs: u64, depth: u64) -> Report {
        let stats = crate::StatsProbe::new();
        crate::Probe::add(&stats, "explore.runs", runs);
        crate::Probe::gauge_max(&stats, "depth", depth);
        stats.report()
    }

    #[test]
    fn baseline_and_pushes_bracket_the_series() {
        let mut s = Series::new(Duration::from_secs(3600));
        s.push(Duration::from_millis(1500), report(7, 4));
        let snaps = s.snapshots();
        assert_eq!(snaps.len(), 2, "baseline + pushed");
        assert!(snaps[0].counters.is_empty());
        assert_eq!(snaps[0].at_ms, 0);
        assert_eq!(snaps[1].at_ms, 1500);
        assert_eq!(snaps[1].counters["explore.runs"], 7);
        assert_eq!(snaps[1].gauges["depth"], 4);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn ring_is_bounded_and_drops_oldest() {
        let mut s = Series::new(Duration::ZERO);
        let pushes = CAPACITY as u64 + 9;
        for i in 1..=pushes {
            s.push(Duration::from_secs(i), report(i, 1));
        }
        let snaps = s.snapshots();
        assert_eq!(snaps.len(), CAPACITY);
        assert_eq!(s.dropped(), 10);
        assert_eq!(
            snaps.last().unwrap().counters["explore.runs"],
            pushes,
            "the newest snapshot survives the ring"
        );
    }

    #[test]
    fn series_json_is_deterministic() {
        let snaps = vec![
            SeriesSnapshot {
                at_ms: 0,
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
            },
            SeriesSnapshot {
                at_ms: 1000,
                counters: BTreeMap::from([("explore.runs".to_owned(), 7)]),
                gauges: BTreeMap::from([("depth".to_owned(), 4)]),
            },
        ];
        let json = series_json(Duration::from_secs(1), &snaps);
        assert_eq!(json, series_json(Duration::from_secs(1), &snaps));
        assert!(json.contains("\"interval_ms\": 1000"), "{json}");
        assert!(json.contains("\"at_ms\": 1000"), "{json}");
        assert!(json.contains("\"explore.runs\": 7"), "{json}");
        let parsed = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(
            parsed
                .get("snapshots")
                .and_then(crate::json::JsonValue::as_arr)
                .map(<[crate::json::JsonValue]>::len),
            Some(2)
        );
    }
}
