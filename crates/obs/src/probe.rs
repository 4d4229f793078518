//! The [`Probe`] trait and its standard implementations.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::Histogram;
use crate::report::{Report, TimerStat};

/// A sink for instrumentation events.
///
/// All methods have empty default bodies so implementors only override
/// what they observe; [`Probe::enabled`] lets hot paths skip batching
/// work entirely when the probe is a no-op.
///
/// Names are dot-separated paths (`explore.runs`,
/// `restriction.<name>.evals`). They are `&str` rather than `&'static
/// str` because per-restriction metrics are keyed by user-chosen names.
pub trait Probe: Send + Sync {
    /// False when every event is discarded; instrumented code may use
    /// this to skip timestamping and delta bookkeeping.
    fn enabled(&self) -> bool {
        true
    }

    /// False when timer and histogram samples ([`Probe::time_ns`],
    /// [`Probe::record`]) are discarded; instrumented code may use this to
    /// skip reading the clock for them. Defaults to [`Probe::enabled`].
    fn wants_timings(&self) -> bool {
        self.enabled()
    }

    /// Increments the monotonic counter `name` by `delta`.
    fn add(&self, name: &str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the gauge `name` (last write wins).
    fn gauge_set(&self, name: &str, value: u64) {
        let _ = (name, value);
    }

    /// Raises the gauge `name` to `value` if larger (high-water mark).
    fn gauge_max(&self, name: &str, value: u64) {
        let _ = (name, value);
    }

    /// Records one duration under the timer `name`.
    fn time_ns(&self, name: &str, nanos: u64) {
        let _ = (name, nanos);
    }

    /// Folds one sample into the log-bucket histogram `name`
    /// ([`crate::Histogram`]). By convention names ending in `_ns`
    /// record durations (and are neutralized by
    /// `Report::without_timings`); anything else records sizes, widths,
    /// or depths.
    fn record(&self, name: &str, value: u64) {
        let _ = (name, value);
    }

    /// Marks entry into the span `name` (spans nest; exits arrive in
    /// reverse entry order per thread).
    fn span_enter(&self, name: &str) {
        let _ = name;
    }

    /// Marks exit from the span `name` after `nanos` inside it.
    fn span_exit(&self, name: &str, nanos: u64) {
        let _ = (name, nanos);
    }
}

/// The zero-cost default: discards everything, reports itself disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    fn enabled(&self) -> bool {
        false
    }
}

/// RAII span: enters on construction, exits (recording elapsed time, and
/// mirroring it into a same-named timer) on drop.
///
/// Construct with [`Span::enter`]; when the probe is disabled no clock
/// is read.
pub struct Span<'a> {
    probe: &'a dyn Probe,
    name: &'a str,
    start: Option<Instant>,
}

impl<'a> Span<'a> {
    /// Enters span `name` on `probe`.
    pub fn enter(probe: &'a dyn Probe, name: &'a str) -> Self {
        let start = if probe.enabled() {
            probe.span_enter(name);
            Some(Instant::now())
        } else {
            None
        };
        Self { probe, name, start }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.probe.span_exit(self.name, ns);
            self.probe.time_ns(self.name, ns);
        }
    }
}

#[derive(Debug, Default)]
struct StatsInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    timers: BTreeMap<String, TimerStat>,
    hists: BTreeMap<String, Histogram>,
}

/// In-memory aggregation: counters summed, gauges kept, timers
/// summarized. Thread-safe (a single mutex; hot layers batch their
/// counts so contention is per-run, not per-step).
#[derive(Debug)]
pub struct StatsProbe {
    inner: Mutex<StatsInner>,
    /// False when timer and histogram samples are dropped on arrival.
    timings: bool,
}

impl Default for StatsProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl StatsProbe {
    /// An empty stats probe.
    pub fn new() -> Self {
        Self {
            inner: Mutex::default(),
            timings: true,
        }
    }

    /// An empty stats probe that keeps counters and gauges only: timer
    /// and histogram samples, which arrive per step and per leaf, are
    /// dropped on arrival. For readers of counters and gauges alone, such
    /// as the heartbeat and metrics snapshots.
    pub fn counters_and_gauges() -> Self {
        Self {
            timings: false,
            ..Self::new()
        }
    }

    /// Snapshot of everything recorded so far.
    pub fn report(&self) -> Report {
        let inner = self.inner.lock().expect("stats probe poisoned");
        Report {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            timers: inner.timers.clone(),
            hists: inner.hists.clone(),
            meta: BTreeMap::new(),
            config: BTreeMap::new(),
        }
    }

    /// Reads one counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("stats probe poisoned");
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of one histogram (empty when never recorded).
    pub fn hist(&self, name: &str) -> Histogram {
        let inner = self.inner.lock().expect("stats probe poisoned");
        inner.hists.get(name).cloned().unwrap_or_default()
    }
}

/// Applies `f` to the value under `name`, inserting a default first.
/// The key is looked up before anything is allocated, so recording into
/// an existing key does not touch the heap.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_owned()).or_default()),
    }
}

impl Probe for StatsProbe {
    fn wants_timings(&self) -> bool {
        self.timings
    }

    fn add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().expect("stats probe poisoned");
        update(&mut inner.counters, name, |v| *v = v.saturating_add(delta));
    }

    fn gauge_set(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().expect("stats probe poisoned");
        update(&mut inner.gauges, name, |v| *v = value);
    }

    fn gauge_max(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().expect("stats probe poisoned");
        update(&mut inner.gauges, name, |v| *v = (*v).max(value));
    }

    fn time_ns(&self, name: &str, nanos: u64) {
        if self.timings {
            let mut inner = self.inner.lock().expect("stats probe poisoned");
            update(&mut inner.timers, name, |t| t.record(nanos));
        }
    }

    fn record(&self, name: &str, value: u64) {
        if self.timings {
            let mut inner = self.inner.lock().expect("stats probe poisoned");
            update(&mut inner.hists, name, |h| h.record(value));
        }
    }
}

/// Duplicates every event to each wrapped probe.
#[derive(Clone)]
pub struct FanoutProbe {
    sinks: Vec<Arc<dyn Probe>>,
}

impl std::fmt::Debug for FanoutProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FanoutProbe({} sinks)", self.sinks.len())
    }
}

impl FanoutProbe {
    /// Fans out to `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Probe>>) -> Self {
        Self { sinks }
    }
}

impl Probe for FanoutProbe {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn wants_timings(&self) -> bool {
        self.sinks.iter().any(|s| s.wants_timings())
    }

    fn add(&self, name: &str, delta: u64) {
        for s in &self.sinks {
            s.add(name, delta);
        }
    }

    fn gauge_set(&self, name: &str, value: u64) {
        for s in &self.sinks {
            s.gauge_set(name, value);
        }
    }

    fn gauge_max(&self, name: &str, value: u64) {
        for s in &self.sinks {
            s.gauge_max(name, value);
        }
    }

    fn time_ns(&self, name: &str, nanos: u64) {
        for s in &self.sinks {
            s.time_ns(name, nanos);
        }
    }

    fn record(&self, name: &str, value: u64) {
        for s in &self.sinks {
            s.record(name, value);
        }
    }

    fn span_enter(&self, name: &str) {
        for s in &self.sinks {
            s.span_enter(name);
        }
    }

    fn span_exit(&self, name: &str, nanos: u64) {
        for s in &self.sinks {
            s.span_exit(name, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled() {
        let p = NoopProbe;
        assert!(!p.enabled());
        p.add("x", 1); // must not panic
    }

    #[test]
    fn stats_aggregates_counters_gauges_timers() {
        let p = StatsProbe::new();
        p.add("runs", 2);
        p.add("runs", 3);
        p.gauge_max("depth", 4);
        p.gauge_max("depth", 2);
        p.gauge_set("first_failure", 7);
        p.gauge_set("first_failure", 9);
        p.time_ns("check", 10);
        p.time_ns("check", 30);
        let r = p.report();
        assert_eq!(r.counters["runs"], 5);
        assert_eq!(r.gauges["depth"], 4);
        assert_eq!(r.gauges["first_failure"], 9);
        assert_eq!(r.timers["check"].count, 2);
        assert_eq!(r.timers["check"].total_ns, 40);
        assert_eq!(p.counter("runs"), 5);
        assert_eq!(p.counter("missing"), 0);
    }

    #[test]
    fn stats_record_builds_histograms() {
        let p = StatsProbe::new();
        p.record("apply_ns", 100);
        p.record("apply_ns", 900);
        p.record("width", 3);
        let r = p.report();
        assert_eq!(r.hists["apply_ns"].count(), 2);
        assert_eq!(r.hists["apply_ns"].sum(), 1000);
        assert_eq!(r.hists["width"].max(), 3);
        assert_eq!(p.hist("apply_ns").count(), 2);
        assert!(p.hist("missing").is_empty());
    }

    #[test]
    fn timings_are_wanted_by_the_probes_that_keep_them() {
        let all: Arc<dyn Probe> = Arc::new(StatsProbe::new());
        let counts: Arc<dyn Probe> = Arc::new(StatsProbe::counters_and_gauges());
        let noop: Arc<dyn Probe> = Arc::new(NoopProbe);
        assert!(all.wants_timings());
        assert!(counts.enabled() && !counts.wants_timings());
        assert!(!noop.wants_timings());
        let fanout = |sinks: &[&Arc<dyn Probe>]| {
            FanoutProbe::new(sinks.iter().map(|&s| s.clone()).collect()).wants_timings()
        };
        assert!(!fanout(&[&counts, &noop]));
        assert!(fanout(&[&counts, &all]));
        assert!(!fanout(&[]));
    }

    #[test]
    fn counters_and_gauges_drops_timings() {
        let p = StatsProbe::counters_and_gauges();
        p.add("runs", 2);
        p.gauge_set("est", 9);
        p.time_ns("check", 10);
        p.record("width", 3);
        let r = p.report();
        assert_eq!(r.counters["runs"], 2);
        assert_eq!(r.gauges["est"], 9);
        assert!(r.timers.is_empty() && r.hists.is_empty(), "{r:?}");
    }

    #[test]
    fn record_fans_out() {
        let a = Arc::new(StatsProbe::new());
        let b = Arc::new(StatsProbe::new());
        let f = FanoutProbe::new(vec![a.clone() as Arc<dyn Probe>, b.clone()]);
        f.record("lag", 5);
        assert_eq!(a.hist("lag").count(), 1);
        assert_eq!(b.hist("lag").count(), 1);
        NoopProbe.record("lag", 5); // must not panic
    }

    #[test]
    fn span_records_timer() {
        let p = StatsProbe::new();
        {
            let _s = Span::enter(&p, "outer");
            let _t = Span::enter(&p, "inner");
        }
        let r = p.report();
        assert_eq!(r.timers["outer"].count, 1);
        assert_eq!(r.timers["inner"].count, 1);
        assert!(r.timers["outer"].total_ns >= r.timers["inner"].total_ns);
    }

    #[test]
    fn span_on_noop_reads_no_clock() {
        let p = NoopProbe;
        let s = Span::enter(&p, "x");
        assert!(s.start.is_none());
    }

    #[test]
    fn fanout_duplicates() {
        let a = Arc::new(StatsProbe::new());
        let b = Arc::new(StatsProbe::new());
        let f = FanoutProbe::new(vec![a.clone(), b.clone()]);
        assert!(f.enabled());
        f.add("n", 2);
        assert_eq!(a.counter("n"), 2);
        assert_eq!(b.counter("n"), 2);
        let noop = FanoutProbe::new(vec![Arc::new(NoopProbe)]);
        assert!(!noop.enabled());
    }
}
