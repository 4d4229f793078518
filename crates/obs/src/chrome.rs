//! Chrome-trace (`chrome://tracing` / Perfetto) export.
//!
//! [`ChromeTraceProbe`] collects timer samples and counter updates with
//! wall-clock timestamps; [`chrome_trace_json`] serialises them in the
//! Trace Event Format — a `{"traceEvents": [...]}` document of complete
//! (`"ph":"X"`) duration events and (`"ph":"C"`) counter events — which
//! both `chrome://tracing` and <https://ui.perfetto.dev> open directly.
//!
//! Serialisation is deliberately rigid: fields appear in a fixed order
//! (`name`, `cat`, `ph`, `ts`, `dur`, `pid`, `tid`, `args`), one event
//! per line, so the export of a fixed event list is byte-stable and can
//! be golden-file tested (`tests/observability.rs`).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::push_json_str;
use crate::probe::Probe;
use crate::tid::{thread_label, thread_ordinal};

/// One event in a Chrome trace: a completed duration (`dur_us > 0` or
/// `counter == None`) or a counter sample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChromeEvent {
    /// Event name (the probe key, e.g. `phase.check`).
    pub name: String,
    /// Category — the key's first dot-segment (`phase`, `explore`, …).
    pub cat: String,
    /// Start timestamp in microseconds since the trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds; `0` for instantaneous samples.
    pub dur_us: u64,
    /// Emitting thread's [`thread_ordinal`].
    pub tid: u64,
    /// `Some(value)` renders a counter (`"ph":"C"`) event instead of a
    /// duration.
    pub counter: Option<u64>,
}

/// Serialises `events` in Chrome Trace Event Format with a fixed field
/// order — a pure function of its input, so goldens are stable.
pub fn chrome_trace_json(events: &[ChromeEvent]) -> String {
    chrome_trace_json_with_labels(events, &BTreeMap::new())
}

/// [`chrome_trace_json`] plus `"ph": "M"` thread-name metadata events
/// for the labelled tids, so worker lanes render as `worker-<k>` (the
/// stable pool ordinal) instead of raw thread ordinals. With no labels
/// the output is byte-identical to [`chrome_trace_json`].
pub fn chrome_trace_json_with_labels(
    events: &[ChromeEvent],
    labels: &BTreeMap<u64, String>,
) -> String {
    let mut out = String::with_capacity(events.len() * 96 + labels.len() * 80 + 64);
    out.push_str("{\"traceEvents\": [\n");
    let mut first = true;
    for (tid, label) in labels {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "  {{\"name\": \"thread_name\", \"cat\": \"__metadata\", \"ph\": \"M\", \
             \"ts\": 0, \"pid\": 1, \"tid\": {tid}, \"args\": {{\"name\": "
        ));
        push_json_str(&mut out, label);
        out.push_str("}}");
    }
    for ev in events.iter() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("  {\"name\": ");
        push_json_str(&mut out, &ev.name);
        out.push_str(", \"cat\": ");
        push_json_str(&mut out, &ev.cat);
        match ev.counter {
            None => {
                out.push_str(&format!(
                    ", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}",
                    ev.ts_us, ev.dur_us, ev.tid
                ));
            }
            Some(v) => {
                out.push_str(&format!(
                    ", \"ph\": \"C\", \"ts\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{\"value\": {v}}}}}",
                    ev.ts_us, ev.tid
                ));
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

fn category_of(name: &str) -> String {
    name.split('.').next().unwrap_or(name).to_owned()
}

/// A [`Probe`] that materialises every timer sample as a complete
/// duration event (placed at `now − duration`) and every counter update
/// as a running-total counter event, for export via
/// [`chrome_trace_json`]. Span enters/exits are ignored — `Span` already
/// mirrors each exit into `time_ns`, so durations arrive exactly once.
///
/// The buffer is bounded (default one million events); past the cap new
/// events are dropped and counted, so a pathological sweep degrades to a
/// truncated trace instead of unbounded memory.
pub struct ChromeTraceProbe {
    epoch: Instant,
    max_events: usize,
    inner: Mutex<ChromeInner>,
}

#[derive(Default)]
struct ChromeInner {
    events: Vec<ChromeEvent>,
    counter_totals: BTreeMap<String, u64>,
    /// tid -> lane label, captured from [`thread_label`] the first time
    /// a labelled thread emits an event.
    labels: BTreeMap<u64, String>,
    dropped: u64,
}

impl ChromeInner {
    fn note_label(&mut self, tid: u64) {
        if let std::collections::btree_map::Entry::Vacant(slot) = self.labels.entry(tid) {
            if let Some(label) = thread_label() {
                slot.insert(label);
            }
        }
    }
}

impl std::fmt::Debug for ChromeTraceProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChromeTraceProbe")
            .field("max_events", &self.max_events)
            .finish_non_exhaustive()
    }
}

impl Default for ChromeTraceProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeTraceProbe {
    /// A collector with the default event cap.
    pub fn new() -> Self {
        Self::with_max_events(1 << 20)
    }

    /// A collector keeping at most `max_events` events.
    pub fn with_max_events(max_events: usize) -> Self {
        Self {
            epoch: Instant::now(),
            max_events: max_events.max(1),
            inner: Mutex::new(ChromeInner::default()),
        }
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn push(&self, ev: ChromeEvent) {
        let mut inner = self.inner.lock().expect("chrome trace poisoned");
        inner.note_label(ev.tid);
        if inner.events.len() >= self.max_events {
            inner.dropped += 1;
            return;
        }
        inner.events.push(ev);
    }

    /// Snapshot of collected events, in arrival order.
    pub fn events(&self) -> Vec<ChromeEvent> {
        self.inner
            .lock()
            .expect("chrome trace poisoned")
            .events
            .clone()
    }

    /// Events discarded because the buffer cap was hit.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("chrome trace poisoned").dropped
    }

    /// The lane labels captured so far (`tid -> label`).
    pub fn labels(&self) -> BTreeMap<u64, String> {
        self.inner
            .lock()
            .expect("chrome trace poisoned")
            .labels
            .clone()
    }

    /// Serialises the collected events with thread-name metadata for
    /// labelled lanes (`chrome_trace_json_with_labels`).
    pub fn to_json(&self) -> String {
        let (events, labels) = {
            let inner = self.inner.lock().expect("chrome trace poisoned");
            (inner.events.clone(), inner.labels.clone())
        };
        chrome_trace_json_with_labels(&events, &labels)
    }

    /// Writes the trace to `path` atomically.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the atomic write.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        crate::write_atomic(path, &self.to_json())
    }
}

impl Probe for ChromeTraceProbe {
    fn add(&self, name: &str, delta: u64) {
        let ts_us = self.now_us();
        let mut inner = self.inner.lock().expect("chrome trace poisoned");
        inner.note_label(thread_ordinal());
        let total = {
            let slot = inner.counter_totals.entry(name.to_owned()).or_insert(0);
            *slot = slot.saturating_add(delta);
            *slot
        };
        if inner.events.len() >= self.max_events {
            inner.dropped += 1;
            return;
        }
        inner.events.push(ChromeEvent {
            name: name.to_owned(),
            cat: category_of(name),
            ts_us,
            dur_us: 0,
            tid: thread_ordinal(),
            counter: Some(total),
        });
    }

    fn time_ns(&self, name: &str, nanos: u64) {
        let dur_us = nanos / 1_000;
        let now = self.now_us();
        self.push(ChromeEvent {
            name: name.to_owned(),
            cat: category_of(name),
            ts_us: now.saturating_sub(dur_us),
            dur_us,
            tid: thread_ordinal(),
            counter: None,
        });
    }

    fn record(&self, name: &str, value: u64) {
        // Chrome traces have no histogram event; chart the running total
        // of the samples as a counter track instead (and capture the
        // emitting thread's lane label on the way).
        self.add(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialisation_has_fixed_field_order() {
        let events = vec![
            ChromeEvent {
                name: "phase.check".into(),
                cat: "phase".into(),
                ts_us: 10,
                dur_us: 5,
                tid: 1,
                counter: None,
            },
            ChromeEvent {
                name: "explore.runs".into(),
                cat: "explore".into(),
                ts_us: 12,
                dur_us: 0,
                tid: 1,
                counter: Some(3),
            },
        ];
        let json = chrome_trace_json(&events);
        assert_eq!(
            json,
            "{\"traceEvents\": [\n  \
             {\"name\": \"phase.check\", \"cat\": \"phase\", \"ph\": \"X\", \
             \"ts\": 10, \"dur\": 5, \"pid\": 1, \"tid\": 1},\n  \
             {\"name\": \"explore.runs\", \"cat\": \"explore\", \"ph\": \"C\", \
             \"ts\": 12, \"pid\": 1, \"tid\": 1, \"args\": {\"value\": 3}}\n]}\n"
        );
    }

    #[test]
    fn probe_collects_timers_and_counter_totals() {
        let p = ChromeTraceProbe::new();
        p.time_ns("phase.check", 3_000);
        p.add("explore.runs", 1);
        p.add("explore.runs", 2);
        let events = p.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "phase.check");
        assert_eq!(events[0].dur_us, 3);
        assert_eq!(events[0].counter, None);
        assert_eq!(events[1].counter, Some(1), "running total");
        assert_eq!(events[2].counter, Some(3), "running total");
        assert_eq!(events[2].cat, "explore");
        assert_eq!(p.dropped(), 0);
    }

    #[test]
    fn labelled_threads_render_thread_name_metadata() {
        let p = std::sync::Arc::new(ChromeTraceProbe::new());
        let worker = p.clone();
        let tid = std::thread::spawn(move || {
            crate::tid::set_thread_label("worker-0");
            worker.time_ns("phase.explore", 2_000);
            thread_ordinal()
        })
        .join()
        .unwrap();
        assert_eq!(p.labels().get(&tid).map(String::as_str), Some("worker-0"));
        let json = p.to_json();
        assert!(json.contains("\"ph\": \"M\""), "{json}");
        assert!(json.contains("\"name\": \"thread_name\""), "{json}");
        assert!(json.contains("\"name\": \"worker-0\""), "{json}");
        assert!(
            json.contains(&format!(
                "\"tid\": {tid}, \"args\": {{\"name\": \"worker-0\"}}"
            )),
            "{json}"
        );
        crate::json::parse(&json).expect("valid JSON");
        // Without labels the serialisation is unchanged (golden-stable).
        assert_eq!(
            chrome_trace_json(&p.events()),
            chrome_trace_json_with_labels(&p.events(), &BTreeMap::new())
        );
    }

    #[test]
    fn cap_drops_and_counts() {
        let p = ChromeTraceProbe::with_max_events(2);
        for _ in 0..5 {
            p.time_ns("x", 1);
        }
        assert_eq!(p.events().len(), 2);
        assert_eq!(p.dropped(), 3);
    }

    #[test]
    fn span_exits_are_not_double_counted() {
        use crate::probe::Span;
        let p = ChromeTraceProbe::new();
        {
            let _s = Span::enter(&p, "verify");
        }
        assert_eq!(p.events().len(), 1, "one duration event per span");
    }
}
