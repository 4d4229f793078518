//! The event log: every probe event of a command, kept in bounded
//! per-thread buffers and rendered three ways — JSON lines (`--trace`),
//! a Chrome trace (`--trace-out`) and a flight-recorder crash dump
//! (`--artifacts`).
//!
//! A sweep that dies at run 40 000 is otherwise undiagnosable: stats are
//! aggregated away. The log keeps each thread's most recent events plus its
//! open span stack, so the crash dump shows what every thread was doing at
//! the moment of death, and the same buffers, merged by sequence number,
//! are the timeline the two trace formats export.
//!
//! ## Contention model
//!
//! Each thread records into its own buffer; the buffer is found through
//! a thread-local cache, so the shared registry mutex is touched only on
//! a thread's *first* event. The per-buffer mutex is uncontended in
//! steady state (only the owning thread locks it; a dump locks buffers
//! one at a time), so the hot path is: one thread-local read, one
//! uncontended lock, one `VecDeque` push. A full buffer drops its oldest
//! event and reuses that event's key allocation. The crate forbids
//! `unsafe`, which rules out a true atomic ring buffer; an uncontended
//! `Mutex` lock is a single CAS.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::Instant;

use crate::chrome::{chrome_trace_json, ChromeEvent};
use crate::json::push_json_str;
use crate::probe::Probe;
use crate::tid::thread_ordinal;

/// Events per thread a crash dump shows: the flight-recorder tail.
pub const CRASH_TAIL: usize = 256;

static NEXT_LOG_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread cache mapping log id -> this thread's buffer.
    static BUFFER_CACHE: RefCell<Vec<(u64, Arc<ThreadBuffer>)>> = const { RefCell::new(Vec::new()) };
}

/// Which [`Probe`] method an event came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// [`Probe::add`]; the value is the delta.
    Count,
    /// [`Probe::gauge_set`].
    Gauge,
    /// [`Probe::gauge_max`].
    GaugeMax,
    /// [`Probe::time_ns`]; the value is nanoseconds.
    Time,
    /// [`Probe::record`]; the value is the sample.
    Record,
    /// [`Probe::span_enter`]; the value is 0.
    Enter,
    /// [`Probe::span_exit`]; the value is nanoseconds inside the span.
    Exit,
}

impl EventKind {
    /// The kind's name in the JSON-lines trace (`ev`). The crash dump
    /// names the same kinds, except that it calls a count `count`.
    pub fn name(self) -> &'static str {
        match self {
            Self::Count => "counter",
            Self::Gauge => "gauge",
            Self::GaugeMax => "gauge_max",
            Self::Time => "time",
            Self::Record => "record",
            Self::Enter => "enter",
            Self::Exit => "exit",
        }
    }
}

/// One probe event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEvent {
    /// Sequence number across all threads of one log: the timeline order.
    pub seq: u64,
    /// Microseconds since the log was created.
    pub ts_us: u64,
    /// The emitting thread's [`thread_ordinal`].
    pub tid: u64,
    /// Which probe method recorded it.
    pub kind: EventKind,
    /// The counter, gauge, timer, histogram or span name.
    pub key: String,
    /// Delta, value, sample or nanoseconds (0 for [`EventKind::Enter`]).
    pub value: u64,
}

#[derive(Debug, Default)]
struct BufferState {
    events: VecDeque<LogEvent>,
    spans: Vec<String>,
    dropped: u64,
}

#[derive(Debug)]
struct ThreadBuffer {
    tid: u64,
    state: Mutex<BufferState>,
}

/// Everything one thread has in the log.
#[derive(Clone, Debug)]
pub struct ThreadDump {
    /// The thread's [`thread_ordinal`].
    pub tid: u64,
    /// Currently open spans, outermost first.
    pub spans: Vec<String>,
    /// The thread's retained events, oldest first.
    pub events: Vec<LogEvent>,
    /// Older events the full buffer dropped.
    pub dropped: u64,
}

/// The one event-keeping [`Probe`]: the newest `capacity` events of each
/// thread, plus each thread's open span stack.
///
/// Pair with [`install_crash_sink`] to get a `crash.json` when a panic
/// escapes the sweep.
pub struct EventLog {
    id: u64,
    capacity: usize,
    epoch: Instant,
    seq: AtomicU64,
    registry: Mutex<Vec<Arc<ThreadBuffer>>>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl EventLog {
    /// A log keeping the most recent `capacity` events per thread
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            id: NEXT_LOG_ID.fetch_add(1, Ordering::Relaxed),
            capacity: capacity.max(1),
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            registry: Mutex::new(Vec::new()),
        }
    }

    fn buffer(&self) -> Arc<ThreadBuffer> {
        BUFFER_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, buffer)) = cache.iter().find(|(id, _)| *id == self.id) {
                return buffer.clone();
            }
            let buffer = Arc::new(ThreadBuffer {
                tid: thread_ordinal(),
                state: Mutex::new(BufferState::default()),
            });
            self.registry
                .lock()
                .expect("event log registry poisoned")
                .push(buffer.clone());
            cache.push((self.id, buffer.clone()));
            buffer
        })
    }

    fn push(&self, kind: EventKind, key: &str, value: u64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ts_us = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        let buffer = self.buffer();
        let mut state = buffer.state.lock().expect("event log buffer poisoned");
        let mut name = String::new();
        if state.events.len() == self.capacity {
            if let Some(oldest) = state.events.pop_front() {
                name = oldest.key;
                name.clear();
            }
            state.dropped += 1;
        }
        name.push_str(key);
        match kind {
            EventKind::Enter => state.spans.push(key.to_owned()),
            EventKind::Exit if state.spans.last().map(String::as_str) == Some(key) => {
                state.spans.pop();
            }
            _ => {}
        }
        state.events.push_back(LogEvent {
            seq,
            ts_us,
            tid: buffer.tid,
            kind,
            key: name,
            value,
        });
    }

    /// Snapshot of every thread's buffer and span stack, sorted by
    /// thread ordinal. Callable from any thread (including a panic hook).
    pub fn dump(&self) -> Vec<ThreadDump> {
        let registry = self.registry.lock().expect("event log registry poisoned");
        let mut dumps: Vec<ThreadDump> = registry
            .iter()
            .map(|buffer| {
                let state = buffer.state.lock().expect("event log buffer poisoned");
                ThreadDump {
                    tid: buffer.tid,
                    spans: state.spans.clone(),
                    events: state.events.iter().cloned().collect(),
                    dropped: state.dropped,
                }
            })
            .collect();
        dumps.sort_by_key(|d| d.tid);
        dumps
    }

    /// Every retained event of every thread, in sequence order.
    pub fn events(&self) -> Vec<LogEvent> {
        let mut events: Vec<LogEvent> = self.dump().into_iter().flat_map(|d| d.events).collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Events dropped because a thread's buffer was full.
    pub fn dropped(&self) -> u64 {
        let registry = self.registry.lock().expect("event log registry poisoned");
        registry
            .iter()
            .map(|b| b.state.lock().expect("event log buffer poisoned").dropped)
            .sum()
    }

    /// The `--trace` rendering: one JSON object per event, in sequence
    /// order —
    /// `{"us":<ts>,"tid":<thread>,"ev":"counter","k":"explore.runs","v":1}`,
    /// with `ns` instead of `v` for `time` and `exit`, and no value for
    /// `enter`.
    pub fn to_jsonl(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 64);
        for e in &events {
            out.push_str(&format!(
                "{{\"us\":{},\"tid\":{},\"ev\":\"{}\",\"k\":",
                e.ts_us,
                e.tid,
                e.kind.name()
            ));
            push_json_str(&mut out, &e.key);
            match e.kind {
                EventKind::Enter => {}
                EventKind::Time | EventKind::Exit => out.push_str(&format!(",\"ns\":{}", e.value)),
                _ => out.push_str(&format!(",\"v\":{}", e.value)),
            }
            out.push_str("}\n");
        }
        out
    }

    /// The `--trace-out` events: every timer sample as a complete
    /// duration event ending at its timestamp, and every counter add or
    /// histogram sample as a running total of that key's retained events
    /// (Chrome traces have no histogram event). Gauges and span
    /// enters/exits are left out: a span's exit arrives again as its
    /// timer sample.
    pub fn chrome_events(&self) -> Vec<ChromeEvent> {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        let mut out = Vec::new();
        for e in self.events() {
            let cat = e.key.split('.').next().unwrap_or(&e.key).to_owned();
            match e.kind {
                EventKind::Time => {
                    let dur_us = e.value / 1_000;
                    out.push(ChromeEvent {
                        ts_us: e.ts_us.saturating_sub(dur_us),
                        dur_us,
                        tid: e.tid,
                        counter: None,
                        cat,
                        name: e.key,
                    });
                }
                EventKind::Count | EventKind::Record => {
                    let total = totals.entry(e.key.clone()).or_insert(0);
                    *total = total.saturating_add(e.value);
                    out.push(ChromeEvent {
                        ts_us: e.ts_us,
                        dur_us: 0,
                        tid: e.tid,
                        counter: Some(*total),
                        cat,
                        name: e.key,
                    });
                }
                _ => {}
            }
        }
        out
    }

    /// The `--trace-out` rendering of [`EventLog::chrome_events`].
    pub fn to_chrome_json(&self) -> String {
        chrome_trace_json(&self.chrome_events())
    }

    /// The crash-dump rendering: each thread's span stack and its last
    /// [`CRASH_TAIL`] events (fewer when the log keeps fewer), optionally
    /// annotated with the panic message and location.
    pub fn crash_json(&self, panic_note: Option<(&str, &str)>) -> String {
        let tail = self.capacity.min(CRASH_TAIL);
        let quoted = |s: &str| {
            let mut q = String::new();
            push_json_str(&mut q, s);
            q
        };
        let mut out = String::from("{\n  \"kind\": \"flight_recorder\",\n  ");
        if let Some((message, location)) = panic_note {
            out.push_str(&format!(
                "\"panic\": {{\"message\": {}, \"location\": {}}},\n  ",
                quoted(message),
                quoted(location)
            ));
        }
        out.push_str(&format!(
            "\"capacity_per_thread\": {tail},\n  \"threads\": ["
        ));
        let threads: Vec<String> = self
            .dump()
            .iter()
            .map(|d| {
                let spans: Vec<String> = d.spans.iter().map(|s| quoted(s)).collect();
                let events: Vec<String> = d.events[d.events.len().saturating_sub(tail)..]
                    .iter()
                    .map(|e| {
                        let kind = match e.kind {
                            EventKind::Count => "count",
                            other => other.name(),
                        };
                        format!(
                            "\n      {{\"seq\": {}, \"kind\": \"{kind}\", \"k\": {}, \"v\": {}}}",
                            e.seq,
                            quoted(&e.key),
                            e.value
                        )
                    })
                    .collect();
                let close = if events.is_empty() { "" } else { "\n    " };
                format!(
                    "\n    {{\"tid\": {}, \"span_stack\": [{}], \"events\": [{}{close}]}}",
                    d.tid,
                    spans.join(", "),
                    events.join(",")
                )
            })
            .collect();
        out.push_str(&threads.join(","));
        if !threads.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

impl Probe for EventLog {
    fn add(&self, name: &str, delta: u64) {
        self.push(EventKind::Count, name, delta);
    }

    fn gauge_set(&self, name: &str, value: u64) {
        self.push(EventKind::Gauge, name, value);
    }

    fn gauge_max(&self, name: &str, value: u64) {
        self.push(EventKind::GaugeMax, name, value);
    }

    fn time_ns(&self, name: &str, nanos: u64) {
        self.push(EventKind::Time, name, nanos);
    }

    fn record(&self, name: &str, value: u64) {
        self.push(EventKind::Record, name, value);
    }

    fn span_enter(&self, name: &str) {
        self.push(EventKind::Enter, name, 0);
    }

    fn span_exit(&self, name: &str, nanos: u64) {
        self.push(EventKind::Exit, name, nanos);
    }
}

/// The log + target path the process-wide panic hook writes to.
static CRASH_SINK: Mutex<Option<(Arc<EventLog>, PathBuf)>> = Mutex::new(None);
static HOOK_INSTALL: Once = Once::new();

/// Arms the process-wide panic hook to write `log`'s crash dump to
/// `path` (atomically) when a panic occurs. The hook chains to the
/// previously installed hook, so normal panic reporting is unaffected.
///
/// The hook itself is installed once per process; calling this again
/// retargets it at a different log/path (last call wins).
pub fn install_crash_sink(log: Arc<EventLog>, path: PathBuf) {
    *CRASH_SINK.lock().expect("crash sink poisoned") = Some((log, path));
    HOOK_INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Ignore a poisoned sink: a panic while holding the sink
            // lock must not abort via a double panic.
            if let Ok(sink) = CRASH_SINK.lock() {
                if let Some((log, path)) = sink.as_ref() {
                    let message = if let Some(s) = info.payload().downcast_ref::<&str>() {
                        (*s).to_owned()
                    } else if let Some(s) = info.payload().downcast_ref::<String>() {
                        s.clone()
                    } else {
                        "<non-string panic payload>".to_owned()
                    };
                    let location = info
                        .location()
                        .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()))
                        .unwrap_or_else(|| "<unknown>".to_owned());
                    let json = log.crash_json(Some((&message, &location)));
                    let _ = crate::fsio::write_atomic(path, &json);
                }
            }
            previous(info);
        }));
    });
}

/// Disarms the crash sink (the hook stays installed but writes nothing).
pub fn clear_crash_sink() {
    *CRASH_SINK.lock().expect("crash sink poisoned") = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Span;

    fn mine(log: &EventLog) -> ThreadDump {
        log.dump()
            .into_iter()
            .find(|d| d.tid == thread_ordinal())
            .expect("own thread present")
    }

    #[test]
    fn buffer_keeps_last_n_and_span_stack() {
        let log = EventLog::new(3);
        for i in 0..10 {
            log.add("explore.runs", i);
        }
        log.span_enter("verify.run");
        log.span_enter("spec.check");
        let d = mine(&log);
        assert_eq!(d.events.len(), 3, "capacity bound");
        assert_eq!(d.dropped, 9);
        assert_eq!(log.dropped(), 9);
        assert_eq!(d.spans, vec!["verify.run", "spec.check"]);
        // Oldest-first and contiguous at the tail of the stream.
        let seqs: Vec<u64> = d.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![9, 10, 11]);
        assert_eq!(d.events[0].key, "explore.runs", "reused key rewritten");
        log.span_exit("spec.check", 5);
        assert_eq!(mine(&log).spans, vec!["verify.run"]);
    }

    #[test]
    fn records_per_thread() {
        let log = Arc::new(EventLog::new(8));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                let _s = Span::enter(log.as_ref(), "worker");
                log.add("explore.steps", 1);
                thread_ordinal()
            }));
        }
        let tids: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let dumps = log.dump();
        for tid in tids {
            let d = dumps.iter().find(|d| d.tid == tid).expect("worker buffer");
            assert!(d.events.iter().any(|e| e.key == "explore.steps"));
            assert!(d.spans.is_empty(), "span exited before join");
        }
    }

    #[test]
    fn jsonl_has_one_line_per_event() {
        let log = EventLog::new(16);
        log.add("explore.runs", 1);
        {
            let _s = Span::enter(&log, "verify");
        }
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "counter + enter + exit + time: {text}");
        let tid_field = format!("\"tid\":{}", thread_ordinal());
        assert!(lines.iter().all(|l| l.contains(&tid_field)), "{text}");
        assert!(lines[0].starts_with("{\"us\":"), "{text}");
        assert!(
            lines[0].ends_with(",\"ev\":\"counter\",\"k\":\"explore.runs\",\"v\":1}"),
            "{text}"
        );
        assert!(
            lines[1].ends_with(",\"ev\":\"enter\",\"k\":\"verify\"}"),
            "{text}"
        );
        assert!(
            lines[2].contains("\"ev\":\"exit\",\"k\":\"verify\",\"ns\":"),
            "{text}"
        );
        assert!(
            lines[3].contains("\"ev\":\"time\",\"k\":\"verify\",\"ns\":"),
            "{text}"
        );
        for l in &lines {
            crate::json::parse(l).expect("each line is JSON");
        }
    }

    #[test]
    fn chrome_events_are_timers_and_running_totals() {
        let log = EventLog::new(16);
        log.time_ns("phase.check", 3_000);
        log.add("explore.runs", 1);
        log.gauge_set("estimate.total_runs", 9);
        log.add("explore.runs", 2);
        {
            let _s = Span::enter(&log, "verify");
        }
        let events = log.chrome_events();
        assert_eq!(events.len(), 4, "one duration per span, no gauges");
        assert_eq!(events[0].name, "phase.check");
        assert_eq!(events[0].dur_us, 3);
        assert_eq!(events[0].counter, None);
        assert_eq!(events[1].counter, Some(1), "running total");
        assert_eq!(events[2].counter, Some(3), "running total");
        assert_eq!(events[2].cat, "explore");
        assert_eq!(events[3].name, "verify");
    }

    #[test]
    fn crash_json_is_parseable_and_shows_the_tail() {
        let log = EventLog::new(4);
        log.add("a.b", 2);
        log.span_enter("s");
        let json = log.crash_json(Some(("boom", "src/lib.rs:1:1")));
        let v = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(
            v.get("panic").unwrap().get("message").unwrap().as_str(),
            Some("boom")
        );
        assert_eq!(v.get("capacity_per_thread").unwrap().as_u64(), Some(4));
        let threads = v.get("threads").unwrap().as_arr().unwrap();
        let t0 = threads
            .iter()
            .find(|t| t.get("tid").unwrap().as_u64() == Some(thread_ordinal()))
            .expect("recording thread present");
        let events = t0.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("count"));
        assert_eq!(events[0].get("k").unwrap().as_str(), Some("a.b"));
        let spans = t0.get("span_stack").unwrap().as_arr().unwrap();
        assert_eq!(spans[0].as_str(), Some("s"));
        // A trace-sized log still dumps only the recorder tail.
        let big = EventLog::new(CRASH_TAIL * 2);
        for _ in 0..CRASH_TAIL + 5 {
            big.add("n", 1);
        }
        let v = crate::json::parse(&big.crash_json(None)).unwrap();
        let t = &v.get("threads").unwrap().as_arr().unwrap()[0];
        assert_eq!(t.get("events").unwrap().as_arr().unwrap().len(), CRASH_TAIL);
    }

    #[test]
    fn crash_json_layout_is_fixed() {
        let log = EventLog::new(8);
        log.add("a.b", 2);
        log.span_enter("s \"q\"");
        log.time_ns("t", 7);
        let tid = thread_ordinal();
        assert_eq!(
            log.crash_json(Some(("boom", "x.rs:1:2"))),
            format!(
                "{{\n  \"kind\": \"flight_recorder\",\n  \
                 \"panic\": {{\"message\": \"boom\", \"location\": \"x.rs:1:2\"}},\n  \
                 \"capacity_per_thread\": 8,\n  \"threads\": [\n    \
                 {{\"tid\": {tid}, \"span_stack\": [\"s \\\"q\\\"\"], \"events\": [\n      \
                 {{\"seq\": 0, \"kind\": \"count\", \"k\": \"a.b\", \"v\": 2}},\n      \
                 {{\"seq\": 1, \"kind\": \"enter\", \"k\": \"s \\\"q\\\"\", \"v\": 0}},\n      \
                 {{\"seq\": 2, \"kind\": \"time\", \"k\": \"t\", \"v\": 7}}\n    ]}}\n  ]\n}}\n"
            )
        );
        assert_eq!(
            EventLog::new(1).crash_json(None),
            "{\n  \"kind\": \"flight_recorder\",\n  \"capacity_per_thread\": 1,\n  \"threads\": []\n}\n"
        );
    }
}
