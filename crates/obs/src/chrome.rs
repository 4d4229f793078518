//! Chrome-trace (`chrome://tracing` / Perfetto) export.
//!
//! [`crate::EventLog::chrome_events`] turns the logged timer samples and
//! counter updates into [`ChromeEvent`]s; [`chrome_trace_json`]
//! serialises them in the Trace Event Format — a `{"traceEvents": [...]}` document of complete
//! (`"ph":"X"`) duration events and (`"ph":"C"`) counter events — which
//! both `chrome://tracing` and <https://ui.perfetto.dev> open directly.
//!
//! Serialisation is deliberately rigid: fields appear in a fixed order
//! (`name`, `cat`, `ph`, `ts`, `dur`, `pid`, `tid`, `args`), one event
//! per line, so the export of a fixed event list is byte-stable and can
//! be golden-file tested (`tests/observability.rs`).

use crate::json::push_json_str;

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
    /// Emitting thread's [`crate::thread_ordinal`].
    pub tid: u64,
    /// `Some(value)` renders a counter (`"ph":"C"`) event instead of a
    /// duration.
    pub counter: Option<u64>,
}

/// Serialises `events` in Chrome Trace Event Format with a fixed field
/// order — a pure function of its input, so goldens are stable.
pub fn chrome_trace_json(events: &[ChromeEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\": [\n");
    let mut first = true;
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
}
