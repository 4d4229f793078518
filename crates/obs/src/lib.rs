//! # gem-obs — instrumentation for exploration & verification
//!
//! The verification methodology quantifies over *all* schedules of a
//! bounded program; the interleaving explosion is where wall-clock time
//! goes. This crate makes that spend visible without perturbing it:
//!
//! * [`Probe`] — the sink trait: monotonic **counters**, last/max
//!   **gauges**, **timers** (duration histogram summaries), and
//!   hierarchical **spans**.
//! * [`NoopProbe`] — the zero-cost default. Instrumented code checks
//!   [`Probe::enabled`] before doing any work, so the disabled path is a
//!   virtual call returning a constant (and hot loops batch their counts,
//!   so even that call is per-run, not per-step).
//! * [`StatsProbe`] — thread-safe in-memory aggregation, convertible to a
//!   [`Report`].
//! * [`TraceProbe`] — appends JSONL events (span enter/exit, counter
//!   batches) to a writer, for offline timeline reconstruction.
//! * [`FanoutProbe`] — duplicates events to several probes (stats +
//!   trace + heartbeat).
//! * [`HeartbeatProbe`] — prints a progress line to stderr at a bounded
//!   rate, keyed on run-counter increments, so exhaustive sweeps are not
//!   silent.
//! * [`Report`] — deterministic JSON (`BTreeMap`-ordered keys) so two
//!   runs of the same workload diff cleanly: only timer values change.
//! * [`ChromeTraceProbe`] — collects timestamped duration/counter events
//!   for Chrome-trace (`chrome://tracing` / Perfetto) export
//!   (`--trace-out`).
//! * [`Histogram`] — fixed-size log-bucket (power-of-two) histograms
//!   behind [`Probe::record`], with p50/p90/p99/max summaries in the
//!   report's `hists` section.
//! * [`SeriesProbe`] — periodic counter/gauge snapshots into a bounded
//!   ring, exported as a `metrics.json` time-series and an OpenMetrics
//!   text endpoint-file ([`render_openmetrics`] / [`lint_openmetrics`],
//!   CLI `--metrics-out`).
//! * [`estimate`] — search-space estimators: Knuth weighted-backtrack
//!   run-tree size and Chapman capture-recapture distinct-computation
//!   counts, fed by sampled runs.
//! * [`profile`] — per-phase wall-time attribution ([`PhaseProfile`])
//!   and reduction cost/benefit verdicts ([`explain`]) over a report.
//! * [`RecorderProbe`] — a flight recorder: bounded per-thread rings of
//!   recent events plus span stacks, dumped to a crash artifact by a
//!   panic hook ([`install_crash_sink`]) so sweeps that die mid-flight
//!   stay diagnosable.
//! * [`ambient`] — a thread-local probe slot for layers too deep to
//!   thread a probe argument through (formula evaluation, closure
//!   construction, history materialization). Inactive cost is one atomic
//!   load.
//! * [`json`] — serde-free JSON emission + parsing used by reports and
//!   forensic artifacts.
//! * [`write_atomic`] — temp-file + rename emission so CI never reads a
//!   half-written report.
//!
//! Counter names are dot-separated paths (`explore.runs`,
//! `restriction.<name>.evals`); see `docs/OBSERVABILITY.md` for the
//! vocabulary the other crates emit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ambient;
mod chrome;
pub mod estimate;
mod fsio;
mod heartbeat;
mod hist;
pub mod json;
mod openmetrics;
mod probe;
pub mod profile;
mod recorder;
mod report;
mod series;
mod tid;

pub use chrome::{chrome_trace_json, ChromeEvent, ChromeTraceProbe};
pub use estimate::{chapman_estimate, fingerprint_words, CollapseEstimator, KnuthEstimator};
pub use fsio::write_atomic;
pub use heartbeat::HeartbeatProbe;
pub use hist::{Histogram, HIST_BUCKETS};
pub use openmetrics::{lint_openmetrics, render_openmetrics, OpenMetricsSummary};
pub use probe::{FanoutProbe, NoopProbe, Probe, Span, StatsProbe, TraceProbe};
pub use profile::{explain, PhaseProfile, PhaseRow};
pub use recorder::{
    clear_crash_sink, install_crash_sink, RecordedEvent, RecorderProbe, ThreadDump,
};
pub use report::{Report, TimerStat};
pub use series::{series_json, SeriesProbe, SeriesSnapshot};
pub use tid::{set_thread_label, thread_label, thread_ordinal};
