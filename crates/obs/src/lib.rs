//! # gem-obs — instrumentation for exploration & verification
//!
//! The verification methodology quantifies over *all* schedules of a
//! bounded program; the interleaving explosion is where wall-clock time
//! goes. This crate makes that spend visible without perturbing it:
//!
//! * [`Probe`] — the sink trait: monotonic **counters**, last/max
//!   **gauges**, **timers** (duration histogram summaries), and
//!   hierarchical **spans**. Four implementations:
//!   * [`NoopProbe`] — the zero-cost default. Instrumented code checks
//!     [`Probe::enabled`] before doing any work, so the disabled path is
//!     a virtual call returning a constant (and hot loops batch their
//!     counts, so even that call is per-run, not per-step).
//!   * [`StatsProbe`] — the one aggregator: thread-safe in-memory
//!     counters, gauges, timers and histograms, convertible to a
//!     [`Report`]. Progress lines, metrics snapshots and `gem top` all
//!     read its report.
//!   * [`EventLog`] — the one event log: bounded per-thread buffers of
//!     timestamped events plus open span stacks, rendered as JSON lines
//!     (`--trace`), a Chrome trace (`--trace-out`, [`chrome_trace_json`])
//!     or a flight-recorder crash dump written by a panic hook
//!     ([`install_crash_sink`], `--artifacts`).
//!   * [`FanoutProbe`] — duplicates events to several probes (stats +
//!     event log).
//! * [`Report`] — deterministic JSON (`BTreeMap`-ordered keys) so two
//!   runs of the same workload diff cleanly: only timer values change.
//! * [`heartbeat_line`] — the progress line a long sweep prints, as a
//!   pure function of a report and the elapsed time.
//! * [`Histogram`] — fixed-size log-bucket (power-of-two) histograms
//!   behind [`Probe::record`], with p50/p90/p99/max summaries in the
//!   report's `hists` section.
//! * [`Series`] — a bounded ring of periodic counter/gauge snapshots,
//!   exported as a `metrics.json` time-series and an OpenMetrics text
//!   endpoint-file ([`render_openmetrics`] / [`lint_openmetrics`], CLI
//!   `--metrics-out`).
//! * [`estimate`] — the Knuth weighted-backtrack estimate of the
//!   run-tree size, fed by sampled runs.
//! * [`profile`] — per-phase wall-time attribution ([`PhaseProfile`])
//!   and reduction cost/benefit verdicts ([`explain`]) over a report.
//! * [`ambient`] — a thread-local probe slot for layers too deep to
//!   thread a probe argument through (formula evaluation, closure
//!   construction, history materialization). Inactive cost is one atomic
//!   load.
//! * [`json`] — serde-free JSON emission + parsing used by reports and
//!   forensic artifacts, and the stable word digest golden rows pin
//!   ([`fingerprint_words`]).
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
mod event_log;
mod fsio;
mod heartbeat;
mod hist;
pub mod json;
mod openmetrics;
mod probe;
pub mod profile;
mod report;
mod series;
mod tid;

pub use chrome::{chrome_trace_json, ChromeEvent};
pub use estimate::KnuthEstimator;
pub use event_log::{
    clear_crash_sink, install_crash_sink, EventKind, EventLog, LogEvent, ThreadDump, CRASH_TAIL,
};
pub use fsio::write_atomic;
pub use heartbeat::heartbeat_line;
pub use hist::{Histogram, HIST_BUCKETS};
pub use json::fingerprint_words;
pub use openmetrics::{lint_openmetrics, render_openmetrics, OpenMetricsSummary};
pub use probe::{FanoutProbe, NoopProbe, Probe, Span, StatsProbe};
pub use profile::{explain, PhaseProfile, PhaseRow};
pub use report::{Report, TimerStat};
pub use series::{series_json, Series, SeriesSnapshot};
pub use tid::thread_ordinal;
