//! # gem-cli — command-line interface to the GEM reproduction
//!
//! ```text
//! gem render <problem>           print the specification in paper notation
//! gem verify <problem>           run PROG sat P over all schedules
//! gem explore <problem>          count schedules / deadlocks
//! gem profile <problem>          verify + phase-attribution table + verdicts
//! gem top <problem>              verify with a live sweep dashboard on stderr
//! gem dot <problem>              emit one schedule's computation as Graphviz
//! gem list                       list the available problems
//! gem replay <dir>               reproduce a recorded counterexample artifact
//! gem metrics-lint <file>        validate an OpenMetrics exposition file
//! ```
//!
//! Problems (with optional `key=value` parameters after the name):
//!
//! | name | parameters (defaults) |
//! |------|------------------------|
//! | `one-slot` | `items=3` |
//! | `bounded` | `items=4 cap=2 substrate=monitor\|csp\|ada` |
//! | `rw` | `readers=1 writers=2 variant=mutex\|readers\|writers\|fcfs\|progress monitor=readers\|writers\|mesa-safe semantics=hoare\|mesa data=false` |
//! | `db-update` | `clients=3 sites=2` |
//! | `life` | `grid=block\|blinker gens=2` |
//! | `philosophers` | `n=3 meals=1 order=naive\|asymmetric` |
//!
//! Observability flags (accepted anywhere on the command line, either
//! `--flag value` or `--flag=value`; see `docs/OBSERVABILITY.md`):
//!
//! * `--stats` — print a counter/timer table to stderr after the command
//! * `--stats-json <path>` — write the same report as deterministic JSON
//! * `--trace <path>` — write every probe event as JSONL when the
//!   command finishes
//! * `--heartbeat <secs>` — progress line cadence on stderr (default 5;
//!   0 disables)
//! * `--por` — sleep-set partial-order reduction (one schedule per
//!   computation, same verdict)
//! * `--artifacts <dir>` — on `verify`, dump the first failing or
//!   deadlocked run as a self-contained counterexample artifact directory
//!   (schedule, computation, blame, highlighted dot), and arm a flight
//!   recorder that dumps `<dir>/crash.json` (the last 256 probe events
//!   of each thread) if the process panics
//! * `--trace-out <path>` — write a Chrome-trace (`chrome://tracing` /
//!   Perfetto) JSON of timer spans and counter totals
//! * `--metrics-out <path>` — sample cumulative counters/gauges once a
//!   second during the sweep and write an OpenMetrics text exposition
//!   (plus a `<path>.json` time-series) when the command finishes
//! * `--explain` — append reduction cost/benefit verdicts (POR
//!   attribution, incremental-check coverage) after the command output
//!
//! The command dispatch lives in this library so it can be tested; the
//! `gem` binary is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::Write;
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gem_core::Computation;
use gem_lang::ada::AdaSystem;
use gem_lang::csp::CspSystem;
use gem_lang::monitor::{readers_writers_monitor, MonitorSystem, SignalSemantics};
use gem_lang::{CodeStats, Explorer, System};
use gem_logic::incr::compile;
use gem_obs::json::JsonValue;
use gem_obs::{
    heartbeat_line, install_crash_sink, write_atomic, EventLog, FanoutProbe, KnuthEstimator,
    NoopProbe, PhaseProfile, Probe, Series, Span, StatsProbe, CRASH_TAIL,
};
use gem_problems::readers_writers::{
    mesa_safe_readers_writers_monitor, rw_correspondence, rw_program_with_semantics,
    rw_rounds_program, rw_spec, writers_priority_monitor, RwVariant,
};
use gem_problems::{bounded, db_update, life, one_slot};
use gem_spec::{render_specification, Specification};
use gem_verify::{
    check_computation, verify_system, ArtifactSink, Correspondence, RunFailure, VerifyOptions,
    VerifyOutcome,
};

/// A CLI usage or execution error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parsed `key=value` parameters. Every lookup records its key, so a
/// parameter nothing asked for can be reported instead of ignored.
#[derive(Clone, Debug, Default)]
pub struct Params {
    values: BTreeMap<String, String>,
    asked: RefCell<BTreeSet<String>>,
}

impl Params {
    /// Parses trailing `key=value` arguments.
    ///
    /// # Errors
    ///
    /// Returns an error for arguments without `=` and for a key given
    /// twice.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut values = BTreeMap::new();
        for a in args {
            let (k, v) = a
                .split_once('=')
                .ok_or_else(|| err(format!("expected key=value, got {a:?}")))?;
            if values.insert(k.to_owned(), v.to_owned()).is_some() {
                return Err(err(format!("parameter {k} given more than once")));
            }
        }
        Ok(Self {
            values,
            asked: RefCell::default(),
        })
    }

    fn get(&self, key: &str) -> Option<&String> {
        self.asked.borrow_mut().insert(key.to_owned());
        self.values.get(key)
    }

    fn parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        what: &str,
    ) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("{key} must be {what}, got {v:?}"))),
        }
    }

    fn usize(&self, key: &str, default: usize) -> Result<usize, CliError> {
        self.parsed(key, default, "a number")
    }

    /// A number no smaller than `min`, the least the problem is built for.
    fn usize_min(&self, key: &str, default: usize, min: usize) -> Result<usize, CliError> {
        let n = self.usize(key, default)?;
        if n < min {
            return Err(err(format!("{key} must be at least {min}, got {n}")));
        }
        Ok(n)
    }

    fn str<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).map(String::as_str).unwrap_or(default)
    }

    fn bool(&self, key: &str, default: bool) -> Result<bool, CliError> {
        self.parsed(key, default, "true/false")
    }

    /// Fails on the first parameter no lookup asked for: a misspelled or
    /// inapplicable key would otherwise silently run the default.
    fn reject_unasked(&self, problem: &str) -> Result<(), CliError> {
        let asked = self.asked.borrow();
        match self.values.iter().find(|(k, _)| !asked.contains(*k)) {
            None => Ok(()),
            Some((k, v)) => Err(err(format!(
                "unknown parameter {k}={v} for {problem}; it takes {}",
                asked.iter().cloned().collect::<Vec<_>>().join(", ")
            ))),
        }
    }
}

/// The program of a problem instance, on one of the three substrates.
#[allow(clippy::large_enum_variant)] // one short-lived instance per invocation
pub enum Program {
    /// A monitor program.
    Monitor(MonitorSystem),
    /// A CSP program.
    Csp(CspSystem),
    /// An ADA tasking program.
    Ada(AdaSystem),
}

/// A problem instance: the program, its problem specification, the
/// correspondence between their events, and the sweep's run bound.
pub struct Instance {
    /// The program under verification.
    pub program: Program,
    /// The problem specification.
    pub spec: Specification,
    /// Program events ↦ problem events.
    pub corr: Correspondence,
    /// Sweeps stop after this many runs.
    pub max_runs: usize,
}

/// The run bound of every sweep whose problem does not set its own.
const MAX_RUNS: usize = 1_000_000;

/// A substrate simulator as the commands drive it. Implemented once for
/// each of the three simulators, so every command is written once.
trait Substrate: System {
    /// Seals the computation accumulated in `state`.
    fn seal(&self, state: &Self::State) -> Computation;
    /// What compiling the program at system build produced.
    fn code_stats(&self) -> CodeStats;
}

macro_rules! substrate {
    ($($t:ty),*) => {$(
        impl Substrate for $t {
            fn seal(&self, state: &Self::State) -> Computation {
                // Cannot fire: the simulators only add edges into the
                // newest event, so a sealed trace cannot contain a cycle.
                self.computation(state).expect("simulator traces are acyclic")
            }

            fn code_stats(&self) -> CodeStats {
                <$t>::code_stats(self)
            }
        }
    )*};
}
substrate!(MonitorSystem, CspSystem, AdaSystem);

fn parse_rw_variant(s: &str) -> Result<RwVariant, CliError> {
    Ok(match s {
        "mutex" => RwVariant::MutexOnly,
        "readers" => RwVariant::ReadersPriority,
        "writers" => RwVariant::WritersPriority,
        "fcfs" => RwVariant::Fcfs,
        "progress" => RwVariant::Progress,
        other => return Err(err(format!("unknown variant {other:?}"))),
    })
}

/// Builds `problem` with parameters `p`, as every command does.
///
/// # Errors
///
/// Returns [`CliError`] for an unknown problem, a bad parameter, or a
/// parameter the problem does not take.
pub fn instance(problem: &str, p: &Params) -> Result<Instance, CliError> {
    let unknown_substrate = |other: &str| err(format!("unknown substrate {other:?}"));
    let mut max_runs = MAX_RUNS;
    let (program, spec, corr) = match problem {
        "one-slot" => {
            let n = p.usize("items", 3)?;
            let items: Vec<i64> = (1..=n as i64).map(|i| i * 10).collect();
            let spec = one_slot::one_slot_spec();
            match p.str("substrate", "monitor") {
                "monitor" => {
                    let sys = one_slot::monitor_solution(&items);
                    let corr = one_slot::monitor_correspondence(&sys, &spec);
                    (Program::Monitor(sys), spec, corr)
                }
                "csp" => {
                    let sys = one_slot::csp_solution(&items);
                    let corr = one_slot::csp_correspondence(&sys, &spec);
                    (Program::Csp(sys), spec, corr)
                }
                "ada" => {
                    let sys = one_slot::ada_solution(&items);
                    let corr = one_slot::ada_correspondence(&sys, &spec);
                    (Program::Ada(sys), spec, corr)
                }
                other => return Err(unknown_substrate(other)),
            }
        }
        "bounded" => {
            let n = p.usize("items", 4)?;
            let cap = p.usize_min("cap", 2, 1)?;
            let items: Vec<i64> = (1..=n as i64).collect();
            let spec = bounded::bounded_spec(items.len(), cap);
            match p.str("substrate", "monitor") {
                "monitor" => {
                    let sys = bounded::monitor_solution(&items, cap);
                    let corr = bounded::monitor_correspondence(&sys, &spec, cap);
                    (Program::Monitor(sys), spec, corr)
                }
                "csp" => {
                    let sys = bounded::csp_solution(&items, cap);
                    let corr = bounded::csp_correspondence(&sys, &spec, cap);
                    (Program::Csp(sys), spec, corr)
                }
                "ada" => {
                    let sys = bounded::ada_solution(&items, cap);
                    let corr = bounded::ada_correspondence(&sys, &spec, cap);
                    (Program::Ada(sys), spec, corr)
                }
                other => return Err(unknown_substrate(other)),
            }
        }
        "rw" => {
            let readers = p.usize("readers", 1)?;
            let writers = p.usize("writers", 2)?;
            let rounds = p.usize_min("rounds", 1, 1)?;
            let with_data = p.bool("data", false)?;
            let variant = parse_rw_variant(p.str("variant", "readers"))?;
            let monitor = match p.str("monitor", "readers") {
                "readers" => readers_writers_monitor(),
                "writers" => writers_priority_monitor(),
                "mesa-safe" => mesa_safe_readers_writers_monitor(),
                other => return Err(err(format!("unknown monitor {other:?}"))),
            };
            let semantics = match p.str("semantics", "hoare") {
                "hoare" => SignalSemantics::Hoare,
                "mesa" => SignalSemantics::Mesa,
                other => return Err(err(format!("unknown semantics {other:?}"))),
            };
            let sys = if rounds > 1 {
                // Multi-round transactions are control-only: the bigger
                // instance exists for schedule-space scale, not data flow.
                if with_data {
                    return Err(err("rounds > 1 requires data=false"));
                }
                if semantics != SignalSemantics::Hoare {
                    return Err(err("rounds > 1 requires semantics=hoare"));
                }
                rw_rounds_program(monitor, readers, writers, rounds)
            } else {
                rw_program_with_semantics(monitor, readers, writers, with_data, semantics)
            };
            let spec = rw_spec(readers + writers, with_data, variant);
            let corr = rw_correspondence(&sys, &spec, with_data);
            (Program::Monitor(sys), spec, corr)
        }
        "db-update" => {
            let clients = p.usize("clients", 3)?;
            let sites = p.usize_min("sites", 2, 1)?;
            let sys = db_update::db_update_program(clients, sites);
            let spec = db_update::db_update_spec(sites, clients);
            let corr = db_update::db_update_correspondence(&sys, &spec, sites);
            (Program::Csp(sys), spec, corr)
        }
        "philosophers" => {
            let n = p.usize_min("n", 3, 2)?;
            let meals = p.usize("meals", 1)?;
            let order = match p.str("order", "asymmetric") {
                "naive" => gem_problems::philosophers::ForkOrder::Naive,
                "asymmetric" => gem_problems::philosophers::ForkOrder::Asymmetric,
                other => return Err(err(format!("unknown order {other:?}"))),
            };
            let sys = gem_problems::philosophers::philosophers_program(n, meals, order);
            let spec = gem_problems::philosophers::philosophers_spec(n);
            let corr = gem_problems::philosophers::philosophers_correspondence(&sys, &spec, n);
            max_runs = 20_000;
            (Program::Ada(sys), spec, corr)
        }
        "life" => {
            let gens = p.usize_min("gens", 2, 1)?;
            let grid = match p.str("grid", "block") {
                "block" => life::block(),
                "blinker" => life::blinker(),
                other => return Err(err(format!("unknown grid {other:?}"))),
            };
            let sys = life::life_program(&grid, gens);
            let spec = life::life_spec(&grid, gens);
            let corr = life::life_correspondence(&sys, &spec, &grid);
            max_runs = 50; // life's schedule space is astronomical
            (Program::Csp(sys), spec, corr)
        }
        other => return Err(err(format!("unknown problem {other:?}; try `gem list`"))),
    };
    p.reject_unasked(problem)?;
    Ok(Instance {
        program,
        spec,
        corr,
        max_runs,
    })
}

/// The problems `gem list` reports.
pub const PROBLEMS: [&str; 6] = [
    "one-slot",
    "bounded",
    "rw",
    "db-update",
    "life",
    "philosophers",
];

/// Observability and exploration flags, stripped from the raw argument
/// list before command dispatch.
#[derive(Clone, Debug, Default)]
struct ObsFlags {
    stats: bool,
    stats_json: Option<String>,
    trace: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    heartbeat: Option<f64>,
    por: bool,
    explain: bool,
    artifacts: Option<String>,
}

/// Splits `--stats` / `--stats-json` / `--trace` / `--trace-out` /
/// `--heartbeat` / `--por` / `--explain` / `--artifacts` (either
/// `--flag value` or `--flag=value`) out of `args`, leaving positional
/// arguments and `key=value` parameters untouched.
fn split_flags(args: &[String]) -> Result<(Vec<String>, ObsFlags), CliError> {
    let mut flags = ObsFlags::default();
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let (name, inline) = match arg.split_once('=') {
            Some((n, v)) if n.starts_with("--") => (n, Some(v.to_owned())),
            _ => (arg.as_str(), None),
        };
        let mut value = |flag: &str| -> Result<String, CliError> {
            if let Some(v) = inline.clone() {
                return Ok(v);
            }
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };
        match name {
            "--stats" => {
                if inline.is_some() {
                    return Err(err("--stats takes no value"));
                }
                flags.stats = true;
            }
            "--stats-json" => flags.stats_json = Some(value("--stats-json")?),
            "--por" => {
                if inline.is_some() {
                    return Err(err("--por takes no value"));
                }
                flags.por = true;
            }
            "--explain" => {
                if inline.is_some() {
                    return Err(err("--explain takes no value"));
                }
                flags.explain = true;
            }
            "--trace" => flags.trace = Some(value("--trace")?),
            "--trace-out" => flags.trace_out = Some(value("--trace-out")?),
            "--metrics-out" => flags.metrics_out = Some(value("--metrics-out")?),
            "--artifacts" => flags.artifacts = Some(value("--artifacts")?),
            "--heartbeat" => {
                let v = value("--heartbeat")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| err(format!("--heartbeat must be seconds, got {v:?}")))?;
                // The ticker turns the cadence into a `Duration`; NaN,
                // negative, infinite and overlong values have none.
                if Duration::try_from_secs_f64(secs).is_err() {
                    return Err(err(format!(
                        "--heartbeat must be a finite number of seconds >= 0, got {v:?}"
                    )));
                }
                flags.heartbeat = Some(secs);
            }
            "--help" => rest.push(arg.clone()),
            _ if name.starts_with("--") => {
                return Err(err(format!("unknown flag {name:?}\n{}", usage())))
            }
            _ => rest.push(arg.clone()),
        }
        i += 1;
    }
    Ok((rest, flags))
}

/// The probe sinks a command line asked for. Held separately from the
/// composed probe so they can be read back during and after the command.
struct ObsSetup {
    probe: Arc<dyn Probe>,
    /// The command's one aggregator, when anything reads it: `--stats*`,
    /// `--explain`, the heartbeat, `--metrics-out`, `profile` and `top`.
    stats: Option<Arc<StatsProbe>>,
    /// The command's one event log, behind `--trace`, `--trace-out` and
    /// the `--artifacts` crash dump.
    log: Option<Arc<EventLog>>,
}

/// Cadence of `--metrics-out` snapshots. Fixed rather than configurable:
/// the ring holds over an hour of history at this rate, and the final
/// unconditional snapshot covers sweeps faster than one interval.
const METRICS_INTERVAL: Duration = Duration::from_secs(1);

/// Events kept per thread when `--trace` or `--trace-out` asks for the
/// whole log; past it the oldest are dropped and counted on stderr.
const TRACE_EVENTS: usize = 1 << 20;

/// Fails when a flag that writes its file after the command names a
/// directory that does not exist, so a bad path costs no sweep.
fn check_output_dirs(flags: &ObsFlags) -> Result<(), CliError> {
    let outputs = [
        ("--stats-json", &flags.stats_json),
        ("--trace", &flags.trace),
        ("--trace-out", &flags.trace_out),
        ("--metrics-out", &flags.metrics_out),
    ];
    for (flag, path) in outputs {
        let Some(path) = path else { continue };
        let dir = match Path::new(path).parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        if !dir.is_dir() {
            return Err(err(format!(
                "{flag} {path:?}: directory {dir:?} does not exist"
            )));
        }
    }
    Ok(())
}

/// The sinks `command` reports to, and the ticker that reads the stats
/// sink while it runs, if anything periodic is on.
fn obs_setup(flags: &ObsFlags, command: &str) -> Result<(ObsSetup, Option<Ticker>), CliError> {
    // The artifact directory comes first: another output may live in it.
    if let Some(dir) = &flags.artifacts {
        std::fs::create_dir_all(dir)
            .map_err(|e| err(format!("cannot create artifact dir {dir:?}: {e}")))?;
    }
    check_output_dirs(flags)?;
    // The progress display: `gem top` repaints its dashboard every
    // second by default, every other command prints a heartbeat line
    // every five; `--heartbeat 0` turns it off.
    let (default, view) = if command == "top" {
        (1.0, View::Top)
    } else {
        (5.0, View::Heartbeat)
    };
    let period = Duration::from_secs_f64(flags.heartbeat.unwrap_or(default));
    let progress = (!period.is_zero()).then_some((period, view));
    let series = flags
        .metrics_out
        .as_ref()
        .map(|_| Series::new(METRICS_INTERVAL));
    let ticking = progress.is_some() || series.is_some();
    // Reports, `--explain`, `profile` and `top` read timers and
    // histograms; the ticker reads counters and gauges only, so alone it
    // aggregates nothing else.
    let reported = flags.stats
        || flags.stats_json.is_some()
        || flags.explain
        || matches!(command, "profile" | "top");
    let stats = if reported {
        Some(Arc::new(StatsProbe::new()))
    } else {
        ticking.then(|| Arc::new(StatsProbe::counters_and_gauges()))
    };
    let ticker = stats
        .clone()
        .filter(|_| ticking)
        .map(|stats| Ticker::new(stats, progress, series));
    let traced = flags.trace.is_some() || flags.trace_out.is_some();
    let log = (traced || flags.artifacts.is_some()).then(|| {
        Arc::new(EventLog::new(if traced {
            TRACE_EVENTS
        } else {
            CRASH_TAIL
        }))
    });
    // With an artifact directory, arm the flight recorder: the log's last
    // events per thread plus live span stacks are dumped to
    // <dir>/crash.json if the process panics mid-sweep.
    if let (Some(log), Some(dir)) = (&log, &flags.artifacts) {
        install_crash_sink(log.clone(), Path::new(dir).join("crash.json"));
    }
    let probe: Arc<dyn Probe> = match (&stats, &log) {
        (None, None) => Arc::new(NoopProbe),
        (Some(s), None) => s.clone(),
        (None, Some(l)) => l.clone(),
        (Some(s), Some(l)) => Arc::new(FanoutProbe::new(vec![s.clone(), l.clone()])),
    };
    Ok((ObsSetup { probe, stats, log }, ticker))
}

/// What the progress display shows each period.
#[derive(Clone, Copy)]
enum View {
    /// One [`heartbeat_line`] per period.
    Heartbeat,
    /// A repainted [`render_top`] dashboard.
    Top,
}

/// The periodic work of one command: the progress display and the
/// `--metrics-out` snapshots, both read from the command's stats report
/// at a time the caller passes in, so tests can drive it with any clock.
struct Ticker {
    stats: Arc<StatsProbe>,
    progress: Option<(Duration, View)>,
    next_progress: Duration,
    series: Option<Series>,
    next_snapshot: Duration,
}

impl Ticker {
    fn new(
        stats: Arc<StatsProbe>,
        progress: Option<(Duration, View)>,
        series: Option<Series>,
    ) -> Self {
        Self {
            next_progress: progress.map_or(Duration::MAX, |(period, _)| period),
            next_snapshot: series.as_ref().map_or(Duration::MAX, Series::interval),
            stats,
            progress,
            series,
        }
    }

    /// Does what falls due by `elapsed`, printing progress to `out`, and
    /// returns how long until the next thing does.
    fn tick(&mut self, elapsed: Duration, out: &mut dyn Write) -> Duration {
        let mut report = None;
        if let Some((period, view)) = self.progress {
            if elapsed >= self.next_progress {
                let r = self.stats.report();
                match view {
                    View::Heartbeat => {
                        if let Some(line) = heartbeat_line(&r, elapsed, false) {
                            let _ = writeln!(out, "{line}");
                        }
                    }
                    View::Top => {
                        let _ = write!(out, "\x1b[2J\x1b[H{}", render_top(&r, elapsed));
                    }
                }
                let _ = out.flush();
                self.next_progress = elapsed.saturating_add(period);
                report = Some(r);
            }
        }
        if let Some(series) = &mut self.series {
            if elapsed >= self.next_snapshot {
                series.push(elapsed, report.unwrap_or_else(|| self.stats.report()));
                self.next_snapshot = elapsed.saturating_add(series.interval());
            }
        }
        self.next_progress
            .min(self.next_snapshot)
            .saturating_sub(elapsed)
    }

    /// The end of the command: the final heartbeat line (any view) and
    /// the final snapshot, which together with the baseline gives every
    /// series at least two — enough for the lint's monotonicity check to
    /// bite.
    fn finish(mut self, elapsed: Duration, out: &mut dyn Write) -> Option<Series> {
        let report = self.stats.report();
        if self.progress.is_some() {
            if let Some(line) = heartbeat_line(&report, elapsed, true) {
                let _ = writeln!(out, "{line}");
                let _ = out.flush();
            }
        }
        if let Some(series) = &mut self.series {
            series.push(elapsed, report);
        }
        self.series
    }
}

/// Runs `work` while a second thread ticks `ticker` on the wall clock,
/// then finishes the ticker and hands back its series.
fn with_ticker<R>(ticker: Option<Ticker>, work: impl FnOnce() -> R) -> (R, Option<Series>) {
    let Some(mut ticker) = ticker else {
        return (work(), None);
    };
    let started = Instant::now();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                let wait = ticker.tick(started.elapsed(), &mut std::io::stderr());
                std::thread::park_timeout(wait);
            }
            ticker
        });
        /// Stops the ticker however `work` ends, so a panic unwinds
        /// through the scope instead of waiting on the thread forever.
        struct Stop<'a>(&'a AtomicBool, std::thread::Thread);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
                self.1.unpark();
            }
        }
        let stop = Stop(&done, handle.thread().clone());
        let result = work();
        drop(stop);
        let ticker = handle.join().expect("ticker thread panicked");
        let series = ticker.finish(started.elapsed(), &mut std::io::stderr());
        (result, series)
    })
}

fn format_outcome(outcome: &VerifyOutcome) -> String {
    let verdict = if outcome.ok() { "HOLDS" } else { "FAILS" };
    format!(
        "{outcome}\nverdict: PROG sat P {verdict}{}",
        if outcome.exhaustive() {
            " (all schedules)"
        } else {
            " (bounded exploration)"
        }
    )
}

/// What a command line printed, and whether it found what it searched
/// for: a `FAILS` verdict from `verify`, a deadlock from `deadlock`.
#[derive(Debug)]
pub struct Output {
    /// The text to print on stdout.
    pub stdout: String,
    /// True when `verify` judged the program to fail its specification or
    /// `deadlock` found a deadlock; the `gem` binary then exits 1.
    pub found: bool,
}

impl From<String> for Output {
    fn from(stdout: String) -> Self {
        Output {
            stdout,
            found: false,
        }
    }
}

/// Executes a command line (without the leading program name), returning
/// the text to print and whether the command found a violation.
///
/// Observability flags (`--stats`, `--stats-json <path>`,
/// `--trace <path>`, `--heartbeat <secs>`) are accepted anywhere among
/// the arguments; stats tables and heartbeats go to stderr so stdout
/// stays machine-consumable.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands/problems, bad parameters, or
/// unwritable stats/trace files.
pub fn run(args: &[String]) -> Result<Output, CliError> {
    let (args, flags) = split_flags(args)?;
    let command = args.first().map_or("", String::as_str);
    let (obs, ticker) = obs_setup(&flags, command)?;
    let (mut result, series) = with_ticker(ticker, || {
        let _total = Span::enter(obs.probe.as_ref(), "total");
        dispatch(&args, &obs, &flags)
    });
    // Reports are emitted even when the command failed: a truncated or
    // failing sweep's counters are exactly what one wants to inspect.
    let reported = flags.stats || flags.stats_json.is_some() || flags.explain;
    if let Some(stats) = obs.stats.as_ref().filter(|_| reported) {
        let mut report = stats.report();
        if let Some(cmd) = args.first() {
            report.meta.insert("command".to_owned(), cmd.clone());
        }
        if let Some(problem) = args.get(1) {
            report.meta.insert("problem".to_owned(), problem.clone());
        }
        if args.len() > 2 {
            report.meta.insert("params".to_owned(), args[2..].join(" "));
        }
        report.meta.insert(
            "gem_version".to_owned(),
            env!("CARGO_PKG_VERSION").to_owned(),
        );
        // The config section makes the report self-describing: which
        // exploration/reduction switches produced these numbers.
        let flag = |b: bool| if b { "true" } else { "false" }.to_owned();
        report.config.insert("por".to_owned(), flag(flags.por));
        report.config.insert(
            "heartbeat_secs".to_owned(),
            flags.heartbeat.unwrap_or(5.0).to_string(),
        );
        if flags.stats {
            eprintln!("{report}");
        }
        if let Some(path) = &flags.stats_json {
            // Atomic so a concurrent reader (CI collector, file watcher)
            // never observes a truncated report.
            write_atomic(Path::new(path), &report.to_json())
                .map_err(|e| err(format!("cannot write stats to {path:?}: {e}")))?;
        }
        if flags.explain {
            if let Ok(out) = &mut result {
                for line in gem_obs::explain(&report) {
                    out.stdout.push('\n');
                    out.stdout.push_str(&line);
                }
            }
        }
    }
    // The event log's two trace renderings, written whole (and
    // atomically) now that the command is over.
    if let Some(log) = &obs.log {
        let write = |flag: &str, path: &str, text: String| {
            write_atomic(Path::new(path), &text)
                .map_err(|e| err(format!("cannot write --{flag} to {path:?}: {e}")))?;
            if log.dropped() > 0 {
                eprintln!(
                    "{flag}: {} event(s) dropped past the buffer cap",
                    log.dropped()
                );
            }
            Ok::<(), CliError>(())
        };
        if let Some(path) = &flags.trace {
            write("trace", path, log.to_jsonl())?;
        }
        if let Some(path) = &flags.trace_out {
            write("trace-out", path, log.to_chrome_json())?;
        }
    }
    if let (Some(series), Some(path)) = (&series, &flags.metrics_out) {
        let snaps = series.snapshots();
        write_atomic(Path::new(path), &gem_obs::render_openmetrics(&snaps))
            .map_err(|e| err(format!("cannot write metrics to {path:?}: {e}")))?;
        // The same series as a JSON time-series document, for consumers
        // that would rather not parse the text exposition.
        let json_path = format!("{path}.json");
        write_atomic(
            Path::new(&json_path),
            &gem_obs::series_json(series.interval(), &snaps),
        )
        .map_err(|e| err(format!("cannot write metrics to {json_path:?}: {e}")))?;
        if series.dropped() > 0 {
            eprintln!(
                "metrics-out: {} old snapshot(s) fell off the ring",
                series.dropped()
            );
        }
    }
    result
}

fn dispatch(args: &[String], obs: &ObsSetup, flags: &ObsFlags) -> Result<Output, CliError> {
    let (cmd, rest) = args.split_first().ok_or_else(|| err(usage()))?;
    if let Some(command) = Command::named(cmd) {
        let (problem, params) = rest
            .split_first()
            .ok_or_else(|| err(format!("{cmd} needs a problem name; try `gem list`")))?;
        let inst = instance(problem, &Params::parse(params)?)?;
        return Ctx {
            inst: &inst,
            problem,
            params,
            obs,
            flags,
        }
        .exec(command);
    }
    match cmd.as_str() {
        "list" => Ok(PROBLEMS.join("\n").into()),
        "replay" => {
            let dir = rest
                .first()
                .ok_or_else(|| err("replay needs an artifact directory"))?;
            replay_cmd(Path::new(dir), obs, flags)
        }
        "metrics-lint" => {
            let path = rest.first().ok_or_else(|| {
                err("metrics-lint needs an OpenMetrics file: gem metrics-lint <file>")
            })?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| err(format!("cannot read {path}: {e}")))?;
            let s = gem_obs::lint_openmetrics(&text).map_err(|e| err(format!("{path}: {e}")))?;
            Ok(format!(
                "{path}: OK — {} family(ies), {} sample(s), {} snapshot(s)",
                s.families, s.samples, s.snapshots
            )
            .into())
        }
        "help" | "--help" | "-h" => Ok(usage().into()),
        other => Err(err(format!("unknown command {other:?}\n{}", usage()))),
    }
}

/// A command that runs on a problem instance.
enum Command<'a> {
    Render,
    Verify,
    Profile,
    Top,
    Explore,
    Deadlock,
    Dot,
    /// `gem replay`: re-run a counterexample artifact's recorded run.
    Replay(&'a Recorded),
}

impl Command<'_> {
    /// The command a command-line name selects, if it takes a problem.
    fn named(name: &str) -> Option<Self> {
        Some(match name {
            "render" => Self::Render,
            "verify" => Self::Verify,
            "profile" => Self::Profile,
            "top" => Self::Top,
            "explore" => Self::Explore,
            "deadlock" => Self::Deadlock,
            "dot" => Self::Dot,
            _ => return None,
        })
    }
}

/// What a [`Command`] runs on: the instance as the command line named it,
/// and the command line's probe sinks and flags.
struct Ctx<'a> {
    inst: &'a Instance,
    problem: &'a str,
    params: &'a [String],
    obs: &'a ObsSetup,
    flags: &'a ObsFlags,
}

impl Ctx<'_> {
    /// Hands the instance's concrete system to [`command`]: the one place
    /// the CLI tells the substrates apart.
    fn exec(self, cmd: Command) -> Result<Output, CliError> {
        match &self.inst.program {
            Program::Monitor(sys) => command(sys, cmd, &self),
            Program::Csp(sys) => command(sys, cmd, &self),
            Program::Ada(sys) => command(sys, cmd, &self),
        }
    }

    /// The explorer of a full sweep: the instance's run bound and the
    /// command line's `--por`.
    fn explorer(&self) -> Explorer {
        Explorer {
            reduce: self.flags.por,
            ..Explorer::with_max_runs(self.inst.max_runs)
        }
    }

    /// The options of a `verify`, `profile` or `top` sweep reporting to
    /// the command line's probe.
    fn verify_options(&self) -> VerifyOptions {
        VerifyOptions {
            explorer: self.explorer(),
            probe: self.obs.probe.clone(),
            ..VerifyOptions::default()
        }
    }
}

fn command<S: Substrate>(sys: &S, cmd: Command, cx: &Ctx) -> Result<Output, CliError> {
    // `replay` re-checks one recorded run; its report has no build
    // statistics.
    if !matches!(cmd, Command::Replay(_)) {
        let code = sys.code_stats();
        let probe = &cx.obs.probe;
        probe.add("code.exprs", code.exprs);
        probe.add("code.ops", code.ops);
        probe.add("code.consts", code.consts);
        probe.add("code.programs", code.programs);
        probe.add("code.slots", code.slots);
        // A measured wall-clock value: recorded as a `_ns` histogram (one
        // sample), not a counter, so reports stay deterministic under
        // `without_timings()`.
        probe.record("explore.compile_ns", code.compile_ns);
    }
    Ok(match cmd {
        Command::Render => render_specification(&cx.inst.spec).into(),
        Command::Verify => verify(sys, cx)?,
        Command::Profile => profile(sys, cx)?.into(),
        Command::Top => top(sys, cx)?.into(),
        Command::Explore => explore(sys, cx).into(),
        Command::Deadlock => deadlock(sys, cx.obs.probe.as_ref()),
        Command::Dot => first_dot(sys).into(),
        Command::Replay(recorded) => replay(sys, cx.inst, recorded)?.into(),
    })
}

fn verify<S: Substrate>(sys: &S, cx: &Ctx) -> Result<Output, CliError> {
    let flags = cx.flags;
    // `meta.json` records exactly what `gem replay` needs to rebuild this
    // instance. The recorded schedule is exact either way, but under
    // `--por` it is one sleep-set *representative* of its computation,
    // not necessarily the first failing schedule of the unreduced sweep —
    // `gem replay` surfaces the flags so a diverging reproduction can be
    // read in context.
    let bool_str = |b: bool| if b { "true" } else { "false" };
    let options = VerifyOptions {
        artifacts: flags.artifacts.as_ref().map(|dir| {
            ArtifactSink::new(dir)
                .meta("problem", cx.problem)
                .meta("params", cx.params.join(" "))
                .meta("por", bool_str(flags.por))
        }),
        ..cx.verify_options()
    };
    // Under `--explain`, sample the run tree first so the report carries
    // the run-count estimate (and the heartbeat can show % explored /
    // ETA).
    let estimate = flags.explain.then(|| sample(sys));
    let outcome = sweep(sys, cx.inst, &options, estimate.as_ref())?;
    let mut out = format_outcome(&outcome);
    if let Some(dir) = &flags.artifacts {
        out.push_str(&format!("\nartifacts: {dir}"));
    }
    Ok(Output {
        stdout: out,
        found: !outcome.ok(),
    })
}

/// The command's stats report so far; `obs_setup` always aggregates for
/// `profile` and `top`, which render from it.
fn stats_report(cx: &Ctx) -> gem_obs::Report {
    cx.obs
        .stats
        .as_ref()
        .expect("profile and top aggregate")
        .report()
}

fn profile<S: Substrate>(sys: &S, cx: &Ctx) -> Result<String, CliError> {
    let outcome = sweep(sys, cx.inst, &cx.verify_options(), Some(&sample(sys)))?;
    let report = stats_report(cx);
    let mut out = format_outcome(&outcome);
    out.push_str("\n\n");
    match PhaseProfile::from_report(&report) {
        Some(profile) => out.push_str(&profile.render()),
        None => out.push_str("no phase timers recorded\n"),
    }
    out.push('\n');
    out.push_str(&restriction_breakdown(&cx.inst.spec, &report));
    let verdicts = gem_obs::explain(&report);
    if !verdicts.is_empty() {
        out.push('\n');
        for line in verdicts {
            out.push_str(&line);
            out.push('\n');
        }
    }
    Ok(out)
}

/// Live single-screen dashboard: the command's ticker thread repaints
/// runs/steps rates, progress toward the sampled search-space estimate
/// and phase shares on stderr (every `--heartbeat` seconds, default 1)
/// while the verify sweep runs on this thread. The final frame plus the
/// verdict is the stdout result, so `gem top` stays scriptable.
fn top<S: Substrate>(sys: &S, cx: &Ctx) -> Result<String, CliError> {
    let started = Instant::now();
    let outcome = sweep(sys, cx.inst, &cx.verify_options(), Some(&sample(sys)))?;
    let mut out = render_top(&stats_report(cx), started.elapsed());
    out.push('\n');
    out.push_str(&format_outcome(&outcome));
    Ok(out)
}

fn explore<S: Substrate>(sys: &S, cx: &Ctx) -> String {
    let probe = &cx.obs.probe;
    let _ambient = probe
        .enabled()
        .then(|| gem_obs::ambient::install(probe.clone()));
    let mut deadlocks = 0usize;
    let stats = cx
        .explorer()
        .for_each_run_probed(sys, probe.as_ref(), |state, _| {
            if !sys.is_complete(state) {
                deadlocks += 1;
            }
            ControlFlow::Continue(())
        });
    probe.add("verify.deadlocks", deadlocks as u64);
    let por_note = if cx.flags.por {
        format!("  slept branches: {}", stats.sleep_skipped)
    } else {
        String::new()
    };
    format!(
        "schedules: {}{}  steps: {}  deadlocks: {deadlocks}{por_note}",
        stats.runs,
        if stats.truncated() {
            "+ (truncated)"
        } else {
            ""
        },
        stats.steps,
    )
}

/// `find_deadlock` prunes on control state, which is sound for deadlock
/// (a state property) and necessary, since DFS order visits
/// near-sequential schedules first.
fn deadlock<S: Substrate>(sys: &S, probe: &dyn Probe) -> Output {
    match gem_lang::find_deadlock(sys, &Explorer::default(), probe) {
        Some(path) => Output {
            stdout: format!("DEADLOCK after {} action(s):\n{path:#?}", path.len()),
            found: true,
        },
        None => "no deadlock (pruned state search)".to_owned().into(),
    }
}

fn first_dot<S: Substrate>(sys: &S) -> String {
    let mut out = String::new();
    Explorer::with_max_runs(1).for_each_run(sys, |state, _| {
        out = gem_core::to_dot(&sys.seal(state));
        ControlFlow::Break(())
    });
    out
}

/// Renders nanoseconds with a readable unit for the breakdown table.
fn human_ns(ns: u64) -> String {
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

/// Renders one `gem top` frame: sweep totals with rates, progress toward
/// the sampled search-space estimate (the `estimate.total_runs` gauge)
/// and phase shares — all pure functions of the live stats report.
fn render_top(report: &gem_obs::Report, elapsed: Duration) -> String {
    let runs = report.counters.get("explore.runs").copied().unwrap_or(0);
    let steps = report.counters.get("explore.steps").copied().unwrap_or(0);
    let secs = elapsed.as_secs_f64().max(1e-9);
    let mut out = format!(
        "gem top — {:.1}s elapsed\nruns: {runs} ({:.0}/s)  steps: {steps} ({:.0}/s)\n",
        elapsed.as_secs_f64(),
        runs as f64 / secs,
        steps as f64 / secs,
    );
    if let Some(&total) = report.gauges.get("estimate.total_runs") {
        if total > 0 {
            let pct = (runs as f64 / total as f64 * 100.0).min(100.0);
            out.push_str(&format!("progress: {pct:.1}% of ~{total} estimated run(s)"));
            if runs > 0 && total > runs {
                let eta_ns = (total - runs) as f64 / (runs as f64 / secs) * 1e9;
                out.push_str(&format!("  eta: {}", human_ns(eta_ns as u64)));
            }
            out.push('\n');
        }
    }
    if let Some(profile) = PhaseProfile::from_report(report) {
        out.push('\n');
        out.push_str(&profile.render());
    }
    out
}

/// Renders the per-restriction check breakdown for `gem profile`: each
/// formula's index and name, its rendered notation, the batch-check time
/// it consumed (`logic.check.by_restriction.*` series), and whether the
/// incremental checker covered it or why it fell back to batch checking.
/// With incremental checking active on a clean sweep the batch columns
/// collapse to zero — that collapse *is* the speedup being attributed. A
/// restriction the incremental checker judges as a leaf restriction is
/// tagged `[leaf]` and also shows the judgements it settled per event
/// during replay, the conjuncts it evaluated at the leaf and their time
/// (`logic.incr.leaf_eval.by_restriction.*`).
fn restriction_breakdown(spec: &Specification, report: &gem_obs::Report) -> String {
    let wall = report
        .timers
        .get("verify")
        .or_else(|| report.timers.get("total"))
        .map(|t| t.total_ns)
        .unwrap_or(0);
    let s = spec.structure();
    let mut out = String::from("check breakdown by restriction:\n");
    let counter = |key: String| report.counters.get(&key).copied().unwrap_or(0);
    let timer = |key: String| report.timers.get(&key).map_or(0, |t| t.total_ns);
    for (i, r) in spec.restrictions().iter().enumerate() {
        let evals = counter(format!("logic.check.by_restriction.{i}.evals"));
        let ns = timer(format!("logic.check.by_restriction.{i}.ns"));
        let settled = counter(format!("logic.incr.leaf_eval.by_restriction.{i}.settled"));
        let leaf_evals = counter(format!("logic.incr.leaf_eval.by_restriction.{i}.evals"));
        let leaf_ns = timer(format!("logic.incr.leaf_eval.by_restriction.{i}.ns"));
        let incremental = counter(format!("logic.incr.restriction.{}.incremental", r.name)) > 0;
        let leaf = incremental && compile(&r.formula).is_ok_and(|c| c.is_leaf());
        let tag =
            if leaf {
                "leaf".to_owned()
            } else if incremental {
                "incremental".to_owned()
            } else if let Some(reason) = report.counters.keys().find_map(|k| {
                k.strip_prefix(&format!("logic.incr.restriction.{}.fallback.", r.name))
            }) {
                format!("fallback: {reason}")
            } else {
                "batch".to_owned()
            };
        let pct = if wall > 0 {
            (ns + leaf_ns) as f64 * 100.0 / wall as f64
        } else {
            0.0
        };
        let mut rendered = r.formula.render(s);
        if rendered.chars().count() > 64 {
            rendered = rendered.chars().take(63).collect::<String>() + "…";
        }
        let leaf_cost = if leaf {
            format!(
                "{settled} settled per event, {leaf_evals} leaf eval(s), {}; ",
                human_ns(leaf_ns)
            )
        } else {
            String::new()
        };
        out.push_str(&format!(
            "  #{i} {} [{tag}] {leaf_cost}{evals} batch eval(s), {} ({pct:.1}% of wall)\n      {rendered}\n",
            r.name,
            human_ns(ns),
        ));
    }
    out
}

/// Knuth probes [`sample`] takes before a sweep.
const SAMPLES: u64 = 128;

/// Walks [`SAMPLES`] random schedules of `sys` ([`Explorer::sample_run`],
/// deterministic and probe-silent) into a Knuth estimate of its run
/// count.
fn sample<S: Substrate>(sys: &S) -> KnuthEstimator {
    let explorer = VerifyOptions::default().explorer;
    let mut knuth = KnuthEstimator::new();
    for seed in 0..SAMPLES {
        knuth.record(explorer.sample_run(sys, seed).tree_product);
    }
    knuth
}

/// Runs the verification sweep, first posting the run-count estimate
/// when given: `estimate.samples` (counter) and `estimate.total_runs`
/// (gauge), which the heartbeat turns into `% explored` / ETA and
/// `gem top` into its progress line.
///
/// Sampling happens *before* the `verify` span opens, so the phase table
/// still partitions the sweep's wall time.
fn sweep<S: Substrate>(
    sys: &S,
    inst: &Instance,
    options: &VerifyOptions,
    estimate: Option<&KnuthEstimator>,
) -> Result<VerifyOutcome, CliError> {
    if let Some(runs) = estimate.and_then(KnuthEstimator::estimate_runs) {
        let probe = options.probe.as_ref();
        probe.add("estimate.samples", SAMPLES);
        probe.gauge_set("estimate.total_runs", runs);
    }
    verify_system(sys, &inst.spec, &inst.corr, |s| sys.seal(s), options)
        .map_err(|e| err(format!("projection failed: {e}")))
}

fn artifact_json(dir: &Path, name: &str) -> Result<JsonValue, CliError> {
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| err(format!("cannot read {}: {e}", path.display())))?;
    gem_obs::json::parse(&text).map_err(|e| err(format!("{}: {e}", path.display())))
}

fn schedule_from_json(v: &JsonValue, file: &str) -> Result<Vec<(usize, String)>, CliError> {
    let steps = v
        .get("steps")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| err(format!("{file}: missing \"steps\" array")))?;
    let mut out = Vec::with_capacity(steps.len());
    for (i, s) in steps.iter().enumerate() {
        let index = s
            .get("index")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| err(format!("{file}: step {i} has no \"index\"")))?;
        let action = s
            .get("action")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| err(format!("{file}: step {i} has no \"action\"")))?;
        out.push((index as usize, action.to_owned()));
    }
    Ok(out)
}

fn outcome_from_json(v: &JsonValue, file: &str) -> Result<VerifyOutcome, CliError> {
    let miss = |k: &str| err(format!("{file}: missing field {k:?}"));
    let runs = v
        .get("runs")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| miss("runs"))? as usize;
    let deadlocks = v
        .get("deadlocks")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| miss("deadlocks"))? as usize;
    let mut failures = Vec::new();
    for f in v
        .get("failures")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| miss("failures"))?
    {
        let run = f
            .get("run")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| miss("failures[].run"))? as usize;
        let violated = f
            .get("violated")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| miss("failures[].violated"))?
            .iter()
            .filter_map(JsonValue::as_str)
            .map(str::to_owned)
            .collect();
        let detail = f
            .get("detail")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_owned();
        failures.push(RunFailure {
            run,
            violated,
            detail,
        });
    }
    Ok(VerifyOutcome {
        runs,
        deadlocks,
        failures,
        truncation: None,
    })
}

/// A counterexample artifact's recorded run, as `gem replay` reads it.
struct Recorded {
    /// The schedule: each step's enabled-action index and action text.
    steps: Vec<(usize, String)>,
    /// The outcome the recording sweep judged the run to have.
    expected: VerifyOutcome,
    /// Whether the sweep ran under `--por`.
    por: bool,
}

fn replay_cmd(dir: &Path, obs: &ObsSetup, flags: &ObsFlags) -> Result<Output, CliError> {
    let meta = artifact_json(dir, "meta.json")?;
    let problem = meta
        .get("problem")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("meta.json: missing \"problem\" (was the artifact written by `gem verify --artifacts`?)"))?;
    let raw_params: Vec<String> = meta
        .get("params")
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .split_whitespace()
        .map(str::to_owned)
        .collect();
    let params = Params::parse(&raw_params)?;
    let steps = schedule_from_json(&artifact_json(dir, "schedule.json")?, "schedule.json")?;
    let outcome_doc = artifact_json(dir, "outcome.json")?;
    let expected = outcome_doc
        .get("replay")
        .filter(|v| !matches!(v, JsonValue::Null))
        .ok_or_else(|| {
            err("outcome.json has no replay section (clean sweep — nothing to reproduce)")
        })?;
    let recorded = Recorded {
        steps,
        expected: outcome_from_json(expected, "outcome.json#replay")?,
        por: meta.get("por").and_then(JsonValue::as_str) == Some("true"),
    };
    let inst = instance(problem, &params)?;
    Ctx {
        inst: &inst,
        problem,
        params: &raw_params,
        obs,
        flags,
    }
    .exec(Command::Replay(&recorded))
}

/// Replays a recorded schedule on a freshly-built system: every step must
/// match the recorded action's `Debug` text, so a drifted problem build
/// diverges loudly rather than silently checking a different run.
fn replay<S: Substrate>(sys: &S, inst: &Instance, recorded: &Recorded) -> Result<String, CliError> {
    let mut state = sys.initial();
    for (i, (index, action_text)) in recorded.steps.iter().enumerate() {
        let enabled = sys.enabled(&state);
        let action = enabled.get(*index).cloned().ok_or_else(|| {
            err(format!(
                "replay step {i}: index {index} out of range ({} action(s) enabled)",
                enabled.len()
            ))
        })?;
        let actual = format!("{action:?}");
        if actual != *action_text {
            return Err(err(format!(
                "replay step {i}: recorded action {action_text:?}, but index {index} is {actual:?}"
            )));
        }
        sys.apply(&mut state, &action);
    }
    let deadlocked = !sys.is_complete(&state);
    let defaults = VerifyOptions::default();
    let check = check_computation(
        &sys.seal(&state),
        &inst.spec,
        &inst.corr,
        defaults.strategy,
        defaults.check_program_legality,
    )
    .map_err(|e| err(format!("projection failed during replay: {e}")))?;
    let got = VerifyOutcome {
        runs: 1,
        deadlocks: usize::from(deadlocked),
        failures: check
            .verdict
            .map(|(violated, detail)| {
                vec![RunFailure {
                    run: 0,
                    violated,
                    detail,
                }]
            })
            .unwrap_or_default(),
        truncation: None,
    };
    // A schedule recorded under `--por` is a sleep-set representative of
    // its computation. Replaying it is exact all the same, but the note
    // tells the reader the run index context: it need not be the first
    // failing schedule of an unreduced sweep.
    let por_note = if recorded.por {
        "\nnote: schedule is a --por sleep-set representative"
    } else {
        ""
    };
    let expected = &recorded.expected;
    if got == *expected {
        Ok(format!("REPRODUCED: {got}{por_note}"))
    } else {
        Err(err(format!(
            "DIVERGED\nexpected: {expected}\n     got: {got}{por_note}"
        )))
    }
}

/// The usage string.
pub fn usage() -> String {
    "usage: gem <command> [problem] [key=value ...] [flags]\n\
     commands:\n\
     \x20 list                       list available problems\n\
     \x20 render <problem> [params]  print the GEM specification\n\
     \x20 verify <problem> [params]  check PROG sat P over all schedules\n\
     \x20 explore <problem> [params] count schedules and deadlocks\n\
     \x20 profile <problem> [params] verify + phase-attribution table, run-count\n\
     \x20                            estimate, reduction verdicts\n\
     \x20 top <problem> [params]     verify with a live dashboard on stderr:\n\
     \x20                            run/step rates, progress + ETA, phase\n\
     \x20                            shares\n\
     \x20 deadlock <problem> [params] hunt for a deadlock (pruned search)\n\
     \x20 dot <problem> [params]     emit one computation as Graphviz dot\n\
     \x20 replay <dir>               re-run a counterexample artifact's schedule\n\
     \x20                            and check it reproduces the recorded outcome\n\
     \x20 metrics-lint <file>        validate an OpenMetrics exposition file\n\
     \x20                            (as written by --metrics-out)\n\
     flags (allowed anywhere on the command line):\n\
     \x20 --stats                    print an instrumentation table to stderr\n\
     \x20 --stats-json <path>        write the run report as deterministic JSON\n\
     \x20 --trace <path>             write probe events as JSON lines at the end\n\
     \x20 --trace-out <path>         write a Chrome-trace JSON (chrome://tracing,\n\
     \x20                            Perfetto) of timer spans and counter totals\n\
     \x20 --metrics-out <path>       sample counters/gauges once a second and\n\
     \x20                            write an OpenMetrics exposition (plus a\n\
     \x20                            <path>.json time-series) at the end\n\
     \x20 --explain                  append reduction cost/benefit verdicts\n\
     \x20                            (POR attribution, incremental-check\n\
     \x20                            coverage)\n\
     \x20 --heartbeat <secs>         progress line interval (default 5, 0 = off)\n\
     \x20 --por                      sleep-set partial-order reduction: explore\n\
     \x20                            roughly one schedule per computation; the\n\
     \x20                            verify/explore verdict is unchanged\n\
     \x20 --artifacts <dir>          dump the first failing/deadlocked run as a\n\
     \x20                            self-contained counterexample directory and\n\
     \x20                            arm a crash-dump flight recorder\n\
     exit status: 0 done, 1 verify FAILS or deadlock found, 2 usage or I/O error\n\
     problems: one-slot, bounded, rw, db-update, life, philosophers\n\
     examples:\n\
     \x20 gem verify rw readers=1 writers=2 variant=readers\n\
     \x20 gem explore rw readers=1 writers=2 --por\n\
     \x20 gem verify bounded items=4 cap=2 substrate=csp --stats\n\
     \x20 gem render rw data=true"
        .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runv(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        run(&owned).map(|out| out.stdout)
    }

    #[test]
    fn list_and_help() {
        let out = runv(&["list"]).unwrap();
        for p in PROBLEMS {
            assert!(out.contains(p));
        }
        assert!(runv(&["help"]).unwrap().contains("usage"));
        assert!(runv(&[]).is_err());
        assert!(runv(&["bogus"]).is_err());
    }

    #[test]
    fn render_rw() {
        let out = runv(&["render", "rw", "data=true"]).unwrap();
        assert!(out.contains("SPECIFICATION RWProblem-ReadersPriority"));
        assert!(out.contains("db.control = ELEMENT"));
    }

    #[test]
    fn verify_one_slot_monitor_holds() {
        let out = runv(&["verify", "one-slot", "items=2"]).unwrap();
        assert!(out.contains("HOLDS"), "{out}");
    }

    #[test]
    fn verify_rw_writers_priority_fails_on_readers_monitor() {
        let out = runv(&["verify", "rw", "readers=1", "writers=2", "variant=writers"]).unwrap();
        assert!(out.contains("FAILS"), "{out}");
    }

    #[test]
    fn explore_counts_schedules() {
        let out = runv(&["explore", "rw", "readers=1", "writers=1"]).unwrap();
        assert!(out.contains("schedules:"), "{out}");
        assert!(out.contains("deadlocks: 0"), "{out}");
    }

    #[test]
    fn dot_emits_graph() {
        let out = runv(&["dot", "one-slot", "items=1"]).unwrap();
        assert!(out.starts_with("digraph gem"));
    }

    #[test]
    fn mesa_ablation_via_cli() {
        let out = runv(&["verify", "rw", "variant=mutex", "semantics=mesa"]).unwrap();
        assert!(out.contains("FAILS"), "IF-based monitor under Mesa: {out}");
        let out = runv(&[
            "verify",
            "rw",
            "variant=mutex",
            "semantics=mesa",
            "monitor=mesa-safe",
        ])
        .unwrap();
        assert!(out.contains("HOLDS"), "{out}");
    }

    #[test]
    fn bad_params_reported() {
        assert!(runv(&["verify", "rw", "readers=abc"]).is_err());
        assert!(runv(&["verify", "rw", "variant=nope"]).is_err());
        assert!(runv(&["verify", "one-slot", "substrate=nope"]).is_err());
        assert!(runv(&["verify", "nope"]).is_err());
        assert!(runv(&["verify", "rw", "noequals"]).is_err());
        assert!(runv(&["verify"]).is_err());
    }

    #[test]
    fn misspelled_param_rejected() {
        // Not a silent sweep of the default `items=4`.
        let e = runv(&["explore", "bounded", "itmes=2", "--heartbeat", "0"]).unwrap_err();
        assert!(e.to_string().contains("itmes=2"), "{e}");
        assert!(e.to_string().contains("items"), "{e}");
        // Nor a silent sweep of the last of two values.
        let e = runv(&["verify", "bounded", "items=2", "items=3"]).unwrap_err();
        assert!(e.to_string().contains("items"), "{e}");
    }

    #[test]
    fn degenerate_bounds_are_errors_not_panics() {
        for (args, key) in [
            (["verify", "bounded", "cap=0"], "cap"),
            (["verify", "philosophers", "n=0"], "n"),
            (["verify", "philosophers", "n=1"], "n"),
            (["verify", "db-update", "sites=0"], "sites"),
            (["verify", "life", "gens=0"], "gens"),
            (["verify", "rw", "rounds=0"], "rounds"),
        ] {
            let e = runv(&args).unwrap_err().to_string();
            assert!(
                e.starts_with(&format!("{key} must be at least")),
                "{args:?}: {e}"
            );
        }
    }

    #[test]
    fn inapplicable_param_rejected() {
        // Philosophers exist on ADA only: `substrate=csp` must not run
        // the ADA program as if it had been honoured.
        let e = runv(&[
            "explore",
            "philosophers",
            "n=2",
            "substrate=csp",
            "--heartbeat",
            "0",
        ])
        .unwrap_err();
        assert!(e.to_string().contains("substrate=csp"), "{e}");
    }

    #[test]
    fn philosophers_deadlock_command() {
        let out = runv(&["deadlock", "philosophers", "n=3", "order=naive"]).unwrap();
        assert!(out.contains("DEADLOCK"), "{out}");
        let out = runv(&["deadlock", "philosophers", "n=3", "order=asymmetric"]).unwrap();
        assert!(out.contains("no deadlock"), "{out}");
    }

    #[test]
    fn deadlock_stats_report_the_search() {
        let dir = std::env::temp_dir().join("gem-cli-test-deadlock-stats");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.json");
        let path_s = path.to_str().unwrap().to_owned();
        let out = runv(&[
            "deadlock",
            "philosophers",
            "n=3",
            "order=naive",
            "--stats-json",
            &path_s,
            "--heartbeat",
            "0",
        ])
        .unwrap();
        assert!(out.contains("DEADLOCK"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        let report = gem_obs::Report::from_json(&json).unwrap();
        assert!(
            report.counters.get("explore.runs").copied() > Some(0),
            "{json}"
        );
        assert!(report.counters.contains_key("explore.prune.hits"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csp_substrate_selectable() {
        let out = runv(&["verify", "bounded", "items=2", "cap=1", "substrate=csp"]).unwrap();
        assert!(out.contains("HOLDS"), "{out}");
        let out = runv(&["verify", "one-slot", "items=2", "substrate=ada"]).unwrap();
        assert!(out.contains("HOLDS"), "{out}");
    }

    #[test]
    fn obs_flags_are_stripped_anywhere() {
        // A flag between positional args must not disturb dispatch.
        let out = runv(&["verify", "--heartbeat", "0", "one-slot", "items=2"]).unwrap();
        assert!(out.contains("HOLDS"), "{out}");
        let out = runv(&["--stats", "explore", "rw", "readers=1", "writers=1"]).unwrap();
        assert!(out.contains("schedules:"), "{out}");
    }

    #[test]
    fn stats_json_writes_report() {
        let dir = std::env::temp_dir().join("gem-cli-test-stats");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one-slot.json");
        let path_s = path.to_str().unwrap().to_owned();
        let out = run(&[
            "verify".to_owned(),
            "one-slot".to_owned(),
            "items=2".to_owned(),
            format!("--stats-json={path_s}"),
            "--heartbeat=0".to_owned(),
        ])
        .unwrap()
        .stdout;
        assert!(out.contains("HOLDS"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"explore.runs\""), "{json}");
        assert!(json.contains("\"explore.steps\""), "{json}");
        assert!(json.contains("\"explore.prune.hits\""), "{json}");
        assert!(json.contains("\"verify.deadlocks\""), "{json}");
        // One-slot's restrictions are all in the incremental fragment, so
        // the sweep reports incremental counters instead of batch
        // `restriction.evals`.
        assert!(
            json.contains("\"logic.incr.restrictions.compiled\""),
            "{json}"
        );
        assert!(json.contains("\"logic.incr.leaf_clean\""), "{json}");
        assert!(!json.contains("\"restriction.evals\""), "{json}");
        assert!(json.contains("\"total\""), "{json}"); // wall-time span
        assert!(json.contains("\"command\": \"verify\""), "{json}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_flag_writes_events() {
        let dir = std::env::temp_dir().join("gem-cli-test-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let path_s = path.to_str().unwrap().to_owned();
        runv(&[
            "explore",
            "one-slot",
            "items=2",
            "--trace",
            &path_s,
            "--heartbeat",
            "0",
        ])
        .unwrap();
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.lines().count() > 0);
        assert!(trace.contains("explore.runs"), "{trace}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_flags_reported() {
        assert!(runv(&["verify", "one-slot", "--bogus"]).is_err());
        assert!(runv(&["verify", "one-slot", "--stats-json"]).is_err());
        assert!(runv(&["verify", "one-slot", "--heartbeat", "abc"]).is_err());
        assert!(runv(&["verify", "one-slot", "--heartbeat", "-1"]).is_err());
        // No `Duration` holds these: rejected, not a panic in the ticker.
        assert!(runv(&["verify", "one-slot", "--heartbeat", "inf"]).is_err());
        assert!(runv(&["verify", "one-slot", "--heartbeat", "1e300"]).is_err());
        assert!(runv(&["verify", "one-slot", "--stats=yes"]).is_err());
        assert!(runv(&["verify", "one-slot", "--por=yes"]).is_err());
    }

    #[test]
    fn profile_renders_phase_table_and_verdicts() {
        // A failing instance sends its violating leaves down the batch
        // pipeline, so every batch phase shows up in the table.
        let out = runv(&[
            "profile",
            "rw",
            "readers=1",
            "writers=2",
            "variant=writers",
            "--heartbeat",
            "0",
        ])
        .unwrap();
        assert!(out.contains("FAILS"), "{out}");
        assert!(out.contains("phase.explore"), "{out}");
        assert!(out.contains("phase.seal"), "{out}");
        assert!(out.contains("\nphase.check "), "{out}");
        assert!(out.contains("accounted"), "{out}");
        assert!(out.contains("wall (verify)"), "{out}");
        // The per-restriction breakdown attributes the batch evals of
        // the three failing leaves to each of the five restrictions.
        assert!(out.contains("check breakdown by restriction:"), "{out}");
        assert!(out.contains("#0 "), "{out}");
        assert_eq!(out.matches(" 3 batch eval(s), ").count(), 5, "{out}");
    }

    #[test]
    fn profile_with_incremental_collapses_check_phase() {
        // An in-fragment spec: the batch check phase disappears,
        // phase.check_incr takes over, and the breakdown tags every
        // restriction leaf-judged and settled per event during replay,
        // so none is evaluated on any of the 53 clean leaves, with zero
        // batch evals — the collapse the speedup comes from.
        let out = runv(&["profile", "one-slot", "items=2", "--heartbeat", "0"]).unwrap();
        assert!(out.contains("HOLDS"), "{out}");
        assert!(out.contains("phase.check_incr"), "{out}");
        assert!(!out.contains("phase.seal"), "{out}");
        for row in [
            "#0 deposits-alternate [leaf] 165 settled per event, 0 leaf eval(s), ",
            "#1 removals-alternate [leaf] 174 settled per event, 0 leaf eval(s), ",
            "#2 remove-takes-last-deposit [leaf] 68 settled per event, 0 leaf eval(s), ",
        ] {
            assert!(out.contains(row), "{row}\n{out}");
        }
        assert_eq!(out.matches("; 0 batch eval(s)").count(), 3, "{out}");
        assert!(out.contains("incremental check: "), "{out}");
        assert!(out.contains("proven clean"), "{out}");
    }

    #[test]
    fn explain_flag_appends_verdicts_to_verify() {
        let out = runv(&[
            "verify",
            "one-slot",
            "items=2",
            "--por",
            "--explain",
            "--heartbeat",
            "0",
        ])
        .unwrap();
        assert!(out.contains("HOLDS"), "{out}");
        assert!(out.contains("\nPOR: "), "{out}");
    }

    #[test]
    fn explain_reports_incremental_verdict_by_default() {
        let out = runv(&[
            "verify",
            "one-slot",
            "items=2",
            "--explain",
            "--heartbeat",
            "0",
        ])
        .unwrap();
        assert!(out.contains("HOLDS"), "{out}");
        assert!(out.contains("incremental check: "), "{out}");
        assert!(out.contains("proven clean"), "{out}");
    }

    #[test]
    fn explain_counts_deadlocked_leaves_as_batch_judged() {
        // The checker proves all 37 leaves clean, but the 7 deadlocked
        // ones are judged by batch, and the leaf split says so.
        for command in ["verify", "profile"] {
            let mut args = vec![command, "philosophers", "n=3", "order=naive", "--por"];
            if command == "verify" {
                args.push("--explain");
            }
            args.extend(["--heartbeat", "0"]);
            let out = runv(&args).unwrap();
            assert!(out.contains("7 deadlock(s)"), "{out}");
            assert!(
                out.contains("incremental check: 30/37 leaf(s) proven clean (81%)"),
                "{out}"
            );
            assert!(out.contains("; 7 fell back to batch checking"), "{out}");
        }
    }

    #[test]
    fn trace_out_writes_chrome_trace() {
        let dir = std::env::temp_dir().join("gem-cli-test-chrome");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let path_s = path.to_str().unwrap().to_owned();
        runv(&[
            "verify",
            "one-slot",
            "items=2",
            "--trace-out",
            &path_s,
            "--heartbeat",
            "0",
        ])
        .unwrap();
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.starts_with("{\"traceEvents\": ["), "{trace}");
        assert!(trace.contains("\"ph\": \"X\""), "duration events: {trace}");
        assert!(trace.contains("\"ph\": \"C\""), "counter events: {trace}");
        gem_obs::json::parse(&trace).expect("valid JSON");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn output_flags_fail_before_the_sweep() {
        // A missing directory is reported up front, naming the flag, and
        // the 6297-run bounded sweep never starts: the `--trace` stream,
        // opened after the check, is never created.
        let dir = std::env::temp_dir().join("gem-cli-test-output-dirs");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        std::fs::remove_file(&trace).ok();
        let trace_s = trace.to_str().unwrap().to_owned();
        let missing = dir.join("missing").join("x.json");
        let missing = missing.to_str().unwrap();
        for flag in ["--stats-json", "--trace-out", "--metrics-out"] {
            let args = ["verify", "bounded", flag, missing, "--trace", &trace_s];
            let msg = runv(&args).unwrap_err().to_string();
            assert!(msg.starts_with(flag), "{msg}");
            assert!(msg.contains("does not exist"), "{msg}");
            assert!(!trace.exists(), "{flag}: the sweep ran first");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compile_flag_is_gone() {
        // Compiled step execution is the only step path: the old switch
        // is an ordinary unknown flag, rejected with usage, not a panic.
        let e = runv(&["verify", "one-slot", "items=2", "--compile", "off"]).unwrap_err();
        assert!(
            e.to_string().starts_with("unknown flag \"--compile\""),
            "{e}"
        );
        let dir = std::env::temp_dir().join("gem-cli-test-code-stats");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.json");
        let path_s = path.to_str().unwrap().to_owned();
        runv(&[
            "verify",
            "one-slot",
            "items=2",
            "--stats-json",
            &path_s,
            "--heartbeat",
            "0",
        ])
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let report = gem_obs::Report::from_json(&json).unwrap();
        assert!(report.counters.get("code.programs").copied().unwrap_or(0) > 0);
        assert!(
            !report.config.contains_key("compile"),
            "{:?}",
            report.config
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_flag_is_gone() {
        // The strategy picker is gone: `--auto` is an ordinary unknown
        // flag, and the stats report records no strategy.
        for flag in ["--auto", "--auto=yes"] {
            let e = runv(&["verify", "one-slot", "items=2", flag]).unwrap_err();
            assert!(e.to_string().starts_with("unknown flag \"--auto\""), "{e}");
        }
        let dir = std::env::temp_dir().join("gem-cli-test-auto-gone");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.json");
        let path_s = path.to_str().unwrap().to_owned();
        let out = runv(&[
            "verify",
            "one-slot",
            "items=2",
            "--stats-json",
            &path_s,
            "--heartbeat",
            "0",
        ])
        .unwrap();
        assert!(!out.contains("strategy"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        let report = gem_obs::Report::from_json(&json).unwrap();
        assert!(
            report
                .config
                .keys()
                .all(|k| k != "auto" && !k.starts_with("strategy")),
            "{:?}",
            report.config
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recorder_cap_flag_is_gone() {
        let e = runv(&["verify", "one-slot", "--recorder-cap", "256"]).unwrap_err();
        assert!(e.to_string().contains("unknown flag"), "{e}");
        assert!(runv(&["verify", "one-slot", "--explain=yes"]).is_err());
    }

    #[test]
    fn stats_json_has_config_section() {
        let dir = std::env::temp_dir().join("gem-cli-test-config");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.json");
        let path_s = path.to_str().unwrap().to_owned();
        runv(&[
            "verify",
            "one-slot",
            "items=2",
            "--stats-json",
            &path_s,
            "--heartbeat",
            "0",
        ])
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let report = gem_obs::Report::from_json(&json).unwrap();
        assert_eq!(report.config.get("dedup"), None, "{:?}", report.config);
        assert_eq!(report.config.get("jobs"), None, "{:?}", report.config);
        assert_eq!(report.config.get("por").map(String::as_str), Some("false"));
        assert_eq!(
            report.meta.get("gem_version").map(String::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(
            report.wall_time_ns().unwrap_or(0) > 0,
            "total span recorded"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_out_writes_lintable_exposition() {
        let dir = std::env::temp_dir().join("gem-cli-test-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.om");
        let path_s = path.to_str().unwrap().to_owned();
        runv(&[
            "verify",
            "one-slot",
            "items=2",
            "--metrics-out",
            &path_s,
            "--heartbeat",
            "0",
        ])
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = gem_obs::lint_openmetrics(&text).unwrap();
        assert!(summary.snapshots >= 2, "{summary:?}");
        assert!(text.contains("gem_explore_runs_total"), "{text}");
        assert!(text.ends_with("# EOF\n"), "{text}");
        // The lint subcommand accepts the same file.
        let out = runv(&["metrics-lint", &path_s]).unwrap();
        assert!(out.contains("OK"), "{out}");
        // The JSON time-series rides along.
        let json = std::fs::read_to_string(format!("{path_s}.json")).unwrap();
        let parsed = gem_obs::json::parse(&json).expect("valid JSON");
        assert!(parsed.get("interval_ms").is_some(), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_lint_rejects_bad_files() {
        assert!(runv(&["metrics-lint"]).is_err());
        assert!(runv(&["metrics-lint", "/nonexistent/gem-metrics.om"]).is_err());
        let dir = std::env::temp_dir().join("gem-cli-test-metrics-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.om");
        std::fs::write(&path, "gem_x_total 1 0.000\n").unwrap();
        assert!(runv(&["metrics-lint", path.to_str().unwrap()]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ticker_beats_on_the_clock_not_on_run_counts() {
        // A sweep of 10 slow runs: the heartbeat is due by elapsed time
        // alone. (A rate limiter that consults the clock once per 1000
        // `explore.runs` increments never prints for it.)
        let stats = Arc::new(StatsProbe::new());
        let five = Duration::from_secs(5);
        let mut ticker = Ticker::new(stats.clone(), Some((five, View::Heartbeat)), None);
        let mut out = Vec::new();
        stats.add("explore.runs", 10);
        stats.add("explore.steps", 40);
        assert_eq!(
            ticker.tick(Duration::from_secs(1), &mut out),
            Duration::from_secs(4)
        );
        assert!(out.is_empty(), "nothing due before one period");
        assert_eq!(ticker.tick(five, &mut out), five);
        stats.add("explore.runs", 10);
        ticker.tick(Duration::from_secs(10), &mut out);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "[gem] 10 run(s), 40 step(s), 5.0s elapsed (2 runs/s)\n\
             [gem] 20 run(s), 40 step(s), 10.0s elapsed (2 runs/s)\n"
        );
        let mut out = Vec::new();
        assert!(ticker.finish(Duration::from_secs(20), &mut out).is_none());
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "[gem] done: 20 run(s), 40 step(s), 20.0s elapsed (1 runs/s)\n"
        );
    }

    #[test]
    fn ticker_snapshots_the_series_and_repaints_top() {
        let stats = Arc::new(StatsProbe::new());
        let second = Duration::from_secs(1);
        let series = Series::new(second);
        let mut ticker = Ticker::new(stats.clone(), Some((second * 2, View::Top)), Some(series));
        let mut out = Vec::new();
        stats.add("explore.runs", 3);
        assert_eq!(ticker.tick(second, &mut out), second, "snapshot due first");
        assert!(out.is_empty());
        ticker.tick(second * 2, &mut out);
        let frame = String::from_utf8(out).unwrap();
        assert!(
            frame.starts_with("\x1b[2J\x1b[Hgem top — 2.0s elapsed"),
            "{frame}"
        );
        stats.add("explore.runs", 4);
        let series = ticker.finish(second * 3, &mut Vec::new()).unwrap();
        let runs: Vec<(u64, Option<u64>)> = series
            .snapshots()
            .iter()
            .map(|s| (s.at_ms, s.counters.get("explore.runs").copied()))
            .collect();
        assert_eq!(
            runs,
            vec![(0, None), (1000, Some(3)), (2000, Some(3)), (3000, Some(7))]
        );
    }

    #[test]
    fn top_renders_dashboard() {
        let out = runv(&["top", "one-slot", "items=2", "--heartbeat", "0"]).unwrap();
        assert!(out.contains("gem top"), "{out}");
        assert!(out.contains("runs: "), "{out}");
        assert!(out.contains("HOLDS"), "{out}");
    }

    #[test]
    fn explain_posts_only_the_run_estimate() {
        // The pre-sweep sampler feeds the Knuth run estimate and nothing
        // else: no collapse estimate, no sampled key or check costs.
        let dir = std::env::temp_dir().join("gem-cli-test-estimate");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.json");
        let path_s = path.to_str().unwrap().to_owned();
        let out = runv(&[
            "verify",
            "bounded",
            "items=4",
            "cap=2",
            "--explain",
            "--stats-json",
            &path_s,
            "--heartbeat",
            "0",
        ])
        .unwrap();
        assert!(out.contains("HOLDS"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        let report = gem_obs::Report::from_json(&json).unwrap();
        assert_eq!(report.counters.get("estimate.samples"), Some(&SAMPLES));
        assert!(
            report
                .gauges
                .get("estimate.total_runs")
                .copied()
                .unwrap_or(0)
                > 0
        );
        let estimate_keys = |keys: Vec<&String>| -> Vec<String> {
            keys.into_iter()
                .filter(|k| k.starts_with("estimate."))
                .cloned()
                .collect()
        };
        assert_eq!(
            estimate_keys(report.gauges.keys().collect()),
            ["estimate.total_runs"]
        );
        assert!(estimate_keys(report.timers.keys().collect()).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
