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
//! gem bench-diff <old> <new>     compare two benchmark reports, gate regressions
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
//! * `--trace <path>` — stream every probe event as JSONL
//! * `--heartbeat <secs>` — progress line cadence on stderr (default 5;
//!   0 disables)
//! * `--jobs <n>` — explorer worker threads (default 1, 0 = auto)
//! * `--por` — sleep-set partial-order reduction (one schedule per
//!   computation, same verdict)
//! * `--dedup` — deduplicate trace-equivalent computations in
//!   `verify`/`explore` sweeps (same results, less checking work; see
//!   `docs/PERFORMANCE.md`)
//! * `--incr-check auto|on|off` — incremental restriction checking along
//!   the DFS tree (default `auto`; same verdicts in every mode, see
//!   `docs/PERFORMANCE.md` §6)
//! * `--artifacts <dir>` — on `verify`, dump the first failing or
//!   deadlocked run as a self-contained counterexample artifact directory
//!   (schedule, computation, blame, highlighted dot), and arm a flight
//!   recorder that dumps `<dir>/crash.json` if the process panics
//! * `--recorder-cap <n>` — flight-recorder events kept per thread
//!   (default 256; also settable via `GEM_RECORDER_CAP`)
//! * `--trace-out <path>` — write a Chrome-trace (`chrome://tracing` /
//!   Perfetto) JSON of timer spans and counter totals
//! * `--metrics-out <path>` — sample cumulative counters/gauges once a
//!   second during the sweep and write an OpenMetrics text exposition
//!   (plus a `<path>.json` time-series) when the command finishes
//! * `--explain` — append reduction cost/benefit verdicts (dedup
//!   measured/predicted, POR attribution, incremental-check coverage)
//!   after the command output
//! * `--json <path>` — on `bench-diff`, also write the comparison as
//!   machine-readable JSON
//!
//! The command dispatch lives in this library so it can be tested; the
//! `gem` binary is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use gem_core::Computation;
use gem_lang::ada::AdaSystem;
use gem_lang::csp::CspSystem;
use gem_lang::monitor::{readers_writers_monitor, MonitorSystem, SignalSemantics};
use gem_lang::{CodeStats, Explorer, System};
use gem_obs::json::JsonValue;
use gem_obs::{
    install_crash_sink, write_atomic, ChromeTraceProbe, FanoutProbe, HeartbeatProbe, NoopProbe,
    PhaseProfile, Probe, RecorderProbe, SeriesProbe, Span, StatsProbe, TraceProbe,
};
use gem_problems::readers_writers::{
    mesa_safe_readers_writers_monitor, rw_correspondence, rw_program_with_semantics,
    rw_rounds_program, rw_spec, writers_priority_monitor, RwVariant,
};
use gem_problems::{bounded, db_update, life, one_slot};
use gem_spec::{render_specification, Specification};
use gem_verify::auto::{self, StrategyDecision, StrategyEvidence};
use gem_verify::{
    check_computation, sample_evidence, verify_system, ArtifactSink, Correspondence, IncrCheck,
    RunFailure, VerifyOptions, VerifyOutcome,
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

    fn f64(&self, key: &str, default: f64) -> Result<f64, CliError> {
        self.parsed(key, default, "a number")
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
trait Substrate: System<State: Send, Action: Send> + Sync {
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
            let rounds = p.usize("rounds", 1)?;
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
            let gens = p.usize("gens", 2)?;
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
    jobs: Option<usize>,
    dedup: bool,
    por: bool,
    auto: bool,
    incr_check: IncrCheck,
    explain: bool,
    artifacts: Option<String>,
    recorder_cap: Option<usize>,
    json_out: Option<String>,
    /// Filled in by `verify --auto`: the sampled decision, carried back
    /// so the stats report's config section can record it.
    strategy: Option<StrategyDecision>,
}

/// Splits `--stats` / `--stats-json` / `--trace` / `--trace-out` /
/// `--heartbeat` / `--jobs` / `--dedup` / `--por` / `--incr-check` /
/// `--explain` / `--artifacts` / `--recorder-cap` / `--json` (either
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
            "--jobs" => {
                let v = value("--jobs")?;
                let jobs: usize = v
                    .parse()
                    .map_err(|_| err(format!("--jobs must be a thread count, got {v:?}")))?;
                flags.jobs = Some(jobs);
            }
            "--dedup" => {
                if inline.is_some() {
                    return Err(err("--dedup takes no value"));
                }
                flags.dedup = true;
            }
            "--por" => {
                if inline.is_some() {
                    return Err(err("--por takes no value"));
                }
                flags.por = true;
            }
            "--auto" => {
                if inline.is_some() {
                    return Err(err("--auto takes no value"));
                }
                flags.auto = true;
            }
            "--explain" => {
                if inline.is_some() {
                    return Err(err("--explain takes no value"));
                }
                flags.explain = true;
            }
            "--incr-check" => {
                let v = value("--incr-check")?;
                flags.incr_check = match v.as_str() {
                    "auto" => IncrCheck::Auto,
                    "on" => IncrCheck::On,
                    "off" => IncrCheck::Off,
                    other => {
                        return Err(err(format!(
                            "--incr-check must be auto, on, or off, got {other:?}"
                        )))
                    }
                };
            }
            "--trace" => flags.trace = Some(value("--trace")?),
            "--trace-out" => flags.trace_out = Some(value("--trace-out")?),
            "--metrics-out" => flags.metrics_out = Some(value("--metrics-out")?),
            "--artifacts" => flags.artifacts = Some(value("--artifacts")?),
            "--recorder-cap" => {
                let v = value("--recorder-cap")?;
                let cap: usize = v.parse().map_err(|_| {
                    err(format!("--recorder-cap must be an event count, got {v:?}"))
                })?;
                flags.recorder_cap = Some(cap);
            }
            "--json" => flags.json_out = Some(value("--json")?),
            "--heartbeat" => {
                let v = value("--heartbeat")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| err(format!("--heartbeat must be seconds, got {v:?}")))?;
                if secs.is_nan() || secs < 0.0 {
                    return Err(err(format!("--heartbeat must be >= 0, got {v:?}")));
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
/// composed probe so the stats sink can be read back after the command.
struct ObsSetup {
    probe: Arc<dyn Probe>,
    stats_sink: Option<Arc<StatsProbe>>,
    trace_sink: Option<Arc<TraceProbe>>,
    chrome_sink: Option<Arc<ChromeTraceProbe>>,
    heartbeat_sink: Option<Arc<HeartbeatProbe>>,
    series_sink: Option<Arc<SeriesProbe>>,
}

/// Cadence of `--metrics-out` snapshots. Fixed rather than configurable:
/// the ring holds over an hour of history at this rate, and the final
/// unconditional snapshot covers sweeps faster than one interval.
const METRICS_INTERVAL: Duration = Duration::from_secs(1);

/// Probe events kept per thread by the `--artifacts` flight recorder
/// (override with `--recorder-cap` or `GEM_RECORDER_CAP`).
const RECORDER_CAPACITY: usize = 256;

/// Resolves the flight-recorder ring capacity: `--recorder-cap` wins,
/// then the `GEM_RECORDER_CAP` environment variable, then the default.
fn recorder_capacity(flags: &ObsFlags) -> Result<usize, CliError> {
    if let Some(cap) = flags.recorder_cap {
        return Ok(cap);
    }
    match std::env::var("GEM_RECORDER_CAP") {
        Ok(v) => v.parse().map_err(|_| {
            err(format!(
                "GEM_RECORDER_CAP must be an event count, got {v:?}"
            ))
        }),
        Err(_) => Ok(RECORDER_CAPACITY),
    }
}

fn obs_setup(flags: &ObsFlags) -> Result<ObsSetup, CliError> {
    // `--explain` derives its verdicts from the aggregated report, so it
    // implies a stats sink even without `--stats`.
    let stats_sink = if flags.stats || flags.stats_json.is_some() || flags.explain {
        Some(Arc::new(StatsProbe::new()))
    } else {
        None
    };
    let trace_sink = match &flags.trace {
        Some(path) => {
            Some(Arc::new(TraceProbe::create(path).map_err(|e| {
                err(format!("cannot create trace file {path:?}: {e}"))
            })?))
        }
        None => None,
    };
    let chrome_sink = flags
        .trace_out
        .as_ref()
        .map(|_| Arc::new(ChromeTraceProbe::new()));
    let heartbeat_secs = flags.heartbeat.unwrap_or(5.0);
    let heartbeat_sink = (heartbeat_secs > 0.0)
        .then(|| Arc::new(HeartbeatProbe::new(Duration::from_secs_f64(heartbeat_secs))));
    let series_sink = flags
        .metrics_out
        .as_ref()
        .map(|_| Arc::new(SeriesProbe::new(METRICS_INTERVAL)));
    let mut sinks: Vec<Arc<dyn Probe>> = Vec::new();
    if let Some(s) = &stats_sink {
        sinks.push(s.clone());
    }
    if let Some(t) = &trace_sink {
        sinks.push(t.clone());
    }
    if let Some(c) = &chrome_sink {
        sinks.push(c.clone());
    }
    if let Some(h) = &heartbeat_sink {
        sinks.push(h.clone());
    }
    if let Some(s) = &series_sink {
        sinks.push(s.clone());
    }
    // With an artifact directory, arm the flight recorder: the last
    // `--recorder-cap` probe events per thread plus live span stacks are
    // dumped to <dir>/crash.json if the process panics mid-sweep.
    if let Some(dir) = &flags.artifacts {
        std::fs::create_dir_all(dir)
            .map_err(|e| err(format!("cannot create artifact dir {dir:?}: {e}")))?;
        let recorder = Arc::new(RecorderProbe::new(recorder_capacity(flags)?));
        install_crash_sink(recorder.clone(), Path::new(dir).join("crash.json"));
        sinks.push(recorder);
    }
    let probe: Arc<dyn Probe> = match sinks.len() {
        0 => Arc::new(NoopProbe),
        1 => sinks.pop().expect("len checked"),
        _ => Arc::new(FanoutProbe::new(sinks)),
    };
    Ok(ObsSetup {
        probe,
        stats_sink,
        trace_sink,
        chrome_sink,
        heartbeat_sink,
        series_sink,
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

/// Executes a command line (without the leading program name), returning
/// the text to print.
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
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (args, mut flags) = split_flags(args)?;
    let obs = obs_setup(&flags)?;
    let mut result = {
        let _total = Span::enter(obs.probe.as_ref(), "total");
        dispatch(&args, &obs, &mut flags)
    };
    // The final heartbeat summary always flushes at end-of-sweep, even if
    // the rate limiter swallowed every periodic line.
    if let Some(hb) = &obs.heartbeat_sink {
        hb.finish();
    }
    // Reports are emitted even when the command failed: a truncated or
    // failing sweep's counters are exactly what one wants to inspect.
    if let Some(stats) = &obs.stats_sink {
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
        report
            .config
            .insert("jobs".to_owned(), flags.jobs.unwrap_or(1).to_string());
        report.config.insert("dedup".to_owned(), flag(flags.dedup));
        report.config.insert("por".to_owned(), flag(flags.por));
        report.config.insert("auto".to_owned(), flag(flags.auto));
        report.config.insert(
            "incr_check".to_owned(),
            match flags.incr_check {
                IncrCheck::Auto => "auto",
                IncrCheck::On => "on",
                IncrCheck::Off => "off",
            }
            .to_owned(),
        );
        // `verify --auto` records its decision and the full estimator
        // evidence, so a strategy choice is always auditable from the
        // stats report alone.
        if let Some(d) = &flags.strategy {
            let e = &d.evidence;
            report
                .config
                .insert("strategy".to_owned(), d.strategy.name().to_owned());
            report
                .config
                .insert("strategy.reason".to_owned(), d.reason.clone());
            report
                .config
                .insert("strategy.samples".to_owned(), e.samples.to_string());
            report
                .config
                .insert("strategy.est_runs".to_owned(), format!("{:.0}", e.est_runs));
            report.config.insert(
                "strategy.est_distinct".to_owned(),
                e.est_distinct.to_string(),
            );
            report.config.insert(
                "strategy.collapse_ratio".to_owned(),
                format!("{:.2}", e.collapse_ratio),
            );
            report.config.insert(
                "strategy.oracle_grants".to_owned(),
                e.oracle_grants.to_string(),
            );
            report.config.insert(
                "strategy.oracle_queries".to_owned(),
                e.oracle_queries.to_string(),
            );
            // The measured per-run key/check costs are timing data, so
            // they live in the `timers` section (`auto.key` /
            // `auto.check`, recorded by `auto_decide`) rather than
            // here: `config` stays byte-identical across runs.
            report.config.insert(
                "strategy.depth_limited".to_owned(),
                e.depth_limited.to_string(),
            );
            report.config.insert(
                "strategy.incr_supported".to_owned(),
                e.incr_supported.to_string(),
            );
        }
        report.config.insert(
            "heartbeat_secs".to_owned(),
            flags.heartbeat.unwrap_or(5.0).to_string(),
        );
        if flags.artifacts.is_some() {
            report.config.insert(
                "recorder_cap".to_owned(),
                recorder_capacity(&flags)?.to_string(),
            );
        }
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
                    out.push('\n');
                    out.push_str(&line);
                }
                if let Some(d) = &flags.strategy {
                    out.push('\n');
                    out.push_str(&format!("auto: chose {} — {}", d.strategy.name(), d.reason));
                }
            }
        }
    }
    if let Some(trace) = &obs.trace_sink {
        trace.flush();
    }
    if let (Some(chrome), Some(path)) = (&obs.chrome_sink, &flags.trace_out) {
        chrome
            .write_to(Path::new(path))
            .map_err(|e| err(format!("cannot write Chrome trace to {path:?}: {e}")))?;
        if chrome.dropped() > 0 {
            eprintln!(
                "trace-out: {} event(s) dropped past the buffer cap",
                chrome.dropped()
            );
        }
    }
    if let (Some(series), Some(path)) = (&obs.series_sink, &flags.metrics_out) {
        // The final snapshot is unconditional, so together with the
        // construction-time baseline every export has >= 2 snapshots —
        // enough for the lint's monotonicity check to bite.
        series.finish();
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

fn dispatch(args: &[String], obs: &ObsSetup, flags: &mut ObsFlags) -> Result<String, CliError> {
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
            probe: &obs.probe,
            flags,
        }
        .exec(command);
    }
    match cmd.as_str() {
        "list" => Ok(PROBLEMS.join("\n")),
        "replay" => {
            let dir = rest
                .first()
                .ok_or_else(|| err("replay needs an artifact directory"))?;
            replay_cmd(Path::new(dir), &obs.probe, flags)
        }
        "bench-diff" => bench_diff_cmd(rest, flags.json_out.as_deref()),
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
            ))
        }
        "help" | "--help" | "-h" => Ok(usage()),
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
/// and the command line's probe and flags.
struct Ctx<'a> {
    inst: &'a Instance,
    problem: &'a str,
    params: &'a [String],
    probe: &'a Arc<dyn Probe>,
    flags: &'a mut ObsFlags,
}

impl Ctx<'_> {
    /// Hands the instance's concrete system to [`command`]: the one place
    /// the CLI tells the substrates apart.
    fn exec(mut self, cmd: Command) -> Result<String, CliError> {
        let inst = self.inst;
        match &inst.program {
            Program::Monitor(sys) => command(sys, cmd, &mut self),
            Program::Csp(sys) => command(sys, cmd, &mut self),
            Program::Ada(sys) => command(sys, cmd, &mut self),
        }
    }

    /// The explorer of a full sweep: the instance's run bound and the
    /// command line's `--jobs`/`--por`/`--dedup`.
    fn explorer(&self) -> Explorer {
        Explorer {
            jobs: self.flags.jobs.unwrap_or(1),
            reduce: self.flags.por,
            dedup_computations: self.flags.dedup,
            ..Explorer::with_max_runs(self.inst.max_runs)
        }
    }

    /// The options of a `verify`, `profile` or `top` sweep reporting to
    /// `probe`.
    fn verify_options(&self, probe: Arc<dyn Probe>) -> VerifyOptions {
        VerifyOptions {
            explorer: self.explorer(),
            probe,
            incr_check: self.flags.incr_check,
            ..VerifyOptions::default()
        }
    }
}

fn command<S: Substrate>(sys: &S, cmd: Command, cx: &mut Ctx) -> Result<String, CliError> {
    // `replay` re-checks one recorded run; its report has no build
    // statistics.
    if !matches!(cmd, Command::Replay(_)) {
        let code = sys.code_stats();
        cx.probe.add("code.exprs", code.exprs);
        cx.probe.add("code.ops", code.ops);
        cx.probe.add("code.consts", code.consts);
        cx.probe.add("code.programs", code.programs);
        cx.probe.add("code.slots", code.slots);
        // A measured wall-clock value: recorded as a `_ns` histogram (one
        // sample), not a counter, so reports stay deterministic under
        // `without_timings()`.
        cx.probe.record("explore.compile_ns", code.compile_ns);
    }
    match cmd {
        Command::Render => Ok(render_specification(&cx.inst.spec)),
        Command::Verify => verify(sys, cx),
        Command::Profile => profile(sys, cx),
        Command::Top => top(sys, cx),
        Command::Explore => Ok(explore(sys, cx)),
        Command::Deadlock => Ok(deadlock(sys)),
        Command::Dot => Ok(first_dot(sys)),
        Command::Replay(recorded) => replay(sys, cx.inst, recorded),
    }
}

fn verify<S: Substrate>(sys: &S, cx: &mut Ctx) -> Result<String, CliError> {
    // `--auto`: sample the instance first and pick the reduction strategy
    // from the evidence, overriding any explicit `--dedup`/`--por`. The
    // decision is carried back on `flags` so the stats report's config
    // section records it.
    if cx.flags.auto {
        let decision = auto_decide(sys, cx.inst, cx.probe.as_ref());
        cx.flags.dedup = decision.strategy == auto::Strategy::Dedup;
        cx.flags.por = decision.strategy == auto::Strategy::Por;
        cx.flags.strategy = Some(decision);
    }
    let flags = &*cx.flags;
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
                .meta("dedup", bool_str(flags.dedup))
        }),
        ..cx.verify_options(cx.probe.clone())
    };
    // Under `--explain`, sample the run tree first so the report carries
    // search-space estimates (and the heartbeat can show % explored /
    // ETA); `--auto` has sampled it already.
    let evidence = flags.explain.then(|| match &flags.strategy {
        Some(decision) => decision.evidence.clone(),
        None => sample(sys, cx.inst),
    });
    let outcome = sweep(sys, cx.inst, &options, evidence.as_ref())?;
    let mut out = format_outcome(&outcome);
    if let Some(d) = &flags.strategy {
        out.push_str(&format!("\nstrategy: {} (auto)", d.strategy.name()));
    }
    if let Some(dir) = &flags.artifacts {
        out.push_str(&format!("\nartifacts: {dir}"));
    }
    Ok(out)
}

/// A stats sink of its own for `profile` and `top`, which render from it
/// whatever `--stats*` asked for, and the probe that feeds it alongside
/// the session's.
fn own_stats(probe: &Arc<dyn Probe>) -> (Arc<StatsProbe>, Arc<dyn Probe>) {
    let stats = Arc::new(StatsProbe::new());
    let combined: Arc<dyn Probe> = if probe.enabled() {
        Arc::new(FanoutProbe::new(vec![
            stats.clone() as Arc<dyn Probe>,
            probe.clone(),
        ]))
    } else {
        stats.clone()
    };
    (stats, combined)
}

fn profile<S: Substrate>(sys: &S, cx: &Ctx) -> Result<String, CliError> {
    let (stats, probe) = own_stats(cx.probe);
    let outcome = sweep(
        sys,
        cx.inst,
        &cx.verify_options(probe),
        Some(&sample(sys, cx.inst)),
    )?;
    let report = stats.report();
    let mut out = format_outcome(&outcome);
    out.push_str("\n\n");
    match PhaseProfile::from_report(&report) {
        Some(profile) => out.push_str(&profile.render()),
        None => out.push_str("no phase timers recorded\n"),
    }
    out.push('\n');
    out.push_str(&restriction_breakdown(&cx.inst.spec, &report));
    // Only present when the parallel explorer actually ran with
    // telemetry, i.e. `--jobs > 1` split work beyond the frontier.
    if let Some(table) = worker_table(&report) {
        out.push('\n');
        out.push_str(&table);
    }
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

/// Live single-screen dashboard: a ticker thread repaints runs/steps
/// rates, progress toward the sampled search-space estimate, worker
/// utilization and phase shares on stderr while the verify sweep runs on
/// this thread. The final frame plus the verdict is the stdout result, so
/// `gem top` stays scriptable.
fn top<S: Substrate>(sys: &S, cx: &Ctx) -> Result<String, CliError> {
    let (stats, probe) = own_stats(cx.probe);
    let options = cx.verify_options(probe);
    // Repaint on the heartbeat cadence (default 1s here: a dashboard
    // wants to move), 0 still disables.
    let refresh = cx.flags.heartbeat.unwrap_or(1.0);
    let started = std::time::Instant::now();
    let done = std::sync::atomic::AtomicBool::new(false);
    let outcome = std::thread::scope(|scope| {
        if refresh > 0.0 {
            scope.spawn(|| {
                let tick = Duration::from_millis(50);
                let mut since = Duration::ZERO;
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    std::thread::sleep(tick);
                    since += tick;
                    if since.as_secs_f64() >= refresh {
                        since = Duration::ZERO;
                        let frame = render_top(&stats.report(), started.elapsed());
                        eprint!("\x1b[2J\x1b[H{frame}");
                    }
                }
            });
        }
        let outcome = sweep(sys, cx.inst, &options, Some(&sample(sys, cx.inst)));
        done.store(true, std::sync::atomic::Ordering::Release);
        outcome
    })?;
    let mut out = render_top(&stats.report(), started.elapsed());
    out.push('\n');
    out.push_str(&format_outcome(&outcome));
    Ok(out)
}

fn explore<S: Substrate>(sys: &S, cx: &Ctx) -> String {
    let probe = cx.probe;
    let dedup = cx.flags.dedup;
    let _ambient = probe
        .enabled()
        .then(|| gem_obs::ambient::install(probe.clone()));
    let mut deadlocks = 0usize;
    // Fingerprint-bucketed exact dedup, mirroring verify_system: the free
    // rolling hash indexes, the closure-free confirmation key decides.
    let mut seen: std::collections::HashMap<u64, Vec<gem_verify::CanonicalKey>> =
        std::collections::HashMap::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut stats = cx
        .explorer()
        .par_for_each_run_probed(sys, probe.as_ref(), |state, _| {
            if !sys.is_complete(state) {
                deadlocks += 1;
            }
            if dedup {
                let comp = sys.seal(state);
                let bucket = seen.entry(comp.fingerprint()).or_default();
                let key = gem_verify::confirm_key(&comp);
                if bucket.contains(&key) {
                    hits += 1;
                } else {
                    bucket.push(key);
                    misses += 1;
                }
            }
            ControlFlow::Continue(())
        });
    probe.add("verify.deadlocks", deadlocks as u64);
    let mut dedup_note = String::new();
    if dedup {
        stats.dedup_hits = hits as usize;
        stats.dedup_misses = misses as usize;
        probe.add("explore.dedup.hits", hits);
        probe.add("explore.dedup.misses", misses);
        dedup_note = format!("  distinct computations: {misses}");
    }
    let por_note = if cx.flags.por {
        format!("  slept branches: {}", stats.sleep_skipped)
    } else {
        String::new()
    };
    format!(
        "schedules: {}{}  steps: {}  deadlocks: {deadlocks}{dedup_note}{por_note}",
        stats.runs,
        if stats.truncated() {
            "+ (truncated)"
        } else {
            ""
        },
        stats.steps,
    )
}

/// Deadlock is a state property, so control-state pruning is sound — and
/// necessary, since DFS order visits near-sequential schedules first.
fn deadlock<S: Substrate>(sys: &S) -> String {
    // The parallel explorer falls back to this serial path for pruned
    // searches, so `jobs` is moot.
    let explorer = Explorer {
        prune: true,
        ..Explorer::default()
    };
    match gem_lang::find_deadlock(sys, &explorer) {
        Some(path) => format!("DEADLOCK after {} action(s):\n{path:#?}", path.len()),
        None => "no deadlock (pruned state search)".to_owned(),
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

/// One worker's attribution totals, parsed back out of the
/// `worker.<k>.*` counters the ordered-commit pool emits.
#[derive(Clone, Copy, Debug, Default)]
struct WorkerRow {
    items: u64,
    leaves: u64,
    steps: u64,
    busy_ns: u64,
    idle_ns: u64,
}

fn worker_rows(report: &gem_obs::Report) -> BTreeMap<usize, WorkerRow> {
    let mut rows: BTreeMap<usize, WorkerRow> = BTreeMap::new();
    for (name, &v) in &report.counters {
        let Some(rest) = name.strip_prefix("worker.") else {
            continue;
        };
        let Some((ordinal, field)) = rest.split_once('.') else {
            continue;
        };
        let Ok(k) = ordinal.parse::<usize>() else {
            continue;
        };
        let row = rows.entry(k).or_default();
        match field {
            "items" => row.items = v,
            "leaves" => row.leaves = v,
            "steps" => row.steps = v,
            "busy_ns" => row.busy_ns = v,
            "idle_ns" => row.idle_ns = v,
            _ => {}
        }
    }
    rows
}

/// Renders the per-worker utilization table (`gem profile` / `gem top`
/// with `--jobs > 1`). Utilization is busy / (busy + idle); a worker's
/// idle time is commit lag — blocked sends while the in-order committer
/// drains earlier work items.
fn worker_table(report: &gem_obs::Report) -> Option<String> {
    let rows = worker_rows(report);
    if rows.is_empty() {
        return None;
    }
    let mut out = format!(
        "{:<8} {:>7} {:>9} {:>9} {:>11} {:>11} {:>5}\n",
        "worker", "items", "leaves", "steps", "busy", "idle", "util"
    );
    for (k, r) in &rows {
        let denom = r.busy_ns + r.idle_ns;
        let util = if denom > 0 {
            r.busy_ns as f64 / denom as f64 * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<8} {:>7} {:>9} {:>9} {:>11} {:>11} {util:>4.0}%\n",
            format!("w{k}"),
            r.items,
            r.leaves,
            r.steps,
            human_ns(r.busy_ns),
            human_ns(r.idle_ns)
        ));
    }
    Some(out)
}

/// Renders one `gem top` frame: sweep totals with rates, progress toward
/// the sampled search-space estimate (the `estimate.total_runs` gauge),
/// the per-worker utilization table, and phase shares — all pure
/// functions of the live stats report.
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
    if let Some(table) = worker_table(report) {
        out.push('\n');
        out.push_str(&table);
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
/// collapse to zero — that collapse *is* the speedup being attributed.
fn restriction_breakdown(spec: &Specification, report: &gem_obs::Report) -> String {
    let wall = report
        .timers
        .get("verify")
        .or_else(|| report.timers.get("total"))
        .map(|t| t.total_ns)
        .unwrap_or(0);
    let s = spec.structure();
    let mut out = String::from("check breakdown by restriction:\n");
    for (i, r) in spec.restrictions().iter().enumerate() {
        let evals = report
            .counters
            .get(&format!("logic.check.by_restriction.{i}.evals"))
            .copied()
            .unwrap_or(0);
        let ns = report
            .timers
            .get(&format!("logic.check.by_restriction.{i}.ns"))
            .map(|t| t.total_ns)
            .unwrap_or(0);
        let tag =
            if report
                .counters
                .get(&format!("logic.incr.restriction.{}.incremental", r.name))
                .copied()
                .unwrap_or(0)
                > 0
            {
                "incremental".to_owned()
            } else if let Some(reason) = report.counters.keys().find_map(|k| {
                k.strip_prefix(&format!("logic.incr.restriction.{}.fallback.", r.name))
            }) {
                format!("fallback: {reason}")
            } else {
                "batch".to_owned()
            };
        let pct = if wall > 0 {
            ns as f64 * 100.0 / wall as f64
        } else {
            0.0
        };
        let mut rendered = r.formula.render(s);
        if rendered.chars().count() > 64 {
            rendered = rendered.chars().take(63).collect::<String>() + "…";
        }
        out.push_str(&format!(
            "  #{i} {} [{tag}] {evals} batch eval(s), {} ({pct:.1}% of wall)\n      {rendered}\n",
            r.name,
            human_ns(ns),
        ));
    }
    out
}

/// Samples random runs of `sys` with the shared sampler
/// ([`sample_evidence`]): the evidence both `verify --auto` decides on and
/// the `estimate.*` keys report.
fn sample<S: Substrate>(sys: &S, inst: &Instance) -> StrategyEvidence {
    let defaults = VerifyOptions::default();
    sample_evidence(
        &defaults.explorer,
        sys,
        |s| sys.seal(s),
        |comp| {
            let _ = check_computation(
                comp,
                &inst.spec,
                &inst.corr,
                defaults.strategy,
                defaults.check_program_legality,
            );
        },
        auto::AUTO_SAMPLES,
        auto::AUTO_CHECKS,
    )
}

/// Samples the instance and picks the exploration strategy for
/// `verify --auto` ([`gem_verify::auto`]), posting the evidence on the
/// probe (`auto.*` counters, gauges, and the `auto.key` / `auto.check`
/// cost timers) so heartbeats and stats reports see what the decision
/// was based on. Sampling happens before the `verify` span opens and
/// emits nothing into the phase timers.
fn auto_decide<S: Substrate>(sys: &S, inst: &Instance, probe: &dyn Probe) -> StrategyDecision {
    let mut evidence = sample(sys, inst);
    // When the spec compiles for incremental checking, the sweep's clean
    // leaves skip batch checks entirely — the chooser must not credit
    // dedup with savings the incremental path already banks.
    evidence.incr_supported = !gem_verify::IncrChecker::new(
        &inst.spec,
        &inst.corr,
        VerifyOptions::default().check_program_legality,
    )
    .global_fallback();
    probe.add("auto.incr_supported", u64::from(evidence.incr_supported));
    probe.add("auto.samples", evidence.samples as u64);
    probe.add("auto.oracle_grants", evidence.oracle_grants);
    probe.add("auto.oracle_queries", evidence.oracle_queries);
    probe.gauge_set("auto.est_runs", evidence.est_runs.round() as u64);
    probe.gauge_set("auto.est_distinct", evidence.est_distinct);
    // Measured costs go to the timer section (the one section report
    // determinism is defined modulo), not to gauges or config.
    probe.time_ns("auto.key", evidence.key_ns);
    probe.time_ns("auto.check", evidence.check_ns);
    auto::choose(evidence)
}

/// Runs the verification sweep, first posting the search-space estimates
/// of `evidence` when given:
///
/// * `estimate.total_runs` (gauge) — Knuth weighted-backtrack estimate of
///   the number of maximal runs; the heartbeat turns it into
///   `% explored` / ETA.
/// * `estimate.distinct_computations` (gauge) — capture-recapture
///   estimate of the distinct computations (the collapse ratio).
/// * `estimate.key` / `estimate.check` (timers) — sampled per-run keying
///   and checking costs, which price the predicted dedup verdict in
///   `--explain` when dedup is off.
///
/// Sampling happens *before* the `verify` span opens, so the phase table
/// still partitions the sweep's wall time.
fn sweep<S: Substrate>(
    sys: &S,
    inst: &Instance,
    options: &VerifyOptions,
    evidence: Option<&StrategyEvidence>,
) -> Result<VerifyOutcome, CliError> {
    if let Some(e) = evidence {
        let probe = options.probe.as_ref();
        probe.add("estimate.samples", e.samples as u64);
        probe.gauge_set("estimate.total_runs", (e.est_runs.round() as u64).max(1));
        probe.gauge_set("estimate.distinct_computations", e.est_distinct);
        probe.time_ns("estimate.key", e.key_ns);
        probe.time_ns("estimate.check", e.check_ns);
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

fn replay_cmd(
    dir: &Path,
    probe: &Arc<dyn Probe>,
    flags: &mut ObsFlags,
) -> Result<String, CliError> {
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
        probe,
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

/// Flattens a benchmark JSON file into `metric -> mean ns`. Accepts both
/// gem-obs reports (criterion-shim output, `"timers"` section) and the
/// committed `BENCH_*.json` trajectory files (their `"after"` section is
/// the baseline).
fn bench_metrics(v: &JsonValue, file: &str) -> Result<BTreeMap<String, f64>, CliError> {
    let mut out = BTreeMap::new();
    if let Some(timers) = v.get("timers").and_then(JsonValue::as_obj) {
        for (name, t) in timers {
            if let Some(mean) = t.get("mean_ns").and_then(JsonValue::as_f64) {
                out.insert(name.clone(), mean);
            }
        }
    } else if let Some(after) = v.get("after").and_then(JsonValue::as_obj) {
        for (_bench, metrics) in after {
            if let Some(metrics) = metrics.as_obj() {
                for (name, ns) in metrics {
                    if let Some(ns) = ns.as_f64() {
                        out.insert(name.clone(), ns);
                    }
                }
            }
        }
    }
    if out.is_empty() {
        return Err(err(format!(
            "{file}: no timer metrics found (expected a gem-obs report with \"timers\" \
             or a BENCH trajectory with \"after\")"
        )));
    }
    Ok(out)
}

/// Serialises a bench-diff comparison as deterministic JSON (metrics in
/// `BTreeMap` order) for CI consumption.
fn bench_diff_json(
    threshold: f64,
    old: &BTreeMap<String, f64>,
    new: &BTreeMap<String, f64>,
    regressions: &[String],
) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str(&format!("  \"threshold_pct\": {threshold},\n"));
    out.push_str(&format!("  \"regressions\": {},\n", regressions.len()));
    out.push_str("  \"metrics\": {\n");
    let mut first = true;
    for (name, old_ns) in old {
        let Some(new_ns) = new.get(name) else {
            continue;
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let delta = if *old_ns > 0.0 {
            (new_ns - old_ns) / old_ns * 100.0
        } else {
            0.0
        };
        let mut entry = String::new();
        gem_obs::json::push_json_str(&mut entry, name);
        out.push_str(&format!(
            "    {entry}: {{\"baseline_ns\": {old_ns:.0}, \"current_ns\": {new_ns:.0}, \
             \"delta_pct\": {delta:.2}, \"regressed\": {}}}",
            delta > threshold
        ));
    }
    out.push_str("\n  }\n}\n");
    out
}

fn bench_diff_cmd(rest: &[String], json_out: Option<&str>) -> Result<String, CliError> {
    let usage = "bench-diff needs two report files: \
                 gem bench-diff <baseline.json> <current.json> [threshold=25] \
                 [limit:<metric>=<pct> ...] [--json <path>]";
    let (old_path, rest) = rest.split_first().ok_or_else(|| err(usage))?;
    let (new_path, rest) = rest.split_first().ok_or_else(|| err(usage))?;
    let params = Params::parse(rest)?;
    let threshold = params.f64("threshold", 25.0)?;
    // Per-metric overrides tighten (or relax) the global threshold for
    // named series — e.g. `limit:rw_verify/readers_priority_1r2w_dedup=50`
    // keeps a once-regressing series on a shorter leash than the noise
    // allowance the rest of the table gets.
    let mut limits: BTreeMap<String, f64> = BTreeMap::new();
    for (k, v) in &params.values {
        if let Some(metric) = k.strip_prefix("limit:") {
            let pct = v
                .parse()
                .map_err(|_| err(format!("{k} must be a number, got {v:?}")))?;
            limits.insert(metric.to_owned(), pct);
        }
    }
    let load = |path: &str| -> Result<BTreeMap<String, f64>, CliError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
        let v = gem_obs::json::parse(&text).map_err(|e| err(format!("{path}: {e}")))?;
        bench_metrics(&v, path)
    };
    let old = load(old_path)?;
    let new = load(new_path)?;
    let mut table = format!(
        "{:<48} {:>14} {:>14} {:>9}\n",
        "metric", "baseline_ns", "current_ns", "delta"
    );
    let mut regressions = Vec::new();
    let mut shared = 0usize;
    for (name, old_ns) in &old {
        match new.get(name) {
            None => table.push_str(&format!(
                "{name:<48} {old_ns:>14.0} {:>14} {:>9}\n",
                "-", "gone"
            )),
            Some(new_ns) => {
                shared += 1;
                let delta = if *old_ns > 0.0 {
                    (new_ns - old_ns) / old_ns * 100.0
                } else {
                    0.0
                };
                table.push_str(&format!(
                    "{name:<48} {old_ns:>14.0} {new_ns:>14.0} {delta:>+8.1}%\n"
                ));
                let limit = limits.get(name).copied().unwrap_or(threshold);
                if delta > limit {
                    regressions.push(format!("{name}: {delta:+.1}% (limit +{limit:.0}%)"));
                }
            }
        }
    }
    for (name, new_ns) in &new {
        if !old.contains_key(name) {
            table.push_str(&format!(
                "{name:<48} {:>14} {new_ns:>14.0} {:>9}\n",
                "-", "new"
            ));
        }
    }
    if shared == 0 {
        return Err(err(format!(
            "{table}no shared metrics between {old_path} and {new_path} — nothing to gate"
        )));
    }
    // The machine-readable summary is written in the regression case too
    // — a failing gate is exactly when CI wants the numbers.
    if let Some(path) = json_out {
        write_atomic(
            Path::new(path),
            &bench_diff_json(threshold, &old, &new, &regressions),
        )
        .map_err(|e| err(format!("cannot write bench-diff JSON to {path:?}: {e}")))?;
    }
    if regressions.is_empty() {
        Ok(format!(
            "{table}no regression beyond +{threshold:.0}% across {shared} shared metric(s)"
        ))
    } else {
        Err(err(format!(
            "{table}REGRESSION: {} metric(s) past their limit (default +{threshold:.0}%):\n  {}",
            regressions.len(),
            regressions.join("\n  ")
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
     \x20 profile <problem> [params] verify + phase-attribution table, search-\n\
     \x20                            space estimates, reduction verdicts\n\
     \x20 top <problem> [params]     verify with a live dashboard on stderr:\n\
     \x20                            run/step rates, progress + ETA, worker\n\
     \x20                            utilization, phase shares\n\
     \x20 deadlock <problem> [params] hunt for a deadlock (pruned search)\n\
     \x20 dot <problem> [params]     emit one computation as Graphviz dot\n\
     \x20 replay <dir>               re-run a counterexample artifact's schedule\n\
     \x20                            and check it reproduces the recorded outcome\n\
     \x20 bench-diff <old> <new> [threshold=25] [limit:<metric>=<pct> ...]\n\
     \x20                            compare two bench/report JSON files; exits\n\
     \x20                            nonzero past the regression threshold\n\
     \x20 metrics-lint <file>        validate an OpenMetrics exposition file\n\
     \x20                            (as written by --metrics-out)\n\
     flags (allowed anywhere on the command line):\n\
     \x20 --stats                    print an instrumentation table to stderr\n\
     \x20 --stats-json <path>        write the run report as deterministic JSON\n\
     \x20 --trace <path>             stream probe events as JSON lines\n\
     \x20 --trace-out <path>         write a Chrome-trace JSON (chrome://tracing,\n\
     \x20                            Perfetto) of timer spans and counter totals\n\
     \x20 --metrics-out <path>       sample counters/gauges once a second and\n\
     \x20                            write an OpenMetrics exposition (plus a\n\
     \x20                            <path>.json time-series) at the end\n\
     \x20 --explain                  append reduction cost/benefit verdicts\n\
     \x20                            (dedup measured/predicted, POR attribution,\n\
     \x20                            incremental-check coverage)\n\
     \x20 --heartbeat <secs>         progress line interval (default 5, 0 = off)\n\
     \x20 --jobs <n>                 explorer worker threads (default 1, 0 = auto);\n\
     \x20                            results are identical for every n\n\
     \x20 --dedup                    check each distinct computation once and\n\
     \x20                            replay the verdict on trace-equivalent runs;\n\
     \x20                            results are identical with or without it\n\
     \x20 --por                      sleep-set partial-order reduction: explore\n\
     \x20                            roughly one schedule per computation; the\n\
     \x20                            verify/explore verdict is unchanged\n\
     \x20 --incr-check <mode>        incremental restriction checking along the\n\
     \x20                            DFS tree: auto (default; on when the spec\n\
     \x20                            is in the supported fragment), on, off;\n\
     \x20                            verdicts identical in every mode\n\
     \x20 --auto                     on verify: sample the instance and pick\n\
     \x20                            plain/dedup/por from the estimated collapse\n\
     \x20                            ratio and oracle grant rate (overrides\n\
     \x20                            --dedup/--por; decision in --stats-json)\n\
     \x20 --artifacts <dir>          dump the first failing/deadlocked run as a\n\
     \x20                            self-contained counterexample directory and\n\
     \x20                            arm a crash-dump flight recorder\n\
     \x20 --recorder-cap <n>         flight-recorder events kept per thread\n\
     \x20                            (default 256; env GEM_RECORDER_CAP)\n\
     \x20 --json <path>              on bench-diff, also write the comparison\n\
     \x20                            as machine-readable JSON\n\
     problems: one-slot, bounded, rw, db-update, life, philosophers\n\
     examples:\n\
     \x20 gem verify rw readers=1 writers=2 variant=readers\n\
     \x20 gem explore rw readers=2 writers=2 rounds=2 --jobs 4\n\
     \x20 gem verify bounded items=4 cap=2 substrate=csp --stats\n\
     \x20 gem render rw data=true"
        .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runv(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        run(&owned)
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
        .unwrap();
        assert!(out.contains("HOLDS"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"explore.runs\""), "{json}");
        assert!(json.contains("\"explore.steps\""), "{json}");
        assert!(json.contains("\"explore.prune.hits\""), "{json}");
        assert!(json.contains("\"verify.deadlocks\""), "{json}");
        // One-slot's restrictions are all in the incremental fragment, so
        // the default `--incr-check auto` sweep reports incremental
        // counters instead of batch `restriction.evals`.
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
        assert!(runv(&["verify", "one-slot", "--stats=yes"]).is_err());
        assert!(runv(&["verify", "one-slot", "--dedup=yes"]).is_err());
        assert!(runv(&["verify", "one-slot", "--auto=yes"]).is_err());
    }

    #[test]
    fn dedup_flag_preserves_verdicts() {
        let plain = runv(&["verify", "one-slot", "items=2"]).unwrap();
        let deduped = runv(&["verify", "one-slot", "items=2", "--dedup"]).unwrap();
        assert_eq!(plain, deduped);
        let plain = runv(&["verify", "rw", "readers=1", "writers=2", "variant=writers"]).unwrap();
        let deduped = runv(&[
            "verify",
            "rw",
            "readers=1",
            "writers=2",
            "variant=writers",
            "--dedup",
        ])
        .unwrap();
        assert_eq!(plain, deduped);
        assert!(deduped.contains("FAILS"), "{deduped}");
    }

    #[test]
    fn explore_dedup_counts_distinct_computations() {
        let out = runv(&["explore", "rw", "readers=1", "writers=1", "--dedup"]).unwrap();
        assert!(out.contains("distinct computations:"), "{out}");
    }

    #[test]
    fn profile_renders_phase_table_and_verdicts() {
        // `--incr-check off` keeps the whole batch pipeline live so every
        // batch phase shows up in the table.
        let out = runv(&[
            "profile",
            "one-slot",
            "items=2",
            "--incr-check",
            "off",
            "--heartbeat",
            "0",
        ])
        .unwrap();
        assert!(out.contains("HOLDS"), "{out}");
        assert!(out.contains("phase.explore"), "{out}");
        assert!(out.contains("phase.seal"), "{out}");
        assert!(out.contains("phase.check"), "{out}");
        assert!(out.contains("accounted"), "{out}");
        assert!(out.contains("wall (verify)"), "{out}");
        // The per-restriction breakdown attributes the batch evals.
        assert!(out.contains("check breakdown by restriction:"), "{out}");
        assert!(out.contains("#0 "), "{out}");
        assert!(out.contains("[batch]"), "{out}");
        // No dedup: the sampler's collapse ratio yields a *predicted*
        // dedup verdict.
        assert!(out.contains("dedup predicted"), "{out}");
    }

    #[test]
    fn profile_with_incremental_collapses_check_phase() {
        // Default `--incr-check auto` on an in-fragment spec: the batch
        // check phase disappears, phase.check_incr takes over, and the
        // breakdown tags every restriction incremental with zero batch
        // evals — the collapse the speedup comes from.
        let out = runv(&["profile", "one-slot", "items=2", "--heartbeat", "0"]).unwrap();
        assert!(out.contains("HOLDS"), "{out}");
        assert!(out.contains("phase.check_incr"), "{out}");
        assert!(!out.contains("phase.seal"), "{out}");
        assert!(out.contains("[incremental] 0 batch eval(s)"), "{out}");
        assert!(out.contains("incremental check: "), "{out}");
        assert!(out.contains("proven clean"), "{out}");
    }

    #[test]
    fn profile_with_dedup_reports_measured_verdict() {
        let out = runv(&[
            "profile",
            "one-slot",
            "items=2",
            "--dedup",
            // Clean leaves bypass the dedup cache entirely, so measuring
            // the cache requires the batch pipeline.
            "--incr-check",
            "off",
            "--heartbeat",
            "0",
        ])
        .unwrap();
        assert!(out.contains("phase.canonical_key"), "{out}");
        assert!(out.contains("phase.dedup_lookup"), "{out}");
        assert!(out.contains("dedup measured"), "{out}");
    }

    #[test]
    fn explain_flag_appends_verdicts_to_verify() {
        let out = runv(&[
            "verify",
            "one-slot",
            "items=2",
            "--dedup",
            "--explain",
            // Dedup-cache traffic (the measured verdict's input) only
            // exists when leaves reach the batch pipeline.
            "--incr-check",
            "off",
            "--heartbeat",
            "0",
        ])
        .unwrap();
        assert!(out.contains("HOLDS"), "{out}");
        assert!(out.contains("dedup measured"), "{out}");
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
    fn incr_check_flag_validated_and_recorded() {
        assert!(runv(&["verify", "one-slot", "--incr-check", "bogus"]).is_err());
        assert!(runv(&["verify", "one-slot", "--incr-check"]).is_err());
        let dir = std::env::temp_dir().join("gem-cli-test-incr-flag");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.json");
        let path_s = path.to_str().unwrap().to_owned();
        let with_mode = |mode: &str| {
            runv(&[
                "verify",
                "one-slot",
                "items=2",
                "--incr-check",
                mode,
                "--stats-json",
                &path_s,
                "--heartbeat",
                "0",
            ])
            .unwrap();
            let json = std::fs::read_to_string(&path).unwrap();
            let report = gem_obs::Report::from_json(&json).unwrap();
            report.config.get("incr_check").cloned()
        };
        assert_eq!(with_mode("off").as_deref(), Some("off"));
        assert_eq!(with_mode("on").as_deref(), Some("on"));
        assert_eq!(with_mode("auto").as_deref(), Some("auto"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incr_check_modes_agree_on_verdicts() {
        // The stdout contract: every mode prints byte-identical output,
        // on holding and failing instances alike.
        for problem in [
            vec!["verify", "one-slot", "items=2"],
            vec!["verify", "rw", "readers=1", "writers=2", "variant=writers"],
        ] {
            let run_mode = |mode: &str| {
                let mut args = problem.clone();
                args.extend(["--incr-check", mode]);
                runv(&args).unwrap()
            };
            let auto = run_mode("auto");
            assert_eq!(auto, run_mode("on"), "{problem:?}");
            assert_eq!(auto, run_mode("off"), "{problem:?}");
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
    fn bench_diff_json_flag_writes_machine_summary() {
        let dir = std::env::temp_dir().join("gem-cli-test-bench-diff");
        std::fs::create_dir_all(&dir).unwrap();
        let report = dir.join("report.json");
        let out_json = dir.join("diff.json");
        std::fs::write(
            &report,
            "{\"timers\": {\"verify\": {\"count\": 1, \"total_ns\": 100, \
             \"min_ns\": 100, \"max_ns\": 100, \"mean_ns\": 100}}}",
        )
        .unwrap();
        let report_s = report.to_str().unwrap().to_owned();
        let out_s = out_json.to_str().unwrap().to_owned();
        runv(&["bench-diff", &report_s, &report_s, "--json", &out_s]).unwrap();
        let text = std::fs::read_to_string(&out_json).unwrap();
        let parsed = gem_obs::json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("regressions").and_then(JsonValue::as_u64),
            Some(0)
        );
        assert!(parsed
            .get("metrics")
            .and_then(|m| m.get("verify"))
            .is_some());
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
    fn recorder_cap_flag_validated() {
        assert!(runv(&["verify", "one-slot", "--recorder-cap", "abc"]).is_err());
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
            "--dedup",
            "--jobs",
            "2",
            "--stats-json",
            &path_s,
            "--heartbeat",
            "0",
        ])
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let report = gem_obs::Report::from_json(&json).unwrap();
        assert_eq!(report.config.get("dedup").map(String::as_str), Some("true"));
        assert_eq!(report.config.get("jobs").map(String::as_str), Some("2"));
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
    fn auto_records_strategy_and_matches_explicit_flags() {
        let dir = std::env::temp_dir().join("gem-cli-test-auto");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("auto-stats.json");
        let path_s = path.to_str().unwrap().to_owned();
        let out = runv(&[
            "verify",
            "bounded",
            "items=3",
            "cap=2",
            "--auto",
            "--stats-json",
            &path_s,
            "--heartbeat",
            "0",
        ])
        .unwrap();
        assert!(out.contains("strategy:"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        let report = gem_obs::Report::from_json(&json).unwrap();
        // The decision and its estimator evidence are recorded.
        let strategy = report.config.get("strategy").expect("config.strategy");
        assert!(["plain", "dedup", "por"].contains(&strategy.as_str()));
        for key in [
            "strategy.reason",
            "strategy.samples",
            "strategy.est_runs",
            "strategy.est_distinct",
            "strategy.collapse_ratio",
            "strategy.oracle_grants",
            "strategy.oracle_queries",
        ] {
            assert!(report.config.contains_key(key), "missing {key}");
        }
        // Measured sampling costs are timing data: timers, not config.
        for timer in ["auto.key", "auto.check"] {
            assert!(report.timers.contains_key(timer), "missing timer {timer}");
        }
        // The bounded monitor is the known dedup-LOSS instance (every
        // run a distinct computation, BENCH: dedup 3.4× slower): auto
        // must not pick dedup here.
        assert_ne!(
            strategy,
            "dedup",
            "{:?}",
            report.config.get("strategy.reason")
        );
        assert_eq!(
            report.config.get("dedup").map(String::as_str),
            Some("false")
        );
        // The chosen flag set reproduces the exact explicit-flag verdict.
        let explicit = match strategy.as_str() {
            "por" => runv(&["verify", "bounded", "items=3", "cap=2", "--por"]).unwrap(),
            _ => runv(&["verify", "bounded", "items=3", "cap=2"]).unwrap(),
        };
        assert!(out.starts_with(&explicit), "{out}\nvs\n{explicit}");
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
            "--jobs",
            "2",
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
    fn top_renders_dashboard_with_worker_table() {
        let out = runv(&[
            "top",
            "one-slot",
            "items=2",
            "--jobs",
            "2",
            "--heartbeat",
            "0",
        ])
        .unwrap();
        assert!(out.contains("gem top"), "{out}");
        assert!(out.contains("runs: "), "{out}");
        assert!(out.contains("HOLDS"), "{out}");
        // --jobs 2 split work beyond the frontier, so the worker
        // utilization table is present.
        assert!(out.contains("worker"), "{out}");
        assert!(out.contains("util"), "{out}");
        assert!(out.contains("w0"), "{out}");
    }

    #[test]
    fn profile_with_jobs_appends_worker_table() {
        let out = runv(&[
            "profile",
            "one-slot",
            "items=2",
            "--jobs",
            "2",
            "--heartbeat",
            "0",
        ])
        .unwrap();
        assert!(out.contains("phase."), "{out}");
        assert!(out.contains("util"), "{out}");
        assert!(out.contains("w0"), "{out}");
        // Serial profile has no worker attribution, hence no table.
        let serial = runv(&["profile", "one-slot", "items=2", "--heartbeat", "0"]).unwrap();
        assert!(!serial.contains("util"), "{serial}");
    }

    #[test]
    fn auto_with_explain_shows_decision_reason() {
        let out = runv(&[
            "verify",
            "one-slot",
            "items=2",
            "--auto",
            "--stats",
            "--explain",
            "--heartbeat",
            "0",
        ])
        .unwrap();
        assert!(out.contains("auto: chose "), "{out}");
    }

    #[test]
    fn explain_estimate_sees_no_collapse_on_bounded_monitor() {
        // Every run of the bounded monitor seals a distinct computation
        // (`explore --dedup` counts 6297 of 6297): random walks that
        // resample one path must not pass for runs that collapse.
        let dir = std::env::temp_dir().join("gem-cli-test-estimate");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.json");
        let path_s = path.to_str().unwrap().to_owned();
        runv(&[
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
        let json = std::fs::read_to_string(&path).unwrap();
        let report = gem_obs::Report::from_json(&json).unwrap();
        let gauge = |k: &str| report.gauges.get(k).copied().expect(k);
        let runs = gauge("estimate.total_runs");
        let distinct = gauge("estimate.distinct_computations");
        assert!(2 * distinct >= runs, "{distinct} distinct of {runs} runs");
        assert!(report.timers.contains_key("estimate.key"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
