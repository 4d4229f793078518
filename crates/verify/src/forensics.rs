//! Counterexample artifacts: self-contained failure directories.
//!
//! When [`verify_system`](crate::verify_system) hits its first failing or
//! deadlocked run with an [`ArtifactSink`] configured, it emits a
//! directory a human (or `gem replay`) can consume with no access to the
//! original process:
//!
//! * `meta.json` — instance identity (problem, params, options) supplied
//!   by the caller, plus which run the artifact captures.
//! * `schedule.json` — the run's schedule as indices into each state's
//!   `enabled()` list (plus the action's `Debug` text for validation),
//!   the only faithful serialization available for arbitrary
//!   [`System::Action`] types.
//! * `computation.json` — the sealed program computation: events with
//!   element/class/seq/params/threads, and the enable relation.
//! * `blame.json` — per-restriction falsification paths from
//!   [`gem_spec::Specification::blame_failures`], or the deadlock marker.
//! * `counterexample.dot` / `counterexample_slice.dot` — the projected
//!   computation with blamed events highlighted; the slice view restricts
//!   to their past cone (the smallest history containing the blamed
//!   events — a prefix of the violating valid history sequence).
//! * `outcome.json` — the sweep outcome, the artifact run's coordinates,
//!   and the single-run outcome `gem replay` must reproduce.
//!
//! All files are written atomically ([`gem_obs::write_atomic`]), so a
//! watcher or CI collector never sees a half-written artifact.

use std::path::{Path, PathBuf};

use gem_core::{to_dot_with, Computation, DotOptions};
use gem_lang::System;
use gem_logic::Blame;
use gem_obs::json::{push_json_key, push_json_str};

use crate::sat::{RunCheck, RunFailure, VerifyOutcome};

/// Where and with what context counterexample artifacts are emitted.
#[derive(Clone, Debug)]
pub struct ArtifactSink {
    /// Directory to write into; created (with parents) on first use.
    pub dir: PathBuf,
    /// Context recorded in `meta.json` — whatever the caller needs to
    /// rebuild the instance (problem name, params, strategy). Order is
    /// preserved.
    pub meta: Vec<(String, String)>,
}

impl ArtifactSink {
    /// A sink writing into `dir` with no meta context yet.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            meta: Vec::new(),
        }
    }

    /// Adds one `meta.json` entry.
    #[must_use]
    pub fn meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.meta.push((key.into(), value.into()));
        self
    }
}

/// What the sweep captured an artifact for; embedded in `outcome.json`
/// and used to build the replay-expectation record.
#[derive(Clone, Debug)]
pub(crate) struct ArtifactRecord {
    pub run: usize,
    pub deadlock: bool,
    pub failure: Option<RunFailure>,
}

/// Derives the schedule of `path` as indices into each intermediate
/// state's `enabled()` list, pairing each index with the action's
/// `Debug` rendering for validation. Returns `None` if some action is
/// not found among the enabled ones (which would mean the path is not a
/// schedule of `sys`).
pub fn derive_schedule<S: System>(sys: &S, path: &[S::Action]) -> Option<Vec<(usize, String)>> {
    let mut state = sys.initial();
    let mut out = Vec::with_capacity(path.len());
    for action in path {
        let wanted = format!("{action:?}");
        let enabled = sys.enabled(&state);
        let index = enabled.iter().position(|a| format!("{a:?}") == wanted)?;
        out.push((index, wanted));
        sys.apply(&mut state, action);
    }
    Some(out)
}

fn write(sink: &ArtifactSink, name: &str, contents: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(&sink.dir)?;
    gem_obs::write_atomic(&sink.dir.join(name), contents)
}

pub(crate) fn meta_json(sink: &ArtifactSink, run: usize, deadlock: bool) -> String {
    let mut out = String::from("{\n");
    push_kv(
        &mut out,
        "kind",
        if deadlock { "deadlock" } else { "failure" },
    );
    out.push_str(",\n");
    out.push_str("  ");
    push_json_key(&mut out, "run");
    out.push_str(&format!(" {run}"));
    for (k, v) in &sink.meta {
        out.push_str(",\n");
        push_kv(&mut out, k, v);
    }
    out.push_str("\n}\n");
    out
}

fn push_kv(out: &mut String, key: &str, value: &str) {
    out.push_str("  ");
    push_json_key(out, key);
    out.push(' ');
    push_json_str(out, value);
}

pub(crate) fn schedule_json(run: usize, schedule: &[(usize, String)]) -> String {
    let mut out = String::from("{\n  ");
    push_json_key(&mut out, "run");
    out.push_str(&format!(" {run},\n  "));
    push_json_key(&mut out, "steps");
    out.push_str(" [");
    for (i, (index, action)) in schedule.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        push_json_key(&mut out, "index");
        out.push_str(&format!(" {index}, "));
        push_json_key(&mut out, "action");
        out.push(' ');
        push_json_str(&mut out, action);
        out.push('}');
    }
    if !schedule.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Serializes a sealed computation: every event with resolved names,
/// plus the enable relation. Self-contained — readable without the
/// generating structure.
pub fn computation_json(comp: &Computation) -> String {
    let s = comp.structure();
    let mut out = String::from("{\n  ");
    push_json_key(&mut out, "event_count");
    out.push_str(&format!(" {},\n  ", comp.event_count()));
    push_json_key(&mut out, "events");
    out.push_str(" [");
    for (i, ev) in comp.events().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        push_json_key(&mut out, "id");
        out.push_str(&format!(" {}, ", ev.id().index()));
        push_json_key(&mut out, "element");
        out.push(' ');
        push_json_str(&mut out, s.element_info(ev.element()).name());
        out.push_str(", ");
        push_json_key(&mut out, "class");
        out.push(' ');
        push_json_str(&mut out, s.class_info(ev.class()).name());
        out.push_str(", ");
        push_json_key(&mut out, "seq");
        out.push_str(&format!(" {}, ", ev.seq()));
        push_json_key(&mut out, "params");
        out.push_str(" [");
        for (j, p) in ev.params().iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            push_json_str(&mut out, &p.to_string());
        }
        out.push_str("], ");
        push_json_key(&mut out, "threads");
        out.push_str(" [");
        for (j, t) in ev.threads().iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            push_json_str(&mut out, &t.to_string());
        }
        out.push_str("]}");
    }
    if comp.event_count() > 0 {
        out.push_str("\n  ");
    }
    out.push_str("],\n  ");
    push_json_key(&mut out, "enables");
    out.push_str(" [");
    let mut first = true;
    for (a, b) in comp.enable_edges() {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!("[{}, {}]", a.index(), b.index()));
    }
    out.push_str("]\n}\n");
    out
}

pub(crate) fn blame_json(blames: &[(String, Blame)], deadlock: bool, comp: &Computation) -> String {
    let mut out = String::from("{\n  ");
    push_json_key(&mut out, "deadlock");
    out.push_str(&format!(" {deadlock},\n  "));
    push_json_key(&mut out, "restrictions");
    out.push_str(" [");
    for (i, (name, blame)) in blames.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        push_json_key(&mut out, "name");
        out.push(' ');
        push_json_str(&mut out, name);
        out.push_str(", ");
        push_json_key(&mut out, "frames");
        out.push_str(" [");
        for (j, frame) in blame.frames.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("\n      {");
            push_json_key(&mut out, "kind");
            out.push(' ');
            push_json_str(&mut out, frame.kind);
            out.push_str(", ");
            push_json_key(&mut out, "expect");
            out.push_str(&format!(" {}, ", frame.expect));
            push_json_key(&mut out, "node");
            out.push(' ');
            push_json_str(&mut out, &frame.node);
            out.push_str(", ");
            push_json_key(&mut out, "note");
            out.push(' ');
            push_json_str(&mut out, &frame.note);
            out.push_str(", ");
            push_json_key(&mut out, "witnesses");
            out.push_str(" [");
            for (k, (var, event)) in frame.witnesses.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push('{');
                push_json_key(&mut out, "var");
                out.push(' ');
                push_json_str(&mut out, var);
                out.push_str(", ");
                push_json_key(&mut out, "event");
                out.push_str(&format!(" {}, ", event.index()));
                push_json_key(&mut out, "label");
                out.push(' ');
                push_json_str(&mut out, &comp.event_label(*event));
                out.push('}');
            }
            out.push_str("]}");
        }
        if !blame.frames.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("]}");
    }
    if !blames.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn failures_json(out: &mut String, failures: &[RunFailure], indent: &str) {
    out.push('[');
    for (i, f) in failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n{indent}  {{"));
        push_json_key(out, "run");
        out.push_str(&format!(" {}, ", f.run));
        push_json_key(out, "violated");
        out.push_str(" [");
        for (j, v) in f.violated.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            push_json_str(out, v);
        }
        out.push_str("], ");
        push_json_key(out, "detail");
        out.push(' ');
        push_json_str(out, &f.detail);
        out.push('}');
    }
    if !failures.is_empty() {
        out.push_str(&format!("\n{indent}"));
    }
    out.push(']');
}

fn outcome_fields(out: &mut String, outcome: &VerifyOutcome, indent: &str) {
    out.push('{');
    out.push_str(&format!("\n{indent}  "));
    push_json_key(out, "runs");
    out.push_str(&format!(" {},\n{indent}  ", outcome.runs));
    push_json_key(out, "deadlocks");
    out.push_str(&format!(" {},\n{indent}  ", outcome.deadlocks));
    push_json_key(out, "failures");
    out.push(' ');
    failures_json(out, &outcome.failures, &format!("{indent}  "));
    out.push_str(&format!(",\n{indent}  "));
    push_json_key(out, "truncation");
    match outcome.truncation {
        Some(reason) => {
            out.push(' ');
            push_json_str(out, &reason.to_string());
        }
        None => out.push_str(" null"),
    }
    out.push_str(&format!("\n{indent}}}"));
}

pub(crate) fn outcome_json(outcome: &VerifyOutcome, artifact: Option<&ArtifactRecord>) -> String {
    let mut out = String::from("{\n  ");
    push_json_key(&mut out, "outcome");
    out.push(' ');
    outcome_fields(&mut out, outcome, "  ");
    out.push_str(",\n  ");
    push_json_key(&mut out, "artifact");
    match artifact {
        None => out.push_str(" null"),
        Some(rec) => {
            out.push_str(" {");
            push_json_key(&mut out, "run");
            out.push_str(&format!(" {}, ", rec.run));
            push_json_key(&mut out, "deadlock");
            out.push_str(&format!(" {}}}", rec.deadlock));
        }
    }
    out.push_str(",\n  ");
    push_json_key(&mut out, "replay");
    match artifact {
        None => out.push_str(" null"),
        Some(rec) => {
            // The single-run outcome `gem replay` must reproduce from the
            // recorded schedule alone: one run, so the failure index is 0.
            let expected = VerifyOutcome {
                runs: 1,
                deadlocks: usize::from(rec.deadlock),
                failures: rec
                    .failure
                    .clone()
                    .map(|mut f| {
                        f.run = 0;
                        f
                    })
                    .into_iter()
                    .collect(),
                truncation: None,
            };
            out.push(' ');
            outcome_fields(&mut out, &expected, "  ");
        }
    }
    out.push_str("\n}\n");
    out
}

/// Writes the per-run artifact files (everything except `outcome.json`,
/// which needs the completed sweep).
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_run_artifact<S: System>(
    sink: &ArtifactSink,
    sys: &S,
    path: &[S::Action],
    run: usize,
    deadlock: bool,
    program_comp: &Computation,
    check: &RunCheck,
    problem: &gem_spec::Specification,
) -> std::io::Result<()> {
    write(sink, "meta.json", &meta_json(sink, run, deadlock))?;
    match derive_schedule(sys, path) {
        Some(schedule) => write(sink, "schedule.json", &schedule_json(run, &schedule))?,
        None => {
            // Cannot happen for a path produced by the explorer; record
            // the fact rather than silently omitting the file.
            write(
                sink,
                "schedule.json",
                "{\"error\": \"path is not a schedule of this system\"}\n",
            )?;
        }
    }
    write(sink, "computation.json", &computation_json(program_comp))?;
    let blames = match &check.spec_report {
        Some(report) => problem.blame_failures(&check.projected, report),
        None => Vec::new(),
    };
    write(
        sink,
        "blame.json",
        &blame_json(&blames, deadlock, &check.projected),
    )?;
    // Highlight the blamed witnesses on the projected computation; for a
    // deadlock with no restriction failure, highlight the stuck frontier
    // (maximal events) of the program computation instead.
    let (dot_comp, highlight) = if blames.is_empty() && deadlock {
        (program_comp, program_comp.maximal_events())
    } else {
        let mut hl = Vec::new();
        for (_, blame) in &blames {
            for e in blame.witness_events() {
                if !hl.contains(&e) {
                    hl.push(e);
                }
            }
        }
        (&check.projected, hl)
    };
    write(
        sink,
        "counterexample.dot",
        &to_dot_with(
            dot_comp,
            &DotOptions {
                highlight: highlight.clone(),
                slice: false,
            },
        ),
    )?;
    write(
        sink,
        "counterexample_slice.dot",
        &to_dot_with(
            dot_comp,
            &DotOptions {
                highlight,
                slice: true,
            },
        ),
    )?;
    Ok(())
}

pub(crate) fn write_outcome(
    sink: &ArtifactSink,
    outcome: &VerifyOutcome,
    artifact: Option<&ArtifactRecord>,
) -> std::io::Result<()> {
    write(sink, "outcome.json", &outcome_json(outcome, artifact))
}

/// Convenience for tests and the CLI: the artifact directory's
/// `outcome.json` path.
pub fn outcome_path(dir: &Path) -> PathBuf {
    dir.join("outcome.json")
}
