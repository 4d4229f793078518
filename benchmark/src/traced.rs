//! The traced pass: a mirror of `verify_system`'s per-leaf logic that
//! times the calls into each layer's public functions from outside the
//! program, recording spans in memory.
//!
//! A span has a name, a start, an end, a parent and a sweep id. Spans are
//! opened at sweep, explore, leaf and check-call boundaries; the per-step
//! simulator calls are tallied by [`TimedSystem`] and attached to their
//! explore span as one aggregate per method. A span's self time is its
//! duration minus what its child spans and aggregates cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::ops::ControlFlow;
use std::path::Path;
use std::time::Instant;

use gem_lang::System;
use gem_verify::{project, IncrChecker, LeafStatus, ProjectError, RunFailure, VerifyOutcome};

use crate::timed::{ns, SimTallies, Tally, TimedSystem};
use crate::workloads::{Instance, Substrate};

/// One recorded span; times are nanoseconds since the tracer was created.
struct Span {
    /// Layer boundary the span times.
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// The sweep the span belongs to.
    sweep: usize,
}

/// Simulator calls of one method during one sweep, attached to that
/// sweep's explore span.
struct Aggregate {
    /// `lang.sim.<method>`.
    name: &'static str,
    /// Index of the explore span the calls happened in.
    parent: usize,
    tally: Tally,
}

/// Counts taken at the same boundaries as the spans.
#[derive(Default)]
pub(crate) struct Counts {
    /// Simulator calls, summed over sweeps.
    pub(crate) sim: SimTallies,
    /// Maximal runs explored.
    pub(crate) runs: u64,
    /// Actions applied.
    pub(crate) steps: u64,
    /// Branches pruned by sleep sets.
    pub(crate) sleep_skipped: u64,
    /// Leaves the incremental checker proved clean.
    pub(crate) incr_clean: u64,
    /// Events of the computations sealed for batch checking.
    pub(crate) sealed_events: u64,
}

/// The in-memory trace of one traced pass.
pub struct Tracer {
    epoch: Instant,
    /// Every span, in opening order.
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
    /// Instance label of each sweep, by sweep id.
    sweeps: Vec<&'static str>,
    pub(crate) counts: Counts,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            aggregates: Vec::new(),
            sweeps: Vec::new(),
            counts: Counts::default(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        ns(self.epoch.elapsed())
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            sweep: self.sweeps.len() - 1,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    fn time<R>(&mut self, parent: usize, name: &'static str, call: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent));
        let r = call();
        self.close(id);
        r
    }

    /// Wall time of the pass: the summed durations of its sweep spans.
    pub fn wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Summed duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time per span or aggregate name: duration minus the time the
    /// children cover. Aggregates have no children.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for a in &self.aggregates {
            covered[a.parent] += a.tally.ns;
            *out.entry(a.name).or_insert(0) += a.tally.ns;
        }
        for (s, c) in self.spans.iter().zip(covered) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Writes the trace as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be written.
    pub fn write_json(&self, path: &Path, workload: &str) -> io::Result<()> {
        let mut out = String::new();
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"sweeps\":[");
        for (i, label) in self.sweeps.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n{{\"id\":{i},\"label\":\"{label}\"}}");
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"sweep\":{}}}",
                s.name, s.start_ns, s.end_ns, s.sweep
            );
        }
        out.push_str("],\"aggregates\":[");
        for (i, a) in self.aggregates.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"parent\":{},\"calls\":{},\"ns\":{}}}",
                a.name, a.parent, a.tally.calls, a.tally.ns
            );
        }
        out.push_str("]}\n");
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// Sweeps `inst` the way `verify_system` does with one job, no probe,
/// dedup off and `IncrCheck::Auto`, timing each layer into `tr`. The
/// outcome must equal the real sweep's; if it does not, the trace
/// describes a different program.
///
/// # Errors
///
/// Returns the [`ProjectError`] `verify_system` would return.
pub fn traced_sweep<S: Substrate>(
    sys: &S,
    inst: &Instance,
    tr: &mut Tracer,
) -> Result<VerifyOutcome, ProjectError> {
    let options = &inst.options;
    tr.sweeps.push(inst.label);
    let sweep = tr.open("verify.sweep", None);
    let checker = tr.time(sweep, "verify.incr.compile", || {
        IncrChecker::new(&inst.spec, &inst.corr, options.check_program_legality)
    });
    let mut checker = (!checker.global_fallback()).then_some(checker);
    let timed = TimedSystem::new(sys);
    let explore = tr.open("lang.explore", Some(sweep));
    let mut runs = 0usize;
    let mut deadlocks = 0usize;
    let mut failures: Vec<RunFailure> = Vec::new();
    let mut project_error = None;
    let stats = options.explorer.for_each_run(&timed, |state, _path| {
        let leaf = tr.open("verify.leaf", Some(explore));
        runs += 1;
        let deadlocked = !timed.is_complete(state);
        if deadlocked {
            deadlocks += 1;
        }
        if let Some(chk) = checker.as_mut() {
            if let Some(builder) = timed.trace_builder(state) {
                let status = tr.time(leaf, "verify.incr.sync", || chk.sync_to(builder));
                if status == LeafStatus::Clean {
                    tr.counts.incr_clean += 1;
                    if !deadlocked {
                        tr.close(leaf);
                        return ControlFlow::Continue(());
                    }
                }
            }
        }
        let comp = tr.time(leaf, "core.seal", || sys.seal(state));
        tr.counts.sealed_events += comp.event_count() as u64;
        // From here on, `gem_verify::check_computation` step by step.
        let mut violated = Vec::new();
        let mut detail = String::new();
        if options.check_program_legality {
            let legality = tr.time(leaf, "core.legality", || gem_core::check_legality(&comp));
            if !legality.is_empty() {
                violated.push("program-legality".to_owned());
                detail = legality[0].describe(&comp);
            }
        }
        let projected = match tr.time(leaf, "verify.project", || {
            project(&comp, inst.spec.structure_arc(), &inst.corr)
        }) {
            Ok(p) => p,
            Err(e) => {
                project_error = Some(e);
                tr.close(leaf);
                return ControlFlow::Break(());
            }
        };
        match tr.time(leaf, "spec.check", || {
            inst.spec.check(&projected, options.strategy)
        }) {
            Ok(report) => {
                if !report.legality.is_empty() {
                    violated.push("projection-legality".to_owned());
                    if detail.is_empty() {
                        detail = report.legality[0].describe(&projected);
                    }
                }
                violated.extend(report.failed().into_iter().map(str::to_owned));
                if detail.is_empty() && !violated.is_empty() {
                    detail = report.to_string();
                }
            }
            Err(e) => {
                violated.push("evaluation-error".to_owned());
                detail = e.to_string();
            }
        }
        let flow = if violated.is_empty() {
            ControlFlow::Continue(())
        } else {
            failures.push(RunFailure {
                run: runs - 1,
                violated,
                detail,
            });
            if failures.len() >= options.max_failures {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        tr.close(leaf);
        flow
    });
    tr.close(explore);
    let sim = timed.tallies();
    for (name, tally) in sim.methods() {
        tr.aggregates.push(Aggregate {
            name,
            parent: explore,
            tally,
        });
    }
    tr.counts.sim += sim;
    tr.counts.runs += stats.runs as u64;
    tr.counts.steps += stats.steps as u64;
    tr.counts.sleep_skipped += stats.sleep_skipped as u64;
    tr.close(sweep);
    match project_error {
        Some(e) => Err(e),
        None => Ok(VerifyOutcome {
            runs,
            deadlocks,
            failures,
            truncation: stats.truncation,
        }),
    }
}
