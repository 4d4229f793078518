//! Failure forensics end-to-end (ISSUE 4): counterexample artifact
//! directories, `gem replay` reproduction, formula blame and the
//! crash-safe flight recorder.

#[path = "support/specs.rs"]
mod specs;

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gem::lang::monitor::readers_writers_monitor;
use gem::obs::json::{parse, JsonValue};
use gem::obs::{clear_crash_sink, install_crash_sink, EventLog};
use gem::problems::readers_writers::{rw_correspondence, rw_program};
use gem::verify::{verify_system, VerifyOptions};

/// The crash sink is process-wide and `--artifacts` retargets it, so a
/// test arming it (directly or through the CLI) holds this lock: another
/// test's sweep must not redirect its crash dump.
fn crash_sink_lock() -> MutexGuard<'static, ()> {
    static ARMED: Mutex<()> = Mutex::new(());
    ARMED.lock().unwrap_or_else(PoisonError::into_inner)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gem-forensics-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn runv(args: &[&str]) -> Result<String, gem_cli::CliError> {
    let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
    gem_cli::run(&owned).map(|out| out.stdout)
}

fn read_json(path: &Path) -> JsonValue {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// The tentpole differential: a failing `gem verify --artifacts` produces
/// a self-contained directory, and `gem replay` on that directory alone
/// reproduces the identical single-run `VerifyOutcome`.
#[test]
fn failing_verify_writes_artifacts_and_replay_reproduces() {
    let _sink = crash_sink_lock();
    let dir = temp_dir("replay");
    let dir_s = dir.to_str().unwrap();
    let out = runv(&[
        "verify",
        "rw",
        "readers=1",
        "writers=2",
        "variant=writers",
        "--artifacts",
        dir_s,
        "--heartbeat",
        "0",
    ])
    .unwrap();
    assert!(out.contains("FAILS"), "{out}");
    assert!(out.contains("artifacts:"), "{out}");

    for name in [
        "meta.json",
        "schedule.json",
        "computation.json",
        "blame.json",
        "counterexample.dot",
        "counterexample_slice.dot",
        "outcome.json",
    ] {
        assert!(dir.join(name).exists(), "missing artifact file {name}");
    }

    // meta.json carries everything replay needs to rebuild the instance.
    let meta = read_json(&dir.join("meta.json"));
    assert_eq!(meta.get("problem").and_then(JsonValue::as_str), Some("rw"));
    assert_eq!(
        meta.get("kind").and_then(JsonValue::as_str),
        Some("failure")
    );

    // blame.json names the violated restriction and concrete witnesses.
    let blame = read_json(&dir.join("blame.json"));
    let restrictions = blame
        .get("restrictions")
        .and_then(JsonValue::as_arr)
        .unwrap();
    assert_eq!(restrictions.len(), 1, "one failed restriction");
    assert_eq!(
        restrictions[0].get("name").and_then(JsonValue::as_str),
        Some("writers-priority")
    );
    let frames = restrictions[0]
        .get("frames")
        .and_then(JsonValue::as_arr)
        .unwrap();
    assert!(!frames.is_empty(), "blame has a falsification path");
    let witnesses: Vec<&JsonValue> = frames
        .iter()
        .flat_map(|f| {
            f.get("witnesses")
                .and_then(JsonValue::as_arr)
                .unwrap_or(&[])
        })
        .collect();
    assert!(!witnesses.is_empty(), "some frame carries witness events");

    // Every witness label is highlighted in the dot rendering.
    let dot = std::fs::read_to_string(dir.join("counterexample.dot")).unwrap();
    for w in &witnesses {
        let label = w.get("label").and_then(JsonValue::as_str).unwrap();
        assert!(dot.contains(label), "witness {label} missing from dot");
    }
    assert!(dot.contains("fillcolor"), "blamed events are highlighted");

    // The schedule replays to the identical outcome.
    let replayed = runv(&["replay", dir_s, "--heartbeat", "0"]).unwrap();
    assert!(replayed.contains("REPRODUCED"), "{replayed}");
    assert!(replayed.contains("writers-priority"), "{replayed}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A tampered schedule must make `gem replay` fail loudly, not silently
/// check a different run.
#[test]
fn replay_diverges_on_tampered_schedule() {
    let _sink = crash_sink_lock();
    let dir = temp_dir("tamper");
    let dir_s = dir.to_str().unwrap();
    runv(&[
        "verify",
        "rw",
        "readers=1",
        "writers=2",
        "variant=writers",
        "--artifacts",
        dir_s,
        "--heartbeat",
        "0",
    ])
    .unwrap();
    let path = dir.join("schedule.json");
    let schedule = std::fs::read_to_string(&path).unwrap();
    // Corrupt the recorded Debug text of the first action.
    let tampered = schedule.replacen("\"action\": \"", "\"action\": \"XX", 1);
    assert_ne!(schedule, tampered);
    std::fs::write(&path, tampered).unwrap();
    let err = runv(&["replay", dir_s, "--heartbeat", "0"]).unwrap_err();
    assert!(err.to_string().contains("replay step 0"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Golden rendering of the readers/writers counterexample: the highlight
/// and causal-slice dot output is deterministic, so it is compared
/// byte-for-byte against checked-in files. Regenerate with
/// `gem verify rw readers=1 writers=2 variant=writers --artifacts <dir>`.
#[test]
fn golden_counterexample_dot() {
    let _sink = crash_sink_lock();
    let dir = temp_dir("golden");
    let dir_s = dir.to_str().unwrap();
    runv(&[
        "verify",
        "rw",
        "readers=1",
        "writers=2",
        "variant=writers",
        "--artifacts",
        dir_s,
        "--heartbeat",
        "0",
    ])
    .unwrap();
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (generated, golden) in [
        ("counterexample.dot", "rw_counterexample.dot"),
        ("counterexample_slice.dot", "rw_counterexample_slice.dot"),
    ] {
        let got = std::fs::read_to_string(dir.join(generated)).unwrap();
        let want = std::fs::read_to_string(golden_dir.join(golden)).unwrap();
        assert_eq!(got, want, "{generated} drifted from tests/golden/{golden}");
    }
    // The slice really is a restriction: fewer nodes than the full view.
    let full = std::fs::read_to_string(dir.join("counterexample.dot")).unwrap();
    let slice = std::fs::read_to_string(dir.join("counterexample_slice.dot")).unwrap();
    assert!(slice.contains("causal slice"));
    assert!(slice.lines().count() < full.lines().count());
    std::fs::remove_dir_all(&dir).ok();
}

/// A deadlocked sweep (no restriction failure) still produces an
/// artifact, marked as a deadlock, whose replay reproduces the deadlock.
#[test]
fn deadlock_artifact_and_replay() {
    let _sink = crash_sink_lock();
    let dir = temp_dir("deadlock");
    let dir_s = dir.to_str().unwrap();
    let out = runv(&[
        "verify",
        "philosophers",
        "n=2",
        "order=naive",
        "--artifacts",
        dir_s,
        "--heartbeat",
        "0",
    ])
    .unwrap();
    assert!(out.contains("FAILS"), "{out}");
    let meta = read_json(&dir.join("meta.json"));
    assert_eq!(
        meta.get("kind").and_then(JsonValue::as_str),
        Some("deadlock")
    );
    let outcome = read_json(&dir.join("outcome.json"));
    let replay = outcome.get("replay").unwrap();
    assert_eq!(replay.get("deadlocks").and_then(JsonValue::as_u64), Some(1));
    let replayed = runv(&["replay", dir_s, "--heartbeat", "0"]).unwrap();
    assert!(replayed.contains("REPRODUCED"), "{replayed}");
    std::fs::remove_dir_all(&dir).ok();
}

/// An induced panic mid-sweep leaves a crash artifact holding the last
/// probe events per thread and the live span stacks.
#[test]
fn panic_mid_sweep_dumps_flight_recorder() {
    let _sink = crash_sink_lock();
    let dir = temp_dir("crash");
    let crash = dir.join("crash.json");
    let recorder = Arc::new(EventLog::new(64));
    install_crash_sink(recorder.clone(), crash.clone());

    let sys = rw_program(readers_writers_monitor(), 1, 1, false);
    // The induced panic lives in `extract`, which the incremental checker
    // would legitimately skip on clean leaves: this spec sends every run
    // to it.
    let spec = specs::batch_only_spec();
    let corr = rw_correspondence(&sys, &spec, false);
    let runs = std::cell::Cell::new(0u32);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        verify_system(
            &sys,
            &spec,
            &corr,
            |state| {
                runs.set(runs.get() + 1);
                if runs.get() > 2 {
                    panic!("induced mid-sweep failure");
                }
                sys.computation(state).expect("acyclic")
            },
            &VerifyOptions {
                probe: recorder.clone(),
                ..VerifyOptions::default()
            },
        )
    }));
    clear_crash_sink();
    assert!(result.is_err(), "the sweep must have panicked");

    let dump = read_json(&crash);
    assert_eq!(
        dump.get("kind").and_then(JsonValue::as_str),
        Some("flight_recorder")
    );
    let message = dump
        .get("panic")
        .and_then(|p| p.get("message"))
        .and_then(JsonValue::as_str)
        .unwrap();
    assert!(message.contains("induced mid-sweep failure"), "{message}");
    let threads = dump.get("threads").and_then(JsonValue::as_arr).unwrap();
    assert!(!threads.is_empty(), "at least one thread ring dumped");
    let events = threads[0]
        .get("events")
        .and_then(JsonValue::as_arr)
        .unwrap();
    assert!(!events.is_empty(), "ring holds probe events");
    // The verify span was still open when the panic hit.
    let stacks: Vec<&str> = threads
        .iter()
        .flat_map(|t| {
            t.get("span_stack")
                .and_then(JsonValue::as_arr)
                .unwrap_or(&[])
        })
        .filter_map(JsonValue::as_str)
        .collect();
    assert!(
        stacks.contains(&"verify"),
        "span stack {stacks:?} should contain the open verify span"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--trace` lines carry a thread ordinal, and the lines partition by
/// it: every event belongs to exactly one thread's stream.
#[test]
fn trace_lines_partition_by_thread_id() {
    let dir = temp_dir("tid");
    let path = dir.join("trace.jsonl");
    let path_s = path.to_str().unwrap().to_owned();
    runv(&[
        "explore",
        "rw",
        "readers=1",
        "writers=1",
        "--trace",
        &path_s,
        "--heartbeat",
        "0",
    ])
    .unwrap();
    let trace = std::fs::read_to_string(&path).unwrap();
    let mut tids = std::collections::BTreeSet::new();
    let mut lines = 0usize;
    for line in trace.lines() {
        let v = parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        let tid = v
            .get("tid")
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("line without tid: {line}"));
        tids.insert(tid);
        lines += 1;
    }
    assert!(lines > 0, "trace captured events");
    assert!(!tids.is_empty());
    // Partition check: summing per-tid line counts reproduces the total.
    let per_tid: usize = tids
        .iter()
        .map(|t| {
            trace
                .lines()
                .filter(|l| parse(l).unwrap().get("tid").and_then(JsonValue::as_u64) == Some(*t))
                .count()
        })
        .sum();
    assert_eq!(per_tid, lines);
    std::fs::remove_dir_all(&dir).ok();
}

/// Per-thread `(kind, key)` sequences, keyed by thread ordinal.
type Lanes = std::collections::BTreeMap<u64, Vec<(String, String)>>;

/// `--trace`, `--trace-out` and the `--artifacts` crash dump render one
/// event log, so they agree on every thread's event order: the Chrome
/// trace is the JSON lines' timer, counter and
/// histogram events, and the crash dump is each thread's last events.
#[test]
fn trace_chrome_and_crash_dump_agree_per_thread() {
    let _sink = crash_sink_lock();
    let dir = temp_dir("three-renderings");
    let (jsonl, chrome) = (dir.join("t.jsonl"), dir.join("t.json"));
    let (jsonl_s, chrome_s) = (jsonl.to_str().unwrap(), chrome.to_str().unwrap());
    let out = runv(&[
        "verify",
        "rw",
        "readers=1",
        "writers=1",
        "--trace",
        jsonl_s,
        "--trace-out",
        chrome_s,
        "--artifacts",
        dir.to_str().unwrap(),
        "--heartbeat",
        "0",
    ])
    .unwrap();
    assert!(out.contains("HOLDS"), "{out}");
    // The run left its log armed as the crash sink; a panic now dumps
    // the log exactly as the run finished it.
    let panicked = std::panic::catch_unwind(|| panic!("induced after the run"));
    clear_crash_sink();
    assert!(panicked.is_err());

    let mut lines = Lanes::new();
    for line in std::fs::read_to_string(&jsonl).unwrap().lines() {
        let v = parse(line).unwrap();
        let field = |k: &str| v.get(k).and_then(JsonValue::as_str).unwrap().to_owned();
        let tid = v.get("tid").and_then(JsonValue::as_u64).unwrap();
        lines
            .entry(tid)
            .or_default()
            .push((field("ev"), field("k")));
    }
    assert!(!lines.is_empty(), "the sweep logged");

    let trace = read_json(&chrome);
    let mut lanes = Lanes::new();
    for ev in trace
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .unwrap()
    {
        let field = |k: &str| ev.get(k).and_then(JsonValue::as_str).unwrap().to_owned();
        let tid = ev.get("tid").and_then(JsonValue::as_u64).unwrap();
        lanes
            .entry(tid)
            .or_default()
            .push((field("ph"), field("name")));
    }
    for (tid, events) in &lines {
        let expected: Vec<(String, String)> = events
            .iter()
            .filter_map(|(ev, k)| match ev.as_str() {
                "time" => Some(("X".to_owned(), k.clone())),
                "counter" | "record" => Some(("C".to_owned(), k.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            lanes.get(tid).cloned().unwrap_or_default(),
            expected,
            "tid {tid}"
        );
    }

    let dump = read_json(&dir.join("crash.json"));
    let tail = dump
        .get("capacity_per_thread")
        .and_then(JsonValue::as_u64)
        .unwrap() as usize;
    let threads = dump.get("threads").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(threads.len(), lines.len(), "one ring per logging thread");
    for t in threads {
        let tid = t.get("tid").and_then(JsonValue::as_u64).unwrap();
        let events = t.get("events").and_then(JsonValue::as_arr).unwrap();
        let seqs: Vec<u64> = events
            .iter()
            .map(|e| e.get("seq").and_then(JsonValue::as_u64).unwrap())
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "tid {tid}: {seqs:?}");
        let recorded: Vec<(String, String)> = events
            .iter()
            .map(|e| {
                let kind = e.get("kind").and_then(JsonValue::as_str).unwrap();
                let kind = if kind == "count" { "counter" } else { kind };
                (
                    kind.to_owned(),
                    e.get("k").and_then(JsonValue::as_str).unwrap().to_owned(),
                )
            })
            .collect();
        let all = &lines[&tid];
        assert_eq!(recorded.len(), all.len().min(tail), "tid {tid}");
        assert_eq!(recorded, all[all.len() - recorded.len()..], "tid {tid}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
