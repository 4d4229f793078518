//! Golden step semantics: the compiled simulators must reproduce, run for
//! run, the computations of the tree-walking interpreters they replaced.
//!
//! `tests/golden/step_semantics.json` was captured from those interpreters
//! before they were deleted. Its rows cover every `gem list` problem on
//! every substrate the CLI builds it on, each swept plainly and with
//! `--por` at one job (`life` plainly only: a reduced sweep never reaches
//! its 50-run bound in useful time). Each row pins:
//!
//! * the run and deadlock counts, the truncation, and the verdict with
//!   the names of the violated restrictions;
//! * an order-sensitive digest of the DFS-ordered
//!   `(Computation::fingerprint, event count)` sequence. The fingerprint
//!   hashes every event's parameters, so a wrongly computed value fails
//!   the row, not only a changed event shape;
//! * the `gem verify` stdout, a digest of every counterexample artifact
//!   file, and the `--stats-json` report with timings stripped. `code.*`
//!   and `explore.compile_ns` describe the compiled programs themselves,
//!   which the interpreters did not have, so they are not pinned; nor are
//!   the `logic.incr.leaf_eval.*` counters and timers, per-restriction
//!   telemetry of the incremental checker added after the capture, nor
//!   the `verify.leaf.*` provenance counters added later still (their sum
//!   is pinned to `explore.runs` in `tests/observability.rs`);
//! * under `commands`, a digest of the stdout bytes of `render`, `dot`,
//!   `deadlock` (not for `life`, whose unbounded state search does not
//!   finish in useful time), and `explore`, with `--por` in the `por`
//!   rows. These were captured later, from the
//!   compiled simulators at the commit that deleted the interpreters,
//!   before the CLI's per-substrate dispatch was folded into one generic
//!   path.
//!
//! Rows named `unit/...` hold the simulators' own unit-test programs and
//! are replayed by those unit tests.

use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};

use gem::core::Computation;
use gem::lang::{Explorer, System};
use gem::obs::fingerprint_words;
use gem::obs::json::{self, JsonValue};
use gem::spec::Specification;
use gem::verify::{verify_system, Correspondence, VerifyOptions};
use gem_cli::{instance, Instance, Params, Program};

const GOLDEN: &str = include_str!("golden/step_semantics.json");

/// Prefixes of the keys the golden reports do not pin.
const LEAF_EVAL: &str = "logic.incr.leaf_eval.";
const LEAF_PATH: &str = "verify.leaf.";

fn hex(word: u64) -> JsonValue {
    JsonValue::Str(format!("{word:#018x}"))
}

fn num(n: usize) -> JsonValue {
    JsonValue::Num(n as f64)
}

/// The library-level fields of a row: one `verify_system` sweep for the
/// verdict, one explorer sweep for the computation digest.
fn sweep<S: System>(
    sys: &S,
    spec: &Specification,
    corr: &Correspondence,
    max_runs: usize,
    por: bool,
    computation: impl Fn(&S::State) -> Computation,
) -> Vec<(String, JsonValue)> {
    let explorer = Explorer {
        reduce: por,
        ..Explorer::with_max_runs(max_runs)
    };
    let options = VerifyOptions {
        explorer,
        ..VerifyOptions::default()
    };
    let outcome = verify_system(sys, spec, corr, &computation, &options).expect("projection");
    let mut words = Vec::new();
    explorer.for_each_run(sys, |state, _| {
        let c = computation(state);
        words.extend([c.fingerprint(), c.event_count() as u64]);
        ControlFlow::Continue(())
    });
    let violated: BTreeSet<&str> = outcome
        .failures
        .iter()
        .flat_map(|f| f.violated.iter().map(String::as_str))
        .collect();
    vec![
        ("runs".into(), num(outcome.runs)),
        ("deadlocks".into(), num(outcome.deadlocks)),
        (
            "truncation".into(),
            outcome
                .truncation
                .map_or(JsonValue::Null, |t| JsonValue::Str(t.to_string())),
        ),
        (
            "verdict".into(),
            JsonValue::Str(if outcome.ok() { "HOLDS" } else { "FAILS" }.into()),
        ),
        (
            "violated".into(),
            JsonValue::Arr(
                violated
                    .into_iter()
                    .map(|v| JsonValue::Str(v.into()))
                    .collect(),
            ),
        ),
        ("digest".into(), hex(fingerprint_words(&words))),
    ]
}

/// The CLI-level fields of a row: `gem verify` stdout, artifact digests,
/// and the timing-free stats report.
fn cli(line: &str, por: bool) -> Vec<(String, JsonValue)> {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gem-golden-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let art = dir.join("artifacts");
    let stats = dir.join("stats.json");
    let art_s = art.to_str().expect("utf-8").to_owned();
    let stats_s = stats.to_str().expect("utf-8").to_owned();
    let mut args: Vec<String> = std::iter::once("verify")
        .chain(line.split_whitespace())
        .chain(["--heartbeat", "0", "--artifacts", &art_s])
        .chain(["--stats-json", &stats_s])
        .map(str::to_owned)
        .collect();
    if por {
        args.push("--por".to_owned());
    }
    let stdout = gem_cli::run(&args)
        .expect("cli run")
        .stdout
        .replace(&art_s, "<artifacts>");
    let text = std::fs::read_to_string(&stats).expect("stats written");
    let mut report = gem::obs::Report::from_json(&text)
        .expect("valid report")
        .without_timings();
    report.counters.retain(|k, _| {
        !["code.", LEAF_EVAL, LEAF_PATH]
            .iter()
            .any(|p| k.starts_with(p))
    });
    report.timers.retain(|k, _| !k.starts_with(LEAF_EVAL));
    report.hists.remove("explore.compile_ns");
    let mut artifacts = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(&art)
        .expect("artifact dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let bytes = std::fs::read(&path).expect("artifact file");
        let words: Vec<u64> = bytes.iter().map(|&b| u64::from(b)).collect();
        let name = path.file_name().expect("file name").to_string_lossy();
        artifacts.push((name.into_owned(), hex(fingerprint_words(&words))));
    }
    std::fs::remove_dir_all(&dir).ok();
    vec![
        ("stdout".into(), JsonValue::Str(stdout)),
        ("artifacts".into(), JsonValue::Obj(artifacts)),
        (
            "report".into(),
            json::parse(&report.to_json()).expect("report JSON"),
        ),
    ]
}

/// Digests of the other commands' stdout on the row's instance:
/// `explore` under the row's mode, and `render`,
/// `dot` and `deadlock`, which have no mode.
fn commands(line: &str, por: bool) -> Vec<(String, JsonValue)> {
    let digest = |cmd: &str| {
        let mut args: Vec<String> = std::iter::once(cmd)
            .chain(line.split_whitespace())
            .chain(["--heartbeat", "0"])
            .map(str::to_owned)
            .collect();
        if por && cmd == "explore" {
            args.push("--por".to_owned());
        }
        let stdout = gem_cli::run(&args).expect("cli run").stdout;
        let words: Vec<u64> = stdout.bytes().map(u64::from).collect();
        hex(fingerprint_words(&words))
    };
    let mut digests = vec![
        ("render".into(), digest("render")),
        ("explore".into(), digest("explore")),
        ("dot".into(), digest("dot")),
    ];
    // `deadlock` searches the whole state space with no run bound, which
    // `life` does not finish in useful time.
    if !line.starts_with("life") {
        digests.push(("deadlock".into(), digest("deadlock")));
    }
    vec![("commands".into(), JsonValue::Obj(digests))]
}

/// Replays one golden row with the current simulators.
fn replay(line: &str, mode: &str) -> JsonValue {
    let por = match mode {
        "plain" => false,
        "por" => true,
        other => panic!("unknown mode {other:?}"),
    };
    let mut words = line.split_whitespace().map(str::to_owned);
    let problem = words.next().expect("problem name");
    let params = Params::parse(&words.collect::<Vec<_>>()).expect("key=value params");
    let mut fields = vec![
        ("instance".into(), JsonValue::Str(line.into())),
        ("mode".into(), JsonValue::Str(mode.into())),
    ];
    let Instance {
        program,
        spec,
        corr,
        max_runs,
    } = &instance(&problem, &params).expect("instance");
    fields.extend(match program {
        Program::Monitor(sys) => sweep(sys, spec, corr, *max_runs, por, |st| {
            sys.computation(st).expect("acyclic")
        }),
        Program::Csp(sys) => sweep(sys, spec, corr, *max_runs, por, |st| {
            sys.computation(st).expect("acyclic")
        }),
        Program::Ada(sys) => sweep(sys, spec, corr, *max_runs, por, |st| {
            sys.computation(st).expect("acyclic")
        }),
    });
    fields.extend(cli(line, por));
    fields.extend(commands(line, por));
    JsonValue::Obj(fields)
}

/// Appends one line per differing leaf between `want` and `got`.
fn diff(path: &str, want: &JsonValue, got: &JsonValue, out: &mut Vec<String>) {
    match (want, got) {
        (JsonValue::Obj(w), JsonValue::Obj(g)) => {
            for (k, wv) in w {
                match got.get(k) {
                    Some(gv) => diff(&format!("{path}.{k}"), wv, gv, out),
                    None => out.push(format!("{path}.{k}: missing, golden {wv:?}")),
                }
            }
            for (k, gv) in g {
                if want.get(k).is_none() {
                    out.push(format!("{path}.{k}: not in golden, got {gv:?}"));
                }
            }
        }
        (JsonValue::Arr(w), JsonValue::Arr(g)) if w.len() == g.len() => {
            for (i, (wv, gv)) in w.iter().zip(g).enumerate() {
                diff(&format!("{path}[{i}]"), wv, gv, out);
            }
        }
        _ if want != got => out.push(format!("{path}: golden {want:?}, got {got:?}")),
        _ => {}
    }
}

fn golden_rows() -> Vec<JsonValue> {
    let golden = json::parse(GOLDEN).expect("golden JSON");
    golden
        .get("rows")
        .and_then(JsonValue::as_arr)
        .expect("rows array")
        .to_vec()
}

fn field<'a>(row: &'a JsonValue, key: &str) -> &'a str {
    row.get(key)
        .and_then(JsonValue::as_str)
        .expect("string field")
}

/// Replays every golden row whose instance satisfies `select` and fails
/// with each differing instance, mode and field.
fn assert_golden(select: impl Fn(&str) -> bool) {
    let mut mismatches = Vec::new();
    let mut replayed = 0;
    for want in golden_rows() {
        let line = field(&want, "instance");
        if line.starts_with("unit/") || !select(line) {
            continue;
        }
        let mode = field(&want, "mode");
        diff(
            &format!("{line} [{mode}]"),
            &want,
            &replay(line, mode),
            &mut mismatches,
        );
        replayed += 1;
    }
    assert!(replayed > 0, "no golden row selected");
    assert!(
        mismatches.is_empty(),
        "step semantics diverge from tests/golden/step_semantics.json:\n{}",
        mismatches.join("\n")
    );
}

/// The instances the named tests below replay; `golden_matrix_agrees`
/// replays every other row.
const NAMED: [&str; 6] = [HOLDING, FAILING, WAIT_SIGNAL, CSP, ADA, DEADLOCKING];
const HOLDING: &str = "rw readers=1 writers=1 variant=mutex";
/// Readers-priority monitor against the writers-priority spec: FAILS.
const FAILING: &str = "rw readers=1 writers=2 variant=writers";
/// Writers-priority monitor against the readers-priority spec: Hoare
/// signal chains, urgent-queue handoff and condition queues.
const WAIT_SIGNAL: &str = "rw readers=2 writers=1 monitor=writers variant=readers";
const CSP: &str = "bounded items=2 cap=1 substrate=csp";
const ADA: &str = "one-slot items=2 substrate=ada";
/// Naive-order philosophers deadlock.
const DEADLOCKING: &str = "philosophers n=2 order=naive";

#[test]
fn monitor_holding_instance_agrees() {
    assert_golden(|line| line == HOLDING);
}

#[test]
fn monitor_failing_instance_agrees() {
    assert_golden(|line| line == FAILING);
}

#[test]
fn monitor_wait_signal_heavy_instance_agrees() {
    assert_golden(|line| line == WAIT_SIGNAL);
}

#[test]
fn csp_substrate_agrees() {
    assert_golden(|line| line == CSP);
}

#[test]
fn ada_substrate_agrees() {
    assert_golden(|line| line == ADA);
}

#[test]
fn deadlocking_instance_agrees() {
    assert_golden(|line| line == DEADLOCKING);
}

#[test]
fn golden_matrix_agrees() {
    assert_golden(|line| !NAMED.contains(&line));
}

mod expr_codegen {
    //! Property: for random expressions (well-typed or not), compiling
    //! into the postfix Code IR and evaluating over slots produces
    //! exactly `Expr::eval`'s result — value *and* error alike.

    use gem::core::Value;
    use gem::lang::code::{ExprPool, SlotLayout};
    use gem::lang::{Expr, VarStore};
    use proptest::prelude::*;

    fn arb_expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            (-4i64..5).prop_map(Expr::int),
            any::<bool>().prop_map(Expr::bool),
            prop_oneof![Just("s1"), Just("s2")].prop_map(Expr::str),
            // `u` stays unbound, exercising UndefinedVariable parity.
            prop_oneof![Just("a"), Just("b"), Just("c"), Just("u")].prop_map(Expr::var),
        ];
        leaf.prop_recursive(4, 32, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone(), 0usize..13).prop_map(|(l, r, op)| match op {
                    0 => l.add(r),
                    1 => l.sub(r),
                    2 => l.mul(r),
                    3 => l.div(r),
                    4 => l.rem(r),
                    5 => l.eq(r),
                    6 => l.ne(r),
                    7 => l.lt(r),
                    8 => l.le(r),
                    9 => l.gt(r),
                    10 => l.ge(r),
                    11 => l.and(r),
                    _ => l.or(r),
                }),
                inner.clone().prop_map(|e| e.not()),
                inner.prop_map(|e| e.neg()),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn compiled_eval_matches_interpreter(e in arb_expr()) {
            let mut store = VarStore::new();
            store.set("a", Value::Int(3));
            store.set("b", Value::Bool(true));
            store.set("c", Value::Str("s1".into()));
            let mut locals = SlotLayout::new();
            for n in ["a", "b", "c", "u"] {
                locals.intern(n);
            }
            let lslots = vec![
                Some(Value::Int(3)),
                Some(Value::Bool(true)),
                Some(Value::Str("s1".into())),
                None,
            ];
            let globals = SlotLayout::new();
            let mut pool = ExprPool::new();
            let id = pool.compile(&e, &locals, &globals);
            prop_assert_eq!(pool.eval(id, &[], &lslots), e.eval(&store));
        }

        #[test]
        fn globals_show_through_unbound_locals(e in arb_expr()) {
            // Locals shadow globals, but an unbound local slot falls
            // through: compile against a layout where `a` is a local yet
            // only the global scope binds it.
            let mut store = VarStore::new();
            store.set("a", Value::Int(7));
            store.set("b", Value::Bool(false));
            store.set("c", Value::Str("s2".into()));
            let mut locals = SlotLayout::new();
            locals.intern("a");
            let mut globals = SlotLayout::new();
            for n in ["a", "b", "c"] {
                globals.intern(n);
            }
            let gslots = vec![
                Value::Int(7),
                Value::Bool(false),
                Value::Str("s2".into()),
            ];
            let lslots = vec![None]; // `a` declared locally, never bound
            let mut pool = ExprPool::new();
            let id = pool.compile(&e, &locals, &globals);
            prop_assert_eq!(pool.eval(id, &gslots, &lslots), e.eval(&store));
        }
    }
}
