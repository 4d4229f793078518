//! Failure injection: deliberately broken programs must be *refuted* by
//! the verification pipeline — the sensitivity half of every experiment.

use gem::core::Value;
use gem::lang::monitor::{MonitorDef, MonitorProgram, MonitorSystem, ProcessDef, ScriptStep, Stmt};
use gem::lang::{find_deadlock, Explorer, Expr};
use gem::obs::NoopProbe;
use gem::problems::readers_writers::{rw_correspondence, rw_spec, RwVariant};
use gem::problems::{bounded, one_slot};
use gem::verify::{verify_system, VerifyOptions};

fn call(entry: &str) -> ScriptStep {
    ScriptStep::Call {
        entry: entry.into(),
        args: vec![],
    }
}

/// A Readers/Writers "monitor" that never waits: mutual exclusion must be
/// refuted (readers run while a writer writes).
#[test]
fn no_wait_rw_monitor_violates_mutex() {
    let broken = MonitorDef::new("ReadersWriters") // same name/vars as the real one
        .var("readernum", 0i64)
        .condition("readqueue")
        .condition("writequeue")
        .entry(
            "StartRead",
            &[],
            vec![Stmt::assign(
                "readernum",
                Expr::var("readernum").add(Expr::int(1)),
            )],
        )
        .entry(
            "EndRead",
            &[],
            vec![Stmt::assign(
                "readernum",
                Expr::var("readernum").sub(Expr::int(1)),
            )],
        )
        .entry(
            "StartWrite",
            &[],
            vec![Stmt::assign("readernum", Expr::int(-1))],
        )
        .entry(
            "EndWrite",
            &[],
            vec![Stmt::assign("readernum", Expr::int(0))],
        );
    let mut prog = MonitorProgram::new(broken)
        .shared_var("data", 0i64)
        .user_class("Read", &[])
        .user_class("FinishRead", &[])
        .user_class("Write", &[])
        .user_class("FinishWrite", &[]);
    prog = prog.process(ProcessDef::new(
        "u0",
        vec![
            ScriptStep::Event {
                class: "Read".into(),
                params: vec![],
            },
            call("StartRead"),
            ScriptStep::ReadShared { var: "data".into() },
            call("EndRead"),
            ScriptStep::Event {
                class: "FinishRead".into(),
                params: vec![],
            },
        ],
    ));
    prog = prog.process(ProcessDef::new(
        "u1",
        vec![
            ScriptStep::Event {
                class: "Write".into(),
                params: vec![],
            },
            call("StartWrite"),
            ScriptStep::WriteShared {
                var: "data".into(),
                value: Expr::int(7),
            },
            call("EndWrite"),
            ScriptStep::Event {
                class: "FinishWrite".into(),
                params: vec![],
            },
        ],
    ));
    let sys = MonitorSystem::new(prog);
    let problem = rw_spec(2, true, RwVariant::MutexOnly);
    let corr = rw_correspondence(&sys, &problem, true);
    let outcome = verify_system(
        &sys,
        &problem,
        &corr,
        |s| sys.computation(s).unwrap(),
        &VerifyOptions::default(),
    )
    .unwrap();
    assert!(!outcome.ok(), "a monitor without waits cannot exclude");
    let violated: Vec<_> = outcome
        .failures
        .iter()
        .flat_map(|f| f.violated.iter().cloned())
        .collect();
    assert!(
        violated
            .iter()
            .any(|v| v == "writers-exclude-readers" || v == "reads-isolated-from-writes"),
        "mutex family violated: {violated:?}"
    );
}

/// A CSP "bounded buffer" that swaps two items violates FIFO values.
#[test]
fn reordering_csp_buffer_violates_fifo() {
    use gem::lang::csp::{CspProcess, CspProgram, CspStmt, CspSystem};
    let items = [1i64, 2];
    let prog = CspProgram::new()
        .process(CspProcess::new(
            "producer",
            vec![
                CspStmt::send("cell0", Expr::int(items[0])),
                CspStmt::send("cell0", Expr::int(items[1])),
            ],
        ))
        .process(
            CspProcess::new(
                "cell0",
                vec![
                    // Buggy: buffers TWO items, then emits them swapped.
                    CspStmt::recv("producer", "x"),
                    CspStmt::recv("producer", "y"),
                    CspStmt::send("consumer", Expr::var("y")),
                    CspStmt::send("consumer", Expr::var("x")),
                ],
            )
            .local("x", 0i64)
            .local("y", 0i64),
        )
        .process(
            CspProcess::new(
                "consumer",
                vec![CspStmt::recv("cell0", "a"), CspStmt::recv("cell0", "b")],
            )
            .local("a", 0i64)
            .local("b", 0i64),
        );
    let sys = CspSystem::new(prog);
    let problem = bounded::bounded_spec(items.len(), 2);
    let corr = bounded::csp_correspondence(&sys, &problem, 1);
    let outcome = verify_system(
        &sys,
        &problem,
        &corr,
        |s| sys.computation(s).unwrap(),
        &VerifyOptions::default(),
    )
    .unwrap();
    assert!(!outcome.ok());
    assert!(outcome
        .failures
        .iter()
        .any(|f| f.violated.iter().any(|v| v == "fifo-values")));
}

/// An ADA buffer whose guard is off by one admits an overflow: the
/// capacity restriction catches it.
#[test]
fn off_by_one_ada_guard_violates_capacity() {
    use gem::lang::ada::{AcceptArm, AdaProgram, AdaStmt, AdaSystem, AdaTask, SelectBranch};
    let cap_claimed = 1usize;
    // The buffer physically holds 2 but the spec says capacity 1.
    let n = 2i64;
    let put_arm = AcceptArm {
        entry: "Put".into(),
        params: vec!["v".into()],
        body: vec![
            AdaStmt::If(
                Expr::var("inx").eq(Expr::int(0)),
                vec![AdaStmt::assign("slot0", Expr::var("v"))],
                vec![AdaStmt::assign("slot1", Expr::var("v"))],
            ),
            AdaStmt::assign("inx", Expr::var("inx").add(Expr::int(1)).rem(Expr::int(2))),
            AdaStmt::assign("count", Expr::var("count").add(Expr::int(1))),
            AdaStmt::assign("puts", Expr::var("puts").add(Expr::int(1))),
        ],
    };
    let take_arm = AcceptArm {
        entry: "Take".into(),
        params: vec![],
        body: vec![
            AdaStmt::If(
                Expr::var("outx").eq(Expr::int(0)),
                vec![AdaStmt::assign("out", Expr::var("slot0"))],
                vec![AdaStmt::assign("out", Expr::var("slot1"))],
            ),
            AdaStmt::assign(
                "outx",
                Expr::var("outx").add(Expr::int(1)).rem(Expr::int(2)),
            ),
            AdaStmt::assign("count", Expr::var("count").sub(Expr::int(1))),
            AdaStmt::assign("takes", Expr::var("takes").add(Expr::int(1))),
        ],
    };
    let buffer = AdaTask::new(
        "buffer",
        vec![AdaStmt::While(
            Expr::var("puts")
                .lt(Expr::int(n))
                .or(Expr::var("takes").lt(Expr::int(n))),
            vec![AdaStmt::Select(vec![
                SelectBranch {
                    // BUG: admits up to 2 items though the spec says 1.
                    guard: Some(
                        Expr::var("count")
                            .lt(Expr::int(2))
                            .and(Expr::var("puts").lt(Expr::int(n))),
                    ),
                    accept: put_arm,
                },
                SelectBranch {
                    guard: Some(Expr::var("count").gt(Expr::int(0))),
                    accept: take_arm,
                },
            ])],
        )],
    )
    .entry("Put")
    .entry("Take")
    .local("count", 0i64)
    .local("inx", 0i64)
    .local("outx", 0i64)
    .local("out", 0i64)
    .local("puts", 0i64)
    .local("takes", 0i64)
    .local("slot0", 0i64)
    .local("slot1", 0i64);
    let producer = AdaTask::new(
        "producer",
        vec![
            AdaStmt::call("buffer", "Put", vec![Expr::int(10)]),
            AdaStmt::call("buffer", "Put", vec![Expr::int(20)]),
        ],
    );
    let consumer = AdaTask::new(
        "consumer",
        vec![
            AdaStmt::call("buffer", "Take", vec![]),
            AdaStmt::call("buffer", "Take", vec![]),
        ],
    );
    let sys = AdaSystem::new(AdaProgram::new().task(buffer).task(producer).task(consumer));
    let problem = bounded::bounded_spec(2, cap_claimed);
    let corr = bounded::ada_correspondence(&sys, &problem, 2);
    let outcome = verify_system(
        &sys,
        &problem,
        &corr,
        |s| sys.computation(s).unwrap(),
        &VerifyOptions::default(),
    )
    .unwrap();
    assert!(!outcome.ok());
    assert!(outcome
        .failures
        .iter()
        .any(|f| f.violated.iter().any(|v| v == "capacity")));
}

/// Swapped producer/consumer scripts deadlock and are reported as such.
#[test]
fn take_before_put_deadlocks() {
    let monitor = MonitorDef::new("Slot")
        .var("slot", 0i64)
        .var("full", Value::Bool(false))
        .var("taken", 0i64)
        .condition("nonempty")
        .entry(
            "Take",
            &[],
            vec![
                Stmt::if_then(Expr::var("full").not(), vec![Stmt::wait("nonempty")]),
                Stmt::assign("taken", Expr::var("slot")),
            ],
        );
    let prog =
        MonitorProgram::new(monitor).process(ProcessDef::new("consumer", vec![call("Take")]));
    let sys = MonitorSystem::new(prog);
    assert!(find_deadlock(&sys, &Explorer::default(), &NoopProbe).is_some());
}

/// The one-slot monitor's `IF`-based waits are also Mesa-unsound: with
/// two consumers, a signalled consumer can be overtaken and then take a
/// stale (already-taken) item — two removals with no deposit between.
#[test]
fn mesa_one_slot_double_take() {
    use gem::lang::monitor::SignalSemantics;
    let items = [10i64, 20];
    // Rebuild the one-slot program by hand with TWO consumers and Mesa
    // semantics (the library constructor pairs one producer with one
    // consumer under Hoare).
    let monitor = MonitorDef::new("Slot")
        .var("slot", 0i64)
        .var("full", Value::Bool(false))
        .var("taken", 0i64)
        .condition("nonempty")
        .condition("empty")
        .entry(
            "Put",
            &["v"],
            vec![
                Stmt::if_then(Expr::var("full"), vec![Stmt::wait("empty")]),
                Stmt::assign("slot", Expr::var("v")),
                Stmt::assign("full", Expr::bool(true)),
                Stmt::signal("nonempty"),
            ],
        )
        .entry(
            "Take",
            &[],
            vec![
                Stmt::if_then(Expr::var("full").not(), vec![Stmt::wait("nonempty")]),
                Stmt::assign("taken", Expr::var("slot")),
                Stmt::assign("full", Expr::bool(false)),
                Stmt::signal("empty"),
            ],
        );
    let prog = MonitorProgram::new(monitor)
        .with_semantics(SignalSemantics::Mesa)
        .process(ProcessDef::new(
            "producer",
            items
                .iter()
                .map(|&v| ScriptStep::Call {
                    entry: "Put".into(),
                    args: vec![Value::Int(v)],
                })
                .collect(),
        ))
        .process(ProcessDef::new("consumer0", vec![call("Take")]))
        .process(ProcessDef::new("consumer1", vec![call("Take")]));
    let sys = MonitorSystem::new(prog);
    let problem = one_slot::one_slot_spec();
    let corr = one_slot::monitor_correspondence(&sys, &problem);
    let outcome = verify_system(
        &sys,
        &problem,
        &corr,
        |s| sys.computation(s).unwrap(),
        &VerifyOptions::default(),
    )
    .unwrap();
    assert!(
        !outcome.ok(),
        "Mesa + IF-based waits must allow a double take: {outcome}"
    );
}

/// Sanity: the correct one-slot monitor passes where the broken ones
/// fail, under the exact same harness settings.
#[test]
fn control_correct_monitor_passes() {
    let items = [1i64, 2];
    let sys = one_slot::monitor_solution(&items);
    let problem = one_slot::one_slot_spec();
    let corr = one_slot::monitor_correspondence(&sys, &problem);
    let outcome = verify_system(
        &sys,
        &problem,
        &corr,
        |s| sys.computation(s).unwrap(),
        &VerifyOptions::default(),
    )
    .unwrap();
    assert!(outcome.ok(), "{outcome}");
}
