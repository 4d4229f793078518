//! The Readers/Writers problem (§8.3, §9): five specification variants,
//! the paper's Readers-Priority monitor, a Writers-Priority monitor, the
//! §9 significant-object correspondence, and `PROG sat P` verification.
//!
//! The paper specifies Readers/Writers with a `User` element type, a
//! `DataBase` group (an `RWControl` element plus data `Variable`s), chain
//! restrictions tying each user call to its request/start/access/end
//! events, a thread type `πRW` labelling each transaction, the
//! writers-exclude-others restriction, and the Readers-Priority
//! restriction. §11 reports five specified versions; this module provides
//! five [`RwVariant`]s:
//!
//! * [`RwVariant::MutexOnly`] — writers exclude readers and writers.
//! * [`RwVariant::ReadersPriority`] — §8.3's restriction: a pending read
//!   is serviced before a simultaneously pending write.
//! * [`RwVariant::WritersPriority`] — the symmetric property.
//! * [`RwVariant::Fcfs`] — conflicting requests are serviced in request
//!   order.
//! * [`RwVariant::Progress`] — every request is eventually serviced.

use gem_core::ThreadTypeId;
use gem_logic::{EventSel, Formula, ValueTerm};
use gem_spec::{
    chain, mutual_exclusion, priority, ElementType, GroupType, SpecBuilder, Specification,
};
use gem_verify::Correspondence;

use gem_lang::monitor::{MonitorDef, MonitorProgram, MonitorSystem, ProcessDef, ScriptStep, Stmt};
use gem_lang::Expr;

/// The five Readers/Writers specification variants (§11: "five versions
/// of the Readers/Writers problem").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RwVariant {
    /// Mutual exclusion only (writers exclude everyone).
    MutexOnly,
    /// Mutex + readers priority (§8.3).
    ReadersPriority,
    /// Mutex + writers priority.
    WritersPriority,
    /// Mutex + first-come-first-served between conflicting requests.
    Fcfs,
    /// Mutex + every request eventually serviced.
    Progress,
}

impl RwVariant {
    /// All five variants.
    pub const ALL: [RwVariant; 5] = [
        RwVariant::MutexOnly,
        RwVariant::ReadersPriority,
        RwVariant::WritersPriority,
        RwVariant::Fcfs,
        RwVariant::Progress,
    ];
}

/// The thread type id used for `πRW` in every generated spec (declared
/// first, so always id 0).
pub const PI_RW: ThreadTypeId = ThreadTypeId::from_raw(0);

/// Builds the Readers/Writers specification.
///
/// With `with_data == false` the spec is control-only: one `RWControl`
/// element, the transaction chains `ReqRead → StartRead → EndRead` /
/// `ReqWrite → StartWrite → EndWrite`, the `πRW` thread type, mutual
/// exclusion, and the variant's restriction. With `with_data == true` the
/// full §8.3 structure is generated: `n_users` `User` elements and a
/// `DataBase` group with a data `Variable`, with the full six-event
/// chains including the data access.
pub fn rw_spec(n_users: usize, with_data: bool, variant: RwVariant) -> Specification {
    let mut sb = SpecBuilder::new(format!("RWProblem-{variant:?}"));

    let control_t = ElementType::new("RWControl")
        .event("ReqRead", &[])
        .event("StartRead", &[])
        .event("EndRead", &[])
        .event("ReqWrite", &[])
        .event("StartWrite", &[])
        .event("EndWrite", &[]);

    let (control, data, users) = if with_data {
        let data_t = ElementType::new("RWData")
            .event("Getval", &["info"])
            .event("DataAssign", &["info"])
            .event("DataInit", &["info"]);
        let db_t = GroupType::new("DataBase")
            .element_member("control", control_t)
            .element_member("data", data_t)
            .port("control", "ReqRead")
            .port("control", "ReqWrite");
        let db = sb.instantiate_group(&db_t, "db", &[]).expect("fresh spec");
        let user_t = ElementType::new("User")
            .event("Read", &[])
            .event("FinishRead", &[])
            .event("Write", &[])
            .event("FinishWrite", &[]);
        let users: Vec<_> = (0..n_users)
            .map(|i| {
                sb.instantiate_element(&user_t, format!("u{i}"))
                    .expect("fresh user")
            })
            .collect();
        (
            db.element("control").clone(),
            Some(db.element("data").clone()),
            users,
        )
    } else {
        let control = sb
            .instantiate_element(&control_t, "control")
            .expect("fresh spec");
        (control, None, Vec::new())
    };

    let req_read = control.sel("ReqRead");
    let start_read = control.sel("StartRead");
    let end_read = control.sel("EndRead");
    let req_write = control.sel("ReqWrite");
    let start_write = control.sel("StartWrite");
    let end_write = control.sel("EndWrite");

    // Thread type πRW: one path alternative per transaction kind (§8.3).
    let (read_path, write_path) = if with_data {
        let data = data.as_ref().expect("with_data");
        let user_read = EventSel::of_class(sb.structure().class("Read").expect("Read class"));
        let user_finish_read =
            EventSel::of_class(sb.structure().class("FinishRead").expect("class"));
        let user_write = EventSel::of_class(sb.structure().class("Write").expect("class"));
        let user_finish_write =
            EventSel::of_class(sb.structure().class("FinishWrite").expect("class"));
        (
            vec![
                user_read,
                req_read.clone(),
                start_read.clone(),
                data.sel("Getval"),
                end_read.clone(),
                user_finish_read,
            ],
            vec![
                user_write,
                req_write.clone(),
                start_write.clone(),
                data.sel("DataAssign"),
                end_write.clone(),
                user_finish_write,
            ],
        )
    } else {
        (
            vec![req_read.clone(), start_read.clone(), end_read.clone()],
            vec![req_write.clone(), start_write.clone(), end_write.clone()],
        )
    };
    let pi_rw = sb.declare_thread("pi_RW", vec![read_path.clone(), write_path.clone()]);
    debug_assert_eq!(pi_rw, PI_RW);

    // Chain restrictions (the RWProblem restrictions 1 and 2 of §8.3).
    sb.add_restriction("read-chain", chain(&read_path));
    sb.add_restriction("write-chain", chain(&write_path));

    // Writers exclude readers, and writers exclude writers (§8.3).
    sb.add_restriction(
        "writers-exclude-readers",
        mutual_exclusion(&start_write, &end_write, &start_read, &end_read, pi_rw),
    );
    sb.add_restriction(
        "writers-exclude-writers",
        mutual_exclusion(&start_write, &end_write, &start_write, &end_write, pi_rw),
    );

    if let Some(data) = &data {
        // Reads are isolated from writes at the data itself.
        sb.add_restriction(
            "reads-isolated-from-writes",
            Formula::forall(
                "g",
                data.sel("Getval"),
                Formula::forall(
                    "a",
                    data.sel("DataAssign"),
                    Formula::concurrent("g", "a").not(),
                ),
            ),
        );
        // Variable semantics: a Getval yields the latest prior write (or
        // the initialization) at the data element.
        let writes = |v: &str| {
            Formula::matches(v, data.sel("DataAssign"))
                .or(Formula::matches(v, data.sel("DataInit")))
        };
        sb.add_restriction(
            "getval-yields-latest-write",
            Formula::forall(
                "g",
                data.sel("Getval"),
                Formula::exists(
                    "w",
                    EventSel::at_element(data.id()),
                    writes("w")
                        .and(Formula::element_precedes("w", "g"))
                        .and(Formula::value_eq(
                            ValueTerm::param("w", 0usize),
                            ValueTerm::param("g", "info"),
                        ))
                        .and(
                            Formula::exists(
                                "w2",
                                EventSel::at_element(data.id()),
                                writes("w2")
                                    .and(Formula::element_precedes("w", "w2"))
                                    .and(Formula::element_precedes("w2", "g")),
                            )
                            .not(),
                        ),
                ),
            ),
        );
    }

    match variant {
        RwVariant::MutexOnly => {}
        RwVariant::ReadersPriority => {
            sb.add_restriction(
                "readers-priority",
                priority(&req_read, &start_read, &req_write, &start_write, pi_rw),
            );
        }
        RwVariant::WritersPriority => {
            sb.add_restriction(
                "writers-priority",
                priority(&req_write, &start_write, &req_read, &start_read, pi_rw),
            );
        }
        RwVariant::Fcfs => {
            sb.add_restriction(
                "fcfs-read-before-write",
                fcfs(&req_read, &start_read, &req_write, &start_write, pi_rw),
            );
            sb.add_restriction(
                "fcfs-write-before-read",
                fcfs(&req_write, &start_write, &req_read, &start_read, pi_rw),
            );
        }
        RwVariant::Progress => {
            sb.add_restriction(
                "every-read-serviced",
                eventually_serviced(&req_read, &start_read, pi_rw),
            );
            sb.add_restriction(
                "every-write-serviced",
                eventually_serviced(&req_write, &start_write, pi_rw),
            );
        }
    }
    let _ = users;
    sb.finish()
}

/// FCFS between conflicting request kinds: if an A-request temporally
/// precedes a B-request and both are still pending, A starts before B.
fn fcfs(
    req_a: &EventSel,
    start_a: &EventSel,
    req_b: &EventSel,
    start_b: &EventSel,
    ty: ThreadTypeId,
) -> Formula {
    let pending = Formula::occurred("__ra")
        .and(Formula::occurred("__rb"))
        .and(Formula::precedes("__ra", "__rb"))
        .and(Formula::at_control("__ra", start_a.clone()))
        .and(Formula::at_control("__rb", start_b.clone()));
    let serviced_first = Formula::occurred("__sb").implies(Formula::exists(
        "__sa",
        start_a.clone(),
        Formula::same_thread("__ra", "__sa", ty).and(Formula::occurred("__sa")),
    ));
    Formula::forall(
        "__ra",
        req_a.clone(),
        Formula::forall(
            "__rb",
            req_b.clone(),
            Formula::forall(
                "__sb",
                start_b.clone(),
                Formula::same_thread("__rb", "__sb", ty)
                    .and(pending)
                    .implies(serviced_first.henceforth()),
            ),
        ),
    )
    .henceforth()
}

/// Liveness: every request is eventually followed by its transaction's
/// start.
fn eventually_serviced(req: &EventSel, start: &EventSel, ty: ThreadTypeId) -> Formula {
    Formula::forall(
        "__r",
        req.clone(),
        Formula::exists(
            "__s",
            start.clone(),
            Formula::same_thread("__r", "__s", ty).and(Formula::occurred("__s")),
        )
        .eventually(),
    )
}

/// A Writers-Priority monitor: readers defer to waiting writers.
pub fn writers_priority_monitor() -> MonitorDef {
    MonitorDef::new("WritersFirst")
        .var("readers", 0i64)
        .var("writing", 0i64)
        .var("waitw", 0i64)
        .condition("okread")
        .condition("okwrite")
        .entry(
            "StartRead",
            &[],
            vec![
                Stmt::if_then(
                    Expr::var("writing")
                        .eq(Expr::int(1))
                        .or(Expr::var("waitw").gt(Expr::int(0))),
                    vec![Stmt::wait("okread")],
                ),
                Stmt::assign("readers", Expr::var("readers").add(Expr::int(1))),
                Stmt::signal("okread"),
            ],
        )
        .entry(
            "EndRead",
            &[],
            vec![
                Stmt::assign("readers", Expr::var("readers").sub(Expr::int(1))),
                Stmt::if_then(
                    Expr::var("readers").eq(Expr::int(0)),
                    vec![Stmt::signal("okwrite")],
                ),
            ],
        )
        .entry(
            "StartWrite",
            &[],
            vec![
                Stmt::if_then(
                    Expr::var("readers")
                        .gt(Expr::int(0))
                        .or(Expr::var("writing").eq(Expr::int(1))),
                    vec![
                        Stmt::assign("waitw", Expr::var("waitw").add(Expr::int(1))),
                        Stmt::wait("okwrite"),
                        Stmt::assign("waitw", Expr::var("waitw").sub(Expr::int(1))),
                    ],
                ),
                Stmt::assign("writing", Expr::int(1)),
            ],
        )
        .entry(
            "EndWrite",
            &[],
            vec![
                Stmt::assign("writing", Expr::int(0)),
                Stmt::IfQueue(
                    "okwrite".into(),
                    vec![Stmt::signal("okwrite")],
                    vec![Stmt::signal("okread")],
                ),
            ],
        )
}

/// A Mesa-safe variant of the §9 monitor: identical logic, but with
/// `WHILE … DO WAIT` re-checks instead of `IF … THEN WAIT`. Correct under
/// both signalling disciplines; the paper's `IF`-based monitor is only
/// correct under Hoare semantics (the Hoare/Mesa ablation of
/// EXPERIMENTS.md).
pub fn mesa_safe_readers_writers_monitor() -> MonitorDef {
    let readernum = || Expr::var("readernum");
    MonitorDef::new("ReadersWritersMesa")
        .var("readernum", 0i64)
        .condition("readqueue")
        .condition("writequeue")
        .entry(
            "StartRead",
            &[],
            vec![
                Stmt::While(readernum().lt(Expr::int(0)), vec![Stmt::wait("readqueue")]),
                Stmt::assign("readernum", readernum().add(Expr::int(1))),
                Stmt::signal("readqueue"),
            ],
        )
        .entry(
            "EndRead",
            &[],
            vec![
                Stmt::assign("readernum", readernum().sub(Expr::int(1))),
                Stmt::if_then(
                    readernum().eq(Expr::int(0)),
                    vec![Stmt::signal("writequeue")],
                ),
            ],
        )
        .entry(
            "StartWrite",
            &[],
            vec![
                Stmt::While(readernum().ne(Expr::int(0)), vec![Stmt::wait("writequeue")]),
                Stmt::assign("readernum", Expr::int(-1)),
            ],
        )
        .entry(
            "EndWrite",
            &[],
            vec![
                Stmt::assign("readernum", Expr::int(0)),
                Stmt::IfQueue(
                    "readqueue".into(),
                    vec![Stmt::signal("readqueue")],
                    vec![Stmt::signal("writequeue")],
                ),
            ],
        )
}

/// Which variable holds the read/write state in a given monitor, and
/// which entry assignments are the significant Start/End events.
fn state_var(monitor: &MonitorDef) -> &'static str {
    if monitor.entry_index("StartRead").is_some()
        && monitor.vars.iter().any(|(v, _)| v == "readernum")
    {
        "readernum"
    } else {
        // Writers-priority monitor: StartRead touches `readers`,
        // StartWrite/EndWrite touch `writing`.
        "readers"
    }
}

/// Builds a monitor program for `readers` reader and `writers` writer
/// processes. With `with_data == true` the scripts include the user-level
/// `Read`/`Write` events and the shared-data access between start and
/// end; otherwise they are the minimal `Start*`/`End*` call pairs
/// (keeping exhaustive exploration tractable for the priority variants).
pub fn rw_program(
    monitor: MonitorDef,
    readers: usize,
    writers: usize,
    with_data: bool,
) -> MonitorSystem {
    rw_program_with_semantics(
        monitor,
        readers,
        writers,
        with_data,
        gem_lang::monitor::SignalSemantics::Hoare,
    )
}

/// [`rw_program`] with an explicit signalling discipline — the handle for
/// the Hoare/Mesa ablation.
pub fn rw_program_with_semantics(
    monitor: MonitorDef,
    readers: usize,
    writers: usize,
    with_data: bool,
    semantics: gem_lang::monitor::SignalSemantics,
) -> MonitorSystem {
    let call = |entry: &str| ScriptStep::Call {
        entry: entry.into(),
        args: vec![],
    };
    let mut prog = MonitorProgram::new(monitor).with_semantics(semantics);
    if with_data {
        prog = prog
            .shared_var("data", 0i64)
            .user_class("Read", &[])
            .user_class("FinishRead", &[])
            .user_class("Write", &[])
            .user_class("FinishWrite", &[]);
    }
    let mut pid = 0;
    for _ in 0..readers {
        let script = if with_data {
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
            ]
        } else {
            vec![call("StartRead"), call("EndRead")]
        };
        prog = prog.process(ProcessDef::new(format!("u{pid}"), script));
        pid += 1;
    }
    for w in 0..writers {
        let script = if with_data {
            vec![
                ScriptStep::Event {
                    class: "Write".into(),
                    params: vec![],
                },
                call("StartWrite"),
                ScriptStep::WriteShared {
                    var: "data".into(),
                    value: Expr::int(100 + w as i64),
                },
                call("EndWrite"),
                ScriptStep::Event {
                    class: "FinishWrite".into(),
                    params: vec![],
                },
            ]
        } else {
            vec![call("StartWrite"), call("EndWrite")]
        };
        prog = prog.process(ProcessDef::new(format!("u{pid}"), script));
        pid += 1;
    }
    MonitorSystem::new(prog)
}

/// A control-only readers/writers program where every process performs
/// `rounds` complete transactions (`StartRead;EndRead` or
/// `StartWrite;EndWrite` pairs) instead of one. The schedule space grows
/// roughly as the multinomial of `2 × rounds × processes` actions —
/// the workload knob (`gem … rw rounds=<n>`) for any experiment that
/// needs a deep, wide schedule trie from a small process count.
pub fn rw_rounds_program(
    monitor: MonitorDef,
    readers: usize,
    writers: usize,
    rounds: usize,
) -> MonitorSystem {
    let call = |entry: &str| ScriptStep::Call {
        entry: entry.into(),
        args: vec![],
    };
    let mut prog = MonitorProgram::new(monitor);
    let mut pid = 0;
    for _ in 0..readers {
        let mut script = Vec::with_capacity(2 * rounds);
        for _ in 0..rounds {
            script.push(call("StartRead"));
            script.push(call("EndRead"));
        }
        prog = prog.process(ProcessDef::new(format!("u{pid}"), script));
        pid += 1;
    }
    for _ in 0..writers {
        let mut script = Vec::with_capacity(2 * rounds);
        for _ in 0..rounds {
            script.push(call("StartWrite"));
            script.push(call("EndWrite"));
        }
        prog = prog.process(ProcessDef::new(format!("u{pid}"), script));
        pid += 1;
    }
    MonitorSystem::new(prog)
}

/// The §9 significant-object correspondence for a readers/writers monitor
/// program. Mirrors the paper's table:
///
/// ```text
/// ReqRead    ↦ Entry StartRead : BEGIN
/// StartRead  ↦ Entry StartRead : <state> := <state> + 1
/// EndRead    ↦ Entry EndRead   : <state> := <state> − 1
/// ReqWrite   ↦ Entry StartWrite: BEGIN
/// StartWrite ↦ Entry StartWrite: <state> := …
/// EndWrite   ↦ Entry EndWrite  : <state> := 0
/// ```
///
/// plus, for `with_data` programs, the user events and the shared-data
/// `Getval`/`Assign`/init mappings.
pub fn rw_correspondence(
    sys: &MonitorSystem,
    problem: &Specification,
    with_data: bool,
) -> Correspondence {
    let ps = problem.structure();
    let control_name = if with_data { "db.control" } else { "control" };
    let control = ps.element(control_name).expect("control element");
    let cls = |n: &str| ps.class(n).unwrap_or_else(|| panic!("class {n}"));
    let sv = state_var(&sys.program().monitor);
    let assign_in = |entry: &str, var: &str| {
        EventSel::of_class(sys.class("Assign"))
            .at(sys.var_element(var))
            .with_param(1, entry)
    };
    // The StartWrite/EndWrite state variable differs between monitors.
    let (sw_var, ew_var) = if sv == "readernum" {
        ("readernum", "readernum")
    } else {
        ("writing", "writing")
    };
    let mut corr = Correspondence::new()
        .map(
            EventSel::of_class(sys.class("Begin")).at(sys.entry_element("StartRead")),
            control,
            cls("ReqRead"),
        )
        .map(assign_in("StartRead", sv), control, cls("StartRead"))
        .map(assign_in("EndRead", sv), control, cls("EndRead"))
        .map(
            EventSel::of_class(sys.class("Begin")).at(sys.entry_element("StartWrite")),
            control,
            cls("ReqWrite"),
        )
        .map(assign_in("StartWrite", sw_var), control, cls("StartWrite"))
        .map(assign_in("EndWrite", ew_var), control, cls("EndWrite"));
    if with_data {
        let data = ps.element("db.data").expect("data element");
        for (user_cls, _) in [
            ("Read", 0),
            ("FinishRead", 0),
            ("Write", 0),
            ("FinishWrite", 0),
        ] {
            // User events keep their class, mapped per user element.
            for (pid, p) in sys.program().processes.iter().enumerate() {
                let target = ps
                    .element(&p.name)
                    .unwrap_or_else(|| panic!("user element {}", p.name));
                corr = corr.map(
                    EventSel::of_class(sys.class(user_cls)).at(sys.user_element(pid)),
                    target,
                    cls(user_cls),
                );
            }
        }
        corr = corr
            .map_with_params(
                EventSel::of_class(sys.class("Getval")).at(sys.var_element("data")),
                data,
                cls("Getval"),
                &[(0, 0)],
            )
            .map_with_params(
                EventSel::of_class(sys.class("Assign"))
                    .at(sys.var_element("data"))
                    .with_param(1, ""),
                data,
                cls("DataAssign"),
                &[(0, 0)],
            )
            .map_with_params(
                EventSel::of_class(sys.class("Assign"))
                    .at(sys.var_element("data"))
                    .with_param(1, "init"),
                data,
                cls("DataInit"),
                &[(0, 0)],
            );
    }
    corr
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_lang::monitor::readers_writers_monitor;
    use gem_lang::{find_deadlock, Explorer};
    use gem_obs::NoopProbe;
    use gem_verify::{verify_system, VerifyOptions};

    fn verify(
        monitor: MonitorDef,
        readers: usize,
        writers: usize,
        with_data: bool,
        variant: RwVariant,
    ) -> gem_verify::VerifyOutcome {
        let sys = rw_program(monitor, readers, writers, with_data);
        let problem = rw_spec(readers + writers, with_data, variant);
        let corr = rw_correspondence(&sys, &problem, with_data);
        verify_system(
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).expect("acyclic"),
            &VerifyOptions::default(),
        )
        .expect("correspondence consistent")
    }

    #[test]
    fn mutex_holds_with_data_1r1w() {
        let outcome = verify(readers_writers_monitor(), 1, 1, true, RwVariant::MutexOnly);
        assert!(outcome.ok(), "{outcome}");
        assert!(outcome.exhaustive());
    }

    #[test]
    fn mutex_holds_control_only_2r1w() {
        let outcome = verify(readers_writers_monitor(), 2, 1, false, RwVariant::MutexOnly);
        assert!(outcome.ok(), "{outcome}");
        assert!(outcome.exhaustive());
    }

    #[test]
    fn readers_priority_holds_on_paper_monitor() {
        // §9's claim, machine-checked over every schedule of 1R+2W.
        let outcome = verify(
            readers_writers_monitor(),
            1,
            2,
            false,
            RwVariant::ReadersPriority,
        );
        assert!(outcome.ok(), "{outcome}");
        assert!(outcome.exhaustive());
    }

    #[test]
    fn writers_priority_fails_on_paper_monitor() {
        // Negative control: the readers-priority monitor violates the
        // writers-priority spec.
        let outcome = verify(
            readers_writers_monitor(),
            1,
            2,
            false,
            RwVariant::WritersPriority,
        );
        assert!(
            !outcome.ok(),
            "paper monitor must not give writers priority"
        );
        assert!(outcome
            .failures
            .iter()
            .any(|f| f.violated.iter().any(|v| v == "writers-priority")));
    }

    #[test]
    fn writers_priority_holds_on_writers_monitor() {
        let outcome = verify(
            writers_priority_monitor(),
            2,
            1,
            false,
            RwVariant::WritersPriority,
        );
        assert!(outcome.ok(), "{outcome}");
        assert!(outcome.exhaustive());
    }

    #[test]
    fn readers_priority_fails_on_writers_monitor() {
        let outcome = verify(
            writers_priority_monitor(),
            1,
            2,
            false,
            RwVariant::ReadersPriority,
        );
        assert!(
            !outcome.ok(),
            "writers-priority monitor must not give readers priority"
        );
    }

    #[test]
    fn progress_holds_on_both_monitors() {
        for monitor in [readers_writers_monitor(), writers_priority_monitor()] {
            let outcome = verify(monitor, 1, 1, false, RwVariant::Progress);
            assert!(outcome.ok(), "{outcome}");
        }
    }

    #[test]
    fn fcfs_fails_on_paper_monitor() {
        // Readers-priority deliberately reorders pending requests.
        let outcome = verify(readers_writers_monitor(), 1, 2, false, RwVariant::Fcfs);
        assert!(!outcome.ok());
    }

    #[test]
    fn no_deadlock_either_monitor() {
        for monitor in [readers_writers_monitor(), writers_priority_monitor()] {
            let sys = rw_program(monitor, 2, 1, false);
            assert!(find_deadlock(&sys, &Explorer::default(), &NoopProbe).is_none());
        }
    }

    #[test]
    fn threads_label_transactions_uniquely() {
        // E10: thread inference on the projected computation labels each
        // transaction with a fresh instance passed along its chain.
        use gem_spec::check_thread_tags;
        use gem_verify::project;
        use std::ops::ControlFlow;
        let sys = rw_program(readers_writers_monitor(), 1, 1, true);
        let problem = rw_spec(2, true, RwVariant::MutexOnly);
        let corr = rw_correspondence(&sys, &problem, true);
        let mut checked = 0;
        Explorer::with_max_runs(25).for_each_run(&sys, |state, _| {
            let c = sys.computation(state).unwrap();
            let p = project(&c, problem.structure_arc(), &corr).unwrap();
            let tagged = problem.assign_threads(&p);
            for spec in problem.threads() {
                let violations = check_thread_tags(&tagged, spec);
                assert!(violations.is_empty(), "{violations:?}");
            }
            // Every significant event except the data initialization
            // belongs to exactly one transaction.
            let init_cls = problem.structure().class("DataInit").unwrap();
            for e in tagged.events() {
                if e.class() == init_cls {
                    assert!(e.threads().is_empty());
                    continue;
                }
                assert_eq!(
                    e.threads().len(),
                    1,
                    "event {} should carry exactly one πRW tag",
                    e.id()
                );
            }
            checked += 1;
            ControlFlow::Continue(())
        });
        assert!(checked > 0);
    }

    #[test]
    fn hoare_mesa_ablation() {
        use gem_lang::monitor::SignalSemantics;
        let verify_sem = |monitor: MonitorDef, semantics| {
            let sys = rw_program_with_semantics(monitor, 1, 2, false, semantics);
            let problem = rw_spec(3, false, RwVariant::MutexOnly);
            let corr = rw_correspondence(&sys, &problem, false);
            verify_system(
                &sys,
                &problem,
                &corr,
                |s| sys.computation(s).expect("acyclic"),
                &VerifyOptions::default(),
            )
            .expect("correspondence consistent")
        };
        // The paper's IF-based monitor is correct under Hoare semantics …
        assert!(verify_sem(readers_writers_monitor(), SignalSemantics::Hoare).ok());
        // … but under Mesa, a new writer can overtake the signalled
        // reader, whose un-rechecked IF then lets it read during a write.
        let mesa = verify_sem(readers_writers_monitor(), SignalSemantics::Mesa);
        assert!(!mesa.ok(), "IF-based waits are unsound under Mesa: {mesa}");
        // The WHILE-based variant is correct under both disciplines.
        assert!(verify_sem(mesa_safe_readers_writers_monitor(), SignalSemantics::Hoare).ok());
        let fixed = verify_sem(mesa_safe_readers_writers_monitor(), SignalSemantics::Mesa);
        assert!(fixed.ok(), "{fixed}");
    }

    #[test]
    fn mesa_runs_are_deadlock_free() {
        use gem_lang::monitor::SignalSemantics;
        let sys = rw_program_with_semantics(
            mesa_safe_readers_writers_monitor(),
            2,
            1,
            false,
            SignalSemantics::Mesa,
        );
        assert!(find_deadlock(&sys, &Explorer::default(), &NoopProbe).is_none());
    }

    #[test]
    fn rounds_program_multiplies_schedules_and_stays_correct() {
        // One round is the plain control-only program; more rounds blow
        // the schedule space up but still satisfy mutual exclusion.
        let sys1 = rw_rounds_program(readers_writers_monitor(), 1, 1, 1);
        let sys2 = rw_rounds_program(readers_writers_monitor(), 1, 1, 2);
        use std::ops::ControlFlow;
        let runs = |sys: &MonitorSystem| {
            Explorer::default()
                .for_each_run(sys, |_, _| ControlFlow::Continue(()))
                .runs
        };
        let (r1, r2) = (runs(&sys1), runs(&sys2));
        assert!(r2 > r1, "rounds=2 must enlarge the space: {r1} vs {r2}");

        let problem = rw_spec(2, false, RwVariant::MutexOnly);
        let corr = rw_correspondence(&sys2, &problem, false);
        let outcome = verify_system(
            &sys2,
            &problem,
            &corr,
            |s| sys2.computation(s).expect("acyclic"),
            &VerifyOptions::default(),
        )
        .expect("correspondence consistent");
        assert!(outcome.ok(), "{outcome}");
        assert!(outcome.exhaustive());
    }

    #[test]
    fn all_variants_constructible() {
        for v in RwVariant::ALL {
            let spec = rw_spec(2, false, v);
            assert!(spec.restrictions().len() >= 4);
            let spec_full = rw_spec(2, true, v);
            assert!(spec_full.restrictions().len() >= 6);
        }
    }
}
