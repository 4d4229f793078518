//! The Bounded Buffer problem (§1, §11) and its Monitor, CSP, and ADA
//! solutions.
//!
//! **Problem.** A FIFO buffer of capacity `cap` between a producer and a
//! consumer. The specification uses two elements inside a `buf` group —
//! `inp` (the deposit side) and `outp` (the removal side) — so that the
//! `k`-th deposit and the `k`-th removal are directly addressable with
//! the paper's `EL^k` occurrence notation:
//!
//! * `fifo-values` — the `k`-th removal yields the `k`-th deposit's item;
//! * `remove-after-deposit` — `inp^k ⇒ outp^k`;
//! * `capacity` — `outp^{k-cap} ⇒ inp^k`: the `k`-th deposit can occur
//!   only after the `(k-cap)`-th removal freed a slot.
//!
//! The restrictions are generated per instance (`items` deposits), since
//! occurrence-indexed restrictions quantify over concrete indices.

use gem_core::Value;
use gem_logic::{EventSel, EventTerm, Formula, ValueTerm};
use gem_spec::{ElementType, GroupType, SpecBuilder, Specification};
use gem_verify::Correspondence;

use gem_lang::monitor::{MonitorDef, MonitorProgram, MonitorSystem, ProcessDef, ScriptStep, Stmt};
use gem_lang::{
    ada::{AcceptArm, AdaProgram, AdaStmt, AdaSystem, AdaTask, SelectBranch},
    csp::{CspProcess, CspProgram, CspStmt, CspSystem},
    Expr,
};

/// The Bounded Buffer problem specification for `items` deposits through
/// a buffer of capacity `cap`.
///
/// # Panics
///
/// Panics if `cap == 0`.
pub fn bounded_spec(items: usize, cap: usize) -> Specification {
    assert!(cap > 0, "a buffer needs at least one slot");
    let inp_t = ElementType::new("BufferIn").event("Deposit", &["item"]);
    let outp_t = ElementType::new("BufferOut").event("Remove", &["item"]);
    let buf_t = GroupType::new("BoundedBuffer")
        .element_member("inp", inp_t)
        .element_member("outp", outp_t)
        .port("inp", "Deposit")
        .port("outp", "Remove");
    let mut sb = SpecBuilder::new("BoundedBuffer");
    let buf = sb
        .instantiate_group(&buf_t, "buf", &[])
        .expect("fresh spec");
    let inp = buf.element("inp").id();
    let outp = buf.element("outp").id();

    let mut fifo = Vec::new();
    let mut order = Vec::new();
    let mut capacity = Vec::new();
    for k in 0..items {
        let d_k = EventTerm::NthAt(inp, k);
        let r_k = EventTerm::NthAt(outp, k);
        fifo.push(
            Formula::occurred(r_k.clone()).implies(Formula::occurred(d_k.clone()).and(
                Formula::value_eq(
                    ValueTerm::param(d_k.clone(), "item"),
                    ValueTerm::param(r_k.clone(), "item"),
                ),
            )),
        );
        order.push(
            Formula::occurred(r_k.clone()).implies(Formula::precedes(d_k.clone(), r_k.clone())),
        );
        if k >= cap {
            let r_freed = EventTerm::NthAt(outp, k - cap);
            capacity.push(
                Formula::occurred(d_k.clone()).implies(Formula::precedes(r_freed, d_k.clone())),
            );
        }
    }
    sb.add_restriction("fifo-values", Formula::And(fifo));
    sb.add_restriction("remove-after-deposit", Formula::And(order));
    sb.add_restriction("capacity", Formula::And(capacity));
    sb.finish()
}

/// The Monitor solution: a classic circular-buffer monitor. Slots are
/// modelled as variables `slot0..slot{cap-1}` with IF-chains for
/// indexing (the statement language has no arrays).
pub fn monitor_solution(items: &[i64], cap: usize) -> MonitorSystem {
    assert!(cap > 0 && cap <= 8, "supported capacities: 1..=8");
    let mut monitor = MonitorDef::new("Bounded")
        .var("count", 0i64)
        .var("inx", 0i64)
        .var("outx", 0i64)
        .var("taken", 0i64)
        .condition("notfull")
        .condition("notempty");
    for i in 0..cap {
        monitor = monitor.var(format!("slot{i}"), 0i64);
    }
    // IF inx=0 THEN slot0 := v ELSE IF inx=1 THEN slot1 := v …
    fn index_chain(
        var_prefix: &str,
        index_var: &str,
        cap: usize,
        make: impl Fn(usize) -> Stmt,
    ) -> Stmt {
        let mut stmt = make(cap - 1);
        for i in (0..cap - 1).rev() {
            stmt = Stmt::If(
                Expr::var(index_var).eq(Expr::int(i as i64)),
                vec![make(i)],
                vec![stmt],
            );
        }
        let _ = var_prefix;
        stmt
    }
    let put_body = vec![
        Stmt::if_then(
            Expr::var("count").eq(Expr::int(cap as i64)),
            vec![Stmt::wait("notfull")],
        ),
        index_chain("slot", "inx", cap, |i| {
            Stmt::assign(format!("slot{i}"), Expr::var("v"))
        }),
        Stmt::assign(
            "inx",
            Expr::var("inx")
                .add(Expr::int(1))
                .rem(Expr::int(cap as i64)),
        ),
        Stmt::assign("count", Expr::var("count").add(Expr::int(1))),
        Stmt::signal("notempty"),
    ];
    let take_body = vec![
        Stmt::if_then(
            Expr::var("count").eq(Expr::int(0)),
            vec![Stmt::wait("notempty")],
        ),
        index_chain("slot", "outx", cap, |i| {
            Stmt::assign("taken", Expr::var(format!("slot{i}")))
        }),
        Stmt::assign(
            "outx",
            Expr::var("outx")
                .add(Expr::int(1))
                .rem(Expr::int(cap as i64)),
        ),
        Stmt::assign("count", Expr::var("count").sub(Expr::int(1))),
        Stmt::signal("notfull"),
    ];
    monitor = monitor
        .entry("Put", &["v"], put_body)
        .entry("Take", &[], take_body);
    let producer = ProcessDef::new(
        "producer",
        items
            .iter()
            .map(|&v| ScriptStep::Call {
                entry: "Put".into(),
                args: vec![Value::Int(v)],
            })
            .collect(),
    );
    let consumer = ProcessDef::new(
        "consumer",
        items
            .iter()
            .map(|_| ScriptStep::Call {
                entry: "Take".into(),
                args: vec![],
            })
            .collect(),
    );
    MonitorSystem::new(
        MonitorProgram::new(monitor)
            .process(producer)
            .process(consumer),
    )
}

/// Significant objects for the monitor solution: slot assignments inside
/// `Put` are deposits, `taken` assignments inside `Take` are removals.
pub fn monitor_correspondence(
    sys: &MonitorSystem,
    problem: &Specification,
    cap: usize,
) -> Correspondence {
    let ps = problem.structure();
    let inp = ps.element("buf.inp").expect("inp element");
    let outp = ps.element("buf.outp").expect("outp element");
    let dep = ps.class("Deposit").expect("Deposit class");
    let rem = ps.class("Remove").expect("Remove class");
    let mut corr = Correspondence::new().map_with_params(
        EventSel::of_class(sys.class("Assign"))
            .at(sys.var_element("taken"))
            .with_param(1, "Take"),
        outp,
        rem,
        &[(0, 0)],
    );
    for i in 0..cap {
        corr = corr.map_with_params(
            EventSel::of_class(sys.class("Assign"))
                .at(sys.var_element(&format!("slot{i}")))
                .with_param(1, "Put"),
            inp,
            dep,
            &[(0, 0)],
        );
    }
    corr
}

/// The CSP solution: a chain of `cap` one-slot cell processes between
/// producer and consumer — the classic CSP bounded buffer.
pub fn csp_solution(items: &[i64], cap: usize) -> CspSystem {
    assert!(cap > 0);
    let n = items.len();
    let mut prog = CspProgram::new();
    let mut producer_body = Vec::new();
    for &v in items {
        producer_body.push(CspStmt::send("cell0", Expr::int(v)));
    }
    prog = prog.process(CspProcess::new("producer", producer_body));
    for c in 0..cap {
        let upstream = if c == 0 {
            "producer".to_owned()
        } else {
            format!("cell{}", c - 1)
        };
        let downstream = if c == cap - 1 {
            "consumer".to_owned()
        } else {
            format!("cell{}", c + 1)
        };
        let mut body = Vec::new();
        for _ in 0..n {
            body.push(CspStmt::recv(upstream.clone(), "x"));
            body.push(CspStmt::send(downstream.clone(), Expr::var("x")));
        }
        prog = prog.process(CspProcess::new(format!("cell{c}"), body).local("x", 0i64));
    }
    let mut consumer_body = Vec::new();
    for _ in 0..n {
        consumer_body.push(CspStmt::recv(format!("cell{}", cap - 1), "got"));
    }
    prog = prog.process(CspProcess::new("consumer", consumer_body).local("got", 0i64));
    CspSystem::new(prog)
}

/// Significant objects for the CSP solution: the first cell's `InEnd` is
/// the deposit, the last cell's `OutEnd` the removal.
pub fn csp_correspondence(sys: &CspSystem, problem: &Specification, cap: usize) -> Correspondence {
    let ps = problem.structure();
    let inp = ps.element("buf.inp").expect("inp element");
    let outp = ps.element("buf.outp").expect("outp element");
    let dep = ps.class("Deposit").expect("Deposit class");
    let rem = ps.class("Remove").expect("Remove class");
    let first = sys.program().process_index("cell0").expect("cell0");
    let last = sys
        .program()
        .process_index(&format!("cell{}", cap - 1))
        .expect("last cell");
    Correspondence::new()
        .map_with_params(
            EventSel::of_class(sys.class("InEnd")).at(sys.in_element(first)),
            inp,
            dep,
            &[(0, 0)],
        )
        .map_with_params(
            EventSel::of_class(sys.class("OutEnd")).at(sys.out_element(last)),
            outp,
            rem,
            &[(0, 0)],
        )
}

/// The ADA solution: a buffer task with a guarded select over `Put` and
/// `Take`, circular-buffer state in locals.
pub fn ada_solution(items: &[i64], cap: usize) -> AdaSystem {
    assert!(cap > 0 && cap <= 8, "supported capacities: 1..=8");
    let n = items.len() as i64;
    fn index_chain(index_var: &str, cap: usize, make: impl Fn(usize) -> AdaStmt) -> AdaStmt {
        let mut stmt = make(cap - 1);
        for i in (0..cap - 1).rev() {
            stmt = AdaStmt::If(
                Expr::var(index_var).eq(Expr::int(i as i64)),
                vec![make(i)],
                vec![stmt],
            );
        }
        stmt
    }
    let put_arm = AcceptArm {
        entry: "Put".into(),
        params: vec!["v".into()],
        body: vec![
            index_chain("inx", cap, |i| {
                AdaStmt::assign(format!("slot{i}"), Expr::var("v"))
            }),
            AdaStmt::assign(
                "inx",
                Expr::var("inx")
                    .add(Expr::int(1))
                    .rem(Expr::int(cap as i64)),
            ),
            AdaStmt::assign("count", Expr::var("count").add(Expr::int(1))),
            AdaStmt::assign("puts", Expr::var("puts").add(Expr::int(1))),
        ],
    };
    let take_arm = AcceptArm {
        entry: "Take".into(),
        params: vec![],
        body: vec![
            index_chain("outx", cap, |i| {
                AdaStmt::assign("out", Expr::var(format!("slot{i}")))
            }),
            AdaStmt::assign(
                "outx",
                Expr::var("outx")
                    .add(Expr::int(1))
                    .rem(Expr::int(cap as i64)),
            ),
            AdaStmt::assign("count", Expr::var("count").sub(Expr::int(1))),
            AdaStmt::assign("takes", Expr::var("takes").add(Expr::int(1))),
        ],
    };
    let loop_body = vec![AdaStmt::Select(vec![
        SelectBranch {
            guard: Some(
                Expr::var("count")
                    .lt(Expr::int(cap as i64))
                    .and(Expr::var("puts").lt(Expr::int(n))),
            ),
            accept: put_arm,
        },
        SelectBranch {
            guard: Some(Expr::var("count").gt(Expr::int(0))),
            accept: take_arm,
        },
    ])];
    let mut buffer = AdaTask::new(
        "buffer",
        vec![AdaStmt::While(
            Expr::var("puts")
                .lt(Expr::int(n))
                .or(Expr::var("takes").lt(Expr::int(n))),
            loop_body,
        )],
    )
    .entry("Put")
    .entry("Take")
    .local("count", 0i64)
    .local("inx", 0i64)
    .local("outx", 0i64)
    .local("out", 0i64)
    .local("puts", 0i64)
    .local("takes", 0i64);
    for i in 0..cap {
        buffer = buffer.local(format!("slot{i}"), 0i64);
    }
    let producer = AdaTask::new(
        "producer",
        items
            .iter()
            .map(|&v| AdaStmt::call("buffer", "Put", vec![Expr::int(v)]))
            .collect(),
    );
    let consumer = AdaTask::new(
        "consumer",
        items
            .iter()
            .map(|_| AdaStmt::call("buffer", "Take", vec![]))
            .collect(),
    );
    AdaSystem::new(AdaProgram::new().task(buffer).task(producer).task(consumer))
}

/// Significant objects for the ADA solution.
pub fn ada_correspondence(sys: &AdaSystem, problem: &Specification, cap: usize) -> Correspondence {
    let ps = problem.structure();
    let inp = ps.element("buf.inp").expect("inp element");
    let outp = ps.element("buf.outp").expect("outp element");
    let dep = ps.class("Deposit").expect("Deposit class");
    let rem = ps.class("Remove").expect("Remove class");
    let s = sys.structure();
    let mut corr = Correspondence::new().map_with_params(
        EventSel::of_class(sys.class("Assign")).at(s.element("buffer.var.out").expect("out var")),
        outp,
        rem,
        &[(0, 0)],
    );
    for i in 0..cap {
        corr = corr.map_with_params(
            EventSel::of_class(sys.class("Assign"))
                .at(s.element(&format!("buffer.var.slot{i}")).expect("slot var")),
            inp,
            dep,
            &[(0, 0)],
        );
    }
    corr
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_lang::{find_deadlock, Explorer};
    use gem_obs::NoopProbe;
    use gem_verify::{verify_system, VerifyOptions};

    const ITEMS: &[i64] = &[1, 2, 3, 4];
    const CAP: usize = 2;

    #[test]
    fn spec_shape() {
        let spec = bounded_spec(ITEMS.len(), CAP);
        assert_eq!(spec.restrictions().len(), 3);
        assert!(spec.restriction("capacity").is_some());
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _ = bounded_spec(2, 0);
    }

    #[test]
    fn monitor_satisfies_bounded() {
        let sys = monitor_solution(ITEMS, CAP);
        let problem = bounded_spec(ITEMS.len(), CAP);
        let corr = monitor_correspondence(&sys, &problem, CAP);
        let outcome = verify_system(
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).expect("acyclic"),
            &VerifyOptions::default(),
        )
        .expect("correspondence consistent");
        assert!(outcome.ok(), "{outcome}");
        assert!(outcome.exhaustive());
    }

    #[test]
    fn csp_satisfies_bounded() {
        let sys = csp_solution(ITEMS, CAP);
        let problem = bounded_spec(ITEMS.len(), CAP);
        let corr = csp_correspondence(&sys, &problem, CAP);
        let outcome = verify_system(
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).expect("acyclic"),
            &VerifyOptions::default(),
        )
        .expect("correspondence consistent");
        assert!(outcome.ok(), "{outcome}");
        assert!(outcome.exhaustive());
    }

    #[test]
    fn ada_satisfies_bounded() {
        let sys = ada_solution(ITEMS, CAP);
        let problem = bounded_spec(ITEMS.len(), CAP);
        let corr = ada_correspondence(&sys, &problem, CAP);
        let outcome = verify_system(
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).expect("acyclic"),
            &VerifyOptions::default(),
        )
        .expect("correspondence consistent");
        assert!(outcome.ok(), "{outcome}");
        assert!(outcome.exhaustive());
    }

    #[test]
    fn solutions_deadlock_free() {
        assert!(find_deadlock(
            &monitor_solution(ITEMS, CAP),
            &Explorer::default(),
            &NoopProbe
        )
        .is_none());
        assert!(
            find_deadlock(&csp_solution(ITEMS, CAP), &Explorer::default(), &NoopProbe).is_none()
        );
        assert!(
            find_deadlock(&ada_solution(ITEMS, CAP), &Explorer::default(), &NoopProbe).is_none()
        );
    }

    #[test]
    fn capacity_violation_detected() {
        // A buffer claiming capacity 2 but holding 3 cells violates the
        // cap-2 capacity restriction (deposit 3 can occur before any
        // removal).
        let sys = csp_solution(ITEMS, 3);
        let problem = bounded_spec(ITEMS.len(), 2);
        let corr = csp_correspondence(&sys, &problem, 3);
        let outcome = verify_system(
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).expect("acyclic"),
            &VerifyOptions::default(),
        )
        .expect("correspondence consistent");
        assert!(!outcome.ok(), "3 cells overflow a capacity-2 spec");
        assert!(outcome
            .failures
            .iter()
            .any(|f| f.violated.iter().any(|v| v == "capacity")));
    }

    #[test]
    fn capacity_one_equals_one_slot_alternation() {
        let sys = monitor_solution(&[7, 8], 1);
        let problem = bounded_spec(2, 1);
        let corr = monitor_correspondence(&sys, &problem, 1);
        let outcome = verify_system(
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).expect("acyclic"),
            &VerifyOptions::default(),
        )
        .expect("correspondence consistent");
        assert!(outcome.ok(), "{outcome}");
    }
}
