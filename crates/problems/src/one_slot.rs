//! The One-Slot Buffer problem (§1, §11) and its Monitor, CSP, and ADA
//! solutions.
//!
//! **Problem.** A producer deposits items into a single slot; a consumer
//! removes them. Deposits and removals alternate, every removal yields
//! the value last deposited, and each deposit is removed exactly once.
//!
//! The specification follows the paper's style: a `Buffer` element with
//! `Deposit(item)`/`Remove(item)` event classes, restricted over the
//! buffer's *element order* (alternation of deposits and removals, and
//! each removal yielding the latest preceding deposit's item). Phrasing
//! the restrictions over `⇒ₑ` — rather than the enable relation — keeps
//! them implementation-neutral: a monitor threads control through a lock,
//! CSP through rendezvous, ADA through entry queues, and all three
//! project onto the same totally-ordered buffer behaviour.

use gem_logic::{EventSel, Formula, ValueTerm};
use gem_spec::{ElementType, SpecBuilder, Specification};
use gem_verify::Correspondence;

use gem_core::Value;
use gem_lang::monitor::{MonitorDef, MonitorProgram, MonitorSystem, ProcessDef, ScriptStep, Stmt};
use gem_lang::{
    ada::{AdaProgram, AdaStmt, AdaSystem, AdaTask},
    csp::{CspProcess, CspProgram, CspStmt, CspSystem},
    Expr,
};

/// The Buffer element type: `Deposit(item)` and `Remove(item)` events.
pub fn buffer_element_type() -> ElementType {
    ElementType::new("OneSlotBuffer")
        .event("Deposit", &["item"])
        .event("Remove", &["item"])
}

/// The One-Slot Buffer problem specification.
///
/// All buffer events occur at the single `buf` element, so the element
/// order `⇒ₑ` totally orders them (§4); the restrictions are phrased over
/// that order, which makes them insensitive to how an implementation
/// threads control between producer and consumer:
///
/// 1. `deposits-alternate` — between two deposits there is a removal.
/// 2. `removals-alternate` — between two removals there is a deposit.
/// 3. `remove-takes-last-deposit` — the latest deposit preceding each
///    removal carries the removed item (value transfer + "the slot holds
///    one item").
pub fn one_slot_spec() -> Specification {
    let mut sb = SpecBuilder::new("OneSlotBuffer");
    let buf = sb
        .instantiate_element(&buffer_element_type(), "buf")
        .expect("fresh spec");
    let dep = buf.sel("Deposit");
    let rem = buf.sel("Remove");
    sb.add_restriction(
        "deposits-alternate",
        Formula::forall(
            "d1",
            dep.clone(),
            Formula::forall(
                "d2",
                dep.clone(),
                Formula::element_precedes("d1", "d2").implies(Formula::exists(
                    "r",
                    rem.clone(),
                    Formula::element_precedes("d1", "r").and(Formula::element_precedes("r", "d2")),
                )),
            ),
        ),
    );
    sb.add_restriction(
        "removals-alternate",
        Formula::forall(
            "r1",
            rem.clone(),
            Formula::forall(
                "r2",
                rem.clone(),
                Formula::element_precedes("r1", "r2").implies(Formula::exists(
                    "d",
                    dep.clone(),
                    Formula::element_precedes("r1", "d").and(Formula::element_precedes("d", "r2")),
                )),
            ),
        ),
    );
    sb.add_restriction(
        "remove-takes-last-deposit",
        Formula::forall(
            "r",
            rem,
            Formula::exists(
                "d",
                dep.clone(),
                Formula::element_precedes("d", "r")
                    .and(Formula::value_eq(
                        ValueTerm::param("d", "item"),
                        ValueTerm::param("r", "item"),
                    ))
                    .and(
                        Formula::exists(
                            "d2",
                            dep.clone(),
                            Formula::element_precedes("d", "d2")
                                .and(Formula::element_precedes("d2", "r")),
                        )
                        .not(),
                    ),
            ),
        ),
    );
    sb.finish()
}

/// The Monitor solution: a one-slot buffer monitor with `Put`/`Take`
/// entries, plus a producer depositing `items` and a consumer taking as
/// many.
pub fn monitor_solution(items: &[i64]) -> MonitorSystem {
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

/// Significant objects for the monitor solution: the `slot` assignment
/// inside `Put` is a `Deposit`, the `taken` assignment inside `Take` is a
/// `Remove` (both carry the item as parameter 0).
pub fn monitor_correspondence(sys: &MonitorSystem, problem: &Specification) -> Correspondence {
    let ps = problem.structure();
    let buf = ps.element("buf").expect("buf element");
    let dep = ps.class("Deposit").expect("Deposit class");
    let rem = ps.class("Remove").expect("Remove class");
    Correspondence::new()
        .map_with_params(
            EventSel::of_class(sys.class("Assign"))
                .at(sys.var_element("slot"))
                .with_param(1, "Put"),
            buf,
            dep,
            &[(0, 0)],
        )
        .map_with_params(
            EventSel::of_class(sys.class("Assign"))
                .at(sys.var_element("taken"))
                .with_param(1, "Take"),
            buf,
            rem,
            &[(0, 0)],
        )
}

/// The CSP solution: `producer → slot → consumer`, where the slot process
/// is the buffer (its `InEnd` is a `Deposit`, its `OutEnd` a `Remove`).
pub fn csp_solution(items: &[i64]) -> CspSystem {
    let mut producer_body = Vec::new();
    for &v in items {
        producer_body.push(CspStmt::send("slot", Expr::int(v)));
    }
    let mut slot_body = Vec::new();
    let mut consumer_body = Vec::new();
    for _ in items {
        slot_body.push(CspStmt::recv("producer", "x"));
        slot_body.push(CspStmt::send("consumer", Expr::var("x")));
        consumer_body.push(CspStmt::recv("slot", "got"));
    }
    CspSystem::new(
        CspProgram::new()
            .process(CspProcess::new("producer", producer_body))
            .process(CspProcess::new("slot", slot_body).local("x", 0i64))
            .process(CspProcess::new("consumer", consumer_body).local("got", 0i64)),
    )
}

/// Significant objects for the CSP solution.
pub fn csp_correspondence(sys: &CspSystem, problem: &Specification) -> Correspondence {
    let ps = problem.structure();
    let buf = ps.element("buf").expect("buf element");
    let dep = ps.class("Deposit").expect("Deposit class");
    let rem = ps.class("Remove").expect("Remove class");
    let slot = sys.program().process_index("slot").expect("slot process");
    Correspondence::new()
        .map_with_params(
            EventSel::of_class(sys.class("InEnd")).at(sys.in_element(slot)),
            buf,
            dep,
            &[(0, 0)],
        )
        .map_with_params(
            EventSel::of_class(sys.class("OutEnd")).at(sys.out_element(slot)),
            buf,
            rem,
            &[(0, 0)],
        )
}

/// The ADA solution: a buffer task accepting `Put(v)` (stores into
/// `slot`) and `Take` (copies `slot` into `out`); the `slot` assignment is
/// the `Deposit`, the `out` assignment the `Remove`.
pub fn ada_solution(items: &[i64]) -> AdaSystem {
    let mut buffer_body = Vec::new();
    for _ in items {
        buffer_body.push(AdaStmt::accept_with(
            "Put",
            &["v"],
            vec![AdaStmt::assign("slot", Expr::var("v"))],
        ));
        buffer_body.push(AdaStmt::accept(
            "Take",
            vec![AdaStmt::assign("out", Expr::var("slot"))],
        ));
    }
    let buffer = AdaTask::new("buffer", buffer_body)
        .entry("Put")
        .entry("Take")
        .local("slot", 0i64)
        .local("out", 0i64);
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
pub fn ada_correspondence(sys: &AdaSystem, problem: &Specification) -> Correspondence {
    let ps = problem.structure();
    let buf = ps.element("buf").expect("buf element");
    let dep = ps.class("Deposit").expect("Deposit class");
    let rem = ps.class("Remove").expect("Remove class");
    let s = sys.structure();
    let slot_el = s.element("buffer.var.slot").expect("slot var");
    let out_el = s.element("buffer.var.out").expect("out var");
    Correspondence::new()
        .map_with_params(
            EventSel::of_class(sys.class("Assign")).at(slot_el),
            buf,
            dep,
            &[(0, 0)],
        )
        .map_with_params(
            EventSel::of_class(sys.class("Assign")).at(out_el),
            buf,
            rem,
            &[(0, 0)],
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_lang::{find_deadlock, Explorer};
    use gem_obs::NoopProbe;
    use gem_verify::{verify_system, VerifyOptions};

    const ITEMS: &[i64] = &[10, 20, 30];

    #[test]
    fn spec_shape() {
        let spec = one_slot_spec();
        assert_eq!(spec.restrictions().len(), 3);
        assert!(spec.restriction("deposits-alternate").is_some());
    }

    #[test]
    fn monitor_satisfies_one_slot() {
        let sys = monitor_solution(ITEMS);
        let problem = one_slot_spec();
        let corr = monitor_correspondence(&sys, &problem);
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
        assert!(outcome.runs >= 1);
    }

    #[test]
    fn csp_satisfies_one_slot() {
        let sys = csp_solution(ITEMS);
        let problem = one_slot_spec();
        let corr = csp_correspondence(&sys, &problem);
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
    fn ada_satisfies_one_slot() {
        let sys = ada_solution(ITEMS);
        let problem = one_slot_spec();
        let corr = ada_correspondence(&sys, &problem);
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
        assert!(
            find_deadlock(&monitor_solution(ITEMS), &Explorer::default(), &NoopProbe).is_none()
        );
        assert!(find_deadlock(&csp_solution(ITEMS), &Explorer::default(), &NoopProbe).is_none());
        assert!(find_deadlock(&ada_solution(ITEMS), &Explorer::default(), &NoopProbe).is_none());
    }

    #[test]
    fn broken_monitor_fails_spec() {
        // Remove the full/empty synchronization: Put overwrites at will.
        let monitor = MonitorDef::new("Slot")
            .var("slot", 0i64)
            .var("taken", 0i64)
            .entry("Put", &["v"], vec![Stmt::assign("slot", Expr::var("v"))])
            .entry("Take", &[], vec![Stmt::assign("taken", Expr::var("slot"))]);
        let producer = ProcessDef::new(
            "producer",
            ITEMS
                .iter()
                .map(|&v| ScriptStep::Call {
                    entry: "Put".into(),
                    args: vec![Value::Int(v)],
                })
                .collect(),
        );
        let consumer = ProcessDef::new(
            "consumer",
            ITEMS
                .iter()
                .map(|_| ScriptStep::Call {
                    entry: "Take".into(),
                    args: vec![],
                })
                .collect(),
        );
        let sys = MonitorSystem::new(
            MonitorProgram::new(monitor)
                .process(producer)
                .process(consumer),
        );
        let problem = one_slot_spec();
        let corr = monitor_correspondence(&sys, &problem);
        let outcome = verify_system(
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).expect("acyclic"),
            &VerifyOptions::default(),
        )
        .expect("correspondence consistent");
        assert!(!outcome.ok(), "unsynchronized slot must violate the spec");
    }
}
