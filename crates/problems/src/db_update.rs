//! The distributed database update problem (§1, §11 — the paper's first
//! distributed application, citing a distributed-update algorithm).
//!
//! The cited algorithm is not reproduced verbatim in the paper, so this
//! module implements the class of algorithm it refers to (see DESIGN.md,
//! "Substitutions"): a **primary-copy update propagation** scheme over
//! synchronous messages. Clients submit updates to a coordinator site;
//! the coordinator serializes them (accepting in any arrival order via a
//! guarded alternative) and propagates each update to every replica;
//! replicas apply updates in the order received.
//!
//! The GEM problem specification has an `order` element (the global
//! serialization: `Order(val)` events) and one `site[i]` element per
//! replica (`Apply(val)` events), restricted by:
//!
//! * `applied-everywhere` — the `k`-th ordered update is applied at every
//!   site (the paper's functional-correctness claim);
//! * `applied-in-order` — the `k`-th application at each site carries the
//!   `k`-th ordered value (agreement between sites follows);
//! * `causality` — an update is applied only after it was ordered
//!   (`order^k ⇒ site_i^k`).

use gem_logic::{EventSel, EventTerm, Formula, ValueTerm};
use gem_spec::{ElementType, GroupType, SpecBuilder, Specification};
use gem_verify::Correspondence;

use gem_lang::csp::{AltBranch, Comm, CspProcess, CspProgram, CspStmt, CspSystem};
use gem_lang::Expr;

/// The distributed-update problem specification for `sites` replicas and
/// `updates` submitted updates.
pub fn db_update_spec(sites: usize, updates: usize) -> Specification {
    let order_t = ElementType::new("UpdateOrder").event("Order", &["val"]);
    let site_t = ElementType::new("ReplicaSite").event("Apply", &["val"]);
    let db_t = GroupType::new("DistributedDB")
        .element_member("order", order_t)
        .element_set("site", site_t)
        .port("order", "Order")
        .port("site", "Apply");
    let mut sb = SpecBuilder::new("DistributedUpdate");
    let db = sb
        .instantiate_group(&db_t, "db", &[("site", sites)])
        .expect("fresh spec");
    let order_el = db.element("order").id();
    let site_els: Vec<_> = db.elements("site").iter().map(|e| e.id()).collect();

    let mut everywhere = Vec::new();
    let mut in_order = Vec::new();
    let mut causality = Vec::new();
    for k in 0..updates {
        let ord_k = EventTerm::NthAt(order_el, k);
        for &site in &site_els {
            let app_k = EventTerm::NthAt(site, k);
            everywhere
                .push(Formula::occurred(ord_k.clone()).implies(Formula::occurred(app_k.clone())));
            in_order.push(Formula::occurred(app_k.clone()).implies(Formula::value_eq(
                ValueTerm::param(ord_k.clone(), "val"),
                ValueTerm::param(app_k.clone(), "val"),
            )));
            causality.push(
                Formula::occurred(app_k.clone())
                    .implies(Formula::precedes(ord_k.clone(), app_k.clone())),
            );
        }
    }
    sb.add_restriction("applied-everywhere", Formula::And(everywhere));
    sb.add_restriction("applied-in-order", Formula::And(in_order));
    sb.add_restriction("causality", Formula::And(causality));
    sb.finish()
}

/// Builds the primary-copy CSP implementation: `n_clients` clients each
/// submitting one update value, a coordinator serializing them, and
/// `sites` replicas applying them.
///
/// Update values are `100 + client_index`, so every update is unique and
/// traceable.
pub fn db_update_program(n_clients: usize, sites: usize) -> CspSystem {
    let mut prog = CspProgram::new();
    for c in 0..n_clients {
        prog = prog.process(CspProcess::new(
            format!("client{c}"),
            vec![CspStmt::send("coord", Expr::int(100 + c as i64))],
        ));
    }
    // Coordinator: one round per update — accept from any client, record
    // the serialization in `cur`, broadcast to every replica.
    let mut coord_body = Vec::new();
    for _ in 0..n_clients {
        let branches = (0..n_clients)
            .map(|c| AltBranch {
                guard: None,
                comm: Comm::Recv {
                    from: format!("client{c}"),
                    var: "cur".into(),
                },
                body: vec![],
            })
            .collect();
        coord_body.push(CspStmt::Alt(branches));
        for r in 0..sites {
            coord_body.push(CspStmt::send(format!("replica{r}"), Expr::var("cur")));
        }
    }
    prog = prog.process(CspProcess::new("coord", coord_body).local("cur", 0i64));
    // Replicas: apply each received update to the local db, and fold it
    // into a base-1000 log for the functional test.
    for r in 0..sites {
        let mut body = Vec::new();
        for _ in 0..n_clients {
            body.push(CspStmt::recv("coord", "u"));
            body.push(CspStmt::assign("db", Expr::var("u")));
            body.push(CspStmt::assign(
                "log",
                Expr::var("log").mul(Expr::int(1000)).add(Expr::var("u")),
            ));
        }
        prog = prog.process(
            CspProcess::new(format!("replica{r}"), body)
                .local("u", 0i64)
                .local("db", 0i64)
                .local("log", 0i64),
        );
    }
    CspSystem::new(prog)
}

/// The significant objects: the coordinator's receive completions are the
/// `Order` events; each replica's `db` assignments are its `Apply`
/// events.
pub fn db_update_correspondence(
    sys: &CspSystem,
    problem: &Specification,
    sites: usize,
) -> Correspondence {
    let ps = problem.structure();
    let order_el = ps.element("db.order").expect("order element");
    let order_cls = ps.class("Order").expect("Order class");
    let apply_cls = ps.class("Apply").expect("Apply class");
    let coord = sys.program().process_index("coord").expect("coord");
    let mut corr = Correspondence::new().map_with_params(
        EventSel::of_class(sys.class("InEnd")).at(sys.in_element(coord)),
        order_el,
        order_cls,
        &[(0, 0)],
    );
    for r in 0..sites {
        let site_el = ps.element(&format!("db.site[{r}]")).expect("site element");
        let var_el = sys
            .structure()
            .element(&format!("replica{r}.var.db"))
            .expect("db var");
        corr = corr.map_with_params(
            EventSel::of_class(sys.class("Assign")).at(var_el),
            site_el,
            apply_cls,
            &[(0, 0)],
        );
    }
    corr
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_core::Value;
    use gem_lang::{find_deadlock, Explorer, System};
    use gem_obs::NoopProbe;
    use gem_verify::{verify_system, VerifyOptions};
    use std::ops::ControlFlow;

    const CLIENTS: usize = 3;
    const SITES: usize = 2;

    #[test]
    fn spec_shape() {
        let spec = db_update_spec(SITES, CLIENTS);
        assert_eq!(spec.restrictions().len(), 3);
    }

    #[test]
    fn satisfies_spec_on_all_schedules() {
        let sys = db_update_program(CLIENTS, SITES);
        let problem = db_update_spec(SITES, CLIENTS);
        let corr = db_update_correspondence(&sys, &problem, SITES);
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
        assert!(outcome.runs >= 6, "3 clients: at least 3! arrival orders");
    }

    #[test]
    fn no_deadlock() {
        // The paper's claim: lack of deadlock, over every schedule.
        let sys = db_update_program(CLIENTS, SITES);
        assert!(find_deadlock(&sys, &Explorer::default(), &NoopProbe).is_none());
    }

    #[test]
    fn replicas_converge_on_every_schedule() {
        // Functional correctness: all replicas end with identical logs,
        // and the log reflects some permutation of all submitted updates.
        let sys = db_update_program(CLIENTS, SITES);
        let coord = sys.program().process_index("coord").unwrap();
        let replicas: Vec<usize> = (0..SITES)
            .map(|r| sys.program().process_index(&format!("replica{r}")).unwrap())
            .collect();
        let _ = coord;
        let mut final_logs = std::collections::HashSet::new();
        Explorer::default().for_each_run(&sys, |state, _| {
            assert!(sys.is_complete(state));
            let logs: Vec<Value> = replicas
                .iter()
                .map(|&r| state.local(r, "log").copied().expect("log var"))
                .collect();
            assert!(
                logs.windows(2).all(|w| w[0] == w[1]),
                "replicas disagree: {logs:?}"
            );
            // Log digits decode to a permutation of {100, 101, 102}.
            let mut v = logs[0].as_int().unwrap();
            let mut seen = Vec::new();
            for _ in 0..CLIENTS {
                seen.push(v % 1000);
                v /= 1000;
            }
            seen.sort_unstable();
            assert_eq!(seen, vec![100, 101, 102]);
            final_logs.insert(logs[0]);
            ControlFlow::Continue(())
        });
        assert_eq!(
            final_logs.len(),
            6,
            "all 3! serialization orders are reachable"
        );
    }

    #[test]
    fn broken_propagation_fails_spec() {
        // A coordinator that skips the second replica: applied-everywhere
        // must fail.
        let mut prog = CspProgram::new();
        for c in 0..2 {
            prog = prog.process(CspProcess::new(
                format!("client{c}"),
                vec![CspStmt::send("coord", Expr::int(100 + c as i64))],
            ));
        }
        let mut coord_body = Vec::new();
        for _ in 0..2 {
            coord_body.push(CspStmt::Alt(
                (0..2)
                    .map(|c| AltBranch {
                        guard: None,
                        comm: Comm::Recv {
                            from: format!("client{c}"),
                            var: "cur".into(),
                        },
                        body: vec![],
                    })
                    .collect(),
            ));
            coord_body.push(CspStmt::send("replica0", Expr::var("cur")));
            // replica1 never hears about it.
        }
        prog = prog.process(CspProcess::new("coord", coord_body).local("cur", 0i64));
        prog = prog.process(
            CspProcess::new(
                "replica0",
                vec![
                    CspStmt::recv("coord", "u"),
                    CspStmt::assign("db", Expr::var("u")),
                    CspStmt::recv("coord", "u"),
                    CspStmt::assign("db", Expr::var("u")),
                ],
            )
            .local("u", 0i64)
            .local("db", 0i64),
        );
        prog = prog.process(CspProcess::new("replica1", vec![]).local("db", 0i64));
        // replica1 needs a db var element for the correspondence; declare
        // it by giving the process the local even though it never writes.
        let sys = CspSystem::new(prog);
        let problem = db_update_spec(2, 2);
        let corr = db_update_correspondence(&sys, &problem, 2);
        let outcome = verify_system(
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).expect("acyclic"),
            &VerifyOptions::default(),
        )
        .expect("correspondence consistent");
        assert!(!outcome.ok());
        assert!(outcome
            .failures
            .iter()
            .any(|f| f.violated.iter().any(|v| v == "applied-everywhere")));
    }
}
