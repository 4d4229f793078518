//! The distributed database update application (§11): clients submit
//! updates, a coordinator serializes and propagates them, replicas apply
//! them in order. Verified deadlock-free and convergent over every
//! arrival order.
//!
//! Run with `cargo run --release --example db_update`.

use gem_lang::{find_deadlock, Explorer};
use gem_obs::NoopProbe;
use gem_problems::db_update::{db_update_correspondence, db_update_program, db_update_spec};
use gem_verify::{verify_system, VerifyOptions};
use std::ops::ControlFlow;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (clients, sites) = (3, 2);
    let sys = db_update_program(clients, sites);
    let problem = db_update_spec(sites, clients);
    let corr = db_update_correspondence(&sys, &problem, sites);

    println!("distributed update: {clients} clients, 1 coordinator, {sites} replicas\n");

    match find_deadlock(&sys, &Explorer::default(), &NoopProbe) {
        None => println!("deadlock-free across all schedules"),
        Some(path) => println!("DEADLOCK after {path:?}"),
    }

    // Show the distinct serialization orders replicas converge to.
    let replicas: Vec<usize> = (0..sites)
        .map(|r| {
            sys.program()
                .process_index(&format!("replica{r}"))
                .expect("replica")
        })
        .collect();
    let mut orders = std::collections::BTreeSet::new();
    Explorer::default().for_each_run(&sys, |state, _| {
        let logs: Vec<i64> = replicas
            .iter()
            .map(|&r| state.local(r, "log").unwrap().as_int().unwrap())
            .collect();
        assert!(logs.windows(2).all(|w| w[0] == w[1]), "replicas agree");
        orders.insert(logs[0]);
        ControlFlow::Continue(())
    });
    println!(
        "replicas agree on every schedule; {} distinct serialization orders observed",
        orders.len()
    );

    let outcome = verify_system(
        &sys,
        &problem,
        &corr,
        |s| sys.computation(s).expect("acyclic"),
        &VerifyOptions::default(),
    )?;
    println!("\nGEM verification: {outcome}");
    println!(
        "verdict: PROG sat P {}",
        if outcome.ok() { "HOLDS" } else { "FAILS" }
    );
    Ok(())
}
