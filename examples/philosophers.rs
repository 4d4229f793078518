//! Dining philosophers (extension): the naive left-first discipline
//! deadlocks — and the explorer produces the circular-wait witness —
//! while the asymmetric repair is verified deadlock-free and satisfies
//! neighbour exclusion.
//!
//! Run with `cargo run --release --example philosophers`.

use gem_lang::{find_deadlock, Explorer};
use gem_obs::NoopProbe;
use gem_problems::philosophers::{
    philosophers_correspondence, philosophers_program, philosophers_spec, ForkOrder,
};
use gem_verify::{verify_system, VerifyOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 3;
    // Deadlock is a state property, so `find_deadlock` prunes states
    // already seen: sound and fast.
    let explorer = Explorer::default();

    println!("{n} philosophers, naive left-first forks:");
    match find_deadlock(
        &philosophers_program(n, 1, ForkOrder::Naive),
        &explorer,
        &NoopProbe,
    ) {
        Some(path) => {
            println!("  DEADLOCK after {} actions:", path.len());
            for a in &path {
                println!("    {a:?}");
            }
        }
        None => println!("  unexpectedly deadlock-free?!"),
    }

    println!("\n{n} philosophers, asymmetric forks (last picks right first):");
    match find_deadlock(
        &philosophers_program(n, 1, ForkOrder::Asymmetric),
        &explorer,
        &NoopProbe,
    ) {
        None => println!("  deadlock-free (pruned state search)"),
        Some(path) => println!("  DEADLOCK: {path:?}"),
    }

    let sys = philosophers_program(n, 1, ForkOrder::Asymmetric);
    let problem = philosophers_spec(n);
    let corr = philosophers_correspondence(&sys, &problem, n);
    let outcome = verify_system(
        &sys,
        &problem,
        &corr,
        |s| sys.computation(s).expect("acyclic"),
        &VerifyOptions {
            explorer: Explorer::with_max_runs(500),
            ..VerifyOptions::default()
        },
    )?;
    println!("  neighbour-exclusion: {outcome}");
    println!(
        "  verdict: PROG sat P {}",
        if outcome.ok() { "HOLDS" } else { "FAILS" }
    );
    Ok(())
}
