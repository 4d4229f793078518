//! The computation fingerprint against the exact canonical key, on real
//! instances of all three substrates.
//!
//! [`Computation::fingerprint`] hashes a computation's generators in
//! schedule-independent coordinates; [`canonical_key`] serialises the
//! same computation exactly. On every run of each instance the run
//! partition induced by the fingerprint must coincide with the partition
//! induced by the canonical key: equal computations hash equal whatever
//! schedule built them, and distinct ones do not collide. The unit tests
//! in `gem_core::computation` check the same on hand-built computations;
//! these sweeps check it on what the simulators actually produce.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

use gem::core::Computation;
use gem::lang::monitor::readers_writers_monitor;
use gem::lang::{Explorer, System};
use gem::problems::bounded;
use gem::problems::philosophers::{philosophers_program, ForkOrder};
use gem::problems::readers_writers::rw_program;
use gem::verify::{canonical_key, CanonicalKey};

/// On one instance, the run partition by fingerprint must coincide with
/// the partition by canonical key: same classes, same members.
fn assert_partitions_coincide<S: System>(
    sys: &S,
    extract: impl Fn(&S::State) -> Computation,
    what: &str,
) {
    let mut by_canonical: BTreeMap<CanonicalKey, BTreeSet<usize>> = BTreeMap::new();
    let mut by_fingerprint: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
    let mut run = 0usize;
    Explorer::default().for_each_run(sys, |state, _| {
        let comp = extract(state);
        by_canonical
            .entry(canonical_key(&comp))
            .or_default()
            .insert(run);
        by_fingerprint
            .entry(comp.fingerprint())
            .or_default()
            .insert(run);
        run += 1;
        ControlFlow::Continue(())
    });
    assert!(run > 1, "{what}: too few runs to compare");
    let canonical_classes: BTreeSet<BTreeSet<usize>> = by_canonical.into_values().collect();
    let fingerprint_classes: BTreeSet<BTreeSet<usize>> = by_fingerprint.into_values().collect();
    assert_eq!(
        canonical_classes, fingerprint_classes,
        "{what}: fingerprint partition differs from canonical partition"
    );
}

#[test]
fn monitor_bounded_buffer_fingerprint_equiv() {
    let sys = bounded::monitor_solution(&[1, 2, 3], 2);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_partitions_coincide(&sys, extract, "monitor bounded buffer");
}

#[test]
fn csp_bounded_buffer_fingerprint_equiv() {
    let sys = bounded::csp_solution(&[1, 2, 3], 2);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_partitions_coincide(&sys, extract, "csp bounded buffer");
}

#[test]
fn ada_bounded_buffer_fingerprint_equiv() {
    let sys = bounded::ada_solution(&[1, 2, 3], 2);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_partitions_coincide(&sys, extract, "ada bounded buffer");
}

#[test]
fn failing_rw_fingerprint_equiv() {
    // The monitor whose runs violate the writers-priority problem.
    let sys = rw_program(readers_writers_monitor(), 1, 2, false);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_partitions_coincide(&sys, extract, "failing rw");
}

#[test]
fn deadlocking_philosophers_fingerprint_equiv() {
    // Naive-order philosophers deadlock, so some runs end incomplete.
    let sys = philosophers_program(2, 1, ForkOrder::Naive);
    let extract = |s: &_| sys.computation(s).expect("acyclic");
    assert_partitions_coincide(&sys, extract, "deadlocking philosophers");
}
