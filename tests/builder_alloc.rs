//! Allocation guards for the trace builder's append path, the
//! incremental checker's replay and the stats probe's recording.
//!
//! Exploration grows one computation along a schedule, rolls it back to a
//! mark and regrows the next sibling branch. Once the deepest branch has
//! been grown, regrowing a suffix of the same shape must not touch the
//! heap: the builder only appends to journals that keep their capacity,
//! and refills the parameter vectors of rolled-back events. Likewise, once
//! the incremental checker has synced to the deepest leaf, replaying a
//! regrown suffix of the same shape works in the rows it kept, its
//! projected-order table included, and judging the leaf restrictions binds
//! variables on the stack and compares values in place. The stats probe, which backs the default heartbeat, looks a key
//! up before it allocates one. The substrate simulators save each step's
//! control state into reused slots and pass event parameters as arrays, so
//! checkpoint, apply and undo along a path seen before allocate nothing,
//! and a whole verification sweep stays within a small budget per step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::ControlFlow;

use gem::core::{ClassId, ComputationBuilder, ElementId, EventId, Structure, Value};
use gem::lang::{Explorer, System as Sim};
use gem::logic::{CmpOp, Formula, ValueTerm};
use gem::obs::{Probe, StatsProbe};
use gem::spec::{prerequisite, ElementInstance, ElementType, SpecBuilder};
use gem::verify::{verify_system, Correspondence, IncrChecker, LeafStatus, VerifyOptions};
use gem_cli::{instance, Instance, Params, Program};

/// Counts allocations per thread, so tests running in parallel on other
/// threads cannot perturb a measurement.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the counter may be gone while the thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's; counting only touches a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Appends `n` events round-robin over `els` (empty params), each enabled
/// by the previous event and every third one also by the event three back
/// — one or two enable edges per event, the shape a simulator step emits.
fn grow(b: &mut ComputationBuilder, els: &[ElementId], class: ClassId, n: usize) {
    for i in 0..n {
        let before = b.event_count();
        let e = b
            .add_event(els[i % els.len()], class, Vec::new())
            .expect("event");
        if before > 0 {
            b.enable(EventId::from_raw(before as u32 - 1), e)
                .expect("edge");
        }
        if i % 3 == 0 && before >= 3 {
            b.enable(EventId::from_raw(before as u32 - 3), e)
                .expect("edge");
        }
    }
}

#[test]
fn regrowing_a_rolled_back_suffix_does_not_allocate() {
    let mut s = Structure::new();
    let act = s.add_class("Act", &[]).expect("class");
    let els: Vec<_> = (0..4)
        .map(|i| s.add_element(format!("P{i}"), &[act]).expect("element"))
        .collect();
    let mut b = ComputationBuilder::new(s);
    grow(&mut b, &els, act, 20);
    let mark = b.mark();
    let fingerprint = |b: &ComputationBuilder| b.seal_ref().expect("acyclic").fingerprint();
    let prefix_fp = fingerprint(&b);

    // First branch: allocates the rows and journal capacity.
    grow(&mut b, &els, act, 100);
    let grown_fp = fingerprint(&b);
    b.truncate_to(&mark);
    assert_eq!(fingerprint(&b), prefix_fp);

    // Sibling branch of the same shape: nothing left to allocate.
    let before = allocs();
    grow(&mut b, &els, act, 100);
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "regrowing a 100-event suffix allocated {during} time(s)"
    );
    assert_eq!(fingerprint(&b), grown_fp);
    assert_eq!(b.event_count(), 120);
}

/// Appends `n` hand-offs of value `v + i`: a `Put` at `P`, a relay `Put`
/// at the insignificant `R`, and a `Get` at `Q`, each enabled by the
/// event before it.
fn hand_off(
    b: &mut ComputationBuilder,
    [p, r, q]: [ElementId; 3],
    [put, get]: [ClassId; 2],
    v: i64,
    n: usize,
) {
    for i in 0..n {
        let value = Value::Int(v + i as i64);
        let mut prev = None;
        for (el, class) in [(p, put), (r, put), (q, get)] {
            let e = b.add_event(el, class, vec![value]).expect("event");
            if let Some(prev) = prev {
                b.enable(prev, e).expect("edge");
            }
            prev = Some(e);
        }
    }
}

/// Syncs an incremental checker to the deepest hand-off leaf, rolls the
/// builder back, regrows a sibling leaf of the same shape with other
/// values and returns the allocations the second sync made. Every
/// restriction `restrictions` adds over the elements `P` (puts) and `Q`
/// (gets) must hold of both leaves.
fn replay_allocations(
    restrictions: impl FnOnce(&mut SpecBuilder, &ElementInstance, &ElementInstance),
) -> u64 {
    let ty = ElementType::new("Node")
        .event("Put", &["v"])
        .event("Get", &["v"]);
    let mut sb = SpecBuilder::new("HandOff");
    let p = sb.instantiate_element(&ty, "P").expect("element");
    let q = sb.instantiate_element(&ty, "Q").expect("element");
    let r = sb.instantiate_element(&ty, "R").expect("element");
    restrictions(&mut sb, &p, &q);
    let spec = sb.finish();
    let corr = Correspondence::new()
        .map_with_params(p.sel("Put"), p.id(), p.class("Put"), &[(0, 0)])
        .map_with_params(q.sel("Get"), q.id(), q.class("Get"), &[(0, 0)]);
    let els = [p.id(), r.id(), q.id()];
    let classes = [p.class("Put"), p.class("Get")];
    let mut b = ComputationBuilder::new(spec.structure_arc());
    let mut chk = IncrChecker::new(&spec, &corr, false);
    hand_off(&mut b, els, classes, 0, 5);
    let mark = b.mark();

    // The deepest leaf: the checker grows its rows and scratch buffers.
    hand_off(&mut b, els, classes, 100, 20);
    assert_eq!(chk.sync_to(&b), LeafStatus::Clean);
    b.truncate_to(&mark);

    // A sibling leaf of the same shape with other values: a 60-event
    // replay over the rows the rewind kept.
    hand_off(&mut b, els, classes, 200, 20);
    let before = allocs();
    let status = chk.sync_to(&b);
    let during = allocs() - before;
    assert_eq!(status, LeafStatus::Clean);
    assert_eq!(IncrChecker::new(&spec, &corr, false).sync_to(&b), status);
    during
}

#[test]
fn replaying_a_regrown_suffix_does_not_allocate() {
    let during = replay_allocations(|sb, p, q| {
        // ◻∀a:P.Put ∀b:Q.Get (a ⊳ b ⊃ b.v = a.v): a get returns the value
        // of the put that enabled it (through the relay, once projected).
        sb.add_restriction(
            "get-returns-put",
            Formula::forall(
                "a",
                p.sel("Put"),
                Formula::forall(
                    "b",
                    q.sel("Get"),
                    Formula::enables("a", "b").implies(Formula::value_cmp(
                        CmpOp::Eq,
                        ValueTerm::param("b", 0),
                        ValueTerm::param("a", 0),
                    )),
                ),
            )
            .henceforth(),
        );
    });
    assert_eq!(
        during, 0,
        "replaying a 60-event suffix allocated {during} time(s)"
    );
}

#[test]
fn judging_leaf_restrictions_does_not_allocate() {
    let during = replay_allocations(|sb, p, q| {
        // Put → Get: every get is enabled by exactly one put, and every
        // put enables at most one get. The leaf binds variables in nested
        // quantifiers.
        sb.add_restriction("put-get-chain", prerequisite(&p.sel("Put"), &q.sel("Get")));
        // ∀a:P.Put (a.v ≠ "eof"): a comparison against a string, which
        // the evaluator must read in place rather than copy.
        sb.add_restriction(
            "no-eof-put",
            Formula::forall(
                "a",
                p.sel("Put"),
                Formula::value_cmp(CmpOp::Ne, ValueTerm::param("a", "v"), ValueTerm::lit("eof")),
            ),
        );
    });
    assert_eq!(
        during, 0,
        "replaying a 60-event suffix and judging its leaf allocated {during} time(s)"
    );
}

#[test]
fn recording_into_existing_keys_does_not_allocate() {
    let stats = StatsProbe::new();
    let probe: &dyn Probe = &stats;
    let record = |v: u64| {
        probe.add("k.count", v);
        probe.gauge_set("k.gauge", v);
        probe.gauge_max("k.max", v);
        probe.time_ns("k.time", v);
        probe.record("k.hist", v);
    };
    // The first round inserts every key.
    record(1);
    let before = allocs();
    for v in 0..100 {
        record(v);
    }
    assert_eq!(
        allocs() - before,
        0,
        "recording into existing keys allocated"
    );
    assert_eq!(stats.counter("k.count"), 1 + (0..100).sum::<u64>());
}

/// Builds `line` (`problem key=value…`) as the CLI does.
fn build(line: &str) -> Instance {
    let mut words = line.split_whitespace().map(str::to_owned);
    let problem = words.next().expect("problem name");
    let params = Params::parse(&words.collect::<Vec<_>>()).expect("key=value params");
    instance(&problem, &params).expect("instance")
}

/// Evaluates `$body` with `$sys` bound to `$program`'s simulator and
/// `$seal` to a function sealing its states.
macro_rules! with_sim {
    ($program:expr, |$sys:ident, $seal:ident| $body:expr) => {
        match $program {
            Program::Monitor($sys) => {
                let $seal = |st: &_| $sys.computation(st).expect("acyclic");
                $body
            }
            Program::Csp($sys) => {
                let $seal = |st: &_| $sys.computation(st).expect("acyclic");
                $body
            }
            Program::Ada($sys) => {
                let $seal = |st: &_| $sys.computation(st).expect("acyclic");
                $body
            }
        }
    };
}

/// Descends to a leaf with checkpoint + apply, taking at each node the
/// enabled action `pick(depth, n)` of `n`, rolls the whole path back with
/// undo, repeats the round trip along the same path `warm_ups` more
/// times, and returns the allocations of one further round trip.
fn round_trip_allocations<S: Sim>(
    sys: &S,
    pick: impl Fn(usize, usize) -> usize,
    warm_ups: usize,
) -> u64 {
    let mut state = sys.initial();
    let mut path = Vec::new();
    let mut cps = Vec::new();
    loop {
        let actions = sys.enabled(&state);
        if actions.is_empty() {
            break;
        }
        let action = actions[pick(path.len(), actions.len())].clone();
        cps.push(sys.checkpoint(&state).expect("checkpoint fast path"));
        sys.apply(&mut state, &action);
        path.push(action);
    }
    assert!(path.len() > 5, "a path worth measuring");
    let mut round_trip = |state: &mut S::State| {
        while let Some(cp) = cps.pop() {
            sys.undo(state, cp);
        }
        for action in &path {
            cps.push(sys.checkpoint(state).expect("checkpoint fast path"));
            sys.apply(state, action);
        }
    };
    for _ in 0..warm_ups {
        round_trip(&mut state);
    }
    let before = allocs();
    round_trip(&mut state);
    allocs() - before
}

/// Chooses the enabled action `pick(depth, n)` of `n` at each node.
type Pick = fn(usize, usize) -> usize;

#[test]
fn stepping_a_path_seen_before_does_not_allocate() {
    // The first enabled action runs the processes one after another; the
    // second pick interleaves them two actions at a time, so monitor
    // entries wait and are signalled (and, under Mesa, resume).
    let picks: [(&str, Pick); 2] = [
        ("first", |_, _| 0),
        ("interleaved", |depth, n| (depth / 2) % n),
    ];
    for line in [
        "bounded items=4 cap=2",
        "rw readers=2 writers=1 monitor=writers variant=writers",
        "rw readers=1 writers=2 variant=mutex semantics=mesa",
        "bounded items=4 cap=2 substrate=ada",
        "bounded items=5 cap=3 substrate=csp",
    ] {
        for (name, pick) in picks {
            let during = with_sim!(&build(line).program, |sys, _seal| {
                round_trip_allocations(sys, pick, 1)
            });
            assert_eq!(
                during, 0,
                "{line}, {name} path: checkpoint + apply + undo along a path seen before \
                 allocated {during} time(s)"
            );
        }
    }
}

/// The allocations and the applied steps of one `verify_system` sweep of
/// `line` with the CLI's run budget, sleep-set reduced when `reduce`.
fn sweep_allocations(line: &str, reduce: bool) -> (u64, usize) {
    let Instance {
        program,
        spec,
        corr,
        max_runs,
    } = build(line);
    let explorer = Explorer {
        reduce,
        ..Explorer::with_max_runs(max_runs)
    };
    let options = VerifyOptions {
        explorer,
        ..VerifyOptions::default()
    };
    let (steps, during) = with_sim!(&program, |sys, seal| {
        let steps = explorer
            .for_each_run(sys, |_, _| ControlFlow::Continue(()))
            .steps;
        let before = allocs();
        let outcome = verify_system(sys, &spec, &corr, seal, &options).expect("projects");
        let during = allocs() - before;
        assert!(outcome.ok() && outcome.exhaustive(), "{line}: {outcome:?}");
        (steps, during)
    });
    (during, steps)
}

#[test]
fn a_verification_sweep_allocates_at_most_twice_per_step() {
    // The instances of the benchmark's `explore_bound` workload.
    for line in [
        "bounded items=4 cap=2",
        "bounded items=4 cap=2 substrate=ada",
        "bounded items=5 cap=3 substrate=csp",
        "rw readers=2 writers=1 monitor=writers variant=writers",
    ] {
        let (during, steps) = sweep_allocations(line, false);
        let per_step = during as f64 / steps as f64;
        assert!(
            per_step <= 2.0,
            "{line}: {during} allocation(s) over {steps} step(s), {per_step:.2} per step"
        );
    }
}

#[test]
fn a_reduced_sweep_allocates_no_sleep_set_per_edge() {
    // One pass of the benchmark's `por_reduced` workload: every sleep set
    // of a sweep lives on one stack, so sleep-set bookkeeping adds no
    // allocation per edge (1.98 per step when each edge built its own).
    // What is left is 1.01 per step: 0.97 is the vector `System::enabled`
    // returns at every inner node, 0.03 the simulators' and the builder's
    // buffers growing the first time a depth is reached, and 0.02 the
    // checker's set-up and leaves.
    let (mut during, mut steps) = (0, 0);
    for line in [
        "rw readers=1 writers=2 variant=mutex data=true",
        "bounded items=10 cap=2 substrate=ada",
        "philosophers n=4",
    ] {
        let (d, s) = sweep_allocations(line, true);
        eprintln!("{line}: {d} allocation(s) over {s} step(s)");
        during += d;
        steps += s;
    }
    let per_step = during as f64 / steps as f64;
    assert!(
        per_step <= 1.05,
        "{during} allocation(s) over {steps} step(s), {per_step:.2} per step"
    );
}
