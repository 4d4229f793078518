//! The `System::checkpoint` contract on every substrate: at every node of
//! a full sweep, checkpoint → apply → (the child's whole subtree) → undo
//! leaves the state observably equal to a clone taken before the edge —
//! the same control key, enabled actions and completion, the same
//! fingerprint of the sealed builder and the same sealed computation. A clone taken mid-path
//! starts with no saved steps of its own and must honour the contract on
//! its subtree without disturbing the state it was cloned from.

use gem::core::Computation;
use gem::lang::System;
use gem::verify::canonical_key;
use gem_cli::{instance, Instance, Params, Program};

/// Depth at which the walk continues on a clone instead of in place.
const CLONE_DEPTH: usize = 2;

/// Builds `line` (`problem key=value…`) as the CLI does.
fn build(line: &str) -> Instance {
    let mut words = line.split_whitespace().map(str::to_owned);
    let problem = words.next().expect("problem name");
    let params = Params::parse(&words.collect::<Vec<_>>()).expect("key=value params");
    instance(&problem, &params).expect("instance")
}

/// Everything the contract promises an undo restores, in a comparable form.
fn observe<S: System>(
    sys: &S,
    seal: &impl Fn(&S::State) -> Computation,
    state: &S::State,
) -> (Option<u64>, Vec<S::Action>, bool, u64, String) {
    let c = seal(state);
    let sealed = format!(
        "{:?} {:?} {:?} {}",
        c.events(),
        c.enable_edges().collect::<Vec<_>>(),
        canonical_key(&c),
        c.fingerprint()
    );
    (
        sys.control_key(state),
        sys.enabled(state),
        sys.is_complete(state),
        sys.trace_builder(state)
            .expect("grows a builder")
            .seal_ref()
            .expect("acyclic")
            .fingerprint(),
        sealed,
    )
}

/// Walks every edge below `state` (at `depth`) on the checkpoint fast path
/// and checks each rollback against a pre-edge clone. Returns the number
/// of edges checked.
fn walk<S: System>(
    sys: &S,
    seal: &impl Fn(&S::State) -> Computation,
    state: &mut S::State,
    depth: usize,
) -> usize {
    let mut edges = 0;
    for action in sys.enabled(state) {
        let before = observe(sys, seal, state);
        let cp = sys.checkpoint(state).expect("checkpoint fast path");
        sys.apply(state, &action);
        edges += 1 + if depth + 1 == CLONE_DEPTH {
            let mut copy = state.clone();
            let below = walk(sys, seal, &mut copy, depth + 1);
            assert!(
                observe(sys, seal, &copy) == observe(sys, seal, state),
                "a clone's own sweep did not come back to where it was taken"
            );
            below
        } else {
            walk(sys, seal, state, depth + 1)
        };
        sys.undo(state, cp);
        assert!(
            observe(sys, seal, state) == before,
            "undo of {action:?} at depth {depth} left the state changed"
        );
    }
    edges
}

#[test]
fn undo_restores_the_pre_edge_state_at_every_node() {
    for line in [
        // Monitor, Hoare signalling.
        "bounded items=2 cap=1",
        "rw readers=1 writers=1",
        // Monitor, Mesa signalling (resume actions).
        "rw readers=1 writers=1 semantics=mesa",
        // ADA.
        "bounded items=2 cap=1 substrate=ada",
        // CSP: alternatives with several offers, and deadlocked leaves.
        "bounded items=4 cap=2 substrate=csp",
        "philosophers n=2 order=naive",
    ] {
        let Instance { program, .. } = build(line);
        let edges = match &program {
            Program::Monitor(sys) => {
                let seal = |st: &_| sys.computation(st).expect("acyclic");
                walk(sys, &seal, &mut sys.initial(), 0)
            }
            Program::Csp(sys) => {
                let seal = |st: &_| sys.computation(st).expect("acyclic");
                walk(sys, &seal, &mut sys.initial(), 0)
            }
            Program::Ada(sys) => {
                let seal = |st: &_| sys.computation(st).expect("acyclic");
                walk(sys, &seal, &mut sys.initial(), 0)
            }
        };
        assert!(edges > 20, "{line}: only {edges} edge(s) walked");
    }
}
