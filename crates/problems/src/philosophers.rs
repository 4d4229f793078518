//! Dining philosophers — an *extension* beyond the paper's problem list,
//! demonstrating the toolkit on the canonical deadlock example.
//!
//! Forks are ADA tasks serving `PickUp`/`PutDown` by rendezvous;
//! philosophers are tasks that acquire both neighbouring forks, eat, and
//! release. Two acquisition disciplines:
//!
//! * [`ForkOrder::Naive`] — everyone picks the left fork first. The
//!   circular wait deadlocks on some schedules, and the explorer produces
//!   the witness.
//! * [`ForkOrder::Asymmetric`] — the last philosopher picks the right
//!   fork first (the classic repair): verified deadlock-free.
//!
//! The GEM specification has one element per philosopher with an
//! `Eat` event, restricted by neighbour exclusion — adjacent
//! philosophers' eats are never potentially concurrent (they share a
//! fork) — while non-adjacent philosophers *may* eat concurrently
//! (checked as a sanity property of the model, not a restriction).

use gem_logic::{EventSel, Formula};
use gem_spec::{ElementType, SpecBuilder, Specification};
use gem_verify::Correspondence;

use gem_lang::ada::{AdaProgram, AdaStmt, AdaSystem, AdaTask};
use gem_lang::Expr;

/// Fork-acquisition discipline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ForkOrder {
    /// All philosophers take the left fork first (deadlocks).
    Naive,
    /// The last philosopher takes the right fork first (deadlock-free).
    Asymmetric,
}

/// The problem specification for `n` philosophers at a round table:
/// `neighbour-exclusion` — adjacent philosophers never eat concurrently.
pub fn philosophers_spec(n: usize) -> Specification {
    assert!(n >= 2, "a table needs at least two philosophers");
    let phil_t = ElementType::new("Philosopher").event("Eat", &[]);
    let mut sb = SpecBuilder::new("DiningPhilosophers");
    let phils: Vec<_> = (0..n)
        .map(|i| {
            sb.instantiate_element(&phil_t, format!("phil{i}"))
                .expect("fresh philosopher")
        })
        .collect();
    let mut exclusion = Vec::new();
    for i in 0..n {
        let j = (i + 1) % n;
        if i == j {
            continue;
        }
        exclusion.push(Formula::forall(
            "a",
            phils[i].sel("Eat"),
            Formula::forall(
                "b",
                phils[j].sel("Eat"),
                Formula::concurrent("a", "b").not(),
            ),
        ));
    }
    sb.add_restriction("neighbour-exclusion", Formula::And(exclusion));
    sb.finish()
}

/// Builds the ADA implementation: `n` fork tasks and `n` philosopher
/// tasks, each eating `meals` times under the given discipline.
pub fn philosophers_program(n: usize, meals: usize, order: ForkOrder) -> AdaSystem {
    assert!(n >= 2);
    let mut prog = AdaProgram::new();
    for f in 0..n {
        // A fork alternates PickUp / PutDown, `meals * 2` times (each of
        // its two neighbours may use it up to `meals` times).
        let uses = meals * 2;
        let mut body = Vec::new();
        for _ in 0..uses {
            body.push(AdaStmt::accept("PickUp", vec![]));
            body.push(AdaStmt::accept("PutDown", vec![]));
        }
        prog = prog.task(
            AdaTask::new(format!("fork{f}"), body)
                .entry("PickUp")
                .entry("PutDown"),
        );
    }
    for p in 0..n {
        let left = p;
        let right = (p + 1) % n;
        let (first, second) = match order {
            ForkOrder::Naive => (left, right),
            ForkOrder::Asymmetric if p == n - 1 => (right, left),
            ForkOrder::Asymmetric => (left, right),
        };
        let mut body = Vec::new();
        for _ in 0..meals {
            body.push(AdaStmt::call(format!("fork{first}"), "PickUp", vec![]));
            body.push(AdaStmt::call(format!("fork{second}"), "PickUp", vec![]));
            body.push(AdaStmt::assign(
                "meals",
                Expr::var("meals").add(Expr::int(1)),
            ));
            body.push(AdaStmt::call(format!("fork{first}"), "PutDown", vec![]));
            body.push(AdaStmt::call(format!("fork{second}"), "PutDown", vec![]));
        }
        prog = prog.task(AdaTask::new(format!("phil{p}"), body).local("meals", 0i64));
    }
    AdaSystem::new(prog)
}

/// Significant objects: each philosopher's `meals` increment (made while
/// holding both forks) is its `Eat` event.
pub fn philosophers_correspondence(
    sys: &AdaSystem,
    problem: &Specification,
    n: usize,
) -> Correspondence {
    let ps = problem.structure();
    let eat = ps.class("Eat").expect("Eat class");
    let mut corr = Correspondence::new();
    for p in 0..n {
        let target = ps.element(&format!("phil{p}")).expect("phil element");
        let var_el = sys
            .structure()
            .element(&format!("phil{p}.var.meals"))
            .expect("meals var");
        corr = corr.map(
            EventSel::of_class(sys.class("Assign")).at(var_el),
            target,
            eat,
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

    const N: usize = 3;

    #[test]
    fn naive_order_deadlocks() {
        let sys = philosophers_program(N, 1, ForkOrder::Naive);
        let witness = find_deadlock(&sys, &Explorer::default(), &NoopProbe);
        assert!(witness.is_some(), "circular wait must be found");
    }

    #[test]
    fn asymmetric_order_deadlock_free() {
        let sys = philosophers_program(N, 1, ForkOrder::Asymmetric);
        assert!(find_deadlock(&sys, &Explorer::default(), &NoopProbe).is_none());
    }

    #[test]
    fn asymmetric_satisfies_neighbour_exclusion() {
        let sys = philosophers_program(N, 1, ForkOrder::Asymmetric);
        let problem = philosophers_spec(N);
        let corr = philosophers_correspondence(&sys, &problem, N);
        let outcome = verify_system(
            &sys,
            &problem,
            &corr,
            |s| sys.computation(s).expect("acyclic"),
            &VerifyOptions {
                explorer: Explorer::with_max_runs(300),
                ..VerifyOptions::default()
            },
        )
        .expect("correspondence consistent");
        assert!(outcome.ok(), "{outcome}");
    }

    #[test]
    fn non_adjacent_eats_can_be_concurrent() {
        // Sanity: with 4 philosophers, opposite pairs may genuinely eat
        // at the same time in some schedule. DFS-order schedules are
        // near-sequential, so sample random schedules instead.
        use rand::SeedableRng;
        let n = 4;
        let sys = philosophers_program(n, 1, ForkOrder::Asymmetric);
        let problem = philosophers_spec(n);
        let corr = philosophers_correspondence(&sys, &problem, n);
        let explorer = Explorer::default();
        let mut found = false;
        for seed in 0..64u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (state, _) = explorer.random_run(&sys, &mut rng);
            let c = sys.computation(&state).expect("acyclic");
            let p = gem_verify::project(&c, problem.structure_arc(), &corr).unwrap();
            let ps = problem.structure();
            let e0 = p.events_at(ps.element("phil0").unwrap()).first().copied();
            let e2 = p.events_at(ps.element("phil2").unwrap()).first().copied();
            if let (Some(a), Some(b)) = (e0, e2) {
                if p.concurrent(a, b) {
                    found = true;
                    break;
                }
            }
        }
        assert!(found, "opposite philosophers can eat concurrently");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_table_rejected() {
        let _ = philosophers_spec(1);
    }
}
