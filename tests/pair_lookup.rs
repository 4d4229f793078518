//! `Correspondence::first_match` looks an event's pair up by its program
//! (element, class). On every event of every computation a sweep seals,
//! it must name the same pair as the plain scan for the first matching
//! selector, on all three substrates. Every shipped pair names both an
//! element and a class, so each instance is also checked against a
//! widened correspondence with overlapping and wildcard selectors.

use std::ops::ControlFlow;

use gem::core::Computation;
use gem::lang::Explorer;
use gem::logic::EventSel;
use gem::verify::Correspondence;
use gem_cli::{instance, Instance, Params, Program};

/// Runs visited per instance: enough to reach every event class of the
/// instances below, few enough for a debug build.
const MAX_RUNS: usize = 2_000;

/// Builds `line` (`problem key=value…`) as the CLI does.
fn build(line: &str) -> Instance {
    let mut words = line.split_whitespace().map(str::to_owned);
    let problem = words.next().expect("problem name");
    let params = Params::parse(&words.collect::<Vec<_>>()).expect("key=value params");
    instance(&problem, &params).expect("instance")
}

/// Each shipped pair followed by copies without its element and without
/// its class, then a selector of every event: a later pair often matches
/// an event an earlier one already took.
fn widened(corr: &Correspondence) -> Correspondence {
    let mut out = Correspondence::new();
    for p in corr.pairs() {
        let any_element = EventSel {
            element: None,
            ..p.program.clone()
        };
        let any_class = EventSel {
            class: None,
            ..p.program.clone()
        };
        for sel in [p.program.clone(), any_element, any_class] {
            out = out.map_with_params(sel, p.problem_element, p.problem_class, &p.params);
        }
    }
    let last = &corr.pairs()[0];
    out.map(EventSel::any(), last.problem_element, last.problem_class)
}

/// Checks every event of `c` against each correspondence; returns, per
/// correspondence, the number of significant events.
fn check(corrs: &[Correspondence; 2], c: &Computation, line: &str) -> [usize; 2] {
    corrs.each_ref().map(|corr| {
        let mut significant = 0;
        for ev in c.events() {
            let want = corr.pairs().iter().position(|p| p.program.matches(ev));
            assert_eq!(
                corr.first_match(ev),
                want,
                "{line}: {}",
                c.event_label(ev.id())
            );
            significant += usize::from(want.is_some());
        }
        significant
    })
}

#[test]
fn indexed_lookup_agrees_with_the_scan_on_every_swept_event() {
    let explorer = Explorer {
        max_runs: MAX_RUNS,
        ..Explorer::default()
    };
    for line in [
        "rw readers=1 writers=1 variant=mutex data=true",
        "rw readers=1 writers=1 variant=progress",
        "rw readers=1 writers=1 variant=fcfs",
        "rw readers=1 writers=1 monitor=writers variant=writers",
        "rw readers=1 writers=1 variant=mutex semantics=mesa",
        "bounded items=2 cap=1",
        "bounded items=2 cap=1 substrate=ada",
        "bounded items=3 cap=2 substrate=csp",
        "philosophers n=3",
    ] {
        let Instance { program, corr, .. } = build(line);
        let corrs = [widened(&corr), corr];
        let (mut events, mut significant) = (0, 0);
        let mut visit = |c: Computation| {
            let [all, shipped] = check(&corrs, &c, line);
            assert_eq!(all, c.event_count(), "{line}: the catch-all matches");
            events += all;
            significant += shipped;
            ControlFlow::Continue(())
        };
        let stats = match &program {
            Program::Monitor(sys) => {
                explorer.for_each_run(sys, |st, _| visit(sys.computation(st).expect("acyclic")))
            }
            Program::Csp(sys) => {
                explorer.for_each_run(sys, |st, _| visit(sys.computation(st).expect("acyclic")))
            }
            Program::Ada(sys) => {
                explorer.for_each_run(sys, |st, _| visit(sys.computation(st).expect("acyclic")))
            }
        };
        assert!(stats.runs > 0, "{line}: no run");
        assert!(
            0 < significant && significant < events,
            "{line}: {significant} of {events} event(s) significant"
        );
    }
}
