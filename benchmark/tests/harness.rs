//! Checks that the benchmark measures the program it claims to measure.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::time::Duration;

use gem_benchmark::report::{self, END_TO_END, PER_LAYER};
use gem_benchmark::timed::TimedSystem;
use gem_benchmark::traced::{traced_sweep, Tracer};
use gem_benchmark::workloads::{self, Instance, Rng, Workload};
use gem_benchmark::{run, with_system, Config};
use gem_lang::{Explorer, System};
use gem_obs::json::{self, JsonValue};

fn config(workload: Workload, seed: u64, trace: bool, quick: bool) -> Config {
    Config {
        workload,
        seed,
        seconds: Duration::ZERO,
        trace,
        quick,
    }
}

fn quick(workload: Workload) -> Vec<Instance> {
    workloads::build(workload, true, &mut Rng::new(7))
}

/// The wrapped system must enumerate exactly what the bare one does.
fn assert_transparent<S: System>(sys: &S, explorer: Explorer, label: &str) {
    let mut bare = Vec::new();
    let bare_stats = explorer.for_each_run(sys, |_, path| {
        bare.push(format!("{path:?}"));
        ControlFlow::Continue(())
    });
    let timed = TimedSystem::new(sys);
    let mut wrapped = Vec::new();
    let wrapped_stats = explorer.for_each_run(&timed, |_, path| {
        wrapped.push(format!("{path:?}"));
        ControlFlow::Continue(())
    });
    assert_eq!(bare_stats, wrapped_stats, "{label}");
    assert_eq!(bare, wrapped, "{label}");
    let tallies = timed.tallies();
    assert_eq!(tallies.apply.calls, bare_stats.steps as u64, "{label}");
    assert_eq!(tallies.checkpoint.calls, tallies.undo.calls, "{label}");
    if explorer.reduce {
        assert!(tallies.independent.calls > 0, "{label}");
    } else {
        assert_eq!(tallies.independent.calls, 0, "{label}");
    }
}

#[test]
fn timed_system_is_transparent_on_every_substrate() {
    let instances = quick(Workload::ExploreBound);
    let mut substrates = BTreeMap::new();
    for inst in &instances {
        let substrate = match inst.program {
            workloads::Program::Monitor(_) => "monitor",
            workloads::Program::Csp(_) => "csp",
            workloads::Program::Ada(_) => "ada",
        };
        substrates.entry(substrate).or_insert(inst);
    }
    assert_eq!(substrates.len(), 3);
    for inst in substrates.values() {
        for reduce in [false, true] {
            let explorer = Explorer {
                reduce,
                ..inst.options.explorer
            };
            with_system!(&inst.program, sys => assert_transparent(sys, explorer, inst.label));
        }
    }
}

#[test]
fn traced_mirror_matches_verify_system() {
    let mut failing = 0;
    for w in Workload::ALL {
        for inst in quick(w) {
            let mut tr = Tracer::default();
            let traced = with_system!(&inst.program, sys => traced_sweep(sys, &inst, &mut tr))
                .expect("the correspondence fits the program");
            let real = inst.verify();
            assert_eq!(traced, real, "{}", inst.label);
            assert!(workloads::matches(inst.answer, &real), "{}", inst.label);
            failing += usize::from(!real.failures.is_empty());
        }
    }
    assert!(
        failing > 0,
        "the quick lists must include a failing instance"
    );
}

#[test]
fn traced_pass_loads_each_workloads_layer() {
    let layers = |w| {
        let r = run(&config(w, 1, true, true));
        assert_eq!(r.failed, 0, "{:?}", r.problems);
        r.traced.expect("traced").0
    };
    let explore = layers(Workload::ExploreBound);
    assert_eq!(explore["core.seal.calls"], 0.0);
    assert_eq!(explore["spec.check.calls"], 0.0);
    assert_eq!(explore["lang.sim.independent.calls"], 0.0);
    assert_eq!(explore["verify.incr.clean_ratio"], 1.0);
    let batch = layers(Workload::BatchCheck);
    assert_eq!(batch["verify.incr.sync.calls"], 0.0);
    assert_eq!(batch["spec.check.calls"], batch["lang.explore.runs"]);
    let por = layers(Workload::PorReduced);
    assert!(por["lang.sim.independent.calls"] > 0.0);
    assert!(por["lang.explore.sleep_skipped"] > 0.0);
    let cex = layers(Workload::Counterexample);
    assert!(cex["spec.check.calls"] > 0.0);
    assert!(cex["verify.incr.sync.calls"] > cex["spec.check.calls"]);
}

#[test]
fn seeds_change_neither_verdicts_nor_run_counts() {
    for w in Workload::ALL {
        let outcomes: Vec<_> = [1, 2, 3]
            .into_iter()
            .map(|seed| {
                let r = run(&config(w, seed, false, false));
                assert_eq!(r.failed, 0, "{:?}", r.problems);
                r.outcomes
                    .into_iter()
                    .map(|(label, o)| {
                        let violated: Vec<_> = o.failures.into_iter().map(|f| f.violated).collect();
                        (label, o.runs, o.deadlocks, violated, o.truncation)
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(outcomes[0], outcomes[1], "{}", w.name());
        assert_eq!(outcomes[0], outcomes[2], "{}", w.name());
    }
}

fn registered(section: &JsonValue) -> Vec<(String, String)> {
    section
        .as_arr()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_what_the_harness_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let names = |list: &[report::Metric]| {
        list.iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        registered(spec.get("end_to_end").unwrap()),
        names(&END_TO_END)
    );
    assert_eq!(
        registered(spec.get("per_layer").unwrap()),
        names(&PER_LAYER)
    );
    let workloads: Vec<_> = spec
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_owned()
        })
        .collect();
    let ours: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);

    let emitted = |m: &report::Metrics| {
        let mut v: Vec<_> = m
            .keys()
            .map(|k| (k.to_string(), report::unit(k).unwrap().to_owned()))
            .collect();
        v.sort();
        v
    };
    let sorted = |mut v: Vec<(String, String)>| {
        v.sort();
        v
    };
    for w in Workload::ALL {
        let r = run(&config(w, 1, true, true));
        assert_eq!(
            emitted(&r.end_to_end),
            sorted(names(&END_TO_END)),
            "{}",
            w.name()
        );
        let (layers, _) = r.traced.as_ref().expect("traced");
        assert_eq!(emitted(layers), sorted(names(&PER_LAYER)), "{}", w.name());
        let line = report::json_line(
            r.attempted,
            r.failed,
            &layers.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        );
        let parsed = json::parse(&line).expect("the result line is JSON");
        assert_eq!(
            parsed.get("correct").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(JsonValue::as_obj)
                .map(<[_]>::len),
            Some(PER_LAYER.len())
        );
    }
}
