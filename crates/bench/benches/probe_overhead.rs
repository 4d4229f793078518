//! Probe hot-path overhead guard (ISSUE 4).
//!
//! The instrumentation layer promises that an uninstrumented run pays
//! only a disabled-probe check. This bench times that promise, so a
//! regression shows up in its printed medians:
//!
//! * `noop_add/1000` — 1000 counter increments through `&dyn Probe` on
//!   [`NoopProbe`]: should stay in the few-ns-per-call range.
//! * `noop_record/1000` / `stats_record/1000` — 1000 histogram samples
//!   through `Probe::record`, disabled and into a live [`StatsProbe`]:
//!   the log-bucket hot path must stay within noise of a counter add.
//! * `event_log_add/1000` — the same through a full event-log buffer
//!   (the flight-recorder steady state), the cost `--artifacts` opts
//!   into.
//! * `sweep_noop` / `sweep_event_log` — a small full exploration sweep
//!   under each probe; the delta is the real-world event-log overhead.
//! * `expr_eval/{interpreted,compiled}` — 1000 evaluations of a mixed
//!   arithmetic/boolean expression through `Expr::eval`, the reference
//!   evaluator, over a `VarStore` vs the postfix Code IR over slot
//!   vectors: the per-step win compiled step execution is built on,
//!   pinned at micro scale.

use std::ops::ControlFlow;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gem_core::Value;
use gem_lang::code::{ExprPool, SlotLayout};
use gem_lang::monitor::{readers_writers_monitor, SignalSemantics};
use gem_lang::{Explorer, Expr, VarStore};
use gem_obs::{EventLog, NoopProbe, Probe, StatsProbe, CRASH_TAIL};
use gem_problems::readers_writers::rw_program_with_semantics;

fn bench_probe_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_overhead");

    let noop: &dyn Probe = &NoopProbe;
    group.bench_with_input(BenchmarkId::new("noop_add", 1000), &1000u32, |b, &n| {
        b.iter(|| {
            for i in 0..n {
                if noop.enabled() {
                    noop.add("bench.counter", u64::from(i));
                }
            }
        });
    });

    group.bench_with_input(BenchmarkId::new("noop_record", 1000), &1000u32, |b, &n| {
        b.iter(|| {
            for i in 0..n {
                if noop.enabled() {
                    noop.record("bench.hist", u64::from(i));
                }
            }
        });
    });

    let stats = StatsProbe::new();
    let stats_dyn: &dyn Probe = &stats;
    group.bench_with_input(BenchmarkId::new("stats_record", 1000), &1000u32, |b, &n| {
        b.iter(|| {
            for i in 0..n {
                if stats_dyn.enabled() {
                    stats_dyn.record("bench.hist", u64::from(i));
                }
            }
        });
    });

    let log = EventLog::new(CRASH_TAIL);
    let rec: &dyn Probe = &log;
    group.bench_with_input(
        BenchmarkId::new("event_log_add", 1000),
        &1000u32,
        |b, &n| {
            b.iter(|| {
                for i in 0..n {
                    if rec.enabled() {
                        rec.add("bench.counter", u64::from(i));
                    }
                }
            });
        },
    );

    let sys = rw_program_with_semantics(
        readers_writers_monitor(),
        1,
        1,
        false,
        SignalSemantics::Hoare,
    );
    group.bench_function("sweep_noop", |b| {
        b.iter(|| {
            Explorer::default()
                .for_each_run_probed(&sys, &NoopProbe, |_, _| ControlFlow::Continue(()))
        });
    });
    let sweep_log = EventLog::new(CRASH_TAIL);
    group.bench_function("sweep_event_log", |b| {
        b.iter(|| {
            Explorer::default()
                .for_each_run_probed(&sys, &sweep_log, |_, _| ControlFlow::Continue(()))
        });
    });

    // The guard/assignment shape the simulators evaluate per step:
    // `(rd = 0 && wr = 0) || (n + 1) * 2 > cap`.
    let expr = Expr::var("rd")
        .eq(Expr::int(0))
        .and(Expr::var("wr").eq(Expr::int(0)))
        .or(Expr::var("n")
            .add(Expr::int(1))
            .mul(Expr::int(2))
            .gt(Expr::var("cap")));
    let mut store = VarStore::new();
    for (name, v) in [("rd", 1), ("wr", 0), ("n", 3), ("cap", 8)] {
        store.set(name, Value::Int(v));
    }
    group.bench_with_input(
        BenchmarkId::new("expr_eval/interpreted", 1000),
        &1000u32,
        |b, &n| {
            b.iter(|| {
                for _ in 0..n {
                    expr.eval(&store).expect("well-typed");
                }
            });
        },
    );
    let mut locals = SlotLayout::new();
    for name in ["rd", "wr", "n", "cap"] {
        locals.intern(name);
    }
    let mut pool = ExprPool::new();
    let id = pool.compile(&expr, &locals, &SlotLayout::new());
    let lslots: Vec<Option<Value>> = [1, 0, 3, 8].map(|v| Some(Value::Int(v))).to_vec();
    group.bench_with_input(
        BenchmarkId::new("expr_eval/compiled", 1000),
        &1000u32,
        |b, &n| {
            b.iter(|| {
                for _ in 0..n {
                    pool.eval(id, &[], &lslots).expect("well-typed");
                }
            });
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(1)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_probe_overhead
}
criterion_main!(benches);
