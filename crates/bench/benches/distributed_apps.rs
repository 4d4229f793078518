//! E7–E8 — the distributed applications: database update propagation and
//! asynchronous Game of Life.
//!
//! Series reported:
//! * `db_update_verify` — E7: full sat-check over all schedules
//!   (3 clients, 2 replicas).
//! * `db_update_deadlock` — E7: deadlock sweep.
//! * `life_random_run` — E8: one random schedule of a 3×3 blinker for
//!   2 generations, end-to-end (execution + functional assertion).
//! * `life_block_verify` — E8: sampled sat-check of the 2×2 block.

use criterion::{criterion_group, criterion_main, Criterion};
use gem_lang::{find_deadlock, Explorer, System};
use gem_obs::NoopProbe;
use gem_problems::{db_update, life};
use gem_verify::{verify_system, VerifyOptions};
use rand::SeedableRng;

fn bench_distributed(c: &mut Criterion) {
    {
        let sys = db_update::db_update_program(3, 2);
        let problem = db_update::db_update_spec(2, 3);
        let corr = db_update::db_update_correspondence(&sys, &problem, 2);
        c.bench_function("distributed/db_update_verify", |b| {
            b.iter(|| {
                let outcome = verify_system(
                    &sys,
                    &problem,
                    &corr,
                    |s| sys.computation(s).expect("acyclic"),
                    &VerifyOptions::default(),
                )
                .expect("consistent");
                assert!(outcome.ok());
                outcome.runs
            });
        });
        c.bench_function("distributed/db_update_deadlock", |b| {
            b.iter(|| assert!(find_deadlock(&sys, &Explorer::default(), &NoopProbe).is_none()));
        });
    }
    {
        let grid = life::blinker();
        let gens = 2;
        let sys = life::life_program(&grid, gens);
        let reference = life::sync_life(&grid, gens);
        c.bench_function("distributed/life_random_run", |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let (state, _) = Explorer::default().random_run(&sys, &mut rng);
                assert!(sys.is_complete(&state));
                let pid = sys.program().process_index("cell_1_1").expect("cell");
                let alive = state.local(pid, "alive").unwrap().as_int().unwrap();
                assert_eq!(alive, i64::from(reference[gens - 1].get(1, 1)));
            });
        });
    }
    {
        let grid = life::block();
        let gens = 2;
        let sys = life::life_program(&grid, gens);
        let problem = life::life_spec(&grid, gens);
        let corr = life::life_correspondence(&sys, &problem, &grid);
        c.bench_function("distributed/life_block_verify", |b| {
            b.iter(|| {
                let outcome = verify_system(
                    &sys,
                    &problem,
                    &corr,
                    |s| sys.computation(s).expect("acyclic"),
                    &VerifyOptions {
                        explorer: Explorer::with_max_runs(20),
                        ..VerifyOptions::default()
                    },
                )
                .expect("consistent");
                assert!(outcome.ok());
                outcome.runs
            });
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_distributed
}
criterion_main!(benches);
