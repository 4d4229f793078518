//! The repository benchmark: GEM verification sweeps timed end to end, plus
//! one traced pass per workload that splits the sweep into its layers.
//!
//! One process, one thread, one closed-loop client: each sweep starts only
//! after the previous one returned. See README.md for the metrics, the
//! workloads and the comparison protocol.

pub mod report;
pub mod timed;
pub mod traced;
pub mod workloads;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use gem_verify::VerifyOutcome;

use crate::report::Metrics;
use crate::timed::ns;
use crate::traced::{traced_sweep, Tracer};
use crate::workloads::{Instance, Rng, Workload};

/// Untimed passes before the timed ones, so caches and lazy set-up settle.
const WARMUP_PASSES: usize = 3;
/// Set-up builds timed together before each timed pass; one `setup_s`
/// sample is their mean.
const SETUP_BATCH: usize = 4;
/// The median time of one `reference_work` call on the host the baseline
/// was measured on (see README.md). `pass_s.p50` and `setup_s` are scaled
/// by this over the run's own median, so they read in seconds at that
/// host's speed however busy the machine is.
pub const REFERENCE_NS: f64 = 2_550_000.0;

/// Fixed work that does not depend on the program under test: 8 192 random
/// inserts into a map of small vectors and a walk over it, then five sorts
/// of 16 000 random words. Like a verification sweep it allocates small
/// objects and chases pointers, so load from other tenants of the host
/// slows both by about the same factor. The two halves take about the same
/// time; each alone tracked the sweeps less closely on some workloads.
fn reference_work() -> u64 {
    let mut rng = Rng::new(0x5eed);
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for _ in 0..8192 {
        let key = rng.next_u64() % 32_768;
        map.entry(key).or_default().push(rng.next_u64());
    }
    let mut acc = map
        .values()
        .map(|v| v.iter().fold(0, |acc, &x| acc ^ x))
        .fold(0, u64::wrapping_add);
    let mut words = Vec::with_capacity(16_000);
    for _ in 0..5 {
        words.clear();
        words.extend((0..16_000).map(|_| rng.next_u64()));
        words.sort_unstable();
        acc = acc.wrapping_add(words[8_000]);
    }
    acc
}

/// What one run measures.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seeds the instance order and the buffer item values.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: Duration,
    /// Also make the traced pass and derive the per-layer metrics.
    pub trace: bool,
    /// Use the reduced instance list.
    pub quick: bool,
}

/// Everything one run measured.
pub struct WorkloadResult {
    /// Timed passes run.
    pub passes: usize,
    /// The run's median `reference_work` time, in nanoseconds.
    pub reference_ns: f64,
    /// Sweeps whose outcome was checked.
    pub attempted: u64,
    /// Sweeps with a wrong verdict, a changed outcome, or a traced outcome
    /// that differs from `verify_system`'s.
    pub failed: u64,
    /// One line per failed sweep.
    pub problems: Vec<String>,
    /// Each instance's `verify_system` outcome, in table order.
    pub outcomes: Vec<(&'static str, VerifyOutcome)>,
    /// `pass_s.p50`, `setup_s` and `peak_rss_mb`.
    pub end_to_end: Metrics,
    /// The per-layer metrics and the trace, when traced.
    pub traced: Option<(Metrics, Tracer)>,
}

/// Checks every sweep against the answer table and against the first
/// outcome seen for its instance.
struct Judge {
    first: Vec<Option<VerifyOutcome>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Judge {
    fn check(&mut self, i: usize, inst: &Instance, outcome: VerifyOutcome, traced: bool) {
        self.attempted += 1;
        let problem = if !workloads::matches(inst.answer, &outcome) {
            Some(format!("wrong verdict, expected {:?}", inst.answer))
        } else {
            match &self.first[i] {
                Some(first) if *first != outcome && traced => {
                    Some("traced mirror differs from verify_system".to_owned())
                }
                Some(first) if *first != outcome => {
                    Some("outcome changed between sweeps".to_owned())
                }
                _ => None,
            }
        };
        if let Some(p) = problem {
            self.failed += 1;
            self.problems
                .push(format!("{}: {p}; got {outcome}", inst.label));
        }
        if self.first[i].is_none() && !traced {
            self.first[i] = Some(outcome);
        }
    }
}

/// Linear-interpolated quantile `q` of `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Verifies every instance once in `order`, returning the summed sweep
/// time in nanoseconds.
fn pass(instances: &[Instance], order: &[usize], judge: &mut Judge) -> u64 {
    let mut total = 0;
    for &i in order {
        let t0 = Instant::now();
        let outcome = instances[i].verify();
        total += ns(t0.elapsed());
        judge.check(i, &instances[i], outcome, false);
    }
    total
}

/// Runs one workload: set-up, warm-up, timed passes for `cfg.seconds`, and
/// the traced pass when asked.
pub fn run(cfg: &Config) -> WorkloadResult {
    // Every set-up build draws the same items from the seed; the first one
    // is kept for the passes.
    let seeded = Rng::new(cfg.seed);
    let mut rng = seeded.clone();
    let instances = workloads::build(cfg.workload, cfg.quick, &mut rng);

    let mut judge = Judge {
        first: vec![None; instances.len()],
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let mut order: Vec<usize> = (0..instances.len()).collect();
    for _ in 0..WARMUP_PASSES {
        rng.shuffle(&mut order);
        pass(&instances, &order, &mut judge);
    }
    let mut samples = Vec::new();
    let mut builds = Vec::new();
    let mut references = Vec::new();
    let started = Instant::now();
    while samples.is_empty() || started.elapsed() < cfg.seconds {
        // Set-up and reference samples are taken between passes, so they
        // span the run as the pass samples do and no burst of load on the
        // host covers them all. A batch keeps each set-up sample clear of
        // the cache misses the previous pass leaves behind.
        let t0 = Instant::now();
        let batch: Vec<_> = (0..SETUP_BATCH)
            .map(|_| workloads::build(cfg.workload, cfg.quick, &mut seeded.clone()))
            .collect();
        builds.push(ns(t0.elapsed()) as f64 / SETUP_BATCH as f64);
        drop(batch);
        let t0 = Instant::now();
        black_box(reference_work());
        references.push(ns(t0.elapsed()) as f64);
        rng.shuffle(&mut order);
        samples.push(pass(&instances, &order, &mut judge) as f64 / 1e9);
    }
    let pass_p50 = quantile(&samples, 0.5);
    let build_ns = quantile(&builds, 0.5);
    let reference_ns = quantile(&references, 0.5);
    let scale = REFERENCE_NS / reference_ns;
    let end_to_end = Metrics::from([
        ("pass_s.p50", pass_p50 * scale),
        ("setup_s", build_ns * scale / 1e9),
        ("peak_rss_mb", peak_rss_mb()),
    ]);

    let traced = cfg.trace.then(|| {
        rng.shuffle(&mut order);
        let mut tr = Tracer::default();
        for &i in &order {
            let inst = &instances[i];
            let outcome = with_system!(&inst.program, sys => traced_sweep(sys, inst, &mut tr))
                .expect("the correspondence fits the program");
            judge.check(i, inst, outcome, true);
        }
        (report::per_layer(&tr, pass_p50 * 1e9, build_ns), tr)
    });

    let outcomes = instances
        .iter()
        .zip(judge.first)
        .filter_map(|(inst, o)| Some((inst.label, o?)))
        .collect();
    WorkloadResult {
        passes: samples.len(),
        reference_ns,
        attempted: judge.attempted,
        failed: judge.failed,
        problems: judge.problems,
        outcomes,
        end_to_end,
        traced,
    }
}
