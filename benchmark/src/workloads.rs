//! The four workloads, their instances, and the hand-written answer table.
//!
//! Every instance is built from the public `gem_problems` constructors with
//! the bounds the `gem` CLI uses (`max_runs` 1 000 000, 20 000 for the
//! philosophers). The seed only permutes instance order and redraws the
//! buffer item values, so it never changes a verdict or a run count.

use gem_core::Computation;
use gem_lang::ada::AdaSystem;
use gem_lang::csp::CspSystem;
use gem_lang::monitor::{readers_writers_monitor, MonitorSystem, SignalSemantics};
use gem_lang::{Explorer, System};
use gem_problems::bounded;
use gem_problems::philosophers::{self, ForkOrder};
use gem_problems::readers_writers::{
    rw_correspondence, rw_program_with_semantics, rw_spec, writers_priority_monitor, RwVariant,
};
use gem_spec::Specification;
use gem_verify::{verify_system, Correspondence, VerifyOptions, VerifyOutcome};

/// A set of instances chosen to load one layer of the verifier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Full sweeps the incremental checker proves clean leaf by leaf:
    /// simulator stepping and the DFS dominate.
    ExploreBound,
    /// A liveness spec outside the incremental fragment: every leaf goes
    /// seal → legality → project → batch check.
    BatchCheck,
    /// Sleep-set reduced sweeps: the independence oracle is on the hot path.
    PorReduced,
    /// Failing instances stopped at the third witness: time to a
    /// counterexample.
    Counterexample,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ExploreBound,
        Workload::BatchCheck,
        Workload::PorReduced,
        Workload::Counterexample,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreBound => "explore_bound",
            Workload::BatchCheck => "batch_check",
            Workload::PorReduced => "por_reduced",
            Workload::Counterexample => "counterexample",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The verdict an instance must reach.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Answer {
    /// Every run completes and satisfies the specification.
    Holds,
    /// Some run fails, and every reported failure names this restriction.
    Fails(&'static str),
}

/// The answer table, written from the paper's claims as EXPERIMENTS.md
/// records them. Every sweep is also expected to be exhaustive (no bound
/// truncates it) and free of deadlocks. Run counts are reported, never
/// checked: a reduction that explores fewer runs is not a wrong answer.
const ANSWERS: &[(&str, Answer)] = &[
    // E5: the bounded buffer is solved in Monitor, CSP and ADA.
    ("bounded items=4 cap=2", Answer::Holds),
    ("bounded items=4 cap=2 substrate=ada", Answer::Holds),
    ("bounded items=5 cap=3 substrate=csp", Answer::Holds),
    ("bounded items=10 cap=2 substrate=ada --por", Answer::Holds),
    ("bounded items=2 cap=1", Answer::Holds),
    ("bounded items=2 cap=1 substrate=ada", Answer::Holds),
    ("bounded items=3 cap=2 substrate=csp", Answer::Holds),
    ("bounded items=4 cap=2 substrate=ada --por", Answer::Holds),
    // E6: each monitor satisfies its own priority spec, and mutex plus
    // progress hold for both.
    (
        "rw readers=2 writers=1 monitor=writers variant=writers",
        Answer::Holds,
    ),
    (
        "rw readers=1 writers=1 monitor=writers variant=writers",
        Answer::Holds,
    ),
    ("rw readers=1 writers=2 variant=progress", Answer::Holds),
    ("rw readers=1 writers=1 variant=progress", Answer::Holds),
    // E2: writers exclude others on the §9 monitor with shared data.
    (
        "rw readers=1 writers=2 variant=mutex data=true --por",
        Answer::Holds,
    ),
    (
        "rw readers=1 writers=1 variant=mutex data=true --por",
        Answer::Holds,
    ),
    // Extension: the asymmetric fork order never lets neighbours eat at once.
    ("philosophers n=4 --por", Answer::Holds),
    ("philosophers n=3 --por", Answer::Holds),
    // E3⁻: the §9 readers-priority monitor refutes writers priority.
    (
        "rw readers=1 writers=2 variant=writers",
        Answer::Fails("writers-priority"),
    ),
    // E6: FCFS fails for both priority schedulers, and the writers-priority
    // monitor refutes readers priority.
    (
        "rw readers=1 writers=2 variant=fcfs",
        Answer::Fails("fcfs-write-before-read"),
    ),
    (
        "rw readers=1 writers=2 monitor=writers variant=readers",
        Answer::Fails("readers-priority"),
    ),
    // E11: the IF-based §9 monitor loses mutual exclusion under Mesa
    // signalling.
    (
        "rw readers=1 writers=2 variant=mutex semantics=mesa",
        Answer::Fails("writers-exclude-writers"),
    ),
];

/// Looks `label` up in the answer table.
///
/// # Panics
///
/// Panics if the table has no entry: every instance needs a written answer.
fn answer(label: &str) -> Answer {
    ANSWERS
        .iter()
        .find(|(l, _)| *l == label)
        .map(|&(_, a)| a)
        .unwrap_or_else(|| panic!("no answer written for {label:?}"))
}

/// True if `outcome` is the answer the table gives: exhaustive, no
/// deadlock, and the right verdict.
pub fn matches(answer: Answer, outcome: &VerifyOutcome) -> bool {
    if !outcome.exhaustive() || outcome.deadlocks != 0 {
        return false;
    }
    match answer {
        Answer::Holds => outcome.failures.is_empty(),
        Answer::Fails(name) => {
            !outcome.failures.is_empty()
                && outcome
                    .failures
                    .iter()
                    .all(|f| f.violated.iter().any(|v| v == name))
        }
    }
}

/// A substrate simulator the benchmark can drive: a [`System`] whose
/// terminal states seal into a GEM computation.
pub trait Substrate: System<State: Send, Action: Send> + Sync {
    /// Seals the computation accumulated in `state`.
    fn seal(&self, state: &Self::State) -> Computation;
}

macro_rules! substrate {
    ($($t:ty),*) => {$(
        impl Substrate for $t {
            fn seal(&self, state: &Self::State) -> Computation {
                self.computation(state)
                    .expect("simulator traces are acyclic")
            }
        }
    )*};
}
substrate!(MonitorSystem, CspSystem, AdaSystem);

/// The program of an instance, on one of the three substrates.
#[allow(clippy::large_enum_variant)] // a handful of instances per run
pub enum Program {
    /// A monitor program (§9).
    Monitor(MonitorSystem),
    /// A CSP program.
    Csp(CspSystem),
    /// An ADA tasking program.
    Ada(AdaSystem),
}

/// Evaluates `$body` with `$sys` bound to the instance's concrete system.
#[macro_export]
macro_rules! with_system {
    ($program:expr, $sys:ident => $body:expr) => {
        match $program {
            $crate::workloads::Program::Monitor($sys) => $body,
            $crate::workloads::Program::Csp($sys) => $body,
            $crate::workloads::Program::Ada($sys) => $body,
        }
    };
}

/// One verification problem: a program, the problem specification, the
/// significant-object correspondence, and the sweep options.
pub struct Instance {
    /// The instance in `gem verify` syntax.
    pub label: &'static str,
    /// The program under verification.
    pub program: Program,
    /// The problem specification.
    pub spec: Specification,
    /// Program events ↦ problem events.
    pub corr: Correspondence,
    /// Sweep options: one job, no probe, dedup off, the CLI's bounds.
    pub options: VerifyOptions,
    /// The verdict the sweep must reach.
    pub answer: Answer,
}

impl Instance {
    /// Runs the real `gem_verify::verify_system` sweep.
    pub fn verify(&self) -> VerifyOutcome {
        with_system!(&self.program, sys => verify_system(
            sys,
            &self.spec,
            &self.corr,
            |s| sys.seal(s),
            &self.options,
        ))
        .expect("the correspondence fits the program")
    }
}

/// The SplitMix64 generator behind every seeded choice of the benchmark.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle of `items`.
    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` distinct positive buffer item values.
    fn items(&mut self, n: usize) -> Vec<i64> {
        let mut items = Vec::with_capacity(n);
        while items.len() < n {
            let v = 1 + (self.next_u64() % 1_000_000) as i64;
            if !items.contains(&v) {
                items.push(v);
            }
        }
        items
    }
}

/// An instance swept with the CLI's options: one job, dedup off, `max_runs`,
/// and POR when the label asks for it.
fn instance(
    label: &'static str,
    program: Program,
    spec: Specification,
    corr: Correspondence,
    max_runs: usize,
) -> Instance {
    let options = VerifyOptions {
        explorer: Explorer {
            jobs: 1,
            reduce: label.ends_with(" --por"),
            dedup_computations: false,
            ..Explorer::with_max_runs(max_runs)
        },
        ..VerifyOptions::default()
    };
    Instance {
        label,
        program,
        spec,
        corr,
        options,
        answer: answer(label),
    }
}

#[derive(Clone, Copy)]
enum Sub {
    Monitor,
    Csp,
    Ada,
}

fn bounded(label: &'static str, sub: Sub, n: usize, cap: usize, rng: &mut Rng) -> Instance {
    let items = rng.items(n);
    let spec = bounded::bounded_spec(n, cap);
    let (program, corr) = match sub {
        Sub::Monitor => {
            let sys = bounded::monitor_solution(&items, cap);
            let corr = bounded::monitor_correspondence(&sys, &spec, cap);
            (Program::Monitor(sys), corr)
        }
        Sub::Csp => {
            let sys = bounded::csp_solution(&items, cap);
            let corr = bounded::csp_correspondence(&sys, &spec, cap);
            (Program::Csp(sys), corr)
        }
        Sub::Ada => {
            let sys = bounded::ada_solution(&items, cap);
            let corr = bounded::ada_correspondence(&sys, &spec, cap);
            (Program::Ada(sys), corr)
        }
    };
    instance(label, program, spec, corr, 1_000_000)
}

/// A readers/writers instance; `writers_monitor` picks the writers-priority
/// monitor over the §9 readers-priority one.
struct Rw {
    readers: usize,
    writers: usize,
    writers_monitor: bool,
    variant: RwVariant,
    data: bool,
    mesa: bool,
}

fn rw(label: &'static str, rw: Rw) -> Instance {
    let monitor = if rw.writers_monitor {
        writers_priority_monitor()
    } else {
        readers_writers_monitor()
    };
    let semantics = if rw.mesa {
        SignalSemantics::Mesa
    } else {
        SignalSemantics::Hoare
    };
    let sys = rw_program_with_semantics(monitor, rw.readers, rw.writers, rw.data, semantics);
    let spec = rw_spec(rw.readers + rw.writers, rw.data, rw.variant);
    let corr = rw_correspondence(&sys, &spec, rw.data);
    instance(label, Program::Monitor(sys), spec, corr, 1_000_000)
}

fn philosophers(label: &'static str, n: usize) -> Instance {
    let sys = philosophers::philosophers_program(n, 1, ForkOrder::Asymmetric);
    let spec = philosophers::philosophers_spec(n);
    let corr = philosophers::philosophers_correspondence(&sys, &spec, n);
    instance(label, Program::Ada(sys), spec, corr, 20_000)
}

const fn rw_1r2w(variant: RwVariant) -> Rw {
    Rw {
        readers: 1,
        writers: 2,
        writers_monitor: false,
        variant,
        data: false,
        mesa: false,
    }
}

/// Builds every instance of `workload`, in the order its table lists them.
/// `quick` swaps in a reduced list of small instances (for tests and smoke
/// runs); `rng` redraws the buffer item values.
pub fn build(workload: Workload, quick: bool, rng: &mut Rng) -> Vec<Instance> {
    use RwVariant::*;
    match (workload, quick) {
        (Workload::ExploreBound, false) => vec![
            bounded("bounded items=4 cap=2", Sub::Monitor, 4, 2, rng),
            bounded("bounded items=4 cap=2 substrate=ada", Sub::Ada, 4, 2, rng),
            bounded("bounded items=5 cap=3 substrate=csp", Sub::Csp, 5, 3, rng),
            rw(
                "rw readers=2 writers=1 monitor=writers variant=writers",
                Rw {
                    readers: 2,
                    writers: 1,
                    writers_monitor: true,
                    ..rw_1r2w(WritersPriority)
                },
            ),
        ],
        (Workload::ExploreBound, true) => vec![
            bounded("bounded items=2 cap=1", Sub::Monitor, 2, 1, rng),
            bounded("bounded items=2 cap=1 substrate=ada", Sub::Ada, 2, 1, rng),
            bounded("bounded items=3 cap=2 substrate=csp", Sub::Csp, 3, 2, rng),
            rw(
                "rw readers=1 writers=1 monitor=writers variant=writers",
                Rw {
                    writers: 1,
                    writers_monitor: true,
                    ..rw_1r2w(WritersPriority)
                },
            ),
        ],
        (Workload::BatchCheck, false) => vec![rw(
            "rw readers=1 writers=2 variant=progress",
            rw_1r2w(Progress),
        )],
        (Workload::BatchCheck, true) => vec![rw(
            "rw readers=1 writers=1 variant=progress",
            Rw {
                writers: 1,
                ..rw_1r2w(Progress)
            },
        )],
        (Workload::PorReduced, false) => vec![
            rw(
                "rw readers=1 writers=2 variant=mutex data=true --por",
                Rw {
                    data: true,
                    ..rw_1r2w(MutexOnly)
                },
            ),
            bounded(
                "bounded items=10 cap=2 substrate=ada --por",
                Sub::Ada,
                10,
                2,
                rng,
            ),
            philosophers("philosophers n=4 --por", 4),
        ],
        (Workload::PorReduced, true) => vec![
            rw(
                "rw readers=1 writers=1 variant=mutex data=true --por",
                Rw {
                    writers: 1,
                    data: true,
                    ..rw_1r2w(MutexOnly)
                },
            ),
            bounded(
                "bounded items=4 cap=2 substrate=ada --por",
                Sub::Ada,
                4,
                2,
                rng,
            ),
            philosophers("philosophers n=3 --por", 3),
        ],
        (Workload::Counterexample, quick) => {
            let mut list = vec![
                rw(
                    "rw readers=1 writers=2 variant=writers",
                    rw_1r2w(WritersPriority),
                ),
                rw(
                    "rw readers=1 writers=2 variant=mutex semantics=mesa",
                    Rw {
                        mesa: true,
                        ..rw_1r2w(MutexOnly)
                    },
                ),
            ];
            if !quick {
                list.push(rw("rw readers=1 writers=2 variant=fcfs", rw_1r2w(Fcfs)));
                list.push(rw(
                    "rw readers=1 writers=2 monitor=writers variant=readers",
                    Rw {
                        writers_monitor: true,
                        ..rw_1r2w(ReadersPriority)
                    },
                ));
            }
            list
        }
    }
}
