//! `benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--quick]`
//!
//! Prints every metric by name with its unit, then one JSON result line;
//! writes `target/benchmark/result.json` and, when traced,
//! `target/benchmark/trace-<workload>.json`. Exits 1 on a wrong verdict or
//! a traced outcome that differs from `verify_system`'s, 2 on bad usage.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use gem_benchmark::report::{self, Metrics};
use gem_benchmark::workloads::Workload;
use gem_benchmark::{run, Config, WorkloadResult, REFERENCE_NS};

const USAGE: &str =
    "usage: benchmark [--workload <explore_bound|batch_check|por_reduced|counterexample|all>] \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--quick]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Duration,
    trace: bool,
    quick: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: Duration::from_secs(20),
        trace: true,
        quick: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            out.quick = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => out.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                out.workloads =
                    vec![Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?]
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let secs: f64 = value.parse().map_err(|_| bad())?;
                out.seconds = Duration::try_from_secs_f64(secs).map_err(|_| bad())?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(out)
}

fn print_result(name: &str, r: &WorkloadResult) {
    let unscale = r.reference_ns / REFERENCE_NS;
    println!(
        "{name}: {} timed pass(es); reference work {:.3} ms (nominal {:.3} ms); \
         unscaled wall-clock pass median {:.6} s",
        r.passes,
        r.reference_ns / 1e6,
        REFERENCE_NS / 1e6,
        r.end_to_end["pass_s.p50"] * unscale
    );
    for (label, o) in &r.outcomes {
        let verdict = if o.failures.is_empty() {
            "holds".to_owned()
        } else {
            format!("fails {}", o.failures[0].violated.join(","))
        };
        println!("  {label:<56} {:>7} run(s)  {verdict}", o.runs);
    }
    for p in &r.problems {
        println!("  FAILED {p}");
    }
    let traced = r.traced.as_ref().map(|(m, _)| m);
    for (metric, value) in r.end_to_end.iter().chain(traced.into_iter().flatten()) {
        let unit = report::unit(metric).expect("registered");
        println!("  {metric:<36} {value:>16.6} {unit}");
    }
    if let Some((_, tr)) = &r.traced {
        println!(
            "  ranked layer self time (traced wall {:.3} s):",
            tr.wall_ns() as f64 / 1e9
        );
        for (layer, share) in report::layer_shares(tr) {
            println!("    {layer:<16} {:>6.1}%", 100.0 * share);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new("target/benchmark");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
    }
    let several = args.workloads.len() > 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut shown = BTreeMap::new();
    let mut everything = BTreeMap::new();
    for &w in &args.workloads {
        let r = run(&Config {
            workload: w,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            quick: args.quick,
        });
        print_result(w.name(), &r);
        attempted += r.attempted;
        failed += r.failed;
        let key = |m: &str| {
            if several {
                format!("{}/{m}", w.name())
            } else {
                m.to_owned()
            }
        };
        let add = |into: &mut BTreeMap<String, f64>, m: &Metrics| {
            into.extend(m.iter().map(|(k, v)| (key(k), *v)));
        };
        add(&mut everything, &r.end_to_end);
        match &r.traced {
            Some((layers, tr)) => {
                add(&mut everything, layers);
                add(&mut shown, layers);
                let path = out_dir.join(format!("trace-{}.json", w.name()));
                if let Err(e) = tr.write_json(&path, w.name()) {
                    eprintln!("cannot write {}: {e}", path.display());
                }
            }
            None => add(&mut shown, &r.end_to_end),
        }
    }
    let path = out_dir.join("result.json");
    let full = report::json_line(attempted, failed, &everything);
    if let Err(e) = std::fs::write(&path, full + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
    }
    println!("{}", report::json_line(attempted, failed, &shown));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
