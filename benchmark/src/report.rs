//! The metric registry, the per-layer metrics derived from a trace, and
//! the JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::traced::Tracer;

/// A registered metric: its name and unit, as `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Metrics a user sees, measured with tracing off (`--trace 0`).
pub const END_TO_END: [Metric; 3] = [
    m("pass_s.p50", "s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
];

/// Metrics of single layers, from the traced pass (`--trace 1`). Layers are
/// named after the modules they time.
pub const PER_LAYER: [Metric; 31] = [
    m("lang.sim.enabled.calls", "count"),
    m("lang.sim.enabled.ns_per_call", "ns"),
    m("lang.sim.apply.calls", "count"),
    m("lang.sim.apply.ns_per_call", "ns"),
    m("lang.sim.checkpoint.ns_per_call", "ns"),
    m("lang.sim.undo.ns_per_call", "ns"),
    m("lang.sim.independent.calls", "count"),
    m("lang.sim.independent.ns_per_call", "ns"),
    m("lang.sim.independent.grant_ratio", "ratio"),
    m("lang.sim.share", "ratio"),
    m("lang.explore.self_ns_per_step", "ns/step"),
    m("lang.explore.runs", "count"),
    m("lang.explore.steps_per_run", "step/run"),
    m("lang.explore.sleep_skipped", "count"),
    m("lang.explore.share", "ratio"),
    m("verify.incr.compile_ns", "ns"),
    m("verify.incr.sync.calls", "count"),
    m("verify.incr.sync.ns_per_call", "ns"),
    m("verify.incr.clean_ratio", "ratio"),
    m("verify.incr.share", "ratio"),
    m("core.seal.calls", "count"),
    m("core.seal.ns_per_call", "ns"),
    m("core.seal.events_per_call", "event/call"),
    m("core.legality.ns_per_call", "ns"),
    m("verify.project.ns_per_call", "ns"),
    m("spec.check.calls", "count"),
    m("spec.check.ns_per_call", "ns"),
    m("verify.batch.share", "ratio"),
    m("problems.build_ns", "ns"),
    m("trace.overhead_pct", "%"),
    m("trace.accounted_pct", "%"),
];

/// The unit of a registered metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

/// Measured values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The layers of the ranked table and the trace names whose self time
/// each one sums.
const LAYERS: [(&str, &[&str]); 7] = [
    (
        "lang.sim",
        &[
            "lang.sim.enabled",
            "lang.sim.apply",
            "lang.sim.checkpoint",
            "lang.sim.undo",
            "lang.sim.independent",
        ],
    ),
    ("lang.explore", &["lang.explore"]),
    ("verify.incr", &["verify.incr.compile", "verify.incr.sync"]),
    ("core.seal", &["core.seal"]),
    ("core.legality", &["core.legality"]),
    ("verify.project", &["verify.project"]),
    ("spec.check", &["spec.check"]),
];

/// Self-time share of each layer in the traced wall, largest first.
pub fn layer_shares(tr: &Tracer) -> Vec<(&'static str, f64)> {
    let self_ns = tr.self_ns();
    let wall = tr.wall_ns() as f64;
    let mut shares: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .map(|&(layer, names)| {
            let ns: u64 = names.iter().filter_map(|n| self_ns.get(n)).sum();
            (layer, ratio(ns as f64, wall))
        })
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

/// The per-layer metrics of a traced pass. `untraced_pass_ns` is the
/// median untraced pass and `build_ns` the median set-up build.
pub fn per_layer(tr: &Tracer, untraced_pass_ns: f64, build_ns: f64) -> Metrics {
    let c = &tr.counts;
    let self_ns = tr.self_ns();
    let self_of = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let wall = tr.wall_ns() as f64;
    let shares: BTreeMap<&str, f64> = layer_shares(tr).into_iter().collect();
    let per_call = |name: &str| ratio(tr.total_ns(name) as f64, tr.calls(name) as f64);
    let seal_calls = tr.calls("core.seal") as f64;
    let sync_calls = tr.calls("verify.incr.sync") as f64;
    let batch_share = ["core.seal", "core.legality", "verify.project", "spec.check"]
        .iter()
        .map(|l| shares[l])
        .sum::<f64>();
    Metrics::from([
        ("lang.sim.enabled.calls", c.sim.enabled.calls as f64),
        ("lang.sim.enabled.ns_per_call", c.sim.enabled.ns_per_call()),
        ("lang.sim.apply.calls", c.sim.apply.calls as f64),
        ("lang.sim.apply.ns_per_call", c.sim.apply.ns_per_call()),
        (
            "lang.sim.checkpoint.ns_per_call",
            c.sim.checkpoint.ns_per_call(),
        ),
        ("lang.sim.undo.ns_per_call", c.sim.undo.ns_per_call()),
        ("lang.sim.independent.calls", c.sim.independent.calls as f64),
        (
            "lang.sim.independent.ns_per_call",
            c.sim.independent.ns_per_call(),
        ),
        (
            "lang.sim.independent.grant_ratio",
            ratio(c.sim.grants as f64, c.sim.independent.calls as f64),
        ),
        ("lang.sim.share", shares["lang.sim"]),
        (
            "lang.explore.self_ns_per_step",
            ratio(self_of("lang.explore"), c.steps as f64),
        ),
        ("lang.explore.runs", c.runs as f64),
        (
            "lang.explore.steps_per_run",
            ratio(c.steps as f64, c.runs as f64),
        ),
        ("lang.explore.sleep_skipped", c.sleep_skipped as f64),
        ("lang.explore.share", shares["lang.explore"]),
        (
            "verify.incr.compile_ns",
            tr.total_ns("verify.incr.compile") as f64,
        ),
        ("verify.incr.sync.calls", sync_calls),
        ("verify.incr.sync.ns_per_call", per_call("verify.incr.sync")),
        (
            "verify.incr.clean_ratio",
            ratio(c.incr_clean as f64, sync_calls),
        ),
        ("verify.incr.share", shares["verify.incr"]),
        ("core.seal.calls", seal_calls),
        ("core.seal.ns_per_call", per_call("core.seal")),
        (
            "core.seal.events_per_call",
            ratio(c.sealed_events as f64, seal_calls),
        ),
        ("core.legality.ns_per_call", per_call("core.legality")),
        ("verify.project.ns_per_call", per_call("verify.project")),
        ("spec.check.calls", tr.calls("spec.check") as f64),
        ("spec.check.ns_per_call", per_call("spec.check")),
        ("verify.batch.share", batch_share),
        ("problems.build_ns", build_ns),
        (
            "trace.overhead_pct",
            100.0 * ratio(wall - untraced_pass_ns, untraced_pass_ns),
        ),
        ("trace.accounted_pct", 100.0 * shares.values().sum::<f64>()),
    ])
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its unit. Every name in `metrics` must be registered.
///
/// # Panics
///
/// Panics on an unregistered metric name.
pub fn json_line(attempted: u64, failed: u64, metrics: &BTreeMap<String, f64>) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let base = name.rsplit_once('/').map_or(name.as_str(), |(_, m)| m);
        let unit = unit(base).unwrap_or_else(|| panic!("unregistered metric {name}"));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            finite(*value)
        );
    }
    out.push_str("}}");
    out
}

/// JSON has no NaN or infinity.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
