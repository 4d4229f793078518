//! Test support: replays the simulators' unit-test programs against the
//! `unit/...` rows of `tests/golden/step_semantics.json`, which were
//! captured from the tree-walking interpreters the compiled step path
//! replaced.

use std::ops::ControlFlow;

use gem_core::Computation;
use gem_obs::fingerprint_words;
use gem_obs::json::{self, JsonValue};

use crate::explore::{Explorer, System};

const GOLDEN: &str = include_str!("../../../tests/golden/step_semantics.json");

/// Asserts that the plain and the POR sweep of `sys` reproduce golden
/// row `name`: the run count and an order-sensitive digest of the
/// DFS-ordered `(fingerprint, event count)` sequence.
pub(crate) fn assert_golden<S: System>(
    name: &str,
    sys: &S,
    computation: impl Fn(&S::State) -> Computation,
) {
    let golden = json::parse(GOLDEN).expect("golden JSON");
    let rows = golden
        .get("rows")
        .and_then(JsonValue::as_arr)
        .expect("rows");
    for (mode, reduce) in [("plain", false), ("por", true)] {
        let want = rows
            .iter()
            .find(|r| {
                r.get("instance").and_then(JsonValue::as_str) == Some(name)
                    && r.get("mode").and_then(JsonValue::as_str) == Some(mode)
            })
            .unwrap_or_else(|| panic!("no golden row {name} [{mode}]"));
        let mut words = Vec::new();
        let stats = Explorer {
            reduce,
            ..Explorer::default()
        }
        .for_each_run(sys, |state, _| {
            let c = computation(state);
            words.extend([c.fingerprint(), c.event_count() as u64]);
            ControlFlow::Continue(())
        });
        let digest = format!("{:#018x}", fingerprint_words(&words));
        assert_eq!(
            want.get("runs").and_then(JsonValue::as_u64),
            Some(stats.runs as u64),
            "{name} [{mode}]: runs"
        );
        assert_eq!(
            want.get("digest").and_then(JsonValue::as_str),
            Some(digest.as_str()),
            "{name} [{mode}]: digest"
        );
    }
}
