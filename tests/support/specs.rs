//! Specifications over the control element of the readers/writers
//! problem, including one the incremental checker cannot compile, so
//! that `verify_system` judges every leaf by seal → project → check.
//!
//! Included on its own (`#[path = "support/specs.rs"]`) by test crates
//! that need no batch reference sweep.

use gem::logic::Formula;
use gem::problems::readers_writers::PI_RW;
use gem::spec::{ElementInstance, ElementType, SpecBuilder, Specification};

/// The control-only readers/writers structure and `πRW` thread type of
/// `rw_spec`, with `restrictions` over the control element in place of
/// the variant's, so that `rw_correspondence` maps the monitor onto it.
pub fn rw_control_spec(
    restrictions: impl FnOnce(&ElementInstance) -> Vec<(&'static str, Formula)>,
) -> Specification {
    let control_t = ElementType::new("RWControl")
        .event("ReqRead", &[])
        .event("StartRead", &[])
        .event("EndRead", &[])
        .event("ReqWrite", &[])
        .event("StartWrite", &[])
        .event("EndWrite", &[]);
    let mut sb = SpecBuilder::new("RWControl");
    let control = sb
        .instantiate_element(&control_t, "control")
        .expect("fresh spec");
    let path = |events: [&str; 3]| events.map(|e| control.sel(e)).to_vec();
    let pi_rw = sb.declare_thread(
        "pi_RW",
        vec![
            path(["ReqRead", "StartRead", "EndRead"]),
            path(["ReqWrite", "StartWrite", "EndWrite"]),
        ],
    );
    assert_eq!(pi_rw, PI_RW);
    for (name, formula) in restrictions(&control) {
        sb.add_restriction(name, formula);
    }
    sb.finish()
}

/// Every read and write request is serviced, and no read transaction
/// starts twice. `read-starts-once` is written `◻∀s ¬∃t (…)`: the `∃` is
/// positive in the falsifying conjuncts, which the incremental fragment
/// excludes, so the whole specification falls back to batch checking.
/// Holds of the readers-priority monitor.
pub fn batch_only_spec() -> Specification {
    rw_control_spec(|control| {
        let start = control.sel("StartRead");
        let serviced = |r: &str, s: &str| {
            Formula::forall(
                "r",
                control.sel(r),
                Formula::exists(
                    "s",
                    control.sel(s),
                    Formula::same_thread("r", "s", PI_RW).and(Formula::occurred("s")),
                )
                .eventually(),
            )
        };
        let starts_once = Formula::forall(
            "s",
            start.clone(),
            Formula::exists(
                "t",
                start,
                Formula::occurred("t")
                    .and(Formula::event_eq("s", "t").not())
                    .and(Formula::same_thread("s", "t", PI_RW)),
            )
            .not(),
        )
        .henceforth();
        vec![
            ("every-read-serviced", serviced("ReqRead", "StartRead")),
            ("every-write-serviced", serviced("ReqWrite", "StartWrite")),
            ("read-starts-once", starts_once),
        ]
    })
}
