//! Finished specifications and specification checking.
//!
//! A [`Specification`] is the end product of the §6 instantiation process:
//! a structure (elements, groups, ports), a list of named restrictions,
//! and the declared thread types. [`Specification::check`] decides whether
//! a computation is *legal with respect to the specification* (§3):
//! it satisfies the implicit GEM legality restrictions and every explicit
//! restriction.

use std::fmt;
use std::sync::Arc;

use gem_core::{check_legality, Computation, History, Structure, Violation};
use gem_logic::{
    blame_on_computation, blame_on_sequence, check_many, Blame, CheckReport, EvalError, Formula,
    Strategy,
};

use crate::thread::{infer_threads, ThreadSpec};
use crate::types::Restriction;

/// An immutable GEM specification.
#[derive(Clone, Debug)]
pub struct Specification {
    name: String,
    structure: Arc<Structure>,
    restrictions: Vec<Restriction>,
    threads: Vec<ThreadSpec>,
}

impl Specification {
    pub(crate) fn from_parts(
        name: String,
        structure: Structure,
        restrictions: Vec<Restriction>,
        threads: Vec<ThreadSpec>,
    ) -> Self {
        Self {
            name,
            structure: Arc::new(structure),
            restrictions,
            threads,
        }
    }

    /// The specification name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The structure computations over this specification must use.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// Shared handle to the structure, for
    /// [`ComputationBuilder::new`](gem_core::ComputationBuilder::new).
    pub fn structure_arc(&self) -> Arc<Structure> {
        Arc::clone(&self.structure)
    }

    /// The explicit restrictions, in declaration order.
    pub fn restrictions(&self) -> &[Restriction] {
        &self.restrictions
    }

    /// The declared thread types.
    pub fn threads(&self) -> &[ThreadSpec] {
        &self.threads
    }

    /// Looks up a restriction by name.
    pub fn restriction(&self, name: &str) -> Option<&Formula> {
        self.restrictions
            .iter()
            .find(|r| r.name == name)
            .map(|r| &r.formula)
    }

    /// Applies the specification's thread assignment (§8.3) to a
    /// computation: returns a copy tagged according to the declared thread
    /// types' path expressions.
    pub fn assign_threads(&self, computation: &Computation) -> Computation {
        infer_threads(computation, &self.threads)
    }

    /// Checks whether `computation` is legal with respect to this
    /// specification: GEM legality restrictions plus every explicit
    /// restriction, the latter under `strategy` (temporal restrictions) or
    /// on the complete computation (immediate restrictions).
    ///
    /// Thread tags are assigned per the declared thread types before
    /// evaluation if the computation carries none of them.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] if a restriction formula is malformed.
    pub fn check(
        &self,
        computation: &Computation,
        strategy: Strategy,
    ) -> Result<SpecReport, EvalError> {
        let needs_tags = !self.threads.is_empty()
            && computation.events().iter().all(|e| {
                e.threads()
                    .iter()
                    .all(|t| self.threads.iter().all(|s| s.ty != t.thread_type()))
            });
        let tagged;
        let target: &Computation = if needs_tags {
            tagged = self.assign_threads(computation);
            &tagged
        } else {
            computation
        };

        let legality = check_legality(target);
        let probing = gem_obs::ambient::active();

        // One `check_many` call: immediate restrictions are decided on the
        // complete computation, temporal ones share one enumeration of
        // history sequences under `strategy`.
        let formulas: Vec<&Formula> = self.restrictions.iter().map(|r| &r.formula).collect();
        let outcomes = check_many(&formulas, target, strategy);
        let mut results = Vec::with_capacity(self.restrictions.len());
        for (i, (r, outcome)) in self.restrictions.iter().zip(outcomes).enumerate() {
            let report = outcome.report?;
            if probing {
                // Evaluation time only: the shared enumeration belongs to
                // no one restriction.
                let ns = outcome.eval_ns;
                gem_obs::ambient::add("restriction.evals", 1);
                gem_obs::ambient::add(&format!("restriction.{}.evals", r.name), 1);
                gem_obs::ambient::time_ns(&format!("restriction.{}.check", r.name), ns);
                // Index-keyed twins of the name-keyed series: the formula
                // index is stable across renames and lets consumers (the
                // `gem profile` breakdown) join counters to the spec's
                // restriction list positionally.
                gem_obs::ambient::add(&format!("logic.check.by_restriction.{i}.evals"), 1);
                gem_obs::ambient::time_ns(&format!("logic.check.by_restriction.{i}.ns"), ns);
                if !report.holds {
                    gem_obs::ambient::add(&format!("restriction.{}.violations", r.name), 1);
                }
            }
            results.push(RestrictionResult {
                name: r.name.clone(),
                report,
            });
        }
        Ok(SpecReport { legality, results })
    }

    /// Blames each failed restriction in `report`: re-runs the evaluator
    /// along the falsification path of the recorded counterexample
    /// sequence (or the complete computation for restrictions without
    /// one), against the same thread-tagged target [`Specification::check`]
    /// evaluated. Restrictions whose blame cannot be derived (evaluation
    /// error, or the formula actually holds on the recorded sequence) are
    /// skipped — `check` already surfaced those as errors.
    pub fn blame_failures(
        &self,
        computation: &Computation,
        report: &SpecReport,
    ) -> Vec<(String, Blame)> {
        let needs_tags = !self.threads.is_empty()
            && computation.events().iter().all(|e| {
                e.threads()
                    .iter()
                    .all(|t| self.threads.iter().all(|s| s.ty != t.thread_type()))
            });
        let tagged;
        let target: &Computation = if needs_tags {
            tagged = self.assign_threads(computation);
            &tagged
        } else {
            computation
        };
        let mut out = Vec::new();
        for r in &report.results {
            if r.report.holds {
                continue;
            }
            let Some(formula) = self.restriction(&r.name) else {
                continue;
            };
            let blamed = match &r.report.counterexample {
                Some(cex) => {
                    let seq: Result<Vec<History>, _> = cex
                        .histories
                        .iter()
                        .map(|events| History::from_events(target, events.iter().copied()))
                        .collect();
                    match seq {
                        Ok(seq) if !seq.is_empty() => blame_on_sequence(formula, target, &seq),
                        _ => blame_on_computation(formula, target),
                    }
                }
                None => blame_on_computation(formula, target),
            };
            if let Ok(Some(b)) = blamed {
                out.push((r.name.clone(), b));
            }
        }
        out
    }
}

/// Outcome of checking one named restriction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RestrictionResult {
    /// The restriction's name.
    pub name: String,
    /// The checking outcome.
    pub report: CheckReport,
}

/// Outcome of [`Specification::check`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpecReport {
    /// GEM legality violations (empty for a legal computation).
    pub legality: Vec<Violation>,
    /// Per-restriction results.
    pub results: Vec<RestrictionResult>,
}

impl SpecReport {
    /// True if the computation is legal and every restriction holds.
    pub fn is_legal(&self) -> bool {
        self.legality.is_empty() && self.results.iter().all(|r| r.report.holds)
    }

    /// Names of the violated restrictions.
    pub fn failed(&self) -> Vec<&str> {
        self.results
            .iter()
            .filter(|r| !r.report.holds)
            .map(|r| r.name.as_str())
            .collect()
    }
}

impl fmt::Display for SpecReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.legality.is_empty() {
            writeln!(f, "legality: ok")?;
        } else {
            writeln!(f, "legality: {} violation(s)", self.legality.len())?;
            for v in &self.legality {
                writeln!(f, "  - {v}")?;
            }
        }
        for r in &self.results {
            writeln!(
                f,
                "{}: {} ({} sequence(s){})",
                r.name,
                if r.report.holds { "ok" } else { "VIOLATED" },
                r.report.sequences_checked,
                if r.report.exhaustive {
                    ""
                } else {
                    ", not exhaustive"
                },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abbrev::prerequisite;
    use crate::types::{ElementType, SpecBuilder};
    use gem_core::ComputationBuilder;
    use gem_logic::ValueTerm;

    fn variable_spec() -> Specification {
        let variable = ElementType::new("Variable")
            .event("Assign", &["newval"])
            .event("Getval", &["oldval"])
            .restriction("getval-yields-last-assign", |inst, _| {
                Formula::forall(
                    "a",
                    inst.sel("Assign"),
                    Formula::forall(
                        "g",
                        inst.sel("Getval"),
                        Formula::enables("a", "g").implies(Formula::value_eq(
                            ValueTerm::param("a", "newval"),
                            ValueTerm::param("g", "oldval"),
                        )),
                    ),
                )
            });
        let mut sb = SpecBuilder::new("VarSpec");
        let var = sb.instantiate_element(&variable, "Var").unwrap();
        sb.add_restriction(
            "assign-precedes-getval",
            prerequisite(&var.sel("Assign"), &var.sel("Getval")),
        );
        sb.finish()
    }

    #[test]
    fn legal_computation_passes_check() {
        let spec = variable_spec();
        let s = spec.structure();
        let var = s.element("Var").unwrap();
        let assign = s.class("Assign").unwrap();
        let getval = s.class("Getval").unwrap();
        let mut b = ComputationBuilder::new(spec.structure_arc());
        let a = b
            .add_event(var, assign, vec![gem_core::Value::Int(1)])
            .unwrap();
        let g = b
            .add_event(var, getval, vec![gem_core::Value::Int(1)])
            .unwrap();
        b.enable(a, g).unwrap();
        let c = b.seal().unwrap();
        let report = spec.check(&c, Strategy::default()).unwrap();
        assert!(report.is_legal(), "{report}");
        assert!(report.failed().is_empty());
        assert!(report.to_string().contains("ok"));
    }

    #[test]
    fn violating_computation_reports_restriction() {
        let spec = variable_spec();
        let s = spec.structure();
        let var = s.element("Var").unwrap();
        let assign = s.class("Assign").unwrap();
        let getval = s.class("Getval").unwrap();
        let mut b = ComputationBuilder::new(spec.structure_arc());
        let a = b
            .add_event(var, assign, vec![gem_core::Value::Int(1)])
            .unwrap();
        let g = b
            .add_event(var, getval, vec![gem_core::Value::Int(99)])
            .unwrap();
        b.enable(a, g).unwrap();
        let c = b.seal().unwrap();
        let report = spec.check(&c, Strategy::default()).unwrap();
        assert!(!report.is_legal());
        assert_eq!(
            report.failed(),
            vec!["Var.getval-yields-last-assign"],
            "{report}"
        );
        assert!(report.to_string().contains("VIOLATED"));
    }

    #[test]
    fn restriction_lookup() {
        let spec = variable_spec();
        assert!(spec.restriction("assign-precedes-getval").is_some());
        assert!(spec.restriction("nope").is_none());
        assert_eq!(spec.name(), "VarSpec");
        assert_eq!(spec.restrictions().len(), 2);
    }

    #[test]
    fn thread_tags_assigned_automatically_in_check() {
        use gem_core::ThreadTypeId;
        let variable = ElementType::new("Ctl").event("Req", &[]).event("Go", &[]);
        let mut sb = SpecBuilder::new("T");
        let ctl = sb.instantiate_element(&variable, "ctl").unwrap();
        let ty = sb.declare_thread("pi", vec![vec![ctl.sel("Req"), ctl.sel("Go")]]);
        assert_eq!(ty, ThreadTypeId::from_raw(0));
        // Restriction: every Go shares a thread with some Req.
        sb.add_restriction(
            "go-in-transaction",
            Formula::forall(
                "g",
                ctl.sel("Go"),
                Formula::exists("r", ctl.sel("Req"), Formula::same_thread("r", "g", ty)),
            ),
        );
        let spec = sb.finish();
        let s = spec.structure();
        let el = s.element("ctl").unwrap();
        let req = s.class("Req").unwrap();
        let go = s.class("Go").unwrap();
        let mut b = ComputationBuilder::new(spec.structure_arc());
        let r = b.add_event(el, req, vec![]).unwrap();
        let g = b.add_event(el, go, vec![]).unwrap();
        b.enable(r, g).unwrap();
        let c = b.seal().unwrap();
        // No tags were assigned manually, check() infers them.
        let report = spec.check(&c, Strategy::default()).unwrap();
        assert!(report.is_legal(), "{report}");
    }
}
