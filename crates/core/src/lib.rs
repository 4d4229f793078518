//! # gem-core — the GEM model of concurrent execution
//!
//! Core data model for the GEM (Group Element Model) reproduction, after
//! Lansky & Owicki, *GEM: A Tool for Concurrency Specification and
//! Verification* (1983).
//!
//! A GEM **computation** represents one concurrent execution as a set of
//! **events** related by:
//!
//! * the **enable relation** `e1 ⊳ e2` — control passing between actions
//!   (partial, irreflexive, not transitive);
//! * the **element order** `e1 ⇒ₑ e2` — forced sequential order among the
//!   events of one **element** (a locus of activity such as a variable or a
//!   message port);
//! * the **temporal order** `e1 ⇒ e2` — the transitive closure of the two,
//!   minus identity; the only *observable* order in a distributed
//!   execution. Events unordered by `⇒` are *potentially concurrent*.
//!
//! Elements cluster into **groups**, which model scope: enable edges may
//! not cross a group boundary except through designated **port** events.
//! A **history** is a downward-closed prefix of a computation ("what has
//! happened so far"), and a **valid history sequence** is a monotone chain
//! of histories along which temporal restrictions (`◻`, `◇`) are
//! interpreted.
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use gem_core::{check_legality, ComputationBuilder, Structure, Value};
//!
//! // Declare the structure: an integer variable element (the §4 example).
//! let mut s = Structure::new();
//! let assign = s.add_class("Assign", &["newval"])?;
//! let getval = s.add_class("Getval", &["oldval"])?;
//! let var = s.add_element("Var", &[assign, getval])?;
//!
//! // Build a computation: two accesses to Var, sequential by element order.
//! let mut b = ComputationBuilder::new(s);
//! let a = b.add_event(var, assign, vec![Value::Int(42)])?;
//! let g = b.add_event(var, getval, vec![Value::Int(42)])?;
//! let c = b.seal()?;
//!
//! assert!(c.temporally_precedes(a, g));
//! assert!(check_legality(&c).is_empty());
//! # Ok(())
//! # }
//! ```
//!
//! Higher layers build on this crate: `gem-logic` evaluates restriction
//! formulae over computations and histories, `gem-spec` provides type
//! descriptions and threads, `gem-lang` generates computations from
//! Monitor/CSP/ADA programs, and `gem-verify` implements the paper's
//! verification methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod computation;
mod dot;
mod event;
mod history;
mod ids;
mod legality;
mod order;
mod structure;
mod value;

pub use bitset::{DenseBitSet, Iter as BitSetIter};
pub use computation::{BuildError, BuilderMark, Computation, ComputationBuilder, Membership};
pub use dot::{to_dot, to_dot_with, DotOptions};
pub use event::Event;
pub use history::{
    for_each_history, for_each_linearization, for_each_step_sequence, history_count,
    linearization_count, Enumerated, History, HistorySequence, PrefixError, VhsError,
};
pub use ids::{ClassId, ElementId, EventId, GroupId, ThreadTag, ThreadTypeId};
pub use legality::{check_legality, is_legal, Violation};
pub use order::{Closure, CycleError, DfsReachability};
pub use structure::{
    ClassInfo, ElementInfo, GroupInfo, MayEnableMemo, NodeRef, Structure, StructureError,
};
pub use value::{Sym, Value};
