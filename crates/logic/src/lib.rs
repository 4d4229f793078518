//! # gem-logic — GEM restriction logic
//!
//! The specification language of the GEM reproduction: first-order logic
//! over GEM predicates (`occurred`, `@`, `⊳`, `⇒ₑ`, `⇒`, parameter
//! comparison, `at`, `new`, `potential`, thread predicates) together with
//! the temporal operators **henceforth** (`◻`) and **eventually** (`◇`)
//! interpreted over valid history sequences (§7–§8 of Lansky & Owicki).
//!
//! * Build restrictions with the constructors on [`Formula`].
//! * Evaluate them with [`holds_on_computation`] (computation-level
//!   immediate assertions), [`holds_on_history`], or
//!   [`holds_on_sequence`]. One evaluator serves all three, and any
//!   [`World`] besides a sealed computation: the incremental checker reads
//!   its projection of a computation still being built through it.
//! * Decide whether restrictions hold of *all* history sequences of a
//!   computation with [`check_many`] (or [`check`] for one) under a
//!   [`Strategy`]: one shared walk over the sequences.
//! * [`incr`] compiles `◻∀*` restrictions into per-event evaluators for
//!   prefix-sharing exploration. The restrictions with one value on every
//!   history sequence (non-temporal, or history-stable `◇`) get a
//!   [`incr::LeafPlan`]: most of their conjuncts are settled event by
//!   event, the rest are evaluated once at the leaf.
//!
//! ## Example: a safety restriction over all interleavings
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use gem_core::{ComputationBuilder, Structure};
//! use gem_logic::{check, Formula, Strategy};
//!
//! let mut s = Structure::new();
//! let act = s.add_class("Act", &[])?;
//! let p = s.add_element("P", &[act])?;
//! let q = s.add_element("Q", &[act])?;
//! let mut b = ComputationBuilder::new(s);
//! let p1 = b.add_event(p, act, vec![])?;
//! let q1 = b.add_event(q, act, vec![])?;
//! b.enable(p1, q1)?; // P's event causes Q's
//! let c = b.seal()?;
//!
//! // Safety: q1 never occurs without p1 — true of every interleaving.
//! let f = Formula::occurred(q1).implies(Formula::occurred(p1)).henceforth();
//! assert!(check(&f, &c, Strategy::default())?.holds);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blame;
mod eval;
mod formula;
pub mod incr;
mod strategy;
mod term;

pub use blame::{blame_on_computation, blame_on_sequence, Blame, BlameFrame};
pub use eval::{
    holds_on_computation, holds_on_history, holds_on_sequence, EvalError, Occurred, World,
};
pub use formula::{Atom, Formula};
pub use strategy::{
    check, check_many, random_linearization, CheckReport, Counterexample, MultiCheck, Strategy,
};
pub use term::{CmpOp, EventSel, EventTerm, ParamRef, ValueTerm};
