//! # gem-lang — concurrency-language substrates for GEM
//!
//! Executable models of the three language primitives the paper describes
//! in GEM — the **Monitor** (§9), **CSP**, and **ADA tasking** — plus the
//! bounded interleaving [`Explorer`] used to enumerate their schedules.
//! Each substrate runs concrete programs and emits a
//! [`gem_core::Computation`] per schedule, over a structure that mirrors
//! the paper's GEM description of the primitive (monitor groups with
//! `PORTS(lock.Req)`, CSP input/output elements, ADA entry/rendezvous
//! elements).
//!
//! Together with `gem-verify`, this is the machine-checked stand-in for
//! the paper's hand-proof methodology: explore every schedule, translate
//! each run into a computation, and check the specification's
//! restrictions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod explore;
#[cfg(test)]
mod golden;
mod rewind;

pub mod ada;
pub mod code;
pub mod csp;
pub mod monitor;

pub use ast::{BinOp, Expr, RuntimeError, VarStore};
pub use code::CodeStats;
pub use explore::{find_deadlock, ExploreStats, Explorer, RunSample, System, TruncationReason};
