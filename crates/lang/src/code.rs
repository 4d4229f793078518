//! Compiled step execution: slot-resolved environments and a flat code IR.
//!
//! The substrate simulators never walk statement or expression trees at
//! run time. This module is the compilation layer they share; it runs
//! once at system-build time and is used by every `enabled`/`apply` step:
//!
//! * **Slot resolution** ([`SlotLayout`]): every variable name is
//!   interned to a numeric slot in a two-scope layout — one global scope
//!   (monitor/shared variables) and one per-process local scope (entry
//!   parameters, CSP/ADA locals). The hot path reads two flat `Vec`s in
//!   place; the name-keyed `VarStore` remains at the API boundary for
//!   specs, reports, and blame.
//! * **Expression IR** ([`ExprPool`]): each [`Expr`] compiles to a flat
//!   postfix instruction span over a shared constant pool, evaluated on a
//!   reusable scratch stack. Evaluation order, results, and
//!   [`RuntimeError`]s are bit-for-bit identical to [`Expr::eval`], the
//!   reference evaluator the expression tests compare against.
//!
//! Statement bodies compile to substrate-specific flat basic-block
//! programs (jump targets instead of cloned `VecDeque` frames); those op
//! sets live with each simulator, built on the pieces here.

use std::cell::RefCell;
use std::collections::BTreeMap;

use gem_core::Value;

use crate::ast::{apply_bin, Expr, RuntimeError};

/// Slot sentinel: the name is absent from the scope.
pub const SLOT_NONE: u32 = u32::MAX;

/// An interned variable scope: name → slot, assigned in first-intern
/// order. One layout describes the global scope of a system; one per
/// process/entry describes the local scope.
#[derive(Clone, Debug, Default)]
pub struct SlotLayout {
    names: Vec<String>,
    index: BTreeMap<String, u32>,
}

impl SlotLayout {
    /// An empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its slot (existing or newly assigned).
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.index.get(name) {
            return s;
        }
        let s = u32::try_from(self.names.len()).expect("slot count fits u32");
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), s);
        s
    }

    /// The slot of `name`, if interned.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// The name at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never assigned.
    pub fn name(&self, slot: u32) -> &str {
        &self.names[slot as usize]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no names are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Slot-ordered iterator over interned names.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }
}

/// Which construct demanded a boolean, for the panic message when a
/// compiled condition evaluates to a non-boolean.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CondKind {
    /// An `IF` condition.
    If,
    /// A `WHILE` condition.
    While,
    /// An alternative/select guard.
    Guard,
}

impl CondKind {
    /// The panic message for a non-boolean condition.
    pub fn expect_msg(self) -> &'static str {
        match self {
            CondKind::If => "IF condition must be boolean",
            CondKind::While => "WHILE condition must be boolean",
            CondKind::Guard => "guard must be boolean",
        }
    }
}

/// Handle to one compiled expression inside an [`ExprPool`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExprId(u32);

/// One postfix instruction.
#[derive(Clone, Debug)]
enum Op {
    /// Push constant-pool entry.
    Const(u32),
    /// Push a variable: the bound local slot if present, else the global
    /// slot, else `UndefinedVariable(names[name])`. Either slot may be
    /// [`SLOT_NONE`] when the name is absent from that scope.
    Load { local: u32, global: u32, name: u32 },
    /// Boolean negation of the top of stack.
    Not,
    /// Integer negation of the top of stack.
    Neg,
    /// Apply a binary operator to the top two stack values.
    Bin(crate::ast::BinOp),
}

/// Build-time and size counters of a system's compiled code, surfaced as
/// the `code.*` / `explore.compile_ns` observability counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CodeStats {
    /// Compiled expressions.
    pub exprs: u64,
    /// Total postfix instructions across all expressions.
    pub ops: u64,
    /// Constant-pool entries.
    pub consts: u64,
    /// Compiled statement programs (entry bodies, process/task bodies).
    pub programs: u64,
    /// Resolved variable slots across all scopes.
    pub slots: u64,
    /// Wall time spent compiling at system build, in nanoseconds.
    pub compile_ns: u64,
}

/// A pool of compiled expressions: flat postfix code spans over a shared
/// constant pool, evaluated on a reusable per-thread scratch stack.
#[derive(Clone, Debug, Default)]
pub struct ExprPool {
    code: Vec<Op>,
    consts: Vec<Value>,
    names: Vec<String>,
    name_index: BTreeMap<String, u32>,
    /// `ExprId` → `[start, end)` span in `code`.
    spans: Vec<(u32, u32)>,
}

thread_local! {
    /// Scratch evaluation stack, reused across `eval` calls so the hot
    /// path performs no per-expression allocation.
    static SCRATCH: RefCell<Vec<Value>> = const { RefCell::new(Vec::new()) };
}

impl ExprPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles `expr` against the given scopes. `locals` wins over
    /// `globals` when a bound local shadows a global name, as when
    /// [`Expr::eval`] runs over globals overlaid with the bound locals.
    pub fn compile(&mut self, expr: &Expr, locals: &SlotLayout, globals: &SlotLayout) -> ExprId {
        let start = u32::try_from(self.code.len()).expect("code size fits u32");
        self.emit(expr, locals, globals);
        let end = u32::try_from(self.code.len()).expect("code size fits u32");
        let id = u32::try_from(self.spans.len()).expect("expr count fits u32");
        self.spans.push((start, end));
        ExprId(id)
    }

    fn emit(&mut self, expr: &Expr, locals: &SlotLayout, globals: &SlotLayout) {
        match expr {
            Expr::Lit(v) => {
                let c = u32::try_from(self.consts.len()).expect("const count fits u32");
                self.consts.push(*v);
                self.code.push(Op::Const(c));
            }
            Expr::Var(name) => {
                let local = locals.get(name).unwrap_or(SLOT_NONE);
                let global = globals.get(name).unwrap_or(SLOT_NONE);
                let name = self.intern_name(name);
                self.code.push(Op::Load {
                    local,
                    global,
                    name,
                });
            }
            Expr::Not(e) => {
                self.emit(e, locals, globals);
                self.code.push(Op::Not);
            }
            Expr::Neg(e) => {
                self.emit(e, locals, globals);
                self.code.push(Op::Neg);
            }
            Expr::Bin(op, a, b) => {
                self.emit(a, locals, globals);
                self.emit(b, locals, globals);
                self.code.push(Op::Bin(*op));
            }
        }
    }

    fn intern_name(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.name_index.get(name) {
            return i;
        }
        let i = u32::try_from(self.names.len()).expect("name count fits u32");
        self.names.push(name.to_owned());
        self.name_index.insert(name.to_owned(), i);
        i
    }

    /// Evaluates a compiled expression against flat scopes. `globals` is
    /// fully populated (every global slot holds a value); `locals` may
    /// have unbound (`None`) slots — an unbound local falls through to
    /// the global scope, matching [`Expr::eval`] over the overlaid scopes.
    ///
    /// # Errors
    ///
    /// Returns exactly the [`RuntimeError`] that [`Expr::eval`] would:
    /// same variant, same message, raised at the same evaluation point
    /// (strict left-to-right, no short-circuiting, first error wins).
    pub fn eval(
        &self,
        id: ExprId,
        globals: &[Value],
        locals: &[Option<Value>],
    ) -> Result<Value, RuntimeError> {
        SCRATCH.with(|cell| {
            let mut stack = cell.borrow_mut();
            let base = stack.len();
            let result = self.eval_on(id, globals, locals, &mut stack);
            stack.truncate(base);
            result
        })
    }

    fn eval_on(
        &self,
        id: ExprId,
        globals: &[Value],
        locals: &[Option<Value>],
        stack: &mut Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        let (start, end) = self.spans[id.0 as usize];
        for op in &self.code[start as usize..end as usize] {
            match op {
                Op::Const(c) => stack.push(self.consts[*c as usize]),
                Op::Load {
                    local,
                    global,
                    name,
                } => {
                    let bound = if *local == SLOT_NONE {
                        None
                    } else {
                        locals[*local as usize].as_ref()
                    };
                    match bound {
                        Some(v) => stack.push(*v),
                        None if *global != SLOT_NONE => {
                            stack.push(globals[*global as usize]);
                        }
                        None => {
                            return Err(RuntimeError::UndefinedVariable(
                                self.names[*name as usize].clone(),
                            ))
                        }
                    }
                }
                Op::Not => match stack.pop().expect("operand on stack") {
                    Value::Bool(b) => stack.push(Value::Bool(!b)),
                    v => {
                        return Err(RuntimeError::TypeError {
                            op: "not".into(),
                            operand: v.to_string(),
                        })
                    }
                },
                Op::Neg => match stack.pop().expect("operand on stack") {
                    Value::Int(i) => stack.push(Value::Int(-i)),
                    v => {
                        return Err(RuntimeError::TypeError {
                            op: "neg".into(),
                            operand: v.to_string(),
                        })
                    }
                },
                Op::Bin(op) => {
                    let b = stack.pop().expect("right operand on stack");
                    let a = stack.pop().expect("left operand on stack");
                    stack.push(apply_bin(*op, a, b)?);
                }
            }
        }
        Ok(stack.pop().expect("result on stack"))
    }

    /// Number of compiled expressions.
    pub fn expr_count(&self) -> usize {
        self.spans.len()
    }

    /// Total postfix instructions across all expressions.
    pub fn op_count(&self) -> usize {
        self.code.len()
    }

    /// Constant-pool size.
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::VarStore;

    fn layouts() -> (SlotLayout, SlotLayout) {
        let mut globals = SlotLayout::new();
        globals.intern("x");
        globals.intern("flag");
        let mut locals = SlotLayout::new();
        locals.intern("p");
        locals.intern("x"); // shadows the global when bound
        (locals, globals)
    }

    fn scopes() -> (Vec<Value>, Vec<Option<Value>>) {
        (
            vec![Value::Int(3), Value::Bool(true)],
            vec![Some(Value::Int(10)), None],
        )
    }

    /// Tree-eval environment equivalent to `scopes()`: globals overlaid
    /// with the *bound* locals.
    fn env() -> VarStore {
        let mut e = VarStore::new();
        e.set("x", Value::Int(3));
        e.set("flag", Value::Bool(true));
        e.set("p", Value::Int(10));
        e
    }

    fn both(expr: &Expr) -> (Result<Value, RuntimeError>, Result<Value, RuntimeError>) {
        let (locals, globals) = layouts();
        let mut pool = ExprPool::new();
        let id = pool.compile(expr, &locals, &globals);
        let (gvals, lvals) = scopes();
        (expr.eval(&env()), pool.eval(id, &gvals, &lvals))
    }

    #[test]
    fn matches_tree_eval_on_values() {
        for expr in [
            Expr::var("x").add(Expr::int(4)).mul(Expr::var("p")),
            Expr::var("flag").and(Expr::var("x").lt(Expr::int(5))),
            Expr::var("x").neg().sub(Expr::int(1)),
            Expr::bool(false).or(Expr::var("flag")).not(),
            Expr::str("a").ne(Expr::str("b")),
        ] {
            let (tree, compiled) = both(&expr);
            assert_eq!(tree, compiled, "{expr:?}");
        }
    }

    #[test]
    fn matches_tree_eval_on_errors() {
        for expr in [
            Expr::var("missing").add(Expr::int(1)),
            Expr::var("flag").add(Expr::int(1)),
            Expr::int(1).div(Expr::int(0)),
            Expr::int(1).rem(Expr::int(0)),
            Expr::int(1).not(),
            Expr::bool(true).neg(),
            // Left error beats right error (no short-circuit, first wins).
            Expr::var("missing").and(Expr::int(1).div(Expr::int(0))),
            // And/Or evaluate both sides: the right error still surfaces.
            Expr::bool(true).or(Expr::var("missing")),
        ] {
            let (tree, compiled) = both(&expr);
            assert_eq!(tree, compiled, "{expr:?}");
        }
    }

    #[test]
    fn unbound_local_falls_through_to_global() {
        // "x" is a local slot but unbound, so the global (3) shows
        // through, as in the overlaid tree-eval environment.
        let (tree, compiled) = both(&Expr::var("x"));
        assert_eq!(compiled, Ok(Value::Int(3)));
        assert_eq!(tree, compiled);
    }

    #[test]
    fn slot_layout_interns_stably() {
        let mut l = SlotLayout::new();
        assert!(l.is_empty());
        let a = l.intern("a");
        let b = l.intern("b");
        assert_eq!(l.intern("a"), a);
        assert_eq!((a, b), (0, 1));
        assert_eq!(l.get("b"), Some(1));
        assert_eq!(l.get("c"), None);
        assert_eq!(l.name(1), "b");
        assert_eq!(l.len(), 2);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn pool_counters_reflect_compilation() {
        let (locals, globals) = layouts();
        let mut pool = ExprPool::new();
        pool.compile(&Expr::var("x").add(Expr::int(1)), &locals, &globals);
        pool.compile(&Expr::bool(true), &locals, &globals);
        assert_eq!(pool.expr_count(), 2);
        assert_eq!(pool.op_count(), 4);
        assert_eq!(pool.const_count(), 2);
    }

    #[test]
    fn scratch_stack_clears_after_error() {
        // An error mid-expression must not leak operands into the next
        // evaluation on the same thread.
        let (locals, globals) = layouts();
        let mut pool = ExprPool::new();
        let bad = pool.compile(&Expr::int(1).add(Expr::var("missing")), &locals, &globals);
        let good = pool.compile(&Expr::int(2).add(Expr::int(3)), &locals, &globals);
        let (gvals, lvals) = scopes();
        assert!(pool.eval(bad, &gvals, &lvals).is_err());
        assert_eq!(pool.eval(good, &gvals, &lvals), Ok(Value::Int(5)));
    }
}
