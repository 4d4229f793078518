//! A small shared expression language for the concurrency substrates.
//!
//! The Monitor, CSP, and ADA substrates all need side-effect-free
//! expressions over process/monitor variables (guards, assigned values,
//! message contents). [`Expr`] is that common core; statements are
//! substrate-specific because each primitive has its own control
//! constructs (wait/signal, guarded communication, accept/select).

use std::collections::BTreeMap;
use std::fmt;

use gem_core::Value;

/// Errors raised while evaluating an expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RuntimeError {
    /// A variable was read before being declared/assigned.
    UndefinedVariable(String),
    /// An operator was applied to operands of the wrong type.
    TypeError {
        /// The operator applied.
        op: String,
        /// Display of the offending operand.
        operand: String,
    },
    /// Division by zero.
    DivisionByZero,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UndefinedVariable(v) => write!(f, "undefined variable {v:?}"),
            RuntimeError::TypeError { op, operand } => {
                write!(f, "type error: {op} applied to {operand}")
            }
            RuntimeError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (truncating).
    Div,
    /// Integer remainder.
    Rem,
    /// Equality (any values).
    Eq,
    /// Inequality (any values).
    Ne,
    /// Less-than (integers).
    Lt,
    /// Less-or-equal (integers).
    Le,
    /// Greater-than (integers).
    Gt,
    /// Greater-or-equal (integers).
    Ge,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "/=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        };
        f.write_str(s)
    }
}

/// A side-effect-free expression over named variables.
///
/// # Examples
///
/// ```
/// use gem_lang::{Expr, VarStore};
/// use gem_core::Value;
/// let mut env = VarStore::new();
/// env.set("readernum", Value::Int(-1));
/// let guard = Expr::var("readernum").lt(Expr::int(0));
/// assert_eq!(guard.eval(&env).unwrap(), Value::Bool(true));
/// ```
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// A variable reference.
    Var(String),
    /// Boolean negation.
    Not(Box<Expr>),
    /// Integer negation.
    Neg(Box<Expr>),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Integer literal.
    pub fn int(i: i64) -> Self {
        Expr::Lit(Value::Int(i))
    }

    /// Boolean literal.
    pub fn bool(b: bool) -> Self {
        Expr::Lit(Value::Bool(b))
    }

    /// String literal.
    pub fn str(s: impl Into<String>) -> Self {
        let s: String = s.into();
        Expr::Lit(Value::from(s))
    }

    /// Variable reference.
    pub fn var(name: impl Into<String>) -> Self {
        Expr::Var(name.into())
    }

    fn bin(op: BinOp, a: Expr, b: Expr) -> Self {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Self {
        Expr::bin(BinOp::Add, self, other)
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Self {
        Expr::bin(BinOp::Sub, self, other)
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Self {
        Expr::bin(BinOp::Mul, self, other)
    }

    /// `self / other` (truncating).
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Self {
        Expr::bin(BinOp::Div, self, other)
    }

    /// `self % other`.
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, other: Expr) -> Self {
        Expr::bin(BinOp::Rem, self, other)
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Self {
        Expr::bin(BinOp::Eq, self, other)
    }

    /// `self ≠ other`.
    pub fn ne(self, other: Expr) -> Self {
        Expr::bin(BinOp::Ne, self, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Self {
        Expr::bin(BinOp::Lt, self, other)
    }

    /// `self ≤ other`.
    pub fn le(self, other: Expr) -> Self {
        Expr::bin(BinOp::Le, self, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Self {
        Expr::bin(BinOp::Gt, self, other)
    }

    /// `self ≥ other`.
    pub fn ge(self, other: Expr) -> Self {
        Expr::bin(BinOp::Ge, self, other)
    }

    /// Boolean `self ∧ other`.
    pub fn and(self, other: Expr) -> Self {
        Expr::bin(BinOp::And, self, other)
    }

    /// Boolean `self ∨ other`.
    pub fn or(self, other: Expr) -> Self {
        Expr::bin(BinOp::Or, self, other)
    }

    /// Boolean `¬self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Expr::Not(Box::new(self))
    }

    /// Integer `-self`.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Self {
        Expr::Neg(Box::new(self))
    }

    /// Collects every variable name the expression reads into `out`.
    /// Used by the substrate independence oracles to compute conservative
    /// read footprints for partial-order reduction.
    pub fn collect_vars(&self, out: &mut std::collections::BTreeSet<String>) {
        match self {
            Expr::Lit(_) => {}
            Expr::Var(name) => {
                out.insert(name.clone());
            }
            Expr::Not(e) | Expr::Neg(e) => e.collect_vars(out),
            Expr::Bin(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Evaluates the expression in `env`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] for undefined variables, type mismatches,
    /// or division by zero.
    pub fn eval(&self, env: &VarStore) -> Result<Value, RuntimeError> {
        match self {
            Expr::Lit(v) => Ok(*v),
            Expr::Var(name) => env
                .get(name)
                .copied()
                .ok_or_else(|| RuntimeError::UndefinedVariable(name.clone())),
            Expr::Not(e) => match e.eval(env)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                v => Err(RuntimeError::TypeError {
                    op: "not".into(),
                    operand: v.to_string(),
                }),
            },
            Expr::Neg(e) => match e.eval(env)? {
                Value::Int(i) => Ok(Value::Int(-i)),
                v => Err(RuntimeError::TypeError {
                    op: "neg".into(),
                    operand: v.to_string(),
                }),
            },
            Expr::Bin(op, a, b) => {
                let (va, vb) = (a.eval(env)?, b.eval(env)?);
                apply_bin(*op, va, vb)
            }
        }
    }
}

pub(crate) fn apply_bin(op: BinOp, a: Value, b: Value) -> Result<Value, RuntimeError> {
    use BinOp::*;
    let type_err = |a: &Value| {
        Err(RuntimeError::TypeError {
            op: op.to_string(),
            operand: a.to_string(),
        })
    };
    match op {
        Eq => Ok(Value::Bool(a == b)),
        Ne => Ok(Value::Bool(a != b)),
        Add | Sub | Mul | Div | Rem | Lt | Le | Gt | Ge => {
            let (Some(x), Some(y)) = (a.as_int(), b.as_int()) else {
                return type_err(&a);
            };
            match op {
                Add => Ok(Value::Int(x + y)),
                Sub => Ok(Value::Int(x - y)),
                Mul => Ok(Value::Int(x * y)),
                Div => {
                    if y == 0 {
                        Err(RuntimeError::DivisionByZero)
                    } else {
                        Ok(Value::Int(x / y))
                    }
                }
                Rem => {
                    if y == 0 {
                        Err(RuntimeError::DivisionByZero)
                    } else {
                        Ok(Value::Int(x % y))
                    }
                }
                Lt => Ok(Value::Bool(x < y)),
                Le => Ok(Value::Bool(x <= y)),
                Gt => Ok(Value::Bool(x > y)),
                Ge => Ok(Value::Bool(x >= y)),
                _ => unreachable!(),
            }
        }
        And | Or => {
            let (Some(x), Some(y)) = (a.as_bool(), b.as_bool()) else {
                return type_err(&a);
            };
            Ok(Value::Bool(if op == And { x && y } else { x || y }))
        }
    }
}

/// A mutable variable environment.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct VarStore {
    vars: BTreeMap<String, Value>,
}

impl VarStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a variable.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.vars.get(name)
    }

    /// Writes a variable (declaring it if new).
    pub fn set(&mut self, name: impl Into<String>, value: Value) {
        self.vars.insert(name.into(), value);
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.vars.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True if no variables are defined.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }
}

impl FromIterator<(String, Value)> for VarStore {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Self {
            vars: iter.into_iter().collect(),
        }
    }
}

impl Extend<(String, Value)> for VarStore {
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        self.vars.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> VarStore {
        let mut e = VarStore::new();
        e.set("x", Value::Int(3));
        e.set("flag", Value::Bool(true));
        e
    }

    #[test]
    fn arithmetic() {
        let e = env();
        assert_eq!(
            Expr::var("x").add(Expr::int(4)).eval(&e).unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            Expr::var("x")
                .sub(Expr::int(1))
                .mul(Expr::int(2))
                .eval(&e)
                .unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            Expr::int(7).div(Expr::int(2)).eval(&e).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            Expr::int(7).rem(Expr::int(2)).eval(&e).unwrap(),
            Value::Int(1)
        );
        assert_eq!(Expr::var("x").neg().eval(&e).unwrap(), Value::Int(-3));
    }

    #[test]
    fn comparisons_and_boolean() {
        let e = env();
        assert_eq!(
            Expr::var("x").lt(Expr::int(4)).eval(&e).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::var("x").ge(Expr::int(4)).eval(&e).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Expr::var("flag")
                .and(Expr::var("x").eq(Expr::int(3)))
                .eval(&e)
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::bool(false).or(Expr::var("flag")).eval(&e).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::var("flag").not().eval(&e).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Expr::str("a").ne(Expr::str("b")).eval(&e).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn errors() {
        let e = env();
        assert!(matches!(
            Expr::var("missing").eval(&e),
            Err(RuntimeError::UndefinedVariable(_))
        ));
        assert!(matches!(
            Expr::var("flag").add(Expr::int(1)).eval(&e),
            Err(RuntimeError::TypeError { .. })
        ));
        assert!(matches!(
            Expr::int(1).div(Expr::int(0)).eval(&e),
            Err(RuntimeError::DivisionByZero)
        ));
        assert!(matches!(
            Expr::int(1).rem(Expr::int(0)).eval(&e),
            Err(RuntimeError::DivisionByZero)
        ));
        assert!(matches!(
            Expr::int(1).not().eval(&e),
            Err(RuntimeError::TypeError { .. })
        ));
        assert!(matches!(
            Expr::bool(true).neg().eval(&e),
            Err(RuntimeError::TypeError { .. })
        ));
    }

    #[test]
    fn var_store_basics() {
        let mut e = VarStore::new();
        assert!(e.is_empty());
        e.set("a", Value::Int(1));
        e.set("a", Value::Int(2));
        assert_eq!(e.len(), 1);
        assert_eq!(e.get("a"), Some(&Value::Int(2)));
        let collected: VarStore = vec![("b".to_owned(), Value::Unit)].into_iter().collect();
        assert_eq!(collected.get("b"), Some(&Value::Unit));
        let mut ext = VarStore::new();
        ext.extend(collected.iter().map(|(n, v)| (n.to_owned(), *v)));
        assert_eq!(ext.len(), 1);
    }

    #[test]
    fn runtime_error_display() {
        assert!(RuntimeError::UndefinedVariable("x".into())
            .to_string()
            .contains("undefined"));
        assert!(RuntimeError::DivisionByZero.to_string().contains("zero"));
    }
}
