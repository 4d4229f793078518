//! Event parameter values.
//!
//! GEM events carry *data parameters* (§4): an `Assign` event carries the
//! value assigned, a `Send` event the message contents, and so on.
//! Restrictions may compare parameters for equality (e.g. the message-passing
//! restriction of §5: `send ⊳ receive ⊃ send.par1 = receive.par2`).

use std::fmt;
use std::sync::Arc;

/// A parameter value attached to an event.
///
/// The GEM paper leaves the value domain open ("VALUE"); this reproduction
/// provides the domains its examples need: unit, booleans, integers, and
/// strings, plus pairs for compound data such as `(location, value)`.
///
/// Strings are shared: cloning a [`Value::Str`] bumps a reference count
/// instead of copying its bytes, so a simulator can stamp an entry, task
/// or process name onto every event it emits without allocating.
///
/// # Examples
///
/// ```
/// use gem_core::Value;
/// let v = Value::pair(Value::Int(3), Value::from("hello"));
/// assert_eq!(v.to_string(), "(3, \"hello\")");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Value {
    /// The unit value, for events without meaningful data.
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A string, shared between its clones.
    Str(Arc<str>),
    /// An ordered pair of values.
    Pair(Box<Value>, Box<Value>),
}

impl Value {
    /// Builds a [`Value::Pair`] from two values.
    pub fn pair(first: Value, second: Value) -> Self {
        Value::Pair(Box::new(first), Box::new(second))
    }

    /// Returns the integer if this value is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean if this value is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the string if this value is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the components if this value is a [`Value::Pair`].
    pub fn as_pair(&self) -> Option<(&Value, &Value)> {
        match self {
            Value::Pair(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// True if this value is [`Value::Unit`].
    pub fn is_unit(&self) -> bool {
        matches!(self, Value::Unit)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Pair(a, b) => write!(f, "({a}, {b})"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}

impl From<()> for Value {
    fn from((): ()) -> Self {
        Value::Unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Int(4).as_int(), Some(4));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert!(Value::Unit.is_unit());
        assert_eq!(Value::Int(4).as_bool(), None);
        assert_eq!(Value::Unit.as_int(), None);
    }

    #[test]
    fn pair_roundtrip() {
        let p = Value::pair(Value::Int(1), Value::Int(2));
        let (a, b) = p.as_pair().expect("is a pair");
        assert_eq!(a.as_int(), Some(1));
        assert_eq!(b.as_int(), Some(2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::from("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3usize), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(()), Value::Unit);
        assert_eq!(Value::from(String::from("s")), Value::Str("s".into()));
    }

    #[test]
    fn default_is_unit() {
        assert_eq!(Value::default(), Value::Unit);
    }

    #[test]
    fn values_are_ordered() {
        assert!(Value::Unit < Value::Bool(false));
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::from("ab") < Value::from("b"));
    }

    #[test]
    fn string_clones_share_their_bytes() {
        let a = Value::from("entry");
        let b = a.clone();
        let (Value::Str(x), Value::Str(y)) = (&a, &b) else {
            unreachable!("both are strings")
        };
        assert!(Arc::ptr_eq(x, y));
        assert_eq!(format!("{b:?}"), "Str(\"entry\")");
    }
}
