//! Event parameter values.
//!
//! GEM events carry *data parameters* (§4): an `Assign` event carries the
//! value assigned, a `Send` event the message contents, and so on.
//! Restrictions may compare parameters for equality (e.g. the message-passing
//! restriction of §5: `send ⊳ receive ⊃ send.par1 = receive.par2`).
//!
//! A restriction only copies a parameter or compares it, so a value's
//! identity is all a verdict reads. [`Value`] is therefore `Copy`: strings
//! are interned [`Sym`]s, and copying or dropping a parameter touches no
//! reference count and no heap.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Deref;
use std::sync::{Mutex, PoisonError};

/// Every distinct string ever interned, each leaked exactly once.
static INTERNER: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// An interned string: a `&'static str` issued once per distinct content.
///
/// Two `Sym`s with the same content share the same bytes. Equality, order
/// and hashing compare the content, so sorted output and fingerprints do
/// not depend on the order in which strings were interned. The interner
/// keeps each distinct string for the life of the process; intern names
/// when a program or specification is built, not per event.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(&'static str);

impl Deref for Sym {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

/// Interns `s`, leaking its bytes the first time this content is seen.
impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        let mut set = INTERNER.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&interned) = set.get(s) {
            return Sym(interned);
        }
        let interned: &'static str = Box::leak(s.into());
        set.insert(interned);
        Sym(interned)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        Sym::from(s.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.0, f)
    }
}

/// Prints exactly like the `str` it interns.
impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

/// A parameter value attached to an event.
///
/// The GEM paper leaves the value domain open ("VALUE"); this reproduction
/// provides the domains its examples need: unit, booleans, integers and
/// strings.
///
/// Values are copies, not reference counts: a [`Value::Str`] holds an
/// interned [`Sym`], so a simulator can stamp an entry, task or process
/// name onto every event it emits without allocating or touching an
/// atomic.
///
/// # Examples
///
/// ```
/// use gem_core::Value;
/// let v = Value::from("hello");
/// let w = v;
/// assert_eq!(v, w);
/// assert_eq!(w.to_string(), "\"hello\"");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Value {
    /// The unit value, for events without meaningful data.
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// An interned string.
    Str(Sym),
}

impl Value {
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

    const _: () = {
        const fn assert_copy<T: Copy>() {}
        assert_copy::<Value>();
        assert!(std::mem::size_of::<Value>() <= 24);
    };

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
    fn display_forms() {
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::from("hi").to_string(), "\"hi\"");
        assert_eq!(Sym::from("hi").to_string(), "hi");
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
    fn strings_order_by_content_not_intern_order() {
        let zz = Value::from("zz");
        let aa = Value::from("aa");
        assert!(aa < zz);
    }

    #[test]
    fn equal_strings_intern_to_the_same_bytes() {
        let a = Sym::from("x");
        let b = Sym::from(String::from("x"));
        assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()));
        assert_eq!(a, b);
    }

    #[test]
    fn debug_prints_like_a_str() {
        assert_eq!(format!("{:?}", Value::from("x")), "Str(\"x\")");
        assert_eq!(format!("{:?}", Sym::from("a\"b")), format!("{:?}", "a\"b"));
    }
}
