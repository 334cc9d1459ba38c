//! ClassAd runtime values and the three-valued logic primitives.
//!
//! Classic ClassAds extend the usual scalar types with two distinguished
//! values: `UNDEFINED` (an attribute reference that does not resolve) and
//! `ERROR` (a type mismatch or arithmetic fault).  Most operators are
//! *strict*: they propagate `ERROR` and then `UNDEFINED`.  The boolean
//! connectives and the meta-equality operators are the deliberate
//! exceptions, implemented in [`mod@crate::eval`].

use std::fmt;

/// A ClassAd runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Undefined,
    Error,
    Bool(bool),
    Int(i64),
    Real(f64),
    Str(String),
}

impl Value {
    /// Numeric view (ints and reals; booleans coerce as in classic
    /// ClassAds: TRUE=1, FALSE=0).
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// The `=?=` meta-equality: total, never raises.  Same type and equal
    /// value; `UNDEFINED =?= UNDEFINED` is true.  String comparison is
    /// case-insensitive, numbers compare across int/real.
    pub fn meta_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Undefined, Value::Undefined) => true,
            (Value::Error, Value::Error) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Real(a), Value::Real(b)) => a == b,
            (Value::Int(a), Value::Real(b)) | (Value::Real(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Str(a), Value::Str(b)) => a.eq_ignore_ascii_case(b),
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Undefined => write!(f, "UNDEFINED"),
            Value::Error => write!(f, "ERROR"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => {
                if r.fract() == 0.0 && r.abs() < 1e15 {
                    write!(f, "{r:.1}")
                } else {
                    write!(f, "{r}")
                }
            }
            Value::Str(s) => {
                write!(f, "\"")?;
                for c in s.chars() {
                    match c {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_coercion() {
        assert_eq!(Value::Int(3).as_number(), Some(3.0));
        assert_eq!(Value::Real(2.5).as_number(), Some(2.5));
        assert_eq!(Value::Bool(true).as_number(), Some(1.0));
        assert_eq!(Value::Str("3".into()).as_number(), None);
        assert_eq!(Value::Undefined.as_number(), None);
    }

    #[test]
    fn meta_eq_semantics() {
        assert!(Value::Undefined.meta_eq(&Value::Undefined));
        assert!(!Value::Undefined.meta_eq(&Value::Error));
        assert!(Value::Int(2).meta_eq(&Value::Real(2.0)));
        assert!(Value::Str("Linux".into()).meta_eq(&Value::Str("LINUX".into())));
        assert!(!Value::Int(1).meta_eq(&Value::Bool(true)));
    }

    #[test]
    fn display_round_trippable_forms() {
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::Real(2.0).to_string(), "2.0");
        assert_eq!(Value::Str("a\"b".into()).to_string(), "\"a\\\"b\"");
        assert_eq!(Value::Undefined.to_string(), "UNDEFINED");
    }
}
