//! SQL values.

use std::cmp::Ordering;
use std::fmt;

/// A SQL runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlValue {
    Null,
    Int(i64),
    Real(f64),
    Text(String),
}

impl SqlValue {
    pub fn is_null(&self) -> bool {
        matches!(self, SqlValue::Null)
    }

    pub fn as_number(&self) -> Option<f64> {
        match self {
            SqlValue::Int(i) => Some(*i as f64),
            SqlValue::Real(r) => Some(*r),
            _ => None,
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        match self {
            SqlValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison semantics: NULL compares as unknown (`None`);
    /// numbers compare across INT/REAL; strings compare with strings.
    /// Cross-type comparisons are `None` (treated as no match).
    pub fn compare(&self, other: &SqlValue) -> Option<Ordering> {
        match (self, other) {
            (SqlValue::Null, _) | (_, SqlValue::Null) => None,
            (SqlValue::Text(a), SqlValue::Text(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_number()?, other.as_number()?);
                a.partial_cmp(&b)
            }
        }
    }

    /// Size on the wire: the length of the `Display` form, counted
    /// through a length-only `fmt::Write` instead of materializing it.
    /// Rows remember the sum ([`crate::StoredRow::wire_size`]), so this
    /// runs once per stored value, not once per message.
    pub fn wire_size(&self) -> u64 {
        struct Counter(u64);
        impl fmt::Write for Counter {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 += s.len() as u64;
                Ok(())
            }
        }
        let mut c = Counter(0);
        let _ = fmt::Write::write_fmt(&mut c, format_args!("{self}"));
        c.0
    }
}

impl fmt::Display for SqlValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlValue::Null => write!(f, "NULL"),
            SqlValue::Int(i) => write!(f, "{i}"),
            SqlValue::Real(r) => {
                if r.fract() == 0.0 && r.abs() < 1e15 {
                    write!(f, "{r:.1}")
                } else {
                    write!(f, "{r}")
                }
            }
            SqlValue::Text(s) => {
                // Quotes double; the runs between them go out as they are.
                f.write_str("'")?;
                for (i, run) in s.split('\'').enumerate() {
                    if i > 0 {
                        f.write_str("''")?;
                    }
                    f.write_str(run)?;
                }
                f.write_str("'")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons() {
        assert_eq!(
            SqlValue::Int(2).compare(&SqlValue::Real(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            SqlValue::Int(1).compare(&SqlValue::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            SqlValue::Text("a".into()).compare(&SqlValue::Text("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(SqlValue::Null.compare(&SqlValue::Int(1)), None);
        assert_eq!(SqlValue::Text("1".into()).compare(&SqlValue::Int(1)), None);
    }

    #[test]
    fn display_and_quote_escaping() {
        assert_eq!(SqlValue::Int(5).to_string(), "5");
        assert_eq!(SqlValue::Real(3.0).to_string(), "3.0");
        assert_eq!(SqlValue::Text("o'brien".into()).to_string(), "'o''brien'");
        assert_eq!(SqlValue::Null.to_string(), "NULL");
    }

    #[test]
    fn accessors() {
        assert!(SqlValue::Null.is_null());
        assert_eq!(SqlValue::Int(3).as_number(), Some(3.0));
        assert_eq!(SqlValue::Text("t".into()).as_text(), Some("t"));
        assert_eq!(SqlValue::Int(3).as_text(), None);
        assert!(SqlValue::Real(1.0).wire_size() > 0);
    }
}
