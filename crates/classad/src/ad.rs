//! ClassAd records: ordered, case-insensitive attribute maps.
//!
//! Classic Condor serializes an ad as newline-separated `Name = Expr`
//! lines; that is the format `parse`/`Display` use (lines starting with
//! `#` are comments).  Attribute names are case-insensitive; insertion
//! order is preserved for printing.

use crate::expr::Expr;
use crate::parser::{parse_expr, ParseError};
use crate::value::Value;
use gintern::Sym;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;

/// A classified advertisement: a set of named expressions.
///
/// Names are interned [`Sym`]s: inserts and lookups hash a 32-bit id,
/// and cloning an ad copies no name strings.  Probing uses
/// [`gintern::lookup_lower`], which never grows the intern table — a
/// name that was never interned anywhere cannot be a key of any ad.
///
/// An ad also remembers its serialized size once measured
/// ([`ClassAd::wire_size`]); every `&mut self` method forgets it.
#[derive(Debug, Clone)]
pub struct ClassAd {
    /// Insertion-ordered (lowercase name, printed name, expression).
    entries: Vec<(Sym, Sym, Expr)>,
    /// Lowercase name -> index into `entries`.  Only probed by key
    /// (never iterated), so `Sym`'s id-based hashing cannot leak
    /// nondeterministic ordering anywhere.
    index: HashMap<Sym, usize>,
    /// `Display` length in bytes, or [`UNMEASURED`].
    wire: Cell<u64>,
}

/// Memo value of an ad nobody has measured since it last changed (no ad
/// renders to `u64::MAX` bytes).
const UNMEASURED: u64 = u64::MAX;

impl Default for ClassAd {
    fn default() -> Self {
        ClassAd {
            entries: Vec::new(),
            index: HashMap::new(),
            wire: Cell::new(UNMEASURED),
        }
    }
}

/// Ads are equal when their attributes are, measured or not.
impl PartialEq for ClassAd {
    fn eq(&self, other: &ClassAd) -> bool {
        self.entries == other.entries && self.index == other.index
    }
}

impl ClassAd {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace an attribute.
    pub fn insert(&mut self, name: &str, expr: Expr) {
        self.wire.set(UNMEASURED);
        let key = gintern::intern_lower(name);
        let printed = gintern::intern(name);
        match self.index.get(&key) {
            Some(&i) => {
                self.entries[i].1 = printed;
                self.entries[i].2 = expr;
            }
            None => {
                self.index.insert(key, self.entries.len());
                self.entries.push((key, printed, expr));
            }
        }
    }

    /// Insert a plain value.
    pub fn set(&mut self, name: &str, value: Value) {
        self.insert(name, Expr::Lit(value));
    }

    pub fn set_int(&mut self, name: &str, v: i64) {
        self.set(name, Value::Int(v));
    }

    pub fn set_real(&mut self, name: &str, v: f64) {
        self.set(name, Value::Real(v));
    }

    pub fn set_str(&mut self, name: &str, v: &str) {
        self.set(name, Value::Str(v.to_string()));
    }

    pub fn set_bool(&mut self, name: &str, v: bool) {
        self.set(name, Value::Bool(v));
    }

    /// Look up an attribute (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&Expr> {
        let key = gintern::lookup_lower(name)?;
        self.index.get(&key).map(|&i| &self.entries[i].2)
    }

    /// Iterate `(printed_name, expr)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Expr)> {
        self.entries.iter().map(|(_, n, e)| (n.as_str(), e))
    }

    /// Merge another ad into this one (other's attributes win).
    pub fn merge(&mut self, other: &ClassAd) {
        for (name, expr) in other.iter() {
            self.insert(name, expr.clone());
        }
    }

    /// Parse the classic newline-separated `Name = Expr` form.
    pub fn parse(input: &str) -> Result<ClassAd, ParseError> {
        let mut ad = ClassAd::new();
        for (lineno, raw) in input.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some(eq) = find_toplevel_eq(line) else {
                return Err(ParseError {
                    message: format!("line {}: expected 'Name = Expr'", lineno + 1),
                });
            };
            let name = line[..eq].trim();
            let expr_src = line[eq + 1..].trim();
            if name.is_empty()
                || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                || !name.chars().next().unwrap().is_ascii_alphabetic()
            {
                return Err(ParseError {
                    message: format!("line {}: bad attribute name {name:?}", lineno + 1),
                });
            }
            let expr = parse_expr(expr_src).map_err(|e| ParseError {
                message: format!("line {}: {e}", lineno + 1),
            })?;
            ad.insert(name, expr);
        }
        Ok(ad)
    }

    /// Serialized size in bytes (what goes on the simulated wire): the
    /// length of the `Display` output, counted instead of materialized.
    /// Formats the ad on the first call after a change and answers from
    /// the memo afterwards.
    pub fn wire_size(&self) -> u64 {
        use fmt::Write;
        struct Counter(u64);
        impl fmt::Write for Counter {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 += s.len() as u64;
                Ok(())
            }
        }
        if self.wire.get() == UNMEASURED {
            let mut c = Counter(0);
            write!(c, "{self}").expect("counting writer never fails");
            self.wire.set(c.0);
        }
        self.wire.get()
    }
}

/// Find the `=` that separates name from expression, skipping `==`, `=?=`,
/// `=!=`, `<=`, `>=`, `!=` (the name side cannot contain operators, so the
/// first `=` not part of a two/three-char operator is the separator).
fn find_toplevel_eq(line: &str) -> Option<usize> {
    let b = line.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'"' {
            // Skip string literal.
            i += 1;
            while i < b.len() && b[i] != b'"' {
                if b[i] == b'\\' {
                    i += 1;
                }
                i += 1;
            }
            i += 1;
            continue;
        }
        if b[i] == b'=' {
            let prev = if i > 0 { b[i - 1] } else { 0 };
            let next = b.get(i + 1).copied().unwrap_or(0);
            let is_op = next == b'='
                || next == b'?'
                || next == b'!'
                || prev == b'='
                || prev == b'<'
                || prev == b'>'
                || prev == b'!'
                || prev == b'?';
            if !is_op {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

impl fmt::Display for ClassAd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, expr) in self.iter() {
            writeln!(f, "{name} = {expr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;

    /// Evaluate attribute `name` in `ad` (no target), as a match does.
    fn lookup(ad: &ClassAd, name: &str) -> Value {
        eval(&Expr::attr(name), ad, None)
    }

    #[test]
    fn insert_lookup_case_insensitive() {
        let mut ad = ClassAd::new();
        ad.set_int("CpuLoad", 42);
        assert_eq!(lookup(&ad, "cpuload"), Value::Int(42));
        assert_eq!(lookup(&ad, "CPULOAD"), Value::Int(42));
        assert_eq!(lookup(&ad, "nope"), Value::Undefined);
        assert_eq!(ad.iter().count(), 1);
        // Replacement keeps a single entry.
        ad.set_int("CPULOAD", 7);
        assert_eq!(ad.iter().count(), 1);
        assert_eq!(lookup(&ad, "CpuLoad"), Value::Int(7));
    }

    #[test]
    fn parse_classic_format() {
        let ad = ClassAd::parse(
            "# a comment\n\
             Machine = \"lucky3\"\n\
             \n\
             Cpus = 2\n\
             Loaded = Cpus > 1\n",
        )
        .unwrap();
        assert_eq!(ad.iter().count(), 3);
        assert_eq!(lookup(&ad, "machine"), Value::Str("lucky3".into()));
        assert_eq!(lookup(&ad, "Loaded"), Value::Bool(true));
    }

    #[test]
    fn parse_lines_with_equality_operators() {
        let ad = ClassAd::parse("Req = TARGET.x == 5 && y <= 2\nMeta = z =?= UNDEFINED\n").unwrap();
        assert!(ad.get("Req").is_some());
        assert!(ad.get("Meta").is_some());
    }

    #[test]
    fn parse_rejects_bad_lines() {
        assert!(ClassAd::parse("no equals sign here").is_err());
        assert!(ClassAd::parse("123name = 5").is_err());
        assert!(ClassAd::parse("x = 1 +").is_err());
        assert!(ClassAd::parse("x = a ? 1 : 2").is_err());
        assert!(ClassAd::parse("bad-name = 5").is_err());
    }

    #[test]
    fn display_round_trip() {
        let src = "A = 5\nB = !(A > 2) || A <= -1\nC = \"text with = sign\"\nD = TARGET.x =?= UNDEFINED\n";
        let ad = ClassAd::parse(src).unwrap();
        let printed = ad.to_string();
        let ad2 = ClassAd::parse(&printed).unwrap();
        assert_eq!(ad, ad2);
    }

    #[test]
    fn merge_overrides() {
        let mut a = ClassAd::parse("x = 1\ny = 2\n").unwrap();
        let b = ClassAd::parse("y = 20\nz = 30\n").unwrap();
        a.merge(&b);
        assert_eq!(lookup(&a, "y"), Value::Int(20));
        assert_eq!(lookup(&a, "z"), Value::Int(30));
        assert_eq!(a.iter().count(), 3);
    }

    #[test]
    fn wire_size_positive_and_grows() {
        let small = ClassAd::parse("a = 1\n").unwrap();
        let big = ClassAd::parse("a = 1\nb = \"a long string attribute value\"\n").unwrap();
        assert!(small.wire_size() > 0);
        assert!(big.wire_size() > small.wire_size());
    }
}
