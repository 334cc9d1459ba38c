//! The RFC 4515 search filters MDS clients send.
//!
//! Supported forms: `(&(f)(g)...)`, `(|(f)(g)...)`, `(!(f))`, equality
//! `(a=v)` and presence `(a=*)`; value matching is case-insensitive.
//! Substring (`(a=x*y)`), ordering (`(a>=v)`, `(a<=v)`) and approximate
//! matches are a [`FilterError`], never read as an equality.
//! Names bind at parse: an item's attribute type is interned, lowercase,
//! so [`Filter::matches`] finds a type's values by symbol id and compares
//! only their resolved texts (caseIgnore, as an entry keeps each value's
//! case).  Like a [`Sym`], a filter belongs to its thread.

use crate::entry::Entry;
use gintern::Sym;
use std::fmt;

/// Filter parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterError(pub String);

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid filter: {}", self.0)
    }
}

impl std::error::Error for FilterError {}

/// A parsed search filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Filter {
    And(Vec<Filter>),
    Or(Vec<Filter>),
    Not(Box<Filter>),
    /// `(attr=value)`, both lowercase.
    Eq(Sym, String),
    /// `(attr=*)`, lowercase.
    Present(Sym),
}

impl Filter {
    /// Parse a filter string.
    pub fn parse(s: &str) -> Result<Filter, FilterError> {
        let s = s.trim();
        let (f, rest) = parse_filter(s, 0)?;
        if !rest.trim_start().is_empty() {
            return Err(FilterError(format!("trailing input: {rest:?}")));
        }
        Ok(f)
    }

    /// The objectclass=* match-everything filter.
    pub fn any() -> Filter {
        Filter::Present(gintern::intern("objectclass"))
    }

    /// Does `entry` satisfy this filter?
    pub fn matches(&self, entry: &Entry) -> bool {
        match self {
            Filter::And(fs) => fs.iter().all(|f| f.matches(entry)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(entry)),
            Filter::Not(f) => !f.matches(entry),
            Filter::Eq(a, v) => entry
                .values(*a)
                .iter()
                .any(|(_, x)| x.as_str().eq_ignore_ascii_case(v)),
            Filter::Present(a) => !entry.values(*a).is_empty(),
        }
    }

    /// Rough complexity of evaluating this filter against one entry
    /// (number of primitive comparisons), used for the simulated CPU cost
    /// of a search.
    pub fn cost(&self) -> u32 {
        match self {
            Filter::And(fs) | Filter::Or(fs) => 1 + fs.iter().map(Filter::cost).sum::<u32>(),
            Filter::Not(f) => 1 + f.cost(),
            _ => 1,
        }
    }

    /// Length of the RFC 4515 rendering, computed without building the
    /// string (wire-size accounting runs on every simulated request).
    pub fn display_len(&self) -> usize {
        struct Counter(usize);
        impl fmt::Write for Counter {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 += s.len();
                Ok(())
            }
        }
        let mut c = Counter(0);
        let _ = fmt::Write::write_fmt(&mut c, format_args!("{self}"));
        c.0
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Filter::And(fs) => {
                write!(f, "(&")?;
                for x in fs {
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Filter::Or(fs) => {
                write!(f, "(|")?;
                for x in fs {
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Filter::Not(x) => write!(f, "(!{x})"),
            Filter::Eq(a, v) => write!(f, "({a}={v})"),
            Filter::Present(a) => write!(f, "({a}=*)"),
        }
    }
}

/// Deepest nesting of `!`, `&` and `|` [`Filter::parse`] accepts; deeper
/// input is a [`FilterError`], not a stack overflow.  This alone bounds
/// the tree's height: `&` and `|` hold their operands in one `Vec`, so a
/// wide filter stays flat and needs no operator cap (unlike the ClassAd
/// and SQL parsers' left-deep binary chains).
pub const MAX_DEPTH: usize = 128;

/// Parse one filter at the start of `s`, `depth` operators down; return
/// it and the rest.
fn parse_filter(s: &str, depth: usize) -> Result<(Filter, &str), FilterError> {
    if depth > MAX_DEPTH {
        return Err(FilterError(format!("nesting deeper than {MAX_DEPTH}")));
    }
    let s = s.trim_start();
    let Some(inner) = s.strip_prefix('(') else {
        return Err(FilterError(format!("expected '(' at {s:?}")));
    };
    let inner = inner.trim_start();
    if let Some(rest) = inner.strip_prefix('&') {
        let (fs, rest) = parse_set(rest, depth + 1)?;
        return Ok((Filter::And(fs), rest));
    }
    if let Some(rest) = inner.strip_prefix('|') {
        let (fs, rest) = parse_set(rest, depth + 1)?;
        return Ok((Filter::Or(fs), rest));
    }
    if let Some(rest) = inner.strip_prefix('!') {
        let (f, rest) = parse_filter(rest, depth + 1)?;
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix(')') else {
            return Err(FilterError("expected ')' after (!...)".into()));
        };
        return Ok((Filter::Not(Box::new(f)), rest));
    }
    // Simple item: attr OP value ')'
    let close = inner
        .find(')')
        .ok_or_else(|| FilterError("missing ')'".into()))?;
    let body = &inner[..close];
    let rest = &inner[close + 1..];
    let item = parse_item(body)?;
    Ok((item, rest))
}

fn parse_set(mut s: &str, depth: usize) -> Result<(Vec<Filter>, &str), FilterError> {
    let mut out = Vec::new();
    loop {
        s = s.trim_start();
        if let Some(rest) = s.strip_prefix(')') {
            if out.is_empty() {
                return Err(FilterError("empty AND/OR set".into()));
            }
            return Ok((out, rest));
        }
        if s.is_empty() {
            return Err(FilterError("unterminated AND/OR set".into()));
        }
        let (f, rest) = parse_filter(s, depth)?;
        out.push(f);
        s = rest;
    }
}

fn parse_item(body: &str) -> Result<Filter, FilterError> {
    if body.contains(">=") || body.contains("<=") {
        return Err(FilterError(format!(
            "ordering match {body:?} is not supported"
        )));
    }
    let Some((a, v)) = body.split_once('=') else {
        return Err(FilterError(format!("no operator in item {body:?}")));
    };
    let (a, v) = (a.trim(), v.trim());
    check_attr(a)?;
    let attr = gintern::intern_lower(a);
    if v == "*" {
        return Ok(Filter::Present(attr));
    }
    if v.contains('*') {
        return Err(FilterError(format!(
            "substring match {body:?} is not supported"
        )));
    }
    if v.is_empty() {
        return Err(FilterError(format!("empty value in item {body:?}")));
    }
    Ok(Filter::Eq(attr, v.to_ascii_lowercase()))
}

fn check_attr(a: &str) -> Result<(), FilterError> {
    if a.is_empty()
        || !a
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
    {
        return Err(FilterError(format!("bad attribute name {a:?}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dn::Dn;

    fn host_entry() -> Entry {
        let mut e = Entry::new(Dn::parse("mds-host-hn=lucky7, o=grid").unwrap());
        e.add("objectclass", "MdsHost")
            .add("Mds-Host-hn", "lucky7.mcs.anl.gov")
            .add("Mds-Cpu-Total-count", "2")
            .add("Mds-Memory-Ram-sizeMB", "512");
        e
    }

    #[test]
    fn equality_and_presence() {
        let e = host_entry();
        assert!(Filter::parse("(objectclass=mdshost)").unwrap().matches(&e));
        assert!(Filter::parse("(objectclass=MDSHOST)").unwrap().matches(&e));
        assert!(!Filter::parse("(objectclass=mdsvo)").unwrap().matches(&e));
        assert!(Filter::parse("(mds-cpu-total-count=*)")
            .unwrap()
            .matches(&e));
        assert!(!Filter::parse("(missing=*)").unwrap().matches(&e));
    }

    #[test]
    fn boolean_combinators() {
        let e = host_entry();
        let f = Filter::parse("(&(objectclass=mdshost)(mds-cpu-total-count=2))").unwrap();
        assert!(f.matches(&e));
        let f = Filter::parse("(&(objectclass=mdshost)(mds-cpu-total-count=4))").unwrap();
        assert!(!f.matches(&e));
        let f = Filter::parse("(|(objectclass=mdsvo)(objectclass=mdshost))").unwrap();
        assert!(f.matches(&e));
        let f = Filter::parse("(!(objectclass=mdsvo))").unwrap();
        assert!(f.matches(&e));
        let f = Filter::parse("(!(objectclass=mdshost))").unwrap();
        assert!(!f.matches(&e));
    }

    #[test]
    fn substring_and_ordering_are_typed_errors() {
        // MDS never sends these forms; none may fall through to an
        // equality match.
        for bad in [
            "(cn=lu*)",
            "(cn=*lu)",
            "(cn=*lu*)",
            "(cn=l*u)",
            "(n>=2)",
            "(n<=2)",
            "(n=a>=2)",
            "(n=a<=2)",
            "(n~=2)",
            "(&(objectclass=*)(cn=lu*))",
        ] {
            assert!(Filter::parse(bad).is_err(), "should reject {bad:?}");
        }
        let err = Filter::parse("(cn=lu*)").unwrap_err();
        assert!(err.0.contains("substring"), "{err}");
        let err = Filter::parse("(n>=2)").unwrap_err();
        assert!(err.0.contains("ordering"), "{err}");
    }

    #[test]
    fn nested_combination() {
        let e = host_entry();
        let f = Filter::parse(
            "(&(|(objectclass=mdshost)(objectclass=mdsvo))(!(mds-cpu-total-count=1)))",
        )
        .unwrap();
        assert!(f.matches(&e));
        assert!(f.cost() >= 5);
    }

    #[test]
    fn display_round_trip() {
        for src in [
            "(objectclass=mdshost)",
            "(a=*)",
            "(&(a=1)(b=2)(c=*))",
            "(|(a=x)(!(b=z)))",
            "(mds-device-group-name=cpu)",
        ] {
            let f = Filter::parse(src).unwrap();
            let printed = f.to_string();
            assert_eq!(Filter::parse(&printed).unwrap(), f, "src {src}");
        }
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "objectclass=x",
            "(a)",
            "(=v)",
            "(a=)",
            "(&)",
            "(&(a=1)",
            "(!(a=1)(b=2))",
            "(a=1) junk",
            "(bad name=1)",
        ] {
            assert!(Filter::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        // Each of these used to recurse until the stack ran out.
        for open in ["(!", "(&", "(|"] {
            let nest = |n: usize| format!("{}(a=b){}", open.repeat(n), ")".repeat(n));
            let err = Filter::parse(&nest(100_000)).unwrap_err();
            assert!(err.0.contains("nesting"), "{err}");
            assert!(
                Filter::parse(&nest(MAX_DEPTH)).is_ok(),
                "{open:?} at the limit"
            );
            let err = Filter::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.0.contains("nesting"), "{err}");
        }
        // The bound is on open operators, not on how many a filter holds.
        let wide = format!("(|{})", "(&(a=1)(!(b=2)))".repeat(10 * MAX_DEPTH));
        assert!(Filter::parse(&wide).is_ok());
    }

    #[test]
    fn any_matches_everything_with_objectclass() {
        let e = host_entry();
        assert!(Filter::any().matches(&e));
        let bare = Entry::new(Dn::parse("x=1").unwrap());
        assert!(!Filter::any().matches(&bare));
    }

    #[test]
    fn display_len_matches_rendering() {
        for src in [
            "(objectclass=*)",
            "(&(objectclass=host)(cpuload=2))",
            "(|(a=1)(!(b=2))(c=*))",
            "(mds-device-group-name=cpu)",
        ] {
            let f = Filter::parse(src).unwrap();
            assert_eq!(f.display_len(), f.to_string().len(), "{src}");
        }
    }
}
