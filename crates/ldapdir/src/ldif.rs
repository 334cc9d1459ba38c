//! LDIF rendering and parsing of entries and search results.

use crate::dn::Dn;
use crate::entry::Entry;
use std::fmt;
use std::fmt::Write;

/// LDIF parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdifError(pub String);

impl fmt::Display for LdifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid LDIF: {}", self.0)
    }
}

impl std::error::Error for LdifError {}

/// Render one entry in LDIF.
pub fn entry_to_ldif(e: &Entry) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "dn: {}", e.dn);
    for (attr, v) in e.iter() {
        let _ = writeln!(s, "{attr}: {v}");
    }
    s
}

/// Render a search result: blank-line separated entries.
pub fn entries_to_ldif<'a>(entries: impl IntoIterator<Item = &'a Entry>) -> String {
    let mut s = String::new();
    for e in entries {
        s.push_str(&entry_to_ldif(e));
        s.push('\n');
    }
    s
}

/// Parse blank-line separated LDIF entries (the subset `entry_to_ldif`
/// produces: `dn:` first, then `attr: value` lines; `#` comments allowed).
pub fn parse_ldif(input: &str) -> Result<Vec<Entry>, LdifError> {
    let mut entries = Vec::new();
    let mut current: Option<Entry> = None;
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim_end();
        if line.trim().is_empty() {
            if let Some(e) = current.take() {
                entries.push(e);
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((attr, value)) = line.split_once(':') else {
            return Err(LdifError(format!("line {}: missing ':'", lineno + 1)));
        };
        let attr = attr.trim();
        let value = value.trim();
        if attr.eq_ignore_ascii_case("dn") {
            if current.is_some() {
                return Err(LdifError(format!(
                    "line {}: dn inside an entry (missing blank separator?)",
                    lineno + 1
                )));
            }
            let dn =
                Dn::parse(value).map_err(|e| LdifError(format!("line {}: {e}", lineno + 1)))?;
            current = Some(Entry::new(dn));
        } else {
            let Some(e) = current.as_mut() else {
                return Err(LdifError(format!(
                    "line {}: attribute before any dn",
                    lineno + 1
                )));
            };
            e.add(attr, value);
        }
    }
    if let Some(e) = current.take() {
        entries.push(e);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dn::Dn;

    #[test]
    fn renders_dn_and_attrs() {
        let mut e = Entry::new(Dn::parse("a=1, o=grid").unwrap());
        e.add("objectclass", "top").add("x", "1").add("x", "2");
        let ldif = entry_to_ldif(&e);
        assert!(ldif.starts_with("dn: a=1, o=grid\n"));
        assert!(ldif.contains("objectclass: top\n"));
        assert!(ldif.contains("x: 1\n"));
        assert!(ldif.contains("x: 2\n"));
    }

    #[test]
    fn multiple_entries_blank_separated() {
        let a = Entry::new(Dn::parse("a=1").unwrap());
        let b = Entry::new(Dn::parse("b=2").unwrap());
        let out = entries_to_ldif([&a, &b]);
        assert_eq!(out.matches("dn: ").count(), 2);
        assert!(out.contains("\n\n"));
    }

    #[test]
    fn parse_round_trip() {
        let mut a = Entry::new(Dn::parse("a=1, o=grid").unwrap());
        a.add("objectclass", "top").add("x", "1").add("x", "2");
        let mut b = Entry::new(Dn::parse("b=2, o=grid").unwrap());
        b.add("objectclass", "thing");
        let text = entries_to_ldif([&a, &b]);
        let parsed = parse_ldif(&text).unwrap();
        assert_eq!(parsed, vec![a, b]);
    }

    #[test]
    fn parse_handles_comments_and_blank_runs() {
        let text = "# header


dn: x=1
attr: v


# trailing
";
        let parsed = parse_ldif(text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].get("attr")[0].1.as_str(), "v");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_ldif(
            "attr: before-dn
"
        )
        .is_err());
        assert!(parse_ldif(
            "dn: x=1
no colon here
"
        )
        .is_err());
        assert!(parse_ldif(
            "dn: x=1
dn: y=2
"
        )
        .is_err());
        assert!(parse_ldif(
            "dn: ===
"
        )
        .is_err());
    }

    #[test]
    fn ldif_length_close_to_wire_size() {
        let mut e = Entry::new(Dn::parse("host=lucky7, o=grid").unwrap());
        for i in 0..10 {
            e.add("attr", format!("value-{i}"));
        }
        let ldif = entry_to_ldif(&e);
        let wire = e.wire_size() as usize;
        // wire_size is an estimate of the LDIF length; keep them within 20%.
        let diff = ldif.len().abs_diff(wire);
        assert!(
            diff * 5 <= ldif.len(),
            "ldif {} vs wire {}",
            ldif.len(),
            wire
        );
    }
}
