//! `ldapdir`'s pre-interning `Dn` / `Entry` implementations, kept
//! verbatim as differential oracles for the symbol-based fast paths (see
//! the intern/entry property suites).  Never used by the simulation.

use std::collections::BTreeMap;
use std::fmt;

/// The original owned-`String` RDN.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RefRdn {
    pub attr: String,
    pub value: String,
}

impl fmt::Display for RefRdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.attr, self.value)
    }
}

/// The original `Vec<RefRdn>` distinguished name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RefDn {
    rdns: Vec<RefRdn>,
}

impl RefDn {
    pub fn root() -> RefDn {
        RefDn { rdns: Vec::new() }
    }

    pub fn parse(s: &str) -> Result<RefDn, String> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(RefDn::root());
        }
        let mut rdns = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            let Some(eq) = part.find('=') else {
                return Err(format!("RDN {part:?} lacks '='"));
            };
            let attr = part[..eq].trim();
            let value = part[eq + 1..].trim();
            if attr.is_empty() || value.is_empty() {
                return Err(format!("empty attribute or value in {part:?}"));
            }
            rdns.push(RefRdn {
                attr: attr.to_ascii_lowercase(),
                value: value.to_ascii_lowercase(),
            });
        }
        Ok(RefDn { rdns })
    }

    pub fn depth(&self) -> usize {
        self.rdns.len()
    }

    pub fn parent(&self) -> Option<RefDn> {
        if self.rdns.is_empty() {
            None
        } else {
            Some(RefDn {
                rdns: self.rdns[1..].to_vec(),
            })
        }
    }

    pub fn child(&self, attr: &str, value: &str) -> RefDn {
        let mut rdns = Vec::with_capacity(self.rdns.len() + 1);
        rdns.push(RefRdn {
            attr: attr.to_ascii_lowercase(),
            value: value.to_ascii_lowercase(),
        });
        rdns.extend(self.rdns.iter().cloned());
        RefDn { rdns }
    }

    pub fn is_under(&self, ancestor: &RefDn) -> bool {
        let n = ancestor.rdns.len();
        if self.rdns.len() < n {
            return false;
        }
        self.rdns[self.rdns.len() - n..] == ancestor.rdns[..]
    }

    pub fn display_len(&self) -> usize {
        let seps = 2 * self.rdns.len().saturating_sub(1);
        self.rdns
            .iter()
            .map(|r| r.attr.len() + 1 + r.value.len())
            .sum::<usize>()
            + seps
    }

    pub fn rebase(&self, old_suffix: &RefDn, new_suffix: &RefDn) -> Option<RefDn> {
        if !self.is_under(old_suffix) {
            return None;
        }
        let keep = self.rdns.len() - old_suffix.rdns.len();
        let mut rdns = self.rdns[..keep].to_vec();
        rdns.extend(new_suffix.rdns.iter().cloned());
        Some(RefDn { rdns })
    }
}

impl fmt::Display for RefDn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, rdn) in self.rdns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{rdn}")?;
        }
        Ok(())
    }
}

fn lower(attr: &str) -> String {
    attr.to_ascii_lowercase()
}

/// The original deep-cloning, `String`-keyed entry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RefEntry {
    pub dn: String,
    pub dn_display_len: usize,
    attrs: BTreeMap<String, Vec<String>>,
}

impl RefEntry {
    pub fn new(dn: &RefDn) -> Self {
        RefEntry {
            dn: dn.to_string(),
            dn_display_len: dn.display_len(),
            attrs: BTreeMap::new(),
        }
    }

    pub fn add(&mut self, attr: &str, value: impl Into<String>) -> &mut Self {
        let key = lower(attr);
        match self.attrs.get_mut(&key) {
            Some(vs) => vs.push(value.into()),
            None => {
                self.attrs.insert(key, vec![value.into()]);
            }
        }
        self
    }

    pub fn put(&mut self, attr: &str, value: impl Into<String>) -> &mut Self {
        let key = lower(attr);
        match self.attrs.get_mut(&key) {
            Some(vs) => {
                vs.clear();
                vs.push(value.into());
            }
            None => {
                self.attrs.insert(key, vec![value.into()]);
            }
        }
        self
    }

    pub fn remove(&mut self, attr: &str) -> bool {
        self.attrs.remove(&lower(attr)).is_some()
    }

    pub fn get(&self, attr: &str) -> &[String] {
        self.attrs.get(&lower(attr)).map_or(&[], Vec::as_slice)
    }

    pub fn has_attr(&self, attr: &str) -> bool {
        self.attrs.contains_key(&lower(attr))
    }

    pub fn has_value(&self, attr: &str, value: &str) -> bool {
        self.get(attr).iter().any(|v| v.eq_ignore_ascii_case(value))
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &[String])> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    pub fn wire_size(&self) -> u64 {
        let mut n = self.dn_display_len + 5;
        for (a, vs) in self.iter() {
            for v in vs {
                n += a.len() + v.len() + 3;
            }
        }
        n as u64
    }

    pub fn projected_wire_size(&self, attrs: &[String]) -> u64 {
        let mut n = self.dn_display_len + 5;
        for a in attrs {
            for v in self.get(a) {
                n += a.len() + v.len() + 3;
            }
        }
        n as u64
    }

    pub fn project(&self, attrs: &[String]) -> RefEntry {
        let mut e = RefEntry {
            dn: self.dn.clone(),
            dn_display_len: self.dn_display_len,
            attrs: BTreeMap::new(),
        };
        for a in attrs {
            for v in self.get(a) {
                e.add(a, v.clone());
            }
        }
        e
    }
}
