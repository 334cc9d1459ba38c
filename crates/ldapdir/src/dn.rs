//! Distinguished names.
//!
//! A DN is a sequence of relative distinguished names (RDNs), most
//! specific first: `Mds-Host-hn=lucky7, Mds-Vo-name=local, o=grid`.
//! Attribute types and values are matched case-insensitively (LDAP
//! caseIgnoreMatch, which is what MDS schema attributes use).  Multi-valued
//! RDNs (`a=1+b=2`) are not supported — MDS does not use them.
//!
//! Both sides of every RDN are interned [`Sym`]s and the component list
//! is a shared `Rc` slice, so `Dn::clone` — which the request path runs
//! once per message and once per returned entry — performs no heap
//! allocation at all.  `Sym` comparison resolves to string comparison,
//! so DNs sort exactly as their string forms did; that ordering is
//! load-bearing (DN-ordered result assembly feeds size-capped GIIS
//! payloads and the pinned figure CSVs).

use gintern::Sym;
use std::borrow::Borrow;
use std::fmt;
use std::rc::Rc;

/// Error parsing a DN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnError(pub String);

impl fmt::Display for DnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid DN: {}", self.0)
    }
}

impl std::error::Error for DnError {}

/// One `type=value` component.  Both sides are lowercased interned
/// symbols: equality and hashing compare symbol ids, ordering is the
/// strings' order (type first, then value), read from the table's kept
/// ranks (see `gintern`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rdn {
    /// Lowercased attribute type.
    pub attr: Sym,
    /// Lowercased value (LDAP caseIgnore semantics).
    pub value: Sym,
}

impl Rdn {
    /// Intern a component, lowercasing as needed.
    pub fn new(attr: &str, value: &str) -> Rdn {
        Rdn {
            attr: gintern::intern_lower(attr),
            value: gintern::intern_lower(value),
        }
    }
}

impl fmt::Display for Rdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.attr, self.value)
    }
}

/// A distinguished name (most-specific RDN first).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Dn {
    rdns: Rc<[Rdn]>,
}

impl Dn {
    /// The empty (root) DN.
    pub fn root() -> Dn {
        Dn::default()
    }

    /// Parse `a=x, b=y, c=z`.
    pub fn parse(s: &str) -> Result<Dn, DnError> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Dn::root());
        }
        let mut rdns = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            let Some(eq) = part.find('=') else {
                return Err(DnError(format!("RDN {part:?} lacks '='")));
            };
            let attr = part[..eq].trim();
            let value = part[eq + 1..].trim();
            if attr.is_empty() || value.is_empty() {
                return Err(DnError(format!("empty attribute or value in {part:?}")));
            }
            rdns.push(Rdn::new(attr, value));
        }
        Ok(Dn { rdns: rdns.into() })
    }

    /// Number of RDN components.
    pub fn depth(&self) -> usize {
        self.rdns.len()
    }

    /// Parent DN (everything but the leading RDN).
    pub fn parent(&self) -> Option<Dn> {
        if self.rdns.is_empty() {
            None
        } else {
            Some(Dn {
                rdns: self.rdns[1..].into(),
            })
        }
    }

    /// Prepend an RDN, producing a child DN.
    pub fn child(&self, attr: &str, value: &str) -> Dn {
        let rdns = std::iter::once(Rdn::new(attr, value)).chain(self.rdns.iter().copied());
        Dn {
            rdns: rdns.collect(),
        }
    }

    /// Is `self` equal to or below `ancestor`?
    pub fn is_under(&self, ancestor: &Dn) -> bool {
        let n = ancestor.rdns.len();
        if self.rdns.len() < n {
            return false;
        }
        self.rdns[self.rdns.len() - n..] == ancestor.rdns[..]
    }

    /// Is `self` an immediate child of `parent`?
    pub fn is_child_of(&self, parent: &Dn) -> bool {
        self.rdns.len() == parent.rdns.len() + 1 && self.is_under(parent)
    }

    /// Length in bytes of the `Display` rendering, without building the
    /// string (wire-size accounting runs this once per returned entry).
    pub fn display_len(&self) -> usize {
        let seps = 2 * self.rdns.len().saturating_sub(1);
        self.rdns
            .iter()
            .map(|r| r.attr.len() + 1 + r.value.len())
            .sum::<usize>()
            + seps
    }

    /// Re-root: replace the `old_suffix` of this DN with `new_suffix`
    /// (used when a GIIS grafts a registered GRIS subtree under its own
    /// suffix).  Returns `None` when `self` is not under `old_suffix`.
    pub fn rebase(&self, old_suffix: &Dn, new_suffix: &Dn) -> Option<Dn> {
        if !self.is_under(old_suffix) {
            return None;
        }
        let keep = self.rdns.len() - old_suffix.rdns.len();
        let rdns = self.rdns[..keep].iter().chain(new_suffix.rdns.iter());
        Some(Dn {
            rdns: rdns.copied().collect(),
        })
    }
}

/// A DN compares, orders and hashes as its RDN slice, so DN-keyed maps
/// can be probed with a slice of a stored DN (its parent, say) without
/// building a `Dn`.
impl Borrow<[Rdn]> for Dn {
    fn borrow(&self) -> &[Rdn] {
        &self.rdns
    }
}

impl fmt::Display for Dn {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let dn = Dn::parse("Mds-Host-hn=Lucky7, Mds-Vo-name=Local, o=Grid").unwrap();
        assert_eq!(dn.depth(), 3);
        assert_eq!(
            dn.to_string(),
            "mds-host-hn=lucky7, mds-vo-name=local, o=grid"
        );
        // Round trip.
        assert_eq!(Dn::parse(&dn.to_string()).unwrap(), dn);
    }

    #[test]
    fn case_insensitive_equality() {
        let a = Dn::parse("O=Grid").unwrap();
        let b = Dn::parse("o=grid").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parent_child_relations() {
        let root = Dn::parse("o=grid").unwrap();
        let vo = root.child("Mds-Vo-name", "local");
        let host = vo.child("Mds-Host-hn", "lucky7");
        assert_eq!(host.depth(), 3);
        assert_eq!(host.parent().unwrap(), vo);
        assert!(host.is_under(&root));
        assert!(host.is_under(&vo));
        assert!(host.is_under(&host));
        assert!(!vo.is_under(&host));
        assert!(host.is_child_of(&vo));
        assert!(!host.is_child_of(&root));
        assert_eq!(root.parent().unwrap(), Dn::root());
        assert!(Dn::root().parent().is_none());
    }

    #[test]
    fn everything_is_under_root() {
        let dn = Dn::parse("a=1, b=2").unwrap();
        assert!(dn.is_under(&Dn::root()));
    }

    #[test]
    fn rebase_moves_subtrees() {
        let gris_root = Dn::parse("Mds-Vo-name=local, o=grid").unwrap();
        let entry = Dn::parse("Mds-Host-hn=lucky7, Mds-Vo-name=local, o=grid").unwrap();
        let giis_root = Dn::parse("Mds-Vo-name=site, o=giis").unwrap();
        let rebased = entry.rebase(&gris_root, &giis_root).unwrap();
        assert_eq!(
            rebased.to_string(),
            "mds-host-hn=lucky7, mds-vo-name=site, o=giis"
        );
        // Not under the suffix -> None.
        let other = Dn::parse("x=1, o=elsewhere").unwrap();
        assert!(other.rebase(&gris_root, &giis_root).is_none());
    }

    #[test]
    fn parse_errors() {
        assert!(Dn::parse("no-equals").is_err());
        assert!(Dn::parse("=value").is_err());
        assert!(Dn::parse("attr=").is_err());
        assert!(Dn::parse("a=1,,b=2").is_err());
    }

    #[test]
    fn display_len_matches_rendering() {
        for s in [
            "",
            "o=grid",
            "a=1, b=2, o=grid",
            "Mds-Host-hn=Lucky7, o=Grid",
        ] {
            let dn = Dn::parse(s).unwrap();
            assert_eq!(dn.display_len(), dn.to_string().len(), "{s:?}");
        }
    }

    #[test]
    fn empty_is_root() {
        assert_eq!(Dn::parse("").unwrap().depth(), 0);
        assert_eq!(Dn::parse("   ").unwrap().depth(), 0);
    }

    #[test]
    fn ordering_matches_string_forms() {
        // Interning order must not leak into DN ordering: build DNs in
        // an order unrelated to their lexicographic rank.
        let raw = [
            "mds-host-hn=zz, o=grid",
            "mds-host-hn=aa, o=grid",
            "mds-vo-name=local, o=grid",
            "a=1",
            "o=grid",
        ];
        let mut dns: Vec<Dn> = raw.iter().map(|s| Dn::parse(s).unwrap()).collect();
        dns.sort();
        let mut strs: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        // The string form sorts component-wise like the structural
        // form for these single-attr-per-level DNs.
        strs.sort_by(|a, b| {
            let pa: Vec<&str> = a.split(", ").collect();
            let pb: Vec<&str> = b.split(", ").collect();
            pa.cmp(&pb)
        });
        assert_eq!(
            dns.iter().map(Dn::to_string).collect::<Vec<_>>(),
            strs,
            "DN order must match component-wise string order"
        );
    }

    #[test]
    fn clones_share_components() {
        let dn = Dn::parse("a=1, o=grid").unwrap();
        let copy = dn.clone();
        assert!(Rc::ptr_eq(&dn.rdns, &copy.rdns));
    }
}
