//! Directory entries: DN plus multi-valued attributes.
//!
//! Attribute names are interned [`Sym`]s and the attribute map lives
//! behind an `Rc`, so `Entry::clone` — which result assembly runs once
//! per hit per query — allocates nothing: search results, caches and
//! merge buffers all share one attribute map per stored entry.
//! Mutators go through `Rc::make_mut`, i.e. copy-on-write: editing an
//! entry that shares its attributes with a cached search result splits
//! the storage instead of corrupting the snapshot.
//!
//! `Sym` keys order as their strings do, so iteration and
//! rendering stay byte-identical to the `BTreeMap<String, _>` layout
//! they replaced.

use crate::dn::Dn;
use gintern::Sym;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Lowercase an attribute name only when it needs it.  Filter-derived and
/// merge-path names are already lowercase, so the common lookup does not
/// allocate.
fn lower(attr: &str) -> Cow<'_, str> {
    if attr.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(attr.to_ascii_lowercase())
    } else {
        Cow::Borrowed(attr)
    }
}

/// An LDAP entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub dn: Dn,
    /// Lowercased attribute type -> values (insertion order preserved).
    /// Shared between clones; mutated copy-on-write.
    attrs: Rc<BTreeMap<Sym, Vec<String>>>,
}

impl Entry {
    pub fn new(dn: Dn) -> Self {
        Entry {
            dn,
            attrs: Rc::new(BTreeMap::new()),
        }
    }

    /// Add a value to an attribute (duplicates allowed, as in slapd with
    /// permissive schema checking).
    pub fn add(&mut self, attr: &str, value: impl Into<String>) -> &mut Self {
        let key = gintern::intern(lower(attr).as_ref());
        let attrs = Rc::make_mut(&mut self.attrs);
        attrs.entry(key).or_default().push(value.into());
        self
    }

    /// Replace all values of an attribute.
    pub fn put(&mut self, attr: &str, value: impl Into<String>) -> &mut Self {
        let key = gintern::intern(lower(attr).as_ref());
        let attrs = Rc::make_mut(&mut self.attrs);
        let vs = attrs.entry(key).or_default();
        vs.clear();
        vs.push(value.into());
        self
    }

    /// Remove an attribute entirely.
    pub fn remove(&mut self, attr: &str) -> bool {
        // Lookup first: don't split shared storage to remove nothing.
        if !self.has_attr(attr) {
            return false;
        }
        Rc::make_mut(&mut self.attrs)
            .remove(lower(attr).as_ref() as &str)
            .is_some()
    }

    /// All values of an attribute.
    pub fn get(&self, attr: &str) -> &[String] {
        // Sym orders like its string, so the map is searchable by &str
        // without interning the probe.
        self.attrs
            .get(lower(attr).as_ref() as &str)
            .map_or(&[], Vec::as_slice)
    }

    /// First value of an attribute.
    pub fn first(&self, attr: &str) -> Option<&str> {
        self.get(attr).first().map(String::as_str)
    }

    pub fn has_attr(&self, attr: &str) -> bool {
        self.attrs.contains_key(lower(attr).as_ref() as &str)
    }

    /// Does any value of `attr` equal `value` case-insensitively?
    pub fn has_value(&self, attr: &str, value: &str) -> bool {
        self.get(attr).iter().any(|v| v.eq_ignore_ascii_case(value))
    }

    /// Iterate `(attr, values)` in sorted attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[String])> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Number of attribute types.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// Do `self` and `other` share one attribute map (clone that has
    /// not been split by a copy-on-write mutation)?
    pub fn shares_attrs_with(&self, other: &Entry) -> bool {
        Rc::ptr_eq(&self.attrs, &other.attrs)
    }

    /// Approximate serialized size in bytes (LDIF length), used for the
    /// simulated wire cost of returning this entry.
    pub fn wire_size(&self) -> u64 {
        let mut n = self.dn.display_len() + 5;
        for (a, vs) in self.iter() {
            for v in vs {
                n += a.len() + v.len() + 3;
            }
        }
        n as u64
    }

    /// `self.project(attrs).wire_size()` computed without materializing
    /// the projection — byte-for-byte the same accounting (lowercasing a
    /// selected name preserves its length, and duplicate selections
    /// double-count in both forms).  Accepts any string-ish slice
    /// (`&[&str]`, `&[String]`, `&[Sym]`, ...).
    pub fn projected_wire_size<S: AsRef<str>>(&self, attrs: &[S]) -> u64 {
        let mut n = self.dn.display_len() + 5;
        for a in attrs {
            let a = a.as_ref();
            for v in self.get(a) {
                n += a.len() + v.len() + 3;
            }
        }
        n as u64
    }

    /// LDAP attribute selection: a copy of this entry keeping only the
    /// requested attribute types (requested names are matched
    /// case-insensitively; unknown names are simply absent).  Accepts
    /// any string-ish slice (`&[&str]`, `&[String]`, ...).
    pub fn project<S: AsRef<str>>(&self, attrs: &[S]) -> Entry {
        let mut e = Entry::new(self.dn.clone());
        for a in attrs {
            let a = a.as_ref();
            for v in self.get(a) {
                e.add(a, v.clone());
            }
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> Entry {
        let mut e = Entry::new(Dn::parse("mds-host-hn=lucky7, o=grid").unwrap());
        e.add("objectclass", "MdsHost")
            .add("objectclass", "MdsComputer")
            .add("Mds-Cpu-Total-count", "2");
        e
    }

    #[test]
    fn add_and_get_case_insensitive() {
        let e = entry();
        assert_eq!(e.get("OBJECTCLASS").len(), 2);
        assert_eq!(e.first("mds-cpu-total-count"), Some("2"));
        assert!(e.has_attr("ObjectClass"));
        assert!(!e.has_attr("missing"));
        assert!(e.get("missing").is_empty());
    }

    #[test]
    fn has_value_ignores_case() {
        let e = entry();
        assert!(e.has_value("objectclass", "mdshost"));
        assert!(e.has_value("OBJECTCLASS", "MDSHOST"));
        assert!(!e.has_value("objectclass", "MdsVo"));
    }

    #[test]
    fn put_replaces() {
        let mut e = entry();
        e.put("Mds-Cpu-Total-count", "4");
        assert_eq!(e.get("mds-cpu-total-count"), &["4".to_string()]);
        assert!(e.remove("objectclass"));
        assert!(!e.remove("objectclass"));
        assert_eq!(e.attr_count(), 1);
    }

    #[test]
    fn projection_keeps_requested_attrs() {
        let e = entry();
        let p = e.project(&["OBJECTCLASS".to_string(), "missing".to_string()]);
        assert_eq!(p.dn, e.dn);
        assert_eq!(p.attr_count(), 1);
        assert_eq!(p.get("objectclass").len(), 2);
        assert!(p.wire_size() < e.wire_size());
    }

    #[test]
    fn projection_accepts_borrowed_slices() {
        // The satellite case: callers with `&[&str]` (or any
        // AsRef<str> slice) must not have to allocate owned vectors.
        let e = entry();
        let p = e.project(&["OBJECTCLASS", "missing"]);
        assert_eq!(p.attr_count(), 1);
        assert_eq!(p.get("objectclass").len(), 2);
        assert_eq!(
            e.projected_wire_size(&["OBJECTCLASS", "missing"]),
            p.wire_size()
        );
        // ... and the owned form still agrees with the borrowed one.
        let owned = vec!["OBJECTCLASS".to_string(), "missing".to_string()];
        assert_eq!(e.project(&owned), p);
        assert_eq!(e.projected_wire_size(&owned), p.wire_size());
    }

    #[test]
    fn projected_wire_size_matches_materialized_projection() {
        let e = entry();
        for sel in [
            vec!["OBJECTCLASS".to_string()],
            vec!["objectclass".to_string(), "mds-cpu-total-count".to_string()],
            vec!["objectclass".to_string(), "OBJECTCLASS".to_string()],
            vec!["missing".to_string()],
            vec![],
        ] {
            assert_eq!(
                e.projected_wire_size(&sel),
                e.project(&sel).wire_size(),
                "{sel:?}"
            );
        }
    }

    #[test]
    fn wire_size_reflects_content() {
        let small = entry();
        let mut big = entry();
        for i in 0..50 {
            big.add("Mds-Memory-Ram-freeMB", format!("{}", 100 + i));
        }
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn clones_share_until_mutated() {
        let e = entry();
        let mut copy = e.clone();
        assert!(copy.shares_attrs_with(&e));
        // Copy-on-write: mutating the clone splits the storage and
        // leaves the original untouched.
        copy.put("Mds-Cpu-Total-count", "8");
        assert!(!copy.shares_attrs_with(&e));
        assert_eq!(e.first("mds-cpu-total-count"), Some("2"));
        assert_eq!(copy.first("mds-cpu-total-count"), Some("8"));
        // Removing an absent attr does not split sharing.
        let mut copy2 = e.clone();
        assert!(!copy2.remove("missing"));
        assert!(copy2.shares_attrs_with(&e));
    }
}
