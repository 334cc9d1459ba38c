//! Directory entries: DN plus multi-valued attributes.
//!
//! Attribute names are interned [`Sym`]s in a `Vec` kept in the names'
//! string order, so iteration and rendering match the `BTreeMap<String,
//! _>` they replaced byte for byte.  An entry has a handful of them:
//! finding one by `Sym` is a scan comparing `u32`s, and the `&str` API
//! resolves its name once through [`gintern::lookup`].  The list keeps
//! its LDIF byte count beside it, so [`Entry::wire_size`] adds two
//! numbers (DESIGN §6g, "Wire accounting").  Both sit behind one `Rc`:
//! `Entry::clone`, run once per hit per query, allocates nothing, and
//! mutators go through `Rc::make_mut` (copy-on-write), so editing an
//! entry never changes a cached search result that shares it.

use crate::dn::{lc, Dn};
use gintern::Sym;
use std::rc::Rc;

/// An LDAP entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub dn: Dn,
    /// Shared between clones; mutated copy-on-write.
    attrs: Rc<Attrs>,
}

/// The attributes of an entry.  `bytes` is derived from `list`, and
/// compared first: unequal sizes settle most unequal entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Attrs {
    /// Σ over values of `attr.len() + value.len() + 3` (`"attr: value\n"`).
    bytes: usize,
    /// Lowercased attribute type -> values (insertion order preserved),
    /// sorted by the types' strings.
    list: Vec<(Sym, Vec<String>)>,
}

impl Attrs {
    /// The values of `key`, created empty if absent.
    fn slot(&mut self, key: Sym) -> &mut Vec<String> {
        let i = self.list.binary_search_by(|(k, _)| k.cmp(&key));
        let i = i.unwrap_or_else(|i| {
            self.list.insert(i, (key, Vec::new()));
            i
        });
        &mut self.list[i].1
    }

    /// The LDIF bytes of `values` under a name `name` bytes long.
    fn lines(name: usize, values: &[String]) -> usize {
        values.iter().map(|v| name + v.len() + 3).sum()
    }
}

impl Entry {
    pub fn new(dn: Dn) -> Self {
        Entry {
            dn,
            attrs: Rc::default(),
        }
    }

    /// Add a value to an attribute (duplicates allowed, as in slapd with
    /// permissive schema checking).
    pub fn add(&mut self, attr: &str, value: impl Into<String>) -> &mut Self {
        let key = gintern::intern(&lc(attr));
        let value = value.into();
        let attrs = Rc::make_mut(&mut self.attrs);
        attrs.bytes += attr.len() + value.len() + 3;
        attrs.slot(key).push(value);
        self
    }

    /// Replace all values of an attribute.
    pub fn put(&mut self, attr: &str, value: impl Into<String>) -> &mut Self {
        let key = gintern::intern(&lc(attr));
        let value = value.into();
        let added = attr.len() + value.len() + 3;
        let attrs = Rc::make_mut(&mut self.attrs);
        let vs = attrs.slot(key);
        let gone = Attrs::lines(attr.len(), vs);
        vs.clear();
        vs.push(value);
        attrs.bytes = attrs.bytes + added - gone;
        self
    }

    /// Remove an attribute entirely.
    pub fn remove(&mut self, attr: &str) -> bool {
        let Some(key) = gintern::lookup(&lc(attr)) else {
            return false;
        };
        // Look first: don't split shared storage to remove nothing.
        let Some(i) = self.attrs.list.iter().position(|(k, _)| *k == key) else {
            return false;
        };
        let attrs = Rc::make_mut(&mut self.attrs);
        attrs.bytes -= Attrs::lines(attr.len(), &attrs.list.remove(i).1);
        true
    }

    /// All values of an attribute.
    pub fn get(&self, attr: &str) -> &[String] {
        gintern::lookup(&lc(attr)).map_or(&[], |key| self.values(key))
    }

    /// All values of the (lowercase) attribute type `key`; empty when
    /// the entry does not hold it (a held type has at least one value).
    pub(crate) fn values(&self, key: Sym) -> &[String] {
        let found = self.attrs.list.iter().find(|(k, _)| *k == key);
        found.map_or(&[], |(_, vs)| vs.as_slice())
    }

    /// First value of an attribute.
    pub fn first(&self, attr: &str) -> Option<&str> {
        self.get(attr).first().map(String::as_str)
    }

    pub fn has_attr(&self, attr: &str) -> bool {
        !self.get(attr).is_empty()
    }

    /// Does any value of `attr` equal `value` case-insensitively?
    pub fn has_value(&self, attr: &str, value: &str) -> bool {
        self.get(attr).iter().any(|v| v.eq_ignore_ascii_case(value))
    }

    /// Iterate `(attr, values)` in sorted attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[String])> {
        let list = self.attrs.list.iter();
        list.map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Number of attribute types.
    pub fn attr_count(&self) -> usize {
        self.attrs.list.len()
    }

    /// Do `self` and `other` share one attribute list (clone that has
    /// not been split by a copy-on-write mutation)?
    pub fn shares_attrs_with(&self, other: &Entry) -> bool {
        Rc::ptr_eq(&self.attrs, &other.attrs)
    }

    /// Serialized size in bytes (LDIF length), used for the simulated
    /// wire cost of returning this entry.
    pub fn wire_size(&self) -> u64 {
        (self.dn.display_len() + 5 + self.attrs.bytes) as u64
    }

    /// `self.project(attrs).wire_size()` computed without materializing
    /// the projection — byte-for-byte the same accounting (lowercasing a
    /// selected name preserves its length, and duplicate selections
    /// double-count in both forms).  Accepts any string-ish slice
    /// (`&[&str]`, `&[String]`, `&[Sym]`, ...).
    pub fn projected_wire_size<S: AsRef<str>>(&self, attrs: &[S]) -> u64 {
        let lines = attrs.iter().map(|a| a.as_ref());
        let lines: usize = lines.map(|a| Attrs::lines(a.len(), self.get(a))).sum();
        (self.dn.display_len() + 5 + lines) as u64
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
