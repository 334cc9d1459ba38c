//! Directory entries: DN plus multi-valued attributes.
//!
//! An entry's attributes are one flat list of `(type, value)` pairs of
//! interned [`Sym`]s, one per value (the type lowercase, the value as
//! given), so an entry owns no strings.  Types are in their strings'
//! order, each type's values one run in insertion order, so iteration and
//! LDIF match the `BTreeMap<String, Vec<String>>` they replaced byte for
//! byte.  A run is found by `Sym` with a scan comparing `u32`s.  The
//! list's LDIF byte count sits beside it, so [`Entry::wire_size`] adds two
//! numbers (DESIGN §6g).  Both share one `Rc`: `Entry::clone` allocates
//! nothing, and mutators go through `Rc::make_mut` (copy-on-write), so
//! editing an entry never changes a cached search result that shares it.

use crate::dn::Dn;
use gintern::Sym;
use std::ops::Range;
use std::rc::Rc;

/// One attribute value (case-preserved) under its (lowercase) type.
pub type Pair = (Sym, Sym);

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
    /// One pair per value: types in string order, each type's values
    /// in insertion order.
    list: Vec<Pair>,
}

impl Attrs {
    /// Where the values of `key` are; an empty range at the place they
    /// would go when there are none.
    fn run(&self, key: Sym) -> Range<usize> {
        let start = self.list.partition_point(|(k, _)| *k < key);
        let len = self.list[start..].iter().take_while(|(k, _)| *k == key);
        start..start + len.count()
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
    pub fn add(&mut self, attr: &str, value: impl AsRef<str>) -> &mut Self {
        let key = gintern::intern_lower(attr);
        let value = gintern::intern(value.as_ref());
        let attrs = Rc::make_mut(&mut self.attrs);
        attrs.bytes += attr.len() + value.len() + 3;
        let end = attrs.run(key).end;
        attrs.list.insert(end, (key, value));
        self
    }

    /// Replace all values of an attribute.
    pub fn put(&mut self, attr: &str, value: impl AsRef<str>) -> &mut Self {
        let key = gintern::intern_lower(attr);
        let value = gintern::intern(value.as_ref());
        let attrs = Rc::make_mut(&mut self.attrs);
        attrs.bytes += attr.len() + value.len() + 3;
        let run = attrs.run(key);
        attrs.bytes -= lines(attr.len(), &attrs.list[run.clone()]);
        attrs.list.splice(run, [(key, value)]);
        self
    }

    /// All values of an attribute: its run of pairs.
    pub fn get(&self, attr: &str) -> &[Pair] {
        gintern::lookup_lower(attr).map_or(&[], |key| self.values(key))
    }

    /// The run of pairs of the (lowercase) attribute type `key`; empty
    /// when the entry does not hold it.
    pub(crate) fn values(&self, key: Sym) -> &[Pair] {
        let list = &self.attrs.list;
        let start = list.iter().take_while(|(k, _)| *k != key).count();
        let len = list[start..].iter().take_while(|(k, _)| *k == key).count();
        &list[start..start + len]
    }

    /// Iterate `(attr, value)` lines: attributes in sorted order, each
    /// one's values in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs
            .list
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
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

    /// LDAP attribute selection: a copy of this entry keeping only the
    /// requested attribute types (requested names are matched
    /// case-insensitively; unknown names are simply absent).  Accepts
    /// any string-ish slice (`&[&str]`, `&[String]`, ...).
    pub fn project<S: AsRef<str>>(&self, attrs: &[S]) -> Entry {
        let mut e = Entry::new(self.dn.clone());
        for a in attrs {
            let a = a.as_ref();
            for (_, v) in self.get(a) {
                e.add(a, v);
            }
        }
        e
    }
}

/// The LDIF bytes of `run` under a name `name` bytes long.
fn lines(name: usize, run: &[Pair]) -> usize {
    run.iter().map(|(_, v)| name + v.len() + 3).sum()
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

    /// The first value of `attr`, as `get` returns it.
    fn first<'e>(e: &'e Entry, attr: &str) -> Option<&'e str> {
        e.get(attr).first().map(|(_, v)| v.as_str())
    }

    #[test]
    fn add_and_get_case_insensitive() {
        let e = entry();
        assert_eq!(e.get("OBJECTCLASS").len(), 2);
        assert_eq!(first(&e, "mds-cpu-total-count"), Some("2"));
        assert!(!e.get("ObjectClass").is_empty());
        assert!(e.get("missing").is_empty());
    }

    #[test]
    fn put_replaces() {
        let mut e = entry();
        e.put("Mds-Cpu-Total-count", "4");
        let key = gintern::intern("mds-cpu-total-count");
        assert_eq!(e.get("mds-cpu-total-count"), &[(key, "4".into())]);
        assert_eq!(e.iter().count(), 3);
    }

    #[test]
    fn projection_keeps_requested_attrs() {
        let e = entry();
        let p = e.project(&["OBJECTCLASS".to_string(), "missing".to_string()]);
        assert_eq!(p.dn, e.dn);
        assert_eq!(p.iter().count(), 2);
        assert_eq!(p.get("objectclass").len(), 2);
        assert!(p.wire_size() < e.wire_size());
    }

    #[test]
    fn projection_accepts_borrowed_slices() {
        // The satellite case: callers with `&[&str]` (or any
        // AsRef<str> slice) must not have to allocate owned vectors.
        let e = entry();
        let p = e.project(&["OBJECTCLASS", "missing"]);
        assert_eq!(p.iter().count(), 2);
        assert_eq!(p.get("objectclass").len(), 2);
        // ... and the owned form agrees with the borrowed one.
        let owned = vec!["OBJECTCLASS".to_string(), "missing".to_string()];
        assert_eq!(e.project(&owned), p);
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
        assert_eq!(first(&e, "mds-cpu-total-count"), Some("2"));
        assert_eq!(first(&copy, "mds-cpu-total-count"), Some("8"));
    }
}
