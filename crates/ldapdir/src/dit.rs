//! The directory information tree.
//!
//! A [`Dit`] stores entries under a suffix DN and supports the three LDAP
//! search scopes.  Parents must exist before children (as in slapd); the
//! suffix entry itself is created automatically as an organizational
//! placeholder.
//!
//! The tree is change-aware: [`Dit::generation`] moves only when
//! search-visible content may have changed.  Soft-state writers (a GRIS
//! re-running a provider, a GIIS re-merging a pulled subtree) mostly
//! [`Dit::upsert`] entries identical to the stored ones; those writes
//! leave the generation alone, so results memoised on it stay valid.
//!
//! The tree is one DN-ordered set of entries, each keyed by its own DN.
//! `add`, `add_with_parents` and `upsert` share one insert path: a parent
//! probe by its RDN slice and one set insert, which finds a stored DN a
//! duplicate (an `upsert` of a stored DN is one lookup, plus a replace if
//! it changed).  Other scopes than `Sub` from the suffix are one pass.

use crate::dn::{Dn, Rdn};
use crate::entry::Entry;
use crate::filter::Filter;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// Search scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The base entry only.
    Base,
    /// Immediate children of the base.
    One,
    /// The base and its whole subtree.
    Sub,
}

/// DIT operation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DitError {
    NotUnderSuffix(Dn),
    NoParent(Dn),
    Duplicate(Dn),
    NoSuchEntry(Dn),
}

impl fmt::Display for DitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DitError::NotUnderSuffix(dn) => write!(f, "{dn} is not under the suffix"),
            DitError::NoParent(dn) => write!(f, "parent of {dn} does not exist"),
            DitError::Duplicate(dn) => write!(f, "{dn} already exists"),
            DitError::NoSuchEntry(dn) => write!(f, "{dn} does not exist"),
        }
    }
}

impl std::error::Error for DitError {}

/// An entry that compares, orders and borrows as its DN's RDN slice, so
/// the set keys it by its own DN and is probed by any slice in one walk.
#[derive(Debug, Clone)]
struct Stored(Entry);

impl Borrow<[Rdn]> for Stored {
    fn borrow(&self) -> &[Rdn] {
        key(&self.0.dn)
    }
}

impl PartialEq for Stored {
    fn eq(&self, other: &Stored) -> bool {
        key(&self.0.dn) == key(&other.0.dn)
    }
}

impl Eq for Stored {}

impl PartialOrd for Stored {
    fn partial_cmp(&self, other: &Stored) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Stored {
    fn cmp(&self, other: &Stored) -> Ordering {
        key(&self.0.dn).cmp(key(&other.0.dn))
    }
}

/// The key a DN is stored under.
fn key(dn: &Dn) -> &[Rdn] {
    dn.borrow()
}

/// An in-memory directory tree.
#[derive(Debug, Clone)]
pub struct Dit {
    suffix: Dn,
    /// Every entry, in DN order.
    entries: BTreeSet<Stored>,
    /// Bumped whenever search-visible content may have changed, so
    /// callers can cache derived results — e.g. materialized search
    /// responses — keyed on it.
    generation: u64,
}

impl Dit {
    /// Create a DIT with the given suffix; the suffix entry is created as
    /// a placeholder.
    pub fn new(suffix: Dn) -> Self {
        let mut root = Entry::new(suffix.clone());
        root.add("objectclass", "top");
        let entries = BTreeSet::from([Stored(root)]);
        Dit {
            suffix,
            entries,
            generation: 0,
        }
    }

    /// A counter that changes whenever the tree may have changed.  Two
    /// equal generations guarantee identical search results; an `upsert`
    /// of an entry equal to the stored one is not a change.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Insert a new entry; its parent must already exist.
    pub fn add(&mut self, entry: Entry) -> Result<(), DitError> {
        self.insert(entry, false)
    }

    /// Insert, creating any missing intermediate entries as placeholders.
    pub fn add_with_parents(&mut self, entry: Entry) -> Result<(), DitError> {
        self.insert(entry, true)
    }

    /// Replace an existing entry's attributes (same DN), or insert it as
    /// [`Dit::add_with_parents`] does.  Re-announcing an entry equal to
    /// the stored one changes nothing, not even the generation.
    pub fn upsert(&mut self, entry: Entry) -> Result<(), DitError> {
        let Some(Stored(stored)) = self.entries.get(key(&entry.dn)) else {
            return self.insert(entry, true);
        };
        // Pointer first: a copy-on-write clone of the stored entry (a
        // provider's own copy, a pulled GRIS reply) shares its
        // attributes, so the deep compare is rare.
        if !stored.shares_attrs_with(&entry) && *stored != entry {
            self.entries.replace(Stored(entry));
            self.generation += 1;
        }
        Ok(())
    }

    /// The one insert path.  `with_parents` makes a missing parent first,
    /// by this same path, up to the first one present; the suffix itself
    /// is never made.
    fn insert(&mut self, entry: Entry, with_parents: bool) -> Result<(), DitError> {
        let dn = entry.dn.clone();
        if !dn.is_under(&self.suffix) {
            return Err(DitError::NotUnderSuffix(dn));
        }
        // The parent is probed by its RDN slice, without building its DN.
        let mut has_parent = self.entries.contains(&key(&dn)[1..]);
        if !has_parent && with_parents && dn.depth() != self.suffix.depth() + 1 {
            let parent = dn.parent().expect("entry under suffix has a parent");
            let mut placeholder = Entry::new(parent);
            placeholder.add("objectclass", "top");
            self.insert(placeholder, true)?;
            has_parent = true;
        }
        // The one DN stored without its parent is the suffix's.
        if !has_parent && !self.entries.contains(key(&dn)) {
            return Err(DitError::NoParent(dn));
        }
        if !has_parent || !self.entries.insert(Stored(entry)) {
            return Err(DitError::Duplicate(dn));
        }
        self.generation += 1;
        Ok(())
    }

    /// Remove an entry and its whole subtree; returns how many entries
    /// were removed.
    pub fn remove_subtree(&mut self, dn: &Dn) -> Result<usize, DitError> {
        if !self.entries.contains(key(dn)) {
            return Err(DitError::NoSuchEntry(dn.clone()));
        }
        let before = self.entries.len();
        self.entries.retain(|Stored(e)| !e.dn.is_under(dn));
        self.generation += 1;
        Ok(before - self.entries.len())
    }

    pub fn get(&self, dn: &Dn) -> Option<&Entry> {
        self.entries.get(key(dn)).map(|Stored(e)| e)
    }

    /// LDAP search: entries in `scope` of `base` matching `filter`, in DN
    /// order.
    pub fn search(&self, base: &Dn, scope: Scope, filter: &Filter) -> Vec<&Entry> {
        let mut out = Vec::new();
        match scope {
            Scope::Base => {
                if let Some(e) = self.get(base) {
                    if filter.matches(e) {
                        out.push(e);
                    }
                }
            }
            // Every stored entry is under the suffix, so a Sub search
            // from it is the whole set in DN order; any other base is
            // one filtered pass over the set.
            Scope::Sub if *base == self.suffix => {
                out.extend(self.iter().filter(|e| filter.matches(e)));
            }
            // Parents are stored before children, so a base that is not
            // stored has nothing under it; one above the suffix is not
            // in this tree at all.
            _ if !self.entries.contains(key(base)) => {}
            Scope::One | Scope::Sub => {
                let in_scope = |dn: &Dn| match scope {
                    Scope::One => dn.is_child_of(base),
                    _ => dn.is_under(base),
                };
                out.extend(self.iter().filter(|e| in_scope(&e.dn) && filter.matches(e)));
            }
        }
        out
    }

    /// Count of entries examined by a `Sub` search from the suffix — the
    /// work a filter evaluation must do (for simulated CPU cost).
    pub fn scan_size(&self) -> usize {
        self.entries.len()
    }

    /// Iterate all entries in DN order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.entries.iter().map(|Stored(e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dit() -> Dit {
        let mut d = Dit::new(Dn::parse("o=grid").unwrap());
        let mut vo = Entry::new(Dn::parse("mds-vo-name=local, o=grid").unwrap());
        vo.add("objectclass", "MdsVo");
        d.add(vo).unwrap();
        for host in ["lucky3", "lucky4", "lucky7"] {
            let mut e = Entry::new(
                Dn::parse(&format!("mds-host-hn={host}, mds-vo-name=local, o=grid")).unwrap(),
            );
            e.add("objectclass", "MdsHost").add("Mds-Host-hn", host);
            d.add(e).unwrap();
        }
        let mut cpu = Entry::new(
            Dn::parse("mds-device-group-name=cpu, mds-host-hn=lucky7, mds-vo-name=local, o=grid")
                .unwrap(),
        );
        cpu.add("objectclass", "MdsCpu")
            .add("Mds-Cpu-Total-count", "2");
        d.add(cpu).unwrap();
        d
    }

    #[test]
    fn build_and_count() {
        let d = dit();
        assert_eq!(d.scan_size(), 6); // suffix + vo + 3 hosts + cpu
    }

    #[test]
    fn add_requires_parent() {
        let mut d = Dit::new(Dn::parse("o=grid").unwrap());
        let orphan = Entry::new(Dn::parse("a=1, b=2, o=grid").unwrap());
        assert!(matches!(d.add(orphan.clone()), Err(DitError::NoParent(_))));
        d.add_with_parents(orphan).unwrap();
        assert_eq!(d.scan_size(), 3);
        // Outside the suffix.
        let alien = Entry::new(Dn::parse("x=1, o=elsewhere").unwrap());
        assert!(matches!(d.add(alien), Err(DitError::NotUnderSuffix(_))));
    }

    #[test]
    fn duplicate_rejected_upsert_replaces() {
        let mut d = dit();
        let dup = Entry::new(Dn::parse("mds-vo-name=local, o=grid").unwrap());
        assert!(matches!(d.add(dup.clone()), Err(DitError::Duplicate(_))));
        let mut replacement = dup;
        replacement.add("objectclass", "MdsVoUpdated");
        d.upsert(replacement).unwrap();
        let vo = d.get(&Dn::parse("mds-vo-name=local, o=grid").unwrap());
        assert_eq!(vo.unwrap().get("objectclass")[0].1.as_str(), "MdsVoUpdated");
        assert_eq!(d.scan_size(), 6);
    }

    #[test]
    fn scoped_searches() {
        let d = dit();
        let base = Dn::parse("mds-vo-name=local, o=grid").unwrap();
        let any = Filter::any();
        assert_eq!(d.search(&base, Scope::Base, &any).len(), 1);
        assert_eq!(d.search(&base, Scope::One, &any).len(), 3);
        assert_eq!(d.search(&base, Scope::Sub, &any).len(), 5); // vo + 3 hosts + cpu
        let f = Filter::parse("(objectclass=mdshost)").unwrap();
        assert_eq!(d.search(&base, Scope::Sub, &f).len(), 3);
        let f = Filter::parse("(mds-cpu-total-count=2)").unwrap();
        assert_eq!(d.search(&base, Scope::Sub, &f).len(), 1);
    }

    #[test]
    fn search_from_missing_base_is_empty() {
        let d = dit();
        let missing = Dn::parse("mds-vo-name=nowhere, o=grid").unwrap();
        assert!(d.search(&missing, Scope::Sub, &Filter::any()).is_empty());
        assert!(d.search(&missing, Scope::Base, &Filter::any()).is_empty());
        // Above the suffix is outside the tree, in every scope.
        for scope in [Scope::Base, Scope::One, Scope::Sub] {
            assert!(d.search(&Dn::root(), scope, &Filter::any()).is_empty());
        }
    }

    #[test]
    fn remove_subtree_cascades() {
        let mut d = dit();
        let host = Dn::parse("mds-host-hn=lucky7, mds-vo-name=local, o=grid").unwrap();
        let removed = d.remove_subtree(&host).unwrap();
        assert_eq!(removed, 2); // host + its cpu child
        assert_eq!(d.scan_size(), 4);
        assert!(d.get(&host).is_none());
        assert!(matches!(
            d.remove_subtree(&host),
            Err(DitError::NoSuchEntry(_))
        ));
        // Sibling hosts untouched.
        let (suffix, f) = (
            Dn::parse("o=grid").unwrap(),
            Filter::parse("(objectclass=mdshost)"),
        );
        assert_eq!(d.search(&suffix, Scope::Sub, &f.unwrap()).len(), 2);
    }
}
