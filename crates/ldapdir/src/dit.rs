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

use crate::dn::Dn;
use crate::entry::Entry;
use crate::filter::Filter;
use std::collections::{BTreeMap, BTreeSet};
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

/// An in-memory directory tree.
#[derive(Debug, Clone)]
pub struct Dit {
    suffix: Dn,
    /// DN -> entry. BTreeMap gives deterministic iteration.
    entries: BTreeMap<Dn, Entry>,
    /// Parent DN -> children DNs.
    children: BTreeMap<Dn, BTreeSet<Dn>>,
    /// Bumped whenever search-visible content may have changed, so
    /// callers can cache derived results — e.g. materialized search
    /// responses — keyed on it.
    generation: u64,
}

impl Dit {
    /// Create a DIT with the given suffix; the suffix entry is created as
    /// a placeholder.
    pub fn new(suffix: Dn) -> Self {
        let mut entries = BTreeMap::new();
        let mut root = Entry::new(suffix.clone());
        root.add("objectclass", "top");
        entries.insert(suffix.clone(), root);
        Dit {
            suffix,
            entries,
            children: BTreeMap::new(),
            generation: 0,
        }
    }

    pub fn suffix(&self) -> &Dn {
        &self.suffix
    }

    /// A counter that changes whenever the tree may have changed.  Two
    /// equal generations guarantee identical search results; an `upsert`
    /// of an entry equal to the stored one is not a change.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of entries (including the suffix placeholder).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert a new entry; its parent must already exist.
    pub fn add(&mut self, entry: Entry) -> Result<(), DitError> {
        let dn = entry.dn.clone();
        if !dn.is_under(&self.suffix) {
            return Err(DitError::NotUnderSuffix(dn));
        }
        if self.entries.contains_key(&dn) {
            return Err(DitError::Duplicate(dn));
        }
        let parent = dn.parent().expect("entry under suffix has a parent");
        if !self.entries.contains_key(&parent) {
            return Err(DitError::NoParent(dn));
        }
        self.children.entry(parent).or_default().insert(dn.clone());
        self.entries.insert(dn, entry);
        self.generation += 1;
        Ok(())
    }

    /// Insert, creating any missing intermediate entries as placeholders.
    pub fn add_with_parents(&mut self, entry: Entry) -> Result<(), DitError> {
        let dn = entry.dn.clone();
        if !dn.is_under(&self.suffix) {
            return Err(DitError::NotUnderSuffix(dn));
        }
        // Build the chain of missing ancestors (closest to suffix first).
        let mut chain = Vec::new();
        let mut cur = dn.parent();
        while let Some(p) = cur {
            if p == self.suffix || self.entries.contains_key(&p) {
                break;
            }
            chain.push(p.clone());
            cur = p.parent();
        }
        for p in chain.into_iter().rev() {
            let mut placeholder = Entry::new(p.clone());
            placeholder.add("objectclass", "top");
            self.add(placeholder)?;
        }
        self.add(entry)
    }

    /// Replace an existing entry's attributes (same DN), or insert it.
    /// Re-announcing an entry equal to the stored one changes nothing,
    /// not even the generation.
    pub fn upsert(&mut self, entry: Entry) -> Result<(), DitError> {
        match self.entries.get_mut(&entry.dn) {
            Some(slot) => {
                // Pointer first: a copy-on-write clone of the stored
                // entry (a provider's own copy, a pulled GRIS reply)
                // shares its attribute map, so the deep compare is rare.
                if !slot.shares_attrs_with(&entry) && *slot != entry {
                    *slot = entry;
                    self.generation += 1;
                }
                Ok(())
            }
            None => self.add_with_parents(entry),
        }
    }

    /// Remove an entry and its whole subtree; returns how many entries
    /// were removed.
    pub fn remove_subtree(&mut self, dn: &Dn) -> Result<usize, DitError> {
        if !self.entries.contains_key(dn) {
            return Err(DitError::NoSuchEntry(dn.clone()));
        }
        let mut stack = vec![dn.clone()];
        let mut removed = 0;
        while let Some(cur) = stack.pop() {
            if let Some(kids) = self.children.remove(&cur) {
                stack.extend(kids);
            }
            if self.entries.remove(&cur).is_some() {
                removed += 1;
            }
        }
        if let Some(parent) = dn.parent() {
            if let Some(sibs) = self.children.get_mut(&parent) {
                sibs.remove(dn);
            }
        }
        self.generation += 1;
        Ok(removed)
    }

    pub fn get(&self, dn: &Dn) -> Option<&Entry> {
        self.entries.get(dn)
    }

    pub fn get_mut(&mut self, dn: &Dn) -> Option<&mut Entry> {
        // The caller holds a mutable handle: assume the entry changes.
        self.generation += 1;
        self.entries.get_mut(dn)
    }

    /// LDAP search: entries in `scope` of `base` matching `filter`, in DN
    /// order.
    pub fn search(&self, base: &Dn, scope: Scope, filter: &Filter) -> Vec<&Entry> {
        let mut out = Vec::new();
        match scope {
            Scope::Base => {
                if let Some(e) = self.entries.get(base) {
                    if filter.matches(e) {
                        out.push(e);
                    }
                }
            }
            Scope::One => {
                if let Some(kids) = self.children.get(base) {
                    for dn in kids {
                        let e = &self.entries[dn];
                        if filter.matches(e) {
                            out.push(e);
                        }
                    }
                }
            }
            Scope::Sub => {
                // Every stored entry is connected to the suffix through
                // the child index (`add` requires the parent, removal is
                // whole-subtree), so a Sub search from the suffix is the
                // whole map in key order — no walk, no sort, no clones.
                if *base == self.suffix {
                    out.extend(self.entries.values().filter(|e| filter.matches(e)));
                } else {
                    // BTreeMap ordering doesn't group subtrees (DNs sort
                    // lexicographically by leading RDN), so walk the
                    // child index, collecting borrowed entries.
                    let mut stack = vec![base];
                    let mut hits: Vec<&Entry> = Vec::new();
                    while let Some(cur) = stack.pop() {
                        if let Some(e) = self.entries.get(cur) {
                            hits.push(e);
                        }
                        if let Some(kids) = self.children.get(cur) {
                            stack.extend(kids.iter());
                        }
                    }
                    hits.sort_by(|a, b| a.dn.cmp(&b.dn));
                    out.extend(hits.into_iter().filter(|e| filter.matches(e)));
                }
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
        self.entries.values()
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
        assert_eq!(d.len(), 6); // suffix + vo + 3 hosts + cpu
    }

    #[test]
    fn add_requires_parent() {
        let mut d = Dit::new(Dn::parse("o=grid").unwrap());
        let orphan = Entry::new(Dn::parse("a=1, b=2, o=grid").unwrap());
        assert!(matches!(d.add(orphan.clone()), Err(DitError::NoParent(_))));
        d.add_with_parents(orphan).unwrap();
        assert_eq!(d.len(), 3);
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
        assert!(d
            .get(&Dn::parse("mds-vo-name=local, o=grid").unwrap())
            .unwrap()
            .has_value("objectclass", "MdsVoUpdated"));
        assert_eq!(d.len(), 6);
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
    }

    #[test]
    fn remove_subtree_cascades() {
        let mut d = dit();
        let host = Dn::parse("mds-host-hn=lucky7, mds-vo-name=local, o=grid").unwrap();
        let removed = d.remove_subtree(&host).unwrap();
        assert_eq!(removed, 2); // host + its cpu child
        assert_eq!(d.len(), 4);
        assert!(d.get(&host).is_none());
        assert!(matches!(
            d.remove_subtree(&host),
            Err(DitError::NoSuchEntry(_))
        ));
        // Sibling hosts untouched.
        let f = Filter::parse("(objectclass=mdshost)").unwrap();
        assert_eq!(d.search(d.suffix(), Scope::Sub, &f).len(), 2);
    }
}
