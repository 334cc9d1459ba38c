//! Materialized search-result cache shared by GRIS and GIIS.
//!
//! Experiment workloads hammer a server with the *same* LDAP query
//! thousands of times between directory mutations.  Evaluating the
//! search and cloning every matching entry into the reply payload per
//! query dominated harness wall time, so both services memoize the
//! materialized result keyed on the query shape plus the directory's
//! [`Dit::generation`] counter.  A cached reply is byte-identical to a
//! recomputed one (same `total`, `bytes` and entry payload) and the
//! *simulated* CPU cost is still charged per query by the caller, so
//! figures are unaffected — only real time is saved.
//!
//! The generation moves only when the directory's content changed, so a
//! memo outlives soft-state refreshes that re-announce identical data:
//! a GRIS keeps handing out the same `Rc` across provider re-runs, and
//! the GIIS above recognises that `Rc` and skips the re-merge (see
//! `Giis::resume`).

use ldapdir::{Dit, Dn, Entry, Filter, Scope};
use std::rc::Rc;

/// Identity of a search as the service saw it.
struct QueryKey {
    base: Dn,
    scope: Scope,
    filter: Filter,
    attrs: Option<Vec<String>>,
}

/// The reusable parts of a search reply.  `entries` is refcounted so a
/// cache hit shares one materialization across any number of replies.
#[derive(Clone)]
pub struct CachedResult {
    pub total: usize,
    pub bytes: u64,
    pub entries: Rc<Vec<Entry>>,
}

struct Slot {
    key: QueryKey,
    generation: u64,
    result: CachedResult,
}

/// A small per-service memo table (experiments issue only a handful of
/// distinct query shapes; eviction is oldest-first beyond the cap).
#[derive(Default)]
pub struct ResultCache {
    slots: Vec<Slot>,
}

const CACHE_CAP: usize = 8;

impl ResultCache {
    pub fn new() -> Self {
        ResultCache { slots: Vec::new() }
    }

    /// Fetch the memoized result for this query against `dit`'s current
    /// generation, or materialize it with `compute` and remember it.
    pub fn get_or_compute(
        &mut self,
        dit: &Dit,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        attrs: &Option<Vec<String>>,
        compute: impl FnOnce(&Dit) -> CachedResult,
    ) -> CachedResult {
        let generation = dit.generation();
        if let Some(slot) = self.slots.iter_mut().find(|s| {
            s.key.scope == scope
                && s.key.base == *base
                && s.key.filter == *filter
                && s.key.attrs == *attrs
        }) {
            if slot.generation != generation {
                slot.generation = generation;
                slot.result = compute(dit);
            }
            return slot.result.clone();
        }
        let result = compute(dit);
        if self.slots.len() >= CACHE_CAP {
            self.slots.remove(0);
        }
        self.slots.push(Slot {
            key: QueryKey {
                base: base.clone(),
                scope,
                filter: filter.clone(),
                attrs: attrs.clone(),
            },
            generation,
            result: result.clone(),
        });
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dit() -> Dit {
        let mut d = Dit::new(Dn::parse("o=grid").unwrap());
        let mut e = Entry::new(Dn::parse("cn=a, o=grid").unwrap());
        e.add("objectclass", "thing");
        d.add(e).unwrap();
        d
    }

    fn compute_all(d: &Dit) -> CachedResult {
        let base = d.suffix().clone();
        let f = Filter::parse("(objectclass=*)").unwrap();
        let hits = d.search(&base, Scope::Sub, &f);
        CachedResult {
            total: hits.len(),
            bytes: hits.iter().map(|e| e.wire_size()).sum(),
            entries: Rc::new(hits.into_iter().cloned().collect()),
        }
    }

    #[test]
    fn hit_shares_materialization_until_mutation() {
        let mut d = dit();
        let mut c = ResultCache::new();
        let base = d.suffix().clone();
        let f = Filter::parse("(objectclass=*)").unwrap();
        let r1 = c.get_or_compute(&d, &base, Scope::Sub, &f, &None, compute_all);
        let r2 = c.get_or_compute(&d, &base, Scope::Sub, &f, &None, |_| {
            panic!("must be served from cache")
        });
        assert!(Rc::ptr_eq(&r1.entries, &r2.entries));
        assert_eq!(r1.total, 2);

        // A mutation invalidates: recompute sees the new entry.
        let mut e = Entry::new(Dn::parse("cn=b, o=grid").unwrap());
        e.add("objectclass", "thing");
        d.add(e).unwrap();
        let r3 = c.get_or_compute(&d, &base, Scope::Sub, &f, &None, compute_all);
        assert!(!Rc::ptr_eq(&r1.entries, &r3.entries));
        assert_eq!(r3.total, 3);
    }

    #[test]
    fn distinct_queries_get_distinct_slots() {
        let d = dit();
        let mut c = ResultCache::new();
        let base = d.suffix().clone();
        let all = Filter::parse("(objectclass=*)").unwrap();
        let none = Filter::parse("(objectclass=nope)").unwrap();
        let ra = c.get_or_compute(&d, &base, Scope::Sub, &all, &None, compute_all);
        let rn = c.get_or_compute(&d, &base, Scope::Sub, &none, &None, |d| {
            let hits = d.search(&base, Scope::Sub, &none);
            CachedResult {
                total: hits.len(),
                bytes: 0,
                entries: Rc::new(Vec::new()),
            }
        });
        assert_eq!(ra.total, 2);
        assert_eq!(rn.total, 0);
        // Both remain servable from cache.
        let ra2 = c.get_or_compute(&d, &base, Scope::Sub, &all, &None, |_| unreachable!());
        let rn2 = c.get_or_compute(&d, &base, Scope::Sub, &none, &None, |_| unreachable!());
        assert!(Rc::ptr_eq(&ra.entries, &ra2.entries));
        assert!(Rc::ptr_eq(&rn.entries, &rn2.entries));
    }
}
