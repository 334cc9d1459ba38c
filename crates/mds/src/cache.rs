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
//!
//! The memo is the reply itself, an `Rc<MdsSearchResult>`, so a hit
//! costs a reference count.  It is keyed on the request: users share one
//! `Rc<MdsRequest>` per series, so a lookup is a pointer comparison, and
//! an equal request built elsewhere still finds its slot.

use crate::proto::{MdsRequest, MdsSearchResult};
use ldapdir::Dit;
use std::rc::Rc;

struct Slot {
    req: Rc<MdsRequest>,
    generation: u64,
    result: Rc<MdsSearchResult>,
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

    /// The memoized reply to `req` against `dit`'s current generation, or
    /// the one `compute` materializes, remembered.
    pub fn get_or_compute(
        &mut self,
        dit: &Dit,
        req: &Rc<MdsRequest>,
        compute: impl FnOnce(&Dit) -> MdsSearchResult,
    ) -> Rc<MdsSearchResult> {
        let generation = dit.generation();
        if let Some(slot) = self
            .slots
            .iter_mut()
            .find(|s| Rc::ptr_eq(&s.req, req) || s.req == *req)
        {
            if slot.generation != generation {
                slot.generation = generation;
                slot.result = Rc::new(compute(dit));
            }
            return Rc::clone(&slot.result);
        }
        let result = Rc::new(compute(dit));
        if self.slots.len() >= CACHE_CAP {
            self.slots.remove(0);
        }
        self.slots.push(Slot {
            req: Rc::clone(req),
            generation,
            result: Rc::clone(&result),
        });
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldapdir::{Dn, Entry, Filter, Scope};

    fn dit() -> Dit {
        let mut d = Dit::new(Dn::parse("o=grid").unwrap());
        let mut e = Entry::new(Dn::parse("cn=a, o=grid").unwrap());
        e.add("objectclass", "thing");
        d.add(e).unwrap();
        d
    }

    fn search(d: &Dit, filter: &str) -> Rc<MdsRequest> {
        Rc::new(MdsRequest::Search {
            base: d.suffix().clone(),
            scope: Scope::Sub,
            filter: Filter::parse(filter).unwrap(),
            attrs: None,
        })
    }

    fn compute(req: &MdsRequest) -> impl FnOnce(&Dit) -> MdsSearchResult + '_ {
        move |d| {
            let MdsRequest::Search {
                base,
                scope,
                filter,
                ..
            } = req;
            let hits = d.search(base, *scope, filter);
            MdsSearchResult {
                total: hits.len(),
                bytes: hits.iter().map(|e| e.wire_size()).sum(),
                entries: hits.into_iter().cloned().collect(),
            }
        }
    }

    #[test]
    fn hit_shares_materialization_until_mutation() {
        let mut d = dit();
        let mut c = ResultCache::new();
        let all = search(&d, "(objectclass=*)");
        let r1 = c.get_or_compute(&d, &all, compute(&all));
        let r2 = c.get_or_compute(&d, &all, |_| panic!("must be served from cache"));
        assert!(Rc::ptr_eq(&r1, &r2));
        assert_eq!(r1.total, 2);
        // An equal request built separately finds the same slot.
        let twin = search(&d, "(objectclass=*)");
        let r2 = c.get_or_compute(&d, &twin, |_| panic!("equal request missed"));
        assert!(Rc::ptr_eq(&r1, &r2));

        // A mutation invalidates: recompute sees the new entry.
        let mut e = Entry::new(Dn::parse("cn=b, o=grid").unwrap());
        e.add("objectclass", "thing");
        d.add(e).unwrap();
        let r3 = c.get_or_compute(&d, &all, compute(&all));
        assert!(!Rc::ptr_eq(&r1, &r3));
        assert_eq!(r3.total, 3);
    }

    #[test]
    fn distinct_queries_get_distinct_slots() {
        let d = dit();
        let mut c = ResultCache::new();
        let all = search(&d, "(objectclass=*)");
        let none = search(&d, "(objectclass=nope)");
        let ra = c.get_or_compute(&d, &all, compute(&all));
        let rn = c.get_or_compute(&d, &none, compute(&none));
        assert_eq!(ra.total, 2);
        assert_eq!(rn.total, 0);
        // Both remain servable from cache.
        let ra2 = c.get_or_compute(&d, &all, |_| unreachable!());
        let rn2 = c.get_or_compute(&d, &none, |_| unreachable!());
        assert!(Rc::ptr_eq(&ra, &ra2));
        assert!(Rc::ptr_eq(&rn, &rn2));
    }
}
