//! The Grid Index Information Service.
//!
//! A GIIS aggregates the directories of registered GRISes (or lower-level
//! GIISes — the MDS hierarchy is uniform).  Registration is soft state: a
//! registrant re-announces itself every period and is purged after
//! `registration_ttl` without a heartbeat.  Data moves by pull: on a
//! query, any registered subtree whose cached copy is older than
//! `cachettl` is re-fetched from its source before the search is
//! evaluated over the merged directory.  The paper's Experiment Set 2
//! sets `cachettl` "to a very large value so that the data was always in
//! the cache" — [`Giis::new`] with `cachettl = None` reproduces that.

use crate::gris::{search_plan, SEARCH_CPU_FIXED_US};
use crate::proto::{GrisRegistration, MdsRequest, MdsSearchResult};
use ldapdir::{Dit, Dn};
use simcore::{SimDuration, SimTime};
use simnet::trace::Ev;
use simnet::{CallOutcome, Kept, Payload, Plan, Service, SubCall, SvcCx, SvcKey};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

/// CPU cost of merging one pulled entry into the aggregate directory.
pub const MERGE_CPU_PER_ENTRY_US: f64 = 60.0;

/// CPU cost of processing one registration heartbeat.
pub const REGISTRATION_CPU_US: f64 = 800.0;

/// A registered information source.
struct Registration {
    /// The source's own suffix (what we ask it for).
    remote_suffix: Dn,
    /// Where its subtree is grafted in our namespace.
    graft: Dn,
    last_seen: SimTime,
    /// When we last pulled its data (`None` = never).  Refreshed when the
    /// pull is *issued* (stampede guard), so it cannot honestly answer
    /// "how old is the data we serve?" — `last_data` does.
    last_fetch: Option<SimTime>,
    /// When a pull last *returned* data for this subtree (`None` = never).
    last_data: Option<SimTime>,
    /// The pull request, `search_all(remote_suffix)`, built once and sent
    /// on every pull.
    pull: Payload,
    pull_bytes: u64,
    /// The last reply merged under `graft`: the entries under `graft`
    /// are exactly its entries, rebased.  A source whose directory did
    /// not change answers the next pull with the same `Rc` (its kept
    /// answer), so that reply is already in the DIT.  Holding the `Rc`
    /// keeps its address from being reused by another reply.
    merged: Option<Rc<MdsSearchResult>>,
}

impl Registration {
    /// Make the entries under `graft` in `dit` exactly `reply`'s, rebased.
    /// A pull is `search_all(remote_suffix)`, so every entry of the reply
    /// belongs under the graft, and only this source's merges write
    /// there.
    fn merge(&mut self, dit: &mut Dit, reply: Rc<MdsSearchResult>) {
        if self.merged.as_ref().is_some_and(|m| Rc::ptr_eq(m, &reply)) {
            return;
        }
        let rebase = |dn: &Dn| {
            dn.rebase(&self.remote_suffix, &self.graft)
                .expect("a pulled entry lies under the source's suffix")
        };
        for e in &reply.entries {
            let mut e = e.clone();
            e.dn = rebase(&e.dn);
            dit.upsert(e)
                .expect("an upsert under the graft makes its parents");
        }
        // Entries the source no longer answers leave the graft.  A
        // vanished entry's subtree vanished with it, so it may be gone.
        if let Some(prev) = &self.merged {
            let answered: HashSet<&Dn> = reply.entries.iter().map(|e| &e.dn).collect();
            for e in prev.entries.iter().filter(|e| !answered.contains(&e.dn)) {
                let dn = rebase(&e.dn);
                if dit.get(&dn).is_some() {
                    dit.remove_subtree(&dn).expect("the entry is present");
                }
            }
        }
        self.merged = Some(reply);
    }
}

struct PendingQuery {
    req: Rc<MdsRequest>,
    /// Sources pulled for this query, in sub-call order, so the resume can
    /// stamp `last_data` on exactly the subtrees that answered.
    pulled: Vec<SvcKey>,
}

/// The GIIS service.
pub struct Giis {
    suffix: Dn,
    dit: Dit,
    registered: BTreeMap<SvcKey, Registration>,
    /// `None` = cache never expires (the paper's huge `cachettl`).
    cachettl: Option<SimDuration>,
    /// Registrants silent for this long are purged (3 heartbeat periods).
    registration_ttl: SimDuration,
    pending: HashMap<u64, PendingQuery>,
    next_cont: u64,
    /// Upper-level GIISes this GIIS registers with (the MDS hierarchy is
    /// uniform: a GIIS registers to another GIIS exactly like a GRIS).
    registrees: Vec<SvcKey>,
    /// This GIIS's own registration heartbeat, built at the first beat
    /// and re-sent unchanged.
    registration: Option<Payload>,
    /// Counters for tests/analysis.
    pub queries: u64,
    pub pulls: u64,
    pub registrations_seen: u64,
    /// Search replies, kept while [`Dit::generation`] stays put.
    kept: Kept<Rc<MdsRequest>, Rc<MdsSearchResult>>,
}

impl Giis {
    pub fn new(suffix: Dn, cachettl: Option<SimDuration>) -> Giis {
        Giis {
            dit: Dit::new(suffix.clone()),
            suffix,
            registered: BTreeMap::new(),
            cachettl,
            registration_ttl: SimDuration::from_secs(90),
            pending: HashMap::new(),
            next_cont: 0,
            registrees: Vec::new(),
            registration: None,
            queries: 0,
            pulls: 0,
            registrations_seen: 0,
            kept: Kept::default(),
        }
    }

    /// Register this GIIS with an upper-level GIIS — the paper's proposed
    /// "multi-layer architecture in which each middle-level aggregate
    /// information server manages a subset of information servers".  The
    /// deployment must prime timer 0.
    pub fn register_with(&mut self, parent: SvcKey) {
        self.registrees.push(parent);
    }

    pub fn registered_count(&self) -> usize {
        self.registered.len()
    }

    /// The aggregate directory.
    pub fn directory(&self) -> &Dit {
        &self.dit
    }

    /// Where `source`'s entries are grafted, once a reply of it is merged.
    pub fn graft(&self, source: SvcKey) -> Option<&Dn> {
        let r = self.registered.get(&source)?;
        r.merged.is_some().then_some(&r.graft)
    }

    /// Age of the *oldest* subtree data this GIIS would serve at `now`:
    /// the staleness a client may observe when the cache (or a partition)
    /// keeps answering without fresh pulls.  `None` until any pull has
    /// returned data.
    pub fn max_data_age(&self, now: SimTime) -> Option<SimDuration> {
        self.registered
            .values()
            .filter_map(|r| r.last_data)
            .map(|t| now.saturating_since(t))
            .max()
    }

    fn purge_expired(&mut self, now: SimTime) {
        let ttl = self.registration_ttl;
        let dit = &mut self.dit;
        self.registered.retain(|_, r| {
            let alive = now.saturating_since(r.last_seen) <= ttl;
            // A source has a graft once a reply of it was merged.
            if !alive && r.merged.is_some() {
                dit.remove_subtree(&r.graft)
                    .expect("a merged source's graft");
            }
            alive
        });
    }

    /// Sources whose cache needs refreshing at `now`.
    fn stale_sources(&self, now: SimTime) -> Vec<SvcKey> {
        self.registered
            .iter()
            .filter(|(_, r)| match (r.last_fetch, self.cachettl) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(at), Some(ttl)) => now >= at + ttl,
            })
            .map(|(&k, _)| k)
            .collect()
    }
}

impl Service for Giis {
    fn handle(&mut self, req: Payload, cx: &mut SvcCx) -> Plan {
        let now = cx.now;
        // Registration heartbeat (one-way)?
        let req = match req.downcast::<GrisRegistration>() {
            Ok(reg) => {
                self.registrations_seen += 1;
                let suffix = &self.suffix;
                self.registered
                    .entry(reg.gris)
                    .and_modify(|r| r.last_seen = now)
                    .or_insert_with(|| {
                        let label = format!("sub-{}-{}", reg.gris.index, reg.gris.gen);
                        let pull = MdsRequest::search_all(reg.suffix.clone());
                        Registration {
                            remote_suffix: reg.suffix.clone(),
                            graft: suffix.child("Mds-Vo-name", &label),
                            last_seen: now,
                            last_fetch: None,
                            last_data: None,
                            pull_bytes: pull.wire_size(),
                            pull: Rc::new(pull),
                            merged: None,
                        }
                    });
                return cx.plan().cpu(REGISTRATION_CPU_US).done();
            }
            Err(other) => other,
        };
        let req = req
            .downcast::<MdsRequest>()
            .expect("GIIS expects MdsRequest");
        self.queries += 1;
        cx.obs.incr("mds.ldap_searches", 1);
        self.purge_expired(now);
        let stale = self.stale_sources(now);
        let me = cx.me.index;
        if stale.is_empty() {
            cx.obs.ev_with(now, || Ev::CacheHit { svc: me });
            cx.obs.incr("mds.cache_hits", 1);
            return search_plan(&mut self.kept, &self.dit, &req, cx.plan());
        }
        cx.obs.ev_with(now, || Ev::CacheMiss { svc: me });
        cx.obs.incr("mds.cache_misses", 1);
        // Pull the stale subtrees, then search.  Mark the fetch time now so
        // concurrent queries don't stampede the same sources.
        let mut calls = cx.calls();
        calls.reserve_exact(stale.len());
        for &k in &stale {
            let r = self.registered.get_mut(&k).unwrap();
            r.last_fetch = Some(now);
            self.pulls += 1;
            calls.push(SubCall {
                to: k,
                payload: Rc::clone(&r.pull),
                req_bytes: r.pull_bytes,
            });
        }
        let cont = self.next_cont;
        self.next_cont += 1;
        self.pending
            .insert(cont, PendingQuery { req, pulled: stale });
        cx.plan().cpu(SEARCH_CPU_FIXED_US).call_all(calls, cont)
    }

    fn resume(&mut self, cont: u64, outcomes: &mut Vec<CallOutcome>, cx: &mut SvcCx) -> Plan {
        let q = self.pending.remove(&cont).expect("pending query");
        let now = cx.now;
        // Merge per source; the merge is charged per entry replied, whether
        // or not the DIT had to be touched.
        let mut merged = 0usize;
        for o in outcomes.drain(..) {
            let Some((payload, _bytes)) = o.response else {
                continue; // source unreachable; soft state will purge it
            };
            let Some(r) = self.registered.get_mut(&q.pulled[o.index as usize]) else {
                continue; // purged while the pull was in flight
            };
            r.last_data = Some(now);
            let result = payload
                .downcast::<MdsSearchResult>()
                .expect("a pull is answered with a search reply");
            merged += result.entries.len();
            r.merge(&mut self.dit, result);
        }
        let merge_cost = MERGE_CPU_PER_ENTRY_US * merged as f64;
        search_plan(&mut self.kept, &self.dit, &q.req, cx.plan().cpu(merge_cost))
    }

    fn on_timer(&mut self, _tag: u64, cx: &mut SvcCx) {
        // Soft-state registration heartbeat to upper-level GIISes.
        let me = cx.me;
        let registration = self.registration.get_or_insert_with(|| {
            Rc::new(GrisRegistration {
                gris: me,
                suffix: self.suffix.clone(),
            })
        });
        for &parent in &self.registrees {
            cx.send_oneway(
                parent,
                Rc::clone(registration),
                crate::proto::REGISTRATION_BYTES,
            );
        }
        cx.set_timer(crate::gris::REGISTRATION_PERIOD, 0);
    }

    fn name(&self) -> &str {
        "giis"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gris::Gris;
    use crate::provider::ProviderTemplate;
    use ldapdir::{Filter, Scope};
    use simcore::Engine;
    use simnet::{
        Client, ClientCx, Eng, Net, ReqOutcome, ReqResult, RequestSpec, ServiceConfig, StatsHub,
        Topology,
    };

    struct QueryAt {
        from: simnet::NodeId,
        to: SvcKey,
        times_s: Vec<u64>,
        req: Box<dyn Fn() -> MdsRequest>,
        results: Results,
    }

    /// Per reply: entries, response time, bytes, the reply itself.
    type Seen = (usize, f64, u64, Option<Rc<MdsSearchResult>>);
    type Results = Rc<std::cell::RefCell<Vec<Seen>>>;

    impl Client for QueryAt {
        fn on_start(&mut self, cx: &mut ClientCx) {
            for &t in &self.times_s {
                cx.wake_in(SimDuration::from_secs(t), 0);
            }
        }
        fn on_wake(&mut self, _tag: u64, cx: &mut ClientCx) {
            let req = (self.req)();
            let bytes = req.wire_size();
            cx.submit(
                RequestSpec {
                    from: self.from,
                    to: self.to,
                    payload: Rc::new(req),
                    req_bytes: bytes,
                },
                0,
            );
        }
        fn on_outcome(&mut self, o: ReqOutcome, _cx: &mut ClientCx) {
            if let ReqResult::Ok(p, _) = o.result {
                let r = p.downcast::<MdsSearchResult>().unwrap();
                let rt = (o.completed - o.submitted).as_secs_f64();
                self.results
                    .borrow_mut()
                    .push((r.entries.len(), rt, r.bytes, Some(r)));
            } else {
                self.results.borrow_mut().push((usize::MAX, -1.0, 0, None));
            }
        }
    }

    /// Deploy a GIIS with `n_gris` registered GRISes on a 3-node LAN.
    fn deploy(
        n_gris: usize,
        cachettl: Option<SimDuration>,
    ) -> (Net, Eng, simnet::NodeId, SvcKey, Vec<SvcKey>) {
        deploy_with(n_gris, cachettl, None)
    }

    /// As [`deploy`], with the GRISes' provider data expiring after
    /// `provider_ttl`.
    fn deploy_with(
        n_gris: usize,
        cachettl: Option<SimDuration>,
        provider_ttl: Option<SimDuration>,
    ) -> (Net, Eng, simnet::NodeId, SvcKey, Vec<SvcKey>) {
        let mut topo = Topology::new();
        let client = topo.add_node("client", 1, 1.0);
        let giis_node = topo.add_node("giis-host", 2, 1.0);
        let gris_node = topo.add_node("gris-host", 2, 1.0);
        topo.connect(client, giis_node, 100e6, SimDuration::from_millis(1));
        topo.connect(client, gris_node, 100e6, SimDuration::from_millis(1));
        topo.connect(giis_node, gris_node, 100e6, SimDuration::from_micros(200));
        let mut net = Net::new(topo, StatsHub::new(SimTime::ZERO, SimTime::from_secs(1000)));
        let mut eng: Eng = Engine::new(21);
        let giis_suffix = Dn::parse("mds-vo-name=site, o=giis").unwrap();
        let giis = net.add_service(
            giis_node,
            ServiceConfig::default(),
            Box::new(Giis::new(giis_suffix, cachettl)),
            &mut eng,
        );
        let template = ProviderTemplate::new(10, provider_ttl);
        let mut grises = Vec::new();
        for i in 0..n_gris {
            let suffix = Dn::parse(&format!("mds-vo-name=res{i}, o=grid")).unwrap();
            let providers = template.for_host(&suffix, &format!("host{i}"));
            let mut gris = Gris::new(suffix, providers);
            gris.register_with(giis);
            let key = net.add_service(
                gris_node,
                ServiceConfig::default(),
                Box::new(gris),
                &mut eng,
            );
            // Kick the registration loop immediately.
            net.prime_service_timer(
                &mut eng,
                key,
                SimDuration::from_millis(10 * (i as u64 + 1)),
                0,
            );
            grises.push(key);
        }
        (net, eng, client, giis, grises)
    }

    #[test]
    fn registration_then_pull_then_cache() {
        let (mut net, mut eng, client, giis, _grises) = deploy(3, None);
        let results = Rc::new(std::cell::RefCell::new(Vec::new()));
        let base = Dn::parse("mds-vo-name=site, o=giis").unwrap();
        net.add_client(Box::new(QueryAt {
            from: client,
            to: giis,
            times_s: vec![5, 10, 15],
            req: Box::new(move || MdsRequest::search_all(base.clone())),
            results: results.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(120));
        let results = results.borrow();
        assert_eq!(results.len(), 3);
        // All three GRIS subtrees visible: >20 entries each.
        assert!(results[0].0 > 60, "entries {}", results[0].0);
        assert_eq!(results[0].0, results[2].0);
        // First query pulled; later ones served from cache and faster.
        let g = net.service_as::<Giis>(giis).unwrap();
        assert_eq!(g.registered_count(), 3);
        assert_eq!(g.pulls, 3);
        assert!(
            results[1].1 < results[0].1,
            "warm {} cold {}",
            results[1].1,
            results[0].1
        );
    }

    #[test]
    fn finite_cachettl_refetches() {
        let (mut net, mut eng, client, giis, _) = deploy(2, Some(SimDuration::from_secs(12)));
        let results = Rc::new(std::cell::RefCell::new(Vec::new()));
        let base = Dn::parse("mds-vo-name=site, o=giis").unwrap();
        net.add_client(Box::new(QueryAt {
            from: client,
            to: giis,
            times_s: vec![5, 10, 30],
            req: Box::new(move || MdsRequest::search_all(base.clone())),
            results: results.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(120));
        let g = net.service_as::<Giis>(giis).unwrap();
        // t=5 pulls both; t=10 cached; t=30 stale -> pulls both again.
        assert_eq!(g.pulls, 4);
    }

    #[test]
    fn soft_state_purges_dead_sources() {
        let (mut net, mut eng, client, giis, grises) = deploy(2, None);
        let results = Rc::new(std::cell::RefCell::new(Vec::new()));
        let base = Dn::parse("mds-vo-name=site, o=giis").unwrap();
        net.add_client(Box::new(QueryAt {
            from: client,
            to: giis,
            times_s: vec![5, 300],
            req: Box::new(move || MdsRequest::search_all(base.clone())),
            results: results.clone(),
        }));
        net.start(&mut eng);
        // Run past the first query, then kill one GRIS: a crashed
        // process loses its heartbeat timer chain.
        eng.run_until(&mut net, SimTime::from_secs(60));
        net.crash_service(&mut eng, grises[0]);
        eng.run_until(&mut net, SimTime::from_secs(400));
        let g = net.service_as::<Giis>(giis).unwrap();
        assert_eq!(g.registered_count(), 1, "dead GRIS purged");
        let results = results.borrow();
        // Second query (t=300) sees only the surviving subtree.
        assert!(results[1].0 < results[0].0);
    }

    #[test]
    fn part_query_returns_one_subtree() {
        let (mut net, mut eng, client, giis, grises) = deploy(4, None);
        // Warm the cache first.
        let warm = Rc::new(std::cell::RefCell::new(Vec::new()));
        let base = Dn::parse("mds-vo-name=site, o=giis").unwrap();
        net.add_client(Box::new(QueryAt {
            from: client,
            to: giis,
            times_s: vec![5],
            req: Box::new({
                let base = base.clone();
                move || MdsRequest::search_all(base.clone())
            }),
            results: warm.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(60));
        let all_n = warm.borrow()[0].0;
        // Query just one graft point.
        let registered = &net.service_as::<Giis>(giis).unwrap().registered;
        let graft = registered[&grises[1]].graft.clone();
        let part = Rc::new(std::cell::RefCell::new(Vec::new()));
        let late = net.add_client(Box::new(QueryAt {
            from: client,
            to: giis,
            times_s: vec![1],
            req: Box::new(move || MdsRequest::Search {
                base: graft.clone(),
                scope: Scope::Sub,
                filter: Filter::any(),
                attrs: None,
            }),
            results: part.clone(),
        }));
        net.start_client(&mut eng, late);
        eng.run_until(&mut net, SimTime::from_secs(120));
        let part_n = part.borrow()[0].0;
        assert!(part_n > 0);
        assert!(part_n * 3 < all_n, "part {part_n} of {all_n}");
    }

    #[test]
    fn giis_registers_with_parent_giis() {
        // Two-level MDS hierarchy: GRISes -> mid GIIS -> top GIIS.
        let (mut net, mut eng, client, mid, _grises) = deploy(3, None);
        let top_node = net.topo.find_node("client").unwrap();
        let top_suffix = Dn::parse("mds-vo-name=top, o=giis").unwrap();
        let top = net.add_service(
            top_node,
            ServiceConfig::default(),
            Box::new(Giis::new(top_suffix.clone(), None)),
            &mut eng,
        );
        net.service_as_mut::<Giis>(mid).unwrap().register_with(top);
        net.prime_service_timer(&mut eng, mid, SimDuration::from_millis(500), 0);
        let results = Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(QueryAt {
            from: client,
            to: top,
            times_s: vec![20],
            req: Box::new(move || MdsRequest::search_all(top_suffix.clone())),
            results: results.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(120));
        // The top GIIS pulled the mid GIIS, which pulled the three GRISes:
        // the whole grid is visible from the top.
        let results = results.borrow();
        assert_eq!(results.len(), 1);
        assert!(results[0].0 > 60, "entries via hierarchy: {}", results[0].0);
        let top_ref = net.service_as::<Giis>(top).unwrap();
        assert_eq!(top_ref.registered_count(), 1);
        assert_eq!(top_ref.pulls, 1);
    }

    /// Query the whole GIIS at the given times, soft state expiring at
    /// both levels between them: GIIS `cachettl` 12 s, provider TTL 10 s.
    /// Times are chosen away from the 30 s registration heartbeats.
    fn cycling(times_s: Vec<u64>) -> (Net, Eng, SvcKey, Vec<SvcKey>, Results) {
        let ttl = |s| Some(SimDuration::from_secs(s));
        let (mut net, mut eng, client, giis, grises) = deploy_with(2, ttl(12), ttl(10));
        let results = Rc::new(std::cell::RefCell::new(Vec::new()));
        let base = Dn::parse("mds-vo-name=site, o=giis").unwrap();
        net.add_client(Box::new(QueryAt {
            from: client,
            to: giis,
            times_s,
            req: Box::new(move || MdsRequest::search_all(base.clone())),
            results: results.clone(),
        }));
        net.start(&mut eng);
        (net, eng, giis, grises, results)
    }

    #[test]
    fn unchanged_cycle_writes_nothing_and_costs_the_same_simulated_time() {
        // t=5 cold pull; t=10 cached; t=25 and t=45 are full soft-state
        // cycles (providers re-run, both subtrees re-pulled) over data
        // that did not change.
        let (mut net, mut eng, giis, grises, results) = cycling(vec![5, 10, 25, 45]);
        eng.run_until(&mut net, SimTime::from_secs(20));
        let generation = net.service_as::<Giis>(giis).unwrap().dit.generation();
        eng.run_until(&mut net, SimTime::from_secs(120));
        let g = net.service_as::<Giis>(giis).unwrap();
        assert_eq!(g.pulls, 6);
        for &k in &grises {
            assert_eq!(net.service_as::<Gris>(k).unwrap().provider_runs, 30);
        }
        // No DIT write, no search recompute: the directory is at the
        // generation the cold pull left and every reply shares one
        // materialization.
        assert_eq!(g.dit.generation(), generation);
        let results = results.borrow();
        assert_eq!(results.len(), 4);
        for r in results.iter() {
            assert_eq!((r.0, r.2), (results[0].0, results[0].2));
            let (reply, first) = (r.3.as_ref().unwrap(), results[0].3.as_ref().unwrap());
            assert!(Rc::ptr_eq(reply, first));
        }
        // ... while the merge and scan are charged as on a full re-merge.
        assert_eq!(results[2].1, results[3].1, "warm cycles cost the same");
        assert!(
            results[2].1 > results[1].1 * 2.0,
            "a cycle is not a cache hit"
        );
    }

    #[test]
    fn changed_provider_data_reaches_the_next_reply() {
        let (mut net, mut eng, giis, grises, results) = cycling(vec![5, 25, 45]);
        eng.run_until(&mut net, SimTime::from_secs(20));
        let before = net.service_as::<Giis>(giis).unwrap().dit.generation();
        net.service_as_mut::<Gris>(grises[1])
            .unwrap()
            .provider_mut(0)
            .entries[1]
            .put("Mds-cpu-metric", "4242");
        eng.run_until(&mut net, SimTime::from_secs(120));
        let sees_new_value = |r: &Seen| {
            r.3.iter().flat_map(|reply| &reply.entries).any(|e| {
                e.get("mds-cpu-metric")
                    .iter()
                    .any(|(_, v)| v.as_str() == "4242")
            })
        };
        let results = results.borrow();
        assert!(!sees_new_value(&results[0]));
        assert!(sees_new_value(&results[1]), "stale snapshot served");
        assert!(sees_new_value(&results[2]));
        assert_eq!(results[1].0, results[0].0);
        // Exactly the one changed entry was rewritten, once.
        let g = net.service_as::<Giis>(giis).unwrap();
        assert_eq!(g.dit.generation(), before + 1);
    }

    #[test]
    fn purged_source_is_merged_again_when_it_comes_back() {
        let (mut net, mut eng, giis, grises, results) = cycling(vec![5, 200, 300]);
        // Crash one GRIS long enough to be purged, then restart it and
        // its heartbeat.  Its directory never changed, so it answers the
        // post-purge pull with the very reply merged before.
        eng.run_until(&mut net, SimTime::from_secs(60));
        net.crash_service(&mut eng, grises[0]);
        eng.run_until(&mut net, SimTime::from_secs(210));
        assert_eq!(net.service_as::<Giis>(giis).unwrap().registered_count(), 1);
        net.restart_service(&mut eng, grises[0]);
        net.prime_service_timer(&mut eng, grises[0], SimDuration::from_secs(1), 0);
        eng.run_until(&mut net, SimTime::from_secs(400));
        let results = results.borrow();
        assert!(results[1].0 < results[0].0, "purged subtree still served");
        assert_eq!(results[2].0, results[0].0, "returning source not re-merged");
        assert_eq!(results[2].2, results[0].2);
    }
}
