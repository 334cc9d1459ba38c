//! The Grid Resource Information Service.
//!
//! A GRIS is an OpenLDAP server whose backend shells out to information
//! providers.  Per-provider cache TTLs govern freshness: a search first
//! re-runs every provider whose data is stale (paying the fork/exec CPU
//! cost per provider), then evaluates the LDAP search over the directory
//! and streams the matching entries back.
//!
//! The GRIS also participates in the MDS soft-state registration
//! protocol: every `registration_period` it sends a small registration
//! message to each configured GIIS.

use crate::proto::{GrisRegistration, MdsRequest, MdsSearchResult, REGISTRATION_BYTES};
use crate::provider::ProviderSpec;
use ldapdir::{Dit, Dn, Entry};
use simcore::{SimDuration, SimTime};
use simnet::trace::Ev;
use simnet::{Kept, LockKey, Payload, Plan, Service, SvcCx, SvcKey};
use std::rc::Rc;

/// CPU cost of evaluating the filter against one entry and serializing a
/// hit (OpenLDAP slapd per-entry work on the reference CPU).
pub const SEARCH_CPU_PER_ENTRY_US: f64 = 80.0;

/// Fixed per-search CPU (decode, ACL checks, result assembly).
pub const SEARCH_CPU_FIXED_US: f64 = 2_000.0;

/// Default MDS soft-state registration period.
pub const REGISTRATION_PERIOD: SimDuration = SimDuration(30_000_000);

/// Fraction of a provider invocation that is CPU; the rest is I/O wait
/// (the forked script blocking on /proc, disk, subprocesses).  slapd's
/// shell backend runs providers one at a time, so the exec phase sits
/// behind [`Gris::exec_lock`] — this keeps the host's runnable count (and
/// hence `load1`) near 1 even with hundreds of queued queries, matching
/// Fig 7.
pub const PROVIDER_CPU_FRACTION: f64 = 0.8;

/// The GRIS service.
pub struct Gris {
    suffix: Dn,
    dit: Dit,
    providers: Vec<ProviderSpec>,
    last_refresh: Vec<Option<SimTime>>,
    /// GIISes this GRIS registers to.
    registrees: Vec<SvcKey>,
    /// The registration heartbeat, built at the first beat (it names this
    /// service's key) and re-sent unchanged.
    registration: Option<Payload>,
    /// Serialises provider execution (slapd shell backend); set by the
    /// deployment.
    pub exec_lock: Option<LockKey>,
    /// Total queries answered (for tests).
    pub queries: u64,
    /// Total provider invocations (the cost caching avoids).
    pub provider_runs: u64,
    /// Search replies, kept while [`Dit::generation`] stays put.
    kept: Kept<Rc<MdsRequest>, Rc<MdsSearchResult>>,
}

impl Gris {
    pub fn new(suffix: Dn, providers: Vec<ProviderSpec>) -> Gris {
        let n = providers.len();
        Gris {
            dit: Dit::new(suffix.clone()),
            suffix,
            providers,
            last_refresh: vec![None; n],
            registrees: Vec::new(),
            registration: None,
            exec_lock: None,
            queries: 0,
            provider_runs: 0,
            kept: Kept::default(),
        }
    }

    /// Provider `i`, to change what its next run reports.
    pub fn provider_mut(&mut self, i: usize) -> &mut ProviderSpec {
        &mut self.providers[i]
    }

    /// Configure this GRIS to register with `giis` (call before start;
    /// the deployment primes the registration timer).
    pub fn register_with(&mut self, giis: SvcKey) {
        self.registrees.push(giis);
    }

    /// Providers whose data is stale at `now`.
    fn stale(&self, now: SimTime) -> Vec<usize> {
        (0..self.providers.len())
            .filter(
                |&i| match (self.last_refresh[i], self.providers[i].cachettl) {
                    (None, _) => true,
                    (Some(_), None) => false, // never expires
                    (Some(at), Some(ttl)) => now >= at + ttl,
                },
            )
            .collect()
    }

    /// Run provider `i` and merge its entries (state update; the CPU cost
    /// is charged by the caller's plan).
    fn refresh(&mut self, i: usize, now: SimTime) {
        self.provider_runs += 1;
        for e in &self.providers[i].entries {
            self.dit
                .upsert(e.clone())
                .expect("provider entries fit the suffix");
        }
        self.last_refresh[i] = Some(now);
    }
}

impl Service for Gris {
    fn handle(&mut self, req: Payload, cx: &mut SvcCx) -> Plan {
        let req = req
            .downcast::<MdsRequest>()
            .expect("GRIS expects MdsRequest");
        self.queries += 1;
        let now = cx.now;
        // 1. Re-run stale providers (cost charged in the plan; the state
        //    update happens now — provider output is deterministic, so the
        //    skew within a single request is unobservable).
        let stale = self.stale(now);
        let me = cx.me.index;
        if stale.is_empty() {
            cx.obs.ev_with(now, || Ev::CacheHit { svc: me });
            cx.obs.incr("mds.cache_hits", 1);
        } else {
            cx.obs.ev_with(now, || Ev::CacheMiss { svc: me });
            cx.obs.incr("mds.cache_misses", 1);
        }
        cx.obs.incr("mds.ldap_searches", 1);
        let mut plan = cx.plan();
        if !stale.is_empty() {
            if let Some(l) = self.exec_lock {
                plan = plan.lock(l);
            }
            for i in stale {
                let exec = self.providers[i].exec_cpu_us;
                plan = plan
                    .cpu(exec * PROVIDER_CPU_FRACTION)
                    .latency(SimDuration::from_micros(
                        (exec * (1.0 - PROVIDER_CPU_FRACTION)) as u64,
                    ));
                self.refresh(i, now);
            }
            if let Some(l) = self.exec_lock {
                plan = plan.unlock(l);
            }
        }
        // 2. Evaluate the search (kept until the directory changes; the
        //    simulated scan cost below is still charged per query).
        let dit = &self.dit;
        let result = self.kept.get(&req, dit.generation(), |_| {
            let MdsRequest::Search {
                base,
                scope,
                filter,
                attrs,
            } = &*req;
            let hits = dit.search(base, *scope, filter).into_iter();
            let entries: Vec<Entry> = match attrs {
                None => hits.cloned().collect(),
                Some(sel) => hits.map(|e| e.project(sel)).collect(),
            };
            let bytes: u64 = 64 + entries.iter().map(Entry::wire_size).sum::<u64>();
            Rc::new(MdsSearchResult {
                total: entries.len(),
                bytes,
                entries,
            })
        });
        let result = Rc::clone(result);
        let MdsRequest::Search { filter, .. } = &*req;
        let scan_cost = SEARCH_CPU_FIXED_US
            + SEARCH_CPU_PER_ENTRY_US * self.dit.scan_size() as f64 * filter.cost() as f64;
        let bytes = result.bytes;
        plan.cpu(scan_cost).reply(result, bytes)
    }

    fn on_timer(&mut self, _tag: u64, cx: &mut SvcCx) {
        // Soft-state registration heartbeat.
        let me = cx.me;
        let registration = self.registration.get_or_insert_with(|| {
            Rc::new(GrisRegistration {
                gris: me,
                suffix: self.suffix.clone(),
            })
        });
        for &giis in &self.registrees {
            cx.send_oneway(giis, Rc::clone(registration), REGISTRATION_BYTES);
        }
        cx.set_timer(REGISTRATION_PERIOD, 0);
    }

    fn name(&self) -> &str {
        "gris"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::default_providers;
    use ldapdir::{Filter, Scope};
    use simcore::{Engine, SimTime};
    use simnet::{
        Client, ClientCx, Eng, Net, ReqOutcome, ReqResult, RequestSpec, ServiceConfig, StatsHub,
        Topology,
    };

    fn suffix() -> Dn {
        Dn::parse("mds-vo-name=local, o=grid").unwrap()
    }

    struct Once {
        from: simnet::NodeId,
        to: SvcKey,
        n: u32,
        results: Rc<std::cell::RefCell<Vec<(usize, u64, f64)>>>,
    }

    impl Client for Once {
        fn on_start(&mut self, cx: &mut ClientCx) {
            for i in 0..self.n {
                cx.wake_in(SimDuration::from_secs(i as u64 * 10), 0);
            }
        }
        fn on_wake(&mut self, _tag: u64, cx: &mut ClientCx) {
            let req = MdsRequest::search_all(suffix());
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
                    .push((r.entries.len(), r.bytes, rt));
            }
        }
    }

    fn run_gris(ttl: Option<SimDuration>, queries: u32) -> (Vec<(usize, u64, f64)>, u64) {
        let mut topo = Topology::new();
        let client = topo.add_node("client", 1, 1.0);
        let server = topo.add_node("server", 2, 1.0);
        topo.connect(client, server, 100e6, SimDuration::from_millis(1));
        let mut net = Net::new(topo, StatsHub::new(SimTime::ZERO, SimTime::from_secs(1000)));
        let mut eng: Eng = Engine::new(5);
        let gris = Gris::new(suffix(), default_providers(&suffix(), "lucky7", 10, ttl));
        let svc = net.add_service(server, ServiceConfig::default(), Box::new(gris), &mut eng);
        let results = Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(Once {
            from: client,
            to: svc,
            n: queries,
            results: results.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(500));
        let runs = net.service_as::<Gris>(svc).unwrap().provider_runs;
        let out = results.borrow().clone();
        (out, runs)
    }

    #[test]
    fn first_query_populates_then_cache_hits() {
        let (results, runs) = run_gris(None, 3); // never expires
        assert_eq!(results.len(), 3);
        // Providers ran exactly once each.
        assert_eq!(runs, 10);
        // All queries see the full tree (10 providers × (1 group + N dev)).
        assert!(results[0].0 > 20, "entries {}", results[0].0);
        assert_eq!(results[0].0, results[2].0);
        // Cached queries are much faster than the cold one.
        assert!(
            results[0].2 > results[1].2 * 2.0,
            "cold {} vs warm {}",
            results[0].2,
            results[1].2
        );
    }

    #[test]
    fn zero_ttl_reruns_providers_every_query() {
        let (results, runs) = run_gris(Some(SimDuration::ZERO), 3);
        assert_eq!(results.len(), 3);
        assert_eq!(runs, 30);
        // Every query pays the full serialized provider cost (~10 × 50 ms).
        for (_, _, rt) in &results {
            assert!(*rt > 0.4, "rt {rt}");
        }
    }

    #[test]
    fn ttl_expiry_triggers_refresh() {
        // 15 s TTL, queries every 10 s: every other query refreshes.
        let (results, runs) = run_gris(Some(SimDuration::from_secs(15)), 3);
        assert_eq!(results.len(), 3);
        // Query at t≈0 (cold, 10 runs), t≈10 (fresh), t≈20 (stale, 10 runs).
        assert_eq!(runs, 20);
    }

    #[test]
    fn filtered_search_returns_subset() {
        let mut g = Gris::new(suffix(), default_providers(&suffix(), "lucky7", 10, None));
        // Populate directly.
        for i in 0..10 {
            g.refresh(i, SimTime::ZERO);
        }
        let hits = g.dit.search(
            &suffix(),
            Scope::Sub,
            &Filter::parse("(objectclass=mdsdevicegroup)").unwrap(),
        );
        assert_eq!(hits.len(), 10);
        let all = g.dit.search(&suffix(), Scope::Sub, &Filter::any());
        assert!(all.len() > hits.len());
    }
}
