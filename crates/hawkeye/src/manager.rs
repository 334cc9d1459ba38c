//! The Hawkeye Manager and the `hawkeye_advertise` load generator.
//!
//! The Manager is the head node of the pool: it "collects and stores (in
//! an indexed resident database) monitoring information from each Agent
//! registered to it" and "is the central target for queries about the
//! status of any Pool member".  Status queries are answered from the
//! index (cheap — the paper credits this for the Manager's host load
//! being half the GIIS's); constraint queries scan every stored ad
//! through the ClassAd matchmaker (the paper's worst-case Experiment 4
//! workload used a constraint satisfied by no machine).  Incoming Startd
//! ads are matched against all submitted Trigger ClassAds; a match fires
//! a notification (the "kill Netscape" job of the paper's example).
//!
//! The resident database is change-aware soft state.  Agents re-send
//! their Startd ad every 30 seconds whether or not anything moved; ads
//! travel as `Rc<ClassAd>`, and an ad equal to the stored one only
//! refreshes its arrival time.  The pool generation therefore moves only
//! when the pool's content does, and a constraint scan is kept on
//! (expression, pool generation).  Simulated CPU and `hawkeye.match_evals`
//! are still charged per ad and per query, so only host time is saved.

use crate::proto::{AdsReply, HawkeyeMsg};
use classad::{matchmaker, parse_expr, ClassAd, CompiledExpr};
use simcore::SimTime;
use simnet::{Kept, Payload, Plan, Service, SvcCx, SvcKey};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// CPU cost of an indexed resident-database lookup.
pub const INDEXED_LOOKUP_CPU_US: f64 = 9_000.0;

/// CPU cost of evaluating one constraint/trigger against one ad.
pub const MATCH_CPU_PER_AD_US: f64 = 1_200.0;

/// CPU cost of ingesting one Startd ad (parse + index update).
pub const INGEST_CPU_US: f64 = 2_500.0;

struct Trigger {
    ad: ClassAd,
    /// The trigger's `Requirements`, parsed once at registration.
    req: Option<CompiledExpr>,
    notify: Option<SvcKey>,
    /// How often this trigger has fired.
    fired: u64,
}

/// One machine's row of the resident database.
struct Row {
    ad: Rc<ClassAd>,
    /// The ad's `Requirements`, looked up once when the ad was stored, so
    /// trigger evaluation does not search the ad for it per incoming ad.
    req: Option<CompiledExpr>,
    /// When the machine's ad last arrived.  The resident database never
    /// purges (Condor keeps the last ad of a silent machine), so freshness
    /// — not presence — is how a dead agent shows up.
    at: SimTime,
    /// The status-query reply carrying `ad`, built at the first status
    /// query and answered with clones until the ad is replaced.
    status: OnceCell<Rc<AdsReply>>,
}

/// The Manager service.
pub struct Manager {
    pool: BTreeMap<String, Row>,
    /// Moves whenever a stored ad is added or replaced by a different one;
    /// equal generations guarantee identical constraint scans.
    generation: u64,
    /// Per constraint text, its compiled form (`None` = parse failure)
    /// and the scan's reply, kept at `generation`.  The Experiment-4
    /// workload sends the same constraint thousands of times between
    /// pool changes.
    constraints: Kept<String, (Option<CompiledExpr>, Rc<AdsReply>)>,
    triggers: Vec<Trigger>,
    /// Counters.
    pub queries: u64,
    pub ads_received: u64,
    pub triggers_fired: u64,
}

impl Default for Manager {
    fn default() -> Self {
        Self::new()
    }
}

impl Manager {
    pub fn new() -> Manager {
        Manager {
            pool: BTreeMap::new(),
            generation: 0,
            constraints: Kept::default(),
            triggers: Vec::new(),
            queries: 0,
            ads_received: 0,
            triggers_fired: 0,
        }
    }

    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// Machines whose last ad is no older than `horizon` at `now`:
    /// the pool a matchmaking scan can trust.  Killed agents stop
    /// advertising, so this degrades linearly with the kill count while
    /// `pool_size` stays flat.
    pub fn fresh_count(&self, now: SimTime, horizon: simcore::SimDuration) -> usize {
        self.pool
            .values()
            .filter(|row| now.saturating_since(row.at) <= horizon)
            .count()
    }

    /// Mean age (seconds) of the stored ads at `now` (`None` if empty).
    pub fn mean_ad_age(&self, now: SimTime) -> Option<f64> {
        if self.pool.is_empty() {
            return None;
        }
        let sum: f64 = self
            .pool
            .values()
            .map(|row| now.saturating_since(row.at).as_secs_f64())
            .sum();
        Some(sum / self.pool.len() as f64)
    }

    fn fire_matching_triggers(&mut self, machine: &str, plan: &mut Plan) {
        let Some(row) = self.pool.get(machine) else {
            return;
        };
        let mut sends = Vec::new();
        let mut fired = Vec::new();
        for (i, t) in self.triggers.iter().enumerate() {
            if matchmaker::symmetric_match_compiled(
                &t.ad,
                t.req.as_ref(),
                &row.ad,
                row.req.as_ref(),
            ) {
                fired.push(i);
                if let Some(sink) = t.notify {
                    sends.push((sink, machine.to_string(), i));
                }
            }
        }
        for i in fired {
            self.triggers[i].fired += 1;
            self.triggers_fired += 1;
        }
        for (sink, machine, idx) in sends {
            let msg = HawkeyeMsg::TriggerFired {
                machine,
                trigger_idx: idx,
            };
            let bytes = msg.wire_size();
            plan.steps.push(simnet::Step::Send {
                to: sink,
                payload: Rc::new(msg),
                bytes,
            });
        }
    }
}

impl Service for Manager {
    fn handle(&mut self, req: Payload, cx: &mut SvcCx) -> Plan {
        let msg = req
            .downcast::<HawkeyeMsg>()
            .expect("Manager expects HawkeyeMsg");
        match &*msg {
            HawkeyeMsg::StartdAd { machine, ad } => {
                self.ads_received += 1;
                let changed = match self.pool.get_mut(machine) {
                    Some(row) => {
                        row.at = cx.now;
                        // Pointer first: agents and the fleet re-send the
                        // `Rc` they built at deployment.
                        !Rc::ptr_eq(&row.ad, ad) && *row.ad != **ad
                    }
                    None => true,
                };
                if changed {
                    let row = Row {
                        ad: Rc::clone(ad),
                        req: matchmaker::compile_requirements(ad),
                        at: cx.now,
                        status: OnceCell::new(),
                    };
                    self.pool.insert(machine.clone(), row);
                    self.generation += 1;
                }
                // Each incoming ad is evaluated against every trigger.
                cx.obs
                    .incr("hawkeye.match_evals", self.triggers.len() as u64);
                let trigger_cost = MATCH_CPU_PER_AD_US * self.triggers.len() as f64;
                let mut plan = cx.plan().cpu(INGEST_CPU_US + trigger_cost);
                self.fire_matching_triggers(machine, &mut plan);
                plan.done()
            }
            HawkeyeMsg::Status { machine } => {
                self.queries += 1;
                cx.obs.incr("hawkeye.queries", 1);
                let row = match machine {
                    Some(m) => self.pool.get(m),
                    // Pool summary: one compact line per machine; model
                    // as a small digest ad per machine.
                    None => self.pool.values().next(),
                };
                let reply = match row {
                    Some(row) => Rc::clone(
                        row.status
                            .get_or_init(|| Rc::new(AdsReply::new(vec![Rc::clone(&row.ad)]))),
                    ),
                    None => Rc::new(AdsReply::new(Vec::new())),
                };
                let bytes = reply.bytes;
                cx.plan().cpu(INDEXED_LOOKUP_CPU_US).reply(reply, bytes)
            }
            HawkeyeMsg::Constraint { expr } => {
                self.queries += 1;
                cx.obs.incr("hawkeye.queries", 1);
                // A constraint scan runs the matchmaker over the whole pool
                // (kept until the pool changes; the simulated scan is still
                // counted and charged per query).
                cx.obs.incr("hawkeye.match_evals", self.pool.len() as u64);
                let scan_cost = MATCH_CPU_PER_AD_US * self.pool.len() as f64;
                let reply = self.constraint_scan(expr);
                let bytes = reply.bytes;
                cx.plan()
                    .cpu(INDEXED_LOOKUP_CPU_US + scan_cost)
                    .reply(reply, bytes)
            }
            HawkeyeMsg::AddTrigger { trigger } => {
                self.add_trigger(trigger.clone(), None);
                cx.plan().cpu(INDEXED_LOOKUP_CPU_US).reply(Rc::new(()), 64)
            }
            other => {
                debug_assert!(false, "unexpected message ({} bytes)", other.wire_size());
                cx.plan().reply_empty()
            }
        }
    }

    fn name(&self) -> &str {
        "hawkeye-manager"
    }
}

impl Manager {
    /// The reply to the constraint `expr`: the kept one when the pool has
    /// not changed since this expression was last scanned.
    fn constraint_scan(&mut self, expr: &str) -> Rc<AdsReply> {
        let pool = &self.pool;
        let (_, reply) = self.constraints.get(expr, self.generation, |old| {
            // The model only sends constraints that parse.  A release
            // build answers an unparsable one with the empty reply — the
            // same reply a constraint no ad satisfies gets — so a parser
            // regression would change no output byte: debug builds
            // refuse it instead.
            let compiled = old.map_or_else(
                || {
                    let parsed = parse_expr(expr);
                    debug_assert!(parsed.is_ok(), "unparsable constraint {expr:?}: {parsed:?}");
                    parsed.ok().map(|e| CompiledExpr::compile(&e))
                },
                |(compiled, _)| compiled,
            );
            let ads = match &compiled {
                Some(c) => pool
                    .values()
                    .filter(|row| matchmaker::matches_constraint_compiled(&row.ad, c))
                    .map(|row| row.ad.clone())
                    .collect(),
                None => Vec::new(),
            };
            (compiled, Rc::new(AdsReply::new(ads)))
        });
        Rc::clone(reply)
    }

    /// Register a trigger with a notification sink (deployment-time API;
    /// triggers can also arrive via [`HawkeyeMsg::AddTrigger`]).
    pub fn add_trigger(&mut self, trigger: ClassAd, notify: Option<SvcKey>) {
        self.triggers.push(Trigger {
            req: matchmaker::compile_requirements(&trigger),
            ad: trigger,
            notify,
            fired: 0,
        });
    }
}

/// The `hawkeye_advertise` fleet: simulates `n` pool members, each
/// sending a Startd ClassAd to the Manager every 30 seconds (staggered).
pub struct AdvertiserFleet {
    manager: SvcKey,
    /// Per machine: its (never-changing) `StartdAd` advertisement and
    /// that message's size, built once and re-sent as clones.
    ads: Vec<(Payload, u64)>,
    pub sent: u64,
}

impl AdvertiserFleet {
    pub fn new(manager: SvcKey, n: usize, modules_per_machine: usize) -> AdvertiserFleet {
        let ads = (0..n)
            .map(|i| {
                let machine = format!("sim{i:04}");
                let modules = crate::module::default_modules(&machine, modules_per_machine);
                let ad = Rc::new(crate::agent::startd_ad(&machine, &modules));
                let msg = HawkeyeMsg::StartdAd { machine, ad };
                let bytes = msg.wire_size();
                (Rc::new(msg) as Payload, bytes)
            })
            .collect();
        AdvertiserFleet {
            manager,
            ads,
            sent: 0,
        }
    }
}

impl Service for AdvertiserFleet {
    fn handle(&mut self, _req: Payload, cx: &mut SvcCx) -> Plan {
        cx.plan().reply_empty()
    }

    fn on_timer(&mut self, tag: u64, cx: &mut SvcCx) {
        let i = tag as usize;
        if let Some((msg, bytes)) = self.ads.get(i) {
            cx.send_oneway(self.manager, Rc::clone(msg), *bytes);
            self.sent += 1;
        }
        cx.set_timer(crate::agent::ADVERTISE_PERIOD, tag);
    }

    fn name(&self) -> &str {
        "hawkeye-advertiser-fleet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, ADVERTISE_PERIOD};
    use crate::module::default_modules;
    use simcore::{Engine, SimDuration, SimTime};
    use simnet::{
        Client, ClientCx, Eng, Net, NodeId, ReqOutcome, ReqResult, RequestSpec, ServiceConfig,
        StatsHub, Topology,
    };

    struct AskManager {
        from: NodeId,
        to: SvcKey,
        at_s: u64,
        msg: Box<dyn Fn() -> HawkeyeMsg>,
        results: std::rc::Rc<std::cell::RefCell<Vec<usize>>>,
    }

    impl Client for AskManager {
        fn on_start(&mut self, cx: &mut ClientCx) {
            cx.wake_in(SimDuration::from_secs(self.at_s), 0);
        }
        fn on_wake(&mut self, _tag: u64, cx: &mut ClientCx) {
            let m = (self.msg)();
            let bytes = m.wire_size();
            cx.submit(
                RequestSpec {
                    from: self.from,
                    to: self.to,
                    payload: Rc::new(m),
                    req_bytes: bytes,
                },
                0,
            );
        }
        fn on_outcome(&mut self, o: ReqOutcome, _cx: &mut ClientCx) {
            if let ReqResult::Ok(p, _) = o.result {
                if let Ok(r) = p.downcast::<AdsReply>() {
                    self.results.borrow_mut().push(r.ads.len());
                }
            }
        }
    }

    fn pool() -> (Net, Eng, NodeId, SvcKey, SvcKey) {
        let mut topo = Topology::new();
        let client = topo.add_node("client", 1, 1.0);
        let mgr_node = topo.add_node("lucky3", 2, 1.0);
        let agent_node = topo.add_node("lucky4", 2, 1.0);
        topo.connect(client, mgr_node, 100e6, SimDuration::from_millis(1));
        topo.connect(client, agent_node, 100e6, SimDuration::from_millis(1));
        topo.connect(mgr_node, agent_node, 100e6, SimDuration::from_micros(200));
        let mut net = Net::new(topo, StatsHub::new(SimTime::ZERO, SimTime::from_secs(600)));
        let mut eng: Eng = Engine::new(31);
        let mgr = net.add_service(
            mgr_node,
            ServiceConfig::default(),
            Box::new(Manager::new()),
            &mut eng,
        );
        let mut agent = Agent::new("lucky4", default_modules("lucky4", 11));
        agent.register_with(mgr);
        let ag = net.add_service(
            agent_node,
            ServiceConfig::default(),
            Box::new(agent),
            &mut eng,
        );
        net.prime_service_timer(&mut eng, ag, SimDuration::from_millis(100), 0);
        (net, eng, client, mgr, ag)
    }

    #[test]
    fn agent_advertises_every_30s_and_manager_stores() {
        let (mut net, mut eng, _c, mgr, ag) = pool();
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(100));
        let m = net.service_as::<Manager>(mgr).unwrap();
        assert_eq!(m.pool_size(), 1);
        assert!(m.pool.contains_key("lucky4"));
        // ~100s / 30s period = 4 ads (t≈0.1, 30.1, 60.1, 90.1).
        let a = net.service_as::<Agent>(ag).unwrap();
        assert_eq!(a.ads_sent, 4);
        assert_eq!(net.service_as::<Manager>(mgr).unwrap().ads_received, 4);
        let _ = ADVERTISE_PERIOD;
    }

    #[test]
    fn status_query_hits_index() {
        let (mut net, mut eng, client, mgr, _ag) = pool();
        let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(AskManager {
            from: client,
            to: mgr,
            at_s: 40,
            msg: Box::new(|| HawkeyeMsg::Status {
                machine: Some("lucky4".into()),
            }),
            results: results.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(60));
        assert_eq!(*results.borrow(), vec![1]);
    }

    #[test]
    fn constraint_scan_worst_case_matches_nothing() {
        let (mut net, mut eng, client, mgr, _ag) = pool();
        let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(AskManager {
            from: client,
            to: mgr,
            at_s: 40,
            msg: Box::new(|| HawkeyeMsg::Constraint {
                expr: "NoSuchAttr =?= 12345".into(),
            }),
            results: results.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(60));
        assert_eq!(*results.borrow(), vec![0]);
        assert_eq!(net.service_as::<Manager>(mgr).unwrap().queries, 1);
    }

    #[test]
    fn constraint_finds_matching_machines() {
        let (mut net, mut eng, client, mgr, _ag) = pool();
        let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(AskManager {
            from: client,
            to: mgr,
            at_s: 40,
            msg: Box::new(|| HawkeyeMsg::Constraint {
                expr: "ModuleCount == 11".into(),
            }),
            results: results.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(60));
        assert_eq!(*results.borrow(), vec![1]);
    }

    #[test]
    fn trigger_fires_on_matching_ad() {
        let (mut net, mut eng, _client, mgr, _ag) = pool();
        // Trigger: module count over threshold (always true for our agent).
        let trig = ClassAd::parse("Requirements = TARGET.ModuleCount >= 11\n").unwrap();
        net.service_as_mut::<Manager>(mgr)
            .unwrap()
            .add_trigger(trig, None);
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(100));
        let m = net.service_as::<Manager>(mgr).unwrap();
        // Fires once per received ad (4 ads).
        assert_eq!(m.triggers_fired, 4);
        assert_eq!(m.triggers[0].fired, 4);
    }

    #[test]
    fn advertiser_fleet_populates_pool() {
        let (mut net, mut eng, _client, mgr, _ag) = pool();
        let fleet_node = net.topo.find_node("lucky4").unwrap();
        let fleet = net.add_service(
            fleet_node,
            ServiceConfig::default(),
            Box::new(AdvertiserFleet::new(mgr, 50, 11)),
            &mut eng,
        );
        // Stagger the 50 machines over the 30s period.
        for i in 0..50u64 {
            net.prime_service_timer(&mut eng, fleet, SimDuration::from_millis(i * 600), i);
        }
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(120));
        let m = net.service_as::<Manager>(mgr).unwrap();
        assert_eq!(m.pool_size(), 51); // 50 simulated + 1 real agent
        let f = net.service_as::<AdvertiserFleet>(fleet).unwrap();
        assert!(f.sent >= 150, "sent {}", f.sent);
    }

    #[test]
    fn agent_full_query_returns_integrated_ad() {
        let (mut net, mut eng, client, _mgr, ag) = pool();
        let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(AskManager {
            from: client,
            to: ag,
            at_s: 5,
            msg: Box::new(|| HawkeyeMsg::AgentFull),
            results: results.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(30));
        assert_eq!(*results.borrow(), vec![1]);
        let a = net.service_as::<Agent>(ag).unwrap();
        assert_eq!(a.queries, 1);
        assert!(a.module_runs >= 11);
    }

    /// A Manager driven outside a `Net`: messages in, plans and modelled
    /// counters out.
    struct Bare {
        mgr: Manager,
        rng: simcore::SimRng,
        obs: simnet::Obs,
        lent: simnet::service::Lent,
    }

    impl Bare {
        fn new() -> Bare {
            Bare {
                mgr: Manager::new(),
                rng: simcore::SimRng::new(1),
                obs: simnet::Obs::from_mode(simnet::ObsMode {
                    trace: false,
                    metrics: true,
                }),
                lent: Default::default(),
            }
        }

        fn send(&mut self, at_s: u64, msg: HawkeyeMsg) -> Plan {
            let mut cx = SvcCx::for_tests(
                SimTime::from_secs(at_s),
                simcore::slab::SlabKey::NULL,
                &mut self.rng,
                &mut self.obs,
                &mut self.lent,
            );
            self.mgr.handle(Rc::new(msg), &mut cx)
        }

        fn advertise(&mut self, at_s: u64, machine: &str, ad: &Rc<ClassAd>) {
            self.send(
                at_s,
                HawkeyeMsg::StartdAd {
                    machine: machine.into(),
                    ad: ad.clone(),
                },
            );
        }

        /// One constraint query: (charged CPU, reply).
        fn constrain(&mut self, at_s: u64, expr: &str) -> (f64, Rc<AdsReply>) {
            let plan = self.send(at_s, HawkeyeMsg::Constraint { expr: expr.into() });
            let mut steps = plan.steps.into_iter();
            let Some(simnet::Step::Cpu(cpu)) = steps.next() else {
                panic!("constraint plan starts with its CPU charge");
            };
            let Some(simnet::Step::Reply { payload, .. }) = steps.next() else {
                panic!("constraint plan ends with a reply");
            };
            (cpu, payload.downcast::<AdsReply>().unwrap())
        }

        fn match_evals(&self) -> u64 {
            self.obs
                .metrics
                .snapshot(SimTime::ZERO)
                .iter()
                .find(|r| r.name == "hawkeye.match_evals")
                .map_or(0, |r| r.total as u64)
        }
    }

    fn startd(machine: &str, modules: i64) -> Rc<ClassAd> {
        let src = format!(
            "Machine = \"{machine}\"\nModuleCount = {modules}\nRequirements = TARGET.Load > 1\n"
        );
        Rc::new(ClassAd::parse(&src).unwrap())
    }

    #[test]
    fn identical_readvertisement_keeps_generation_and_requirements() {
        let mut b = Bare::new();
        let ad = startd("m1", 11);
        b.advertise(0, "m1", &ad);
        assert_eq!(b.mgr.generation, 1);
        // The same `Rc` again (what agents and the fleet send), then an
        // equal ad built afresh: neither is a change.
        b.advertise(30, "m1", &ad);
        b.advertise(60, "m1", &startd("m1", 11));
        assert_eq!(b.mgr.generation, 1);
        assert_eq!(b.mgr.ads_received, 3);
        // The row — ad and held requirements — is the one stored
        // first; only its arrival time moved.
        let row = &b.mgr.pool["m1"];
        assert!(Rc::ptr_eq(&row.ad, &ad));
        assert!(row.req.is_some());
        assert_eq!(row.at, SimTime::from_secs(60));
        // A different ad replaces both.
        b.advertise(90, "m1", &startd("m1", 12));
        assert_eq!(b.mgr.generation, 2);
        assert!(!Rc::ptr_eq(&b.mgr.pool["m1"].ad, &ad));
    }

    #[test]
    fn memo_hit_and_miss_cost_the_same_simulated_work() {
        let mut b = Bare::new();
        for (i, m) in ["m1", "m2", "m3"].into_iter().enumerate() {
            b.advertise(0, m, &startd(m, 10 + i as i64));
        }
        let q = "ModuleCount >= 11";
        let (miss_cpu, miss) = b.constrain(1, q);
        let miss_evals = b.match_evals();
        let (hit_cpu, hit) = b.constrain(2, q);
        let hit_evals = b.match_evals() - miss_evals;
        assert_eq!(miss_evals, 3);
        assert_eq!(hit_evals, 3, "a memo hit still counts the scan");
        assert_eq!(miss_cpu, INDEXED_LOOKUP_CPU_US + 3.0 * MATCH_CPU_PER_AD_US);
        assert_eq!(hit_cpu, miss_cpu, "a memo hit still charges the scan");
        assert_eq!(hit.ads.len(), 2);
        assert!(Rc::ptr_eq(&hit, &miss), "a memo hit answers with the memo");
    }

    #[test]
    fn status_reply_is_shared_until_the_ad_changes() {
        let mut b = Bare::new();
        let status = |b: &mut Bare, at_s| {
            let machine = Some("m1".to_string());
            let plan = b.send(at_s, HawkeyeMsg::Status { machine });
            let Some(simnet::Step::Reply { payload, .. }) = plan.steps.into_iter().last() else {
                panic!("status plan ends with a reply");
            };
            payload.downcast::<AdsReply>().unwrap()
        };
        b.advertise(0, "m1", &startd("m1", 11));
        let first = status(&mut b, 1);
        assert_eq!(first.ads.len(), 1);
        b.advertise(30, "m1", &startd("m1", 11));
        assert!(
            Rc::ptr_eq(&status(&mut b, 31), &first),
            "unchanged ad, same reply"
        );
        b.advertise(60, "m1", &startd("m1", 12));
        let changed = status(&mut b, 61);
        assert!(!Rc::ptr_eq(&changed, &first));
        assert!(Rc::ptr_eq(&changed.ads[0], &b.mgr.pool["m1"].ad));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "unparsable constraint")]
    fn unparsable_constraint_is_refused_in_debug_builds() {
        let mut b = Bare::new();
        b.advertise(0, "m1", &startd("m1", 11));
        b.constrain(1, "ModuleCount + 1 > 11");
    }
}
