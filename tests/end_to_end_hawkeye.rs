//! End-to-end Hawkeye integration: advertising, status/constraint
//! queries, triggers, and the simulated advertiser fleet.

use gridmon::classad::ClassAd;
use gridmon::core::deploy::{self, Harness};
use gridmon::core::runcfg::RunConfig;
use gridmon::hawkeye::{Agent, HawkeyeMsg, Manager};
use gridmon::simcore::{SimDuration, SimTime};
use gridmon::simnet::{
    Client, ClientCx, NodeId, Payload, Plan, ReqOutcome, ReqResult, RequestSpec, Service,
    ServiceConfig, SvcCx, SvcKey,
};
use std::cell::RefCell;
use std::rc::Rc;

/// A constraint query, its expression parsed once as a scenario's is.
fn constraint(text: &str) -> HawkeyeMsg {
    let expr = gridmon::classad::parse_expr(text).unwrap();
    HawkeyeMsg::Constraint {
        expr: Rc::new(gridmon::classad::CompiledExpr::compile(&expr)),
        text_len: text.len(),
    }
}

struct Asker {
    from: NodeId,
    to: SvcKey,
    at: u64,
    build: Box<dyn Fn() -> HawkeyeMsg>,
    ads_seen: Rc<RefCell<Vec<usize>>>,
}

impl Client for Asker {
    fn on_start(&mut self, cx: &mut ClientCx) {
        cx.wake_in(SimDuration::from_secs(self.at), 0);
    }
    fn on_wake(&mut self, _t: u64, cx: &mut ClientCx) {
        let m = (self.build)();
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
            if let Ok(r) = p.downcast::<gridmon::hawkeye::proto::AdsReply>() {
                self.ads_seen.borrow_mut().push(r.ads.len());
            }
        }
    }
}

fn pool(h: &mut Harness, agents: usize) -> (SvcKey, Vec<SvcKey>) {
    let mgr_node = h.lucky("lucky3");
    let mgr = deploy::manager(h, mgr_node);
    let names = ["lucky0", "lucky1", "lucky4", "lucky5", "lucky6", "lucky7"];
    let keys = names[..agents]
        .iter()
        .map(|n| {
            let node = h.lucky(n);
            deploy::agent(h, node, 11, mgr)
        })
        .collect();
    (mgr, keys)
}

#[test]
fn agents_populate_the_managers_resident_database() {
    let mut h = Harness::new(RunConfig::quick(301));
    let (mgr, agents) = pool(&mut h, 6);
    h.net.start(&mut h.eng);
    h.eng.run_until(&mut h.net, SimTime::from_secs(70));
    let m = h.net.service_as::<Manager>(mgr).unwrap();
    assert_eq!(m.pool_size(), 6);
    // Each agent advertised at t≈0.5, 30.5, 60.5.
    for a in &agents {
        assert_eq!(h.net.service_as::<Agent>(*a).unwrap().ads_sent, 3);
    }
    assert_eq!(m.ads_received, 18);
}

#[test]
fn status_and_constraint_queries() {
    let mut h = Harness::new(RunConfig::quick(302));
    let (mgr, _) = pool(&mut h, 6);
    let status = Rc::new(RefCell::new(Vec::new()));
    let uc0 = h.uc[0];
    h.net.add_client(Box::new(Asker {
        from: uc0,
        to: mgr,
        at: 40,
        build: Box::new(|| HawkeyeMsg::Status {
            machine: Some("lucky5".into()),
        }),
        ads_seen: status.clone(),
    }));
    let matches = Rc::new(RefCell::new(Vec::new()));
    h.net.add_client(Box::new(Asker {
        from: uc0,
        to: mgr,
        at: 45,
        build: Box::new(|| constraint("ModuleCount == 11")),
        ads_seen: matches.clone(),
    }));
    let none = Rc::new(RefCell::new(Vec::new()));
    h.net.add_client(Box::new(Asker {
        from: uc0,
        to: mgr,
        at: 50,
        build: Box::new(|| constraint("Nope =?= 1")),
        ads_seen: none.clone(),
    }));
    h.net.start(&mut h.eng);
    h.eng.run_until(&mut h.net, SimTime::from_secs(90));
    assert_eq!(*status.borrow(), vec![1]);
    assert_eq!(*matches.borrow(), vec![6]);
    assert_eq!(*none.borrow(), vec![0]);
}

/// Notification sink for trigger firings.
struct Inbox {
    fired: u64,
}

impl Service for Inbox {
    fn handle(&mut self, req: Payload, _cx: &mut SvcCx) -> Plan {
        if let Ok(m) = req.downcast::<HawkeyeMsg>() {
            if matches!(*m, HawkeyeMsg::TriggerFired { .. }) {
                self.fired += 1;
            }
        }
        Plan::new().cpu(100.0).done()
    }
}

#[test]
fn triggers_fire_per_matching_advertisement() {
    let mut h = Harness::new(RunConfig::quick(303));
    let (mgr, _) = pool(&mut h, 3);
    let uc0 = h.uc[0];
    let inbox = h.net.add_service(
        uc0,
        ServiceConfig::default(),
        Box::new(Inbox { fired: 0 }),
        &mut h.eng,
    );
    let trig = ClassAd::parse("Requirements = TARGET.ModuleCount >= 11\n").unwrap();
    h.net
        .service_as_mut::<Manager>(mgr)
        .unwrap()
        .add_trigger(trig, Some(inbox));
    h.net.start(&mut h.eng);
    h.eng.run_until(&mut h.net, SimTime::from_secs(70));
    let m = h.net.service_as::<Manager>(mgr).unwrap();
    // 3 agents × 3 ads each, every ad matches.
    assert_eq!(m.triggers_fired, 9);
    assert_eq!(h.net.service_as::<Inbox>(inbox).unwrap().fired, 9);
}

#[test]
fn advertiser_fleet_scales_the_pool() {
    let mut h = Harness::new(RunConfig::quick(304));
    let mgr_node = h.lucky("lucky3");
    let mgr = deploy::manager(&mut h, mgr_node);
    let fleet_node = h.lucky("lucky4");
    deploy::advertiser_fleet(&mut h, fleet_node, 200, mgr);
    h.net.start(&mut h.eng);
    h.eng.run_until(&mut h.net, SimTime::from_secs(65));
    let m = h.net.service_as::<Manager>(mgr).unwrap();
    assert_eq!(m.pool_size(), 200);
    // Two advertise rounds in 65 s.
    assert!(m.ads_received >= 380, "ads {}", m.ads_received);
    // A worst-case constraint scan sees all 200 ads.
    let none = Rc::new(RefCell::new(Vec::new()));
    let uc0 = h.uc[0];
    let late = h.net.add_client(Box::new(Asker {
        from: uc0,
        to: mgr,
        at: 1,
        build: Box::new(|| constraint("Nope =?= 1")),
        ads_seen: none.clone(),
    }));
    h.net.start_client(&mut h.eng, late);
    h.eng.run_until(&mut h.net, SimTime::from_secs(80));
    assert_eq!(*none.borrow(), vec![0]);
}
