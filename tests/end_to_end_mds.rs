//! End-to-end MDS integration: the full GRIS -> GIIS hierarchy on the
//! simulated Lucky testbed.

use gridmon::core::deploy::{self, giis_suffix, gris_suffix, Harness};
use gridmon::core::runcfg::RunConfig;
use gridmon::ldap::{Filter, Scope};
use gridmon::mds::{Giis, Gris, MdsRequest, MdsSearchResult};
use gridmon::simcore::{SimDuration, SimTime};
use gridmon::simnet::{Client, ClientCx, NodeId, ReqOutcome, ReqResult, RequestSpec, SvcKey};
use std::cell::RefCell;
use std::rc::Rc;

/// Client that issues a fixed list of `(time, request builder)` queries.
struct Prober {
    from: NodeId,
    to: SvcKey,
    schedule: Vec<u64>,
    build: Box<dyn Fn(usize) -> MdsRequest>,
    results: Rc<RefCell<Vec<(usize, f64)>>>,
    sent: usize,
}

impl Client for Prober {
    fn on_start(&mut self, cx: &mut ClientCx) {
        for (i, &t) in self.schedule.iter().enumerate() {
            cx.wake_in(SimDuration::from_secs(t), i as u64);
        }
    }
    fn on_wake(&mut self, tag: u64, cx: &mut ClientCx) {
        let req = (self.build)(tag as usize);
        let bytes = req.wire_size();
        self.sent += 1;
        cx.submit(
            RequestSpec {
                from: self.from,
                to: self.to,
                payload: Rc::new(req),
                req_bytes: bytes,
            },
            tag,
        );
    }
    fn on_outcome(&mut self, o: ReqOutcome, _cx: &mut ClientCx) {
        if let ReqResult::Ok(p, _) = o.result {
            let r = p.downcast::<MdsSearchResult>().unwrap();
            let rt = (o.completed - o.submitted).as_secs_f64();
            self.results.borrow_mut().push((r.entries.len(), rt));
        } else {
            self.results.borrow_mut().push((usize::MAX, -1.0));
        }
    }
}

#[test]
fn gris_caching_makes_repeat_queries_cheap() {
    let mut h = Harness::new(RunConfig::quick(101));
    let server = h.lucky("lucky7");
    let gris = deploy::gris(&mut h, server, 10, true, false);
    let results = Rc::new(RefCell::new(Vec::new()));
    let uc0 = h.uc[0];
    h.net.add_client(Box::new(Prober {
        from: uc0,
        to: gris,
        schedule: vec![1, 10, 20],
        build: Box::new(|_| MdsRequest::search_all(gris_suffix(0))),
        results: results.clone(),
        sent: 0,
    }));
    h.net.start(&mut h.eng);
    h.eng.run_until(&mut h.net, SimTime::from_secs(60));
    let results = results.borrow();
    assert_eq!(results.len(), 3);
    let cold = results[0].1;
    let warm = results[1].1;
    // The cold query pays ~0.5 s of serialized provider execution on top
    // of the bind/search cost the warm queries also pay.
    assert!(cold > warm * 1.5, "cold {cold} vs warm {warm}");
    assert!(cold - warm > 0.4, "provider cost missing: {cold} vs {warm}");
    // Same data every time.
    assert_eq!(results[0].0, results[2].0);
    assert!(results[0].0 > 20);
    // Providers executed exactly once.
    assert_eq!(h.net.service_as::<Gris>(gris).unwrap().provider_runs, 10);
}

#[test]
fn giis_aggregates_five_sites_and_serves_part_queries() {
    let mut h = Harness::new(RunConfig::quick(102));
    let giis_node = h.lucky("lucky0");
    let gris_nodes: Vec<NodeId> = ["lucky3", "lucky4", "lucky5", "lucky6", "lucky7"]
        .iter()
        .map(|n| h.lucky(n))
        .collect();
    let (giis, grafts) = deploy::giis_pool(&mut h, giis_node, &gris_nodes, 5, None);
    assert_eq!(grafts.len(), 5);

    let all = Rc::new(RefCell::new(Vec::new()));
    let uc0 = h.uc[0];
    h.net.add_client(Box::new(Prober {
        from: uc0,
        to: giis,
        schedule: vec![40],
        build: Box::new(|_| MdsRequest::search_all(giis_suffix())),
        results: all.clone(),
        sent: 0,
    }));
    let part = Rc::new(RefCell::new(Vec::new()));
    let graft = grafts[2].clone();
    h.net.add_client(Box::new(Prober {
        from: uc0,
        to: giis,
        schedule: vec![50],
        build: Box::new(move |_| MdsRequest::Search {
            base: graft.clone(),
            scope: Scope::Sub,
            filter: Filter::any(),
            attrs: None,
        }),
        results: part.clone(),
        sent: 0,
    }));
    h.net.start(&mut h.eng);
    h.eng.run_until(&mut h.net, SimTime::from_secs(120));

    let all_n = all.borrow()[0].0;
    let part_n = part.borrow()[0].0;
    assert!(all_n > part_n * 4, "all {all_n} vs part {part_n}");
    assert!(part_n > 10, "one site's subtree: {part_n}");
    let g = h.net.service_as::<Giis>(giis).unwrap();
    assert_eq!(g.registered_count(), 5);
    assert_eq!(g.pulls, 5, "cache pinned: one pull per site");
}

#[test]
fn giis_filtered_search_selects_across_sites() {
    let mut h = Harness::new(RunConfig::quick(103));
    let giis_node = h.lucky("lucky0");
    let gris_nodes: Vec<NodeId> = vec![h.lucky("lucky3"), h.lucky("lucky4")];
    let (giis, _) = deploy::giis_pool(&mut h, giis_node, &gris_nodes, 4, None);
    let results = Rc::new(RefCell::new(Vec::new()));
    let uc0 = h.uc[0];
    h.net.add_client(Box::new(Prober {
        from: uc0,
        to: giis,
        schedule: vec![40],
        build: Box::new(|_| MdsRequest::Search {
            base: giis_suffix(),
            scope: Scope::Sub,
            filter: Filter::parse("(mds-device-group-name=cpu)").unwrap(),
            attrs: None,
        }),
        results: results.clone(),
        sent: 0,
    }));
    h.net.start(&mut h.eng);
    h.eng.run_until(&mut h.net, SimTime::from_secs(100));
    // One cpu device-group entry per registered site.
    assert_eq!(results.borrow()[0].0, 4);
}

#[test]
fn identical_seeds_give_identical_mds_runs() {
    let run = |seed: u64| {
        let mut h = Harness::new(RunConfig::quick(seed));
        let server = h.lucky("lucky7");
        let gris = deploy::gris(&mut h, server, 10, true, true);
        let results = Rc::new(RefCell::new(Vec::new()));
        let uc0 = h.uc[0];
        h.net.add_client(Box::new(Prober {
            from: uc0,
            to: gris,
            schedule: vec![1, 5, 9, 13],
            build: Box::new(|_| MdsRequest::search_all(gris_suffix(0))),
            results: results.clone(),
            sent: 0,
        }));
        h.net.start(&mut h.eng);
        h.eng.run_until(&mut h.net, SimTime::from_secs(60));
        let v = results.borrow().clone();
        (v, h.eng.fired)
    };
    let a = run(7);
    let b = run(7);
    let c = run(8);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1, "event counts must match exactly");
    // A different seed still completes all queries (jitter differs).
    assert_eq!(c.0.len(), 4);
}
