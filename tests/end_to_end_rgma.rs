//! End-to-end R-GMA integration: registration, mediation, pull and push,
//! and failure propagation through the servlet chain.

use gridmon::core::deploy::{self, Harness};
use gridmon::core::runcfg::RunConfig;
use gridmon::rgma::{ConsumerServlet, ProducerServlet, Registry, RgmaMsg, SqlResultMsg, TupleSink};
use gridmon::simcore::{SimDuration, SimTime};
use gridmon::simnet::{
    Client, ClientCx, NodeId, ReqOutcome, ReqResult, RequestSpec, ServiceConfig, SvcKey,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Outcome classification for assertions.
#[derive(Debug, PartialEq, Clone)]
enum Got {
    Rows(usize),
    Failed,
    Refused,
}

struct SqlProber {
    from: NodeId,
    to: SvcKey,
    at: Vec<u64>,
    sql: String,
    results: Rc<RefCell<Vec<Got>>>,
}

impl Client for SqlProber {
    fn on_start(&mut self, cx: &mut ClientCx) {
        for &t in &self.at {
            cx.wake_in(SimDuration::from_secs(t), 0);
        }
    }
    fn on_wake(&mut self, _tag: u64, cx: &mut ClientCx) {
        let m = RgmaMsg::ConsumerQuery(Rc::new(gridmon::rgma::Select::parse(&self.sql).unwrap()));
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
        let got = match o.result {
            ReqResult::Ok(p, _) => match p.downcast::<SqlResultMsg>() {
                Ok(r) => Got::Rows(r.rows.len()),
                Err(_) => Got::Rows(usize::MAX),
            },
            ReqResult::Failed => Got::Failed,
            ReqResult::Refused => Got::Refused,
        };
        self.results.borrow_mut().push(got);
    }
}

fn standard_rgma(h: &mut Harness) -> (SvcKey, SvcKey, SvcKey) {
    let reg_node = h.lucky("lucky1");
    let ps_node = h.lucky("lucky3");
    let cs_node = h.lucky("lucky5");
    let reg = deploy::registry(h, reg_node);
    let ps = deploy::producer_servlet(h, ps_node, 10, reg);
    let cs = deploy::consumer_servlet(h, cs_node, reg);
    (reg, ps, cs)
}

#[test]
fn mediated_query_returns_producer_tuples() {
    let mut h = Harness::new(RunConfig::quick(201));
    let (reg, ps, cs) = standard_rgma(&mut h);
    let results = Rc::new(RefCell::new(Vec::new()));
    let uc0 = h.uc[0];
    h.net.add_client(Box::new(SqlProber {
        from: uc0,
        to: cs,
        at: vec![60],
        sql: "SELECT * FROM cpuload".into(),
        results: results.clone(),
    }));
    h.net.start(&mut h.eng);
    h.eng.run_until(&mut h.net, SimTime::from_secs(120));
    assert_eq!(*results.borrow(), vec![Got::Rows(8)]);
    assert_eq!(
        h.net
            .service_as_mut::<Registry>(reg)
            .unwrap()
            .producer_count(),
        10
    );
    assert!(h.net.service_as::<ProducerServlet>(ps).unwrap().queries >= 1);
    assert_eq!(
        h.net.service_as::<ConsumerServlet>(cs).unwrap().mediations,
        1
    );
}

#[test]
fn filtered_sql_reaches_the_tuple_store() {
    let mut h = Harness::new(RunConfig::quick(202));
    let (_reg, _ps, cs) = standard_rgma(&mut h);
    let results = Rc::new(RefCell::new(Vec::new()));
    let uc0 = h.uc[0];
    h.net.add_client(Box::new(SqlProber {
        from: uc0,
        to: cs,
        at: vec![60],
        sql: "SELECT entity, value FROM cpuload WHERE entity = 'e3'".into(),
        results: results.clone(),
    }));
    h.net.start(&mut h.eng);
    h.eng.run_until(&mut h.net, SimTime::from_secs(120));
    assert_eq!(*results.borrow(), vec![Got::Rows(1)]);
}

#[test]
fn unknown_table_is_empty_not_an_error() {
    let mut h = Harness::new(RunConfig::quick(203));
    let (_reg, _ps, cs) = standard_rgma(&mut h);
    let results = Rc::new(RefCell::new(Vec::new()));
    let uc0 = h.uc[0];
    h.net.add_client(Box::new(SqlProber {
        from: uc0,
        to: cs,
        at: vec![60],
        sql: "SELECT * FROM no_such_table".into(),
        results: results.clone(),
    }));
    h.net.start(&mut h.eng);
    h.eng.run_until(&mut h.net, SimTime::from_secs(120));
    assert_eq!(*results.borrow(), vec![Got::Rows(0)]);
}

#[test]
fn unreachable_registry_fails_the_consumer_query() {
    let mut h = Harness::new(RunConfig::quick(204));
    // A "registry" that refuses every connection (capacity 0).
    let reg_node = h.lucky("lucky1");
    let dead_cfg = ServiceConfig {
        conn_capacity: 0,
        backlog: 0,
        workers: Some(1),
        ..Default::default()
    };
    let dead_reg = h
        .net
        .add_service(reg_node, dead_cfg, Box::new(Registry::new()), &mut h.eng);
    let cs_node = h.lucky("lucky5");
    let cs = deploy::consumer_servlet(&mut h, cs_node, dead_reg);
    let results = Rc::new(RefCell::new(Vec::new()));
    let uc0 = h.uc[0];
    h.net.add_client(Box::new(SqlProber {
        from: uc0,
        to: cs,
        at: vec![10],
        sql: "SELECT * FROM cpuload".into(),
        results: results.clone(),
    }));
    h.net.start(&mut h.eng);
    h.eng.run_until(&mut h.net, SimTime::from_secs(60));
    // The failure propagates: the consumer sees an error, not a silent
    // empty result.
    assert_eq!(*results.borrow(), vec![Got::Failed]);
}

#[test]
fn push_stream_delivers_batches_until_the_end() {
    let mut h = Harness::new(RunConfig::quick(205));
    let (_reg, ps, _cs) = standard_rgma(&mut h);
    let uc0 = h.uc[0];
    let sink = h.net.add_service(
        uc0,
        ServiceConfig::default(),
        Box::new(TupleSink::new()),
        &mut h.eng,
    );
    struct Sub {
        from: NodeId,
        ps: SvcKey,
        sink: SvcKey,
    }
    impl Client for Sub {
        fn on_start(&mut self, cx: &mut ClientCx) {
            cx.wake_in(SimDuration::from_secs(50), 0);
        }
        fn on_wake(&mut self, _t: u64, cx: &mut ClientCx) {
            let m = RgmaMsg::Subscribe {
                table: "memory".into(),
                sink: self.sink,
                period_us: 5_000_000,
            };
            let bytes = m.wire_size();
            cx.submit(
                RequestSpec {
                    from: self.from,
                    to: self.ps,
                    payload: Rc::new(m),
                    req_bytes: bytes,
                },
                0,
            );
        }
    }
    h.net.add_client(Box::new(Sub {
        from: uc0,
        ps,
        sink,
    }));
    h.net.start(&mut h.eng);
    h.eng.run_until(&mut h.net, SimTime::from_secs(160));
    let s = h.net.service_as::<TupleSink>(sink).unwrap();
    // (160-55)/5 ≈ 21 batches of 8 entities.
    assert!(s.batches >= 18, "batches {}", s.batches);
    assert_eq!(s.tuples, s.batches * 8);
}
