//! R-GMA push mode — the paper's second use case: "a client program may
//! want to collect a stream of data to help steer an application".
//!
//! A ProducerServlet hosts load-data producers; a consumer first runs a
//! one-off pull query through the ConsumerServlet (Registry mediation),
//! then subscribes to the `cpuload` table and receives tuple batches
//! pushed every 10 seconds.
//!
//! ```text
//! cargo run --release --example streaming_consumer
//! ```

use gridmon::core::deploy::{self, Harness};
use gridmon::core::runcfg::RunConfig;
use gridmon::rgma::{ProducerServlet, Registry, RgmaMsg, SqlResultMsg, TupleSink};
use gridmon::simcore::{SimDuration, SimTime};
use gridmon::simnet::{
    Client, ClientCx, NodeId, ReqOutcome, ReqResult, RequestSpec, ServiceConfig, SvcKey,
};
use std::rc::Rc;

struct SteeringClient {
    from: NodeId,
    consumer_servlet: SvcKey,
    producer_servlet: SvcKey,
    sink: SvcKey,
}

impl Client for SteeringClient {
    fn on_start(&mut self, cx: &mut ClientCx) {
        // Let producers register and publish first.
        cx.wake_in(SimDuration::from_secs(40), 1);
    }

    fn on_wake(&mut self, tag: u64, cx: &mut ClientCx) {
        match tag {
            1 => {
                println!(
                    "[t={:>6.2}s] consumer: SELECT * FROM cpuload   (pull, via Registry mediation)",
                    cx.now().as_secs_f64()
                );
                let m = RgmaMsg::ConsumerQuery(Rc::new(
                    gridmon::rgma::Select::parse("SELECT * FROM cpuload").unwrap(),
                ));
                let bytes = m.wire_size();
                cx.submit(
                    RequestSpec {
                        from: self.from,
                        to: self.consumer_servlet,
                        payload: Rc::new(m),
                        req_bytes: bytes,
                    },
                    1,
                );
            }
            2 => {
                println!(
                    "[t={:>6.2}s] consumer: subscribing to cpuload (push every 10 s)",
                    cx.now().as_secs_f64()
                );
                let m = RgmaMsg::Subscribe {
                    table: "cpuload".into(),
                    sink: self.sink,
                    period_us: 10_000_000,
                };
                let bytes = m.wire_size();
                cx.submit(
                    RequestSpec {
                        from: self.from,
                        to: self.producer_servlet,
                        payload: Rc::new(m),
                        req_bytes: bytes,
                    },
                    2,
                );
            }
            _ => {}
        }
    }

    fn on_outcome(&mut self, outcome: ReqOutcome, cx: &mut ClientCx) {
        match (outcome.tag, outcome.result) {
            (1, ReqResult::Ok(payload, _)) => {
                let r = payload.downcast::<SqlResultMsg>().expect("sql result");
                println!(
                    "[t={:>6.2}s] consumer: pull returned {} rows ({:?})",
                    cx.now().as_secs_f64(),
                    r.rows.len(),
                    r.columns
                );
                cx.wake_in(SimDuration::from_secs(1), 2);
            }
            (2, ReqResult::Ok(..)) => {
                println!(
                    "[t={:>6.2}s] consumer: subscription accepted",
                    cx.now().as_secs_f64()
                );
            }
            (tag, _) => println!("request {tag} failed"),
        }
    }
}

fn main() {
    let mut h = Harness::new(RunConfig::quick(5));
    let reg_node = h.lucky("lucky1");
    let ps_node = h.lucky("lucky3");
    let cs_node = h.lucky("lucky5");

    let registry = deploy::registry(&mut h, reg_node);
    let producer_servlet = deploy::producer_servlet(&mut h, ps_node, 10, registry);
    let consumer_servlet = deploy::consumer_servlet(&mut h, cs_node, registry);

    // The consumer's stream sink runs next to the consumer at UC.
    let uc0 = h.uc[0];
    let sink = h.net.add_service(
        uc0,
        ServiceConfig::default(),
        Box::new(TupleSink::new()),
        &mut h.eng,
    );
    h.net.add_client(Box::new(SteeringClient {
        from: uc0,
        consumer_servlet,
        producer_servlet,
        sink,
    }));

    h.net.start(&mut h.eng);
    h.eng.run_until(&mut h.net, SimTime::from_secs(180));

    let registry_ref = h.net.service_as_mut::<Registry>(registry).unwrap();
    println!(
        "\nregistry: {} producers registered",
        registry_ref.producer_count()
    );
    let ps = h
        .net
        .service_as::<ProducerServlet>(producer_servlet)
        .unwrap();
    println!(
        "producer servlet: {} tuples published, {} stream batches sent",
        ps.tuples_published, ps.stream_batches
    );
    let sink_ref = h.net.service_as::<TupleSink>(sink).unwrap();
    println!(
        "consumer sink: {} batches, {} tuples received over the stream",
        sink_ref.batches, sink_ref.tuples
    );
    assert!(sink_ref.batches >= 10);
}
