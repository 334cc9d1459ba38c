//! Quickstart: deploy an MDS GRIS on the simulated Lucky testbed, query
//! it three times (cold, then cached) and print what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gridmon::core::deploy::{self, gris_suffix, Harness};
use gridmon::core::runcfg::RunConfig;
use gridmon::mds::{Gris, MdsRequest, MdsSearchResult};
use gridmon::simcore::{SimDuration, SimTime};
use gridmon::simnet::{Client, ClientCx, NodeId, ReqOutcome, ReqResult, RequestSpec, SvcKey};
use std::rc::Rc;

/// A little client that queries a few times and prints the results.
struct Demo {
    from: NodeId,
    gris: SvcKey,
    queries_left: u32,
}

impl Client for Demo {
    fn on_start(&mut self, cx: &mut ClientCx) {
        cx.wake_in(SimDuration::from_secs(1), 0);
    }

    fn on_wake(&mut self, _tag: u64, cx: &mut ClientCx) {
        let req = MdsRequest::search_all(gris_suffix(0));
        let bytes = req.wire_size();
        println!(
            "[t={:>7.3}s] user: ldapsearch -h lucky7 -b '{}' '(objectclass=*)'",
            cx.now().as_secs_f64(),
            gris_suffix(0)
        );
        cx.submit(
            RequestSpec {
                from: self.from,
                to: self.gris,
                payload: Rc::new(req),
                req_bytes: bytes,
            },
            0,
        );
    }

    fn on_outcome(&mut self, outcome: ReqOutcome, cx: &mut ClientCx) {
        let rt = (outcome.completed - outcome.submitted).as_secs_f64();
        match outcome.result {
            ReqResult::Ok(payload, wire_bytes) => {
                let result = payload
                    .downcast::<MdsSearchResult>()
                    .expect("search result");
                println!(
                    "[t={:>7.3}s] user: {} entries, {} bytes on the wire, {:.3} s response time",
                    cx.now().as_secs_f64(),
                    result.entries.len(),
                    wire_bytes,
                    rt
                );
            }
            _ => println!(
                "[t={:>7.3}s] query failed after {rt:.3} s",
                cx.now().as_secs_f64()
            ),
        }
        self.queries_left -= 1;
        if self.queries_left > 0 {
            cx.wake_in(SimDuration::from_secs(5), 0);
        }
    }
}

fn main() {
    // The simulated testbed: seven lucky nodes at ANL, twenty client
    // machines at UC, a WAN in between.
    let mut h = Harness::new(RunConfig::quick(42));
    let server = h.lucky("lucky7");

    // A GRIS with the ten default information providers, data cached
    // ("data always in cache", the configuration the paper recommends).
    let gris = deploy::gris(&mut h, server, 10, true, true);

    // One user at UC.
    let uc0 = h.uc[0];
    h.net.add_client(Box::new(Demo {
        from: uc0,
        gris,
        queries_left: 3,
    }));

    h.net.start(&mut h.eng);
    h.eng.run_until(&mut h.net, SimTime::from_secs(60));

    let g = h.net.service_as::<Gris>(gris).expect("gris");
    println!(
        "\nGRIS summary: {} queries answered, {} provider invocations \
         (caching means the 10 providers ran only once)",
        g.queries, g.provider_runs
    );
    assert_eq!(g.provider_runs, 10);
}
