//! Resource selection through an MDS GIIS — the paper's motivating use
//! case: "a user may want to determine the best platform to run an
//! application on".
//!
//! Five GRISes (one per compute site) register with a site GIIS.  A
//! broker client searches the aggregate directory for hosts matching a
//! requirement filter and picks the best one.
//!
//! ```text
//! cargo run --release --example resource_selection
//! ```

use gridmon::core::deploy::{self, giis_suffix, Harness};
use gridmon::core::runcfg::RunConfig;
use gridmon::ldap::{Filter, Scope};
use gridmon::mds::{Giis, MdsRequest, MdsSearchResult};
use gridmon::simcore::{SimDuration, SimTime};
use gridmon::simnet::{Client, ClientCx, NodeId, ReqOutcome, ReqResult, RequestSpec, SvcKey};
use std::rc::Rc;

/// A resource broker: asks the GIIS for candidate hosts, ranks them.
struct Broker {
    from: NodeId,
    giis: SvcKey,
}

impl Client for Broker {
    fn on_start(&mut self, cx: &mut ClientCx) {
        // Give the GRISes time to register (soft-state heartbeats).
        cx.wake_in(SimDuration::from_secs(35), 0);
    }

    fn on_wake(&mut self, _tag: u64, cx: &mut ClientCx) {
        // "Which devices advertise a cpu metric?"
        let req = MdsRequest::Search {
            base: giis_suffix(),
            scope: Scope::Sub,
            filter: Filter::parse("(&(objectclass=mdsdevice)(mds-cpu-metric=*))").unwrap(),
            attrs: None,
        };
        let bytes = req.wire_size();
        println!(
            "[t={:>6.2}s] broker: searching the GIIS for cpu-capable devices...",
            cx.now().as_secs_f64()
        );
        cx.submit(
            RequestSpec {
                from: self.from,
                to: self.giis,
                payload: Rc::new(req),
                req_bytes: bytes,
            },
            0,
        );
    }

    fn on_outcome(&mut self, outcome: ReqOutcome, cx: &mut ClientCx) {
        let ReqResult::Ok(payload, _) = outcome.result else {
            println!("broker: query failed");
            return;
        };
        let result = payload.downcast::<MdsSearchResult>().expect("result");
        println!(
            "[t={:>6.2}s] broker: {} candidate devices across the grid:",
            cx.now().as_secs_f64(),
            result.entries.len()
        );
        // Rank by the advertised metric (higher = better here).
        let mut best: Option<(&str, f64)> = None;
        for e in result.entries.iter() {
            let first = |attr| e.get(attr).first().map(|(_, v)| v.as_str());
            let host = first("mds-host-hn").unwrap_or("?");
            let metric: f64 = first("mds-cpu-metric")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0);
            println!("    {host:<24} cpu-metric = {metric}");
            if best.is_none_or(|(_, m)| metric > m) {
                best = Some((host, metric));
            }
        }
        if let Some((host, metric)) = best {
            println!("broker: selected {host} (metric {metric}) for the job");
        }
    }
}

fn main() {
    let mut h = Harness::new(RunConfig::quick(7));
    let giis_node = h.lucky("lucky0");
    let gris_nodes: Vec<NodeId> = ["lucky3", "lucky4", "lucky5", "lucky6", "lucky7"]
        .iter()
        .map(|n| h.lucky(n))
        .collect();
    // Five registered sites, cache pinned (the paper's Experiment 2
    // directory configuration).
    let (giis, _grafts) = deploy::giis_pool(&mut h, giis_node, &gris_nodes, 5, None);
    let uc0 = h.uc[0];
    h.net.add_client(Box::new(Broker { from: uc0, giis }));

    h.net.start(&mut h.eng);
    h.eng.run_until(&mut h.net, SimTime::from_secs(120));

    let g = h.net.service_as::<Giis>(giis).expect("giis");
    println!(
        "\nGIIS summary: {} sites registered, {} entries aggregated, {} pulls",
        g.registered_count(),
        g.directory().scan_size(),
        g.pulls
    );
    assert_eq!(g.registered_count(), 5);
}
