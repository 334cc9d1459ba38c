//! # testbed — the Lucky/UC experimental platform
//!
//! Reconstructs the paper's hardware setup as a simulated topology:
//!
//! * **Lucky cluster (ANL):** seven Linux machines, `lucky0, lucky1,
//!   lucky3..lucky7`, each with two 1133 MHz PIII CPUs, on a 100 Mbps
//!   switched LAN.  A speed factor of 1.0 means "one 1133 MHz PIII".
//! * **UC client cluster:** twenty machines, fifteen with a 1208 MHz
//!   uniprocessor and five slower (≥756 MHz), on their own 100 Mbps LAN.
//! * **WAN:** a shared link between the UC campus and ANL.  The paper
//!   never quantifies it, but its saturation is the paper's recurring
//!   explanation for throughput plateaus; the default models a
//!   DS-3-class path (≈40 Mbit/s each way, a few milliseconds one-way).
//!
//! The topology is a star per site: every host has a dedicated duplex
//! 100 Mbps access link (switched Ethernet), so intra-site flows contend
//! only on the endpoints' access links, while inter-site flows also share
//! the WAN pipe — exactly the contention structure the paper's analysis
//! relies on.

use crate::params::Params;
use simcore::SimDuration;
use simnet::{LinkId, NodeId, Topology};

/// Access-link capacity on both sites (bits/s).
pub const LAN_BPS: f64 = 100e6;
/// One-way latency of an access link: 100 µs.
const LAN_LATENCY: SimDuration = SimDuration(100);
/// Number of UC client machines.
const UC_MACHINES: usize = 20;
/// The hostnames of the Lucky testbed (note: there is no `lucky2`, as in
/// the paper's `lucky{0,1,3,..,7}`).
const LUCKY_NAMES: [&str; 7] = [
    "lucky0", "lucky1", "lucky3", "lucky4", "lucky5", "lucky6", "lucky7",
];

/// Access links of one host.
#[derive(Debug, Clone, Copy)]
struct Access {
    up: LinkId,
    down: LinkId,
}

/// The built testbed.
pub struct Testbed {
    pub topo: Topology,
    /// `lucky[i]` is the node whose hostname is `LUCKY_NAMES[i]`.
    pub lucky: Vec<NodeId>,
    /// UC client machines.
    pub uc: Vec<NodeId>,
}

impl Testbed {
    /// Build the testbed, its WAN as `params` sets it.
    pub fn build(params: &Params) -> Testbed {
        let mut topo = Topology::new();
        let mut lucky = Vec::new();
        let mut lucky_acc = Vec::new();
        for name in LUCKY_NAMES {
            // Two 1133 MHz CPUs; speed 1.0 is the reference core.
            let n = topo.add_node(name, 2, 1.0);
            let up = topo.add_link(format!("{name}-up"), LAN_BPS, LAN_LATENCY);
            let down = topo.add_link(format!("{name}-down"), LAN_BPS, LAN_LATENCY);
            lucky.push(n);
            lucky_acc.push(Access { up, down });
        }
        let mut uc = Vec::new();
        let mut uc_acc = Vec::new();
        for i in 0..UC_MACHINES {
            // Fifteen 1208 MHz (speed ≈ 1.066) and the rest ≥756 MHz
            // (speed ≈ 0.667), all uniprocessors with 248 MB RAM.
            let speed = if i < 15 {
                1208.0 / 1133.0
            } else {
                756.0 / 1133.0
            };
            let name = format!("uc{i:02}");
            let n = topo.add_node(&name, 1, speed);
            let up = topo.add_link(format!("{name}-up"), LAN_BPS, LAN_LATENCY);
            let down = topo.add_link(format!("{name}-down"), LAN_BPS, LAN_LATENCY);
            uc.push(n);
            uc_acc.push(Access { up, down });
        }
        // The WAN pipe, one link per direction.
        let (wan_bps, wan_latency) = (params.wan_bps, params.wan_latency);
        let wan_to_anl = topo.add_link("wan-uc-to-anl", wan_bps, wan_latency);
        let wan_to_uc = topo.add_link("wan-anl-to-uc", wan_bps, wan_latency);

        // Routes: lucky <-> lucky over the ANL switch.
        for (i, &a) in lucky.iter().enumerate() {
            for (j, &b) in lucky.iter().enumerate() {
                if i != j {
                    topo.set_route(a, b, vec![lucky_acc[i].up, lucky_acc[j].down]);
                }
            }
        }
        // uc <-> uc over the UC switch.
        for (i, &a) in uc.iter().enumerate() {
            for (j, &b) in uc.iter().enumerate() {
                if i != j {
                    topo.set_route(a, b, vec![uc_acc[i].up, uc_acc[j].down]);
                }
            }
        }
        // uc <-> lucky across the WAN.
        for (i, &c) in uc.iter().enumerate() {
            for (j, &s) in lucky.iter().enumerate() {
                topo.set_route(c, s, vec![uc_acc[i].up, wan_to_anl, lucky_acc[j].down]);
                topo.set_route(s, c, vec![lucky_acc[j].up, wan_to_uc, uc_acc[i].down]);
            }
        }
        Testbed { topo, lucky, uc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_expected_shape() {
        let tb = Testbed::build(&Params::default());
        assert_eq!(tb.lucky.len(), 7);
        assert_eq!(tb.uc.len(), 20);
        // 27 hosts * 2 access links + 2 WAN links.
        assert_eq!(tb.topo.link_count(), 27 * 2 + 2);
        assert!(tb.topo.find_node("lucky7").is_some());
        assert!(tb.topo.find_node("lucky2").is_none()); // no lucky2!
    }

    #[test]
    fn lan_routes_have_two_hops_wan_routes_three() {
        let tb = Testbed::build(&Params::default());
        let l3 = tb.topo.find_node("lucky3").unwrap();
        let l7 = tb.topo.find_node("lucky7").unwrap();
        assert_eq!(tb.topo.route(l3, l7).len(), 2);
        let uc0 = tb.uc[0];
        assert_eq!(tb.topo.route(uc0, l7).len(), 3);
        assert_eq!(tb.topo.route(l7, uc0).len(), 3);
        // WAN latency dominates the one-way delay.
        let lat = tb.topo.one_way_latency(uc0, l7);
        assert!(lat >= SimDuration::from_millis(5));
        let lan = tb.topo.one_way_latency(l3, l7);
        assert!(lan < SimDuration::from_millis(1));
    }

    #[test]
    fn cpu_speeds_match_the_paper() {
        let tb = Testbed::build(&Params::default());
        let l = tb.topo.node(tb.lucky[0]);
        assert_eq!(l.cpu.cores(), 2);
        assert_eq!(l.cpu.speed(), 1.0);
        let fast = tb.topo.node(tb.uc[0]);
        assert_eq!(fast.cpu.cores(), 1);
        assert!(fast.cpu.speed() > 1.0);
        let slow = tb.topo.node(tb.uc[19]);
        assert!(slow.cpu.speed() < 0.7);
    }
}
