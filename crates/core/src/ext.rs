//! Extension studies — the paper's "future work", implemented.
//!
//! Section 4 lists three follow-ups; each study is a handful of points,
//! and each point has a function here (the `Job::Ext` points of
//! `gridmon-runner` call exactly these):
//!
//! 1. **WAN environment** — "the experiments should be repeated to study
//!    performance in a WAN environment": [`wan_point`] repeats the
//!    directory-server experiment under each [`WAN_CASES`] link quality.
//! 2. **Aggregate vs direct** — "determine the difference between
//!    querying an aggregate information server and an information server
//!    for the same piece of information": [`agg_direct_point`] vs
//!    [`agg_via_giis_point`].
//! 3. **Access patterns** — "additional patterns of user access":
//!    [`open_loop_point`] replaces the closed-loop users with a Poisson
//!    open-loop arrival stream and reports the loss rate.
//!
//! A fourth extension implements the paper's own scalability proposals:
//! [`hierarchy_tree_point`] builds the "multi-layer architecture in which
//! each middle-level aggregate information server manages a subset of
//! information servers", against the flat GIIS of Experiment Set 4
//! ([`hierarchy_flat_point`]), and [`composite_study`] exercises the
//! R-GMA composite Consumer/Producer the paper describes but R-GMA never
//! shipped.

use crate::deploy::{giis_suffix, Harness, MdsBackend, RgmaBackend};
use crate::runcfg::{Measurement, RunConfig};
use crate::scenario::{catalogue, run_point};
use mds::MdsRequest;
use rgma::{CompositeProducer, RgmaMsg};
use simcore::{SimDuration, SimRng};
use simnet::{NodeId, Payload, ServiceConfig};
use workload::{OpenLoopSource, UserConfig};

/// One row of the WAN study: link parameters plus the measured metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct WanPoint {
    pub label: String,
    pub wan_mbps: f64,
    pub wan_latency_ms: u64,
    pub m: Measurement,
}

/// The WAN qualities the study sweeps, from campus LAN to a
/// transatlantic-grade path: `(label, capacity bps, one-way latency ms)`.
pub const WAN_CASES: [(&str, f64, u64); 4] = [
    ("lan-100mbit-0.1ms", 100e6, 0u64),
    ("metro-40mbit-5ms", 40e6, 5),
    ("wan-10mbit-25ms", 10e6, 25),
    ("intercontinental-4mbit-80ms", 4e6, 80),
];

/// The built-in series `id` at `x`, under `cfg` exactly as given.
fn builtin_point(id: &str, x: u32, cfg: &RunConfig) -> Measurement {
    let series = catalogue::find(id).unwrap_or_else(|| panic!("no built-in series {id:?}"));
    run_point(&(series.spec)(), x, cfg)
        .unwrap_or_else(|e| panic!("built-in series {id:?} must compile: {e}"))
}

/// One point of the WAN study: the directory-server experiment (Set 2's
/// GIIS) under `WAN_CASES[case]`.
pub fn wan_point(cfg: &RunConfig, users: u32, case: usize) -> WanPoint {
    let (label, bps, lat_ms) = WAN_CASES[case];
    let mut c = *cfg;
    c.params.wan_bps = bps;
    c.params.wan_latency = SimDuration::from_millis(lat_ms.max(1));
    let m = builtin_point("set2/MDS GIIS", users, &c);
    WanPoint {
        label: label.to_string(),
        wan_mbps: bps / 1e6,
        wan_latency_ms: lat_ms,
        m,
    }
}

/// Aggregate-vs-direct, direct side: one resource's subtree queried
/// from the GRIS that owns it — Set 1's cached-GRIS experiment.
pub fn agg_direct_point(cfg: &RunConfig, users: u32) -> Measurement {
    builtin_point("set1/MDS GRIS (cache)", users, cfg)
}

/// Aggregate-vs-direct, aggregate side: the same host data queried
/// through the directory — Set 2's GIIS experiment.
pub fn agg_via_giis_point(cfg: &RunConfig, users: u32) -> Measurement {
    builtin_point("set2/MDS GIIS", users, cfg)
}

/// The flat baseline of the hierarchy study: one GIIS over `n` GRISes
/// (Experiment Set 4's query-all point).
pub fn hierarchy_flat_point(cfg: &RunConfig, n: u32) -> Measurement {
    builtin_point("set4/MDS GIIS(query all)", n, cfg)
}

/// The two-level architecture: `n` GRISes split over `branches`
/// mid-level GIISes under a top GIIS.
pub fn hierarchy_tree_point(cfg: &RunConfig, n: u32, branches: usize) -> Measurement {
    let mut h = Harness::new(*cfg);
    let top_node = h.lucky("lucky0");
    let mid_hosts = ["lucky1", "lucky3", "lucky4", "lucky5", "lucky6", "lucky7"];
    let branches = branches.min(mid_hosts.len());
    // Top-level GIIS with pinned cache over the mid level (the mid level
    // carries the churn).
    let ttl = Some(cfg.params.giis_exp4_cachettl);
    let top = MdsBackend.giis(&mut h, top_node, ttl, None, 0);
    // Mid-level GIISes, each managing a contiguous shard of the GRISes.
    for (b, host) in mid_hosts.iter().take(branches).enumerate() {
        let node = h.lucky(host);
        let mid = MdsBackend.giis(&mut h, node, ttl, Some(top), b as u32);
        MdsBackend.gris_fleet(&mut h, node, mid, 10, (b as u32, branches as u32), n);
    }
    h.watch(top_node);
    // 10 users query the top GIIS for everything, as in Set 4.
    let placement: Vec<NodeId> = (0..10).map(|i| h.uc[i % h.uc.len()]).collect();
    let ucfg = UserConfig {
        think: cfg.params.think,
        retry_base: cfg.params.retry_base,
        retry_cap: cfg.params.retry_cap,
        series: "user".into(),
        client_cpu_us: cfg.params.mds_client_cpu_us,
        timeout: None,
    };
    workload::spawn_users(&mut h.net, &mut h.eng, &placement, top, &ucfg, || {
        Box::new(|_rng| {
            let req = MdsRequest::search_all(giis_suffix());
            let bytes = req.wire_size();
            (Box::new(req) as Payload, bytes)
        })
    });
    h.run_and_measure(n as f64)
}

/// Result of the open-loop access-pattern study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopPoint {
    pub offered_per_sec: f64,
    pub completed_per_sec: f64,
    pub lost_per_sec: f64,
    pub response_time: f64,
}

/// One offered-rate point of the open-loop study: drive the R-GMA
/// ProducerServlet with Poisson arrivals.  Past the servlet's capacity
/// the loss rate explodes while the closed-loop experiment of Set 1
/// merely slowed down.
pub fn open_loop_point(cfg: &RunConfig, rate: f64) -> OpenLoopPoint {
    let mut h = Harness::new(*cfg);
    let ps_node = h.lucky("lucky3");
    let reg_node = h.lucky("lucky1");
    let reg = RgmaBackend.registry(&mut h, reg_node);
    let ps = RgmaBackend.producer_servlet(&mut h, ps_node, 10, reg);
    h.watch(ps_node);
    // One source per UC machine, splitting the offered rate.
    let n_sources = 10usize;
    for i in 0..n_sources {
        let node = h.uc[i % h.uc.len()];
        let rng = h.eng.rng.fork(0xAAA + i as u64);
        let src = OpenLoopSource::new(
            node,
            ps,
            rate / n_sources as f64,
            "user",
            Box::new(|_rng: &mut SimRng| {
                let m = RgmaMsg::ProducerQuery {
                    sql: "SELECT * FROM cpuload".into(),
                };
                let bytes = m.wire_size();
                (Box::new(m) as Payload, bytes)
            }),
            rng,
        );
        h.net.add_client(Box::new(src));
    }
    let m = h.run_and_measure(rate);
    let span = cfg.window.as_secs_f64();
    OpenLoopPoint {
        offered_per_sec: rate,
        completed_per_sec: m.throughput,
        lost_per_sec: h.net.stats.counter("user.lost") as f64 / span,
        response_time: m.response_time,
    }
}

/// Exercise the composite Consumer/Producer: `sources` site servlets all
/// publishing `cpuload`, aggregated by one composite; 10 users query the
/// composite for everything.
pub fn composite_study(cfg: &RunConfig, sources: u32) -> Measurement {
    let mut h = Harness::new(*cfg);
    let reg_node = h.lucky("lucky1");
    let agg_node = h.lucky("lucky0");
    let reg = RgmaBackend.registry(&mut h, reg_node);
    let site_hosts = ["lucky3", "lucky4", "lucky5", "lucky6", "lucky7"];
    let mut keys = Vec::new();
    for i in 0..sources as usize {
        let node = h.lucky(site_hosts[i % site_hosts.len()]);
        keys.push(RgmaBackend.producer_servlet(&mut h, node, 10, reg));
    }
    let comp = h.net.add_service(
        agg_node,
        ServiceConfig {
            workers: Some(cfg.params.servlet_workers),
            ..cfg.params.servlet_config()
        },
        Box::new(CompositeProducer::new(
            "cpuload",
            keys,
            SimDuration::from_secs(30),
        )),
        &mut h.eng,
    );
    h.net.service_as_mut::<CompositeProducer>(comp).unwrap().me = Some(comp);
    h.net
        .prime_service_timer(&mut h.eng, comp, SimDuration::from_secs(5), 0);
    h.watch(agg_node);
    let placement: Vec<NodeId> = (0..10).map(|i| h.uc[i % h.uc.len()]).collect();
    let ucfg = UserConfig {
        think: cfg.params.think,
        retry_base: cfg.params.retry_base,
        retry_cap: cfg.params.retry_cap,
        series: "user".into(),
        client_cpu_us: cfg.params.rgma_client_cpu_us,
        timeout: None,
    };
    workload::spawn_users(&mut h.net, &mut h.eng, &placement, comp, &ucfg, || {
        Box::new(|_rng| {
            let m = RgmaMsg::ProducerQuery {
                sql: "*ALL*".into(),
            };
            let bytes = m.wire_size();
            (Box::new(m) as Payload, bytes)
        })
    });
    h.run_and_measure(sources as f64)
}
