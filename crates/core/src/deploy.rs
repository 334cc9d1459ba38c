//! Deployment harness: the simulated testbed plus helpers to place the
//! monitoring systems on it exactly as the paper did.

use crate::ganglia::Monitor;
use crate::runcfg::{Measurement, RunConfig};
use crate::scenario::Probe;
use crate::testbed::Testbed;
use gfaults::{FaultDriver, FaultPlan};
use hawkeye::{default_modules, AdvertiserFleet, Agent, Manager};
use ldapdir::Dn;
use mds::{Giis, Gris, ProviderTemplate};
use rgma::{CompositeProducer, ConsumerServlet, ProducerServlet, Registry};
use simcore::{Engine, SimDuration, SimTime};
use simnet::trace::{Obs, ObsReport};
use simnet::{ClientKey, Eng, Net, NodeId, ServiceConfig, StatsHub, SvcKey};

/// The observability harvest of a run: the traced events / metrics
/// snapshot plus the label tables needed to render them (service slot →
/// label, node id → host name).
#[derive(Debug, Clone, PartialEq)]
pub struct Harvest {
    pub report: ObsReport,
    /// Service labels (`name@host`), indexed by service slot.
    pub services: Vec<String>,
    /// Node names, indexed by node id.
    pub nodes: Vec<String>,
}

/// A ready-to-run simulated testbed with measurement plumbing.
pub struct Harness {
    pub net: Net,
    pub eng: Eng,
    pub lucky: Vec<NodeId>,
    pub uc: Vec<NodeId>,
    pub cfg: RunConfig,
    monitor: Option<ClientKey>,
    server_node: Option<NodeId>,
    /// The resilience probe, if the scenario installed one; read back
    /// after the run like the monitor.
    pub(crate) probe: Option<ClientKey>,
    /// Fault schedule, installed after deployment (keys and link ids are
    /// only known then).  `None` keeps the run loop on the exact code path
    /// a fault-free build would take.
    faults: Option<FaultDriver>,
}

impl Harness {
    /// Build the Lucky/UC testbed with the run's parameters.
    pub fn new(cfg: RunConfig) -> Harness {
        let Testbed { topo, lucky, uc } = Testbed::build(&cfg.params);
        let stats = StatsHub::new(cfg.window_start(), cfg.window_end());
        let mut net = Net::new(topo, stats);
        if cfg.obs.enabled() {
            net.obs = Obs::from_mode(cfg.obs);
        }
        let eng: Eng = Engine::new(cfg.seed);
        Harness {
            net,
            eng,
            lucky,
            uc,
            cfg,
            monitor: None,
            server_node: None,
            probe: None,
            faults: None,
        }
    }

    /// Install a fault schedule.  Must be called after the deployment is
    /// complete (plans are bound to concrete service keys and link ids)
    /// and before [`run_and_measure`](Harness::run_and_measure).  Empty
    /// plans are discarded so the run loop stays on the fault-free path.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        if !plan.is_empty() {
            self.faults = Some(FaultDriver::new(plan));
        }
    }

    /// The node of a lucky host by name (`lucky0`..`lucky7`, no lucky2).
    pub fn lucky(&self, name: &str) -> NodeId {
        self.net
            .topo
            .find_node(name)
            .unwrap_or_else(|| panic!("no host {name}"))
    }

    /// Install the Ganglia monitor watching `server` (the host whose
    /// load1/CPU the experiment reports).
    pub fn watch(&mut self, server: NodeId) {
        let mut watched = vec![server];
        watched.extend(self.uc.iter().copied().take(2)); // client-side visibility
        self.monitor = Some(self.net.add_client(Box::new(Monitor::new(&watched))));
        self.server_node = Some(server);
    }

    /// Start everything and run to the end of the measurement window,
    /// then collect the paper's four metrics for `x` on the x-axis.
    pub fn run_and_measure(&mut self, x: f64) -> Measurement {
        assert!(self.monitor.is_some(), "call watch() before running");
        self.net.start(&mut self.eng);
        let (ws, we) = (self.cfg.window_start(), self.cfg.window_end());
        // Stopping at the warm-up end fires the same events at the same
        // times as one run to the window end; it is where the metrics
        // window opens and the traced dispatch stream starts.
        self.run_to(ws);
        self.net.obs.window_begin(ws);
        self.run_to(we);
        let mkey = self.monitor.unwrap();
        let monitor: &Monitor = self.net.client_as(mkey).unwrap_or_else(|| {
            panic!(
                "client {}v{} is not the Ganglia monitor watch() installed",
                mkey.index, mkey.gen
            )
        });
        let server = self.server_node.unwrap();
        let probe = self.probe.map(|k| {
            let probe = self.net.client_as::<Probe>(k);
            probe.expect("install_resilience stored the probe's own key")
        });
        let stats = &self.net.stats;
        let completions = stats.completed.stats().count();
        let attempts = completions + stats.failed.stats().count() + stats.timedout.stats().count();
        Measurement {
            x,
            throughput: stats.completed.rate_per_sec(),
            response_time: stats.completed.stats().mean(),
            load1: monitor.load1_mean(server, ws, we),
            cpu_load: monitor.cpu_mean(server, ws, we),
            refused: stats.refused,
            completions,
            availability: if attempts == 0 {
                1.0
            } else {
                completions as f64 / attempts as f64
            },
            staleness_s: probe.map_or(0.0, |p| p.staleness.mean()),
            recovery_s: probe.map_or(0.0, |p| p.recovery.mean()),
        }
    }

    /// Run the engine to `until`, pausing at each scheduled fault instant
    /// to apply due fault events.  Without an installed fault schedule
    /// this is a single `run_until` — the exact pre-faults path.
    fn run_to(&mut self, until: SimTime) {
        let mut driver = self.faults.take();
        loop {
            let next_fault = driver.as_ref().and_then(|d| d.next_at());
            let stop = next_fault.map_or(until, |t| t.min(until));
            self.eng.run_until(&mut self.net, stop);
            if let Some(d) = &mut driver {
                d.apply_due(&mut self.net, &mut self.eng, stop);
            }
            if stop >= until {
                break;
            }
        }
        self.faults = driver;
    }

    /// Harvest the observability report after
    /// [`run_and_measure`](Harness::run_and_measure): inject end-of-run
    /// per-node CPU busy seconds into the metrics registry, then drain
    /// the sink.  `None` when `cfg.obs` enabled nothing.
    pub fn harvest(&mut self) -> Option<Harvest> {
        let we = self.cfg.window_end();
        if self.net.obs.metrics_on() {
            let ids: Vec<NodeId> = self.net.topo.node_ids().collect();
            for id in ids {
                let busy = self.net.node_busy_core_seconds(id, we);
                let name = self.net.topo.node(id).name.clone();
                self.net
                    .obs
                    .metrics
                    .set_value(&format!("cpu.{name}.busy_core_s"), busy);
            }
        }
        Some(Harvest {
            report: self.net.obs.finish(we)?,
            services: self.service_labels(),
            nodes: self.node_names(),
        })
    }

    /// `name@host` labels for every live service, indexed by slot.
    fn service_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = Vec::new();
        for (key, slot) in self.net.services.iter() {
            let idx = key.index as usize;
            if labels.len() <= idx {
                labels.resize(idx + 1, String::new());
            }
            let name = self
                .net
                .service(key)
                .map_or_else(String::new, |s| s.name().to_string());
            let host = &self.net.topo.node(slot.node).name;
            labels[idx] = format!("{name}@{host}");
        }
        labels
    }

    /// Host names indexed by node id.
    fn node_names(&self) -> Vec<String> {
        self.net
            .topo
            .node_ids()
            .map(|id| self.net.topo.node(id).name.clone())
            .collect()
    }
}

/// The standard MDS suffixes.
pub fn gris_suffix(i: usize) -> Dn {
    Dn::parse(&format!("mds-vo-name=resource-{i}, o=grid")).expect("suffix")
}

pub fn giis_suffix() -> Dn {
    Dn::parse("mds-vo-name=site, o=giis").expect("suffix")
}

/// Resolve a TTL spec against the run parameters.
pub fn resolve_ttl(ttl: gscenario::Ttl, h: &Harness) -> Option<SimDuration> {
    match ttl {
        gscenario::Ttl::Pinned => None,
        gscenario::Ttl::Zero => Some(SimDuration::ZERO),
        gscenario::Ttl::Exp4 => Some(h.cfg.params.giis_exp4_cachettl),
        gscenario::Ttl::Secs(n) => Some(SimDuration::from_secs(n)),
    }
}

// ======================================================================
// MDS
// ======================================================================

/// Deploy one GRIS with `providers` information providers on `node`.
/// `cache` selects the paper's "always in cache" vs "never in cache"
/// configurations; `gsi` enables the GSI-authenticated bind
/// (Experiment Set 1's configuration — Set 3's sub-second cached
/// responses imply anonymous binds there).
pub fn gris(h: &mut Harness, node: NodeId, providers: usize, cache: bool, gsi: bool) -> SvcKey {
    let suffix = gris_suffix(0);
    let ttl = if cache { None } else { Some(SimDuration::ZERO) };
    let host = h.net.topo.node(node).name.clone();
    let providers = ProviderTemplate::new(providers, ttl).for_host(&suffix, &host);
    let mut gris = Gris::new(suffix, providers);
    let mut cfg = h.cfg.params.gris_config();
    if !gsi {
        cfg.setup = h.cfg.params.giis_setup;
    }
    gris.exec_lock = Some(h.net.add_lock(1));
    h.net.add_service(node, cfg, Box::new(gris), &mut h.eng)
}

/// Deploy a GIIS on `node` with `n_gris` registered GRISes spread
/// over `gris_nodes` (round-robin), each with 10 providers.  Returns
/// the GIIS key and the graft DNs of the registered GRISes (for
/// "query part").
pub fn giis_pool(
    h: &mut Harness,
    node: NodeId,
    gris_nodes: &[NodeId],
    n_gris: usize,
    cachettl: Option<SimDuration>,
) -> (SvcKey, Vec<Dn>) {
    let giis = Giis::new(giis_suffix(), cachettl);
    let giis_cfg = h.cfg.params.giis_config();
    let giis_key = h
        .net
        .add_service(node, giis_cfg, Box::new(giis), &mut h.eng);
    let template = ProviderTemplate::new(10, None);
    let mut grafts = Vec::with_capacity(n_gris);
    for i in 0..n_gris {
        let gnode = gris_nodes[i % gris_nodes.len()];
        let suffix = gris_suffix(i);
        let host = format!("{}-gris{i}", h.net.topo.node(gnode).name);
        let providers = template.for_host(&suffix, &host);
        let mut gris = Gris::new(suffix, providers);
        gris.register_with(giis_key);
        let cfg = h.cfg.params.gris_config();
        let key = h.net.add_service(gnode, cfg, Box::new(gris), &mut h.eng);
        // Stagger the registration heartbeats over the 30 s period.
        let offset =
            SimDuration::from_micros(50_000 + (i as u64 * 29_900_000) / n_gris.max(1) as u64);
        h.net.prime_service_timer(&mut h.eng, key, offset, 0);
        // The graft label is deterministic from the service key.
        grafts.push(giis_suffix().child("Mds-Vo-name", &format!("sub-{}-{}", key.index, key.gen)));
    }
    (giis_key, grafts)
}

/// Deploy a standalone GIIS on `node`.  With a `parent` it joins a
/// 2-level hierarchy as branch `branch`: it serves the branch
/// suffix, registers upward, and staggers its registration
/// heartbeat by branch index.
pub fn giis(
    h: &mut Harness,
    node: NodeId,
    cachettl: Option<SimDuration>,
    parent: Option<SvcKey>,
    branch: u32,
) -> SvcKey {
    match parent {
        None => {
            let giis = Giis::new(giis_suffix(), cachettl);
            let cfg = h.cfg.params.giis_config();
            h.net.add_service(node, cfg, Box::new(giis), &mut h.eng)
        }
        Some(parent) => {
            let suffix =
                Dn::parse(&format!("mds-vo-name=branch-{branch}, o=giis")).expect("branch suffix");
            let mut mid = Giis::new(suffix, cachettl);
            mid.register_with(parent);
            let cfg = h.cfg.params.giis_config();
            let key = h.net.add_service(node, cfg, Box::new(mid), &mut h.eng);
            let offset = SimDuration::from_millis(20 + u64::from(branch) * 7);
            h.net.prime_service_timer(&mut h.eng, key, offset, 0);
            key
        }
    }
}

/// Deploy one shard of a federated GRIS population on `node`: of a
/// global population of `n` GRISes split into `share.1` contiguous
/// shards, deploy shard `share.0`'s slice, every GRIS registered
/// with `parent` and carrying `providers` providers.  Heartbeats
/// stagger by *global* index so the federation's re-registration
/// load spreads exactly like a flat deployment's.
pub fn gris_fleet(
    h: &mut Harness,
    node: NodeId,
    parent: SvcKey,
    providers: usize,
    share: (u32, u32),
    n: u32,
) -> Vec<SvcKey> {
    let (shard, of) = share;
    let per = n.div_ceil(of.max(1));
    let start = shard * per;
    let take = per.min(n.saturating_sub(start));
    let host = h.net.topo.node(node).name.clone();
    let template = ProviderTemplate::new(providers, None);
    let mut keys = Vec::with_capacity(take as usize);
    for j in 0..take {
        let idx = (start + j) as usize;
        let suffix = gris_suffix(idx);
        let providers = template.for_host(&suffix, &format!("{host}-gris{idx}"));
        let mut gris = Gris::new(suffix, providers);
        gris.register_with(parent);
        let cfg = h.cfg.params.gris_config();
        let key = h.net.add_service(node, cfg, Box::new(gris), &mut h.eng);
        let offset =
            SimDuration::from_micros(60_000 + (idx as u64 * 29_000_000) / u64::from(n.max(1)));
        h.net.prime_service_timer(&mut h.eng, key, offset, 0);
        keys.push(key);
    }
    keys
}

// ======================================================================
// Hawkeye
// ======================================================================

/// Deploy a Hawkeye Manager on `node`.
pub fn manager(h: &mut Harness, node: NodeId) -> SvcKey {
    let cfg = h.cfg.params.manager_config();
    h.net
        .add_service(node, cfg, Box::new(Manager::new()), &mut h.eng)
}

/// Deploy a Hawkeye Agent with `modules` modules on `node`,
/// registered to `manager` (advertising every 30 s).
pub fn agent(h: &mut Harness, node: NodeId, modules: usize, manager: SvcKey) -> SvcKey {
    let host = h.net.topo.node(node).name.clone();
    let mut agent = Agent::new(host.clone(), default_modules(&host, modules));
    agent.register_with(manager);
    let cfg = h.cfg.params.agent_config();
    let key = h.net.add_service(node, cfg, Box::new(agent), &mut h.eng);
    h.net
        .prime_service_timer(&mut h.eng, key, SimDuration::from_millis(500), 0);
    key
}

/// Deploy the `hawkeye_advertise` fleet: `machines` simulated pool
/// members on `node`, advertising to `manager` on staggered 30 s
/// timers.
pub fn advertiser_fleet(h: &mut Harness, node: NodeId, machines: usize, manager: SvcKey) -> SvcKey {
    let fleet = AdvertiserFleet::new(manager, machines, 11);
    let cfg = ServiceConfig::default();
    let key = h.net.add_service(node, cfg, Box::new(fleet), &mut h.eng);
    for i in 0..machines as u64 {
        let offset = SimDuration::from_micros(100_000 + i * 30_000_000 / machines.max(1) as u64);
        h.net.prime_service_timer(&mut h.eng, key, offset, i);
    }
    key
}

// ======================================================================
// R-GMA
// ======================================================================

/// Deploy the R-GMA Registry on `node` (with its RDBMS lock).
pub fn registry(h: &mut Harness, node: NodeId) -> SvcKey {
    let lock = h.net.add_lock(1);
    let mut registry = Registry::new();
    registry.db_lock = Some(lock);
    let cfg = h.cfg.params.servlet_config();
    h.net.add_service(node, cfg, Box::new(registry), &mut h.eng)
}

/// Deploy a ProducerServlet with `producers` producers on `node`,
/// registering with `registry`.
pub fn producer_servlet(
    h: &mut Harness,
    node: NodeId,
    producers: usize,
    registry: SvcKey,
) -> SvcKey {
    let lock = h.net.add_lock(1);
    let site = h.net.topo.node(node).name.clone();
    let mut ps = ProducerServlet::new(rgma::producer::default_producers(&site, producers));
    ps.db_lock = Some(lock);
    ps.register_with(registry);
    let cfg = h.cfg.params.servlet_config();
    let key = h.net.add_service(node, cfg, Box::new(ps), &mut h.eng);
    h.net
        .prime_service_timer(&mut h.eng, key, SimDuration::from_millis(200), 0);
    key
}

/// Deploy a ConsumerServlet on `node` pointed at `registry`.
pub fn consumer_servlet(h: &mut Harness, node: NodeId, registry: SvcKey) -> SvcKey {
    let cfg = h.cfg.params.servlet_config();
    h.net.add_service(
        node,
        cfg,
        Box::new(ConsumerServlet::new(registry)),
        &mut h.eng,
    )
}

/// Deploy the R-GMA composite Consumer/Producer on `node` with its
/// sources: `n_sites` site ProducerServlets (10 producers each) spread
/// round-robin over `site_nodes` and registered with `registry`, all
/// publishing `cpuload`, re-pulled by the composite every 30 s.
pub fn composite_pool(
    h: &mut Harness,
    node: NodeId,
    site_nodes: &[NodeId],
    n_sites: usize,
    registry: SvcKey,
) -> SvcKey {
    let sites: Vec<SvcKey> = (0..n_sites)
        .map(|i| producer_servlet(h, site_nodes[i % site_nodes.len()], 10, registry))
        .collect();
    let cfg = ServiceConfig {
        workers: Some(h.cfg.params.servlet_workers),
        ..h.cfg.params.servlet_config()
    };
    let composite = CompositeProducer::new("cpuload", sites, SimDuration::from_secs(30));
    let key = h
        .net
        .add_service(node, cfg, Box::new(composite), &mut h.eng);
    h.net
        .prime_service_timer(&mut h.eng, key, SimDuration::from_secs(5), 0);
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runcfg::RunConfig;

    #[test]
    fn harness_builds_testbed() {
        let h = Harness::new(RunConfig::quick(1));
        assert_eq!(h.lucky.len(), 7);
        assert_eq!(h.uc.len(), 20);
        assert_eq!(h.lucky("lucky7"), h.lucky[6]);
    }

    #[test]
    #[should_panic(expected = "no host")]
    fn unknown_host_panics() {
        let h = Harness::new(RunConfig::quick(1));
        let _ = h.lucky("lucky2");
    }

    #[test]
    fn deploys_compose() {
        let mut h = Harness::new(RunConfig::quick(2));
        let l3 = h.lucky("lucky3");
        let l4 = h.lucky("lucky4");
        let l7 = h.lucky("lucky7");
        let l0 = h.lucky("lucky0");
        let gris = gris(&mut h, l7, 10, true, true);
        let (giis, grafts) = giis_pool(&mut h, l0, &[l3, l4], 4, None);
        let mgr = manager(&mut h, l3);
        let agent = agent(&mut h, l4, 11, mgr);
        let l1 = h.lucky("lucky1");
        let l5 = h.lucky("lucky5");
        let reg = registry(&mut h, l1);
        let ps = producer_servlet(&mut h, l3, 10, reg);
        let cs = consumer_servlet(&mut h, l5, reg);
        assert_eq!(grafts.len(), 4);
        for k in [gris, giis, mgr, agent, reg, ps, cs] {
            assert!(h.net.service(k).is_some());
        }
        // Run briefly: registrations and advertises flow without panics.
        h.watch(l3);
        h.net.start(&mut h.eng);
        h.eng.run_until(&mut h.net, simcore::SimTime::from_secs(65));
        assert_eq!(h.net.service_as::<Manager>(mgr).unwrap().pool_size(), 1);
        assert_eq!(
            h.net.service_as::<Giis>(giis).unwrap().registered_count(),
            4
        );
        let registry = h.net.service_as_mut::<Registry>(reg).unwrap();
        assert_eq!(registry.producer_count(), 10);
    }
}
