//! The scenario → [`Harness`] compiler and the built-in catalogue.
//!
//! A [`gscenario::ScenarioSpec`] is pure data; this module is the single
//! place that turns one into a runnable world.  [`compile`] evaluates a
//! spec at one x value in a fixed order — services in file order, then
//! the Ganglia monitor, then the workload, then the fault schedule and
//! resilience probe.  Compile, then [`Harness::run_and_measure`], is the
//! one way any point runs, whether its spec was authored in TOML or comes
//! from [`catalogue`], the tables holding the paper's sets, the
//! resilience Set 5, the federation Set 6 and the Section-4 extension
//! studies.
//!
//! Determinism contract: identical `(spec, x, cfg)` ⇒ identical
//! trajectory.  Deployment order is spec file order; the t=0 start order
//! and every RNG stream follow from it.

use crate::deploy::{self, giis_suffix, gris_suffix, resolve_ttl, Harness};
use crate::runcfg::RunConfig;
use crate::stablehash::{fnv1a64, mix64};
use classad::{parse_expr, CompiledExpr};
use gfaults::{FaultAction, FaultPlan, FaultSpec, Scenario, PARTITION_BPS};
use gscenario::{
    Arrivals, ClientCpu, FaultKind, Placement, ProbeSpec, Query, ScenarioSpec, ServiceKind,
};
use hawkeye::{HawkeyeMsg, Manager};
use ldapdir::{Filter, Scope};
use mds::{Giis, MdsRequest};
use rgma::{ProducerQuery, ProducerServlet, RgmaMsg, Select};
use simcore::stats::MeanAccum;
use simcore::{SimDuration, SimTime};
use simnet::{Client, ClientCx, NodeId, Payload, SvcKey};
use std::rc::Rc;
use workload::{QueryFactory, UserConfig};

/// How often the resilience probe samples staleness/recovery.
pub const PROBE_PERIOD_S: u64 = 2;

/// An agent ad older than this no longer matches (3 advertise periods,
/// Condor's classic 3×-heartbeat rule of thumb).
pub const HAWKEYE_FRESH_HORIZON_S: u64 = 90;

/// The canonical fault schedule (`auto@0.25:0.6`): the kind each spec's
/// `[faults]` section declares, onset 25% into the measurement window,
/// heal at 60%.  `targets` is a placeholder — each point faults its x
/// value's worth of components.
pub const DEFAULT_FAULTS: FaultSpec = FaultSpec {
    scenario: Scenario::Auto,
    targets: 1,
    start_frac: 0.25,
    heal_frac: 0.6,
};

// ======================================================================
// Compilation
// ======================================================================

/// One deployed service of a compiling scenario.
struct Placed {
    name: String,
    node: NodeId,
    key: Option<SvcKey>,
}

/// The compiler's working state between phases.
struct World<'s> {
    spec: &'s ScenarioSpec,
    x: u32,
    placed: Vec<Placed>,
}

impl World<'_> {
    /// The node and single service key of the service `name`.
    fn placed_of(&self, name: &str) -> (NodeId, SvcKey) {
        let p = self.placed.iter().find(|p| p.name == name);
        p.and_then(|p| Some((p.node, p.key?)))
            .expect("validated: references name a placed service with a key")
    }

    fn key_of(&self, name: &str) -> SvcKey {
        self.placed_of(name).1
    }
}

/// The testbed node of `host`.
fn node_of(h: &Harness, host: &str) -> NodeId {
    let node = h.net.topo.find_node(host);
    node.expect("validated: known_host names exactly the testbed's nodes")
}

fn nodes_of(h: &Harness, hosts: &[String]) -> Vec<NodeId> {
    hosts.iter().map(|host| node_of(h, host)).collect()
}

/// Compile `spec` at sweep value `x` into a ready-to-run [`Harness`].
/// `spec` must have passed [`ScenarioSpec::validate`], the one gate that
/// decides whether a spec can run; a validated spec compiles at every x.
///
/// Phase order (semantic — it fixes the run's trajectory):
/// 1. services, in spec file order, each by its `deploy::*` function;
/// 2. the Ganglia monitor on the `watch` host;
/// 3. the workload (closed-loop users or open-loop sources);
/// 4. the fault schedule and resilience probe.
pub fn compile(spec: &ScenarioSpec, x: u32, cfg: &RunConfig) -> Harness {
    debug_assert_eq!(spec.validate(), Ok(()));
    let mut cfg = *cfg;
    if let Some(wan) = spec.wan {
        cfg.params.wan_bps = f64::from(wan.mbps) * 1e6;
        cfg.params.wan_latency = SimDuration::from_millis(u64::from(wan.latency_ms));
    }
    let mut h = Harness::new(cfg);
    let mut w = World {
        spec,
        x,
        placed: Vec::with_capacity(spec.services.len()),
    };

    // Phase 1: services, in file order.  Upstream references resolve to
    // services placed earlier (`validate` guarantees the order).
    let count = |c: gscenario::Count| c.eval(x) as usize;
    for (name, svc) in &spec.services {
        use ServiceKind as K;
        let node = node_of(&h, &svc.host);
        let key = match &svc.kind {
            K::Gris {
                providers,
                cache,
                gsi,
            } => Some(deploy::gris(&mut h, node, count(*providers), *cache, *gsi)),
            K::GiisPool {
                gris_hosts,
                n_gris,
                cachettl,
            } => {
                let nodes = nodes_of(&h, gris_hosts);
                let ttl = resolve_ttl(*cachettl, &h);
                Some(deploy::giis_pool(&mut h, node, &nodes, count(*n_gris), ttl).0)
            }
            K::Giis {
                cachettl,
                parent,
                branch,
            } => {
                let parent = parent.as_deref().map(|p| w.key_of(p));
                let ttl = resolve_ttl(*cachettl, &h);
                Some(deploy::giis(&mut h, node, ttl, parent, *branch))
            }
            K::GrisFleet {
                parent,
                providers,
                share,
            } => {
                let parent = w.key_of(parent);
                deploy::gris_fleet(&mut h, node, parent, *providers as usize, *share, x);
                // A fleet has no single key; it is addressed through its
                // parent index (or by name token for fault targeting).
                None
            }
            K::Manager => Some(deploy::manager(&mut h, node)),
            K::Agent { modules, manager } => {
                let mgr = w.key_of(manager);
                Some(deploy::agent(&mut h, node, count(*modules), mgr))
            }
            K::AdvertiserFleet { machines, manager } => {
                let mgr = w.key_of(manager);
                Some(deploy::advertiser_fleet(
                    &mut h,
                    node,
                    count(*machines),
                    mgr,
                ))
            }
            K::Registry => Some(deploy::registry(&mut h, node)),
            K::ProducerServlet {
                producers,
                registry,
            } => {
                let reg = w.key_of(registry);
                Some(deploy::producer_servlet(
                    &mut h,
                    node,
                    count(*producers),
                    reg,
                ))
            }
            K::ConsumerServlet { registry } => {
                Some(deploy::consumer_servlet(&mut h, node, w.key_of(registry)))
            }
            K::CompositePool {
                site_hosts,
                n_sites,
                registry,
            } => {
                let sites = nodes_of(&h, site_hosts);
                let reg = w.key_of(registry);
                Some(deploy::composite_pool(
                    &mut h,
                    node,
                    &sites,
                    count(*n_sites),
                    reg,
                ))
            }
        };
        w.placed.push(Placed {
            name: name.clone(),
            node,
            key,
        });
    }

    // Phase 2: the monitor.
    let wnode = node_of(&h, &spec.watch);
    h.watch(wnode);

    // Phase 3: the workload.
    spawn_workload(&mut h, &w);

    // Phase 4: faults + probe.
    install_resilience(&mut h, &w);
    h
}

/// The seed the sweep point `key` runs under: derived from the sweep's
/// base seed and the point's identity, so every point owns an
/// independent random stream and results are invariant to execution
/// order.
pub fn point_seed(base_seed: u64, key: &str) -> u64 {
    mix64(base_seed ^ fnv1a64(key.as_bytes()))
}

/// The configuration the sweep point `key` of `spec` runs under: the
/// sweep's `base` with the point's own seed, and with the fault plan only
/// if the spec declares a `[faults]` section.  Every other point runs —
/// and is cached — pristine whatever plan the sweep carries, which is
/// what lets one job list span faulted and unfaulted sets.
pub fn point_cfg(spec: &ScenarioSpec, key: &str, base: &RunConfig) -> RunConfig {
    let mut c = *base;
    c.seed = point_seed(base.seed, key);
    if spec.faults.is_none() {
        c.faults = FaultSpec::NONE;
    }
    c
}

// ======================================================================
// Workload
// ======================================================================

fn client_cpu_us(h: &Harness, cpu: ClientCpu) -> f64 {
    match cpu {
        ClientCpu::Mds => h.cfg.params.mds_client_cpu_us,
        ClientCpu::Condor => h.cfg.params.condor_client_cpu_us,
        ClientCpu::Rgma => h.cfg.params.rgma_client_cpu_us,
    }
}

fn user_config(h: &Harness, w: &World<'_>) -> UserConfig {
    UserConfig {
        think: h.cfg.params.think,
        retry_base: h.cfg.params.retry_base,
        retry_cap: h.cfg.params.retry_cap,
        client_cpu_us: client_cpu_us(h, w.spec.workload.cpu),
        timeout: w.spec.workload.timeout_s.map(SimDuration::from_secs),
    }
}

fn spawn_workload(h: &mut Harness, w: &World<'_>) {
    let wl = &w.spec.workload;
    // Where a user (or open-loop source) may sit, and what it queries there.
    let seats: Vec<(NodeId, SvcKey)> = match (&wl.placement, wl.target.as_deref()) {
        // User i sits beside — and queries — service names[i % len].
        (Placement::PerService(names), _) => names.iter().map(|n| w.placed_of(n)).collect(),
        (placement, target) => {
            let target = w.key_of(target.expect("validated: a shared target"));
            let nodes = match placement {
                Placement::Hosts(hosts) => nodes_of(h, hosts),
                _ => h.uc.clone(),
            };
            nodes.into_iter().map(|n| (n, target)).collect()
        }
    };
    let n = wl.users.eval(w.x) as usize;
    let placement: Vec<(NodeId, SvcKey)> = (0..n).map(|i| seats[i % seats.len()]).collect();
    let factory = factory_for(w);
    match wl.arrivals {
        Arrivals::Closed => {
            let ucfg = user_config(h, w);
            workload::spawn_users_to(&mut h.net, &mut h.eng, &placement, &ucfg, factory);
        }
        Arrivals::Poisson { rate } => {
            let rate = f64::from(rate.eval(w.x));
            workload::spawn_open_loop(&mut h.net, &mut h.eng, &placement, rate, factory);
        }
    }
}

/// Build the per-user query factory for a spec's workload.  The
/// context-dependent queries resolve their tables/hosts from the spec
/// itself (agent hosts in declaration order; the canonical producer
/// table set), never from run state, so the stream is deterministic.
fn factory_for(w: &World<'_>) -> Box<dyn FnMut() -> QueryFactory> {
    /// A series' request is built once (an MDS filter, an R-GMA select
    /// and a Hawkeye constraint are parsed once, not per query): every
    /// user shares it, and a query clones its `Rc`.
    fn shared((msg, bytes): (Payload, u64)) -> Box<dyn FnMut() -> QueryFactory> {
        Box::new(move || {
            let msg = Rc::clone(&msg);
            Box::new(move |_rng| (Rc::clone(&msg), bytes))
        })
    }
    /// One request per target, built once; a query draws the target.
    fn random(msgs: Vec<(Payload, u64)>) -> Box<dyn FnMut() -> QueryFactory> {
        let msgs: Rc<[(Payload, u64)]> = msgs.into();
        Box::new(move || {
            let msgs = Rc::clone(&msgs);
            Box::new(move |rng| {
                let (msg, bytes) = &msgs[rng.next_below(msgs.len() as u64) as usize];
                (Rc::clone(msg), *bytes)
            })
        })
    }
    fn mds(req: MdsRequest) -> (Payload, u64) {
        let bytes = req.wire_size();
        (Rc::new(req), bytes)
    }
    fn hawkeye(msg: HawkeyeMsg) -> (Payload, u64) {
        let bytes = msg.wire_size();
        (Rc::new(msg), bytes)
    }
    fn rgma(msg: RgmaMsg) -> (Payload, u64) {
        let bytes = msg.wire_size();
        (Rc::new(msg), bytes)
    }
    let select = |text: &str| Rc::new(Select::parse(text).expect("literal select"));
    const MISS: &str = "NoSuchAttribute =?= 424242";
    match w.spec.workload.query {
        Query::MdsSearchAllGris0 => shared(mds(MdsRequest::search_all(gris_suffix(0)))),
        Query::MdsSearchAllGiis => shared(mds(MdsRequest::search_all(giis_suffix()))),
        Query::MdsSearchCpu { attrs_only } => shared(mds(MdsRequest::Search {
            base: giis_suffix(),
            scope: Scope::Sub,
            filter: Filter::parse("(mds-device-group-name=cpu)").unwrap(),
            attrs: attrs_only.then(|| vec!["mds-device-group-name".into(), "objectclass".into()]),
        })),
        Query::HawkeyeAgentStatus => shared(hawkeye(HawkeyeMsg::AgentStatus)),
        Query::HawkeyeAgentFull => shared(hawkeye(HawkeyeMsg::AgentFull)),
        Query::HawkeyeConstraintMiss => shared(hawkeye(HawkeyeMsg::Constraint {
            expr: Rc::new(CompiledExpr::compile(&parse_expr(MISS).expect("literal"))),
            text_len: MISS.len(),
        })),
        // Status of a random deployed agent host, in declaration order.
        Query::HawkeyeStatusRandom => random(
            w.spec
                .services
                .iter()
                .filter(|(_, s)| matches!(s.kind, ServiceKind::Agent { .. }))
                .map(|(_, s)| {
                    hawkeye(HawkeyeMsg::Status {
                        machine: Some(s.host.clone()),
                    })
                })
                .collect(),
        ),
        Query::RgmaConsumerQuery => shared(rgma(RgmaMsg::ConsumerQuery(select(
            "SELECT * FROM cpuload",
        )))),
        Query::RgmaProducerQuery => shared(rgma(RgmaMsg::ProducerQuery(ProducerQuery::Select(
            select("SELECT * FROM cpuload"),
        )))),
        Query::RgmaProducerQueryAll => shared(rgma(RgmaMsg::ProducerQuery(ProducerQuery::All))),
        // Lookup of a random table from the canonical producer set.
        Query::RgmaRegistryLookupRandom => random(
            rgma::producer::default_producers("anl", 10)
                .into_iter()
                .map(|p| rgma(RgmaMsg::RegistryLookup { table: p.table }))
                .collect(),
        ),
    }
}

// ======================================================================
// Faults + resilience probe
// ======================================================================

/// Every deployed service with the given `name()`, in deployment order
/// (slab order is deterministic).
pub fn services_named(h: &Harness, name: &str) -> Vec<SvcKey> {
    h.net
        .services
        .iter()
        .filter(|&(k, _)| h.net.service(k).is_some_and(|s| s.name() == name))
        .map(|(k, _)| k)
        .collect()
}

/// Translate the spec's fault policy into a concrete schedule: `n`
/// targets fault at `start_at` and heal at `heal_at`, under the resolved
/// scenario.
#[allow(clippy::too_many_arguments)]
fn build_plan(
    h: &Harness,
    scenario: Scenario,
    svcs: &[SvcKey],
    hosts: &[String],
    prime: &[(SimDuration, u64)],
    n: usize,
    start_at: SimTime,
    heal_at: SimTime,
) -> FaultPlan {
    let mut plan = FaultPlan::new();
    let n = n.min(svcs.len());
    match scenario {
        Scenario::None | Scenario::Auto => {}
        Scenario::Churn => {
            for &svc in &svcs[..n] {
                plan.push(start_at, FaultAction::Crash { svc });
                plan.push(
                    heal_at,
                    FaultAction::Restart {
                        svc,
                        prime: prime.to_vec(),
                    },
                );
            }
        }
        Scenario::Partition => {
            let lan = crate::testbed::LAN_BPS;
            for host in &hosts[..n.min(hosts.len())] {
                for dir in ["up", "down"] {
                    let link = h
                        .net
                        .topo
                        .find_link(&format!("{host}-{dir}"))
                        .expect("access link");
                    plan.push(
                        start_at,
                        FaultAction::SetLinkCapacity {
                            link,
                            bps: PARTITION_BPS,
                        },
                    );
                    plan.push(heal_at, FaultAction::SetLinkCapacity { link, bps: lan });
                }
            }
        }
        Scenario::Freeze => {
            for &svc in &svcs[..n] {
                plan.push(
                    start_at,
                    FaultAction::Freeze {
                        svc,
                        until: heal_at,
                    },
                );
            }
        }
        Scenario::ConnBurst => {
            for &svc in &svcs[..n] {
                plan.push(
                    start_at,
                    FaultAction::DropConns {
                        svc,
                        until: heal_at,
                    },
                );
            }
        }
    }
    plan
}

/// What the resilience probe watches.
enum ProbeTarget {
    Giis {
        giis: SvcKey,
        /// Data older than this means a subtree missed its re-pull.
        fresh_horizon: SimDuration,
    },
    Rgma {
        /// All producer servlets (staleness = mean publication age).
        all: Vec<SvcKey>,
        /// The crashed subset (recovery = all have republished).
        crashed: Vec<SvcKey>,
    },
    Hawkeye {
        mgr: SvcKey,
        total: usize,
    },
}

/// A passive deterministic observer: samples system staleness into its
/// own gauge every [`PROBE_PERIOD_S`] seconds (window samples only) and
/// records the first instant the system looks healthy again after the
/// heal.  It only reads simulation state, so it cannot perturb the run's
/// trajectory; the harness reads the gauges back after the run.
pub(crate) struct Probe {
    target: ProbeTarget,
    ws: SimTime,
    we: SimTime,
    heal_at: SimTime,
    faulted: bool,
    recovered: bool,
    /// Staleness samples, seconds.
    pub(crate) staleness: MeanAccum,
    /// Time from heal to healthy, seconds (at most one sample).
    pub(crate) recovery: MeanAccum,
}

impl Probe {
    fn staleness(&self, net: &simnet::Net, now: SimTime) -> Option<f64> {
        match &self.target {
            ProbeTarget::Giis { giis, .. } => net
                .service_as::<Giis>(*giis)
                .and_then(|g| g.max_data_age(now))
                .map(|d| d.as_secs_f64()),
            ProbeTarget::Rgma { all, .. } => {
                let ages: Vec<f64> = all
                    .iter()
                    .filter_map(|&k| net.service_as::<ProducerServlet>(k))
                    .filter_map(|ps| ps.last_publish_at)
                    .map(|t| now.saturating_since(t).as_secs_f64())
                    .collect();
                if ages.is_empty() {
                    None
                } else {
                    Some(ages.iter().sum::<f64>() / ages.len() as f64)
                }
            }
            ProbeTarget::Hawkeye { mgr, .. } => net
                .service_as::<Manager>(*mgr)
                .and_then(|m| m.mean_ad_age(now)),
        }
    }

    fn healthy(&self, net: &simnet::Net, now: SimTime) -> bool {
        match &self.target {
            ProbeTarget::Giis {
                giis,
                fresh_horizon,
            } => net
                .service_as::<Giis>(*giis)
                .and_then(|g| g.max_data_age(now))
                .is_some_and(|age| age <= *fresh_horizon),
            ProbeTarget::Rgma { crashed, .. } => crashed.iter().all(|&k| {
                !net.service_down(k)
                    && net
                        .service_as::<ProducerServlet>(k)
                        .and_then(|ps| ps.last_publish_at)
                        .is_some_and(|t| t >= self.heal_at)
            }),
            ProbeTarget::Hawkeye { mgr, total } => {
                net.service_as::<Manager>(*mgr).is_some_and(|m| {
                    m.fresh_count(now, SimDuration::from_secs(HAWKEYE_FRESH_HORIZON_S)) == *total
                })
            }
        }
    }
}

impl Client for Probe {
    fn on_start(&mut self, cx: &mut ClientCx) {
        cx.wake_in(SimDuration::from_secs(PROBE_PERIOD_S), 0);
    }

    fn on_wake(&mut self, _tag: u64, cx: &mut ClientCx) {
        let now = cx.now();
        let period = SimDuration::from_secs(PROBE_PERIOD_S);
        if now >= self.ws && now < self.we {
            if let Some(age) = self.staleness(cx.net, now) {
                self.staleness.record(age);
            }
        }
        if self.faulted && !self.recovered && now >= self.heal_at {
            if self.healthy(cx.net, now) {
                self.recovered = true;
                let r = now.saturating_since(self.heal_at).as_secs_f64();
                self.recovery.record(r);
            } else if now + period >= self.we && self.heal_at < self.we {
                // Last in-window sample and still unhealthy: censor
                // recovery at window end so the mean stays defined.
                self.recovered = true;
                let r = self.we.saturating_since(self.heal_at).as_secs_f64();
                self.recovery.record(r);
            }
        }
        cx.wake_in(period, 0);
    }
}

/// Build the fault schedule from the policy, add the probe client, and
/// install the schedule.  The run's `FaultSpec` (onset/heal fractions,
/// scenario override) comes from the `RunConfig`; the x value sets how
/// many targets fault; `Scenario::Auto` resolves to the policy's kind
/// and `Scenario::None` (the default) injects nothing.
fn install_resilience(h: &mut Harness, w: &World<'_>) {
    let cfg = h.cfg;
    let ws = cfg.window_start();
    let we = cfg.window_end();
    let start_at = ws + cfg.window.mul_f64(cfg.faults.start_frac);
    let heal_at = ws + cfg.window.mul_f64(cfg.faults.heal_frac);

    let plan = match &w.spec.faults {
        None => FaultPlan::new(),
        Some(policy) => {
            let scenario = match cfg.faults.scenario {
                Scenario::Auto => match policy.scenario {
                    FaultKind::Partition => Scenario::Partition,
                    FaultKind::Churn => Scenario::Churn,
                },
                s => s,
            };
            let svcs = services_named(h, &policy.service);
            let prime = vec![(SimDuration::from_millis(policy.prime_ms), 0)];
            build_plan(
                h,
                scenario,
                &svcs,
                &policy.hosts,
                &prime,
                w.x as usize,
                start_at,
                heal_at,
            )
        }
    };

    if let Some(ps) = &w.spec.probe {
        let target = match ps {
            ProbeSpec::GiisFreshness { giis } => {
                let svc = w.spec.services.iter().find(|(n, _)| n == giis);
                let ttl = match svc.map(|(_, s)| &s.kind) {
                    Some(
                        ServiceKind::GiisPool { cachettl, .. } | ServiceKind::Giis { cachettl, .. },
                    ) => resolve_ttl(*cachettl, h),
                    _ => None,
                };
                ProbeTarget::Giis {
                    giis: w.key_of(giis),
                    fresh_horizon: ttl.expect("validated: a GIIS with a finite TTL")
                        + SimDuration::from_secs(5),
                }
            }
            ProbeSpec::RgmaProducers => {
                let all = services_named(h, "rgma-producer-servlet");
                let crashed: Vec<SvcKey> = all
                    .iter()
                    .copied()
                    .take((w.x as usize).min(all.len()))
                    .collect();
                ProbeTarget::Rgma { all, crashed }
            }
            ProbeSpec::HawkeyeAds { manager } => {
                let total = w
                    .spec
                    .services
                    .iter()
                    .filter(|(_, s)| matches!(s.kind, ServiceKind::Agent { .. }))
                    .count();
                ProbeTarget::Hawkeye {
                    mgr: w.key_of(manager),
                    total,
                }
            }
        };
        let faulted = !plan.is_empty();
        h.probe = Some(h.net.add_client(Box::new(Probe {
            target,
            ws,
            we,
            heal_at,
            faulted,
            recovered: false,
            staleness: MeanAccum::new(),
            recovery: MeanAccum::new(),
        })));
    }
    h.install_faults(plan);
}

// ======================================================================
// The built-in catalogue
// ======================================================================

/// The five paper experiment sets, the federated Set 6 ([`SERIES`]) and
/// the Section-4 extension studies ([`EXTENSIONS`]) as tables of
/// [`ScenarioSpec`] builders.  A series' row is the only place its set,
/// legend label and topology are written; the spec's canonical text (and
/// hence fingerprint) is part of the result cache's address.
///
/// [`SERIES`]: catalogue::SERIES
/// [`EXTENSIONS`]: catalogue::EXTENSIONS
pub mod catalogue {
    use gscenario::{
        Arrivals, ClientCpu, Count, FaultKind, FaultPolicy, Placement, ProbeSpec, Query,
        ScenarioSpec, ServiceKind, ServiceSpec, SystemId, Ttl, WanLink, WorkloadSpec,
    };

    /// One built-in series: a figure series, or an extension study.
    #[derive(Debug)]
    pub struct Series {
        /// The experiment set (1–6) whose figures plot this series;
        /// [`EXT`] for an extension study, which plots none.
        pub set: u32,
        /// The figure legend label (stable: part of every point key, so
        /// of seed derivation and the cache address).
        pub label: &'static str,
        /// Builds the spec.  A function, not a value: the table stays a
        /// few words per row and a point builds its spec where it runs.
        pub spec: fn() -> ScenarioSpec,
    }

    /// The `set` of the extension studies' rows.
    pub const EXT: u32 = 0;

    impl Series {
        /// `setN/<label>`, or `ext/<label>` for an extension study —
        /// the id `figures --list` prints and [`find`] resolves.
        pub fn id(&self) -> String {
            match self.set {
                EXT => format!("ext/{}", self.label),
                n => format!("set{n}/{}", self.label),
            }
        }
    }

    /// A series is its row: `(set, label)` is unique across both tables.
    impl PartialEq for Series {
        fn eq(&self, other: &Series) -> bool {
            (self.set, self.label) == (other.set, other.label)
        }
    }

    impl Eq for Series {}

    /// Every figure series, set-major in paper order.
    pub static SERIES: [Series; 22] = [
        // Set 1 (Figs 5–8) — information server scalability with users.
        Series {
            set: 1,
            label: "MDS GRIS (cache)",
            spec: || set1_gris(true),
        },
        Series {
            set: 1,
            label: "MDS GRIS (nocache)",
            spec: || set1_gris(false),
        },
        Series {
            set: 1,
            label: "Hawkeye Agent",
            spec: set1_hawkeye_agent,
        },
        Series {
            set: 1,
            label: "R-GMA ProducerServlet(lucky)",
            spec: set1_producer_servlet_lucky,
        },
        Series {
            set: 1,
            label: "R-GMA ProducerServlet(UC)",
            spec: set1_producer_servlet_uc,
        },
        // Set 2 (Figs 9–12) — directory server scalability with users.
        Series {
            set: 2,
            label: "MDS GIIS",
            spec: set2_giis,
        },
        Series {
            set: 2,
            label: "Hawkeye Manager",
            spec: set2_hawkeye_manager,
        },
        Series {
            set: 2,
            label: "R-GMA Registry(lucky)",
            spec: || set2_registry(false),
        },
        Series {
            set: 2,
            label: "R-GMA Registry(UC)",
            spec: || set2_registry(true),
        },
        // Set 3 (Figs 13–16) — information server scalability with
        // collectors, 10 concurrent users throughout.
        Series {
            set: 3,
            label: "MDS GRIS(cache)",
            spec: || set3_gris(true),
        },
        Series {
            set: 3,
            label: "MDS GRIS(no cache)",
            spec: || set3_gris(false),
        },
        Series {
            set: 3,
            label: "Hawkeye Agent",
            spec: set3_hawkeye_agent,
        },
        Series {
            set: 3,
            label: "R-GMA ProducerServlet",
            spec: set3_producer_servlet,
        },
        // Set 4 (Figs 17–20) — aggregate information server scalability,
        // 10 users.  The sweeps stop at the paper's software limits.
        Series {
            set: 4,
            label: "MDS GIIS(query all)",
            spec: || set4_giis(true),
        },
        Series {
            set: 4,
            label: "MDS GIIS (query part)",
            spec: || set4_giis(false),
        },
        Series {
            set: 4,
            label: "Hawkeye Manager",
            spec: set4_hawkeye_manager,
        },
        // Set 5 (Figs 21–24) — resilience: each system hit where its
        // soft-state design is most exposed; x components are faulted.
        Series {
            set: 5,
            label: "MDS GIIS (GRIS partition)",
            spec: set5_mds_giis,
        },
        Series {
            set: 5,
            label: "R-GMA (producer churn)",
            spec: set5_rgma_registry,
        },
        Series {
            set: 5,
            label: "Hawkeye (agent churn)",
            spec: set5_hawkeye_manager,
        },
        // Set 6 (Figs 25–28) — the same x GRISes flat under one GIIS vs
        // sharded over mid-level branch GIISes under a 2-level index, the
        // multi-layer architecture the paper's Section 4 proposes.
        Series {
            set: 6,
            label: "MDS GIIS (flat)",
            spec: set6_flat_giis,
        },
        Series {
            set: 6,
            label: "MDS GIIS (3 branches)",
            spec: || set6_federated(3),
        },
        Series {
            set: 6,
            label: "MDS GIIS (6 branches)",
            spec: || set6_federated(6),
        },
    ];

    /// The extension studies — the paper's Section 4 follow-ups, each the
    /// same experiment under a changed deployment.  A row sweeps its own
    /// spec's `x` values, at every profile (the studies are defined at
    /// these sizes), in the order `results/extensions.txt` tabulates them.
    pub static EXTENSIONS: [Series; 10] = [
        // 1. "Repeated … in a WAN environment": Set 2's directory server
        //    at 100 users, from campus LAN to a transatlantic-grade path.
        Series {
            set: EXT,
            label: "wan/lan-100mbit-0.1ms",
            spec: || ext_wan("ext-wan-100mbit", 100, 1),
        },
        Series {
            set: EXT,
            label: "wan/metro-40mbit-5ms",
            spec: || ext_wan("ext-wan-40mbit", 40, 5),
        },
        Series {
            set: EXT,
            label: "wan/wan-10mbit-25ms",
            spec: || ext_wan("ext-wan-10mbit", 10, 25),
        },
        Series {
            set: EXT,
            label: "wan/intercontinental-4mbit-80ms",
            spec: || ext_wan("ext-wan-4mbit", 4, 80),
        },
        // 2. "A multi-layer architecture …": 120 GRISes flat under one
        //    GIIS (Set 4's world) vs over five mid-level GIISes (Set 6's).
        Series {
            set: EXT,
            label: "hier-flat",
            spec: || at("ext-hier-flat", &[120], set4_giis(true)),
        },
        Series {
            set: EXT,
            label: "hier-tree",
            spec: || at("ext-hier-tree", &[120], set6_federated(5)),
        },
        // 3. "… querying an aggregate information server and an
        //    information server for the same piece of information": 50
        //    users at the owning GRIS (Set 1) vs through the GIIS (Set 2).
        Series {
            set: EXT,
            label: "agg-direct",
            spec: || at("ext-agg-direct", &[50], set1_gris(true)),
        },
        Series {
            set: EXT,
            label: "agg-giis",
            spec: || at("ext-agg-giis", &[50], set2_giis()),
        },
        // 4. "Additional patterns of user access": x Poisson arrivals/s.
        Series {
            set: EXT,
            label: "open-loop",
            spec: ext_open_loop,
        },
        // 5. The composite Consumer/Producer the paper describes (and
        //    R-GMA never shipped) over x site servlets.
        Series {
            set: EXT,
            label: "composite",
            spec: ext_composite,
        },
    ];

    /// The row with this `setN/<label>` or `ext/<label>` id.
    pub fn find(id: &str) -> Option<&'static Series> {
        SERIES.iter().chain(&EXTENSIONS).find(|s| s.id() == id)
    }

    /// The series of one experiment set, in paper order (none for an
    /// unknown set).
    pub fn in_set(set: u32) -> impl Iterator<Item = &'static Series> {
        SERIES.iter().filter(move |s| s.set == set)
    }

    /// The experiment sets the table covers, ascending.
    pub fn sets() -> Vec<u32> {
        let mut sets: Vec<u32> = SERIES.iter().map(|s| s.set).collect();
        sets.dedup();
        sets
    }

    /// User counts the paper sweeps in Sets 1–2.
    const USER_COUNTS: [u32; 9] = [1, 10, 50, 100, 200, 300, 400, 500, 600];
    /// The UC-hosted R-GMA variants stop at 100 users (section 3.1).
    const USER_COUNTS_UC: [u32; 4] = [1, 10, 50, 100];
    /// Set 4's query-all sweep (beyond 200 the GIIS crashed on the real
    /// testbed); Set 6 reuses it.
    const GRIS_COUNTS: [u32; 5] = [10, 50, 100, 150, 200];
    /// Faulted-component counts of Set 5; 0 is the unfaulted control.
    const FAULT_COUNTS: [u32; 6] = [0, 1, 2, 3, 4, 5];

    /// Concurrent closed-loop users per point in Sets 3–6.
    const USERS: Count = Count::Lit(10);

    /// Set 5's client-side query timeout: an abandoned query counts
    /// against availability and is retried with capped exponential
    /// backoff.
    const CLIENT_TIMEOUT_S: u64 = 10;

    fn svc(name: &str, host: &str, kind: ServiceKind) -> (String, ServiceSpec) {
        (
            name.to_string(),
            ServiceSpec {
                kind,
                host: host.to_string(),
            },
        )
    }

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn workload(target: Option<&str>, query: Query, cpu: ClientCpu) -> WorkloadSpec {
        WorkloadSpec {
            users: Count::X,
            placement: Placement::Uc,
            target: target.map(str::to_string),
            query,
            cpu,
            timeout_s: None,
            arrivals: Arrivals::Closed,
        }
    }

    fn spec(
        name: &str,
        system: SystemId,
        x_values: &[u32],
        services: Vec<(String, ServiceSpec)>,
        watch: &str,
        workload: WorkloadSpec,
    ) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            system,
            x_values: x_values.to_vec(),
            wan: None,
            services,
            watch: watch.to_string(),
            workload,
            probe: None,
            faults: None,
        }
    }

    /// MDS GRIS, provider data always (`cache`) or never in cache.
    fn set1_gris(cache: bool) -> ScenarioSpec {
        spec(
            if cache {
                "set1-gris-cache"
            } else {
                "set1-gris-nocache"
            },
            SystemId::Mds,
            &USER_COUNTS,
            vec![svc(
                "gris",
                "lucky7",
                ServiceKind::Gris {
                    providers: Count::Lit(10),
                    cache,
                    gsi: true,
                },
            )],
            "lucky7",
            workload(Some("gris"), Query::MdsSearchAllGris0, ClientCpu::Mds),
        )
    }

    /// Hawkeye Agent (Manager on lucky3).
    fn set1_hawkeye_agent() -> ScenarioSpec {
        spec(
            "set1-hawkeye-agent",
            SystemId::Hawkeye,
            &USER_COUNTS,
            vec![
                svc("mgr", "lucky3", ServiceKind::Manager),
                svc(
                    "agent",
                    "lucky4",
                    ServiceKind::Agent {
                        modules: Count::Lit(11),
                        manager: "mgr".to_string(),
                    },
                ),
            ],
            "lucky4",
            workload(Some("agent"), Query::HawkeyeAgentStatus, ClientCpu::Condor),
        )
    }

    /// The Registry + ProducerServlet pair both Set-1 R-GMA series query.
    fn set1_rgma_servers() -> Vec<(String, ServiceSpec)> {
        vec![
            svc("reg", "lucky1", ServiceKind::Registry),
            svc(
                "ps",
                "lucky3",
                ServiceKind::ProducerServlet {
                    producers: Count::Lit(10),
                    registry: "reg".to_string(),
                },
            ),
        ]
    }

    /// R-GMA: a single ConsumerServlet at UC.
    fn set1_producer_servlet_uc() -> ScenarioSpec {
        let mut services = set1_rgma_servers();
        services.push(svc(
            "cs",
            "uc00",
            ServiceKind::ConsumerServlet {
                registry: "reg".to_string(),
            },
        ));
        spec(
            "set1-producer-servlet-uc",
            SystemId::Rgma,
            &USER_COUNTS_UC,
            services,
            "lucky3",
            workload(Some("cs"), Query::RgmaConsumerQuery, ClientCpu::Rgma),
        )
    }

    /// R-GMA: one ConsumerServlet per Lucky client node (lucky minus the
    /// servlet/registry hosts), users beside their servlet.
    fn set1_producer_servlet_lucky() -> ScenarioSpec {
        let mut services = set1_rgma_servers();
        let client_hosts = ["lucky0", "lucky4", "lucky5", "lucky6", "lucky7"];
        for (i, host) in client_hosts.iter().enumerate() {
            services.push(svc(
                &format!("cs{i}"),
                host,
                ServiceKind::ConsumerServlet {
                    registry: "reg".to_string(),
                },
            ));
        }
        let mut w = workload(None, Query::RgmaConsumerQuery, ClientCpu::Rgma);
        w.placement =
            Placement::PerService((0..client_hosts.len()).map(|i| format!("cs{i}")).collect());
        spec(
            "set1-producer-servlet-lucky",
            SystemId::Rgma,
            &USER_COUNTS,
            services,
            "lucky3",
            w,
        )
    }

    /// MDS GIIS (cachettl pinned: data always cached).
    fn set2_giis() -> ScenarioSpec {
        spec(
            "set2-giis",
            SystemId::Mds,
            &USER_COUNTS,
            vec![svc(
                "giis",
                "lucky0",
                ServiceKind::GiisPool {
                    gris_hosts: strings(&["lucky3", "lucky4", "lucky5", "lucky6", "lucky7"]),
                    n_gris: Count::Lit(5),
                    cachettl: Ttl::Pinned,
                },
            )],
            "lucky0",
            workload(
                Some("giis"),
                Query::MdsSearchCpu { attrs_only: false },
                ClientCpu::Mds,
            ),
        )
    }

    /// A Manager on lucky3 with 6 registered Agents (Sets 2 and 5).
    fn manager_with_agents() -> (Vec<(String, ServiceSpec)>, [&'static str; 6]) {
        let agent_hosts = ["lucky0", "lucky1", "lucky4", "lucky5", "lucky6", "lucky7"];
        let mut services = vec![svc("mgr", "lucky3", ServiceKind::Manager)];
        for (i, host) in agent_hosts.iter().enumerate() {
            services.push(svc(
                &format!("a{i}"),
                host,
                ServiceKind::Agent {
                    modules: Count::Lit(11),
                    manager: "mgr".to_string(),
                },
            ));
        }
        (services, agent_hosts)
    }

    /// A Registry on lucky1 with 5 ProducerServlets (Sets 2 and 5).
    fn registry_with_servlets() -> (Vec<(String, ServiceSpec)>, [&'static str; 5]) {
        let ps_hosts = ["lucky3", "lucky4", "lucky5", "lucky6", "lucky7"];
        let mut services = vec![svc("reg", "lucky1", ServiceKind::Registry)];
        for (i, host) in ps_hosts.iter().enumerate() {
            services.push(svc(
                &format!("ps{i}"),
                host,
                ServiceKind::ProducerServlet {
                    producers: Count::Lit(10),
                    registry: "reg".to_string(),
                },
            ));
        }
        (services, ps_hosts)
    }

    /// Hawkeye Manager with 6 registered Agents.
    fn set2_hawkeye_manager() -> ScenarioSpec {
        spec(
            "set2-hawkeye-manager",
            SystemId::Hawkeye,
            &USER_COUNTS,
            manager_with_agents().0,
            "lucky3",
            workload(Some("mgr"), Query::HawkeyeStatusRandom, ClientCpu::Condor),
        )
    }

    /// R-GMA Registry queried from UC, or from the Lucky nodes.
    fn set2_registry(uc: bool) -> ScenarioSpec {
        let mut w = workload(
            Some("reg"),
            Query::RgmaRegistryLookupRandom,
            ClientCpu::Rgma,
        );
        if !uc {
            // Users on the lucky nodes themselves (120 per node).
            w.placement =
                Placement::Hosts(strings(&["lucky0", "lucky3", "lucky4", "lucky5", "lucky6"]));
        }
        spec(
            if uc {
                "set2-registry-uc"
            } else {
                "set2-registry-lucky"
            },
            SystemId::Rgma,
            if uc { &USER_COUNTS_UC } else { &USER_COUNTS },
            registry_with_servlets().0,
            "lucky1",
            w,
        )
    }

    /// `workload` with the fixed user count of Sets 3–6.
    fn ten_users(target: &str, query: Query, cpu: ClientCpu) -> WorkloadSpec {
        let mut w = workload(Some(target), query, cpu);
        w.users = USERS;
        w
    }

    /// MDS GRIS with x information providers.
    fn set3_gris(cache: bool) -> ScenarioSpec {
        spec(
            if cache {
                "set3-gris-cache"
            } else {
                "set3-gris-nocache"
            },
            SystemId::Mds,
            &[10, 20, 30, 40, 50, 60, 70, 80, 90],
            // Anonymous binds: the paper's Set-3 cached responses
            // are sub-second, ruling out the 4 s GSI bind of Set 1.
            vec![svc(
                "gris",
                "lucky7",
                ServiceKind::Gris {
                    providers: Count::X,
                    cache,
                    gsi: false,
                },
            )],
            "lucky7",
            ten_users("gris", Query::MdsSearchAllGris0, ClientCpu::Mds),
        )
    }

    /// Hawkeye Agent with x modules (its default is 11, not 10).
    fn set3_hawkeye_agent() -> ScenarioSpec {
        spec(
            "set3-hawkeye-agent",
            SystemId::Hawkeye,
            &[11, 20, 30, 40, 50, 60, 70, 80, 90],
            vec![
                svc("mgr", "lucky3", ServiceKind::Manager),
                svc(
                    "agent",
                    "lucky4",
                    ServiceKind::Agent {
                        modules: Count::X,
                        manager: "mgr".to_string(),
                    },
                ),
            ],
            "lucky4",
            ten_users("agent", Query::HawkeyeAgentFull, ClientCpu::Condor),
        )
    }

    /// R-GMA ProducerServlet with x producers.
    fn set3_producer_servlet() -> ScenarioSpec {
        spec(
            "set3-producer-servlet",
            SystemId::Rgma,
            &[10, 20, 30, 40, 50, 60, 70, 80, 90],
            vec![
                svc("reg", "lucky1", ServiceKind::Registry),
                svc(
                    "ps",
                    "lucky3",
                    ServiceKind::ProducerServlet {
                        producers: Count::X,
                        registry: "reg".to_string(),
                    },
                ),
            ],
            "lucky3",
            ten_users("ps", Query::RgmaProducerQueryAll, ClientCpu::Rgma),
        )
    }

    /// One GIIS named `name` on lucky0 over x GRISes spread across the
    /// other Lucky hosts (Set 4's MDS series and Set 6's flat baseline).
    fn flat_giis(name: &str) -> Vec<(String, ServiceSpec)> {
        vec![svc(
            name,
            "lucky0",
            ServiceKind::GiisPool {
                gris_hosts: strings(&["lucky1", "lucky3", "lucky4", "lucky5", "lucky6", "lucky7"]),
                n_gris: Count::X,
                cachettl: Ttl::Exp4,
            },
        )]
    }

    /// MDS GIIS over x GRISes: users query all registered data (≤ 200),
    /// or one registered GRIS's subtree (≤ 500).
    fn set4_giis(all: bool) -> ScenarioSpec {
        let query = if all {
            Query::MdsSearchAllGiis
        } else {
            Query::MdsSearchCpu { attrs_only: true }
        };
        spec(
            if all {
                "set4-giis-query-all"
            } else {
                "set4-giis-query-part"
            },
            SystemId::Mds,
            if all {
                &GRIS_COUNTS
            } else {
                &[10, 50, 100, 200, 300, 400, 500]
            },
            flat_giis("giis"),
            "lucky0",
            ten_users("giis", query, ClientCpu::Mds),
        )
    }

    /// Hawkeye Manager with x `hawkeye_advertise`-simulated machines
    /// (≤ 1000), worst-case constraint scan.
    fn set4_hawkeye_manager() -> ScenarioSpec {
        spec(
            "set4-hawkeye-manager",
            SystemId::Hawkeye,
            &[10, 50, 100, 200, 400, 600, 800, 1000],
            vec![
                svc("mgr", "lucky3", ServiceKind::Manager),
                // The advertiser fleet lives on lucky4 (the paper
                // used `hawkeye_advertise` from testbed hosts).
                svc(
                    "fleet",
                    "lucky4",
                    ServiceKind::AdvertiserFleet {
                        machines: Count::X,
                        manager: "mgr".to_string(),
                    },
                ),
            ],
            "lucky3",
            ten_users("mgr", Query::HawkeyeConstraintMiss, ClientCpu::Condor),
        )
    }

    /// A Set-5 spec: [`ten_users`] with the client timeout, a resilience
    /// probe and a fault policy over `hosts`.
    fn set5(
        name: &str,
        system: SystemId,
        services: Vec<(String, ServiceSpec)>,
        watch: &str,
        mut w: WorkloadSpec,
        probe: ProbeSpec,
        faults: FaultPolicy,
    ) -> ScenarioSpec {
        w.timeout_s = Some(CLIENT_TIMEOUT_S);
        let mut s = spec(name, system, &FAULT_COUNTS, services, watch, w);
        s.probe = Some(probe);
        s.faults = Some(faults);
        s
    }

    /// MDS GIIS with 5 registered GRISes; the GRIS hosts' access links
    /// are partitioned.  The GIIS keeps answering from cache — stale but
    /// available.
    fn set5_mds_giis() -> ScenarioSpec {
        let gris_hosts = ["lucky3", "lucky4", "lucky5", "lucky6", "lucky7"];
        set5(
            "set5-mds-giis",
            SystemId::Mds,
            vec![svc(
                "giis",
                "lucky0",
                ServiceKind::GiisPool {
                    gris_hosts: strings(&gris_hosts),
                    n_gris: Count::Lit(5),
                    cachettl: Ttl::Exp4,
                },
            )],
            "lucky0",
            ten_users(
                "giis",
                Query::MdsSearchCpu { attrs_only: false },
                ClientCpu::Mds,
            ),
            ProbeSpec::GiisFreshness {
                giis: "giis".to_string(),
            },
            FaultPolicy {
                service: "gris".to_string(),
                hosts: strings(&gris_hosts),
                prime_ms: 50,
                scenario: FaultKind::Partition,
            },
        )
    }

    /// R-GMA Registry + 5 ProducerServlets queried through a
    /// ConsumerServlet; producer servlets are killed and restarted.
    /// Consumers fail outright until the registry's re-registration
    /// machinery repopulates live producers.
    fn set5_rgma_registry() -> ScenarioSpec {
        let (mut services, ps_hosts) = registry_with_servlets();
        services.push(svc(
            "cs",
            "lucky0",
            ServiceKind::ConsumerServlet {
                registry: "reg".to_string(),
            },
        ));
        set5(
            "set5-rgma-registry",
            SystemId::Rgma,
            services,
            "lucky1",
            ten_users("cs", Query::RgmaConsumerQuery, ClientCpu::Rgma),
            ProbeSpec::RgmaProducers,
            FaultPolicy {
                service: "rgma-producer-servlet".to_string(),
                hosts: strings(&ps_hosts),
                prime_ms: 200,
                scenario: FaultKind::Churn,
            },
        )
    }

    /// Hawkeye Manager with 6 Agents; agents are killed and restarted.
    /// Queries keep succeeding on resident ClassAds, but ad freshness
    /// degrades with every killed agent.
    fn set5_hawkeye_manager() -> ScenarioSpec {
        let (services, agent_hosts) = manager_with_agents();
        set5(
            "set5-hawkeye-manager",
            SystemId::Hawkeye,
            services,
            "lucky3",
            ten_users("mgr", Query::HawkeyeStatusRandom, ClientCpu::Condor),
            ProbeSpec::HawkeyeAds {
                manager: "mgr".to_string(),
            },
            FaultPolicy {
                service: "hawkeye-agent".to_string(),
                hosts: strings(&agent_hosts),
                prime_ms: 500,
                scenario: FaultKind::Churn,
            },
        )
    }

    /// Flat baseline: one GIIS over all x GRISes (Set 4's world).
    fn set6_flat_giis() -> ScenarioSpec {
        spec(
            "set6-flat-giis",
            SystemId::Mds,
            &GRIS_COUNTS,
            flat_giis("top"),
            "lucky0",
            ten_users("top", Query::MdsSearchAllGiis, ClientCpu::Mds),
        )
    }

    /// 2-level federation: x GRISes sharded over `branches` (at most 6)
    /// mid-level GIISes under a top index.
    fn set6_federated(branches: u32) -> ScenarioSpec {
        let hosts = ["lucky1", "lucky3", "lucky4", "lucky5", "lucky6", "lucky7"];
        let mut services = vec![svc(
            "top",
            "lucky0",
            ServiceKind::Giis {
                cachettl: Ttl::Exp4,
                parent: None,
                branch: 0,
            },
        )];
        for b in 0..branches {
            let host = hosts[b as usize];
            services.push(svc(
                &format!("mid{b}"),
                host,
                ServiceKind::Giis {
                    cachettl: Ttl::Exp4,
                    parent: Some("top".to_string()),
                    branch: b,
                },
            ));
            services.push(svc(
                &format!("shard{b}"),
                host,
                ServiceKind::GrisFleet {
                    parent: format!("mid{b}"),
                    providers: 10,
                    share: (b, branches),
                },
            ));
        }
        spec(
            &format!("set6-federated-{branches}"),
            SystemId::Mds,
            &GRIS_COUNTS,
            services,
            "lucky0",
            ten_users("top", Query::MdsSearchAllGiis, ClientCpu::Mds),
        )
    }

    /// A built-in spec re-run as the extension study `name` at `xs`.
    fn at(name: &str, xs: &[u32], mut spec: ScenarioSpec) -> ScenarioSpec {
        spec.name = name.to_string();
        spec.x_values = xs.to_vec();
        spec
    }

    /// Set 2's GIIS at 100 users behind a WAN of `mbps` / `latency_ms`.
    fn ext_wan(name: &str, mbps: u32, latency_ms: u32) -> ScenarioSpec {
        let mut s = at(name, &[100], set2_giis());
        s.wan = Some(WanLink { mbps, latency_ms });
        s
    }

    /// Set 1's ProducerServlet driven by ten open-loop sources at UC
    /// offering x queries/s between them.  Past the servlet's capacity
    /// the excess is lost, where Set 1's closed loop merely slowed down.
    fn ext_open_loop() -> ScenarioSpec {
        let mut w = workload(Some("ps"), Query::RgmaProducerQuery, ClientCpu::Rgma);
        w.users = Count::Lit(10);
        w.arrivals = Arrivals::Poisson { rate: Count::X };
        spec(
            "ext-open-loop",
            SystemId::Rgma,
            &[5, 15, 30, 60],
            set1_rgma_servers(),
            "lucky3",
            w,
        )
    }

    /// A composite producer on lucky0 over x site servlets, all
    /// publishing `cpuload`; 10 users query the composite for everything.
    fn ext_composite() -> ScenarioSpec {
        spec(
            "ext-composite",
            SystemId::Rgma,
            &[2, 5, 10],
            vec![
                svc("reg", "lucky1", ServiceKind::Registry),
                svc(
                    "comp",
                    "lucky0",
                    ServiceKind::CompositePool {
                        site_hosts: strings(&["lucky3", "lucky4", "lucky5", "lucky6", "lucky7"]),
                        n_sites: Count::X,
                        registry: "reg".to_string(),
                    },
                ),
            ],
            "lucky0",
            ten_users("comp", Query::RgmaProducerQueryAll, ClientCpu::Rgma),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runcfg::Measurement;
    use gscenario::parse;
    use simnet::ObsMode;
    use std::collections::BTreeSet;

    /// One `(spec, x)` point under `cfg` exactly as given: compile, run,
    /// measure.
    fn run_point(spec: &ScenarioSpec, x: u32, cfg: &RunConfig) -> Measurement {
        compile(spec, x, cfg).run_and_measure(f64::from(x))
    }

    fn quick(seed: u64) -> RunConfig {
        let mut cfg = RunConfig::quick(seed);
        cfg.warmup = SimDuration::from_secs(5);
        cfg.window = SimDuration::from_secs(20);
        cfg
    }

    /// Run the built-in series `id` at `x` under `cfg` as given.
    fn builtin(id: &str, x: u32, cfg: &RunConfig) -> Measurement {
        let series = catalogue::find(id).unwrap_or_else(|| panic!("no series {id:?}"));
        run_point(&(series.spec)(), x, cfg)
    }

    /// Every catalogue spec round-trips through the text format —
    /// the committed examples stay parseable and canonical — and no two
    /// rows share a fingerprint or, within a set, a label.
    #[test]
    fn catalogue_specs_round_trip_and_validate() {
        let mut fingerprints = std::collections::HashSet::new();
        let mut ids = std::collections::HashSet::new();
        for series in catalogue::SERIES.iter().chain(&catalogue::EXTENSIONS) {
            let spec = (series.spec)();
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let text = spec.print();
            let back = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(back, spec, "{} must round-trip", spec.name);
            assert!(
                fingerprints.insert(spec.fingerprint()),
                "{} collides with another spec",
                spec.name
            );
            assert!(ids.insert(series.id()), "duplicate row {}", series.id());
        }
    }

    /// Series ids feed seed derivation, and spec names and fingerprints
    /// the cache address: a typo in the table — or a new spec field that
    /// leaks into the canonical text of a spec that does not use it —
    /// must fail here, not as changed CSV bytes or a cold cache.  The
    /// fingerprints are the ones every `gridmon-cache-v4` and `-v5` cache holds.
    #[test]
    fn catalogue_ids_names_and_fingerprints_are_pinned() {
        #[rustfmt::skip]
        let want = [
            ("set1/MDS GRIS (cache)", "set1-gris-cache", "04e631856dee365a04981888660feb1c"),
            ("set1/MDS GRIS (nocache)", "set1-gris-nocache", "38f9d33a799e4920a346553235949af0"),
            ("set1/Hawkeye Agent", "set1-hawkeye-agent", "f08e046cd6ad8895f98115ddb3828246"),
            ("set1/R-GMA ProducerServlet(lucky)", "set1-producer-servlet-lucky", "d3da4935481369a365f2847102095f26"),
            ("set1/R-GMA ProducerServlet(UC)", "set1-producer-servlet-uc", "deba374a5186444b28ee87cc60e36e4e"),
            ("set2/MDS GIIS", "set2-giis", "a61e70fc0657b42187d3426b3b87dede"),
            ("set2/Hawkeye Manager", "set2-hawkeye-manager", "cfc9f2ddab9cad56ccae54b78cb4c4f8"),
            ("set2/R-GMA Registry(lucky)", "set2-registry-lucky", "e912bf9d4ee624c1cb8e29170409cb36"),
            ("set2/R-GMA Registry(UC)", "set2-registry-uc", "399361ef56ca114d19bc8aeca549e946"),
            ("set3/MDS GRIS(cache)", "set3-gris-cache", "cdef32a92423325e5be255e6c9ff12d0"),
            ("set3/MDS GRIS(no cache)", "set3-gris-nocache", "88f7ad6c14ee7e902275178943d55570"),
            ("set3/Hawkeye Agent", "set3-hawkeye-agent", "b51d3f125270ad7f0a3a50940fbde0dc"),
            ("set3/R-GMA ProducerServlet", "set3-producer-servlet", "8e6bee11ce3877f5153455b706e1c5fc"),
            ("set4/MDS GIIS(query all)", "set4-giis-query-all", "0e27367fb5d76e175b920db63104698e"),
            ("set4/MDS GIIS (query part)", "set4-giis-query-part", "bfd0949becac21f0560a3848f9eb4230"),
            ("set4/Hawkeye Manager", "set4-hawkeye-manager", "fa282474245fd99e17f84d646559fd58"),
            ("set5/MDS GIIS (GRIS partition)", "set5-mds-giis", "6c733d6ed841ee95762d09025e937d6c"),
            ("set5/R-GMA (producer churn)", "set5-rgma-registry", "3b88f80560781d268475dc3b1aca23ac"),
            ("set5/Hawkeye (agent churn)", "set5-hawkeye-manager", "29453e09c3052c25c8e526b0917710aa"),
            ("set6/MDS GIIS (flat)", "set6-flat-giis", "97d715832fadc94ae24cc44d082952b4"),
            ("set6/MDS GIIS (3 branches)", "set6-federated-3", "e62f2544c8785f090b412b7204e8fbda"),
            ("set6/MDS GIIS (6 branches)", "set6-federated-6", "30089091fad92f44ed3bc66570d5a938"),
        ];
        assert_eq!(catalogue::SERIES.len(), want.len());
        for (series, (id, name, fingerprint)) in catalogue::SERIES.iter().zip(want) {
            let spec = (series.spec)();
            assert_eq!((series.id().as_str(), spec.name.as_str()), (id, name));
            assert_eq!(spec.fingerprint(), fingerprint, "{id}");
        }
        assert_eq!(catalogue::sets(), [1, 2, 3, 4, 5, 6]);
        assert!(catalogue::find("set7/MDS GIIS").is_none());

        let ext: Vec<(String, String, Vec<u32>)> = catalogue::EXTENSIONS
            .iter()
            .map(|s| {
                let spec = (s.spec)();
                (s.id(), spec.name, spec.x_values)
            })
            .collect();
        let want = [
            ("ext/wan/lan-100mbit-0.1ms", "ext-wan-100mbit", vec![100]),
            ("ext/wan/metro-40mbit-5ms", "ext-wan-40mbit", vec![100]),
            ("ext/wan/wan-10mbit-25ms", "ext-wan-10mbit", vec![100]),
            (
                "ext/wan/intercontinental-4mbit-80ms",
                "ext-wan-4mbit",
                vec![100],
            ),
            ("ext/hier-flat", "ext-hier-flat", vec![120]),
            ("ext/hier-tree", "ext-hier-tree", vec![120]),
            ("ext/agg-direct", "ext-agg-direct", vec![50]),
            ("ext/agg-giis", "ext-agg-giis", vec![50]),
            ("ext/open-loop", "ext-open-loop", vec![5, 15, 30, 60]),
            ("ext/composite", "ext-composite", vec![2, 5, 10]),
        ]
        .map(|(id, name, xs)| (id.to_string(), name.to_string(), xs));
        assert_eq!(ext, want);
        assert_eq!(
            catalogue::find("ext/hier-tree"),
            Some(&catalogue::EXTENSIONS[5])
        );
    }

    /// The committed example of the extension vocabulary is `print()`'s
    /// own output below its comment header, and parses to the composite
    /// study re-driven open-loop across a degraded WAN.
    #[test]
    fn open_loop_wan_example_is_canonical() {
        let mut want = (catalogue::find("ext/composite").unwrap().spec)();
        want.name = "open-loop-wan".to_string();
        want.x_values = vec![5, 20, 40];
        want.wan = Some(gscenario::WanLink {
            mbps: 10,
            latency_ms: 25,
        });
        let ServiceKind::CompositePool { n_sites, .. } = &mut want.services[1].1.kind else {
            panic!("the composite study's second service is the pool")
        };
        *n_sites = gscenario::Count::Lit(5);
        want.workload.query = Query::RgmaProducerQuery;
        want.workload.arrivals = Arrivals::Poisson {
            rate: gscenario::Count::X,
        };
        let text = include_str!("../../../examples/scenarios/open_loop_wan.toml");
        assert_eq!(parse(text).unwrap(), want);
        assert!(
            text.ends_with(&format!("\n\n{}", want.print())),
            "not canonical"
        );
        let m = run_point(&want, 20, &quick(4));
        assert!(m.completions > 0, "{m:?}");
    }

    /// The one fault rule: a sweep point sees the sweep's plan iff its
    /// spec declares `[faults]`; the seed is the point's own either way.
    #[test]
    fn point_cfg_keeps_faults_only_for_declaring_specs() {
        let mut base = quick(3);
        base.faults = DEFAULT_FAULTS;
        let plain = (catalogue::find("set1/Hawkeye Agent").unwrap().spec)();
        let faulted = (catalogue::find("set5/Hawkeye (agent churn)").unwrap().spec)();
        assert_eq!(point_cfg(&plain, "k", &base).faults, FaultSpec::NONE);
        assert_eq!(point_cfg(&faulted, "k", &base).faults, DEFAULT_FAULTS);
        assert_eq!(point_cfg(&plain, "k", &base).seed, point_seed(3, "k"));
        assert_ne!(point_seed(3, "k"), point_seed(3, "l"));
        assert_ne!(point_seed(3, "k"), point_seed(4, "k"));
    }

    /// A user-authored spec straight from text runs end to end.
    #[test]
    fn parsed_scenario_compiles_and_runs() {
        let text = r#"
name = "tiny-giis"
system = "mds"
x = [2]
watch = "lucky0"

[service.giis]
kind = "giis-pool"
host = "lucky0"
gris_hosts = ["lucky3", "lucky4"]
n_gris = "x"
cachettl = "pinned"

[workload]
users = 3
target = "giis"
query = "mds-search-all-giis"
"#;
        let spec = parse(text).unwrap();
        let m = run_point(&spec, 2, &quick(9));
        assert!(m.completions > 0, "{m:?}");
        // Deterministic: same spec, same cfg, same bits.
        let m2 = run_point(&spec, 2, &quick(9));
        assert_eq!(m, m2);
    }

    /// `gscenario::FAULTABLE` is a hand copy of the `Service::name()`
    /// strings of three other crates: deploy one service of every
    /// `ServiceKind` and hold the list to the names actually deployed.
    #[test]
    fn faultable_tokens_are_the_deployed_service_names() {
        let text = r#"
name = "one-of-each"
system = "mds"
x = [2]
watch = "lucky0"

[service.gris]
kind = "gris"
host = "lucky7"
providers = 10

[service.pool]
kind = "giis-pool"
host = "lucky0"
gris_hosts = ["lucky3"]
n_gris = 1
cachettl = "pinned"

[service.top]
kind = "giis"
host = "lucky1"
cachettl = "exp4"

[service.shard]
kind = "gris-fleet"
host = "lucky1"
parent = "top"
share = "0/1"

[service.mgr]
kind = "hawkeye-manager"
host = "lucky3"

[service.agent]
kind = "hawkeye-agent"
host = "lucky4"
modules = 11
manager = "mgr"

[service.fleet]
kind = "hawkeye-advertiser-fleet"
host = "lucky4"
machines = 2
manager = "mgr"

[service.reg]
kind = "rgma-registry"
host = "lucky1"

[service.ps]
kind = "rgma-producer-servlet"
host = "lucky5"
producers = 10
registry = "reg"

[service.cs]
kind = "rgma-consumer-servlet"
host = "lucky6"
registry = "reg"

[service.comp]
kind = "rgma-composite-pool"
host = "lucky6"
site_hosts = ["lucky5"]
n_sites = 1
registry = "reg"

[workload]
users = 1
target = "gris"
query = "mds-search-all-gris0"
"#;
        let spec = parse(text).unwrap();
        let kinds: BTreeSet<_> = spec.services.iter().map(|(_, s)| s.kind.token()).collect();
        assert_eq!(kinds.len(), 11, "one service of every ServiceKind");
        let h = compile(&spec, 2, &quick(1));
        let deployed: BTreeSet<&str> = h
            .net
            .services
            .iter()
            .filter_map(|(k, _)| h.net.service(k))
            .map(|s| s.name())
            .collect();
        assert_eq!(deployed, BTreeSet::from(gscenario::FAULTABLE));
    }

    /// `gscenario::known_host` is a hand copy of the testbed's host
    /// names, and `compile` looks every validated host up on the testbed:
    /// the two must name exactly the same hosts.
    #[test]
    fn known_hosts_are_the_testbed_nodes() {
        let tb = crate::testbed::Testbed::build(&crate::params::Params::default());
        let nodes: BTreeSet<String> = tb
            .topo
            .node_ids()
            .map(|id| tb.topo.node(id).name.clone())
            .collect();
        let candidates = (0..10)
            .map(|i| format!("lucky{i}"))
            .chain((0..100).map(|i| format!("uc{i:02}")))
            .chain(["", "lucky", "uc", "uc1", "uc001", "uc+1", "LUCKY0", "mcs"].map(String::from));
        let known: BTreeSet<String> = candidates.filter(|h| gscenario::known_host(h)).collect();
        assert_eq!(known, nodes);
    }

    /// One minimal deployment per `ServiceKind`, its service `t` of that
    /// kind deployed after what `t` needs upstream (and, for the Hawkeye
    /// kinds, an agent for `hawkeye-status-random` to ask about).
    const KINDS: [(&str, &str); 11] = [
        ("gris", "[service.t]\nkind = \"gris\"\nhost = \"lucky7\"\nproviders = 2\n"),
        (
            "giis-pool",
            "[service.t]\nkind = \"giis-pool\"\nhost = \"lucky0\"\ngris_hosts = [\"lucky3\"]\n\
             n_gris = 2\ncachettl = \"exp4\"\n",
        ),
        (
            "giis",
            "[service.t]\nkind = \"giis\"\nhost = \"lucky0\"\ncachettl = \"exp4\"\n\n\
             [service.f]\nkind = \"gris-fleet\"\nhost = \"lucky1\"\nparent = \"t\"\nshare = \"0/1\"\n",
        ),
        (
            "gris-fleet",
            "[service.top]\nkind = \"giis\"\nhost = \"lucky0\"\ncachettl = \"exp4\"\n\n\
             [service.t]\nkind = \"gris-fleet\"\nhost = \"lucky1\"\nparent = \"top\"\nshare = \"0/1\"\n",
        ),
        (
            "hawkeye-manager",
            "[service.t]\nkind = \"hawkeye-manager\"\nhost = \"lucky3\"\n\n\
             [service.a]\nkind = \"hawkeye-agent\"\nhost = \"lucky4\"\nmodules = 2\nmanager = \"t\"\n",
        ),
        (
            "hawkeye-agent",
            "[service.m]\nkind = \"hawkeye-manager\"\nhost = \"lucky3\"\n\n\
             [service.t]\nkind = \"hawkeye-agent\"\nhost = \"lucky4\"\nmodules = 2\nmanager = \"m\"\n",
        ),
        (
            "hawkeye-advertiser-fleet",
            "[service.m]\nkind = \"hawkeye-manager\"\nhost = \"lucky3\"\n\n\
             [service.a]\nkind = \"hawkeye-agent\"\nhost = \"lucky4\"\nmodules = 2\nmanager = \"m\"\n\n\
             [service.t]\nkind = \"hawkeye-advertiser-fleet\"\nhost = \"lucky5\"\nmachines = 2\n\
             manager = \"m\"\n",
        ),
        ("rgma-registry", "[service.t]\nkind = \"rgma-registry\"\nhost = \"lucky1\"\n"),
        (
            "rgma-producer-servlet",
            "[service.r]\nkind = \"rgma-registry\"\nhost = \"lucky1\"\n\n\
             [service.t]\nkind = \"rgma-producer-servlet\"\nhost = \"lucky3\"\nproducers = 2\n\
             registry = \"r\"\n",
        ),
        (
            "rgma-consumer-servlet",
            "[service.r]\nkind = \"rgma-registry\"\nhost = \"lucky1\"\n\n\
             [service.p]\nkind = \"rgma-producer-servlet\"\nhost = \"lucky3\"\nproducers = 2\n\
             registry = \"r\"\n\n\
             [service.t]\nkind = \"rgma-consumer-servlet\"\nhost = \"lucky5\"\nregistry = \"r\"\n",
        ),
        (
            "rgma-composite-pool",
            "[service.r]\nkind = \"rgma-registry\"\nhost = \"lucky1\"\n\n\
             [service.t]\nkind = \"rgma-composite-pool\"\nhost = \"lucky0\"\n\
             site_hosts = [\"lucky3\"]\nn_sites = 1\nregistry = \"r\"\n",
        ),
    ];

    /// Every query at every kind: `validate` accepts exactly the pairs
    /// `Query::targets` lists, and every accepted pair runs to answered
    /// queries — in a debug build, with the services' message-type
    /// `debug_assert`s live.
    #[test]
    fn validate_accepts_exactly_the_kinds_that_answer_each_query() {
        let mut cfg = RunConfig::quick(7);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.window = SimDuration::from_secs(10);
        let kinds: BTreeSet<&str> = KINDS.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds.len(), 11, "one deployment per ServiceKind");
        for (kind, services) in KINDS {
            assert!(services.contains(&format!("[service.t]\nkind = \"{kind}\"\n")));
            for query in Query::ALL {
                let q = query.token();
                let text = format!(
                    "name = \"pair\"\nsystem = \"mds\"\nx = [2]\nwatch = \"lucky0\"\n\n{services}\n\
                     [workload]\nusers = 2\ntarget = \"t\"\nquery = \"{q}\"\n"
                );
                match parse(&text) {
                    Ok(spec) => {
                        assert!(query.targets().contains(&kind), "{q} accepted at a {kind}");
                        let m = run_point(&spec, 2, &cfg);
                        assert!(m.completions > 0, "{q} at a {kind}: {m:?}");
                    }
                    Err(e) => {
                        assert!(!query.targets().contains(&kind), "{q} at a {kind}: {e}");
                        let want =
                            format!("[workload]: bad value for \"target\": \"t\" has kind {kind}");
                        assert!(e.to_string().starts_with(&want), "{e}");
                    }
                }
            }
        }
    }

    /// Tracing and metrics observe the run without perturbing it: the
    /// embedded measurement of an observed run is bit-identical to the
    /// plain run's, and the harvest is non-empty.
    #[test]
    fn observed_run_matches_plain_run() {
        let cfg = quick(5);
        let spec = (catalogue::find("set1/MDS GRIS (cache)").unwrap().spec)();
        let base = run_point(&spec, 2, &cfg);
        assert!(base.completions > 0, "point too short to be meaningful");
        let mut ocfg = cfg;
        ocfg.obs = ObsMode::FULL;
        let mut h = compile(&spec, 2, &ocfg);
        assert_eq!(h.run_and_measure(2.0), base);
        let harvest = h.harvest().expect("obs is on");
        assert!(!harvest.report.events.is_empty());
        assert!(!harvest.report.metrics.is_empty());
        assert!(harvest.services.iter().any(|s| s.starts_with("gris")));
        assert!(harvest.nodes.iter().any(|n| n == "lucky7"));
    }

    /// A short Set-5 configuration: canonical fault schedule on a
    /// compressed clock.
    fn set5_cfg(seed: u64) -> RunConfig {
        let mut cfg = RunConfig::quick(seed);
        cfg.warmup = SimDuration::from_secs(20);
        cfg.window = SimDuration::from_secs(100);
        cfg.faults = DEFAULT_FAULTS;
        cfg
    }

    /// Pinned claim (MDS): partitioning GRIS hosts leaves the GIIS
    /// answering from cache — availability holds up while staleness
    /// climbs well past the cache TTL, and recovery takes measurable
    /// time after the heal.
    #[test]
    fn set5_partition_leaves_giis_stale_but_available() {
        let cfg = set5_cfg(11);
        let base = builtin("set5/MDS GIIS (GRIS partition)", 0, &cfg);
        let hit = builtin("set5/MDS GIIS (GRIS partition)", 3, &cfg);
        assert!(base.completions > 0 && hit.completions > 0);
        assert!((base.availability - 1.0).abs() < 1e-9, "{base:?}");
        assert!(
            hit.availability > 0.5,
            "cached answers should keep most queries alive: {hit:?}"
        );
        // staleness_s is a whole-window mean, so a 35 s partition moves
        // it by a few seconds, not by its full depth.
        assert!(
            hit.staleness_s > base.staleness_s + 4.0,
            "partition must show up as data age: {} vs {}",
            hit.staleness_s,
            base.staleness_s
        );
        assert_eq!(base.recovery_s, 0.0);
        assert!(hit.recovery_s > 0.0, "{hit:?}");
    }

    /// Pinned claim (R-GMA): killing every producer servlet makes
    /// consumer queries fail outright (availability collapses) until the
    /// registry's re-registration machinery brings producers back.
    #[test]
    fn set5_rgma_full_churn_fails_consumers_until_reregistration() {
        let cfg = set5_cfg(12);
        let base = builtin("set5/R-GMA (producer churn)", 0, &cfg);
        let hit = builtin("set5/R-GMA (producer churn)", 5, &cfg);
        assert!((base.availability - 1.0).abs() < 1e-9, "{base:?}");
        assert!(
            hit.availability < 0.9,
            "a full producer outage must fail consumer queries: {hit:?}"
        );
        // Recovery is observed (producers republished after the heal).
        assert!(hit.recovery_s > 0.0, "{hit:?}");
        assert!(hit.throughput < base.throughput);
    }

    /// Pinned claim (Hawkeye): killed agents don't fail queries — the
    /// Manager matches on resident ClassAds — but freshness degrades
    /// with the number of killed agents.
    #[test]
    fn set5_hawkeye_churn_keeps_availability_but_ages_ads() {
        let cfg = set5_cfg(13);
        let base = builtin("set5/Hawkeye (agent churn)", 0, &cfg);
        let one = builtin("set5/Hawkeye (agent churn)", 1, &cfg);
        let four = builtin("set5/Hawkeye (agent churn)", 4, &cfg);
        assert!((base.availability - 1.0).abs() < 1e-9, "{base:?}");
        assert!(
            four.availability > 0.95,
            "resident ads keep queries answerable: {four:?}"
        );
        assert!(
            base.staleness_s < one.staleness_s && one.staleness_s < four.staleness_s,
            "ad age must grow with killed agents: {} < {} < {}",
            base.staleness_s,
            one.staleness_s,
            four.staleness_s
        );
    }

    /// Identical seed and plan ⇒ identical measurements; and a Set-5
    /// point with `FaultSpec::NONE` equals a run of the same deployment
    /// with no fault machinery at all (x = 0 under the canonical spec
    /// builds an empty plan too).
    #[test]
    fn set5_is_deterministic_and_none_matches_x0() {
        let cfg = set5_cfg(14);
        let a = builtin("set5/R-GMA (producer churn)", 2, &cfg);
        let b = builtin("set5/R-GMA (producer churn)", 2, &cfg);
        assert_eq!(a, b);
        let mut none = cfg;
        none.faults = FaultSpec::NONE;
        let x0 = builtin("set5/R-GMA (producer churn)", 0, &cfg);
        let unfaulted = builtin("set5/R-GMA (producer churn)", 0, &none);
        assert_eq!(x0, unfaulted);
    }

    /// The federation sweep deploys a 2-level index: top GIIS + branch
    /// GIISes + sharded GRIS fleets, and queries flow end to end.
    #[test]
    fn set6_federation_compiles_and_answers() {
        let m = builtin("set6/MDS GIIS (3 branches)", 6, &quick(11));
        assert!(m.completions > 0, "{m:?}");
    }

    /// Pinned claim (federation): the top GIIS merges every entry its
    /// branches hold and searches them all, so it spends what the flat
    /// GIIS spends per answer (within 2.7 % at x = 100, every seed below).
    /// A federation answers more queries, so its top host's CPU is
    /// higher than the flat GIIS's, not lower.
    #[test]
    fn set6_top_giis_spends_the_flat_cpu_per_answer() {
        for seed in [55, 1977, 20030622] {
            let cfg = RunConfig::quick(seed);
            let flat = builtin("set6/MDS GIIS (flat)", 100, &cfg);
            let per_answer = |m: &Measurement| m.cpu_load / m.throughput;
            for fed in ["set6/MDS GIIS (3 branches)", "set6/MDS GIIS (6 branches)"] {
                let fed = builtin(fed, 100, &cfg);
                let ratio = per_answer(&fed) / per_answer(&flat);
                assert!(
                    (ratio - 1.0).abs() < 0.05,
                    "seed {seed}: CPU per answer {ratio} of the flat GIIS's"
                );
                assert!(
                    fed.cpu_load > flat.cpu_load,
                    "seed {seed}: flat {} vs federated {}",
                    flat.cpu_load,
                    fed.cpu_load
                );
            }
        }
    }
}
