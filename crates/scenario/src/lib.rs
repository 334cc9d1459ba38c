//! gridmon-scenario: experiments as data.
//!
//! A [`ScenarioSpec`] describes one sweepable experiment — which services
//! go on which testbed hosts, the workload that drives them, an optional
//! WAN link override, resilience probe and fault policy — without any
//! reference to the simulation crates.  Every built-in experiment set and
//! extension study is a `ScenarioSpec` value (see
//! `gridmon_core::scenario::catalogue`),
//! and user-authored specs are written in a small TOML-like text format
//! parsed by [`parse`] and printed canonically by [`ScenarioSpec::print`].
//!
//! The crate is dependency-free on purpose: the runner folds
//! [`ScenarioSpec::fingerprint`] into its cache digests, so the identity
//! of a scenario must not hinge on anything but the spec's own canonical
//! text.
//!
//! # Text format
//!
//! ```text
//! name = "my-sweep"            # [A-Za-z0-9_-]+
//! system = "mds"               # mds | rgma | hawkeye
//! x = [1, 10, 50]              # the sweep's x-axis values
//! watch = "lucky0"             # host whose load1/CPU the figures report
//!
//! [wan]                        # optional: override the UC<->ANL pipe
//! mbps = 10                    # capacity each way, Mbit/s (> 0)
//! latency_ms = 25              # one-way latency
//!
//! [service.giis]               # services deploy in file order
//! kind = "giis-pool"
//! host = "lucky0"
//! gris_hosts = ["lucky3", "lucky4"]
//! n_gris = "x"                 # counts are integers or "x"
//! cachettl = "exp4"            # pinned | zero | exp4 | <seconds>
//!
//! [workload]
//! users = 10
//! placement = "uc"             # "uc" | ["host", ...]; or per_service = [...]
//! target = "giis"              # a service of a kind the query takes (below)
//! query = "mds-search-all-giis"
//! cpu = "mds"                  # mds | condor | rgma
//! arrivals = "poisson"         # optional: open loop (default "closed");
//! rate = "x"                   # total arrivals/s over the `users` sources
//!
//! [probe]                      # optional resilience probe
//! kind = "giis-freshness"
//! giis = "giis"
//!
//! [faults]                     # optional fault policy
//! service = "gris"             # a deployed-service name() token
//! hosts = ["lucky3", "lucky4"]
//! prime_ms = 50
//! scenario = "partition"       # partition | churn
//! ```
//!
//! A query goes to the component that answers it in the paper's Table 1
//! ([`Query::targets`]); `target` and every `per_service` entry name a
//! service of one of its kinds:
//!
//! | query | target kinds |
//! |---|---|
//! | `mds-*` | `gris`, `giis-pool`, `giis` |
//! | `hawkeye-agent-status`, `hawkeye-agent-full` | `hawkeye-agent` |
//! | `hawkeye-status-random`, `hawkeye-constraint-miss` | `hawkeye-manager` |
//! | `rgma-consumer-query` | `rgma-consumer-servlet` |
//! | `rgma-producer-query`, `rgma-producer-query-all` | `rgma-producer-servlet`, `rgma-composite-pool` |
//! | `rgma-registry-lookup-random` | `rgma-registry` |
//!
//! `hawkeye-status-random` also needs a `hawkeye-agent` to ask about,
//! and a `giis-freshness` probe a GIIS whose `cachettl` is not `pinned`.

#![forbid(unsafe_code)]

use std::fmt;

// ======================================================================
// Data model
// ======================================================================

/// Which monitoring system a scenario measures (used for parameter
/// fingerprinting and catalogue grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemId {
    Mds,
    Rgma,
    Hawkeye,
}

impl SystemId {
    pub const ALL: [SystemId; 3] = [SystemId::Mds, SystemId::Rgma, SystemId::Hawkeye];

    pub fn as_str(self) -> &'static str {
        match self {
            SystemId::Mds => "mds",
            SystemId::Rgma => "rgma",
            SystemId::Hawkeye => "hawkeye",
        }
    }

    pub fn from_token(s: &str) -> Option<SystemId> {
        SystemId::ALL.into_iter().find(|b| b.as_str() == s)
    }

    /// The system's name as the paper's Table 1 prints it.
    pub fn name(self) -> &'static str {
        match self {
            SystemId::Mds => "MDS",
            SystemId::Rgma => "R-GMA",
            SystemId::Hawkeye => "Hawkeye",
        }
    }
}

/// A count that is either a literal or the sweep variable `x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    Lit(u32),
    X,
}

impl Count {
    pub fn eval(self, x: u32) -> u32 {
        match self {
            Count::Lit(n) => n,
            Count::X => x,
        }
    }
}

/// A cache TTL: pinned forever, zero (never cached), the Experiment-4
/// default, or explicit seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ttl {
    /// Data never expires (deploys with `cachettl = None`).
    Pinned,
    /// Data is never cached.
    Zero,
    /// The run parameters' Experiment-Set-4 cache TTL.
    Exp4,
    Secs(u64),
}

/// One deployable service.  Upstream references (`manager`, `registry`,
/// `parent`) name other services in the same spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceKind {
    /// An MDS GRIS with `providers` information providers.
    Gris {
        providers: Count,
        cache: bool,
        gsi: bool,
    },
    /// An MDS GIIS with `n_gris` child GRISes spread round-robin over
    /// `gris_hosts` (10 providers each) — the classic aggregate server.
    GiisPool {
        gris_hosts: Vec<String>,
        n_gris: Count,
        cachettl: Ttl,
    },
    /// A standalone MDS GIIS; with `parent` set it registers as branch
    /// `branch` of a higher-level index (hierarchical federation).
    Giis {
        cachettl: Ttl,
        parent: Option<String>,
        branch: u32,
    },
    /// A shard of `x` GRISes registered under `parent`: shard `i` of
    /// `of` (`share = "i/of"`) deploys its contiguous slice of the
    /// global 0..x index range, `providers` providers each.
    GrisFleet {
        parent: String,
        providers: u32,
        share: (u32, u32),
    },
    /// A Hawkeye Manager.
    Manager,
    /// A Hawkeye Agent with `modules` modules, advertising to `manager`.
    Agent { modules: Count, manager: String },
    /// The `hawkeye_advertise` fleet: `machines` simulated pool members.
    AdvertiserFleet { machines: Count, manager: String },
    /// The R-GMA Registry.
    Registry,
    /// An R-GMA ProducerServlet with `producers` producers.
    ProducerServlet { producers: Count, registry: String },
    /// An R-GMA ConsumerServlet pointed at `registry`.
    ConsumerServlet { registry: String },
    /// The R-GMA composite Consumer/Producer with its sources: `n_sites`
    /// site ProducerServlets (10 producers each) spread round-robin over
    /// `site_hosts` and registered with `registry`, and on `host` the
    /// composite that republishes their `cpuload` tuples.
    CompositePool {
        site_hosts: Vec<String>,
        n_sites: Count,
        registry: String,
    },
}

impl ServiceKind {
    /// The text-format token (`kind = "..."`).
    pub fn token(&self) -> &'static str {
        match self {
            ServiceKind::Gris { .. } => "gris",
            ServiceKind::GiisPool { .. } => "giis-pool",
            ServiceKind::Giis { .. } => "giis",
            ServiceKind::GrisFleet { .. } => "gris-fleet",
            ServiceKind::Manager => "hawkeye-manager",
            ServiceKind::Agent { .. } => "hawkeye-agent",
            ServiceKind::AdvertiserFleet { .. } => "hawkeye-advertiser-fleet",
            ServiceKind::Registry => "rgma-registry",
            ServiceKind::ProducerServlet { .. } => "rgma-producer-servlet",
            ServiceKind::ConsumerServlet { .. } => "rgma-consumer-servlet",
            ServiceKind::CompositePool { .. } => "rgma-composite-pool",
        }
    }

    /// The upstream service this kind must be wired to, if any: the
    /// field that names it, the name, and the kinds that can serve it.
    pub fn upstream_ref(&self) -> Option<(&'static str, &str, &'static [&'static str])> {
        match self {
            ServiceKind::Giis { parent, .. } => parent.as_deref().map(|p| ("parent", p, INDEXES)),
            ServiceKind::GrisFleet { parent, .. } => Some(("parent", parent, INDEXES)),
            ServiceKind::Agent { manager, .. } | ServiceKind::AdvertiserFleet { manager, .. } => {
                Some(("manager", manager, &["hawkeye-manager"]))
            }
            ServiceKind::ProducerServlet { registry, .. }
            | ServiceKind::ConsumerServlet { registry }
            | ServiceKind::CompositePool { registry, .. } => {
                Some(("registry", registry, &["rgma-registry"]))
            }
            _ => None,
        }
    }
}

/// The kinds that deploy a GIIS: what a `parent` and the `giis-freshness`
/// probe may name.
const INDEXES: &[&str] = &["giis", "giis-pool"];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSpec {
    pub kind: ServiceKind,
    pub host: String,
}

/// Where the closed-loop users sit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Round-robin over the UC cluster (the paper's client farm).
    Uc,
    /// Round-robin over the named hosts.
    Hosts(Vec<String>),
    /// User `i` sits beside — and queries — service `names[i % len]`
    /// (e.g. one ConsumerServlet per client node).
    PerService(Vec<String>),
}

/// The query each user issues, named by system-specific token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `mds-search-all-gris0`: everything under the GRIS resource suffix.
    MdsSearchAllGris0,
    /// `mds-search-all-giis`: everything under the GIIS site suffix.
    MdsSearchAllGiis,
    /// `mds-search-cpu` / `mds-search-cpu-attrs`: the cpu device group,
    /// optionally device names only.
    MdsSearchCpu { attrs_only: bool },
    /// `hawkeye-agent-status`.
    HawkeyeAgentStatus,
    /// `hawkeye-agent-full`.
    HawkeyeAgentFull,
    /// `hawkeye-status-random`: status of a random deployed agent host.
    HawkeyeStatusRandom,
    /// `hawkeye-constraint-miss`: a constraint no machine satisfies.
    HawkeyeConstraintMiss,
    /// `rgma-consumer-query`: `SELECT * FROM cpuload`.
    RgmaConsumerQuery,
    /// `rgma-producer-query`: `SELECT * FROM cpuload` at a ProducerServlet.
    RgmaProducerQuery,
    /// `rgma-producer-query-all`.
    RgmaProducerQueryAll,
    /// `rgma-registry-lookup-random`: lookup of a random producer table.
    RgmaRegistryLookupRandom,
}

impl Query {
    pub const ALL: [Query; 12] = [
        Query::MdsSearchAllGris0,
        Query::MdsSearchAllGiis,
        Query::MdsSearchCpu { attrs_only: false },
        Query::MdsSearchCpu { attrs_only: true },
        Query::HawkeyeAgentStatus,
        Query::HawkeyeAgentFull,
        Query::HawkeyeStatusRandom,
        Query::HawkeyeConstraintMiss,
        Query::RgmaConsumerQuery,
        Query::RgmaProducerQuery,
        Query::RgmaProducerQueryAll,
        Query::RgmaRegistryLookupRandom,
    ];

    pub fn token(self) -> &'static str {
        match self {
            Query::MdsSearchAllGris0 => "mds-search-all-gris0",
            Query::MdsSearchAllGiis => "mds-search-all-giis",
            Query::MdsSearchCpu { attrs_only: false } => "mds-search-cpu",
            Query::MdsSearchCpu { attrs_only: true } => "mds-search-cpu-attrs",
            Query::HawkeyeAgentStatus => "hawkeye-agent-status",
            Query::HawkeyeAgentFull => "hawkeye-agent-full",
            Query::HawkeyeStatusRandom => "hawkeye-status-random",
            Query::HawkeyeConstraintMiss => "hawkeye-constraint-miss",
            Query::RgmaConsumerQuery => "rgma-consumer-query",
            Query::RgmaProducerQuery => "rgma-producer-query",
            Query::RgmaProducerQueryAll => "rgma-producer-query-all",
            Query::RgmaRegistryLookupRandom => "rgma-registry-lookup-random",
        }
    }

    pub fn from_token(s: &str) -> Option<Query> {
        Query::ALL.into_iter().find(|q| q.token() == s)
    }

    /// The service kinds ([`ServiceKind::token`]) that answer this query:
    /// the component the paper's Table 1 sends it to.
    pub fn targets(self) -> &'static [&'static str] {
        match self {
            Query::MdsSearchAllGris0 | Query::MdsSearchAllGiis | Query::MdsSearchCpu { .. } => {
                &["gris", "giis-pool", "giis"]
            }
            Query::HawkeyeAgentStatus | Query::HawkeyeAgentFull => &["hawkeye-agent"],
            Query::HawkeyeStatusRandom | Query::HawkeyeConstraintMiss => &["hawkeye-manager"],
            Query::RgmaConsumerQuery => &["rgma-consumer-servlet"],
            Query::RgmaProducerQuery | Query::RgmaProducerQueryAll => {
                &["rgma-producer-servlet", "rgma-composite-pool"]
            }
            Query::RgmaRegistryLookupRandom => &["rgma-registry"],
        }
    }
}

/// The client-side CPU cost model (per-system client stacks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientCpu {
    Mds,
    Condor,
    Rgma,
}

impl ClientCpu {
    pub fn token(self) -> &'static str {
        match self {
            ClientCpu::Mds => "mds",
            ClientCpu::Condor => "condor",
            ClientCpu::Rgma => "rgma",
        }
    }

    pub fn from_token(s: &str) -> Option<ClientCpu> {
        [ClientCpu::Mds, ClientCpu::Condor, ClientCpu::Rgma]
            .into_iter()
            .find(|c| c.token() == s)
    }

    /// The default cost model for a system's native client.
    pub fn default_for(sys: SystemId) -> ClientCpu {
        match sys {
            SystemId::Mds => ClientCpu::Mds,
            SystemId::Rgma => ClientCpu::Rgma,
            SystemId::Hawkeye => ClientCpu::Condor,
        }
    }
}

/// How queries arrive at the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// Closed loop (the paper's user scripts): each of the `users` sends
    /// a query, waits for the response, thinks, and repeats.
    Closed,
    /// Open loop: Poisson arrivals at `rate` per second in total, split
    /// evenly over `users` sources, whether or not earlier queries have
    /// finished.  Sources never retry (a refusal is a loss), burn no
    /// client CPU and have no timeout, so `cpu` and `timeout_s` do not
    /// apply.
    Poisson { rate: Count },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Closed-loop users, or open-loop sources.
    pub users: Count,
    pub placement: Placement,
    /// The queried service (by spec name).  `None` only with
    /// [`Placement::PerService`], where each user queries its own service.
    pub target: Option<String>,
    pub query: Query,
    pub cpu: ClientCpu,
    /// Client-side query timeout; abandoned queries count against
    /// availability.
    pub timeout_s: Option<u64>,
    pub arrivals: Arrivals,
}

/// The shared UC↔ANL WAN pipe, where a scenario overrides the run
/// parameters' link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WanLink {
    /// Capacity in each direction, Mbit/s (positive).
    pub mbps: u32,
    /// One-way latency, milliseconds.
    pub latency_ms: u32,
}

/// The passive resilience probe (staleness/recovery gauges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeSpec {
    /// Watch a GIIS's max data age; fresh horizon = its cache TTL + 5 s.
    GiisFreshness { giis: String },
    /// Watch every deployed ProducerServlet's publication age.
    RgmaProducers,
    /// Watch a Manager's ad ages.
    HawkeyeAds { manager: String },
}

impl ProbeSpec {
    pub fn token(&self) -> &'static str {
        match self {
            ProbeSpec::GiisFreshness { .. } => "giis-freshness",
            ProbeSpec::RgmaProducers => "rgma-producers",
            ProbeSpec::HawkeyeAds { .. } => "hawkeye-ads",
        }
    }
}

/// What the fault scenario `auto` resolves to for this spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    Partition,
    Churn,
}

impl FaultKind {
    pub fn token(self) -> &'static str {
        match self {
            FaultKind::Partition => "partition",
            FaultKind::Churn => "churn",
        }
    }
}

/// The spec's fault policy: which deployed services (by `name()` token)
/// and which hosts' access links the schedule may hit, how restarted
/// services re-prime their kick timers, and the default scenario.  The
/// run's `FaultSpec` (onset/heal fractions, scenario override) still
/// comes from the `RunConfig`; the x value sets how many targets fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPolicy {
    /// A deployed-service `name()` token, e.g. `gris` or `hawkeye-agent`.
    pub service: String,
    pub hosts: Vec<String>,
    pub prime_ms: u64,
    pub scenario: FaultKind,
}

/// One declarative, sweepable experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    pub name: String,
    pub system: SystemId,
    pub x_values: Vec<u32>,
    /// The WAN link, if not the run parameters' default.
    pub wan: Option<WanLink>,
    /// Services in deployment order (order is semantic: it fixes the
    /// RNG streams and the t=0 start order, hence the exact trajectory).
    pub services: Vec<(String, ServiceSpec)>,
    /// The host whose load1/CPU the figures report (Ganglia monitor).
    pub watch: String,
    pub workload: WorkloadSpec,
    pub probe: Option<ProbeSpec>,
    pub faults: Option<FaultPolicy>,
}

// ======================================================================
// The testbed's host namespace
// ======================================================================

/// The fixed Lucky/UC testbed host names (`lucky0`..`lucky7` minus the
/// dead `lucky2`, plus `uc00`..`uc19`; held to the testbed's node names
/// by a `core::scenario` test).  [`ScenarioSpec::validate`] — which
/// [`parse`] ends with — holds every host reference to this list, so a
/// dangling one fails with a message instead of a deep deploy panic.
pub fn known_host(name: &str) -> bool {
    match name {
        "lucky0" | "lucky1" | "lucky3" | "lucky4" | "lucky5" | "lucky6" | "lucky7" => true,
        _ => name
            .strip_prefix("uc")
            .filter(|d| d.len() == 2 && d.bytes().all(|b| b.is_ascii_digit()))
            .is_some_and(|d| d.parse::<u32>().is_ok_and(|n| n < 20)),
    }
}

const HOST_HINT: &str = "hosts: lucky0, lucky1, lucky3..lucky7, uc00..uc19";

/// Deployed-service `name()` tokens a fault policy may target (held to
/// the services' own `name()`s by a `core::scenario` test).
pub const FAULTABLE: [&str; 9] = [
    "gris",
    "giis",
    "hawkeye-manager",
    "hawkeye-agent",
    "hawkeye-advertiser-fleet",
    "rgma-registry",
    "rgma-producer-servlet",
    "rgma-consumer-servlet",
    "rgma-composite-producer",
];

// ======================================================================
// Errors
// ======================================================================

/// A typed scenario error with a stable, golden-tested message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    Syntax {
        line: usize,
        msg: String,
    },
    /// `system = "..."` names no known backend.
    UnknownBackend(String),
    /// A `host` (or host list entry) is not on the testbed.
    UnknownHost {
        at: String,
        host: String,
    },
    /// A service reference names no `[service.*]` section.
    DanglingRef {
        at: String,
        field: &'static str,
        target: String,
    },
    /// Two `[service.NAME]` sections share a name.
    DuplicateService(String),
    MissingField {
        at: String,
        field: &'static str,
    },
    BadValue {
        at: String,
        field: String,
        msg: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            ScenarioError::UnknownBackend(b) => {
                write!(
                    f,
                    "unknown backend {b:?}: known backends are mds, rgma, hawkeye"
                )
            }
            ScenarioError::UnknownHost { at, host } => {
                write!(f, "{at}: unknown host {host:?} ({HOST_HINT})")
            }
            ScenarioError::DanglingRef { at, field, target } => {
                write!(f, "{at}: {field} = {target:?} names no service")
            }
            ScenarioError::DuplicateService(name) => {
                write!(f, "duplicate service name {name:?}")
            }
            ScenarioError::MissingField { at, field } => {
                write!(f, "{at}: missing required field {field:?}")
            }
            ScenarioError::BadValue { at, field, msg } => {
                write!(f, "{at}: bad value for {field:?}: {msg}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

fn bad(at: &str, field: &str, msg: impl Into<String>) -> ScenarioError {
    ScenarioError::BadValue {
        at: at.to_string(),
        field: field.to_string(),
        msg: msg.into(),
    }
}

// ======================================================================
// Parser
// ======================================================================

#[derive(Debug, Clone, PartialEq)]
enum Val {
    Str(String),
    Int(u64),
    Bool(bool),
    StrList(Vec<String>),
    IntList(Vec<u64>),
}

impl Val {
    fn type_name(&self) -> &'static str {
        match self {
            Val::Str(_) => "string",
            Val::Int(_) => "integer",
            Val::Bool(_) => "boolean",
            Val::StrList(_) => "string list",
            Val::IntList(_) => "integer list",
        }
    }
}

struct Fields {
    at: String,
    entries: Vec<(String, Val, usize)>,
    /// Which keys were consumed by the typed extraction (strictness).
    used: Vec<bool>,
}

impl Fields {
    fn new(at: String) -> Fields {
        Fields {
            at,
            entries: Vec::new(),
            used: Vec::new(),
        }
    }

    fn push(&mut self, key: String, val: Val, line: usize) {
        self.entries.push((key, val, line));
        self.used.push(false);
    }

    fn get(&mut self, key: &str) -> Option<&Val> {
        for (i, (k, _, _)) in self.entries.iter().enumerate() {
            if k == key {
                self.used[i] = true;
                return Some(&self.entries[i].1);
            }
        }
        None
    }

    fn bad(&self, field: &str, msg: impl Into<String>) -> ScenarioError {
        bad(&self.at, field, msg)
    }

    fn require(&mut self, field: &'static str) -> Result<&Val, ScenarioError> {
        let at = self.at.clone();
        // Split borrow dance: look up index first.
        let idx = self.entries.iter().position(|(k, _, _)| k == field);
        match idx {
            Some(i) => {
                self.used[i] = true;
                Ok(&self.entries[i].1)
            }
            None => Err(ScenarioError::MissingField { at, field }),
        }
    }

    fn str_of(&mut self, field: &'static str) -> Result<String, ScenarioError> {
        match self.require(field)? {
            Val::Str(s) => Ok(s.clone()),
            v => {
                let t = v.type_name();
                Err(self.bad(field, format!("expected a string, got {t}")))
            }
        }
    }

    fn opt_str(&mut self, field: &str) -> Result<Option<String>, ScenarioError> {
        match self.get(field) {
            None => Ok(None),
            Some(Val::Str(s)) => Ok(Some(s.clone())),
            Some(v) => {
                let t = v.type_name();
                Err(self.bad(field, format!("expected a string, got {t}")))
            }
        }
    }

    fn opt_int(&mut self, field: &str) -> Result<Option<u64>, ScenarioError> {
        match self.get(field) {
            None => Ok(None),
            Some(Val::Int(n)) => Ok(Some(*n)),
            Some(v) => {
                let t = v.type_name();
                Err(self.bad(field, format!("expected an integer, got {t}")))
            }
        }
    }

    /// A required integer that fits in `u32`.
    fn u32_of(&mut self, field: &'static str) -> Result<u32, ScenarioError> {
        let at = self.at.clone();
        let n = self
            .opt_int(field)?
            .ok_or(ScenarioError::MissingField { at, field })?;
        u32::try_from(n).map_err(|_| self.bad(field, format!("{n} does not fit in u32")))
    }

    fn opt_bool(&mut self, field: &str) -> Result<Option<bool>, ScenarioError> {
        match self.get(field) {
            None => Ok(None),
            Some(Val::Bool(b)) => Ok(Some(*b)),
            Some(v) => {
                let t = v.type_name();
                Err(self.bad(field, format!("expected true/false, got {t}")))
            }
        }
    }

    fn str_list(&mut self, field: &'static str) -> Result<Vec<String>, ScenarioError> {
        match self.require(field)? {
            Val::StrList(v) => Ok(v.clone()),
            // `[]` carries no element type: it reads as an integer list.
            Val::IntList(v) if v.is_empty() => Err(self.bad(field, "list must not be empty")),
            v => {
                let t = v.type_name();
                Err(self.bad(field, format!("expected a string list, got {t}")))
            }
        }
    }

    /// A count: integer literal or the string `"x"`.
    fn count(&mut self, field: &'static str) -> Result<Count, ScenarioError> {
        match self.require(field)? {
            Val::Int(n) => {
                let n = *n;
                u32::try_from(n)
                    .map(Count::Lit)
                    .map_err(|_| self.bad(field, format!("{n} does not fit in u32")))
            }
            Val::Str(s) if s == "x" => Ok(Count::X),
            v => {
                let t = v.type_name();
                Err(self.bad(field, format!("expected an integer or \"x\", got {t}")))
            }
        }
    }

    /// A TTL: `"pinned"`, `"zero"`, `"exp4"`, or integer seconds.
    fn ttl(&mut self, field: &'static str) -> Result<Ttl, ScenarioError> {
        match self.require(field)? {
            Val::Int(n) => Ok(Ttl::Secs(*n)),
            Val::Str(s) => match s.as_str() {
                "pinned" => Ok(Ttl::Pinned),
                "zero" => Ok(Ttl::Zero),
                "exp4" => Ok(Ttl::Exp4),
                other => {
                    let o = other.to_string();
                    Err(self.bad(
                        field,
                        format!("expected pinned/zero/exp4/seconds, got {o:?}"),
                    ))
                }
            },
            v => {
                let t = v.type_name();
                Err(self.bad(field, format!("expected a TTL, got {t}")))
            }
        }
    }

    /// Reject unknown keys so typos fail loudly.
    fn finish(self) -> Result<(), ScenarioError> {
        for (i, (k, _, line)) in self.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(ScenarioError::Syntax {
                    line: *line,
                    msg: format!("unknown field {k:?} in {}", self.at),
                });
            }
        }
        Ok(())
    }
}

fn parse_value(raw: &str, line: usize) -> Result<Val, ScenarioError> {
    let syntax = |msg: String| ScenarioError::Syntax { line, msg };
    let s = raw.trim();
    if let Some(body) = s.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| syntax(format!("unterminated string {s:?}")))?;
        if body.contains('"') {
            return Err(syntax(format!("embedded quote in string {s:?}")));
        }
        return Ok(Val::Str(body.to_string()));
    }
    if s == "true" {
        return Ok(Val::Bool(true));
    }
    if s == "false" {
        return Ok(Val::Bool(false));
    }
    if let Some(body) = s.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| syntax(format!("unterminated list {s:?}")))?;
        let items: Vec<&str> = body
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .collect();
        let mut strs = Vec::new();
        let mut ints = Vec::new();
        for item in &items {
            match parse_value(item, line)? {
                Val::Str(v) => strs.push(v),
                Val::Int(v) => ints.push(v),
                other => {
                    return Err(syntax(format!(
                        "lists hold strings or integers, got {}",
                        other.type_name()
                    )))
                }
            }
        }
        if !strs.is_empty() && !ints.is_empty() {
            return Err(syntax("mixed string/integer list".to_string()));
        }
        if !strs.is_empty() {
            return Ok(Val::StrList(strs));
        }
        return Ok(Val::IntList(ints));
    }
    s.parse::<u64>()
        .map(Val::Int)
        .map_err(|_| syntax(format!("unrecognised value {s:?}")))
}

/// Strip a trailing comment that is not inside a string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// Parse the text format into a validated [`ScenarioSpec`].
pub fn parse(text: &str) -> Result<ScenarioSpec, ScenarioError> {
    // ---- raw pass: split into the top-level block and named sections.
    let mut top = Fields::new("top level".to_string());
    let mut sections: Vec<Fields> = Vec::new();
    let mut service_names: Vec<String> = Vec::new();
    // Indices into `sections` per role.
    let mut service_idx: Vec<usize> = Vec::new();
    let mut wan_idx: Option<usize> = None;
    let mut workload_idx: Option<usize> = None;
    let mut probe_idx: Option<usize> = None;
    let mut faults_idx: Option<usize> = None;
    let mut current: Option<usize> = None;

    for (lineno, raw_line) in text.lines().enumerate() {
        let line = lineno + 1;
        let l = strip_comment(raw_line).trim();
        if l.is_empty() {
            continue;
        }
        let syntax = |msg: String| ScenarioError::Syntax { line, msg };
        if let Some(head) = l.strip_prefix('[') {
            let head = head
                .strip_suffix(']')
                .ok_or_else(|| syntax(format!("unterminated section header {l:?}")))?
                .trim();
            if let Some(name) = head.strip_prefix("service.") {
                if !valid_name(name) {
                    return Err(syntax(format!("bad service name {name:?}")));
                }
                service_names.push(name.to_string());
                sections.push(Fields::new(format!("service {name:?}")));
                service_idx.push(sections.len() - 1);
            } else {
                let slot = match head {
                    "wan" => &mut wan_idx,
                    "workload" => &mut workload_idx,
                    "probe" => &mut probe_idx,
                    "faults" => &mut faults_idx,
                    other => {
                        return Err(syntax(format!("unknown section [{other}]")));
                    }
                };
                if slot.is_some() {
                    return Err(syntax(format!("duplicate section [{head}]")));
                }
                sections.push(Fields::new(format!("[{head}]")));
                *slot = Some(sections.len() - 1);
            }
            current = Some(sections.len() - 1);
            continue;
        }
        let (key, val) = l
            .split_once('=')
            .ok_or_else(|| syntax(format!("expected `key = value`, got {l:?}")))?;
        let key = key.trim();
        if !valid_name(key) {
            return Err(syntax(format!("bad key {key:?}")));
        }
        let val = parse_value(val, line)?;
        match current {
            None => top.push(key.to_string(), val, line),
            Some(i) => sections[i].push(key.to_string(), val, line),
        }
    }

    // ---- typed pass: top level.
    let name = top.str_of("name")?;
    if !valid_name(&name) {
        return Err(top.bad("name", "use [A-Za-z0-9_-]+"));
    }
    let system_s = top.str_of("system")?;
    let system = SystemId::from_token(&system_s).ok_or(ScenarioError::UnknownBackend(system_s))?;
    let x_values: Vec<u32> = match top.require("x")? {
        Val::IntList(v) if !v.is_empty() => v
            .iter()
            .map(|&n| u32::try_from(n))
            .collect::<Result<_, _>>()
            .map_err(|_| top.bad("x", "values must fit in u32"))?,
        Val::IntList(_) => return Err(top.bad("x", "list must not be empty")),
        v => {
            let t = v.type_name();
            return Err(top.bad("x", format!("expected an integer list, got {t}")));
        }
    };
    let watch = top.str_of("watch")?;
    top.finish()?;

    // ---- wan.
    let wan = match wan_idx {
        None => None,
        Some(idx) => {
            let mut f = std::mem::replace(&mut sections[idx], Fields::new(String::new()));
            let link = WanLink {
                mbps: f.u32_of("mbps")?,
                latency_ms: f.u32_of("latency_ms")?,
            };
            f.finish()?;
            Some(link)
        }
    };

    // ---- services.
    let mut services: Vec<(String, ServiceSpec)> = Vec::new();
    for (si, &idx) in service_idx.iter().enumerate() {
        let sname = service_names[si].clone();
        let mut f = std::mem::replace(&mut sections[idx], Fields::new(String::new()));
        let host = f.str_of("host")?;
        let kind_s = f.str_of("kind")?;
        let kind = match kind_s.as_str() {
            "gris" => ServiceKind::Gris {
                providers: f.count("providers")?,
                cache: f.opt_bool("cache")?.unwrap_or(true),
                gsi: f.opt_bool("gsi")?.unwrap_or(false),
            },
            "giis-pool" => ServiceKind::GiisPool {
                gris_hosts: f.str_list("gris_hosts")?,
                n_gris: f.count("n_gris")?,
                cachettl: f.ttl("cachettl")?,
            },
            "giis" => {
                let parent = f.opt_str("parent")?;
                let branch = f.opt_int("branch")?;
                if parent.is_none() && branch.is_some() {
                    return Err(f.bad("branch", "only meaningful with a parent"));
                }
                let branch = match branch {
                    Some(b) => u32::try_from(b).map_err(|_| f.bad("branch", "must fit in u32"))?,
                    None => 0,
                };
                ServiceKind::Giis {
                    cachettl: f.ttl("cachettl")?,
                    parent,
                    branch,
                }
            }
            "gris-fleet" => {
                let share_s = f.str_of("share")?;
                let share = share_s
                    .split_once('/')
                    .and_then(|(i, of)| Some((i.parse().ok()?, of.parse().ok()?)))
                    .filter(|&(i, of): &(u32, u32)| of > 0 && i < of)
                    .ok_or_else(|| f.bad("share", "expected \"i/of\" with i < of"))?;
                let providers = f.opt_int("providers")?.unwrap_or(10);
                ServiceKind::GrisFleet {
                    parent: f.str_of("parent")?,
                    providers: u32::try_from(providers)
                        .map_err(|_| f.bad("providers", "must fit in u32"))?,
                    share,
                }
            }
            "hawkeye-manager" => ServiceKind::Manager,
            "hawkeye-agent" => ServiceKind::Agent {
                modules: f.count("modules")?,
                manager: f.str_of("manager")?,
            },
            "hawkeye-advertiser-fleet" => ServiceKind::AdvertiserFleet {
                machines: f.count("machines")?,
                manager: f.str_of("manager")?,
            },
            "rgma-registry" => ServiceKind::Registry,
            "rgma-producer-servlet" => ServiceKind::ProducerServlet {
                producers: f.count("producers")?,
                registry: f.str_of("registry")?,
            },
            "rgma-consumer-servlet" => ServiceKind::ConsumerServlet {
                registry: f.str_of("registry")?,
            },
            "rgma-composite-pool" => ServiceKind::CompositePool {
                site_hosts: f.str_list("site_hosts")?,
                n_sites: f.count("n_sites")?,
                registry: f.str_of("registry")?,
            },
            other => {
                let o = other.to_string();
                return Err(f.bad(
                    "kind",
                    format!("unknown service kind {o:?} (the monitor comes from `watch`)"),
                ));
            }
        };
        f.finish()?;
        services.push((sname, ServiceSpec { kind, host }));
    }

    // ---- workload.
    let widx = workload_idx.ok_or(ScenarioError::MissingField {
        at: "top level".to_string(),
        field: "[workload]",
    })?;
    let mut f = std::mem::replace(&mut sections[widx], Fields::new(String::new()));
    let users = f.count("users")?;
    let per_service = match f.get("per_service").cloned() {
        None => None,
        Some(Val::StrList(v)) => Some(v),
        // `[]` carries no element type; `validate` rejects it as empty.
        Some(Val::IntList(v)) if v.is_empty() => Some(Vec::new()),
        Some(v) => {
            let t = v.type_name();
            return Err(f.bad("per_service", format!("expected a string list, got {t}")));
        }
    };
    let placement = match per_service {
        Some(names) => {
            if f.get("placement").is_some() {
                return Err(f.bad("placement", "mutually exclusive with per_service"));
            }
            Placement::PerService(names)
        }
        None => match f.get("placement").cloned() {
            None => Placement::Uc,
            Some(Val::Str(s)) if s == "uc" => Placement::Uc,
            Some(Val::Str(s)) => {
                return Err(f.bad(
                    "placement",
                    format!("expected \"uc\" or a host list, got {s:?}"),
                ))
            }
            Some(Val::StrList(hosts)) => Placement::Hosts(hosts),
            Some(v) => {
                let t = v.type_name();
                return Err(f.bad(
                    "placement",
                    format!("expected \"uc\" or a host list, got {t}"),
                ));
            }
        },
    };
    let target = f.opt_str("target")?;
    let query_s = f.str_of("query")?;
    let query = Query::from_token(&query_s)
        .ok_or_else(|| f.bad("query", format!("unknown query token {query_s:?}")))?;
    let cpu = match f.opt_str("cpu")? {
        None => ClientCpu::default_for(system),
        Some(s) => ClientCpu::from_token(&s)
            .ok_or_else(|| f.bad("cpu", format!("expected mds/condor/rgma, got {s:?}")))?,
    };
    let timeout_s = f.opt_int("timeout_s")?;
    let arrivals = match f.opt_str("arrivals")?.as_deref() {
        Some("poisson") => Arrivals::Poisson {
            rate: f.count("rate")?,
        },
        None | Some("closed") => {
            if f.get("rate").is_some() {
                return Err(f.bad("rate", "only meaningful with arrivals = \"poisson\""));
            }
            Arrivals::Closed
        }
        Some(other) => {
            return Err(f.bad(
                "arrivals",
                format!("expected closed/poisson, got {other:?}"),
            ))
        }
    };
    f.finish()?;
    let workload = WorkloadSpec {
        users,
        placement,
        target,
        query,
        cpu,
        timeout_s,
        arrivals,
    };

    // ---- probe.
    let probe = match probe_idx {
        None => None,
        Some(idx) => {
            let mut f = std::mem::replace(&mut sections[idx], Fields::new(String::new()));
            let kind = f.str_of("kind")?;
            let p = match kind.as_str() {
                "giis-freshness" => ProbeSpec::GiisFreshness {
                    giis: f.str_of("giis")?,
                },
                "rgma-producers" => ProbeSpec::RgmaProducers,
                "hawkeye-ads" => ProbeSpec::HawkeyeAds {
                    manager: f.str_of("manager")?,
                },
                other => {
                    let o = other.to_string();
                    return Err(f.bad("kind", format!("unknown probe kind {o:?}")));
                }
            };
            f.finish()?;
            Some(p)
        }
    };

    // ---- faults.
    let faults = match faults_idx {
        None => None,
        Some(idx) => {
            let mut f = std::mem::replace(&mut sections[idx], Fields::new(String::new()));
            let service = f.str_of("service")?;
            if !FAULTABLE.contains(&service.as_str()) {
                return Err(f.bad(
                    "service",
                    format!("unknown service token {service:?} (use a deployed name() token)"),
                ));
            }
            let hosts = f.str_list("hosts")?;
            let prime_ms = f.opt_int("prime_ms")?.ok_or(ScenarioError::MissingField {
                at: f.at.clone(),
                field: "prime_ms",
            })?;
            let scenario_s = f.str_of("scenario")?;
            let scenario = match scenario_s.as_str() {
                "partition" => FaultKind::Partition,
                "churn" => FaultKind::Churn,
                other => {
                    let o = other.to_string();
                    return Err(f.bad("scenario", format!("expected partition/churn, got {o:?}")));
                }
            };
            f.finish()?;
            Some(FaultPolicy {
                service,
                hosts,
                prime_ms,
                scenario,
            })
        }
    };

    let spec = ScenarioSpec {
        name,
        system,
        x_values,
        wan,
        services,
        watch,
        workload,
        probe,
        faults,
    };
    spec.validate()?;
    Ok(spec)
}

// ======================================================================
// Validation (shared by the parser and hand-built specs)
// ======================================================================

impl ScenarioSpec {
    /// The one gate a spec passes before it runs.  Every host is on the
    /// testbed; every service reference resolves to a service of a kind
    /// that can serve it (an upstream to an *earlier* `[service.*]`
    /// section, since deploy order is file order); every list the
    /// compiler deals round-robin is non-empty.  A spec that passes
    /// compiles at every x.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        for (i, (name, svc)) in self.services.iter().enumerate() {
            let earlier = &self.services[..i];
            if earlier.iter().any(|(n, _)| n == name) {
                return Err(ScenarioError::DuplicateService(name.clone()));
            }
            let at = format!("service {name:?}");
            on_testbed(&at, std::slice::from_ref(&svc.host))?;
            if let Some((field, up, want)) = svc.kind.upstream_ref() {
                refer(earlier, &at, field, up, want)?;
            }
            let pool = match &svc.kind {
                ServiceKind::GiisPool { gris_hosts, .. } => Some(("gris_hosts", gris_hosts)),
                ServiceKind::CompositePool { site_hosts, .. } => Some(("site_hosts", site_hosts)),
                _ => None,
            };
            if let Some((field, hosts)) = pool {
                if hosts.is_empty() {
                    return Err(bad(&at, field, "list must not be empty"));
                }
                on_testbed(&at, hosts)?;
            }
        }
        if self.wan.is_some_and(|w| w.mbps == 0) {
            return Err(bad("[wan]", "mbps", "link capacity must be positive"));
        }
        let wl = &self.workload;
        if let Arrivals::Poisson { rate } = wl.arrivals {
            // A Poisson process needs a positive rate at every swept x.
            if rate == Count::Lit(0) || (rate == Count::X && self.x_values.contains(&0)) {
                let msg = "arrival rate must be positive at every x";
                return Err(bad("[workload]", "rate", msg));
            }
        }
        let (at, targets) = ("[workload]", wl.query.targets());
        match (&wl.placement, &wl.target) {
            (Placement::PerService(names), None) => {
                if names.is_empty() {
                    return Err(bad(at, "per_service", "list must not be empty"));
                }
                for n in names {
                    refer(&self.services, at, "per_service", n, targets)?;
                }
            }
            (Placement::PerService(_), Some(_)) => {
                let msg = "per_service users query their own service";
                return Err(bad(at, "target", msg));
            }
            (_, None) => {
                let at = at.to_string();
                return Err(ScenarioError::MissingField {
                    at,
                    field: "target",
                });
            }
            (placement, Some(target)) => {
                if let Placement::Hosts(hosts) = placement {
                    if hosts.is_empty() {
                        return Err(bad(at, "placement", "list must not be empty"));
                    }
                    on_testbed(at, hosts)?;
                }
                refer(&self.services, at, "target", target, targets)?;
            }
        }
        let agent = |(_, s): &(String, ServiceSpec)| matches!(s.kind, ServiceKind::Agent { .. });
        if wl.query == Query::HawkeyeStatusRandom && !self.services.iter().any(agent) {
            let msg = "hawkeye-status-random needs a hawkeye-agent to ask about";
            return Err(bad(at, "query", msg));
        }
        match &self.probe {
            Some(ProbeSpec::GiisFreshness { giis }) => {
                if let ServiceKind::Giis { cachettl, .. } | ServiceKind::GiisPool { cachettl, .. } =
                    refer(&self.services, "[probe]", "giis", giis, INDEXES)?
                {
                    if *cachettl == Ttl::Pinned {
                        let msg = format!(
                            "{giis:?} never expires its data (cachettl = \"pinned\"), \
                             so it has no fresh horizon (TTL + 5 s)"
                        );
                        return Err(bad("[probe]", "giis", msg));
                    }
                }
            }
            Some(ProbeSpec::HawkeyeAds { manager }) => {
                let want = &["hawkeye-manager"];
                refer(&self.services, "[probe]", "manager", manager, want)?;
            }
            Some(ProbeSpec::RgmaProducers) | None => {}
        }
        if let Some(fp) = &self.faults {
            on_testbed("[faults]", &fp.hosts)?;
        }
        on_testbed("top level", std::slice::from_ref(&self.watch))
    }
}

/// Every one of `hosts` (referenced from `at`) is on the testbed.
fn on_testbed(at: &str, hosts: &[String]) -> Result<(), ScenarioError> {
    match hosts.iter().find(|h| !known_host(h)) {
        Some(host) => Err(ScenarioError::UnknownHost {
            at: at.to_string(),
            host: host.clone(),
        }),
        None => Ok(()),
    }
}

/// The kind of the service `name` that `field` of `at` refers to, which
/// must be declared in `services` and be one of the kinds in `want`.
fn refer<'s>(
    services: &'s [(String, ServiceSpec)],
    at: &str,
    field: &'static str,
    name: &str,
    want: &[&str],
) -> Result<&'s ServiceKind, ScenarioError> {
    let Some((_, svc)) = services.iter().find(|(n, _)| n == name) else {
        return Err(ScenarioError::DanglingRef {
            at: at.to_string(),
            field,
            target: name.to_string(),
        });
    };
    let kind = svc.kind.token();
    if !want.contains(&kind) {
        let msg = format!("{name:?} has kind {kind}, expected {}", want.join(" or "));
        return Err(bad(at, field, msg));
    }
    Ok(&svc.kind)
}

// ======================================================================
// Canonical printer
// ======================================================================

fn push_count(out: &mut String, key: &str, c: Count) {
    match c {
        Count::Lit(n) => out.push_str(&format!("{key} = {n}\n")),
        Count::X => out.push_str(&format!("{key} = \"x\"\n")),
    }
}

fn push_ttl(out: &mut String, ttl: Ttl) {
    match ttl {
        Ttl::Pinned => out.push_str("cachettl = \"pinned\"\n"),
        Ttl::Zero => out.push_str("cachettl = \"zero\"\n"),
        Ttl::Exp4 => out.push_str("cachettl = \"exp4\"\n"),
        Ttl::Secs(n) => out.push_str(&format!("cachettl = {n}\n")),
    }
}

fn str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("{s:?}")).collect();
    format!("[{}]", quoted.join(", "))
}

impl ScenarioSpec {
    /// Render the spec in the text format, canonically: fixed key order,
    /// one blank line between sections, `[wan]` and `arrivals`/`rate`
    /// only where they differ from the default.  `parse(print(spec)) ==
    /// spec` for every valid spec, and the fingerprint hashes this text.
    pub fn print(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("name = {:?}\n", self.name));
        out.push_str(&format!("system = {:?}\n", self.system.as_str()));
        let xs: Vec<String> = self.x_values.iter().map(u32::to_string).collect();
        out.push_str(&format!("x = [{}]\n", xs.join(", ")));
        out.push_str(&format!("watch = {:?}\n", self.watch));
        if let Some(wan) = self.wan {
            out.push_str("\n[wan]\n");
            out.push_str(&format!("mbps = {}\n", wan.mbps));
            out.push_str(&format!("latency_ms = {}\n", wan.latency_ms));
        }
        for (name, svc) in &self.services {
            out.push_str(&format!("\n[service.{name}]\n"));
            out.push_str(&format!("kind = {:?}\n", svc.kind.token()));
            out.push_str(&format!("host = {:?}\n", svc.host));
            match &svc.kind {
                ServiceKind::Gris {
                    providers,
                    cache,
                    gsi,
                } => {
                    push_count(&mut out, "providers", *providers);
                    out.push_str(&format!("cache = {cache}\n"));
                    out.push_str(&format!("gsi = {gsi}\n"));
                }
                ServiceKind::GiisPool {
                    gris_hosts,
                    n_gris,
                    cachettl,
                } => {
                    out.push_str(&format!("gris_hosts = {}\n", str_list(gris_hosts)));
                    push_count(&mut out, "n_gris", *n_gris);
                    push_ttl(&mut out, *cachettl);
                }
                ServiceKind::Giis {
                    cachettl,
                    parent,
                    branch,
                } => {
                    push_ttl(&mut out, *cachettl);
                    if let Some(p) = parent {
                        out.push_str(&format!("parent = {p:?}\n"));
                        out.push_str(&format!("branch = {branch}\n"));
                    }
                }
                ServiceKind::GrisFleet {
                    parent,
                    providers,
                    share,
                } => {
                    out.push_str(&format!("parent = {parent:?}\n"));
                    out.push_str(&format!("providers = {providers}\n"));
                    out.push_str(&format!("share = \"{}/{}\"\n", share.0, share.1));
                }
                ServiceKind::Agent { modules, manager } => {
                    push_count(&mut out, "modules", *modules);
                    out.push_str(&format!("manager = {manager:?}\n"));
                }
                ServiceKind::AdvertiserFleet { machines, manager } => {
                    push_count(&mut out, "machines", *machines);
                    out.push_str(&format!("manager = {manager:?}\n"));
                }
                ServiceKind::ProducerServlet {
                    producers,
                    registry,
                } => {
                    push_count(&mut out, "producers", *producers);
                    out.push_str(&format!("registry = {registry:?}\n"));
                }
                ServiceKind::ConsumerServlet { registry } => {
                    out.push_str(&format!("registry = {registry:?}\n"));
                }
                ServiceKind::CompositePool {
                    site_hosts,
                    n_sites,
                    registry,
                } => {
                    out.push_str(&format!("site_hosts = {}\n", str_list(site_hosts)));
                    push_count(&mut out, "n_sites", *n_sites);
                    out.push_str(&format!("registry = {registry:?}\n"));
                }
                ServiceKind::Manager | ServiceKind::Registry => {}
            }
        }
        out.push_str("\n[workload]\n");
        push_count(&mut out, "users", self.workload.users);
        match &self.workload.placement {
            Placement::Uc => out.push_str("placement = \"uc\"\n"),
            Placement::Hosts(hosts) => {
                out.push_str(&format!("placement = {}\n", str_list(hosts)));
            }
            Placement::PerService(names) => {
                out.push_str(&format!("per_service = {}\n", str_list(names)));
            }
        }
        if let Some(t) = &self.workload.target {
            out.push_str(&format!("target = {t:?}\n"));
        }
        out.push_str(&format!("query = {:?}\n", self.workload.query.token()));
        out.push_str(&format!("cpu = {:?}\n", self.workload.cpu.token()));
        if let Some(t) = self.workload.timeout_s {
            out.push_str(&format!("timeout_s = {t}\n"));
        }
        if let Arrivals::Poisson { rate } = self.workload.arrivals {
            out.push_str("arrivals = \"poisson\"\n");
            push_count(&mut out, "rate", rate);
        }
        if let Some(p) = &self.probe {
            out.push_str("\n[probe]\n");
            out.push_str(&format!("kind = {:?}\n", p.token()));
            match p {
                ProbeSpec::GiisFreshness { giis } => {
                    out.push_str(&format!("giis = {giis:?}\n"));
                }
                ProbeSpec::HawkeyeAds { manager } => {
                    out.push_str(&format!("manager = {manager:?}\n"));
                }
                ProbeSpec::RgmaProducers => {}
            }
        }
        if let Some(fp) = &self.faults {
            out.push_str("\n[faults]\n");
            out.push_str(&format!("service = {:?}\n", fp.service));
            out.push_str(&format!("hosts = {}\n", str_list(&fp.hosts)));
            out.push_str(&format!("prime_ms = {}\n", fp.prime_ms));
            out.push_str(&format!("scenario = {:?}\n", fp.scenario.token()));
        }
        out
    }

    /// A stable 128-bit fingerprint of the canonical text, as 32 hex
    /// digits.  Folded into runner cache digests: any semantic change to
    /// a spec re-addresses every cached point it produced.
    pub fn fingerprint(&self) -> String {
        let text = self.print();
        let a = fnv1a64(0xcbf2_9ce4_8422_2325, text.as_bytes());
        let b = fnv1a64(a ^ 0x9e37_79b9_7f4a_7c15, text.as_bytes());
        format!("{a:016x}{b:016x}")
    }
}

/// FNV-1a with a selectable basis (the standard offset basis gives the
/// reference FNV-1a).  Kept local: the fingerprint must not depend on
/// another crate's hash evolving.
fn fnv1a64(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ======================================================================
// Tests
// ======================================================================

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioSpec {
        ScenarioSpec {
            name: "sample".to_string(),
            system: SystemId::Mds,
            x_values: vec![1, 10, 50],
            wan: None,
            services: vec![(
                "giis".to_string(),
                ServiceSpec {
                    kind: ServiceKind::GiisPool {
                        gris_hosts: vec!["lucky3".to_string(), "lucky4".to_string()],
                        n_gris: Count::X,
                        cachettl: Ttl::Exp4,
                    },
                    host: "lucky0".to_string(),
                },
            )],
            watch: "lucky0".to_string(),
            workload: WorkloadSpec {
                users: Count::Lit(10),
                placement: Placement::Uc,
                target: Some("giis".to_string()),
                query: Query::MdsSearchAllGiis,
                cpu: ClientCpu::Mds,
                timeout_s: None,
                arrivals: Arrivals::Closed,
            },
            probe: None,
            faults: None,
        }
    }

    #[test]
    fn round_trips_through_text() {
        let spec = sample();
        let text = spec.print();
        let back = parse(&text).unwrap();
        assert_eq!(back, spec);
        // Canonical: printing the reparse reproduces the text.
        assert_eq!(back.print(), text);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let clean = format!("# heading\n\n{}# tail\n", sample().print());
        assert_eq!(parse(&clean).unwrap(), sample());
        let inline = sample()
            .print()
            .replace("placement = \"uc\"", "placement = \"uc\"   # client farm");
        assert_eq!(parse(&inline).unwrap(), sample());
    }

    #[test]
    fn fingerprint_is_stable_and_semantic() {
        let a = sample();
        let mut b = sample();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.x_values.push(100);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Pinned reference value: the fingerprint addresses persistent
        // caches, so it must never drift across refactors.
        assert_eq!(a.fingerprint().len(), 32);
    }

    #[test]
    fn unknown_backend_is_golden() {
        let text = sample()
            .print()
            .replace("system = \"mds\"", "system = \"ganglia2\"");
        let err = parse(&text).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown backend \"ganglia2\": known backends are mds, rgma, hawkeye"
        );
    }

    #[test]
    fn unknown_host_is_golden() {
        let text = sample()
            .print()
            .replace("host = \"lucky0\"", "host = \"lucky2\"");
        let err = parse(&text).unwrap_err();
        assert_eq!(
            err.to_string(),
            "service \"giis\": unknown host \"lucky2\" \
             (hosts: lucky0, lucky1, lucky3..lucky7, uc00..uc19)"
        );
    }

    #[test]
    fn duplicate_service_is_golden() {
        let mut spec = sample();
        let dup = spec.services[0].clone();
        spec.services.push(dup);
        let err = parse(&spec.print()).unwrap_err();
        assert_eq!(err.to_string(), "duplicate service name \"giis\"");
        // validate() catches the same on hand-built specs.
        assert_eq!(spec.validate().unwrap_err(), err);
    }

    #[test]
    fn dangling_service_ref_is_golden() {
        let text = sample()
            .print()
            .replace("target = \"giis\"", "target = \"nosuch\"");
        let err = parse(&text).unwrap_err();
        assert_eq!(
            err.to_string(),
            "[workload]: target = \"nosuch\" names no service"
        );
    }

    /// The workload's seat rules hold for hand-built specs, which never
    /// meet the parser: a target iff the users are not `per_service`,
    /// and never an empty list to deal users over.
    #[test]
    fn workload_rules_hold_without_the_parser() {
        let mut spec = sample();
        spec.workload.target = None;
        let want = "[workload]: missing required field \"target\"";
        assert_eq!(spec.validate().unwrap_err().to_string(), want);
        assert_eq!(parse(&spec.print()).unwrap_err().to_string(), want);
        spec.workload.placement = Placement::PerService(vec![]);
        let want = "[workload]: bad value for \"per_service\": list must not be empty";
        assert_eq!(spec.validate().unwrap_err().to_string(), want);
        assert_eq!(parse(&spec.print()).unwrap_err().to_string(), want);
        spec.workload.placement = Placement::Hosts(vec![]);
        spec.workload.target = Some("giis".to_string());
        let want = "[workload]: bad value for \"placement\": list must not be empty";
        assert_eq!(spec.validate().unwrap_err().to_string(), want);
        spec.workload.placement = Placement::PerService(vec!["giis".to_string()]);
        let want =
            "[workload]: bad value for \"target\": per_service users query their own service";
        assert_eq!(spec.validate().unwrap_err().to_string(), want);
        assert_eq!(parse(&spec.print()).unwrap_err().to_string(), want);
    }

    #[test]
    fn upstream_must_be_declared_earlier() {
        let mut spec = sample();
        spec.services.push((
            "agent".to_string(),
            ServiceSpec {
                kind: ServiceKind::Agent {
                    modules: Count::Lit(11),
                    manager: "mgr".to_string(),
                },
                host: "lucky4".to_string(),
            },
        ));
        let err = parse(&spec.print()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "service \"agent\": manager = \"mgr\" names no service"
        );
    }

    #[test]
    fn unknown_fields_and_sections_are_rejected() {
        let text = format!("{}\nbogus = 3\n", sample().print());
        assert!(matches!(parse(&text), Err(ScenarioError::Syntax { .. })));
        let text = format!("{}\n[frobnicator]\n", sample().print());
        assert!(matches!(parse(&text), Err(ScenarioError::Syntax { .. })));
    }

    #[test]
    fn counts_and_ttls_round_trip() {
        let mut spec = sample();
        spec.services[0].1.kind = ServiceKind::GiisPool {
            gris_hosts: vec!["lucky3".to_string()],
            n_gris: Count::Lit(7),
            cachettl: Ttl::Secs(30),
        };
        spec.workload.users = Count::X;
        spec.workload.timeout_s = Some(10);
        let back = parse(&spec.print()).unwrap();
        assert_eq!(back, spec);
    }
}
