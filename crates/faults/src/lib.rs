//! Deterministic, schedule-driven fault injection.
//!
//! A [`FaultPlan`] is a list of typed fault events, each bound to an exact
//! simulated instant: host crash/restart, link degradation (partition and
//! heal), connection-drop bursts, and server freeze/thaw (GC-pause style
//! stalls).  A [`FaultDriver`] walks the plan in time order and applies each
//! event to a [`simnet::Net`] through its fault API; the monitoring services
//! under test react only through their *existing* soft-state machinery
//! (registration TTLs, re-registration timers, heartbeats) — the injector
//! never reaches into protocol state.
//!
//! # Determinism
//!
//! Fault injection must not perturb the no-fault trajectory of a run, and
//! two runs with the same seed and plan must be bit-identical:
//!
//! * Plans are pure data, built once from a [`FaultSpec`] before the run
//!   starts.  Nothing in this crate draws random numbers, so the simulation
//!   RNG stream is untouched: an empty plan reproduces the no-fault run
//!   byte-for-byte.
//! * Events carry exact `SimTime` instants.  The harness runs the engine
//!   *up to* the next fault instant, applies every due event, and resumes —
//!   so fault application interleaves with simulation events at a single
//!   well-defined point regardless of host scheduling or worker count.
//! * A plan is a pure function of its [`FaultSpec`] and the deployment, so
//!   the runner mixes [`FaultSpec::fingerprint`] into its cache digest and
//!   cached results can never be served across different fault schedules.

#![forbid(unsafe_code)]

use simcore::{SimDuration, SimTime};
use simnet::{Eng, LinkId, Net, SvcKey};

/// Link capacity (bits/second) used to model a partition: low enough that
/// nothing useful transfers inside a run, non-zero so the flow model stays
/// well-defined.  Capacities at or below this trace as `fault_partition`;
/// restoring anything above it traces as `fault_heal`.
pub const PARTITION_BPS: f64 = 1.0;

/// Which family of faults a run injects.  `targets` on [`FaultSpec`] says
/// how many components are hit; the experiment code decides *which* ones
/// (deterministically, by deployment order).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Scenario {
    /// No faults: the plan is empty and the run is byte-identical to a
    /// run without any fault machinery.
    #[default]
    None,
    /// Kill `targets` components, then restart them at the heal instant.
    /// Recovery rides on each service's own re-registration machinery.
    Churn,
    /// Degrade the network links of `targets` hosts to ~zero capacity
    /// (a partition that heals at the heal instant).
    Partition,
    /// Freeze `targets` servers (GC-pause stall): accepted work makes no
    /// progress until the thaw.
    Freeze,
    /// Drop every new connection to `targets` servers for the window.
    ConnBurst,
    /// Per-series default: each experiment series picks the scenario that
    /// stresses its system's weak point (resolved by the experiment code).
    Auto,
}

impl Scenario {
    pub fn name(self) -> &'static str {
        match self {
            Scenario::None => "none",
            Scenario::Churn => "churn",
            Scenario::Partition => "partition",
            Scenario::Freeze => "freeze",
            Scenario::ConnBurst => "connburst",
            Scenario::Auto => "auto",
        }
    }

    /// Parse a scenario name as accepted by the `--faults` CLI flag.
    pub fn parse(s: &str) -> Option<Scenario> {
        Some(match s {
            "none" => Scenario::None,
            "churn" => Scenario::Churn,
            "partition" => Scenario::Partition,
            "freeze" => Scenario::Freeze,
            "connburst" => Scenario::ConnBurst,
            "auto" => Scenario::Auto,
            _ => return None,
        })
    }
}

/// Declarative description of the faults a run should inject, small enough
/// to live on the run configuration (`Copy`) and stable enough to
/// fingerprint into a cache digest.  The experiment code turns a spec into
/// a concrete [`FaultPlan`] once the deployment (service keys, link ids)
/// is known.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultSpec {
    pub scenario: Scenario,
    /// How many components (servers, links, agents) are faulted.
    pub targets: u32,
    /// Fault onset, as a fraction of the measurement window (0.0..1.0),
    /// measured from the start of the *stats window* (after warmup).
    pub start_frac: f64,
    /// Heal/restart instant as a fraction of the measurement window.
    /// Scenarios without a heal step ignore it.
    pub heal_frac: f64,
}

impl FaultSpec {
    /// The no-fault spec: empty plan, byte-identical runs.
    pub const NONE: FaultSpec = FaultSpec {
        scenario: Scenario::None,
        targets: 0,
        start_frac: 0.0,
        heal_frac: 0.0,
    };

    pub fn is_none(&self) -> bool {
        self.scenario == Scenario::None || self.targets == 0
    }

    /// Stable text form mixed into the runner's cache digest.  The f64
    /// fractions are rendered as exact bit patterns so two specs collide
    /// only if they are numerically identical.
    pub fn fingerprint(&self) -> String {
        if self.is_none() {
            return "faults=none".to_string();
        }
        format!(
            "faults={},targets={},start={:016x},heal={:016x}",
            self.scenario.name(),
            self.targets,
            self.start_frac.to_bits(),
            self.heal_frac.to_bits()
        )
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::NONE
    }
}

/// One typed fault, resolved to concrete simulation handles.
#[derive(Clone, Debug)]
pub enum FaultAction {
    /// Kill a service process: in-flight requests fail, new connections
    /// are refused, pending timers die.
    Crash { svc: SvcKey },
    /// Bring a crashed service back with empty pools, and re-prime its
    /// periodic timers (`(delay, tag)` pairs) so soft-state recovery —
    /// re-registration, heartbeats — restarts from the fresh process.
    Restart {
        svc: SvcKey,
        prime: Vec<(SimDuration, u64)>,
    },
    /// Stall a server until `until`: connections are still accepted but
    /// no plan makes progress (GC-pause / overload stall).
    Freeze { svc: SvcKey, until: SimTime },
    /// Refuse every new connection to a server until `until`.
    DropConns { svc: SvcKey, until: SimTime },
    /// Set a link's capacity (bits/second).  Near-zero capacity is a
    /// partition; restoring the original capacity is the heal.
    SetLinkCapacity { link: LinkId, bps: f64 },
}

/// A fault bound to the instant it fires.
#[derive(Clone, Debug)]
pub struct BoundFault {
    pub at: SimTime,
    pub action: FaultAction,
}

/// An ordered schedule of faults.  Events pushed out of order are sorted
/// (stably, so same-instant events keep insertion order) when the plan is
/// handed to a [`FaultDriver`].
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pub events: Vec<BoundFault>,
}

impl FaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, at: SimTime, action: FaultAction) {
        self.events.push(BoundFault { at, action });
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Applies a [`FaultPlan`] to a running simulation.  The harness asks
/// [`next_at`](FaultDriver::next_at) how far it may run the engine, then
/// calls [`apply_due`](FaultDriver::apply_due) once the clock reaches that
/// instant.
pub struct FaultDriver {
    plan: FaultPlan,
    cursor: usize,
}

impl FaultDriver {
    pub fn new(mut plan: FaultPlan) -> Self {
        plan.events.sort_by_key(|e| e.at);
        FaultDriver { plan, cursor: 0 }
    }

    /// The instant of the next unapplied fault, if any.
    pub fn next_at(&self) -> Option<SimTime> {
        self.plan.events.get(self.cursor).map(|e| e.at)
    }

    /// Apply every event with `at <= now`, in schedule order.
    pub fn apply_due(&mut self, net: &mut Net, eng: &mut Eng, now: SimTime) {
        while let Some(ev) = self.plan.events.get(self.cursor) {
            if ev.at > now {
                break;
            }
            let action = ev.action.clone();
            self.cursor += 1;
            Self::apply(net, eng, action);
        }
    }

    // The `Net` fault hooks emit their own `fault_*` trace instants and
    // `fault.*` counters, so applying an action needs no extra reporting.
    fn apply(net: &mut Net, eng: &mut Eng, action: FaultAction) {
        match action {
            FaultAction::Crash { svc } => {
                if !net.service_down(svc) {
                    net.crash_service(eng, svc);
                }
            }
            FaultAction::Restart { svc, prime } => {
                if net.service_down(svc) {
                    net.restart_service(eng, svc);
                    for (dur, tag) in prime {
                        net.prime_service_timer(eng, svc, dur, tag);
                    }
                }
            }
            FaultAction::Freeze { svc, until } => {
                net.freeze_service(eng, svc, until);
            }
            FaultAction::DropConns { svc, until } => {
                net.drop_conns_until(eng, svc, until);
            }
            FaultAction::SetLinkCapacity { link, bps } => {
                net.set_link_capacity(eng, link, bps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{
        Client, ClientCx, Payload, Plan, ReqOutcome, ReqResult, RequestSpec, Service,
        ServiceConfig, StatsHub, SvcCx, Topology,
    };
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Echo;
    impl Service for Echo {
        fn handle(&mut self, _req: Payload, _cx: &mut SvcCx) -> Plan {
            Plan::new()
                .cpu(500.0)
                .reply(Rc::new(String::from("ok")), 256)
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    struct Every {
        from: simnet::NodeId,
        to: SvcKey,
        period: SimDuration,
        log: Rc<RefCell<Vec<(f64, bool)>>>,
    }
    impl Client for Every {
        fn on_start(&mut self, cx: &mut ClientCx) {
            cx.wake_in(SimDuration::ZERO, 0);
        }
        fn on_wake(&mut self, _tag: u64, cx: &mut ClientCx) {
            cx.submit(
                RequestSpec {
                    from: self.from,
                    to: self.to,
                    payload: Rc::new(String::from("q")),
                    req_bytes: 256,
                },
                0,
            );
            cx.wake_in(self.period, 0);
        }
        fn on_outcome(&mut self, outcome: ReqOutcome, cx: &mut ClientCx) {
            let ok = matches!(outcome.result, ReqResult::Ok(..));
            self.log.borrow_mut().push((cx.now().as_secs_f64(), ok));
        }
    }

    fn small_world() -> (Net, Eng, simnet::NodeId, SvcKey) {
        let mut topo = Topology::new();
        let a = topo.add_node("client", 2, 1.0);
        let b = topo.add_node("server", 2, 1.0);
        topo.connect(a, b, 100e6, SimDuration::from_micros(500));
        let stats = StatsHub::new(SimTime::ZERO, SimTime::from_secs(1000));
        let mut eng = Eng::new(7);
        let mut net = Net::new(topo, stats);
        let svc = net.add_service(b, ServiceConfig::default(), Box::new(Echo), &mut eng);
        (net, eng, a, svc)
    }

    #[test]
    fn empty_plan_is_inert() {
        let mut d = FaultDriver::new(FaultPlan::new());
        assert_eq!(d.next_at(), None);
        let (mut net, mut eng, _, _) = small_world();
        d.apply_due(&mut net, &mut eng, SimTime::from_secs(100));
        assert_eq!(d.next_at(), None);
    }

    #[test]
    fn events_sort_and_apply_in_order() {
        let (mut net, mut eng, a, svc) = small_world();
        let log = Rc::new(RefCell::new(Vec::new()));
        net.add_client(Box::new(Every {
            from: a,
            to: svc,
            period: SimDuration::from_secs(2),
            log: log.clone(),
        }));

        // Pushed out of order: restart at 10s, crash at 5s.
        let mut plan = FaultPlan::new();
        plan.push(
            SimTime::from_secs(10),
            FaultAction::Restart {
                svc,
                prime: Vec::new(),
            },
        );
        plan.push(SimTime::from_secs(5), FaultAction::Crash { svc });
        let mut driver = FaultDriver::new(plan);
        assert_eq!(driver.next_at(), Some(SimTime::from_secs(5)));

        net.start(&mut eng);
        let until = SimTime::from_secs(20);
        let mut now = SimTime::ZERO;
        while now < until {
            let stop = driver.next_at().map_or(until, |t| t.min(until));
            eng.run_until(&mut net, stop);
            now = stop;
            driver.apply_due(&mut net, &mut eng, now);
        }
        assert_eq!(driver.next_at(), None);

        let log = log.borrow();
        // Queries at 0,2,4 succeed; 6,8 fail (down); 10.. succeed again.
        for (at, ok) in log.iter() {
            let expect = *at < 5.0 || *at >= 10.0;
            assert_eq!(*ok, expect, "query at {at}s: ok={ok}");
        }
        assert!(log.iter().any(|(at, _)| *at > 5.0 && *at < 10.0));
        assert!(log.iter().any(|(at, ok)| *at > 10.0 && *ok));
    }

    #[test]
    fn restart_reprimes_timers() {
        // A crashed service's periodic timer chain dies with the process;
        // the Restart action must restore it.
        struct Beacon {
            fired: Rc<RefCell<Vec<f64>>>,
        }
        impl Service for Beacon {
            fn handle(&mut self, _req: Payload, _cx: &mut SvcCx) -> Plan {
                Plan::new().reply(Rc::new(String::from("ok")), 64)
            }
            fn on_timer(&mut self, _tag: u64, cx: &mut SvcCx) {
                self.fired.borrow_mut().push(cx.now.as_secs_f64());
                cx.set_timer(SimDuration::from_secs(2), 0);
            }
            fn name(&self) -> &str {
                "beacon"
            }
        }

        let mut topo = Topology::new();
        let _a = topo.add_node("client", 2, 1.0);
        let b = topo.add_node("server", 2, 1.0);
        let stats = StatsHub::new(SimTime::ZERO, SimTime::from_secs(1000));
        let mut eng = Eng::new(7);
        let mut net = Net::new(topo, stats);
        let fired = Rc::new(RefCell::new(Vec::new()));
        let svc = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Beacon {
                fired: fired.clone(),
            }),
            &mut eng,
        );
        net.prime_service_timer(&mut eng, svc, SimDuration::from_secs(2), 0);

        let mut plan = FaultPlan::new();
        plan.push(SimTime::from_secs(5), FaultAction::Crash { svc });
        plan.push(
            SimTime::from_secs(11),
            FaultAction::Restart {
                svc,
                prime: vec![(SimDuration::from_secs(2), 0)],
            },
        );
        let mut driver = FaultDriver::new(plan);

        net.start(&mut eng);
        let until = SimTime::from_secs(20);
        let mut now = SimTime::ZERO;
        while now < until {
            let stop = driver.next_at().map_or(until, |t| t.min(until));
            eng.run_until(&mut net, stop);
            now = stop;
            driver.apply_due(&mut net, &mut eng, now);
        }

        let fired = fired.borrow();
        // Ticks at 2,4 then silence until the re-primed tick at 13,15,...
        assert!(fired.contains(&2.0) && fired.contains(&4.0));
        assert!(!fired.iter().any(|t| *t > 5.0 && *t < 13.0));
        assert!(fired.contains(&13.0) && fired.contains(&15.0));
    }

    #[test]
    fn spec_fingerprints() {
        assert_eq!(FaultSpec::NONE.fingerprint(), "faults=none");
        let s = FaultSpec {
            scenario: Scenario::Churn,
            targets: 3,
            start_frac: 0.25,
            heal_frac: 0.75,
        };
        let t = FaultSpec { targets: 4, ..s };
        assert_ne!(s.fingerprint(), t.fingerprint());
        assert!(s.fingerprint().starts_with("faults=churn,targets=3,"));
        // targets == 0 means no faults regardless of scenario.
        let z = FaultSpec { targets: 0, ..s };
        assert!(z.is_none());
        assert_eq!(z.fingerprint(), "faults=none");
    }

    #[test]
    fn scenario_parse_round_trips() {
        for sc in [
            Scenario::None,
            Scenario::Churn,
            Scenario::Partition,
            Scenario::Freeze,
            Scenario::ConnBurst,
            Scenario::Auto,
        ] {
            assert_eq!(Scenario::parse(sc.name()), Some(sc));
        }
        assert_eq!(Scenario::parse("meteor"), None);
    }
}
