//! Services and execution plans.
//!
//! A [`Service`] is a simulated server process (a GRIS, a Registry, a
//! Hawkeye Manager...).  When a request arrives, the service's
//! [`Service::handle`] inspects the payload and its own state and returns a
//! [`Plan`]: the sequence of resource demands the request will exert.
//! Plans are executed by [`crate::net::Net`] against the host CPU, the
//! network, lock tables and other services.
//!
//! The split keeps protocol logic (in the `mds`/`rgma`/`hawkeye` crates)
//! free of event-scheduling concerns, and keeps the executor generic.
//!
//! A request borrows its buffers.  A plan's step list
//! ([`SvcCx::plan`]), a fan-out's sub-call list ([`SvcCx::calls`]), the
//! outcome list [`Service::resume`] drains and the actions a callback
//! records are [`Lent`] by the `Net` and come back to it cleared, so a
//! request in steady state allocates only its payloads.
//!
//! A message is built once.  A [`Payload`] is a reference-counted
//! `Rc<dyn Any>`: a sender that sends the same message again (a user's
//! query, a periodic advertisement, a memoized reply) hands out a clone
//! of one `Rc` it keeps, which costs a reference count, not an
//! allocation.  Receivers borrow what they are sent.

use crate::topology::NodeId;
use simcore::slab::SlabKey;
use simcore::{SimDuration, SimRng, SimTime};
use std::any::Any;
use std::rc::Rc;

/// Key identifying a deployed service instance.
pub type SvcKey = SlabKey;

/// Key identifying a lock registered with the world.
pub type LockKey = SlabKey;

/// Message payloads are dynamically typed and shared; each protocol crate
/// downcasts to its own request/response types.
///
/// The contract: a fresh message is `Rc::new(value)` at the call site, and
/// a message that does not change is built once and sent as `Rc::clone`.
/// A receiver borrows: `Rc::downcast` and `match &*msg`, never a copy to
/// own what it only reads.  A reply passed on unchanged is passed on as
/// the same `Rc`; the sender may have kept a clone to answer with again.
pub type Payload = Rc<dyn Any>;

/// One resource-demand step of a plan.
pub enum Step {
    /// Consume reference-CPU microseconds on the service's host.
    Cpu(f64),
    /// A fixed delay that consumes no shared resource (e.g. a disk seek or
    /// an authentication handshake dominated by round trips).
    Latency(SimDuration),
    /// Acquire a FIFO lock (blocks until granted).
    Lock(LockKey),
    /// Release a previously acquired lock.
    Unlock(LockKey),
    /// Send a one-way message (no reply expected) to another service at
    /// this point of the plan, then continue with the next step.
    Send {
        to: SvcKey,
        payload: Payload,
        bytes: u64,
    },
    /// Issue sub-requests to other services and wait for all of them; the
    /// service's `resume(cont, outcomes)` is then called for the
    /// continuation plan.  Must be the final step of a plan.
    CallAll { calls: Vec<SubCall>, cont: u64 },
    /// Send the response (`bytes` on the wire) and finish.  Must be the
    /// final step of a plan.
    Reply { payload: Payload, bytes: u64 },
    /// Abort the request with an error: the requester sees a failure
    /// (e.g. a servlet whose backend is unreachable).  Must be the final
    /// step of a plan.
    Fail,
}

impl std::fmt::Debug for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Cpu(us) => write!(f, "Cpu({us}µs)"),
            Step::Latency(d) => write!(f, "Latency({d:?})"),
            Step::Lock(k) => write!(f, "Lock({k:?})"),
            Step::Unlock(k) => write!(f, "Unlock({k:?})"),
            Step::Send { bytes, .. } => write!(f, "Send({bytes}B)"),
            Step::CallAll { calls, cont } => {
                write!(f, "CallAll(n={}, cont={cont})", calls.len())
            }
            Step::Reply { bytes, .. } => write!(f, "Reply({bytes}B)"),
            Step::Fail => write!(f, "Fail"),
        }
    }
}

/// A sub-request issued from within a plan.
pub struct SubCall {
    pub to: SvcKey,
    pub payload: Payload,
    pub req_bytes: u64,
}

/// Outcome of one sub-call, delivered to [`Service::resume`].
pub struct CallOutcome {
    /// Index in the original `calls` vector.
    pub index: u32,
    /// `Some((payload, bytes))` on success, `None` if the sub-request was
    /// refused or failed.
    pub response: Option<(Payload, u64)>,
}

/// An ordered list of steps.
pub struct Plan {
    pub steps: Vec<Step>,
}

impl Plan {
    /// A plan on a buffer of its own.  A service answering a request
    /// takes [`SvcCx::plan`] instead, whose buffer the `Net` recycles.
    pub fn new() -> Self {
        Plan { steps: Vec::new() }
    }

    /// Reply with an empty payload.
    pub fn reply_empty(self) -> Self {
        self.reply(Rc::new(()), 64)
    }

    pub fn cpu(mut self, ref_cpu_us: f64) -> Self {
        self.steps.push(Step::Cpu(ref_cpu_us));
        self
    }

    pub fn latency(mut self, d: SimDuration) -> Self {
        self.steps.push(Step::Latency(d));
        self
    }

    pub fn lock(mut self, l: LockKey) -> Self {
        self.steps.push(Step::Lock(l));
        self
    }

    pub fn unlock(mut self, l: LockKey) -> Self {
        self.steps.push(Step::Unlock(l));
        self
    }

    pub fn call_all(mut self, calls: Vec<SubCall>, cont: u64) -> Self {
        self.steps.push(Step::CallAll { calls, cont });
        self
    }

    pub fn reply(mut self, payload: Payload, bytes: u64) -> Self {
        self.steps.push(Step::Reply { payload, bytes });
        self
    }

    /// Terminate without sending a response (one-way messages).
    pub fn done(self) -> Self {
        self
    }

    /// Abort with an error after the accumulated steps.
    pub fn fail(mut self) -> Self {
        self.steps.push(Step::Fail);
        self
    }

    /// Hold `lock` over the steps from index `from` on: a `Lock` goes in
    /// before them and an `Unlock` before the final `Reply` (or at the
    /// end when there is none), in this plan's own buffer.
    pub fn hold(mut self, lock: LockKey, from: usize) -> Self {
        self.steps.insert(from, Step::Lock(lock));
        let at = match self.steps.last() {
            Some(Step::Reply { .. }) => self.steps.len() - 1,
            _ => self.steps.len(),
        };
        self.steps.insert(at, Step::Unlock(lock));
        self
    }
}

impl Default for Plan {
    fn default() -> Self {
        Self::new()
    }
}

/// Deferred actions a service can emit from any callback (timers,
/// spontaneous one-way messages).  Applied by the world after the callback
/// returns.
pub enum SvcAction {
    /// Fire `on_timer(tag)` after `dur`.
    Timer { dur: SimDuration, tag: u64 },
    /// Send a one-way message (datagram-like: no connection, no response).
    OneWay {
        to: SvcKey,
        payload: Payload,
        bytes: u64,
    },
}

/// At most this many cleared buffers of one kind wait for reuse.
const SPARES: usize = 16;

/// Spare buffers of one kind: a bounded stack of cleared `Vec`s, none
/// larger than `KEEP`.  Bounding both keeps the spares from outgrowing
/// what they save.
pub(crate) struct Spares<T, const KEEP: usize> {
    free: Vec<Vec<T>>,
}

impl<T, const KEEP: usize> Default for Spares<T, KEEP> {
    fn default() -> Self {
        Spares { free: Vec::new() }
    }
}

impl<T, const KEEP: usize> Spares<T, KEEP> {
    /// An empty buffer: a spare if there is one.
    pub(crate) fn take(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    /// Take `buf` back cleared, unless it is larger than `KEEP` or the
    /// spares are full.
    pub(crate) fn put(&mut self, mut buf: Vec<T>) {
        buf.clear();
        if (1..=KEEP).contains(&buf.capacity()) && self.free.len() < SPARES {
            self.free.push(buf);
        }
    }
}

/// The buffers a [`Net`](crate::net::Net) lends to requests and service
/// callbacks.  Each comes back cleared: step lists when their plan's last
/// step runs (or its request aborts), sub-call lists once their calls are
/// submitted, outcome lists after [`Service::resume`], the actions buffer
/// after a callback's actions are applied.  A step list is kept up to a
/// plan of session work, a locked section and a reply (8 steps; a GRIS
/// re-running its providers allocates), the other lists up to a handful.
#[derive(Default)]
pub struct Lent {
    pub(crate) steps: Spares<Step, 8>,
    pub(crate) calls: Spares<SubCall, 4>,
    pub(crate) outcomes: Spares<CallOutcome, 4>,
    pub(crate) actions: Vec<SvcAction>,
}

impl Lent {
    /// Take the actions buffer back after its actions were applied.
    pub(crate) fn put_actions(&mut self, mut actions: Vec<SvcAction>) {
        actions.clear();
        if actions.capacity() <= 4 {
            self.actions = actions;
        }
    }
}

/// Context passed to service callbacks.
pub struct SvcCx<'a> {
    pub now: SimTime,
    /// The service's own key (available for self-addressed sub-calls).
    pub me: SvcKey,
    /// This service's deterministic RNG stream.
    pub rng: &'a mut SimRng,
    /// The world's observability sink: services report protocol-level
    /// events (cache hits, matchmaker evaluations, servlet queues) here.
    /// Free when observability is off.
    pub obs: &'a mut gtrace::Obs,
    pub(crate) lent: &'a mut Lent,
}

impl<'a> SvcCx<'a> {
    /// Construct a bare context for driving a service outside a `Net`
    /// (unit tests of protocol crates).
    pub fn for_tests(
        now: SimTime,
        me: SvcKey,
        rng: &'a mut SimRng,
        obs: &'a mut gtrace::Obs,
        lent: &'a mut Lent,
    ) -> SvcCx<'a> {
        SvcCx {
            now,
            me,
            rng,
            obs,
            lent,
        }
    }
}

impl SvcCx<'_> {
    /// An empty plan on a step list the `Net` lends.  Every plan a
    /// service returns from [`Service::handle`] or [`Service::resume`]
    /// starts here; the list goes back when the plan's last step runs.
    pub fn plan(&mut self) -> Plan {
        Plan {
            steps: self.lent.steps.take(),
        }
    }

    /// An empty sub-call list the `Net` lends, for [`Plan::call_all`];
    /// it goes back once the calls are submitted.
    pub fn calls(&mut self) -> Vec<SubCall> {
        self.lent.calls.take()
    }

    pub fn set_timer(&mut self, dur: SimDuration, tag: u64) {
        self.lent.actions.push(SvcAction::Timer { dur, tag });
    }

    pub fn send_oneway(&mut self, to: SvcKey, payload: Payload, bytes: u64) {
        self.lent
            .actions
            .push(SvcAction::OneWay { to, payload, bytes });
    }
}

/// Object-safe downcasting support, blanket-implemented for every concrete
/// type so [`Service`] implementations get it for free.
pub trait AsAny {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A simulated server process.
pub trait Service: AsAny + 'static {
    /// A request has been fully received; return the execution plan,
    /// built on [`SvcCx::plan`].
    fn handle(&mut self, req: Payload, cx: &mut SvcCx) -> Plan;

    /// All sub-calls of a `CallAll` step completed; return the continuation
    /// plan.  `outcomes` holds one entry per call in call order; it is a
    /// list the `Net` lends, so take the responses out of it (`drain`)
    /// rather than keeping it, and whatever is left is dropped when it
    /// goes back.  Build the continuation on [`SvcCx::plan`].
    fn resume(&mut self, cont: u64, outcomes: &mut Vec<CallOutcome>, cx: &mut SvcCx) -> Plan {
        let _ = (cont, outcomes);
        cx.plan().reply_empty()
    }

    /// A timer set via [`SvcCx::set_timer`] fired.
    fn on_timer(&mut self, tag: u64, cx: &mut SvcCx) {
        let _ = (tag, cx);
    }

    /// Human-readable name for traces and panics.
    fn name(&self) -> &str {
        "service"
    }
}

/// Session-establishment cost between a client and this service.
///
/// MDS 2.1 performs a GSI-authenticated LDAP bind whose cost is dominated by
/// extra round trips and credential verification; other services have a
/// plain TCP handshake.  The fixed-latency component is *not* a shared
/// resource: it delays the requester without consuming server capacity.
#[derive(Debug, Clone, Copy)]
pub struct SetupCost {
    /// Extra round trips beyond the TCP handshake (TLS/GSI exchanges).
    pub extra_rtts: f64,
    /// Fixed additional latency (credential checks, delegation).
    pub fixed: SimDuration,
    /// Reference-CPU microseconds spent on the server per new session.
    pub server_cpu_us: f64,
}

impl SetupCost {
    /// A bare TCP handshake.
    pub fn plain() -> Self {
        SetupCost {
            extra_rtts: 0.0,
            fixed: SimDuration::ZERO,
            server_cpu_us: 50.0,
        }
    }
}

/// Static configuration of a deployed service.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Max concurrently accepted connections.
    pub conn_capacity: u32,
    /// Listen-backlog length; connection attempts beyond
    /// `conn_capacity + backlog` are refused.
    pub backlog: u32,
    /// Worker threads executing plans (None = unlimited concurrency).
    pub workers: Option<u32>,
    /// Session-establishment cost.
    pub setup: SetupCost,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            conn_capacity: 1024,
            backlog: 128,
            workers: None,
            setup: SetupCost::plain(),
        }
    }
}

/// Per-service runtime counters.
#[derive(Debug, Default, Clone)]
pub struct ServiceStats {
    pub requests_handled: u64,
    pub replies_sent: u64,
    pub oneways_received: u64,
    pub conns_refused: u64,
}

/// A deployed service instance: the trait object plus its placement,
/// configuration and runtime resources.
pub struct ServiceSlot {
    pub node: NodeId,
    pub config: ServiceConfig,
    pub stats: ServiceStats,
    pub(crate) svc: Option<Box<dyn Service>>,
    pub(crate) conns: simcore::FifoTokens,
    pub(crate) workers: Option<simcore::FifoTokens>,
    pub(crate) rng: SimRng,
    /// Fault injection: the host process is crashed.  New connections are
    /// refused and timer chains are silenced until a restart.
    pub(crate) down: bool,
    /// Fault injection: a GC-pause-style stall.  Plans started before this
    /// instant gain a latency step covering the remainder of the stall,
    /// and timers are deferred to it.
    pub(crate) frozen_until: SimTime,
    /// Fault injection: force-drop new connection attempts until this
    /// instant (models a SYN-drop burst without taking the process down).
    pub(crate) dropping_until: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_orders_steps() {
        let p = Plan::new()
            .cpu(10.0)
            .latency(SimDuration::from_millis(1))
            .reply(Rc::new("ok"), 128);
        assert_eq!(p.steps.len(), 3);
        assert!(matches!(p.steps[0], Step::Cpu(x) if x == 10.0));
        assert!(matches!(p.steps[2], Step::Reply { bytes: 128, .. }));
    }

    #[test]
    fn default_config_sane() {
        let c = ServiceConfig::default();
        assert!(c.conn_capacity > 0);
        assert!(c.workers.is_none());
        assert_eq!(c.setup.extra_rtts, 0.0);
    }

    #[test]
    fn step_debug_formats() {
        let s = format!("{:?}", Step::Cpu(5.0));
        assert!(s.contains("Cpu"));
        let s = format!(
            "{:?}",
            Step::CallAll {
                calls: vec![],
                cont: 3
            }
        );
        assert!(s.contains("cont=3"));
    }
}
