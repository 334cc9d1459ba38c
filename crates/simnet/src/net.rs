//! The simulation world: request lifecycle and plan execution.
//!
//! A request walks through these phases; the names in brackets are the
//! single functions every request passes through at that point:
//!
//! ```text
//! [submit]                      [acquire]/[grant]
//! client ──SYN flow──▶ accept pool ──(granted)──▶ handshake ──req flow──▶
//!        ◀─refused(RST)─┘ (rejected)                                    │
//!                                               [acquire]/[grant]       │
//!                                                           worker pool │
//!                                                                ▼
//!                      [advance_steps]  Plan steps: Cpu / Latency / Lock /
//!                                       Unlock / Send / CallAll / Reply
//!                                                                │
//! client ◀──────────── response flow ◀───────────────────────────┘
//!  [finish]                                   [release_server_side]
//! ```
//!
//! * [`Net::handle`] is the one event entry point: it drops events whose
//!   request is gone and records the traced dispatch stream.
//! * `phase` is the one place a span changes phase.
//! * `acquire` asks a token pool (a service's connections, its workers,
//!   a lock) for a token and `grant` passes a released one to the next
//!   waiter; a queued request remembers its pool.
//! * `flow_step` and `submit_cpu` are the one step each shared resource
//!   takes: advance, mutate, re-arm its tick event.
//! * `finish` is the one way out: it removes the request, ends its span
//!   and tells whoever waits for it.  Delivery, failure, a plan that ends
//!   without replying and a fault abort differ only in what they do
//!   before calling it.
//!
//! Two modelling decisions reproduce the saturation behaviour the paper
//! reports for all three monitoring systems:
//!
//! 1. **Connection attempts are traffic.**  Every SYN exchange is a small
//!    flow through the same links as the payload, so a retry storm from
//!    hundreds of blocked users consumes server-side bandwidth — the paper's
//!    "the network on the server side can no longer handle the traffic from
//!    the queries".
//! 2. **Accept pools are bounded.**  Each service accepts at most
//!    `conn_capacity` concurrent connections with a `backlog`-deep listen
//!    queue; overflow attempts are refused and clients back off
//!    exponentially, which caps the number of concurrent queries *presented*
//!    to a server and makes measured response times of completed queries
//!    stay bounded while throughput plateaus.

use crate::client::{Client, ClientCx, ClientKey, ReqOutcome, ReqResult};
use crate::flow::{FlowNet, RelevelWork};
use crate::service::{
    CallOutcome, Lent, LockKey, Payload, Service, ServiceConfig, ServiceSlot, Step, SubCall,
    SvcAction, SvcCx, SvcKey,
};
use crate::stats::StatsHub;
use crate::topology::{LinkId, NodeId, Topology};
use gtrace::{Ev, Obs, Outcome, Phase};
use simcore::slab::{Slab, SlabKey};
use simcore::{Acquire, Engine, EventHandle, FifoTokens, SimDuration, SimTime, World};
use std::collections::VecDeque;
use std::rc::Rc;

/// The engine type used throughout the workspace.
pub type Eng = Engine<Net>;

/// Everything the world ever puts on the calendar.  Each variant carries
/// only the keys its handler needs; the state lives in [`Net`].
#[derive(Clone, Copy, Debug)]
pub enum NetEvent {
    /// `on_start` of a client.
    ClientStart(ClientKey),
    /// A client timer ([`ClientCx::wake_in`]) fired.
    ClientWake { client: ClientKey, tag: u64 },
    /// A service timer fired.
    SvcTimer { svc: SvcKey, tag: u64 },
    /// Handshake done: transfer the request body.
    SendRequest(ReqKey),
    /// A `Step::Latency` elapsed.
    LatencyDone(ReqKey),
    /// Degenerate (empty) fan-out: resume the parent off the call stack.
    ResumeParent(ReqKey),
    /// A worker token was granted.
    StartPlan(ReqKey),
    /// A connection token was granted.
    BeginHandshake(ReqKey),
    /// A lock was granted.
    AdvanceSteps(ReqKey),
    /// The SYN reached the server (flow done + propagation latency).
    SynArrived(ReqKey),
    /// The request body reached the server.
    RequestArrived(ReqKey),
    /// The response reached the requester.
    DeliverResponse(ReqKey),
    /// The refusal / failure notice reached the requester.
    DeliverFailure { req: ReqKey, how: Outcome },
    /// The earliest flow completion is due.
    FlowTick,
    /// The earliest task completion on a node's CPU is due.
    CpuTick(NodeId),
}

// Event growth is a deliberate edit: one calendar slot is this plus a
// generation counter.
const _: () = assert!(std::mem::size_of::<NetEvent>() <= 24);

impl NetEvent {
    /// The request this event resumes, if it belongs to one.
    fn request(self) -> Option<ReqKey> {
        match self {
            NetEvent::SendRequest(req)
            | NetEvent::LatencyDone(req)
            | NetEvent::ResumeParent(req)
            | NetEvent::StartPlan(req)
            | NetEvent::BeginHandshake(req)
            | NetEvent::AdvanceSteps(req)
            | NetEvent::SynArrived(req)
            | NetEvent::RequestArrived(req)
            | NetEvent::DeliverResponse(req)
            | NetEvent::DeliverFailure { req, .. } => Some(req),
            NetEvent::ClientStart(_)
            | NetEvent::ClientWake { .. }
            | NetEvent::SvcTimer { .. }
            | NetEvent::FlowTick
            | NetEvent::CpuTick(_) => None,
        }
    }
}

impl World for Net {
    type Event = NetEvent;

    fn handle(&mut self, eng: &mut Eng, ev: NetEvent) {
        // The one stale-event guard: a request aborted (fault injection)
        // while an event that would resume it was on the calendar.
        if ev.request().is_none_or(|req| self.requests.contains(req)) {
            match ev {
                NetEvent::ClientStart(key) => self.with_client(eng, key, |c, cx| c.on_start(cx)),
                NetEvent::ClientWake { client, tag } => {
                    self.with_client(eng, client, |c, cx| c.on_wake(tag, cx))
                }
                NetEvent::SvcTimer { svc, tag } => self.svc_timer(eng, svc, tag),
                NetEvent::SendRequest(req) => self.send_request(eng, req),
                NetEvent::LatencyDone(req) => {
                    self.phase(eng.now(), req, Phase::ServerCpu);
                    self.advance_steps(eng, req);
                }
                NetEvent::ResumeParent(req) => self.resume_parent(eng, req),
                NetEvent::StartPlan(req) => self.start_plan(eng, req),
                NetEvent::BeginHandshake(req) => self.begin_handshake(eng, req),
                NetEvent::AdvanceSteps(req) => self.advance_steps(eng, req),
                NetEvent::SynArrived(req) => self.syn_arrived(eng, req),
                NetEvent::RequestArrived(req) => self.request_arrived(eng, req),
                NetEvent::DeliverResponse(req) => self.finish(eng, req, Outcome::Ok),
                NetEvent::DeliverFailure { req, how } => self.finish(eng, req, how),
                NetEvent::FlowTick => self.flow_step(eng, |_, _| {}),
                NetEvent::CpuTick(node) => self.cpu_tick(eng, node),
            }
        }
        // The traced dispatch stream: one entry per engine event of the
        // measurement window, recorded after the event's own trace.
        if self.obs.in_window() {
            self.obs.ev(eng.now(), Ev::Dispatch { seq: eng.fired });
        }
    }
}

/// Key identifying an in-flight request.
pub type ReqKey = SlabKey;

/// What a client wants to send.
pub struct RequestSpec {
    pub from: NodeId,
    pub to: SvcKey,
    pub payload: Payload,
    pub req_bytes: u64,
}

/// Who is waiting for this request's outcome.
pub(crate) enum Origin {
    Client {
        key: ClientKey,
        tag: u64,
    },
    Parent {
        req: ReqKey,
        index: u32,
    },
    /// Fire-and-forget one-way message.
    None,
}

/// A FIFO token pool a request can own a token of or queue on.
#[derive(Clone, Copy)]
enum Pool {
    /// A service's accept pool (`conn_capacity` + `backlog`).
    Conns(SvcKey),
    /// A service's worker threads.
    Workers(SvcKey),
    /// A lock registered with [`Net::add_lock`].
    Lock(LockKey),
}

struct PendingCalls {
    cont: u64,
    outcomes: Vec<CallOutcome>,
    remaining: u32,
}

/// Where a request's plan stands: steps still to run, or — `CallAll`
/// being a plan's final step — sub-calls still out.
enum PlanState {
    Steps(VecDeque<Step>),
    Calls(PendingCalls),
}

struct RequestState {
    origin: Origin,
    from: NodeId,
    to: SvcKey,
    payload: Option<Payload>,
    req_bytes: u64,
    submitted: SimTime,
    /// The pool this request waits in, so an abort can dequeue it.
    queued_on: Option<Pool>,
    has_conn: bool,
    has_worker: bool,
    /// The session-setup CPU is still to run before the plan's first
    /// step.  It is the `Net`'s step, not the service's, so it stays out
    /// of the plan's lent buffer.
    setup_pending: bool,
    /// No plan nests locks: a request holds at most one.
    held_lock: Option<LockKey>,
    plan: PlanState,
}

// A request slot is live from the SYN to the delivered response; growing
// it is a deliberate edit.
const _: () = assert!(std::mem::size_of::<RequestState>() <= 136);

impl RequestState {
    /// Datagram-like: no connection, no worker, no response.
    fn oneway(&self) -> bool {
        matches!(self.origin, Origin::None)
    }

    /// Record that this request holds a token of `pool`.
    fn own(&mut self, pool: Pool) {
        match pool {
            Pool::Conns(_) => self.has_conn = true,
            Pool::Workers(_) => self.has_worker = true,
            Pool::Lock(l) => {
                debug_assert!(self.held_lock.is_none(), "nested lock");
                self.held_lock = Some(l);
            }
        }
    }
}

/// Bytes of a SYN/SYN-ACK control exchange (with kernel retransmissions a
/// connection attempt is a handful of packets).
pub const SYN_BYTES: u64 = 600;

// Flow-token kind tags (top bits of the packed token).
const FK_SYN: u64 = 1;
const FK_REQ: u64 = 2;
const FK_RESP: u64 = 3;

fn pack(kind: u64, key: SlabKey) -> u64 {
    (kind << 60) | ((key.index as u64) << 30) | (key.gen as u64 & 0x3FFF_FFFF)
}

fn unpack(token: u64) -> (u64, SlabKey) {
    (
        token >> 60,
        SlabKey {
            index: ((token >> 30) & 0x3FFF_FFFF) as u32,
            gen: (token & 0x3FFF_FFFF) as u32,
        },
    )
}

// CPU-token kinds.
const CK_REQUEST: u64 = 0;
const CK_CLIENT_WORK: u64 = 4;

fn req_ticket(key: ReqKey) -> u64 {
    pack(CK_REQUEST, key)
}

fn ticket_req(ticket: u64) -> ReqKey {
    unpack(ticket).1
}

/// Trace span id of a request: `(index << 32) | gen` stays below 2^53,
/// so it survives a round-trip through JSON numbers.
fn span_of(key: ReqKey) -> u64 {
    ((key.index as u64) << 32) | key.gen as u64
}

/// What [`Net::live`] counts.  All zero once every request has finished
/// and the calendar has drained: a non-zero field then is a leak.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Live {
    /// In-flight requests.
    pub requests: usize,
    /// Tokens held across every conn pool, worker pool and lock.
    pub tokens_in_use: u32,
    /// Tickets queued on those pools.
    pub waiters: usize,
    /// Active network flows.
    pub flows: usize,
    /// Runnable tasks across every node's CPU.
    pub cpu_tasks: usize,
}

/// The simulation world.
pub struct Net {
    pub topo: Topology,
    flows: FlowNet,
    flow_event: EventHandle,
    /// Completion buffers `flow_step` and `cpu_tick` lend to the resource
    /// models: taken while a step dispatches, put back cleared.
    flows_done: Vec<u64>,
    cpus_done: Vec<u64>,
    /// The buffers requests and service callbacks borrow.
    lent: Lent,
    pub services: Slab<ServiceSlot>,
    clients: Slab<Box<dyn Client>>,
    requests: Slab<RequestState>,
    client_work: Slab<(ClientKey, u64)>,
    locks: Slab<FifoTokens>,
    pub stats: StatsHub,
    /// Observability sink: tracer + metrics registry.  Defaults to off;
    /// harnesses install a live [`Obs`] before running when requested.
    pub obs: Obs,
}

impl Net {
    pub fn new(topo: Topology, stats: StatsHub) -> Self {
        Net {
            topo,
            flows: FlowNet::new(),
            flow_event: EventHandle::NULL,
            flows_done: Vec::new(),
            cpus_done: Vec::new(),
            lent: Lent::default(),
            services: Slab::new(),
            clients: Slab::new(),
            requests: Slab::new(),
            client_work: Slab::new(),
            locks: Slab::new(),
            stats,
            obs: Obs::off(),
        }
    }

    // ------------------------------------------------------------------
    // Deployment API
    // ------------------------------------------------------------------

    /// Deploy a service on a node.
    pub fn add_service(
        &mut self,
        node: NodeId,
        config: ServiceConfig,
        svc: Box<dyn Service>,
        eng: &mut Eng,
    ) -> SvcKey {
        let conns = FifoTokens::bounded(config.conn_capacity, config.backlog);
        let workers = config.workers.map(FifoTokens::new);
        let rng = eng.rng.fork(self.services.len() as u64 + 1000);
        self.services.insert(ServiceSlot {
            node,
            config,
            stats: Default::default(),
            svc: Some(svc),
            conns,
            workers,
            rng,
            down: false,
            frozen_until: SimTime::ZERO,
            dropping_until: SimTime::ZERO,
        })
    }

    /// Register a client.
    pub fn add_client(&mut self, client: Box<dyn Client>) -> ClientKey {
        self.clients.insert(client)
    }

    /// Register a FIFO lock (e.g. a database critical section).
    pub fn add_lock(&mut self, tokens: u32) -> LockKey {
        self.locks.insert(FifoTokens::new(tokens))
    }

    /// Kick off the simulation: schedule `on_start` for every client at
    /// t = 0 (in registration order).
    pub fn start(&mut self, eng: &mut Eng) {
        for key in self.clients.keys() {
            eng.schedule_at(SimTime::ZERO, NetEvent::ClientStart(key));
        }
    }

    /// Start a single client that was added after [`Net::start`] ran.
    pub fn start_client(&mut self, eng: &mut Eng, key: ClientKey) {
        eng.schedule_in(SimDuration::ZERO, NetEvent::ClientStart(key));
    }

    /// Give a service an initial timer (e.g. a periodic advertise loop)
    /// before the simulation starts.
    pub fn prime_service_timer(&mut self, eng: &mut Eng, svc: SvcKey, dur: SimDuration, tag: u64) {
        eng.schedule_in(dur, NetEvent::SvcTimer { svc, tag });
    }

    /// Immutable access to a deployed service (downcast by the caller).
    pub fn service(&self, key: SvcKey) -> Option<&dyn Service> {
        self.services.get(key).and_then(|s| s.svc.as_deref())
    }

    /// Downcast a registered client to its concrete type (for inspecting
    /// monitors and user state after a run).
    pub fn client_as<T: 'static>(&self, key: ClientKey) -> Option<&T> {
        self.clients
            .get(key)
            .and_then(|c| c.as_any().downcast_ref())
    }

    /// Downcast a deployed service to its concrete type (for inspection
    /// after a run).
    pub fn service_as<T: 'static>(&self, key: SvcKey) -> Option<&T> {
        self.service(key).and_then(|s| s.as_any().downcast_ref())
    }

    /// Mutable downcast of a deployed service (for test setup; never
    /// call this from inside that service's own callbacks).
    pub fn service_as_mut<T: 'static>(&mut self, key: SvcKey) -> Option<&mut T> {
        let svc = self.services.get_mut(key)?.svc.as_mut()?;
        svc.as_any_mut().downcast_mut()
    }

    pub fn service_node(&self, key: SvcKey) -> NodeId {
        self.services.get(key).expect("service").node
    }

    pub fn service_stats(&self, key: SvcKey) -> &crate::service::ServiceStats {
        &self.services.get(key).expect("service").stats
    }

    /// What the flow network's re-levels have cost so far.
    pub fn flow_work(&self) -> RelevelWork {
        self.flows.work
    }

    /// Everything still live in the world (diagnostics).
    pub fn live(&self) -> Live {
        let mut live = Live {
            requests: self.requests.len(),
            flows: self.flows.active(),
            ..Live::default()
        };
        let pools = self
            .services
            .iter()
            .flat_map(|(_, s)| std::iter::once(&s.conns).chain(&s.workers))
            .chain(self.locks.iter().map(|(_, l)| l));
        for p in pools {
            live.tokens_in_use += p.in_use();
            live.waiters += p.waiting();
        }
        for n in self.topo.node_ids() {
            live.cpu_tasks += self.topo.node(n).cpu.runnable();
        }
        live
    }

    // ------------------------------------------------------------------
    // Observability helpers (no-ops when `obs` is off)
    // ------------------------------------------------------------------

    /// The one place a span changes phase.  Phases partition a span's
    /// lifetime exactly: the segment between consecutive transitions (or
    /// span end) is the time spent in that phase.
    #[inline]
    fn phase(&mut self, now: SimTime, req: ReqKey, phase: Phase) {
        self.obs.ev_with(now, || Ev::SpanPhase {
            span: span_of(req),
            phase,
        });
    }

    /// Report a pool's queue depth: one trace event, one gauge sample.
    fn obs_depth(&mut self, now: SimTime, pool: Pool) {
        if !self.obs.on() {
            return;
        }
        let depth = self.pool_mut(pool).map_or(0, |p| p.waiting() as u32);
        let (ev, gauge, idx) = match pool {
            Pool::Conns(s) => (
                Ev::ConnQueue {
                    svc: s.index,
                    depth,
                },
                "conn_backlog",
                s.index,
            ),
            Pool::Workers(s) => (
                Ev::WorkerQueue {
                    svc: s.index,
                    depth,
                },
                "worker_queue",
                s.index,
            ),
            Pool::Lock(l) => (
                Ev::LockQueue {
                    lock: l.index,
                    depth,
                },
                "lock_queue",
                l.index,
            ),
        };
        self.obs.ev(now, ev);
        if self.obs.metrics_on() {
            self.obs
                .metrics
                .gauge(&format!("{gauge}.{idx}"), now, f64::from(depth));
        }
    }

    /// Every injected fault and every refused connection leaves one trace
    /// instant and one registry count.
    fn mark(&mut self, now: SimTime, counter: &str, ev: Ev) {
        self.obs.ev(now, ev);
        self.obs.incr(counter, 1);
    }

    // ------------------------------------------------------------------
    // Node metrics (read by the ganglia crate)
    // ------------------------------------------------------------------

    /// Instantaneous runnable-task count on a node (what `load1` samples).
    pub fn node_runnable(&self, node: NodeId) -> usize {
        self.topo.node(node).cpu.runnable()
    }

    /// Monotonic busy core-seconds of a node's CPU.
    pub fn node_busy_core_seconds(&mut self, node: NodeId, now: SimTime) -> f64 {
        self.topo.node_mut(node).cpu.busy_core_seconds(now)
    }

    pub fn node_cores(&self, node: NodeId) -> u32 {
        self.topo.node(node).cpu.cores()
    }

    fn with_client(
        &mut self,
        eng: &mut Eng,
        key: ClientKey,
        f: impl FnOnce(&mut dyn Client, &mut ClientCx),
    ) {
        let Some(mut client) = self.clients.take(key) else {
            return;
        };
        {
            let mut cx = ClientCx {
                net: self,
                eng,
                me: key,
            };
            f(client.as_mut(), &mut cx);
        }
        self.clients.put_back(key, client);
    }

    // ------------------------------------------------------------------
    // Request lifecycle
    // ------------------------------------------------------------------

    /// The one way in.  Phase 1 is the SYN exchange, modelled as a small
    /// flow so connection attempts consume bandwidth; a one-way datagram
    /// goes straight to payload transfer.
    pub(crate) fn submit(
        &mut self,
        eng: &mut Eng,
        origin: Origin,
        spec: RequestSpec,
        // When the submitting client began working on this query
        // (burning query-tool CPU on its own node) before this first
        // connection attempt: backdates the span so its phases
        // partition the response time the user records.
        started: Option<SimTime>,
    ) {
        let now = eng.now();
        let state = RequestState {
            origin,
            from: spec.from,
            to: spec.to,
            payload: Some(spec.payload),
            req_bytes: spec.req_bytes,
            submitted: now,
            queued_on: None,
            has_conn: false,
            has_worker: false,
            setup_pending: false,
            held_lock: None,
            plan: PlanState::Steps(VecDeque::new()),
        };
        let parent = match state.origin {
            Origin::Parent { req, .. } => Some(span_of(req)),
            _ => None,
        };
        let (from, to, bytes, oneway) = (state.from, state.to, state.req_bytes, state.oneway());
        let req = self.requests.insert(state);
        let begin = started.filter(|&at| at < now);
        self.obs.ev_with(begin.unwrap_or(now), || Ev::SpanBegin {
            span: span_of(req),
            parent,
            svc: to.index,
            oneway,
        });
        if let Some(at) = begin {
            self.phase(at, req, Phase::ClientCpu);
        }
        let to_node = self.service_node(to);
        if oneway {
            self.phase(now, req, Phase::ReqFlow);
            self.start_flow(eng, from, to_node, bytes, pack(FK_REQ, req));
        } else {
            self.phase(now, req, Phase::SynFlow);
            self.start_flow(eng, from, to_node, SYN_BYTES, pack(FK_SYN, req));
        }
    }

    /// A one-way message from a service: no connection, no response.
    fn send_oneway(
        &mut self,
        eng: &mut Eng,
        from: SvcKey,
        to: SvcKey,
        payload: Payload,
        bytes: u64,
    ) {
        let spec = RequestSpec {
            from: self.service_node(from),
            to,
            payload,
            req_bytes: bytes,
        };
        self.submit(eng, Origin::None, spec, None);
    }

    /// SYN arrived at the server: try to enter the accept pool.
    fn syn_arrived(&mut self, eng: &mut Eng, req: ReqKey) {
        let now = eng.now();
        let to = self.requests.get(req).expect("request").to;
        let slot = self.services.get(to).expect("service");
        // Fault injection: a crashed host sends RSTs (well, its kernel is
        // gone — the client's SYN times out; we model the cheap variant),
        // and a drop burst refuses every attempt while it lasts.
        let admitted = if slot.down || now < slot.dropping_until {
            Acquire::Rejected
        } else {
            self.acquire(now, req, Pool::Conns(to))
        };
        match admitted {
            Acquire::Granted => self.begin_handshake(eng, req),
            Acquire::Queued => {}
            Acquire::Rejected => {
                self.services
                    .get_mut(to)
                    .expect("service")
                    .stats
                    .conns_refused += 1;
                self.mark(now, "net.conn_refused", Ev::ConnDrop { svc: to.index });
                self.fail_request(eng, req, Outcome::Refused);
            }
        }
    }

    /// Phase 2: handshake — 1 RTT for TCP plus the service's session-setup
    /// extras (GSI rounds, credential checks).
    fn begin_handshake(&mut self, eng: &mut Eng, req: ReqKey) {
        let r = self.requests.get(req).expect("request");
        let (to, from) = (r.to, r.from);
        self.phase(eng.now(), req, Phase::Handshake);
        let slot = self.services.get(to).expect("service");
        let (setup, node) = (slot.config.setup, slot.node);
        if setup.extra_rtts > 0.0 {
            // Session setup beyond plain TCP: GSI/TLS exchanges.
            self.mark(
                eng.now(),
                "gsi.handshakes",
                Ev::GsiHandshake { svc: to.index },
            );
        }
        let rtt = self.topo.rtt(from, node);
        let delay = rtt.mul_f64(1.0 + setup.extra_rtts) + setup.fixed;
        eng.schedule_in(delay, NetEvent::SendRequest(req));
    }

    /// Phase 3: transfer the request body.
    fn send_request(&mut self, eng: &mut Eng, req: ReqKey) {
        let r = self.requests.get(req).expect("request");
        let (from, to_node, bytes) = (r.from, self.service_node(r.to), r.req_bytes);
        self.phase(eng.now(), req, Phase::ReqFlow);
        self.start_flow(eng, from, to_node, bytes, pack(FK_REQ, req));
    }

    /// Phase 4: request body received — acquire a worker, then plan.
    fn request_arrived(&mut self, eng: &mut Eng, req: ReqKey) {
        let r = self.requests.get(req).expect("request");
        let (to, oneway) = (r.to, r.oneway());
        let slot = self.services.get_mut(to).expect("service");
        if slot.down {
            // Fault injection: one-way datagrams to a crashed host vanish
            // (connection-oriented requests were already aborted or refused
            // at admission).
            self.fail_request(eng, req, Outcome::Refused);
            return;
        }
        if oneway {
            // One-way messages bypass the worker pool (they are handled by
            // the server's event loop; their CPU demand still contends).
            slot.stats.oneways_received += 1;
        } else if slot.workers.is_some()
            && self.acquire(eng.now(), req, Pool::Workers(to)) != Acquire::Granted
        {
            return;
        }
        self.start_plan(eng, req);
    }

    /// Phase 5: ask the service for its plan and start executing.
    fn start_plan(&mut self, eng: &mut Eng, req: ReqKey) {
        let r = self.requests.get_mut(req).expect("request");
        let (to, payload, oneway) = (r.to, r.payload.take().expect("payload"), r.oneway());
        let slot = self.services.get_mut(to).expect("service");
        slot.stats.requests_handled += 1;
        let setup = !oneway && slot.config.setup.server_cpu_us > 0.0;
        let frozen_until = slot.frozen_until;
        let plan = self.with_service(eng, to, |svc, cx| svc.handle(payload, cx));
        let r = self.requests.get_mut(req).expect("request");
        r.plan = PlanState::Steps(plan.steps.into());
        r.setup_pending = setup;
        // Fault injection: a frozen process makes no progress until it
        // thaws; the whole request stalls behind the remaining pause.
        let now = eng.now();
        if frozen_until > now {
            self.wait(eng, req, frozen_until.saturating_since(now));
            return;
        }
        self.advance_steps(eng, req);
    }

    /// Execute steps until the request blocks or finishes: first the
    /// session setup, then the plan's own.
    fn advance_steps(&mut self, eng: &mut Eng, req: ReqKey) {
        let now = eng.now();
        loop {
            let r = self.requests.get_mut(req).expect("request");
            let to = r.to;
            if std::mem::take(&mut r.setup_pending) {
                let us = self
                    .services
                    .get(to)
                    .expect("service")
                    .config
                    .setup
                    .server_cpu_us;
                self.run_cpu(eng, req, to, us);
                return;
            }
            let PlanState::Steps(steps) = &mut r.plan else {
                unreachable!("a plan resumes only after its sub-calls are in");
            };
            let Some(step) = steps.pop_front() else {
                // Plan exhausted without Reply: end of a one-way (or a
                // service that chose not to respond — treated as done).
                self.end_without_reply(eng, req);
                return;
            };
            if steps.is_empty() {
                // The plan's last step: its list goes back now, not when
                // the response has crossed the network.
                self.lent.steps.put(std::mem::take(steps).into());
            }
            match step {
                Step::Cpu(us) => {
                    self.run_cpu(eng, req, to, us);
                    return;
                }
                Step::Latency(d) => {
                    self.wait(eng, req, d);
                    return;
                }
                Step::Lock(l) => {
                    if self.acquire(now, req, Pool::Lock(l)) != Acquire::Granted {
                        // Queued: `grant` marks the lock held and resumes
                        // the plan at the next step.
                        return;
                    }
                }
                Step::Unlock(l) => {
                    // Only the holder's unlock passes the lock on.
                    if r.held_lock == Some(l) {
                        r.held_lock = None;
                        self.grant(eng, Pool::Lock(l));
                    } else {
                        debug_assert!(false, "unlock of a lock not held");
                    }
                }
                Step::Send {
                    to: dest,
                    payload,
                    bytes,
                } => {
                    self.send_oneway(eng, to, dest, payload, bytes);
                }
                Step::CallAll { mut calls, cont } => {
                    debug_assert!(steps.is_empty(), "CallAll must be the final step");
                    let n = calls.len();
                    let mut outcomes = self.lent.outcomes.take();
                    outcomes.reserve_exact(n);
                    r.plan = PlanState::Calls(PendingCalls {
                        cont,
                        outcomes,
                        remaining: n as u32,
                    });
                    self.phase(now, req, Phase::Children);
                    if n == 0 {
                        // Degenerate fan-out: resume on a zero-delay event to
                        // preserve "no synchronous callback" discipline.
                        eng.schedule_in(SimDuration::ZERO, NetEvent::ResumeParent(req));
                    }
                    let from = self.service_node(to);
                    for (i, call) in calls.drain(..).enumerate() {
                        let SubCall {
                            to,
                            payload,
                            req_bytes,
                        } = call;
                        let origin = Origin::Parent {
                            req,
                            index: i as u32,
                        };
                        let spec = RequestSpec {
                            from,
                            to,
                            payload,
                            req_bytes,
                        };
                        self.submit(eng, origin, spec, None);
                    }
                    self.lent.calls.put(calls);
                    return;
                }
                Step::Fail => {
                    debug_assert!(steps.is_empty(), "Fail must be the final step");
                    // A held lock goes back with the worker and the connection.
                    self.fail_request(eng, req, Outcome::Failed);
                    return;
                }
                Step::Reply { payload, bytes } => {
                    debug_assert!(steps.is_empty(), "Reply must be the final step");
                    debug_assert!(
                        r.held_lock.is_none(),
                        "reply while holding a lock — add an Unlock step"
                    );
                    if r.oneway() {
                        // One-ways cannot reply; drop the payload.
                        drop(payload);
                        self.end_without_reply(eng, req);
                        return;
                    }
                    r.payload = Some(payload);
                    r.req_bytes = bytes; // reuse field for response size
                    let from = r.from;
                    // The worker is done once the response is handed to the
                    // kernel... in reality the thread blocks on the write;
                    // holding the worker during the response transfer is what
                    // makes saturated networks back up into the thread pool.
                    let slot = self.services.get_mut(to).expect("service");
                    slot.stats.replies_sent += 1;
                    let to_node = slot.node;
                    self.phase(now, req, Phase::RespFlow);
                    self.start_flow(eng, to_node, from, bytes, pack(FK_RESP, req));
                    return;
                }
            }
        }
    }

    /// Run `us` reference-CPU microseconds of `req` on the host of its
    /// service `to`.
    fn run_cpu(&mut self, eng: &mut Eng, req: ReqKey, to: SvcKey, us: f64) {
        let now = eng.now();
        let node = self.service_node(to);
        self.phase(now, req, Phase::ServerCpu);
        self.obs.ev_with(now, || Ev::CpuGrant {
            node: node.0,
            span: span_of(req),
        });
        self.submit_cpu(eng, node, us, req_ticket(req));
    }

    /// Stall `req` for `d` without holding a shared resource.
    fn wait(&mut self, eng: &mut Eng, req: ReqKey, d: SimDuration) {
        self.phase(eng.now(), req, Phase::Backend);
        eng.schedule_in(d, NetEvent::LatencyDone(req));
    }

    /// Run a service callback with the take/put-back discipline, then
    /// apply the timers and one-way messages it asked for.
    fn with_service<T>(
        &mut self,
        eng: &mut Eng,
        key: SvcKey,
        f: impl FnOnce(&mut dyn Service, &mut SvcCx) -> T,
    ) -> T {
        let slot = self.services.get_mut(key).expect("service");
        let mut svc = slot.svc.take().expect("service reentrancy");
        let mut rng = slot.rng.clone();
        let out = {
            let mut cx = SvcCx {
                now: eng.now(),
                me: key,
                rng: &mut rng,
                obs: &mut self.obs,
                lent: &mut self.lent,
            };
            f(svc.as_mut(), &mut cx)
        };
        let slot = self.services.get_mut(key).expect("service");
        slot.rng = rng;
        slot.svc = Some(svc);
        let mut actions = std::mem::take(&mut self.lent.actions);
        for a in actions.drain(..) {
            match a {
                SvcAction::Timer { dur, tag } => {
                    eng.schedule_in(dur, NetEvent::SvcTimer { svc: key, tag });
                }
                SvcAction::OneWay { to, payload, bytes } => {
                    self.send_oneway(eng, key, to, payload, bytes);
                }
            }
        }
        self.lent.put_actions(actions);
        out
    }

    fn svc_timer(&mut self, eng: &mut Eng, svc: SvcKey, tag: u64) {
        let Some(slot) = self.services.get(svc) else {
            return;
        };
        // Fault injection: a crashed process loses its timer chains (the
        // fault driver re-primes them on restart), and a frozen one fires
        // them only after the thaw.
        if slot.down {
            return;
        }
        if slot.frozen_until > eng.now() {
            let due = slot.frozen_until;
            eng.schedule_at(due, NetEvent::SvcTimer { svc, tag });
            return;
        }
        self.with_service(eng, svc, |s, cx| s.on_timer(tag, cx));
    }

    /// A sub-call finished (or failed); if all siblings are done, resume the
    /// parent service.  The parent may have been aborted meanwhile.
    fn child_done(
        &mut self,
        eng: &mut Eng,
        parent: ReqKey,
        index: u32,
        response: Option<(Payload, u64)>,
    ) {
        let Some(r) = self.requests.get_mut(parent) else {
            return;
        };
        let PlanState::Calls(p) = &mut r.plan else {
            debug_assert!(false, "child completion without pending calls");
            return;
        };
        p.outcomes.push(CallOutcome { index, response });
        p.remaining -= 1;
        if p.remaining == 0 {
            self.resume_parent(eng, parent);
        }
    }

    fn resume_parent(&mut self, eng: &mut Eng, parent: ReqKey) {
        let r = self.requests.get_mut(parent).expect("request");
        let PlanState::Calls(PendingCalls {
            cont, mut outcomes, ..
        }) = std::mem::replace(&mut r.plan, PlanState::Steps(VecDeque::new()))
        else {
            unreachable!("resumed without pending calls");
        };
        // Indices are distinct: the unstable sort is the stable order,
        // without a stable sort's scratch buffer.
        outcomes.sort_unstable_by_key(|o| o.index);
        let to = r.to;
        let plan = self.with_service(eng, to, |svc, cx| svc.resume(cont, &mut outcomes, cx));
        self.lent.outcomes.put(outcomes);
        self.requests.get_mut(parent).expect("request").plan = PlanState::Steps(plan.steps.into());
        self.advance_steps(eng, parent);
    }

    // ------------------------------------------------------------------
    // Token pools: connections, workers, locks
    // ------------------------------------------------------------------

    fn pool_mut(&mut self, pool: Pool) -> Option<&mut FifoTokens> {
        match pool {
            Pool::Conns(svc) => self.services.get_mut(svc).map(|s| &mut s.conns),
            Pool::Workers(svc) => self.services.get_mut(svc).and_then(|s| s.workers.as_mut()),
            Pool::Lock(l) => self.locks.get_mut(l),
        }
    }

    /// Ask `pool` for a token.  Granted: the request owns it from here
    /// on.  Queued: the request remembers the pool, enters the matching
    /// wait phase, and [`Net::grant`] resumes it when its turn comes.
    fn acquire(&mut self, now: SimTime, req: ReqKey, pool: Pool) -> Acquire {
        let outcome = self.pool_mut(pool).expect("pool").acquire(req_ticket(req));
        let r = self.requests.get_mut(req).expect("request");
        match outcome {
            Acquire::Granted => r.own(pool),
            Acquire::Queued => {
                r.queued_on = Some(pool);
                let waiting = match pool {
                    Pool::Conns(_) => Phase::ConnQueue,
                    Pool::Workers(_) => Phase::WorkerQueue,
                    Pool::Lock(_) => Phase::DbLock,
                };
                self.phase(now, req, waiting);
                self.obs_depth(now, pool);
            }
            Acquire::Rejected => {}
        }
        outcome
    }

    /// Give one token of `pool` back: it passes to the next live waiter
    /// (skipping any that died while queued), which resumes on a
    /// zero-delay event, or returns to the pool.
    fn grant(&mut self, eng: &mut Eng, pool: Pool) {
        let now = eng.now();
        while let Some(ticket) = self.pool_mut(pool).and_then(FifoTokens::release) {
            let granted = ticket_req(ticket);
            let Some(r) = self.requests.get_mut(granted) else {
                continue;
            };
            // Ownership is marked at grant time so an abort between the
            // grant and the resume event releases the token instead of
            // leaking it.
            r.queued_on = None;
            r.own(pool);
            let resume = match pool {
                Pool::Conns(_) => NetEvent::BeginHandshake(granted),
                Pool::Workers(_) => NetEvent::StartPlan(granted),
                Pool::Lock(_) => {
                    // The plan continues with whatever step follows the
                    // Lock, which need not announce a phase of its own.
                    self.phase(now, granted, Phase::ServerCpu);
                    NetEvent::AdvanceSteps(granted)
                }
            };
            self.obs_depth(now, pool);
            eng.schedule_in(SimDuration::ZERO, resume);
            return;
        }
    }

    /// Release conn/worker/locks held by a request that is done at the
    /// server.
    fn release_server_side(&mut self, eng: &mut Eng, req: ReqKey) {
        let r = self.requests.get_mut(req).expect("request");
        let (to, has_conn, has_worker, lock) = (
            r.to,
            std::mem::take(&mut r.has_conn),
            std::mem::take(&mut r.has_worker),
            r.held_lock.take(),
        );
        if let Some(l) = lock {
            self.grant(eng, Pool::Lock(l));
        }
        if has_worker {
            self.grant(eng, Pool::Workers(to));
        }
        if has_conn {
            self.grant(eng, Pool::Conns(to));
        }
    }

    // ------------------------------------------------------------------
    // The ways out
    // ------------------------------------------------------------------

    /// Done at the server (response transferred, refused or failed):
    /// release server-side resources now; `ev` finishes the request at the
    /// requester after the path's propagation latency.
    fn leave_server(&mut self, eng: &mut Eng, req: ReqKey, ev: NetEvent) {
        let r = self.requests.get(req).expect("request");
        let latency = self.topo.one_way_latency(self.service_node(r.to), r.from);
        self.release_server_side(eng, req);
        eng.schedule_in(latency, ev);
    }

    /// Refusal / failure path.
    fn fail_request(&mut self, eng: &mut Eng, req: ReqKey, how: Outcome) {
        self.leave_server(eng, req, NetEvent::DeliverFailure { req, how });
    }

    /// The plan ran out without a Reply.  That only makes sense for
    /// one-ways; anyone waiting is told of a failure so they aren't left
    /// hanging.
    fn end_without_reply(&mut self, eng: &mut Eng, req: ReqKey) {
        let how = if self.requests.get(req).expect("request").oneway() {
            Outcome::Ok
        } else {
            Outcome::Failed
        };
        self.release_server_side(eng, req);
        self.finish(eng, req, how);
    }

    /// Abort one in-flight request *now*: pull it out of the wait queue it
    /// is in, release what it holds, and notify its origin of failure
    /// synchronously.  Unlike [`Net::fail_request`] there is no delayed
    /// removal — fault aborts must leave no half-dead request behind.
    /// (An earlier victim's abort may already have ended this one.)
    fn abort_request(&mut self, eng: &mut Eng, req: ReqKey) {
        let Some(r) = self.requests.get_mut(req) else {
            return;
        };
        if let Some(pool) = r.queued_on.take() {
            if let Some(p) = self.pool_mut(pool) {
                p.remove_waiter(req_ticket(req));
            }
        }
        self.release_server_side(eng, req);
        self.finish(eng, req, Outcome::Failed);
    }

    /// The one way out: remove the request, end its span, and tell
    /// whoever waits for it.  A response exists only when `how` is `Ok`
    /// and the plan replied.
    fn finish(&mut self, eng: &mut Eng, req: ReqKey, how: Outcome) {
        let now = eng.now();
        let state = self.requests.remove(req).expect("request");
        // An aborted request still has its plan's lent list.
        match state.plan {
            PlanState::Steps(steps) => self.lent.steps.put(steps.into()),
            PlanState::Calls(p) => self.lent.outcomes.put(p.outcomes),
        }
        self.obs.ev_with(now, || Ev::SpanEnd {
            span: span_of(req),
            outcome: how,
        });
        let response = match how {
            Outcome::Ok => state.payload.map(|p| (p, state.req_bytes)),
            _ => None,
        };
        match state.origin {
            Origin::Client { key, tag } => {
                let result = match response {
                    Some((payload, bytes)) => {
                        if self.obs.metrics_on() {
                            let rt = now.saturating_since(state.submitted).as_micros() as f64;
                            self.obs.observe("net.rt_us", rt);
                        }
                        ReqResult::Ok(payload, bytes)
                    }
                    None if how == Outcome::Refused => ReqResult::Refused,
                    None => ReqResult::Failed,
                };
                let outcome = ReqOutcome {
                    tag,
                    result,
                    submitted: state.submitted,
                    completed: now,
                };
                self.with_client(eng, key, |c, cx| c.on_outcome(outcome, cx));
            }
            Origin::Parent { req: parent, index } => {
                self.child_done(eng, parent, index, response);
            }
            Origin::None => {}
        }
    }

    // ------------------------------------------------------------------
    // Fault injection (driven by gfaults::FaultDriver)
    // ------------------------------------------------------------------

    /// Is the service's host process currently crashed?
    pub fn service_down(&self, svc: SvcKey) -> bool {
        self.services.get(svc).is_some_and(|s| s.down)
    }

    /// Crash a service's host process: every in-flight request targeting it
    /// aborts (its requester sees a failure, as with a TCP reset), new
    /// connections are refused, and its timer chains go silent until
    /// [`Net::restart_service`].  The service object itself keeps its state —
    /// restart models a process reboot on the same host, and protocol-level
    /// recovery (re-registration, heartbeats) runs through each service's
    /// own soft-state machinery.
    pub fn crash_service(&mut self, eng: &mut Eng, svc: SvcKey) {
        match self.services.get_mut(svc) {
            Some(slot) if !slot.down => slot.down = true,
            _ => return,
        }
        self.mark(
            eng.now(),
            "fault.crashes",
            Ev::FaultCrash { svc: svc.index },
        );
        let victims: Vec<ReqKey> = self
            .requests
            .iter()
            .filter(|(_, r)| r.to == svc)
            .map(|(k, _)| k)
            .collect();
        for k in victims {
            self.abort_request(eng, k);
        }
    }

    /// Bring a crashed service back up with empty accept/worker pools
    /// (whatever the dead process held is gone).  The fault driver re-primes
    /// the service's timers so periodic soft-state traffic resumes.
    pub fn restart_service(&mut self, eng: &mut Eng, svc: SvcKey) {
        match self.services.get_mut(svc) {
            Some(slot) if slot.down => {
                slot.down = false;
                slot.conns = FifoTokens::bounded(slot.config.conn_capacity, slot.config.backlog);
                slot.workers = slot.config.workers.map(FifoTokens::new);
            }
            _ => return,
        }
        self.mark(
            eng.now(),
            "fault.restarts",
            Ev::FaultRestart { svc: svc.index },
        );
    }

    /// Freeze a service until `until` (a GC-pause-style stall): plans started
    /// during the freeze stall for its remainder, timers defer to the thaw.
    pub fn freeze_service(&mut self, eng: &mut Eng, svc: SvcKey, until: SimTime) {
        let Some(slot) = self.services.get_mut(svc) else {
            return;
        };
        slot.frozen_until = slot.frozen_until.max(until);
        self.mark(
            eng.now(),
            "fault.freezes",
            Ev::FaultFreeze { svc: svc.index },
        );
    }

    /// Force-drop every new connection attempt at a service until `until`
    /// (a SYN-drop burst: the process stays up, clients see refusals).
    pub fn drop_conns_until(&mut self, eng: &mut Eng, svc: SvcKey, until: SimTime) {
        let Some(slot) = self.services.get_mut(svc) else {
            return;
        };
        slot.dropping_until = slot.dropping_until.max(until);
        self.mark(
            eng.now(),
            "fault.conn_bursts",
            Ev::FaultDropBurst { svc: svc.index },
        );
    }

    /// Change a link's capacity mid-run and re-share the active flows.
    /// A partition degrades a link to ~1 bit/s (in-flight transfers stall
    /// until the heal restores the original capacity); capacities must stay
    /// positive.  Emits a partition instant when capacity shrinks, a heal
    /// instant when it grows.
    pub fn set_link_capacity(&mut self, eng: &mut Eng, link: LinkId, bps: f64) {
        assert!(bps > 0.0, "link capacity must stay positive");
        self.flow_step(eng, |net, now| {
            let old = std::mem::replace(&mut net.topo.link_mut(link).capacity_bps, bps);
            net.flows.capacity_changed(&net.topo);
            if bps < old {
                net.mark(now, "fault.partitions", Ev::FaultPartition { link: link.0 });
            } else {
                net.mark(now, "fault.heals", Ev::FaultHeal { link: link.0 });
            }
        });
    }

    // ------------------------------------------------------------------
    // Resource event plumbing
    // ------------------------------------------------------------------

    /// The one step the flow network takes: advance every flow to now
    /// (collecting those that finish exactly now, so their completions
    /// are not lost), apply `mutate`, report the new rate vector, re-arm
    /// the single `FlowTick`, then dispatch the completions.  Dispatch
    /// re-enters this function (`flow_done` → … → `start_flow`), so the
    /// completion buffer is out of `self` until the last one is handled:
    /// the nested step finds an empty one.
    fn flow_step(&mut self, eng: &mut Eng, mutate: impl FnOnce(&mut Net, SimTime)) {
        let now = eng.now();
        let mut done = std::mem::take(&mut self.flows_done);
        self.flows.advance_into(&self.topo, now, &mut done);
        mutate(self, now);
        if self.obs.tracing() {
            let Net { flows, obs, .. } = self;
            flows.for_each_rate(|flow, rate| {
                let bps = rate * 1e6;
                obs.ev(now, Ev::FlowRate { flow, bps });
            });
        }
        eng.cancel(self.flow_event);
        self.flow_event = match self.flows.next_completion(now) {
            Some(t) => eng.schedule_at(t, NetEvent::FlowTick),
            None => EventHandle::NULL,
        };
        for &token in &done {
            self.flow_done(eng, token);
        }
        done.clear();
        self.flows_done = done;
    }

    fn start_flow(&mut self, eng: &mut Eng, from: NodeId, to: NodeId, bytes: u64, token: u64) {
        self.flow_step(eng, |net, now| {
            let path = Rc::clone(net.topo.shared_route(from, to));
            net.flows.start(&net.topo, now, path, bytes, token);
            net.obs.ev(now, Ev::FlowStart { flow: token, bytes });
        });
    }

    fn flow_done(&mut self, eng: &mut Eng, token: u64) {
        self.obs.ev(eng.now(), Ev::FlowEnd { flow: token });
        let (kind, req) = unpack(token);
        let Some(r) = self.requests.get(req) else {
            return;
        };
        match kind {
            FK_SYN | FK_REQ => {
                // Transfer done; add propagation latency, then admission
                // (SYN) or the worker pool (request body).
                let latency = self.topo.one_way_latency(r.from, self.service_node(r.to));
                let arrived = if kind == FK_SYN {
                    NetEvent::SynArrived(req)
                } else {
                    NetEvent::RequestArrived(req)
                };
                eng.schedule_in(latency, arrived);
            }
            FK_RESP => self.leave_server(eng, req, NetEvent::DeliverResponse(req)),
            _ => debug_assert!(false, "unknown flow token kind {kind}"),
        }
    }

    fn cpu_tick(&mut self, eng: &mut Eng, node: NodeId) {
        let now = eng.now();
        let mut done = std::mem::take(&mut self.cpus_done);
        self.topo.node_mut(node).cpu.advance_into(now, &mut done);
        self.resched_cpu(eng, node);
        for &token in &done {
            let (kind, key) = unpack(token);
            match kind {
                CK_REQUEST => {
                    if self.requests.contains(key) {
                        self.obs.ev_with(now, || Ev::CpuDone {
                            node: node.0,
                            span: span_of(key),
                        });
                        self.advance_steps(eng, key);
                    }
                }
                CK_CLIENT_WORK => {
                    if let Some((client, tag)) = self.client_work.remove(key) {
                        self.with_client(eng, client, |c, cx| c.on_wake(tag, cx));
                    }
                }
                _ => debug_assert!(false, "unknown CPU token kind {kind}"),
            }
        }
        done.clear();
        self.cpus_done = done;
    }

    /// Submit client-side CPU work (the user script forking its query
    /// tool); the client's `on_wake(tag)` fires when it completes.
    pub(crate) fn client_cpu(
        &mut self,
        eng: &mut Eng,
        client: ClientKey,
        node: NodeId,
        work_us: f64,
        tag: u64,
    ) {
        let key = self.client_work.insert((client, tag));
        self.submit_cpu(eng, node, work_us, pack(CK_CLIENT_WORK, key));
    }

    /// The one step a CPU takes when work arrives: add the task (which
    /// advances the accounting to now) and re-arm the node's `CpuTick`.
    /// A task that finishes at this very instant stays in the CPU and is
    /// collected by the re-armed tick.
    fn submit_cpu(&mut self, eng: &mut Eng, node: NodeId, work_us: f64, ticket: u64) {
        let now = eng.now();
        self.topo.node_mut(node).cpu.submit(now, work_us, ticket);
        self.resched_cpu(eng, node);
    }

    fn resched_cpu(&mut self, eng: &mut Eng, node: NodeId) {
        let handle = self.topo.node(node).cpu_event;
        eng.cancel(handle);
        let next = self.topo.node(node).cpu.next_completion(eng.now());
        self.topo.node_mut(node).cpu_event = match next {
            Some(t) => eng.schedule_at(t, NetEvent::CpuTick(node)),
            None => EventHandle::NULL,
        };
        if self.obs.on() {
            let now = eng.now();
            let runnable = self.topo.node(node).cpu.runnable() as u32;
            self.obs.ev(
                now,
                Ev::CpuResched {
                    node: node.0,
                    runnable,
                },
            );
            if self.obs.metrics_on() {
                let name = format!("cpu.{}.runnable", self.topo.node(node).name);
                self.obs.metrics.gauge(&name, now, f64::from(runnable));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Plan, SetupCost};
    use std::rc::Rc;

    /// Echo service: fixed CPU cost, replies with the request string.
    struct Echo {
        cpu_us: f64,
    }

    impl Service for Echo {
        fn handle(&mut self, req: Payload, _cx: &mut SvcCx) -> Plan {
            let msg = req.downcast::<String>().expect("string payload");
            Plan::new()
                .cpu(self.cpu_us)
                .reply(Rc::new(format!("echo:{msg}")), 256)
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    /// One-shot client: sends one request at start, records the outcome.
    struct OneShot {
        from: NodeId,
        to: SvcKey,
        got: std::rc::Rc<std::cell::RefCell<Vec<(String, f64)>>>,
    }

    impl Client for OneShot {
        fn on_start(&mut self, cx: &mut ClientCx) {
            cx.submit(
                RequestSpec {
                    from: self.from,
                    to: self.to,
                    payload: Rc::new(String::from("hi")),
                    req_bytes: 512,
                },
                1,
            );
        }
        fn on_outcome(&mut self, outcome: ReqOutcome, _cx: &mut ClientCx) {
            if let ReqResult::Ok(p, _) = outcome.result {
                let s = String::clone(&p.downcast::<String>().unwrap());
                let rt = (outcome.completed - outcome.submitted).as_secs_f64();
                self.got.borrow_mut().push((s, rt));
            } else {
                self.got.borrow_mut().push((String::from("FAIL"), 0.0));
            }
        }
    }

    fn two_node_net() -> (Net, Eng, NodeId, NodeId) {
        let mut topo = Topology::new();
        let a = topo.add_node("client", 1, 1.0);
        let b = topo.add_node("server", 2, 1.0);
        topo.connect(a, b, 100e6, SimDuration::from_micros(500));
        let stats = StatsHub::new(SimTime::ZERO, SimTime::from_secs(1000));
        let net = Net::new(topo, stats);
        let eng: Eng = Engine::new(7);
        (net, eng, a, b)
    }

    #[test]
    fn request_response_round_trip() {
        let (mut net, mut eng, a, b) = two_node_net();
        let svc = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Echo { cpu_us: 1000.0 }),
            &mut eng,
        );
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(OneShot {
            from: a,
            to: svc,
            got: got.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(10));
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, "echo:hi");
        // RT must include at least 2 RTTs (~2ms) + 1ms CPU.
        assert!(got[0].1 > 0.003, "rt {}", got[0].1);
        assert!(got[0].1 < 0.1, "rt {}", got[0].1);
        assert_eq!(net.live().requests, 0);
        assert_eq!(net.service_stats(svc).replies_sent, 1);
    }

    #[test]
    fn setup_cost_adds_fixed_latency() {
        let (mut net, mut eng, a, b) = two_node_net();
        let cfg = ServiceConfig {
            setup: SetupCost {
                extra_rtts: 2.0,
                fixed: SimDuration::from_secs(2),
                server_cpu_us: 100.0,
            },
            ..ServiceConfig::default()
        };
        let svc = net.add_service(b, cfg, Box::new(Echo { cpu_us: 100.0 }), &mut eng);
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(OneShot {
            from: a,
            to: svc,
            got: got.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(10));
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        assert!(
            got[0].1 > 2.0,
            "rt {} should include GSI-like fixed cost",
            got[0].1
        );
        assert!(got[0].1 < 2.2);
    }

    /// Client that fires `n` requests at once (tests conn admission).
    struct Burst {
        from: NodeId,
        to: SvcKey,
        n: u32,
        ok: std::rc::Rc<std::cell::RefCell<(u32, u32)>>, // (ok, refused)
    }

    impl Client for Burst {
        fn on_start(&mut self, cx: &mut ClientCx) {
            for i in 0..self.n {
                cx.submit(
                    RequestSpec {
                        from: self.from,
                        to: self.to,
                        payload: Rc::new(String::from("x")),
                        req_bytes: 200,
                    },
                    i as u64,
                );
            }
        }
        fn on_outcome(&mut self, outcome: ReqOutcome, _cx: &mut ClientCx) {
            let mut s = self.ok.borrow_mut();
            match outcome.result {
                ReqResult::Ok(..) => s.0 += 1,
                _ => s.1 += 1,
            }
        }
    }

    #[test]
    fn admission_refuses_overflow() {
        let (mut net, mut eng, a, b) = two_node_net();
        let cfg = ServiceConfig {
            conn_capacity: 2,
            backlog: 3,
            workers: Some(2),
            setup: SetupCost::plain(),
        };
        let svc = net.add_service(b, cfg, Box::new(Echo { cpu_us: 50_000.0 }), &mut eng);
        let ok = std::rc::Rc::new(std::cell::RefCell::new((0u32, 0u32)));
        net.add_client(Box::new(Burst {
            from: a,
            to: svc,
            n: 20,
            ok: ok.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(60));
        let (ok_n, refused_n) = *ok.borrow();
        assert_eq!(ok_n + refused_n, 20);
        // Only capacity+backlog = 5 can be in the building at once; the
        // burst arrives together so most are refused.
        assert_eq!(ok_n, 5, "refused={refused_n}");
        assert_eq!(net.services.get(svc).unwrap().conns.rejected_total, 15);
        assert_eq!(net.live().requests, 0);
    }

    #[test]
    fn worker_pool_serialises_cpu() {
        // 1 worker, 10ms CPU each, 4 requests => last response ~40ms+.
        let (mut net, mut eng, a, b) = two_node_net();
        let cfg = ServiceConfig {
            conn_capacity: 100,
            backlog: 100,
            workers: Some(1),
            setup: SetupCost::plain(),
        };
        let svc = net.add_service(b, cfg, Box::new(Echo { cpu_us: 10_000.0 }), &mut eng);
        let ok = std::rc::Rc::new(std::cell::RefCell::new((0u32, 0u32)));
        net.add_client(Box::new(Burst {
            from: a,
            to: svc,
            n: 4,
            ok: ok.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(10));
        assert_eq!(ok.borrow().0, 4);
        // With a single worker the four 10ms jobs cannot overlap: total
        // service span >= 40ms. We can't observe per-request times here,
        // but the engine's clock advanced past the serial sum when the last
        // response arrived; verify indirectly via stats (replies == 4).
        assert_eq!(net.service_stats(svc).replies_sent, 4);
    }

    /// A service that fans out to two backends and aggregates.
    struct FanOut {
        backends: Vec<SvcKey>,
    }

    impl Service for FanOut {
        fn handle(&mut self, _req: Payload, _cx: &mut SvcCx) -> Plan {
            let calls = self
                .backends
                .iter()
                .map(|&b| SubCall {
                    to: b,
                    payload: Rc::new(String::from("sub")),
                    req_bytes: 128,
                })
                .collect();
            Plan::new().cpu(100.0).call_all(calls, 42)
        }
        fn resume(&mut self, cont: u64, outcomes: &mut Vec<CallOutcome>, _cx: &mut SvcCx) -> Plan {
            assert_eq!(cont, 42);
            let n_ok = outcomes.iter().filter(|o| o.response.is_some()).count();
            Plan::new()
                .cpu(100.0)
                .reply(Rc::new(format!("agg:{n_ok}")), 512)
        }
        fn name(&self) -> &str {
            "fanout"
        }
    }

    #[test]
    fn fanout_aggregation() {
        let (mut net, mut eng, a, b) = two_node_net();
        let e1 = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Echo { cpu_us: 500.0 }),
            &mut eng,
        );
        let e2 = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Echo { cpu_us: 500.0 }),
            &mut eng,
        );
        let agg = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(FanOut {
                backends: vec![e1, e2],
            }),
            &mut eng,
        );
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(OneShot {
            from: a,
            to: agg,
            got: got.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(10));
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, "agg:2");
        assert_eq!(net.live().requests, 0);
    }

    /// Service with a periodic timer that sends one-ways to a sink.
    struct Beacon {
        sink: SvcKey,
        period: SimDuration,
        sent: u32,
    }

    impl Service for Beacon {
        fn handle(&mut self, _req: Payload, _cx: &mut SvcCx) -> Plan {
            Plan::new().reply_empty()
        }
        fn on_timer(&mut self, _tag: u64, cx: &mut SvcCx) {
            self.sent += 1;
            cx.send_oneway(self.sink, Rc::new(String::from("ad")), 1024);
            if self.sent < 5 {
                cx.set_timer(self.period, 0);
            }
        }
        fn name(&self) -> &str {
            "beacon"
        }
    }

    /// Sink counting one-way messages.
    struct Sink {
        seen: u32,
    }

    impl Service for Sink {
        fn handle(&mut self, _req: Payload, _cx: &mut SvcCx) -> Plan {
            self.seen += 1;
            Plan::new().cpu(50.0).done()
        }
        fn name(&self) -> &str {
            "sink"
        }
    }

    #[test]
    fn timers_and_oneway_messages() {
        let (mut net, mut eng, _a, b) = two_node_net();
        let sink = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Sink { seen: 0 }),
            &mut eng,
        );
        let beacon = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Beacon {
                sink,
                period: SimDuration::from_secs(1),
                sent: 0,
            }),
            &mut eng,
        );
        net.prime_service_timer(&mut eng, beacon, SimDuration::from_secs(1), 0);
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(30));
        let sink_svc: &Sink = net.service_as(sink).expect("downcast");
        assert_eq!(sink_svc.seen, 5);
        assert_eq!(net.service_stats(sink).oneways_received, 5);
        assert_eq!(net.live().requests, 0);
    }

    /// Service exercising locks: two lock-guarded CPU sections.
    struct Locked {
        lock: LockKey,
    }

    impl Service for Locked {
        fn handle(&mut self, _req: Payload, _cx: &mut SvcCx) -> Plan {
            Plan::new()
                .lock(self.lock)
                .cpu(10_000.0)
                .unlock(self.lock)
                .reply(Rc::new(()), 64)
        }
        fn name(&self) -> &str {
            "locked"
        }
    }

    #[test]
    fn lock_serialises_critical_sections() {
        let (mut net, mut eng, a, b) = two_node_net();
        let lock = net.add_lock(1);
        let svc = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Locked { lock }),
            &mut eng,
        );
        let ok = std::rc::Rc::new(std::cell::RefCell::new((0u32, 0u32)));
        net.add_client(Box::new(Burst {
            from: a,
            to: svc,
            n: 3,
            ok: ok.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(10));
        assert_eq!(ok.borrow().0, 3);
        assert_eq!(net.live().requests, 0);
    }

    /// Service that fails every request after consuming some CPU.
    struct Failing;

    impl Service for Failing {
        fn handle(&mut self, _req: Payload, _cx: &mut SvcCx) -> Plan {
            Plan::new().cpu(5_000.0).fail()
        }
        fn name(&self) -> &str {
            "failing"
        }
    }

    #[test]
    fn fail_step_reports_failure_and_releases_resources() {
        let (mut net, mut eng, a, b) = two_node_net();
        let cfg = ServiceConfig {
            conn_capacity: 2,
            backlog: 0,
            workers: Some(1),
            setup: SetupCost::plain(),
        };
        let svc = net.add_service(b, cfg, Box::new(Failing), &mut eng);
        let ok = std::rc::Rc::new(std::cell::RefCell::new((0u32, 0u32)));
        net.add_client(Box::new(Burst {
            from: a,
            to: svc,
            n: 2,
            ok: ok.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(10));
        // Both fit the pool, both fail (Burst counts non-Ok in .1).
        assert_eq!(*ok.borrow(), (0, 2));
        // Conn and worker tokens were released: nothing leaks.
        assert_eq!(net.live().requests, 0);
        // The pool is empty again: a fresh burst is admitted, not refused.
        let ok2 = std::rc::Rc::new(std::cell::RefCell::new((0u32, 0u32)));
        let late = net.add_client(Box::new(Burst {
            from: a,
            to: svc,
            n: 2,
            ok: ok2.clone(),
        }));
        net.start_client(&mut eng, late);
        eng.run_until(&mut net, SimTime::from_secs(20));
        assert_eq!(*ok2.borrow(), (0, 2));
        assert_eq!(net.services.get(svc).unwrap().conns.rejected_total, 0);
    }

    /// Service whose plan sends a one-way notification mid-request, as
    /// the Hawkeye Manager's trigger notifications do.
    struct Notifier {
        sink: SvcKey,
    }

    impl Service for Notifier {
        fn handle(&mut self, _req: Payload, _cx: &mut SvcCx) -> Plan {
            let mut plan = Plan::new().cpu(500.0);
            plan.steps.push(Step::Send {
                to: self.sink,
                payload: Rc::new(String::from("note")),
                bytes: 256,
            });
            plan.reply(Rc::new(()), 64)
        }
        fn name(&self) -> &str {
            "notifier"
        }
    }

    #[test]
    fn send_step_delivers_oneway_while_replying() {
        let (mut net, mut eng, a, b) = two_node_net();
        let sink = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Sink { seen: 0 }),
            &mut eng,
        );
        let svc = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Notifier { sink }),
            &mut eng,
        );
        let ok = std::rc::Rc::new(std::cell::RefCell::new((0u32, 0u32)));
        net.add_client(Box::new(Burst {
            from: a,
            to: svc,
            n: 4,
            ok: ok.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(10));
        assert_eq!(ok.borrow().0, 4);
        let sink_ref: &Sink = net.service_as(sink).unwrap();
        assert_eq!(sink_ref.seen, 4);
        assert_eq!(net.live().requests, 0);
    }

    #[test]
    fn client_cpu_contends_on_the_client_host() {
        // Two client-side jobs on a 1-core host take twice one job's time.
        struct CpuUser {
            node: NodeId,
            jobs: u32,
            finished_at: std::rc::Rc<std::cell::RefCell<Vec<f64>>>,
        }
        impl Client for CpuUser {
            fn on_start(&mut self, cx: &mut ClientCx) {
                for _ in 0..self.jobs {
                    cx.spend_cpu(self.node, 1_000_000.0, 7); // 1 CPU-second
                }
            }
            fn on_wake(&mut self, tag: u64, cx: &mut ClientCx) {
                assert_eq!(tag, 7);
                self.finished_at.borrow_mut().push(cx.now().as_secs_f64());
            }
        }
        let (mut net, mut eng, a, _b) = two_node_net();
        let finished = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(CpuUser {
            node: a,
            jobs: 2,
            finished_at: finished.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(10));
        let f = finished.borrow();
        assert_eq!(f.len(), 2);
        // Processor sharing: both 1s jobs finish together at ~2s.
        assert!((f[0] - 2.0).abs() < 0.01, "{f:?}");
        assert!((f[1] - 2.0).abs() < 0.01, "{f:?}");
    }

    /// Service that fails while holding the database lock: Fail must
    /// release held locks or the service wedges forever.
    struct FailingLocked {
        lock: LockKey,
    }

    impl Service for FailingLocked {
        fn handle(&mut self, _req: Payload, _cx: &mut SvcCx) -> Plan {
            Plan::new().lock(self.lock).cpu(2_000.0).fail()
        }
        fn name(&self) -> &str {
            "failing_locked"
        }
    }

    #[test]
    fn fail_step_releases_held_locks() {
        let (mut net, mut eng, a, b) = two_node_net();
        let lock = net.add_lock(1);
        let bad = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(FailingLocked { lock }),
            &mut eng,
        );
        let good = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Locked { lock }),
            &mut eng,
        );
        let ok_bad = std::rc::Rc::new(std::cell::RefCell::new((0u32, 0u32)));
        net.add_client(Box::new(Burst {
            from: a,
            to: bad,
            n: 3,
            ok: ok_bad.clone(),
        }));
        let ok_good = std::rc::Rc::new(std::cell::RefCell::new((0u32, 0u32)));
        net.add_client(Box::new(Burst {
            from: a,
            to: good,
            n: 2,
            ok: ok_good.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(30));
        // All lock-then-fail requests failed...
        assert_eq!(*ok_bad.borrow(), (0, 3));
        // ...yet the lock kept circulating: the well-behaved service
        // finished its lock-guarded sections.
        assert_eq!(*ok_good.borrow(), (2, 0));
        assert_eq!(net.live().requests, 0);
    }

    /// Service whose plan unlocks a lock it never took.
    struct Rogue {
        lock: LockKey,
    }

    impl Service for Rogue {
        fn handle(&mut self, _req: Payload, cx: &mut SvcCx) -> Plan {
            cx.plan().unlock(self.lock).reply(Rc::new(()), 64)
        }
    }

    /// Two requests queue on a one-token lock held for a second; a third
    /// request, to `Rogue`, unlocks it in the meantime.  Returns the world
    /// half a second in, the lock and the (ok, failed) counts of both
    /// clients.
    #[allow(clippy::type_complexity)]
    fn unlock_without_holding() -> (
        Net,
        Eng,
        LockKey,
        std::rc::Rc<std::cell::RefCell<(u32, u32)>>,
        std::rc::Rc<std::cell::RefCell<(u32, u32)>>,
    ) {
        let (mut net, mut eng, a, b) = two_node_net();
        let lock = net.add_lock(1);
        let slow = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(SlowLocked { lock }),
            &mut eng,
        );
        let rogue = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Rogue { lock }),
            &mut eng,
        );
        let held = std::rc::Rc::new(std::cell::RefCell::new((0u32, 0u32)));
        net.add_client(Box::new(Burst {
            from: a,
            to: slow,
            n: 2,
            ok: held.clone(),
        }));
        let rogue_ok = std::rc::Rc::new(std::cell::RefCell::new((0u32, 0u32)));
        net.add_client(Box::new(Burst {
            from: a,
            to: rogue,
            n: 1,
            ok: rogue_ok.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime(500_000));
        (net, eng, lock, held, rogue_ok)
    }

    /// Holds its lock over one CPU-second.
    struct SlowLocked {
        lock: LockKey,
    }

    impl Service for SlowLocked {
        fn handle(&mut self, _req: Payload, cx: &mut SvcCx) -> Plan {
            cx.plan()
                .lock(self.lock)
                .cpu(1_000_000.0)
                .unlock(self.lock)
                .reply(Rc::new(()), 64)
        }
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn unlock_of_a_lock_not_held_leaves_holder_and_waiter() {
        let (mut net, mut eng, lock, held, rogue_ok) = unlock_without_holding();
        // The rogue was answered, and the lock still has its holder and
        // its waiter: nobody was let in early.
        assert_eq!(*rogue_ok.borrow(), (1, 0));
        let l = net.locks.get(lock).expect("lock");
        assert_eq!((l.in_use(), l.waiting()), (1, 1));
        assert_eq!(*held.borrow(), (0, 0));
        eng.run_until(&mut net, SimTime::from_secs(10));
        assert_eq!(*held.borrow(), (2, 0));
        assert_eq!(net.live(), Live::default());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unlock of a lock not held")]
    fn unlock_of_a_lock_not_held_panics() {
        unlock_without_holding();
    }

    /// Client that retries exactly once, after a delay, when refused.
    struct RetryOnce {
        from: NodeId,
        to: SvcKey,
        log: std::rc::Rc<std::cell::RefCell<Vec<&'static str>>>,
        retried: bool,
    }

    impl RetryOnce {
        fn spec(&self) -> RequestSpec {
            RequestSpec {
                from: self.from,
                to: self.to,
                payload: Rc::new(String::from("r")),
                req_bytes: 256,
            }
        }
    }

    impl Client for RetryOnce {
        fn on_start(&mut self, cx: &mut ClientCx) {
            let spec = self.spec();
            cx.submit(spec, 0);
        }
        fn on_outcome(&mut self, outcome: ReqOutcome, cx: &mut ClientCx) {
            match outcome.result {
                ReqResult::Ok(..) => self.log.borrow_mut().push("ok"),
                ReqResult::Refused => {
                    self.log.borrow_mut().push("refused");
                    if !self.retried {
                        self.retried = true;
                        cx.wake_in(SimDuration::from_secs(30), 9);
                    }
                }
                ReqResult::Failed => self.log.borrow_mut().push("failed"),
            }
        }
        fn on_wake(&mut self, tag: u64, cx: &mut ClientCx) {
            assert_eq!(tag, 9);
            let spec = self.spec();
            cx.submit(spec, 1);
        }
    }

    #[test]
    fn backlog_refusal_then_retry_succeeds() {
        // Saturate a tiny pool with slow requests, have one client retry
        // after the backlog drains: the retry must be admitted and succeed.
        let (mut net, mut eng, a, b) = two_node_net();
        let cfg = ServiceConfig {
            conn_capacity: 1,
            backlog: 1,
            workers: Some(1),
            setup: SetupCost::plain(),
        };
        let svc = net.add_service(
            b,
            cfg,
            Box::new(Echo {
                cpu_us: 1_000_000.0,
            }),
            &mut eng,
        );
        let ok = std::rc::Rc::new(std::cell::RefCell::new((0u32, 0u32)));
        net.add_client(Box::new(Burst {
            from: a,
            to: svc,
            n: 2, // fills capacity + backlog
            ok: ok.clone(),
        }));
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(RetryOnce {
            from: a,
            to: svc,
            log: log.clone(),
            retried: false,
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(120));
        assert_eq!(*ok.borrow(), (2, 0));
        assert_eq!(*log.borrow(), vec!["refused", "ok"]);
        assert_eq!(net.live().requests, 0);
    }

    #[test]
    fn failed_subcall_reaches_resume_as_none() {
        // A fan-out whose second backend fails: resume() must see one Some
        // and one None outcome, not hang or panic.
        let (mut net, mut eng, a, b) = two_node_net();
        let good = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Echo { cpu_us: 500.0 }),
            &mut eng,
        );
        let bad = net.add_service(b, ServiceConfig::default(), Box::new(Failing), &mut eng);
        let agg = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(FanOut {
                backends: vec![good, bad],
            }),
            &mut eng,
        );
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(OneShot {
            from: a,
            to: agg,
            got: got.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(10));
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, "agg:1");
        assert_eq!(net.live().requests, 0);
    }

    // ------------------------------------------------------------------
    // Fault-injection hooks
    // ------------------------------------------------------------------

    #[test]
    fn crash_aborts_inflight_refuses_new_and_restart_recovers() {
        let (mut net, mut eng, a, b) = two_node_net();
        let svc = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Echo { cpu_us: 50_000.0 }),
            &mut eng,
        );
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(OneShot {
            from: a,
            to: svc,
            got: got.clone(),
        }));
        net.start(&mut eng);
        // Let the request reach the server CPU, then pull the plug.
        eng.run_until(&mut net, SimTime(10_000));
        net.crash_service(&mut eng, svc);
        assert!(net.service_down(svc));
        eng.run_until(&mut net, SimTime::from_secs(5));
        assert_eq!(got.borrow().as_slice(), &[(String::from("FAIL"), 0.0)]);
        assert_eq!(
            net.live().requests,
            0,
            "abort must leave no zombie requests"
        );
        // New connection attempts are refused while down.
        let got2 = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let late = net.add_client(Box::new(OneShot {
            from: a,
            to: svc,
            got: got2.clone(),
        }));
        net.start_client(&mut eng, late);
        eng.run_until(&mut net, SimTime::from_secs(10));
        assert_eq!(got2.borrow().as_slice(), &[(String::from("FAIL"), 0.0)]);
        // Restart: the service answers again.
        net.restart_service(&mut eng, svc);
        assert!(!net.service_down(svc));
        let got3 = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let third = net.add_client(Box::new(OneShot {
            from: a,
            to: svc,
            got: got3.clone(),
        }));
        net.start_client(&mut eng, third);
        eng.run_until(&mut net, SimTime::from_secs(20));
        assert_eq!(got3.borrow().len(), 1);
        assert_eq!(got3.borrow()[0].0, "echo:hi");
        assert_eq!(net.live().requests, 0);
    }

    #[test]
    fn freeze_stalls_plans_until_thaw() {
        let (mut net, mut eng, a, b) = two_node_net();
        let svc = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Echo { cpu_us: 1_000.0 }),
            &mut eng,
        );
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(OneShot {
            from: a,
            to: svc,
            got: got.clone(),
        }));
        net.freeze_service(&mut eng, svc, SimTime::from_secs(6));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(30));
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, "echo:hi");
        // The plan started shortly after t=0 and stalled to the thaw at 6s.
        assert!(got[0].1 > 5.5, "rt {} should include the stall", got[0].1);
        assert!(got[0].1 < 7.0, "rt {}", got[0].1);
    }

    #[test]
    fn timer_of_a_frozen_service_rearms_at_the_thaw() {
        let (mut net, mut eng, _a, b) = two_node_net();
        let sink = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Sink { seen: 0 }),
            &mut eng,
        );
        let beacon = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Beacon {
                sink,
                period: SimDuration::from_secs(100),
                sent: 0,
            }),
            &mut eng,
        );
        let sent = |net: &Net| net.service_as::<Beacon>(beacon).expect("downcast").sent;
        let thaw = SimTime::from_secs(6);
        net.freeze_service(&mut eng, beacon, thaw);
        let timer = NetEvent::SvcTimer {
            svc: beacon,
            tag: 0,
        };
        eng.schedule_at(SimTime::from_secs(1), timer);
        // Fires at 1 s, finds the service frozen and puts itself back on
        // the calendar instead of reaching `on_timer`.
        eng.run_until(&mut net, SimTime(thaw.0 - 1));
        assert_eq!(eng.fired, 1);
        assert_eq!(sent(&net), 0);
        // The re-armed copy is due exactly at the thaw.
        eng.run_until(&mut net, thaw);
        assert_eq!(sent(&net), 1);
        eng.run_until(&mut net, SimTime::from_secs(30));
        assert_eq!(net.service_as::<Sink>(sink).expect("downcast").seen, 1);
    }

    #[test]
    fn drop_burst_refuses_then_recovers() {
        let (mut net, mut eng, a, b) = two_node_net();
        let svc = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Echo { cpu_us: 1_000.0 }),
            &mut eng,
        );
        net.drop_conns_until(&mut eng, svc, SimTime::from_secs(5));
        let ok = std::rc::Rc::new(std::cell::RefCell::new((0u32, 0u32)));
        net.add_client(Box::new(Burst {
            from: a,
            to: svc,
            n: 3,
            ok: ok.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(4));
        assert_eq!(*ok.borrow(), (0, 3), "burst arrives inside the drop window");
        assert_eq!(net.service_stats(svc).conns_refused, 3);
        // After the window, connections are admitted normally.
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let late = net.add_client(Box::new(OneShot {
            from: a,
            to: svc,
            got: got.clone(),
        }));
        eng.run_until(&mut net, SimTime::from_secs(6));
        net.start_client(&mut eng, late);
        eng.run_until(&mut net, SimTime::from_secs(20));
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(got.borrow()[0].0, "echo:hi");
    }

    #[test]
    fn partition_stalls_flows_until_heal() {
        let (mut net, mut eng, a, b) = two_node_net();
        let svc = net.add_service(
            b,
            ServiceConfig::default(),
            Box::new(Echo { cpu_us: 1_000.0 }),
            &mut eng,
        );
        let up = net.topo.find_link("client->server").expect("link");
        let down = net.topo.find_link("server->client").expect("link");
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(OneShot {
            from: a,
            to: svc,
            got: got.clone(),
        }));
        net.start(&mut eng);
        net.set_link_capacity(&mut eng, up, 1.0);
        net.set_link_capacity(&mut eng, down, 1.0);
        eng.run_until(&mut net, SimTime::from_secs(5));
        assert!(got.borrow().is_empty(), "SYN cannot cross a partition");
        assert!(net.live().requests > 0);
        // Heal: the stalled transfer resumes at full rate.
        net.set_link_capacity(&mut eng, up, 100e6);
        net.set_link_capacity(&mut eng, down, 100e6);
        eng.run_until(&mut net, SimTime::from_secs(10));
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, "echo:hi");
        // The response only arrived after the heal at t=5s.
        assert!(got[0].1 > 5.0, "rt {}", got[0].1);
        assert_eq!(net.live().requests, 0);
    }

    #[test]
    fn crash_with_queued_waiters_leaks_nothing() {
        // Saturate a 1-slot pool so requests queue in the backlog and the
        // worker pool, crash, restart, and verify fresh requests flow.
        let (mut net, mut eng, a, b) = two_node_net();
        let cfg = ServiceConfig {
            conn_capacity: 2,
            backlog: 4,
            workers: Some(1),
            setup: SetupCost::plain(),
        };
        let svc = net.add_service(b, cfg, Box::new(Echo { cpu_us: 500_000.0 }), &mut eng);
        let ok = std::rc::Rc::new(std::cell::RefCell::new((0u32, 0u32)));
        net.add_client(Box::new(Burst {
            from: a,
            to: svc,
            n: 6,
            ok: ok.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime(50_000));
        net.crash_service(&mut eng, svc);
        eng.run_until(&mut net, SimTime::from_secs(2));
        let (ok_n, not_ok) = *ok.borrow();
        assert_eq!(ok_n, 0);
        assert_eq!(not_ok, 6, "every queued/in-flight request fails on crash");
        assert_eq!(net.live().requests, 0);
        net.restart_service(&mut eng, svc);
        let ok2 = std::rc::Rc::new(std::cell::RefCell::new((0u32, 0u32)));
        let late = net.add_client(Box::new(Burst {
            from: a,
            to: svc,
            n: 2,
            ok: ok2.clone(),
        }));
        net.start_client(&mut eng, late);
        eng.run_until(&mut net, SimTime::from_secs(10));
        assert_eq!(*ok2.borrow(), (2, 0), "restarted pools admit new work");
        assert_eq!(net.live().requests, 0);
    }

    /// Arms a 100 µs timer, then burns 100 µs of CPU; when the timer fires
    /// it burns 100 µs more.  Records every wake with its time.
    struct TimerThenCpu {
        node: NodeId,
        wakes: Rc<std::cell::RefCell<Vec<(u64, SimTime)>>>,
    }

    const TIMER: u64 = 0;
    const FIRST_CPU: u64 = 1;
    const SECOND_CPU: u64 = 2;

    impl Client for TimerThenCpu {
        fn on_start(&mut self, cx: &mut ClientCx) {
            cx.wake_in(SimDuration::from_micros(100), TIMER);
            cx.spend_cpu(self.node, 100.0, FIRST_CPU);
        }
        fn on_wake(&mut self, tag: u64, cx: &mut ClientCx) {
            self.wakes.borrow_mut().push((tag, cx.now()));
            if tag == TIMER {
                cx.spend_cpu(self.node, 100.0, SECOND_CPU);
            }
        }
        fn on_outcome(&mut self, _outcome: ReqOutcome, _cx: &mut ClientCx) {}
    }

    #[test]
    fn cpu_task_finishing_at_another_submit_still_completes() {
        // The first task finishes at t = 100 µs, the instant the timer's
        // handler submits the second; the timer was scheduled first, so
        // it runs before the CPU's tick.  The first task must still wake
        // its client, from the re-armed tick.
        let (mut net, mut eng, a, _) = two_node_net();
        let wakes = Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(TimerThenCpu {
            node: a,
            wakes: wakes.clone(),
        }));
        net.start(&mut eng);
        eng.run_to_completion(&mut net);
        let tags: Vec<u64> = wakes.borrow().iter().map(|&(tag, _)| tag).collect();
        assert_eq!(tags, [TIMER, FIRST_CPU, SECOND_CPU]);
        let first = wakes.borrow()[1].1;
        assert!(first <= SimTime(101), "first task done at {first:?}");
        assert_eq!(net.live(), Live::default());
    }
}
