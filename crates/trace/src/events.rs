//! The event taxonomy: everything the simulator can report, as small
//! copyable values.
//!
//! Events are *facts about the simulation*, not log lines: each variant
//! carries the ids needed to reconstruct causality offline (span ids with
//! causal parents, service/node/lock indices, packed flow tokens).  The
//! exporters in [`crate::export`] turn them into Chrome `trace_event`
//! form without the simulator ever formatting a string on the hot path.

use simcore::SimTime;

/// Identifies one request span across component boundaries.
///
/// Encoded as `(slab index << 32) | generation` by the instrumented
/// world, so it stays below 2^53 and survives a round-trip through JSON
/// numbers.
pub type SpanId = u64;

/// The phase a query span is in.  These are exactly the waiting states a
/// request moves through, so the per-span phase segments partition the
/// span's lifetime — the property `gridmon-inspect --self-check` pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Client-side query-tool CPU (forking `ldapsearch`,
    /// `condor_status`, a JVM call...) before the first connection
    /// attempt.  The paper measures response time from the moment the
    /// user script starts working, so this time is part of the span.
    ClientCpu,
    /// TCP SYN (connection-establishment bytes) in flight.
    SynFlow,
    /// Waiting in the service's listen backlog for a connection slot.
    ConnQueue,
    /// Connection setup round-trips (plus GSI handshakes when enabled).
    Handshake,
    /// Request payload in flight client → server.
    ReqFlow,
    /// Connected, but waiting for a free worker thread.
    WorkerQueue,
    /// Executing on the server's processor-sharing CPU.
    ServerCpu,
    /// Fixed-latency backend step (disk, external call, sleep).
    Backend,
    /// Blocked on a mutual-exclusion lock (e.g. a database row).
    DbLock,
    /// Waiting for sub-requests to other services to complete.
    Children,
    /// Response payload in flight server → client.
    RespFlow,
}

impl Phase {
    /// Every phase, in canonical lifecycle order.
    pub const ALL: [Phase; 11] = [
        Phase::ClientCpu,
        Phase::SynFlow,
        Phase::ConnQueue,
        Phase::Handshake,
        Phase::ReqFlow,
        Phase::WorkerQueue,
        Phase::ServerCpu,
        Phase::Backend,
        Phase::DbLock,
        Phase::Children,
        Phase::RespFlow,
    ];

    /// Stable lowercase name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Phase::ClientCpu => "client_cpu",
            Phase::SynFlow => "syn_flow",
            Phase::ConnQueue => "conn_queue",
            Phase::Handshake => "handshake",
            Phase::ReqFlow => "req_flow",
            Phase::WorkerQueue => "worker_queue",
            Phase::ServerCpu => "server_cpu",
            Phase::Backend => "backend",
            Phase::DbLock => "db_lock",
            Phase::Children => "children",
            Phase::RespFlow => "resp_flow",
        }
    }
}

/// How a span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Response delivered.
    Ok,
    /// Connection refused at admission (backlog full).
    Refused,
    /// Failed mid-plan (explicit failure or missing reply).
    Failed,
}

impl Outcome {
    /// Stable lowercase name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Refused => "refused",
            Outcome::Failed => "failed",
        }
    }
}

/// One typed simulation event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ev {
    /// The event loop dispatched its `seq`-th event.
    Dispatch { seq: u64 },
    /// A request span began (client submitted a request).
    SpanBegin {
        span: SpanId,
        parent: Option<SpanId>,
        svc: u32,
        oneway: bool,
    },
    /// The span entered a new lifecycle phase.
    SpanPhase { span: SpanId, phase: Phase },
    /// The span ended with the given outcome.
    SpanEnd { span: SpanId, outcome: Outcome },
    /// Listen-backlog depth changed for a service.
    ConnQueue { svc: u32, depth: u32 },
    /// A connection was refused (backlog full) at a service.
    ConnDrop { svc: u32 },
    /// Worker-pool queue depth changed for a service.
    WorkerQueue { svc: u32, depth: u32 },
    /// Waiter count changed on a mutual-exclusion lock.
    LockQueue { lock: u32, depth: u32 },
    /// A GSI security handshake ran during connection setup.
    GsiHandshake { svc: u32 },
    /// Service-level cache hit (e.g. cached GRIS search result).
    CacheHit { svc: u32 },
    /// Service-level cache miss.
    CacheMiss { svc: u32 },
    /// A network flow started transferring `bytes`.
    FlowStart { flow: u64, bytes: u64 },
    /// Max-min fair-share recomputation changed a flow's rate (bits/s).
    FlowRate { flow: u64, bps: f64 },
    /// A network flow finished.
    FlowEnd { flow: u64 },
    /// A span's CPU demand was submitted to a node's processor-sharing CPU.
    CpuGrant { node: u32, span: SpanId },
    /// A span's CPU demand completed on a node.
    CpuDone { node: u32, span: SpanId },
    /// The runnable-task count on a node's CPU changed.
    CpuResched { node: u32, runnable: u32 },
    /// Fault injection: a service host crashed (all in-flight requests
    /// targeting it abort, its timers stop, new connections are refused).
    FaultCrash { svc: u32 },
    /// Fault injection: a crashed service host came back up.
    FaultRestart { svc: u32 },
    /// Fault injection: a service froze (GC-pause-style stall) until the
    /// recorded deadline; work resumes afterwards with added latency.
    FaultFreeze { svc: u32 },
    /// Fault injection: a link was degraded to (near) zero capacity.
    FaultPartition { link: u32 },
    /// Fault injection: a degraded link's original capacity was restored.
    FaultHeal { link: u32 },
    /// Fault injection: a service started force-dropping new connections.
    FaultDropBurst { svc: u32 },
}

impl Ev {
    /// Stable lowercase variant name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Ev::Dispatch { .. } => "dispatch",
            Ev::SpanBegin { .. } => "span_begin",
            Ev::SpanPhase { .. } => "span_phase",
            Ev::SpanEnd { .. } => "span_end",
            Ev::ConnQueue { .. } => "conn_queue",
            Ev::ConnDrop { .. } => "conn_drop",
            Ev::WorkerQueue { .. } => "worker_queue",
            Ev::LockQueue { .. } => "lock_queue",
            Ev::GsiHandshake { .. } => "gsi_handshake",
            Ev::CacheHit { .. } => "cache_hit",
            Ev::CacheMiss { .. } => "cache_miss",
            Ev::FlowStart { .. } => "flow_start",
            Ev::FlowRate { .. } => "flow_rate",
            Ev::FlowEnd { .. } => "flow_end",
            Ev::CpuGrant { .. } => "cpu_grant",
            Ev::CpuDone { .. } => "cpu_done",
            Ev::CpuResched { .. } => "cpu_resched",
            Ev::FaultCrash { .. } => "fault_crash",
            Ev::FaultRestart { .. } => "fault_restart",
            Ev::FaultFreeze { .. } => "fault_freeze",
            Ev::FaultPartition { .. } => "fault_partition",
            Ev::FaultHeal { .. } => "fault_heal",
            Ev::FaultDropBurst { .. } => "fault_drop_burst",
        }
    }
}

/// A timestamped event as stored by a tracer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulation time the event happened.
    pub at: SimTime,
    /// The event itself.
    pub ev: Ev,
}
