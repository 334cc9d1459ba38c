//! # simnet — flow-level network + service simulation
//!
//! Builds the distributed-system substrate on top of the [`simcore`] DES
//! kernel.  The model has four layers:
//!
//! 1. **Topology** ([`topology`]): named hosts (each owning a
//!    processor-sharing CPU), directed links with capacity and latency, and
//!    explicit routes.
//! 2. **Flows** ([`flow`]): bulk transfers share link bandwidth using
//!    max-min fairness, recomputed whenever a flow starts or finishes —
//!    the standard flow-level TCP abstraction.
//! 3. **Connections**: a client request first "connects" to the target
//!    service.  Each service has a bounded accept pool
//!    (concurrent-connection capacity plus a listen backlog); when both are
//!    full the connection is refused and the client must retry.  This is the
//!    mechanism behind the saturation thresholds the paper observes: beyond
//!    a point, "the network on the server side can no longer handle the
//!    traffic, which limits the number of concurrent queries presented to
//!    the information server".
//! 4. **Services and plans** ([`service`], [`net`]): a service handles a
//!    request by returning a [`service::Plan`] — a list of resource demands
//!    (CPU, latency, locks, sub-requests to other services, state-mutating
//!    effects, and finally a reply).  The [`net::Net`] world executes plans
//!    step by step against the simulated resources.
//!
//! The monitoring systems under study (MDS, R-GMA, Hawkeye) are implemented
//! as [`service::Service`] trait objects in their own crates; simulated
//! users are [`client::Client`] trait objects.

#![forbid(unsafe_code)]

pub mod client;
pub mod flow;
pub mod kept;
pub mod net;
pub mod service;
pub mod stats;
pub mod topology;

/// Re-export of the observability crate: service crates reach the event
/// and metrics types through `simnet::trace::…` without a direct
/// dependency.
pub use gtrace as trace;
pub use gtrace::{Obs, ObsMode};

pub use client::{Client, ClientCx, ClientKey, ReqOutcome, ReqResult};
pub use kept::{Kept, KEPT_CAP};
pub use net::{Eng, Net, RequestSpec};
pub use service::{
    CallOutcome, LockKey, Payload, Plan, Service, ServiceConfig, SetupCost, Step, SubCall,
    SvcAction, SvcCx, SvcKey,
};
pub use stats::StatsHub;
pub use topology::{LinkId, NodeId, Topology};
