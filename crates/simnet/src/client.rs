//! Simulated clients (users, monitors, load generators).
//!
//! A [`Client`] is a trait object owned by the world that reacts to three
//! stimuli: simulation start, timer wake-ups it scheduled itself, and the
//! outcomes of requests it submitted.  The workload crate implements the
//! paper's closed-loop users on top of this (query; wait for the response;
//! sleep one second; repeat).

use crate::net::{Eng, Net, NetEvent, Origin, RequestSpec};
use crate::service::Payload;
use simcore::slab::SlabKey;
use simcore::{SimDuration, SimTime};

/// Key identifying a client instance.
pub type ClientKey = SlabKey;

/// Result of a submitted request.
pub enum ReqResult {
    /// Response payload and its size on the wire.
    Ok(Payload, u64),
    /// The connection was refused (accept queue full) — retry later.
    Refused,
    /// The request failed mid-flight (service or sub-service error).
    Failed,
}

/// Delivered to [`Client::on_outcome`] when a request finishes.
pub struct ReqOutcome {
    /// The tag the client attached at submission.
    pub tag: u64,
    pub result: ReqResult,
    /// When this particular attempt was submitted.
    pub submitted: SimTime,
    /// Now (delivery time).
    pub completed: SimTime,
}

/// A simulated client process.
pub trait Client: crate::service::AsAny + 'static {
    /// Called once when the simulation starts.
    fn on_start(&mut self, cx: &mut ClientCx);

    /// A timer set via [`ClientCx::wake_in`] fired.
    fn on_wake(&mut self, tag: u64, cx: &mut ClientCx) {
        let _ = (tag, cx);
    }

    /// A request submitted via [`ClientCx::submit`] finished.
    fn on_outcome(&mut self, outcome: ReqOutcome, cx: &mut ClientCx) {
        let _ = (outcome, cx);
    }
}

/// Context passed to client callbacks: scoped access to the world and the
/// engine.  The client's own box has been taken out of the world for the
/// duration of the callback, so `net` is freely usable.
pub struct ClientCx<'a> {
    pub net: &'a mut Net,
    pub eng: &'a mut Eng,
    pub me: ClientKey,
}

impl ClientCx<'_> {
    pub fn now(&self) -> SimTime {
        self.eng.now()
    }

    /// Submit a request; the outcome arrives via `on_outcome` with `tag`.
    pub fn submit(&mut self, spec: RequestSpec, tag: u64) {
        let origin = Origin::Client { key: self.me, tag };
        self.net.submit(self.eng, origin, spec, None);
    }

    /// Like [`submit`](Self::submit), for a query the client began
    /// working on at `started` (e.g. burning query-tool CPU via
    /// [`spend_cpu`](Self::spend_cpu) first).  Purely observational:
    /// the traced span is backdated to `started` with a `client_cpu`
    /// phase so its phases partition the client-perceived response
    /// time; the simulation itself is unaffected.
    pub fn submit_started(&mut self, spec: RequestSpec, tag: u64, started: SimTime) {
        let origin = Origin::Client { key: self.me, tag };
        self.net.submit(self.eng, origin, spec, Some(started));
    }

    /// Schedule `on_wake(tag)` after `dur`.
    pub fn wake_in(&mut self, dur: SimDuration, tag: u64) {
        let client = self.me;
        self.eng
            .schedule_in(dur, NetEvent::ClientWake { client, tag });
    }

    /// Consume CPU on `node` (the user's own machine — e.g. forking the
    /// query tool); `on_wake(tag)` fires when the work completes.  The
    /// work contends with every other user process on that machine.
    pub fn spend_cpu(&mut self, node: crate::topology::NodeId, work_us: f64, tag: u64) {
        let me = self.me;
        self.net.client_cpu(self.eng, me, node, work_us, tag);
    }
}
