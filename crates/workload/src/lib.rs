//! # workload — simulated users
//!
//! The paper simulates users "by running individual user processes
//! (scripts)": each user sends a blocking query, waits for the response,
//! sleeps one second, and repeats.  [`User`] reproduces that closed loop:
//!
//! * start times are staggered uniformly over the first think period so
//!   the users do not move in lockstep;
//! * a refused connection (server accept queue full) is retried with
//!   TCP-like exponential backoff (3 s, 6 s, 12 s … capped, ±20 % jitter),
//!   which is what bounds the load a saturated server actually sees;
//! * the response time recorded for a query spans from the *first*
//!   connection attempt to the final response, and is recorded into the
//!   world's [`simnet::StatsHub`] (queries completing outside the
//!   measurement window are not counted, as in the paper's 10-minute
//!   spans).

#![forbid(unsafe_code)]

use simcore::{SimDuration, SimRng, SimTime};
use simnet::{Client, ClientCx, NodeId, Payload, ReqOutcome, ReqResult, RequestSpec, SvcKey};

/// Produces the next query for a user: payload plus request size in bytes.
/// A query that does not change is built once and handed out as clones
/// of its `Rc`, so asking again allocates nothing.
pub type QueryFactory = Box<dyn FnMut(&mut SimRng) -> (Payload, u64)>;

/// Configuration shared by a group of users.
pub struct UserConfig {
    /// Think time between receiving a response and the next query (the
    /// paper's 1-second wait).
    pub think: SimDuration,
    /// Base of the exponential connect-retry backoff.
    pub retry_base: SimDuration,
    /// Cap on the backoff delay.
    pub retry_cap: SimDuration,
    /// CPU the user script burns on its own machine per query (forking
    /// `ldapsearch`, `condor_status`, a JVM call...).  Contends with the
    /// other users on that machine — at high user counts this is what
    /// capped the measured throughput of the fast servers.
    pub client_cpu_us: f64,
    /// Give up on a query after this long and retry with backoff (the
    /// script's `-timelimit` flag).  `None` (the default) waits forever,
    /// which reproduces the original closed loop exactly.
    pub timeout: Option<SimDuration>,
}

impl Default for UserConfig {
    fn default() -> Self {
        UserConfig {
            think: SimDuration::from_secs(1),
            retry_base: SimDuration::from_secs(3),
            retry_cap: SimDuration::from_secs(48),
            client_cpu_us: 0.0,
            timeout: None,
        }
    }
}

/// One closed-loop user.
pub struct User {
    node: NodeId,
    target: SvcKey,
    think: SimDuration,
    retry_base: SimDuration,
    retry_cap: SimDuration,
    client_cpu_us: f64,
    client_timeout: Option<SimDuration>,
    make_query: QueryFactory,
    rng: SimRng,
    /// Time the current query's first attempt was submitted.
    query_started: SimTime,
    attempt: u32,
    /// Generation of the attempt currently awaited (`None` while thinking
    /// or backing off).  Stale outcomes — a response arriving after its
    /// attempt timed out — carry an older generation and are discarded.
    awaiting: Option<u64>,
    /// Attempt generation counter; doubles as the submit tag.
    gen: u64,
}

impl User {
    fn new(
        node: NodeId,
        target: SvcKey,
        config: &UserConfig,
        make_query: QueryFactory,
        rng: SimRng,
    ) -> User {
        User {
            node,
            target,
            think: config.think,
            retry_base: config.retry_base,
            retry_cap: config.retry_cap,
            client_cpu_us: config.client_cpu_us,
            client_timeout: config.timeout,
            make_query,
            rng,
            query_started: SimTime::ZERO,
            attempt: 0,
            awaiting: None,
            gen: 0,
        }
    }

    fn send(&mut self, cx: &mut ClientCx) {
        let (payload, bytes) = (self.make_query)(&mut self.rng);
        let spec = RequestSpec {
            from: self.node,
            to: self.target,
            payload,
            req_bytes: bytes,
        };
        self.gen += 1;
        self.awaiting = Some(self.gen);
        if self.attempt == 0 {
            // First attempt: the span covers the client-side CPU burned
            // since `query_started`, matching the recorded response
            // time.  Retries are separate spans (the recorded time
            // additionally includes backoff, which no span covers).
            cx.submit_started(spec, self.gen, self.query_started);
        } else {
            cx.submit(spec, self.gen);
        }
        if let Some(limit) = self.client_timeout {
            cx.wake_in(limit, TAG_TIMEOUT | self.gen);
        }
    }

    fn backoff(&mut self) -> SimDuration {
        let exp = self.attempt.min(8);
        let base = self.retry_base * (1u64 << exp.min(4));
        let capped = base.min(self.retry_cap);
        // ±20% jitter.
        capped.mul_f64(self.rng.uniform(0.8, 1.2))
    }
}

/// Wake tags.  Timeout wakes carry the attempt generation in the low 32
/// bits so a late-firing timeout for an attempt that already completed is
/// recognisable as stale.
const TAG_NEXT_QUERY: u64 = 1;
const TAG_RETRY: u64 = 2;
const TAG_CPU_DONE: u64 = 3;
const TAG_TIMEOUT: u64 = 1 << 32;

impl Client for User {
    fn on_start(&mut self, cx: &mut ClientCx) {
        // Stagger start uniformly over one think period.
        let jitter = self.think.mul_f64(self.rng.next_f64());
        cx.wake_in(jitter, TAG_NEXT_QUERY);
    }

    fn on_wake(&mut self, tag: u64, cx: &mut ClientCx) {
        match tag {
            TAG_NEXT_QUERY => {
                // New query: the script first burns its client-side CPU
                // (measured as part of the response time), then sends.
                self.query_started = cx.now();
                self.attempt = 0;
                if self.client_cpu_us > 0.0 {
                    cx.spend_cpu(self.node, self.client_cpu_us, TAG_CPU_DONE);
                } else {
                    self.send(cx);
                }
            }
            TAG_CPU_DONE | TAG_RETRY => self.send(cx),
            t if t & TAG_TIMEOUT != 0 => {
                let gen = t & !TAG_TIMEOUT;
                if self.awaiting != Some(gen) {
                    return; // the attempt already resolved; stale timer
                }
                // Give up on this attempt.  Its eventual outcome (if any)
                // will arrive with a stale generation and be discarded.
                self.awaiting = None;
                self.attempt += 1;
                let now = cx.now();
                let rt = (now - self.query_started).as_secs_f64();
                cx.net.stats.record_timedout(now, rt);
                let delay = self.backoff();
                cx.wake_in(delay, TAG_RETRY);
            }
            _ => {}
        }
    }

    fn on_outcome(&mut self, outcome: ReqOutcome, cx: &mut ClientCx) {
        if self.awaiting != Some(outcome.tag) {
            // Response (or refusal) for an attempt we already abandoned at
            // the timeout: count it, but the loop has moved on.
            let now = cx.now();
            cx.net.stats.record_late(now);
            return;
        }
        self.awaiting = None;
        match outcome.result {
            ReqResult::Ok(..) => {
                let rt = (outcome.completed - self.query_started).as_secs_f64();
                let now = cx.now();
                cx.net.stats.record_completion(now, rt);
                cx.wake_in(self.think, TAG_NEXT_QUERY);
            }
            ReqResult::Refused => {
                self.attempt += 1;
                let now = cx.now();
                cx.net.stats.record_refused(now);
                let delay = self.backoff();
                cx.wake_in(delay, TAG_RETRY);
            }
            ReqResult::Failed => {
                let now = cx.now();
                let rt = (outcome.completed - self.query_started).as_secs_f64();
                cx.net.stats.record_failed(now, rt);
                // Treat like the script dying and restarting the loop.
                cx.wake_in(self.think, TAG_NEXT_QUERY);
            }
        }
    }
}

/// An open-loop load generator: queries arrive as a Poisson process at
/// `rate_per_sec`, regardless of whether earlier queries have finished —
/// the paper's future-work item "additional patterns of user access".
/// Unlike the closed-loop [`User`], an open-loop source does not slow
/// down when the server does, so overload is unbounded rather than
/// self-limiting.
pub struct OpenLoopSource {
    node: NodeId,
    target: SvcKey,
    rate_per_sec: f64,
    make_query: QueryFactory,
    rng: SimRng,
    /// Submission time per outstanding tag.
    outstanding: std::collections::HashMap<u64, SimTime>,
    next_tag: u64,
}

impl OpenLoopSource {
    pub fn new(
        node: NodeId,
        target: SvcKey,
        rate_per_sec: f64,
        make_query: QueryFactory,
        rng: SimRng,
    ) -> Self {
        assert!(rate_per_sec > 0.0);
        OpenLoopSource {
            node,
            target,
            rate_per_sec,
            make_query,
            rng,
            outstanding: std::collections::HashMap::new(),
            next_tag: 0,
        }
    }

    fn arm_next_arrival(&mut self, cx: &mut ClientCx) {
        let gap = self.rng.exponential(1.0 / self.rate_per_sec);
        cx.wake_in(SimDuration::from_secs_f64(gap), 0);
    }
}

impl Client for OpenLoopSource {
    fn on_start(&mut self, cx: &mut ClientCx) {
        self.arm_next_arrival(cx);
    }

    fn on_wake(&mut self, _tag: u64, cx: &mut ClientCx) {
        let (payload, bytes) = (self.make_query)(&mut self.rng);
        let tag = self.next_tag;
        self.next_tag += 1;
        self.outstanding.insert(tag, cx.now());
        cx.submit(
            RequestSpec {
                from: self.node,
                to: self.target,
                payload,
                req_bytes: bytes,
            },
            tag,
        );
        self.arm_next_arrival(cx);
    }

    fn on_outcome(&mut self, outcome: ReqOutcome, cx: &mut ClientCx) {
        let Some(started) = self.outstanding.remove(&outcome.tag) else {
            return;
        };
        let rt = (outcome.completed - started).as_secs_f64();
        let now = cx.now();
        match outcome.result {
            ReqResult::Ok(..) => cx.net.stats.record_completion(now, rt),
            // Open-loop sources don't retry: a refused or failed arrival
            // is a loss, counted as a `User` counts it.
            ReqResult::Refused => cx.net.stats.record_refused(now),
            ReqResult::Failed => cx.net.stats.record_failed(now, rt),
        }
    }
}

/// Spawn one [`User`] per `(node, target)` entry of `placement`, each
/// with an independent RNG stream and a query from `factory`.  Targets are
/// per user so each client host can talk to its own local servlet (the
/// paper's "ConsumerServlet on each Lucky node" configuration).
pub fn spawn_users_to(
    net: &mut simnet::Net,
    eng: &mut simnet::Eng,
    placement: &[(NodeId, SvcKey)],
    config: &UserConfig,
    mut factory: impl FnMut() -> QueryFactory,
) {
    for (i, &(node, target)) in placement.iter().enumerate() {
        let rng = eng.rng.fork(0x5EED + i as u64);
        let user = User::new(node, target, config, factory(), rng);
        net.add_client(Box::new(user));
    }
}

/// Spawn one [`OpenLoopSource`] per `(node, target)` entry of
/// `placement`, splitting `rate_per_sec` evenly among them, each with an
/// independent RNG stream and a query from `factory`.
pub fn spawn_open_loop(
    net: &mut simnet::Net,
    eng: &mut simnet::Eng,
    placement: &[(NodeId, SvcKey)],
    rate_per_sec: f64,
    mut factory: impl FnMut() -> QueryFactory,
) {
    let share = rate_per_sec / placement.len() as f64;
    for (i, &(node, target)) in placement.iter().enumerate() {
        let rng = eng.rng.fork(0xAAA + i as u64);
        let src = OpenLoopSource::new(node, target, share, factory(), rng);
        net.add_client(Box::new(src));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Engine;
    use simnet::{Eng, Net, Plan, Service, ServiceConfig, StatsHub, SvcCx, Topology};
    use std::rc::Rc;

    struct Fast {
        cpu_us: f64,
    }

    impl Service for Fast {
        fn handle(&mut self, _req: Payload, _cx: &mut SvcCx) -> Plan {
            Plan::new().cpu(self.cpu_us).reply(Rc::new(()), 512)
        }
    }

    fn world(conn_capacity: u32, backlog: u32) -> (Net, Eng, Vec<NodeId>, SvcKey) {
        world_with_cost(conn_capacity, backlog, 1_000.0)
    }

    fn world_with_cost(
        conn_capacity: u32,
        backlog: u32,
        cpu_us: f64,
    ) -> (Net, Eng, Vec<NodeId>, SvcKey) {
        let mut topo = Topology::new();
        let server = topo.add_node("server", 2, 1.0);
        let mut clients = Vec::new();
        for i in 0..4 {
            let c = topo.add_node(format!("c{i}"), 1, 1.0);
            topo.connect(c, server, 100e6, SimDuration::from_millis(1));
            clients.push(c);
        }
        let stats = StatsHub::new(SimTime::from_secs(30), SimTime::from_secs(130));
        let mut net = Net::new(topo, stats);
        let mut eng: Eng = Engine::new(11);
        let cfg = ServiceConfig {
            conn_capacity,
            backlog,
            workers: Some(16),
            ..Default::default()
        };
        let svc = net.add_service(server, cfg, Box::new(Fast { cpu_us }), &mut eng);
        (net, eng, clients, svc)
    }

    fn factory() -> QueryFactory {
        Box::new(|_rng| (Rc::new(()) as Payload, 256))
    }

    /// [`spawn_users_to`] with every user aimed at one `target`.
    fn spawn_users(
        net: &mut Net,
        eng: &mut Eng,
        placement: &[NodeId],
        target: SvcKey,
        config: &UserConfig,
        factory: impl FnMut() -> QueryFactory,
    ) {
        let to: Vec<(NodeId, SvcKey)> = placement.iter().map(|&n| (n, target)).collect();
        spawn_users_to(net, eng, &to, config, factory);
    }

    #[test]
    fn closed_loop_throughput_follows_littles_law() {
        let (mut net, mut eng, clients, svc) = world(1024, 128);
        let placement: Vec<NodeId> = (0..20).map(|i| clients[i % 4]).collect();
        let cfg = UserConfig::default();
        spawn_users(&mut net, &mut eng, &placement, svc, &cfg, factory);
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(130));
        // 20 users, ~5ms RT, 1s think: X ≈ 20/(1.005) ≈ 19.9 q/s.
        let x = net.stats.completed.rate_per_sec();
        assert!(x > 17.0 && x < 21.0, "throughput {x}");
        let rt = net.stats.completed.stats().mean();
        assert!(rt < 0.1, "rt {rt}");
        assert_eq!(net.stats.refused, 0);
    }

    #[test]
    fn overload_triggers_refusals_and_backoff() {
        // Tiny accept pool + slow service (200 ms CPU on 2 cores): the
        // offered concurrency of 40 users far exceeds the 4 slots.
        let (mut net, mut eng, clients, svc) = world_with_cost(2, 2, 200_000.0);
        let placement: Vec<NodeId> = (0..40).map(|i| clients[i % 4]).collect();
        let cfg = UserConfig::default();
        spawn_users(&mut net, &mut eng, &placement, svc, &cfg, factory);
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(130));
        let refused = net.stats.refused;
        assert!(refused > 10, "refusals {refused}");
        // Completed-query response times stay bounded: a few backoff
        // rounds at most, never the minutes an unbounded queue would give
        // (40 users × 0.2 s of work on 4 slots).
        let rt = net.stats.completed.stats().mean();
        assert!(rt < 10.0, "rt {rt}");
        // Throughput is far below the closed-loop ideal of ~40/s.
        let x = net.stats.completed.rate_per_sec();
        assert!(x < 25.0, "throughput {x}");
        assert!(x > 0.5, "throughput {x}");
    }

    #[test]
    fn users_stagger_their_starts() {
        let (mut net, mut eng, clients, svc) = world(1024, 128);
        let placement: Vec<NodeId> = (0..10).map(|i| clients[i % 4]).collect();
        let cfg = UserConfig::default();
        spawn_users(&mut net, &mut eng, &placement, svc, &cfg, factory);
        net.start(&mut eng);
        // After 1 think-period everyone has started exactly one query...
        eng.run_until(&mut net, SimTime::from_secs(3));
        let handled = net.service_stats(svc).requests_handled;
        assert!(handled >= 10, "handled {handled}");
    }

    #[test]
    fn open_loop_source_offers_poisson_load() {
        let (mut net, mut eng, clients, svc) = world(1024, 128);
        // 8 q/s offered at a fast server: everything completes.
        let rng = eng.rng.fork(1);
        net.add_client(Box::new(OpenLoopSource::new(
            clients[0],
            svc,
            8.0,
            Box::new(|_| (Rc::new(()) as Payload, 256)),
            rng,
        )));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(130));
        let x = net.stats.completed.rate_per_sec();
        assert!(x > 6.0 && x < 10.0, "throughput {x}");
        assert_eq!(net.stats.refused, 0);
        assert_eq!(net.stats.failed.stats().count(), 0);
    }

    #[test]
    fn open_loop_overload_drops_instead_of_queueing() {
        // 1-slot server with 0 backlog and 300ms service: capacity ~3 q/s.
        let (mut net, mut eng, clients, svc) = world_with_cost(1, 0, 300_000.0);
        let rng = eng.rng.fork(2);
        net.add_client(Box::new(OpenLoopSource::new(
            clients[0],
            svc,
            20.0,
            Box::new(|_| (Rc::new(()) as Payload, 256)),
            rng,
        )));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(130));
        let x = net.stats.completed.rate_per_sec();
        let lost = net.stats.refused;
        assert!(x < 5.0, "completed {x}");
        assert!(lost > 500, "lost {lost}");
        assert_eq!(
            net.stats.failed.stats().count(),
            0,
            "every loss is a refusal"
        );
    }

    /// Fails every other query after a long compute, answers the rest
    /// quickly — the failure latency is far above the success latency.
    struct Flaky {
        n: u64,
    }

    impl Service for Flaky {
        fn handle(&mut self, _req: Payload, _cx: &mut SvcCx) -> Plan {
            self.n += 1;
            if self.n.is_multiple_of(2) {
                Plan::new().cpu(400_000.0).fail()
            } else {
                Plan::new().cpu(1_000.0).reply(Rc::new(()), 512)
            }
        }
    }

    #[test]
    fn failed_queries_do_not_pollute_response_time_mean() {
        let mut topo = Topology::new();
        let server = topo.add_node("server", 2, 1.0);
        let c = topo.add_node("c0", 1, 1.0);
        topo.connect(c, server, 100e6, SimDuration::from_millis(1));
        let stats = StatsHub::new(SimTime::from_secs(10), SimTime::from_secs(110));
        let mut net = Net::new(topo, stats);
        let mut eng: Eng = Engine::new(11);
        let svc = net.add_service(
            server,
            ServiceConfig::default(),
            Box::new(Flaky { n: 0 }),
            &mut eng,
        );
        let cfg = UserConfig::default();
        spawn_users(&mut net, &mut eng, &[c], svc, &cfg, factory);
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(110));
        // Successes are milliseconds; the 0.4 s failures must live in
        // their own series, not the completed-query mean.
        let rt_ok = net.stats.completed.stats().mean();
        assert!(rt_ok < 0.1, "ok mean {rt_ok}");
        assert!(net.stats.failed.stats().count() > 10);
        let rt_fail = net.stats.failed.stats().mean();
        assert!(rt_fail > 0.3, "failed mean {rt_fail}");
    }

    #[test]
    fn timeout_abandons_slow_queries_and_discards_late_responses() {
        // 5 s of server CPU per query against a 1 s client timeout: every
        // attempt is abandoned, retried with backoff, and the eventual
        // response arrives late and is discarded.
        let (mut net, mut eng, clients, svc) = world_with_cost(1024, 128, 5_000_000.0);
        let cfg = UserConfig {
            timeout: Some(SimDuration::from_secs(1)),
            ..Default::default()
        };
        spawn_users(&mut net, &mut eng, &clients[..1], svc, &cfg, factory);
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(130));
        // Backoff stretches the attempts out and the stats window opens
        // at t=30 s: the timeouts at ~50 s and ~99 s land inside it.
        assert_eq!(net.stats.timedout.stats().count(), 2);
        // Late responses were seen and ignored, not recorded as successes.
        assert!(net.stats.late > 0);
        assert_eq!(net.stats.completed.stats().count(), 0);
        // Abandoned-attempt waits are tracked in their own series.
        let rt = net.stats.timedout.stats().mean();
        assert!(rt > 0.9, "timedout mean {rt}");
    }

    #[test]
    fn no_timeout_config_never_times_out() {
        let (mut net, mut eng, clients, svc) = world_with_cost(1024, 128, 3_000_000.0);
        let cfg = UserConfig::default(); // timeout: None
        spawn_users(&mut net, &mut eng, &clients[..1], svc, &cfg, factory);
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(130));
        assert_eq!(net.stats.timedout.stats().count(), 0);
        assert!(net.stats.completed.stats().count() > 10);
        assert_eq!(net.stats.late, 0);
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let run = || {
            let (mut net, mut eng, clients, svc) = world(8, 4);
            let placement: Vec<NodeId> = (0..30).map(|i| clients[i % 4]).collect();
            let cfg = UserConfig::default();
            spawn_users(&mut net, &mut eng, &placement, svc, &cfg, factory);
            net.start(&mut eng);
            eng.run_until(&mut net, SimTime::from_secs(130));
            (
                net.stats.completed.stats().count(),
                net.stats.refused,
                format!("{:.9}", net.stats.completed.stats().mean()),
            )
        };
        assert_eq!(run(), run());
    }
}
