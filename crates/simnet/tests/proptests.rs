//! Property-based tests of the network substrate's invariants: max-min
//! fair sharing in [`FlowNet`], and the request lifecycle of [`Net`] under
//! random plans, pool sizes and injected faults.
//!
//! `FlowNet` is held to two things.  Its rates must equal, bit for bit,
//! the per-flow from-scratch water-filler kept here as the reference
//! ([`reference_rates`]; the kernel once ran it, and now shares rates per
//! route).  And they must satisfy the certificate of max-min fairness: no
//! link carries more than its capacity, and every flow crosses a
//! saturated link on which no other flow runs faster.  Each flow's bits
//! are integrated from the reference rates, so completions (which tokens,
//! in what order) and `next_completion` are checked exactly.  Cases draw
//! their flows from a small route table, so many flows share one path.

use proptest::prelude::*;
use simcore::slab::SlabKey;
use simcore::{Engine, SimDuration, SimRng, SimTime};
use simnet::flow::FlowNet;
use simnet::net::Live;
use simnet::trace::{Ev, TraceEvent};
use simnet::{
    Client, ClientCx, Eng, LinkId, LockKey, Net, NodeId, Obs, ObsMode, Payload, Plan, ReqOutcome,
    RequestSpec, Service, ServiceConfig, SetupCost, StatsHub, Step, SubCall, SvcCx, SvcKey,
    Topology,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Link capacities, routes as link indices, and flows as `(route, bytes)`.
type FlowCase = (Vec<f64>, Vec<Vec<usize>>, Vec<(usize, u64)>);

/// A random small topology, a table of 1–5 routes over it (a route may
/// cross a link twice) and up to about 60 flows per route.
fn arb_case() -> impl Strategy<Value = FlowCase> {
    let caps = proptest::collection::vec(1.0e6..100.0e6f64, 2..6);
    caps.prop_flat_map(|caps| {
        let route = proptest::collection::vec(0..caps.len(), 1..=3);
        let routes = proptest::collection::vec(route, 1..=5);
        (Just(caps), routes).prop_flat_map(|(caps, routes)| {
            let flow = (0..routes.len(), 1_000u64..1_000_000);
            let flows = proptest::collection::vec(flow, 1..=60 * routes.len());
            (Just(caps), Just(routes), flows)
        })
    })
}

fn build_topo(caps: &[f64]) -> (Topology, Vec<LinkId>) {
    let mut t = Topology::new();
    let _ = t.add_node("x", 1, 1.0);
    let links = caps
        .iter()
        .enumerate()
        .map(|(i, &c)| t.add_link(format!("l{i}"), c, SimDuration::from_micros(10)))
        .collect();
    (t, links)
}

/// 1–5 routes over `links`: random subsets, some empty (same host), some
/// crossing a link twice.
fn route_table(rng: &mut SimRng, links: &[LinkId]) -> Vec<Rc<[LinkId]>> {
    let n = 1 + rng.next_below(5);
    (0..n)
        .map(|_| {
            let mut path: Vec<LinkId> = links
                .iter()
                .copied()
                .filter(|_| rng.next_f64() < 0.35)
                .collect();
            if !path.is_empty() && rng.next_f64() < 0.3 {
                path.push(path[rng.next_below(path.len() as u64) as usize]);
            }
            path.into()
        })
        .collect()
}

/// The per-flow from-scratch water-filler `FlowNet` ran behind
/// `capacity_changed` before flows were grouped by route, verbatim but
/// for taking the live `(path, token)` list in key order: each flow's
/// `(token, rate bits)`.
fn reference_rates(topo: &Topology, flows: &[(&[LinkId], u64)]) -> Vec<(u64, u64)> {
    let n_links = topo.link_count();
    // Residual capacity per link in bits/µs and number of unfixed flows
    // crossing it.
    let mut residual: Vec<f64> = (0..n_links)
        .map(|i| topo.link(LinkId(i as u32)).capacity_bps / 1e6)
        .collect();
    let mut crossing: Vec<u32> = vec![0; n_links];

    let mut rates = vec![0.0f64; flows.len()];
    let mut unfixed: Vec<usize> = Vec::with_capacity(flows.len());
    for (k, (path, _)) in flows.iter().enumerate() {
        if path.is_empty() {
            rates[k] = 1e9; // the local rate, 1 Tbit/s
        } else {
            for l in path.iter() {
                crossing[l.0 as usize] += 1;
            }
            unfixed.push(k);
        }
    }

    // Water-filling: repeatedly find the bottleneck link (minimum fair
    // share), fix all flows crossing it at that share, and remove their
    // demand from other links.
    while !unfixed.is_empty() {
        let mut bottleneck: Option<(usize, f64)> = None;
        for l in 0..n_links {
            if crossing[l] > 0 {
                let share = residual[l] / crossing[l] as f64;
                if bottleneck.is_none_or(|(_, s)| share < s) {
                    bottleneck = Some((l, share));
                }
            }
        }
        let Some((bl, share)) = bottleneck else { break };
        let share = share.max(0.0);
        // Fix every unfixed flow crossing the bottleneck.
        let mut still_unfixed = Vec::with_capacity(unfixed.len());
        for &k in &unfixed {
            let path = flows[k].0;
            if path.iter().any(|l| l.0 as usize == bl) {
                for l in path.iter() {
                    let li = l.0 as usize;
                    crossing[li] -= 1;
                    residual[li] = (residual[li] - share).max(0.0);
                }
                rates[k] = share.max(1e-9);
            } else {
                still_unfixed.push(k);
            }
        }
        debug_assert!(still_unfixed.len() < unfixed.len(), "water-filling stuck");
        unfixed = still_unfixed;
    }
    let tokens = flows.iter().map(|&(_, token)| token);
    tokens.zip(rates).map(|(t, r)| (t, r.to_bits())).collect()
}

/// A flow drains at or below this many bits (the kernel's threshold).
const DONE_BITS: f64 = 1e-6;

/// A live flow as the certificate sees it.
#[derive(Debug)]
struct Flow {
    path: Rc<[LinkId]>,
    /// Bits still owed, integrated from the reference rates.
    bits: f64,
    rate: f64,
    token: u64,
}

/// The certificate's side of a `FlowNet`, driven through the same calls.
struct Flows {
    topo: Topology,
    net: FlowNet,
    now: u64,
    live: BTreeMap<SlabKey, Flow>,
    /// The caller-owned completion buffer: `advance_into` appends.
    done: Vec<u64>,
}

impl Flows {
    fn new(topo: Topology) -> Self {
        Flows {
            topo,
            net: FlowNet::new(),
            now: 0,
            live: BTreeMap::new(),
            done: Vec::new(),
        }
    }

    fn start(&mut self, path: Rc<[LinkId]>, bytes: u64, token: u64) {
        let now = SimTime(self.now);
        let k = self
            .net
            .start(&self.topo, now, Rc::clone(&path), bytes, token);
        let bits = (bytes.max(1) * 8) as f64;
        let flow = Flow {
            path,
            bits,
            rate: 0.0,
            token,
        };
        assert!(self.live.insert(k, flow).is_none());
    }

    /// Abort the `i`-th live flow (modulo their number), if any.
    fn abort_nth(&mut self, i: u64) {
        if let Some(&k) = self.live.keys().nth(i as usize % self.live.len().max(1)) {
            let want = self.live.remove(&k).map(|f| f.token);
            assert_eq!(self.net.abort(&self.topo, k), want);
        }
    }

    /// Give link `l` a new capacity (a partition or heal).
    fn set_capacity(&mut self, l: LinkId, bps: f64) {
        self.topo.link_mut(l).capacity_bps = bps;
        self.net.capacity_changed(&self.topo);
    }

    /// Advance to `now`: the completed tokens are every flow whose bits
    /// have run out, in key order.
    fn advance(&mut self, now: u64) {
        let dt = (now - self.now) as f64;
        self.now = now;
        self.done.clear();
        self.net
            .advance_into(&self.topo, SimTime(now), &mut self.done);
        let mut want = Vec::new();
        self.live.retain(|_, f| {
            f.bits -= f.rate * dt;
            let finished = f.bits <= DONE_BITS;
            if finished {
                want.push(f.token);
            }
            !finished
        });
        assert_eq!(self.done, want, "completed tokens at {now}");
    }

    /// Compare the rates with the reference and take them, then check
    /// the certificate and `next_completion`.
    fn check(&mut self, context: &str) {
        let flows: Vec<_> = self.live.values().map(|f| (&f.path[..], f.token)).collect();
        let want = reference_rates(&self.topo, &flows);
        let mut got = Vec::new();
        self.net
            .for_each_rate(|tok, r| got.push((tok, r.to_bits())));
        assert_eq!(
            got, want,
            "rates diverged from the reference after {context}"
        );
        for ((k, f), &(_, bits)) in self.live.iter_mut().zip(&want) {
            f.rate = f64::from_bits(bits);
            assert_eq!(self.net.rate_of(*k), Some(f.rate), "{context}");
        }
        assert_eq!(self.net.active(), self.live.len(), "{context}");
        self.assert_max_min();
        let first = self.live.values().map(|f| f.bits / f.rate);
        let first = first.fold(f64::INFINITY, f64::min);
        let want = first
            .is_finite()
            .then(|| self.now + (first.ceil() as u64).max(1));
        assert_eq!(self.next(), want, "next_completion after {context}");
    }

    /// The max-min certificate: no link carries more than its capacity,
    /// and every flow crosses a saturated link on which no flow runs
    /// faster.  A path crossing a link twice loads it twice; relative
    /// slack 1e-9 absorbs rounding.
    fn assert_max_min(&self) {
        let cap = |l: LinkId| self.topo.link(l).capacity_bps / 1e6;
        let n = self.topo.link_count();
        let (mut load, mut fastest) = (vec![0.0; n], vec![0.0f64; n]);
        for f in self.live.values() {
            for &l in f.path.iter() {
                load[l.0 as usize] += f.rate;
                fastest[l.0 as usize] = fastest[l.0 as usize].max(f.rate);
            }
        }
        for (i, &load) in load.iter().enumerate() {
            let cap = cap(LinkId(i as u32));
            assert!(load <= cap * (1.0 + 1e-9), "link {i}: {load} of {cap}");
        }
        for f in self.live.values().filter(|f| !f.path.is_empty()) {
            let bottleneck = |&l: &LinkId| {
                let i = l.0 as usize;
                load[i] >= cap(l) * (1.0 - 1e-9) && fastest[i] <= f.rate * (1.0 + 1e-9)
            };
            assert!(f.path.iter().any(bottleneck), "no bottleneck: {f:?}");
        }
    }

    fn next(&self) -> Option<u64> {
        self.net
            .next_completion(SimTime(self.now))
            .map(SimTime::as_micros)
    }
}

/// Experiment 4's shape at a fixed seed: hundreds of sources pushing
/// through one shared downlink, so nearly every re-level is one large
/// component in which each flow is reached through two or three links
/// (and twice through a link its path revisits), and the key slab grows
/// well past the size the first re-levels saw.
#[test]
fn many_sources_through_one_downlink_are_certified() {
    let (topo, links) = build_topo(&[3e6, 5e6, 11e6]);
    let (up_a, up_b, down) = (links[0], links[1], links[2]);
    let paths: [Rc<[LinkId]>; 5] = [
        Rc::new([up_a, down]),
        Rc::new([up_b, down]),
        Rc::new([up_a, down, up_a]),
        Rc::new([down, up_b, down]),
        Rc::new([down]),
    ];
    let mut f = Flows::new(topo);
    let mut rng = SimRng::new(20030622);
    for tok in 0..320u64 {
        if tok % 40 == 39 {
            // A completion mid-ramp.
            f.advance(f.next().expect("flows are live"));
        }
        let path = &paths[rng.next_below(paths.len() as u64) as usize];
        f.start(Rc::clone(path), 200 + rng.next_below(4_000), tok);
        if rng.next_f64() < 0.1 {
            f.abort_nth(rng.next_u64());
        }
        f.check(&format!("start {tok}"));
    }
    assert!(f.live.len() >= 250, "{} flows live", f.live.len());
    while let Some(next) = f.next() {
        f.advance(next);
        f.check("drain");
    }
}

/// A seeded schedule over `caps` (bits/s) and a route table drawn per
/// case: starts (on the table's shared path or a fresh copy of it),
/// aborts, advances to the next completion and capacity changes, checked
/// after every step, then drained.
fn run_schedule(caps: &[f64], seed: u64, steps: u64) {
    let (topo, links) = build_topo(caps);
    let mut f = Flows::new(topo);
    let mut rng = SimRng::new(seed);
    let routes = route_table(&mut rng, &links);
    for step in 0..steps {
        match rng.next_below(8) {
            0..=3 => {
                let route = &routes[rng.next_below(routes.len() as u64) as usize];
                let path = if rng.next_f64() < 0.5 {
                    Rc::clone(route)
                } else {
                    Rc::from(&route[..])
                };
                f.start(path, rng.next_below(100_000), step);
            }
            4 => f.abort_nth(rng.next_u64()),
            5 => {
                let i = rng.next_below(caps.len() as u64) as usize;
                let bps = caps[i] * (0.1 + rng.next_below(20) as f64 / 10.0);
                f.set_capacity(links[i], bps);
            }
            _ => {
                if let Some(next) = f.next() {
                    f.advance(next);
                }
            }
        }
        f.check(&format!("step {step}"));
    }
    // Drain: completions must keep agreeing until the net is empty.
    while let Some(next) = f.next() {
        f.advance(next);
        f.check("drain");
    }
    assert_eq!(f.net.active(), 0);
}

/// Six links, forty route tables, 200 steps each.
#[test]
fn incremental_matches_full_recompute_bitexact() {
    let caps: Vec<f64> = (0..6).map(|i| (i as f64 + 1.0) * 0.7e6).collect();
    for seed in 12345..12385 {
        run_schedule(&caps, seed, 200);
    }
}

proptest! {
    /// Max-min fairness holds for any set of flows started at once.
    #[test]
    fn fair_share_is_max_min((caps, routes, flows) in arb_case()) {
        let (topo, links) = build_topo(&caps);
        let routes: Vec<Rc<[LinkId]>> =
            routes.iter().map(|r| r.iter().map(|&j| links[j]).collect()).collect();
        let mut f = Flows::new(topo);
        for (i, &(route, bytes)) in flows.iter().enumerate() {
            f.start(Rc::clone(&routes[route]), bytes, i as u64);
        }
        f.check("starts");
        prop_assert!(f.live.values().all(|fl| fl.rate > 0.0), "every flow gets positive rate");
    }

    /// Random link-capacity vectors and start/abort/complete/capacity
    /// schedules: after every mutation the rates equal the reference's
    /// and are max-min fair, and completions follow the integrated bits.
    #[test]
    fn random_schedule_is_certified(
        // Whole Mbit/s put completions on rounding's knife edges.
        caps in proptest::collection::vec(prop_oneof![(1u64..20).prop_map(|c| c as f64), 0.1f64..20.0], 1..8),
        seed in any::<u64>(),
        steps in 20u64..120,
    ) {
        let caps_bps: Vec<f64> = caps.iter().map(|c| c * 1e6).collect();
        run_schedule(&caps_bps, seed, steps);
    }

    /// Capacity changes (fault injection) re-level every loaded link and
    /// must leave the net in a state the reference reproduces.
    #[test]
    fn capacity_change_resyncs(seed in any::<u64>()) {
        let (topo, links) = build_topo(&[4e6, 8e6, 2e6]);
        let mut f = Flows::new(topo);
        let mut rng = SimRng::new(seed);
        let routes = route_table(&mut rng, &links);
        for tok in 0..12u64 {
            let route = &routes[rng.next_below(routes.len() as u64) as usize];
            f.start(Rc::clone(route), 10_000 + tok, tok);
        }
        f.set_capacity(links[2], 0.5e6);
        f.check("capacity_changed");
        // And incremental mutations on top of the resync still agree.
        f.start(Rc::new([links[1]]), 5000, 99);
        f.check("start after capacity_changed");
        f.abort_nth(rng.next_u64());
        f.check("abort after capacity_changed");
    }

    /// All flows eventually complete, and simulated completion times are
    /// consistent with work-conservation: total bits delivered divided by
    /// elapsed time never exceeds the sum of capacities.
    #[test]
    fn flows_drain_completely((caps, routes, flows) in arb_case()) {
        let (topo, links) = build_topo(&caps);
        let mut fnet = FlowNet::new();
        let mut total_bits = 0.0;
        for (i, &(route, bytes)) in flows.iter().enumerate() {
            let path: Vec<LinkId> = routes[route].iter().map(|&j| links[j]).collect();
            total_bits += (bytes.max(1) * 8) as f64;
            fnet.start(&topo, SimTime(0), path, bytes, i as u64);
        }
        let mut now = SimTime(0);
        let mut completed = 0usize;
        let mut guard = 0;
        while fnet.active() > 0 {
            let next = fnet.next_completion(now).expect("progress while active");
            prop_assert!(next > now, "time must advance");
            now = next;
            completed += fnet.advance(&topo, now).len();
            guard += 1;
            prop_assert!(guard < 10_000, "runaway");
        }
        prop_assert_eq!(completed, flows.len());
        // Work conservation bound: elapsed >= total_bits / sum(caps).
        let elapsed_us = now.as_micros() as f64;
        let cap_sum_per_us: f64 = caps.iter().map(|c| c / 1e6).sum();
        prop_assert!(
            elapsed_us * cap_sum_per_us >= total_bits * (1.0 - 1e-6),
            "finished faster than physically possible"
        );
    }

    /// Fairness is scale-free in flow order: permuting start order of
    /// simultaneous flows does not change each flow's rate.
    #[test]
    fn rates_independent_of_insertion_order(
        (caps, routes, flows) in arb_case(),
        seed in 0u64..1000,
    ) {
        let (topo, links) = build_topo(&caps);
        let n = flows.len();
        let paths: Vec<Vec<LinkId>> = flows
            .iter()
            .map(|&(route, _)| routes[route].iter().map(|&j| links[j]).collect())
            .collect();
        let run = |order: &[usize]| -> Vec<f64> {
            let mut fnet = FlowNet::new();
            let mut keys = vec![None; n];
            for &i in order {
                keys[i] = Some(fnet.start(&topo, SimTime(0), paths[i].clone(), flows[i].1, i as u64));
            }
            keys.into_iter()
                .map(|k| fnet.rate_of(k.unwrap()).unwrap())
                .collect()
        };
        let forward: Vec<usize> = (0..n).collect();
        let mut shuffled: Vec<usize> = (0..n).collect();
        let mut rng = SimRng::new(seed);
        for i in (1..n).rev() {
            shuffled.swap(i, rng.next_below(i as u64 + 1) as usize); // Fisher–Yates
        }
        let a = run(&forward);
        let b = run(&shuffled);
        for i in 0..n {
            prop_assert!((a[i] - b[i]).abs() < 1e-9 * a[i].max(1.0),
                "flow {i}: {} vs {}", a[i], b[i]);
        }
    }
}

// ----------------------------------------------------------------------
// The request lifecycle as a property
// ----------------------------------------------------------------------

/// One step of a scripted plan.  Indices are drawn wide and reduced
/// modulo what exists when the case is built.
#[derive(Debug, Clone)]
enum Op {
    Cpu(u32),
    Latency(u32),
    /// `Lock(l)`, CPU, `Unlock(l)`.
    Locked(usize, u32),
    /// One-way message to a lower-numbered service.
    Send(usize),
}

/// How a scripted plan ends.
#[derive(Debug, Clone)]
enum End {
    Reply,
    Fail,
    /// Fail while holding a lock: the exit path must give it back.
    FailLocked(usize),
    /// Run out of steps without replying.
    Silent,
}

/// A service: its admission limits and the plan it answers everything
/// with.  `fanout` calls lower-numbered services (so calls form a DAG and
/// terminate; on service 0 it is the degenerate empty fan-out) and
/// continues with `tail`.
#[derive(Debug, Clone)]
struct Script {
    cfg: ServiceConfig,
    body: Vec<Op>,
    fanout: Option<Vec<usize>>,
    tail: Vec<Op>,
    end: End,
}

#[derive(Debug, Clone)]
enum Fault {
    Crash(usize),
    Restart(usize),
    Freeze(usize, u64),
    DropBurst(usize, u64),
    /// Degrade link pair `n` to 1 bit/s / restore it.
    Partition(usize),
    Heal(usize),
}

#[derive(Debug, Clone)]
struct Case {
    scripts: Vec<Script>,
    /// `(at µs, target service, burn client CPU first)`.
    submits: Vec<(u64, usize, bool)>,
    /// `(at µs, fault)`.
    faults: Vec<(u64, Fault)>,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (10u32..20_000).prop_map(Op::Cpu),
        (10u32..20_000).prop_map(Op::Latency),
        (0usize..8, 10u32..5_000).prop_map(|(l, us)| Op::Locked(l, us)),
        (0usize..8).prop_map(Op::Send),
    ];
    proptest::collection::vec(op, 0..4)
}

fn arb_script() -> impl Strategy<Value = Script> {
    let workers = prop_oneof![Just(None), (1u32..3).prop_map(Some)];
    let fanout = prop_oneof![
        Just(None),
        proptest::collection::vec(0usize..8, 0..4).prop_map(Some)
    ];
    let end = prop_oneof![
        Just(End::Reply),
        Just(End::Reply),
        Just(End::Fail),
        (0usize..8).prop_map(End::FailLocked),
        Just(End::Silent),
    ];
    let cfg =
        (1u32..4, 0u32..3, workers).prop_map(|(conn_capacity, backlog, workers)| ServiceConfig {
            conn_capacity,
            backlog,
            workers,
            setup: SetupCost::plain(),
        });
    (cfg, arb_ops(), fanout, arb_ops(), end).prop_map(|(cfg, body, fanout, tail, end)| Script {
        cfg,
        body,
        fanout,
        tail,
        end,
    })
}

fn arb_lifecycle_case() -> impl Strategy<Value = Case> {
    let fault = prop_oneof![
        (0usize..8).prop_map(Fault::Crash),
        (0usize..8).prop_map(Fault::Restart),
        (0usize..8, 1_000u64..100_000).prop_map(|(s, d)| Fault::Freeze(s, d)),
        (0usize..8, 1_000u64..100_000).prop_map(|(s, d)| Fault::DropBurst(s, d)),
        (0usize..3).prop_map(Fault::Partition),
        (0usize..3).prop_map(Fault::Heal),
    ];
    (
        proptest::collection::vec(arb_script(), 1..5),
        proptest::collection::vec((0u64..200_000, 0usize..8, any::<bool>()), 1..16),
        proptest::collection::vec((0u64..300_000, fault), 0..6),
    )
        .prop_map(|(scripts, submits, faults)| Case {
            scripts,
            submits,
            faults,
        })
}

/// Answers every request with its script.
struct Scripted {
    script: Script,
    /// The services this one may message and call.
    lower: Vec<SvcKey>,
    locks: Vec<LockKey>,
}

impl Scripted {
    fn lock(&self, l: usize) -> LockKey {
        self.locks[l % self.locks.len()]
    }

    fn steps(&self, mut plan: Plan, ops: &[Op]) -> Plan {
        for op in ops {
            plan = match *op {
                Op::Cpu(us) => plan.cpu(f64::from(us)),
                Op::Latency(us) => plan.latency(SimDuration::from_micros(u64::from(us))),
                Op::Locked(l, us) => plan
                    .lock(self.lock(l))
                    .cpu(f64::from(us))
                    .unlock(self.lock(l)),
                Op::Send(_) if self.lower.is_empty() => plan,
                Op::Send(to) => {
                    plan.steps.push(Step::Send {
                        to: self.lower[to % self.lower.len()],
                        payload: Rc::new(()),
                        bytes: 700,
                    });
                    plan
                }
            };
        }
        plan
    }

    fn end(&self, plan: Plan) -> Plan {
        match self.script.end {
            End::Reply => plan.reply(Rc::new(()), 3_000),
            End::Fail => plan.fail(),
            End::FailLocked(l) => plan.lock(self.lock(l)).cpu(100.0).fail(),
            End::Silent => plan.done(),
        }
    }
}

impl Service for Scripted {
    fn handle(&mut self, _req: Payload, _cx: &mut SvcCx) -> Plan {
        let plan = self.steps(Plan::new(), &self.script.body);
        let Some(targets) = &self.script.fanout else {
            return self.end(plan);
        };
        let calls = targets
            .iter()
            .filter(|_| !self.lower.is_empty())
            .map(|&t| SubCall {
                to: self.lower[t % self.lower.len()],
                payload: Rc::new(()),
                req_bytes: 900,
            })
            .collect();
        plan.call_all(calls, 0)
    }

    fn resume(
        &mut self,
        _cont: u64,
        _outcomes: &mut Vec<simnet::CallOutcome>,
        _cx: &mut SvcCx,
    ) -> Plan {
        self.end(self.steps(Plan::new(), &self.script.tail))
    }
}

/// Submits request `i` at its instant (after burning some CPU of its own
/// when asked to) and counts the outcomes each one gets.
struct Submitter {
    from: NodeId,
    submits: Vec<(u64, SvcKey, bool)>,
    outcomes: Rc<RefCell<Vec<u32>>>,
}

impl Client for Submitter {
    fn on_start(&mut self, cx: &mut ClientCx) {
        for (i, &(at, ..)) in self.submits.iter().enumerate() {
            cx.wake_in(SimDuration::from_micros(at), i as u64);
        }
    }

    fn on_wake(&mut self, tag: u64, cx: &mut ClientCx) {
        let n = self.submits.len() as u64;
        let (_, to, burn) = self.submits[(tag % n) as usize];
        if burn && tag < n {
            cx.spend_cpu(self.from, 400.0, tag + n);
            return;
        }
        let spec = RequestSpec {
            from: self.from,
            to,
            payload: Rc::new(()),
            req_bytes: 1_500,
        };
        cx.submit(spec, tag % n);
    }

    fn on_outcome(&mut self, outcome: ReqOutcome, _cx: &mut ClientCx) {
        self.outcomes.borrow_mut()[outcome.tag as usize] += 1;
    }
}

/// What one run of a case leaves behind.
struct Aftermath {
    /// Outcomes delivered per submitted request.
    outcomes: Vec<u32>,
    live: Live,
    trace: Vec<TraceEvent>,
}

/// Build the case's world, run it through its faults, then to quiescence.
fn run_lifecycle(case: &Case, obs: ObsMode) -> Aftermath {
    let mut topo = Topology::new();
    let client = topo.add_node("c", 1, 1.0);
    let servers = [topo.add_node("s1", 2, 1.0), topo.add_node("s2", 1, 1.0)];
    let lat = SimDuration::from_micros(300);
    let pairs = [
        topo.connect(client, servers[0], 10e6, lat),
        topo.connect(client, servers[1], 10e6, lat),
        topo.connect(servers[0], servers[1], 10e6, lat),
    ];
    let mut net = Net::new(topo, StatsHub::new(SimTime::ZERO, SimTime::MAX));
    net.obs = Obs::from_mode(obs);
    let mut eng: Eng = Engine::new(11);
    let locks = vec![net.add_lock(1), net.add_lock(2)];
    let mut svcs: Vec<SvcKey> = Vec::new();
    for (i, script) in case.scripts.iter().enumerate() {
        let svc = Scripted {
            script: script.clone(),
            lower: svcs.clone(),
            locks: locks.clone(),
        };
        svcs.push(net.add_service(servers[i % 2], script.cfg, Box::new(svc), &mut eng));
    }
    let outcomes = Rc::new(RefCell::new(vec![0; case.submits.len()]));
    net.add_client(Box::new(Submitter {
        from: client,
        submits: case
            .submits
            .iter()
            .map(|&(at, to, burn)| (at, svcs[to % svcs.len()], burn))
            .collect(),
        outcomes: outcomes.clone(),
    }));
    net.start(&mut eng);

    let mut faults = case.faults.clone();
    faults.sort_by_key(|&(at, _)| at);
    let set_pair = |net: &mut Net, eng: &mut Eng, n: usize, bps: f64| {
        let (ab, ba) = pairs[n % pairs.len()];
        net.set_link_capacity(eng, ab, bps);
        net.set_link_capacity(eng, ba, bps);
    };
    for (at, fault) in faults {
        eng.run_until(&mut net, SimTime(at));
        match fault {
            Fault::Crash(s) => net.crash_service(&mut eng, svcs[s % svcs.len()]),
            Fault::Restart(s) => net.restart_service(&mut eng, svcs[s % svcs.len()]),
            Fault::Freeze(s, d) => {
                net.freeze_service(&mut eng, svcs[s % svcs.len()], SimTime(at + d))
            }
            Fault::DropBurst(s, d) => {
                net.drop_conns_until(&mut eng, svcs[s % svcs.len()], SimTime(at + d))
            }
            Fault::Partition(n) => set_pair(&mut net, &mut eng, n, 1.0),
            Fault::Heal(n) => set_pair(&mut net, &mut eng, n, 10e6),
        }
    }
    // Every partition heals in the end, or stalled transfers crawl on at
    // 1 bit/s for simulated days.
    for n in 0..pairs.len() {
        set_pair(&mut net, &mut eng, n, 10e6);
    }
    eng.run_to_completion(&mut net);

    let trace = net
        .obs
        .finish(eng.now())
        .map_or_else(Vec::new, |r| r.events);
    let outcomes = outcomes.borrow().clone();
    Aftermath {
        outcomes,
        live: net.live(),
        trace,
    }
}

proptest! {
    /// Whatever the plans, the pool sizes and the faults: every request
    /// ends exactly once, nothing it held outlives it, and its span says
    /// so.
    #[test]
    fn every_request_ends_once_and_leaks_nothing(case in arb_lifecycle_case()) {
        let plain = run_lifecycle(&case, ObsMode::OFF);
        // 1. Exactly one outcome per submitted request.
        prop_assert!(plain.outcomes.iter().all(|&n| n == 1), "outcomes {:?}", plain.outcomes);
        // 2. With the calendar drained, no request, token, waiter, flow
        //    or CPU task is left.
        prop_assert_eq!(&plain.live, &Live::default(), "left over");

        // 3. The traced run is the same run, and every span that begins
        //    ends exactly once.
        let traced = run_lifecycle(&case, ObsMode::FULL);
        prop_assert_eq!(&traced.outcomes, &plain.outcomes);
        prop_assert_eq!(&traced.live, &plain.live);
        let mut spans: BTreeMap<u64, (u32, u32)> = BTreeMap::new();
        for e in &traced.trace {
            match e.ev {
                Ev::SpanBegin { span, .. } => spans.entry(span).or_default().0 += 1,
                Ev::SpanEnd { span, .. } => spans.entry(span).or_default().1 += 1,
                _ => {}
            }
        }
        prop_assert!(spans.len() >= case.submits.len());
        prop_assert!(
            spans.values().all(|&counts| counts == (1, 1)),
            "(begins, ends) per span: {spans:?}"
        );
    }
}
