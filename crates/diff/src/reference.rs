//! Replaced kernels, kept verbatim as differential oracles.
//!
//! * [`RefEngine`] is the event calendar as it stood before events became
//!   values of `World::Event`: every event is a `Box`ed `FnOnce(&mut W,
//!   &mut RefEngine<W>)` and slots are a private generational table.
//!   `tests/engine_diff.rs` replays identical schedule/cancel/reschedule
//!   scripts on both machines and asserts the dispatch streams, clocks
//!   and counters match.
//! * [`RefPsCpu`] is the processor-sharing CPU that walks its tasks three
//!   times a step (subtract, collect the finished, fold the minimum) and
//!   builds two vectors doing it; `tests/pscpu_diff.rs` holds
//!   [`simcore::PsCpu`]'s cached minimum and one-pass drain to it.
//! * [`RefFlowNet`] is the flow network whose `advance`, `start`, `abort`
//!   and component re-level allocate their working memory per call and
//!   copy every path; `tests/flownet_diff.rs` holds
//!   [`simnet::flow::FlowNet`]'s kept scratch, shared paths and
//!   index-order drain to it.
//! * [`requirements_met`], [`symmetric_match`] and [`matches_constraint`]
//!   are ClassAd matchmaking as it stood before requirements were held
//!   once per ad: each call looks the attribute up and enters the
//!   evaluator through it.  The held forms evaluate the same body in a
//!   context seeded with that reference, a second route to the same
//!   answer; `tests/classad_diff.rs` holds `classad::matchmaker`'s
//!   `*_compiled` forms to these.
//!
//! Never used by the simulation.

use classad::{eval, ClassAd, Expr, Value};
use simcore::slab::{Slab, SlabKey};
use simcore::{SimDuration, SimRng, SimTime};
use simnet::topology::{LinkId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Handle to a scheduled reference event; can be used to cancel it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct RefEventHandle {
    slot: u32,
    gen: u32,
}

type EventFn<W> = Box<dyn FnOnce(&mut W, &mut RefEngine<W>)>;

struct EventSlot<W> {
    gen: u32,
    f: Option<EventFn<W>>,
}

#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct QKey {
    time: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

/// The original box-per-event discrete-event engine.
pub struct RefEngine<W> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<QKey>>,
    slots: Vec<EventSlot<W>>,
    free: Vec<u32>,
    live: usize,
    pub fired: u64,
    pub popped: u64,
    pub advances: u64,
    pub rng: SimRng,
}

impl<W> RefEngine<W> {
    pub fn new(seed: u64) -> Self {
        RefEngine {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            fired: 0,
            popped: 0,
            advances: 0,
            rng: SimRng::new(seed),
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn pending(&self) -> usize {
        self.live
    }

    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut RefEngine<W>) + 'static,
    ) -> RefEventHandle {
        let at = at.max(self.now);
        let slot = if let Some(i) = self.free.pop() {
            self.slots[i as usize].f = Some(Box::new(f));
            i
        } else {
            let i = self.slots.len() as u32;
            self.slots.push(EventSlot {
                gen: 0,
                f: Some(Box::new(f)),
            });
            i
        };
        let gen = self.slots[slot as usize].gen;
        let seq = self.seq;
        self.seq += 1;
        self.live += 1;
        self.heap.push(Reverse(QKey {
            time: at,
            seq,
            slot,
            gen,
        }));
        RefEventHandle { slot, gen }
    }

    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut W, &mut RefEngine<W>) + 'static,
    ) -> RefEventHandle {
        self.schedule_at(self.now + delay, f)
    }

    pub fn cancel(&mut self, h: RefEventHandle) -> bool {
        if let Some(slot) = self.slots.get_mut(h.slot as usize) {
            if slot.gen == h.gen && slot.f.is_some() {
                slot.f = None;
                slot.gen = slot.gen.wrapping_add(1);
                self.free.push(h.slot);
                self.live -= 1;
                return true;
            }
        }
        false
    }

    fn step(&mut self, world: &mut W, limit: SimTime) -> bool {
        loop {
            let Some(Reverse(top)) = self.heap.peek() else {
                return false;
            };
            if top.time > limit {
                return false;
            }
            let Reverse(key) = self.heap.pop().expect("peeked");
            self.popped += 1;
            let slot = &mut self.slots[key.slot as usize];
            if slot.gen != key.gen {
                continue;
            }
            let Some(f) = slot.f.take() else {
                continue;
            };
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(key.slot);
            self.live -= 1;
            debug_assert!(key.time >= self.now, "time went backwards");
            if key.time > self.now {
                self.advances += 1;
            }
            self.now = key.time;
            self.fired += 1;
            f(world, self);
            return true;
        }
    }

    pub fn run_until(&mut self, world: &mut W, until: SimTime) {
        while self.step(world, until) {}
        if self.now < until {
            self.now = until;
        }
    }

    pub fn run_to_completion(&mut self, world: &mut W) {
        while self.step(world, SimTime::MAX) {}
    }
}

#[derive(Debug)]
struct Task {
    /// Remaining work in *reference-CPU microseconds* (work at speed 1.0).
    remaining: f64,
    token: u64,
}

/// The three-pass processor-sharing CPU ([`simcore::PsCpu`] before it
/// cached its minimum).
pub struct RefPsCpu {
    cores: f64,
    speed: f64,
    tasks: Slab<Task>,
    last: SimTime,
    /// Accumulated busy core-microseconds (for CPU-load accounting).
    busy_core_us: f64,
}

/// Tolerance below which a task is considered finished (microseconds of
/// remaining work); guards against floating-point residue.
const CPU_EPS: f64 = 1e-3;

impl RefPsCpu {
    /// Create a CPU with `cores` cores and relative `speed` (1.0 = the
    /// reference core).
    pub fn new(cores: u32, speed: f64) -> Self {
        assert!(cores > 0 && speed > 0.0);
        RefPsCpu {
            cores: cores as f64,
            speed,
            tasks: Slab::new(),
            last: SimTime::ZERO,
            busy_core_us: 0.0,
        }
    }

    /// Number of currently runnable tasks (running + ready), the quantity
    /// the Linux load average counts.
    pub fn runnable(&self) -> usize {
        self.tasks.len()
    }

    /// Current per-task progress rate in reference-CPU-microseconds per
    /// microsecond of wall time.
    fn rate(&self) -> f64 {
        let n = self.tasks.len() as f64;
        if n == 0.0 {
            0.0
        } else {
            self.speed * (self.cores / n).min(1.0)
        }
    }

    /// Total busy core-seconds accumulated since construction, advanced to
    /// `now`.  Monotonic; callers diff successive readings to get interval
    /// utilisation.
    pub fn busy_core_seconds(&mut self, now: SimTime) -> f64 {
        self.advance_accounting(now);
        self.busy_core_us / 1e6
    }

    fn advance_accounting(&mut self, now: SimTime) {
        debug_assert!(now >= self.last, "CPU time went backwards");
        let dt = (now - self.last).as_micros() as f64;
        if dt <= 0.0 {
            return;
        }
        let n = self.tasks.len() as f64;
        let busy_cores = n.min(self.cores);
        self.busy_core_us += busy_cores * dt;
        let rate = self.rate();
        if rate > 0.0 {
            let work = rate * dt;
            for (_, t) in self.tasks.iter_mut() {
                t.remaining -= work;
            }
        }
        self.last = now;
    }

    /// Advance the CPU to `now`, returning the tokens of all tasks that have
    /// finished by then (in submission order).
    pub fn advance(&mut self, now: SimTime) -> Vec<u64> {
        self.advance_accounting(now);
        let finished: Vec<SlabKey> = self
            .tasks
            .iter()
            .filter(|(_, t)| t.remaining <= CPU_EPS)
            .map(|(k, _)| k)
            .collect();
        finished
            .into_iter()
            .filter_map(|k| self.tasks.remove(k).map(|t| t.token))
            .collect()
    }

    /// Submit a task demanding `work_us` reference-CPU microseconds.
    /// The caller must have called [`RefPsCpu::advance`] at the current time
    /// first (all owner entry points do).
    pub fn submit(&mut self, now: SimTime, work_us: f64, token: u64) -> SlabKey {
        debug_assert!(work_us >= 0.0);
        self.advance_accounting(now);
        self.tasks.insert(Task {
            remaining: work_us.max(CPU_EPS),
            token,
        })
    }

    /// Remove a task before completion (e.g. an aborted request).
    pub fn abort(&mut self, now: SimTime, key: SlabKey) -> Option<u64> {
        self.advance_accounting(now);
        self.tasks.remove(key).map(|t| t.token)
    }

    /// The absolute time at which the earliest current task will finish, or
    /// `None` if the CPU is idle.  Changes whenever tasks are added or
    /// removed, so the owner must re-query after every mutation.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        let min_rem = self
            .tasks
            .iter()
            .map(|(_, t)| t.remaining)
            .fold(f64::INFINITY, f64::min);
        if !min_rem.is_finite() {
            return None;
        }
        // Round up so the completion event never fires *before* the work is
        // done, guaranteeing progress (at least 1 µs ahead when work
        // remains).
        let dt_us = (min_rem.max(0.0) / rate).ceil() as u64;
        Some(SimTime(now.as_micros().saturating_add(dt_us.max(1))))
    }
}

#[derive(Debug, Clone)]
struct Flow {
    path: Vec<LinkId>,
    /// Remaining payload in bits.
    remaining: f64,
    /// Current rate in bits per microsecond.
    rate: f64,
    token: u64,
}

/// The allocating flow network ([`simnet::flow::FlowNet`] before it kept
/// its re-level scratch and shared its paths), without the from-scratch
/// water-filler, which production still runs.
pub struct RefFlowNet {
    flows: Slab<Flow>,
    /// Flows currently crossing each link, indexed by `LinkId`.  This is
    /// what lets a mutation find its affected component without scanning
    /// every flow.
    link_flows: Vec<Vec<SlabKey>>,
    last: SimTime,
}

/// Rate used for empty-path (same-host) flows: effectively instantaneous.
const LOCAL_RATE_BITS_PER_US: f64 = 1e9; // 1 Tbit/s

impl Default for RefFlowNet {
    fn default() -> Self {
        Self::new()
    }
}

impl RefFlowNet {
    pub fn new() -> Self {
        RefFlowNet {
            flows: Slab::new(),
            link_flows: Vec::new(),
            last: SimTime::ZERO,
        }
    }

    fn register_links(link_flows: &mut Vec<Vec<SlabKey>>, key: SlabKey, path: &[LinkId]) {
        for l in path {
            let li = l.0 as usize;
            if li >= link_flows.len() {
                link_flows.resize_with(li + 1, Vec::new);
            }
            link_flows[li].push(key);
        }
    }

    fn unregister_links(link_flows: &mut [Vec<SlabKey>], key: SlabKey, path: &[LinkId]) {
        for l in path {
            let v = &mut link_flows[l.0 as usize];
            if let Some(pos) = v.iter().position(|&k| k == key) {
                v.swap_remove(pos);
            }
        }
    }

    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Advance all flows to `now`, returning the tokens of flows that have
    /// completed (in key order).  The caller must then `recompute` (which
    /// happens automatically here) and re-query `next_completion`.
    pub fn advance(&mut self, topo: &Topology, now: SimTime) -> Vec<u64> {
        debug_assert!(now >= self.last);
        let dt = (now - self.last).as_micros() as f64;
        self.last = now;
        let mut done: Vec<SlabKey> = Vec::new();
        if dt > 0.0 {
            for (k, f) in self.flows.iter_mut() {
                f.remaining -= f.rate * dt;
                if f.remaining <= 1e-6 {
                    done.push(k);
                }
            }
        } else {
            for (k, f) in self.flows.iter() {
                if f.remaining <= 1e-6 {
                    done.push(k);
                }
            }
        }
        let mut tokens = Vec::with_capacity(done.len());
        let mut seeds: Vec<LinkId> = Vec::new();
        for k in done {
            if let Some(f) = self.flows.remove(k) {
                Self::unregister_links(&mut self.link_flows, k, &f.path);
                seeds.extend_from_slice(&f.path);
                tokens.push(f.token);
            }
        }
        if !seeds.is_empty() {
            // Only flows sharing links with the departed ones can change
            // rate; empty-path completions leave the vector untouched.
            self.relevel_component(topo, &seeds);
        }
        tokens
    }

    /// Start a flow of `bytes` bytes along `path` (may be empty for
    /// same-host transfers).  The caller must have advanced to `now` first.
    pub fn start(
        &mut self,
        topo: &Topology,
        now: SimTime,
        path: Vec<LinkId>,
        bytes: u64,
        token: u64,
    ) -> SlabKey {
        debug_assert_eq!(self.last, now, "advance() before start()");
        let bits = (bytes.max(1) * 8) as f64;

        // Same-host transfer: fixed local rate, nobody else affected.
        if path.is_empty() {
            return self.flows.insert(Flow {
                path,
                remaining: bits,
                rate: LOCAL_RATE_BITS_PER_US,
                token,
            });
        }

        // Alone on every link of a simple path: the water-filler would put
        // this flow in a component by itself and assign the minimum link
        // share.  (A path that revisits a link self-contends, so it takes
        // the general route.)
        let disjoint = path
            .iter()
            .all(|l| self.link_flows.get(l.0 as usize).is_none_or(Vec::is_empty))
            && !path.iter().enumerate().any(|(i, l)| path[..i].contains(l));
        if disjoint {
            let mut share = f64::INFINITY;
            for l in &path {
                let s = topo.link(*l).capacity_bps / 1e6;
                if s < share {
                    share = s;
                }
            }
            let key = self.flows.insert(Flow {
                path,
                remaining: bits,
                rate: share.max(0.0).max(1e-9),
                token,
            });
            let f = self.flows.get(key).unwrap();
            Self::register_links(&mut self.link_flows, key, &f.path);
            return key;
        }

        // Shares a link with live flows: re-level just that component.
        let key = self.flows.insert(Flow {
            path,
            remaining: bits,
            rate: 0.0,
            token,
        });
        let f = self.flows.get(key).unwrap();
        let seeds = f.path.clone();
        Self::register_links(&mut self.link_flows, key, &f.path);
        self.relevel_component(topo, &seeds);
        key
    }

    /// Abort a flow (e.g. a failed request).  Returns its token.
    pub fn abort(&mut self, topo: &Topology, key: SlabKey) -> Option<u64> {
        let f = self.flows.remove(key)?;
        Self::unregister_links(&mut self.link_flows, key, &f.path);
        if !f.path.is_empty() {
            self.relevel_component(topo, &f.path);
        }
        Some(f.token)
    }

    /// The earliest absolute time at which some flow completes.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        let mut best = f64::INFINITY;
        for (_, f) in self.flows.iter() {
            if f.rate > 0.0 {
                best = best.min(f.remaining / f.rate);
            }
        }
        if best.is_finite() {
            Some(SimTime(
                now.as_micros().saturating_add((best.ceil() as u64).max(1)),
            ))
        } else {
            None
        }
    }

    /// Current rate of a flow in bits/µs (for tests).
    pub fn rate_of(&self, key: SlabKey) -> Option<f64> {
        self.flows.get(key).map(|f| f.rate)
    }

    /// Visit every active flow's `(token, rate)` in key order, rate in
    /// bits/µs — how the tracer snapshots the rate vector after a
    /// fair-share recomputation.
    pub fn for_each_rate(&self, mut f: impl FnMut(u64, f64)) {
        for (_, flow) in self.flows.iter() {
            f(flow.token, flow.rate);
        }
    }

    /// Re-level the connected component of flows reachable from `seeds`
    /// (links connected through shared flows).  Runs the same restricted
    /// water-filling arithmetic as `FlowNet::recompute` — bottleneck
    /// links scanned in ascending index order with a strictly-smaller
    /// comparison, flows fixed in slab-key order — so the resulting rates
    /// are bit-identical to a from-scratch pass.  Flows outside the
    /// component keep their (already exact) rates.
    fn relevel_component(&mut self, topo: &Topology, seeds: &[LinkId]) {
        let n_links = topo.link_count();
        let mut in_comp_link = vec![false; n_links];
        let mut stack: Vec<usize> = Vec::new();
        for l in seeds {
            let li = l.0 as usize;
            if !in_comp_link[li] {
                in_comp_link[li] = true;
                stack.push(li);
            }
        }
        // A flow is listed once per component link it crosses (each link
        // is expanded once); the duplicates find no new links below and
        // are dropped after the sort.
        let mut comp_flows: Vec<SlabKey> = Vec::new();
        while let Some(li) = stack.pop() {
            let crossing_here = self.link_flows.get(li).map(Vec::as_slice).unwrap_or(&[]);
            comp_flows.extend_from_slice(crossing_here);
        }
        // Pull in the full link set of every component flow (a flow found
        // via one link drags its other links — and their flows — in).
        let mut i = 0;
        while i < comp_flows.len() {
            let k = comp_flows[i];
            i += 1;
            let path = &self.flows.get(k).unwrap().path;
            let mut new_links: Vec<usize> = Vec::new();
            for l in path {
                let lj = l.0 as usize;
                if !in_comp_link[lj] {
                    in_comp_link[lj] = true;
                    new_links.push(lj);
                }
            }
            for lj in new_links {
                let crossing_here = self.link_flows.get(lj).map(Vec::as_slice).unwrap_or(&[]);
                comp_flows.extend_from_slice(crossing_here);
            }
        }
        if comp_flows.is_empty() {
            return;
        }
        comp_flows.sort_unstable(); // slab-key order, as recompute() fixes them
        comp_flows.dedup();

        let comp_links: Vec<usize> = (0..n_links).filter(|&l| in_comp_link[l]).collect();
        let mut residual: Vec<f64> = vec![0.0; n_links];
        let mut crossing: Vec<u32> = vec![0; n_links];
        for &li in &comp_links {
            residual[li] = topo.link(LinkId(li as u32)).capacity_bps / 1e6;
        }
        for &k in &comp_flows {
            for l in &self.flows.get(k).unwrap().path {
                crossing[l.0 as usize] += 1;
            }
        }

        let mut unfixed = comp_flows;
        while !unfixed.is_empty() {
            let mut bottleneck: Option<(usize, f64)> = None;
            for &l in &comp_links {
                if crossing[l] > 0 {
                    let share = residual[l] / crossing[l] as f64;
                    if bottleneck.is_none_or(|(_, s)| share < s) {
                        bottleneck = Some((l, share));
                    }
                }
            }
            let Some((bl, share)) = bottleneck else { break };
            let share = share.max(0.0);
            let mut still_unfixed = Vec::with_capacity(unfixed.len());
            for &k in &unfixed {
                let f = self.flows.get(k).unwrap();
                if f.path.iter().any(|l| l.0 as usize == bl) {
                    for l in &f.path {
                        let li = l.0 as usize;
                        crossing[li] -= 1;
                        residual[li] = (residual[li] - share).max(0.0);
                    }
                    self.flows.get_mut(k).unwrap().rate = share.max(1e-9);
                } else {
                    still_unfixed.push(k);
                }
            }
            debug_assert!(still_unfixed.len() < unfixed.len(), "water-filling stuck");
            unfixed = still_unfixed;
        }
    }
}

/// Evaluate `ad`'s `Requirements` against `target`.  A missing
/// `Requirements` attribute counts as `TRUE` (Condor semantics for ads
/// that don't constrain their matches).
pub fn requirements_met(ad: &ClassAd, target: &ClassAd) -> bool {
    match ad.get("requirements") {
        None => true,
        Some(_) => matches!(
            eval(&Expr::attr("requirements"), ad, Some(target)),
            Value::Bool(true)
        ),
    }
}

/// Two-way match: both ads' requirements hold against each other.
pub fn symmetric_match(a: &ClassAd, b: &ClassAd) -> bool {
    requirements_met(a, b) && requirements_met(b, a)
}

/// One-sided constraint evaluation (e.g. `condor_status -constraint`):
/// evaluate an arbitrary expression against `ad` (no target).
pub fn matches_constraint(ad: &ClassAd, constraint: &Expr) -> bool {
    matches!(eval(constraint, ad, None), Value::Bool(true))
}
