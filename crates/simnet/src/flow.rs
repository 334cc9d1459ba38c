//! Flow-level bulk transfers with max-min fair bandwidth sharing.
//!
//! Every data transfer (a request body, a response body, a ClassAd
//! advertisement) is a *flow*: an amount of bits moving along a fixed path
//! of directed links.  Concurrent flows share each link's capacity; the
//! achieved rate vector is the classic **max-min fair allocation**, computed
//! by water-filling and re-computed whenever the set of flows changes.
//! This is the standard fluid abstraction of long-lived TCP used by
//! flow-level network simulators.
//!
//! Max-min fairness gives every flow on one path the same rate, so live
//! flows are grouped by route (a `Group`: one path, its flow count and
//! their shared rate), and a re-level visits routes rather than flows.
//!
//! `FlowNet` is a pure state machine (no event scheduling): the owner asks
//! [`FlowNet::next_completion`] after every mutation and manages a single
//! pending event.  The owner also owns the buffer completed tokens are
//! written to ([`FlowNet::advance_into`]); what the net keeps between
//! steps is the working memory of a re-level and the route groups — so a
//! step in steady state allocates nothing.

use crate::topology::{LinkId, Topology};
use simcore::slab::{Slab, SlabKey};
use simcore::SimTime;
use std::rc::Rc;

/// Opaque token the owner uses to identify a flow's purpose.
pub type FlowToken = u64;

/// Key identifying a flow.
pub type FlowKey = SlabKey;

struct Flow {
    /// The route group whose rate this flow runs at.
    group: SlabKey,
    /// Remaining payload in bits.
    remaining: f64,
    token: FlowToken,
}

/// The live flows of one distinct path.
struct Group {
    /// Shared with the topology's route table (or whoever started the
    /// flows): never copied.
    path: Rc<[LinkId]>,
    /// Live flows on the path; a group leaves with its last flow.
    count: u32,
    /// The rate every one of them runs at, bits per microsecond.
    rate: f64,
}

/// The route groups, and the links the next re-level starts from.
#[derive(Default)]
struct Routes {
    groups: Slab<Group>,
    /// Groups crossing each link (once per crossing), indexed by
    /// `LinkId`: how a mutation finds its component without a scan.
    on_link: Vec<Vec<SlabKey>>,
    /// Links whose groups the next re-level starts from.
    seeds: Vec<LinkId>,
}

/// Exact work counts of [`FlowNet`]'s re-levels since it was made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelevelWork {
    /// Re-levels that found a flow to re-rate.
    pub relevels: u64,
    /// The flows those re-levels re-rated.
    pub flows: u64,
    /// The route groups they visited.
    pub groups: u64,
}

/// Working memory of [`FlowNet::relevel_component`], kept between calls
/// so a re-level allocates nothing once the vectors have reached their
/// working size.  Every call clears what it reads; nothing here carries
/// meaning from one call to the next except `epoch`, which stamps
/// `listed`.
#[derive(Default)]
struct Scratch {
    /// Per link: is it in the component?
    in_comp: Vec<bool>,
    /// The component's links, ascending.
    comp_links: Vec<usize>,
    /// The component's groups, each listed once, then those not yet fixed.
    unfixed: Vec<SlabKey>,
    /// Per group slab index: the last `epoch` that listed it in `unfixed`.
    listed: Vec<u64>,
    /// Bumped once per re-level; never wraps.
    epoch: u64,
    /// The groups left over by the current water-filling round; swapped
    /// with `unfixed` when the round ends.
    still_unfixed: Vec<SlabKey>,
    /// The groups the current round fixes.
    fixed: Vec<SlabKey>,
    /// Per link: capacity not yet handed out, bits/µs.
    residual: Vec<f64>,
    /// Per link: unfixed flows crossing it.
    crossing: Vec<u32>,
}

/// The set of active flows plus the fair-share computation.
///
/// The rate vector is maintained *incrementally*: a mutation re-levels only
/// the connected component of routes that share links with the mutated
/// flow's route (often just that route), producing bit-identical rates to
/// a from-scratch water-filling of the flows one by one.
#[derive(Default)]
pub struct FlowNet {
    flows: Slab<Flow>,
    routes: Routes,
    last: SimTime,
    scratch: Scratch,
    pub work: RelevelWork,
}

/// Rate used for empty-path (same-host) flows: effectively instantaneous.
const LOCAL_RATE_BITS_PER_US: f64 = 1e9; // 1 Tbit/s

impl Routes {
    /// The group a new flow on `path` joins: a live route gains a flow and
    /// seeds its links; else a new group starts, rated now if no re-level
    /// is needed.  (Each empty-path flow is a group of its own.)
    fn join(&mut self, topo: &Topology, path: Rc<[LinkId]>) -> SlabKey {
        let live = path.first().and_then(|l| {
            let mut on_link = self.on_link.get(l.0 as usize)?.iter().copied();
            on_link.find(|&g| {
                let p = &self.groups.get(g).unwrap().path;
                Rc::ptr_eq(p, &path) || **p == *path
            })
        });
        if let Some(g) = live {
            self.groups.get_mut(g).unwrap().count += 1;
            self.seeds.extend_from_slice(&path);
            return g;
        }
        // Alone on every link of a simple path: the water-filler would put
        // this flow in a component by itself and assign the minimum link
        // share.  (A path that revisits a link self-contends, so it takes
        // the general route.)
        let disjoint = path
            .iter()
            .all(|l| self.on_link.get(l.0 as usize).is_none_or(Vec::is_empty))
            && !path.iter().enumerate().any(|(i, l)| path[..i].contains(l));
        let rate = if path.is_empty() {
            LOCAL_RATE_BITS_PER_US
        } else if disjoint {
            let share = path.iter().map(|l| topo.link(*l).capacity_bps / 1e6);
            share.fold(f64::INFINITY, f64::min).max(0.0).max(1e-9)
        } else {
            // Shares a link with live flows: re-level that component.
            self.seeds.extend_from_slice(&path);
            0.0
        };
        let count = 1;
        let g = self.groups.insert(Group { path, count, rate });
        for l in self.groups.get(g).unwrap().path.iter() {
            let li = l.0 as usize;
            if li >= self.on_link.len() {
                self.on_link.resize_with(li + 1, Vec::new);
            }
            self.on_link[li].push(g);
        }
        g
    }

    /// One flow of group `g` leaves.  While the route keeps flows its links
    /// are seeded; with the last one the group goes, and only the links
    /// other groups still cross are seeded: no rate on the others is left.
    fn leave(&mut self, g: SlabKey) {
        let group = self.groups.get_mut(g).unwrap();
        group.count -= 1;
        if group.count > 0 {
            self.seeds.extend_from_slice(&group.path);
            return;
        }
        let path = self.groups.remove(g).unwrap().path;
        for l in path.iter() {
            let on_link = &mut self.on_link[l.0 as usize];
            if let Some(pos) = on_link.iter().position(|&k| k == g) {
                on_link.swap_remove(pos);
            }
        }
        let loaded = path
            .iter()
            .filter(|l| !self.on_link[l.0 as usize].is_empty());
        self.seeds.extend(loaded);
    }

    fn rate(&self, f: &Flow) -> f64 {
        self.groups.get(f.group).unwrap().rate
    }
}

impl FlowNet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Advance all flows to `now`, appending to `done` the tokens of the
    /// flows that have completed (in key order) and re-leveling the flows
    /// they shared links with.  The caller must then re-query
    /// `next_completion`.
    pub fn advance_into(&mut self, topo: &Topology, now: SimTime, done: &mut Vec<FlowToken>) {
        debug_assert!(now >= self.last);
        let dt = (now - self.last).as_micros() as f64;
        self.last = now;
        let routes = &mut self.routes;
        self.flows.drain_where(
            |f| {
                if dt > 0.0 {
                    f.remaining -= routes.rate(f) * dt;
                }
                let finished = f.remaining <= 1e-6;
                if finished {
                    routes.leave(f.group);
                }
                finished
            },
            |_, f| done.push(f.token),
        );
        // Only flows sharing links with the departed ones can change rate;
        // empty-path completions leave the vector untouched.
        self.relevel_component(topo);
    }

    /// [`FlowNet::advance_into`] with a buffer of its own, for callers
    /// that take a step now and then rather than one per event.
    pub fn advance(&mut self, topo: &Topology, now: SimTime) -> Vec<FlowToken> {
        let mut done = Vec::new();
        self.advance_into(topo, now, &mut done);
        done
    }

    /// Start a flow of `bytes` bytes along `path` (may be empty for
    /// same-host transfers).  The caller must have advanced to `now` first.
    pub fn start(
        &mut self,
        topo: &Topology,
        now: SimTime,
        path: impl Into<Rc<[LinkId]>>,
        bytes: u64,
        token: FlowToken,
    ) -> FlowKey {
        debug_assert_eq!(self.last, now, "advance() before start()");
        let group = self.routes.join(topo, path.into());
        let remaining = (bytes.max(1) * 8) as f64;
        let key = self.flows.insert(Flow {
            group,
            remaining,
            token,
        });
        self.relevel_component(topo);
        key
    }

    /// Abort a flow (e.g. a failed request).  Returns its token.
    pub fn abort(&mut self, topo: &Topology, key: FlowKey) -> Option<FlowToken> {
        let f = self.flows.remove(key)?;
        self.routes.leave(f.group);
        self.relevel_component(topo);
        Some(f.token)
    }

    /// Re-derive the fair-share allocation after a link capacity changed
    /// underneath the active flows (fault injection: partition / heal):
    /// one re-level seeded with every loaded link.  The caller must have
    /// advanced to the current time first.
    pub fn capacity_changed(&mut self, topo: &Topology) {
        let Routes { on_link, seeds, .. } = &mut self.routes;
        for (li, groups) in on_link.iter().enumerate() {
            if !groups.is_empty() {
                seeds.push(LinkId(li as u32));
            }
        }
        self.relevel_component(topo);
    }

    /// The earliest absolute time at which some flow completes.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        let mut best = f64::INFINITY;
        for (_, f) in self.flows.iter() {
            let rate = self.routes.rate(f);
            if rate > 0.0 {
                best = best.min(f.remaining / rate);
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
    pub fn rate_of(&self, key: FlowKey) -> Option<f64> {
        self.flows.get(key).map(|f| self.routes.rate(f))
    }

    /// Visit every active flow's `(token, rate)` in key order, rate in
    /// bits/µs — how the tracer snapshots the rate vector after a
    /// fair-share recomputation.
    pub fn for_each_rate(&self, mut f: impl FnMut(FlowToken, f64)) {
        for (_, flow) in self.flows.iter() {
            f(flow.token, self.routes.rate(flow));
        }
    }

    /// Re-level the component of routes reachable from the seeded links
    /// (links connected through shared routes), consuming the seeds; no
    /// seeds, no work.  The arithmetic is a from-scratch water-filling of
    /// the component's flows one by one — links scanned in ascending index
    /// order, strictly-smaller bottleneck comparison — so rates are
    /// bit-identical to it.  A route's flows are fixed in one round at one
    /// share, each applying `r = (r - share).max(0.0)` to its links'
    /// residuals, in an order that cannot matter (DESIGN.md §6e): a route
    /// applies its `count` updates one after another, once the round knows
    /// which links no unfixed flow crosses any more — their residuals
    /// nothing reads again, so they are skipped.
    fn relevel_component(&mut self, topo: &Topology) {
        let (groups, on_link) = (&mut self.routes.groups, &self.routes.on_link);
        let (seeds, scratch, work) = (&mut self.routes.seeds, &mut self.scratch, &mut self.work);
        if seeds.is_empty() {
            return;
        }
        let Scratch {
            in_comp,
            comp_links,
            unfixed,
            listed,
            epoch,
            still_unfixed,
            fixed,
            residual,
            crossing,
        } = scratch;
        let n_links = topo.link_count();
        in_comp.clear();
        in_comp.resize(n_links, false);
        comp_links.clear();
        unfixed.clear();
        *epoch += 1;
        let stamp = *epoch;
        // Entering the component, a link lists the groups crossing it that
        // no other component link has listed yet.
        let mut enter = |l: LinkId, unfixed: &mut Vec<SlabKey>| {
            let li = l.0 as usize;
            if !in_comp[li] {
                in_comp[li] = true;
                comp_links.push(li);
                for &g in on_link.get(li).into_iter().flatten() {
                    let gi = g.index as usize;
                    if gi >= listed.len() {
                        listed.resize(gi + 1, 0);
                    }
                    if listed[gi] != stamp {
                        listed[gi] = stamp;
                        unfixed.push(g);
                    }
                }
            }
        };
        for l in seeds.drain(..) {
            enter(l, unfixed);
        }
        // Pull in the full link set of every component group (a route
        // found via one link drags its other links — and their routes — in).
        let mut i = 0;
        while i < unfixed.len() {
            let g = unfixed[i];
            i += 1;
            for l in groups.get(g).unwrap().path.iter() {
                enter(*l, unfixed);
            }
        }
        if unfixed.is_empty() {
            return;
        }
        comp_links.sort_unstable();

        residual.clear();
        residual.resize(n_links, 0.0);
        crossing.clear();
        crossing.resize(n_links, 0);
        for &li in comp_links.iter() {
            residual[li] = topo.link(LinkId(li as u32)).capacity_bps / 1e6;
        }
        work.relevels += 1;
        work.groups += unfixed.len() as u64;
        for &g in unfixed.iter() {
            let group = groups.get(g).unwrap();
            work.flows += u64::from(group.count);
            for l in group.path.iter() {
                crossing[l.0 as usize] += group.count;
            }
        }

        while !unfixed.is_empty() {
            let mut bottleneck: Option<(usize, f64)> = None;
            for &l in comp_links.iter() {
                if crossing[l] > 0 {
                    let share = residual[l] / crossing[l] as f64;
                    if bottleneck.is_none_or(|(_, s)| share < s) {
                        bottleneck = Some((l, share));
                    }
                }
            }
            let Some((bl, share)) = bottleneck else { break };
            let share = share.max(0.0);
            still_unfixed.clear();
            fixed.clear();
            for &g in unfixed.iter() {
                let group = groups.get_mut(g).unwrap();
                if group.path.iter().any(|l| l.0 as usize == bl) {
                    for l in group.path.iter() {
                        crossing[l.0 as usize] -= group.count;
                    }
                    group.rate = share.max(1e-9);
                    fixed.push(g);
                } else {
                    still_unfixed.push(g);
                }
            }
            // Only links some unfixed flow still crosses are read again.
            for &g in fixed.iter() {
                let group = groups.get(g).unwrap();
                for l in group.path.iter().filter(|l| crossing[l.0 as usize] > 0) {
                    let r = &mut residual[l.0 as usize];
                    for _ in 0..group.count {
                        *r = (*r - share).max(0.0);
                    }
                }
            }
            debug_assert!(still_unfixed.len() < unfixed.len(), "water-filling stuck");
            std::mem::swap(unfixed, still_unfixed);
        }
        if cfg!(debug_assertions) {
            // Every component flow runs, and no component link carries more
            // than its capacity, give or take the 1e-9 floor of each rate.
            for &li in comp_links.iter() {
                let on_link = on_link[li].iter().map(|g| groups.get(*g).unwrap());
                assert!(on_link.clone().all(|g| g.rate > 0.0), "starved on {li}");
                let load: f64 = on_link.clone().map(|g| g.rate * f64::from(g.count)).sum();
                let n: u32 = on_link.map(|g| g.count).sum();
                let cap = topo.link(LinkId(li as u32)).capacity_bps / 1e6;
                let slack = cap * 1e-9 + f64::from(n) * 1e-9;
                assert!(load <= cap + slack, "link {li}: {load} of {cap}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn topo_two_links() -> (Topology, LinkId, LinkId) {
        let mut t = Topology::new();
        let _a = t.add_node("a", 1, 1.0);
        let _b = t.add_node("b", 1, 1.0);
        // 8 bits/µs = 8 Mbit/s and 4 bits/µs links for easy math.
        let l1 = t.add_link("l1", 8e6, SimDuration::from_micros(10));
        let l2 = t.add_link("l2", 4e6, SimDuration::from_micros(10));
        (t, l1, l2)
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let (t, l1, _) = topo_two_links();
        let mut fnet = FlowNet::new();
        let k = fnet.start(&t, SimTime(0), vec![l1], 1000, 1); // 8000 bits
        assert_eq!(fnet.rate_of(k), Some(8.0));
        // 8000 bits at 8 bits/µs -> 1000 µs.
        assert_eq!(fnet.next_completion(SimTime(0)), Some(SimTime(1000)));
        let done = fnet.advance(&t, SimTime(1000));
        assert_eq!(done, vec![1]);
        assert_eq!(fnet.active(), 0);
    }

    #[test]
    fn two_flows_share_fairly() {
        let (t, l1, _) = topo_two_links();
        let mut fnet = FlowNet::new();
        let k1 = fnet.start(&t, SimTime(0), vec![l1], 1000, 1);
        let k2 = fnet.start(&t, SimTime(0), vec![l1], 1000, 2);
        assert_eq!(fnet.rate_of(k1), Some(4.0));
        assert_eq!(fnet.rate_of(k2), Some(4.0));
        // Each needs 8000/4 = 2000µs.
        let done = fnet.advance(&t, SimTime(2000));
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn completion_speeds_up_remaining_flow() {
        let (t, l1, _) = topo_two_links();
        let mut fnet = FlowNet::new();
        let _k1 = fnet.start(&t, SimTime(0), vec![l1], 500, 1); // 4000 bits
        let k2 = fnet.start(&t, SimTime(0), vec![l1], 1000, 2); // 8000 bits
                                                                // Shared at 4 each; flow 1 finishes at 1000µs.
        let t1 = fnet.next_completion(SimTime(0)).unwrap();
        assert_eq!(t1, SimTime(1000));
        let done = fnet.advance(&t, t1);
        assert_eq!(done, vec![1]);
        // Flow 2 has 4000 bits left, now at 8 bits/µs -> 500µs more.
        assert_eq!(fnet.rate_of(k2), Some(8.0));
        assert_eq!(fnet.next_completion(t1), Some(SimTime(1500)));
    }

    #[test]
    fn bottleneck_path_max_min() {
        let (t, l1, l2) = topo_two_links();
        let mut fnet = FlowNet::new();
        // Flow A crosses both links, flow B only the fat link.
        let ka = fnet.start(&t, SimTime(0), vec![l1, l2], 8000, 1);
        let kb = fnet.start(&t, SimTime(0), vec![l1], 8000, 2);
        // Bottleneck: l2 (4 bits/µs, 1 flow) -> A gets 4. B then gets the
        // rest of l1: 8 - 4 = 4.
        assert_eq!(fnet.rate_of(ka), Some(4.0));
        assert_eq!(fnet.rate_of(kb), Some(4.0));
        // Add a second l1-only flow: l1 fair share becomes min. With 3 flows
        // on l1: share 8/3 ≈ 2.67 < l2's 4 -> all fixed at 2.67... then A is
        // also limited by l1.
        let kc = fnet.start(&t, SimTime(0), vec![l1], 8000, 3);
        let ra = fnet.rate_of(ka).unwrap();
        let rb = fnet.rate_of(kb).unwrap();
        let rc = fnet.rate_of(kc).unwrap();
        assert!((ra - 8.0 / 3.0).abs() < 1e-9);
        assert!((rb - 8.0 / 3.0).abs() < 1e-9);
        assert!((rc - 8.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn local_flow_is_instant() {
        let (t, _, _) = topo_two_links();
        let mut fnet = FlowNet::new();
        fnet.start(&t, SimTime(0), vec![], 1_000_000, 9);
        let next = fnet.next_completion(SimTime(0)).unwrap();
        assert!(next.as_micros() <= 10);
        assert_eq!(fnet.advance(&t, next), vec![9]);
    }

    #[test]
    fn abort_removes_and_rebalances() {
        let (t, l1, _) = topo_two_links();
        let mut fnet = FlowNet::new();
        let k1 = fnet.start(&t, SimTime(0), vec![l1], 1000, 1);
        let k2 = fnet.start(&t, SimTime(0), vec![l1], 1000, 2);
        assert_eq!(fnet.abort(&t, k1), Some(1));
        assert_eq!(fnet.rate_of(k2), Some(8.0));
        assert_eq!(fnet.active(), 1);
    }

    #[test]
    fn conservation_no_link_oversubscribed() {
        // Many random flows: after every start and after every
        // completion, the rates of the flows crossing a link sum to at
        // most its capacity, and nobody is starved.
        let mut t = Topology::new();
        let _ = t.add_node("x", 1, 1.0);
        let links: Vec<LinkId> = (0..5)
            .map(|i| t.add_link(format!("l{i}"), (i as f64 + 1.0) * 1e6, SimDuration::ZERO))
            .collect();
        let check = |fnet: &FlowNet, live: &[(FlowKey, Vec<LinkId>)], when: &str| {
            let mut load = vec![0.0f64; links.len()];
            for (k, path) in live {
                let rate = fnet.rate_of(*k).expect("live flow");
                assert!(rate > 0.0, "{when}: flow {k:?} starved");
                for l in path {
                    load[l.0 as usize] += rate;
                }
            }
            for (&l, load) in links.iter().zip(load) {
                let cap = t.link(l).capacity_bps / 1e6;
                assert!(
                    load <= cap * (1.0 + 1e-9),
                    "{when}: {} carries {load} of {cap} bits/µs",
                    t.link(l).name
                );
            }
        };
        let mut fnet = FlowNet::new();
        let mut rng = simcore::SimRng::new(99);
        let mut live: Vec<(FlowKey, Vec<LinkId>)> = Vec::new();
        for tok in 0..40u64 {
            let mut path = Vec::new();
            for &l in &links {
                if rng.next_f64() < 0.4 {
                    path.push(l);
                }
            }
            if path.is_empty() {
                path.push(links[0]);
            }
            let bytes = 1_000 + rng.next_below(20_000);
            let k = fnet.start(&t, SimTime(0), path.clone(), bytes, tok);
            live.push((k, path));
            check(&fnet, &live, "start");
        }
        let mut now = SimTime(0);
        let mut completed = 0;
        while fnet.active() > 0 {
            let nxt = fnet.next_completion(now).expect("progress");
            assert!(nxt > now);
            now = nxt;
            completed += fnet.advance(&t, now).len();
            live.retain(|(k, _)| fnet.rate_of(*k).is_some());
            check(&fnet, &live, "completion");
        }
        assert_eq!(completed, 40);
    }

    #[test]
    fn zero_byte_flow_still_completes() {
        // A zero-length payload is clamped to one byte (8 bits) so the
        // flow always makes progress and completes.
        let (t, l1, _) = topo_two_links();
        let mut fnet = FlowNet::new();
        let k = fnet.start(&t, SimTime(0), vec![l1], 0, 7);
        assert_eq!(fnet.rate_of(k), Some(8.0));
        let next = fnet.next_completion(SimTime(0)).expect("completes");
        assert!(next > SimTime(0));
        assert_eq!(fnet.advance(&t, next), vec![7]);
        // Same for a zero-byte local (empty-path) flow.
        fnet.start(&t, next, vec![], 0, 8);
        let next2 = fnet.next_completion(next).expect("completes");
        assert_eq!(fnet.advance(&t, next2), vec![8]);
    }

    #[test]
    fn empty_path_flow_unaffected_by_recomputes() {
        // A local flow's rate must survive recomputations triggered by
        // link-flow churn happening at the same instant.
        let (t, l1, _) = topo_two_links();
        let mut fnet = FlowNet::new();
        let klocal = fnet.start(&t, SimTime(0), vec![], 1_000_000, 1);
        let rate0 = fnet.rate_of(klocal).unwrap();
        let ka = fnet.start(&t, SimTime(0), vec![l1], 1000, 2);
        let _kb = fnet.start(&t, SimTime(0), vec![l1], 1000, 3);
        assert_eq!(fnet.rate_of(klocal), Some(rate0));
        fnet.abort(&t, ka);
        fnet.capacity_changed(&t);
        assert_eq!(fnet.rate_of(klocal), Some(rate0));
        let done = fnet.advance(&t, fnet.next_completion(SimTime(0)).unwrap());
        assert_eq!(done, vec![1]);
    }

    #[test]
    fn next_completion_none_after_last_flow() {
        let (t, l1, _) = topo_two_links();
        let mut fnet = FlowNet::new();
        fnet.start(&t, SimTime(0), vec![l1], 1000, 1);
        let end = fnet.next_completion(SimTime(0)).unwrap();
        assert_eq!(fnet.advance(&t, end), vec![1]);
        assert_eq!(fnet.active(), 0);
        assert_eq!(fnet.next_completion(end), None);
        // Still None after further idle advances.
        assert!(fnet.advance(&t, SimTime(end.as_micros() + 500)).is_empty());
        assert_eq!(fnet.next_completion(SimTime(end.as_micros() + 500)), None);
    }
}
