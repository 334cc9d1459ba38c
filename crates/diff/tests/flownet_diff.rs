//! `FlowNet` against its two oracles.
//!
//! * Incremental vs from scratch: `FlowNet` re-levels only the connected
//!   component a mutation touches; `capacity_changed` (the from-scratch
//!   water-filling pass the simulator itself runs when a fault moves a
//!   link's capacity) rebuilds the whole rate vector.  After every
//!   mutation of a random schedule the two must agree on every flow's
//!   rate, bit for bit.
//! * Kept working memory vs allocated per call: `FlowNet` re-levels in
//!   scratch it keeps, shares each path as an `Rc`, and drains completed
//!   flows in one index-order pass into the caller's buffer;
//!   [`RefFlowNet`] is the same arithmetic as it was written first, a
//!   dozen fresh vectors per step.  Driven through the same schedule the
//!   two must return the same keys, complete the same tokens in the same
//!   order and agree on `next_completion` and every rate, bit for bit.

use gridmon_diff::reference::RefFlowNet;
use proptest::prelude::*;
use simcore::{SimRng, SimTime};
use simnet::flow::FlowNet;
use simnet::topology::{LinkId, Topology};
use std::rc::Rc;

fn build_topology(link_caps: &[f64], seed_latency_us: u64) -> (Topology, Vec<LinkId>) {
    let mut t = Topology::new();
    let _ = t.add_node("host", 1, 1.0);
    let links = link_caps
        .iter()
        .enumerate()
        .map(|(i, &cap)| {
            t.add_link(
                format!("l{i}"),
                cap,
                simcore::SimDuration::from_micros(seed_latency_us),
            )
        })
        .collect();
    (t, links)
}

/// Assert the incremental rate vector equals a full recompute of a clone.
fn assert_rates_match(fnet: &FlowNet, topo: &Topology, context: &str) {
    let mut fast = Vec::new();
    fnet.for_each_rate(|tok, r| fast.push((tok, r.to_bits())));
    let mut oracle = fnet.clone();
    oracle.capacity_changed(topo);
    let mut slow = Vec::new();
    oracle.for_each_rate(|tok, r| slow.push((tok, r.to_bits())));
    assert_eq!(
        fast, slow,
        "incremental diverged from reference after {context}"
    );
}

/// Assert the scratch-keeping net and the allocating one are in the same
/// state: same flows in the same slots at the same rates, same next event.
fn assert_same_state(fnet: &FlowNet, slow: &RefFlowNet, now: SimTime, context: &str) {
    let mut fast = Vec::new();
    fnet.for_each_rate(|tok, r| fast.push((tok, r.to_bits())));
    let mut reference = Vec::new();
    slow.for_each_rate(|tok, r| reference.push((tok, r.to_bits())));
    assert_eq!(fast, reference, "rates diverged after {context}");
    assert_eq!(
        fnet.next_completion(now),
        slow.next_completion(now),
        "next_completion after {context}"
    );
}

/// Experiment 4's shape at a fixed seed: hundreds of sources pushing
/// through one shared downlink, so nearly every re-level is one large
/// component in which each flow is reached through two or three links
/// (and twice through a link its path revisits), and the key slab grows
/// well past the size the first re-levels saw.
#[test]
fn many_sources_through_one_downlink_agree() {
    let (topo, links) = build_topology(&[3e6, 5e6, 11e6], 5);
    let (up_a, up_b, down) = (links[0], links[1], links[2]);
    let paths: [&[LinkId]; 5] = [
        &[up_a, down],
        &[up_b, down],
        &[up_a, down, up_a],
        &[down, up_b, down],
        &[down],
    ];
    let mut fnet = FlowNet::new();
    let mut slow = RefFlowNet::new();
    let mut rng = SimRng::new(20030622);
    let mut now = SimTime(0);
    let mut live = Vec::new();
    let advance = |fnet: &mut FlowNet, slow: &mut RefFlowNet, now: SimTime| {
        let done = fnet.advance(&topo, now);
        assert_eq!(
            done,
            slow.advance(&topo, now),
            "completed tokens at {now:?}"
        );
    };
    for tok in 0..320u64 {
        if tok % 40 == 39 {
            // A completion mid-ramp.
            now = fnet.next_completion(now).expect("flows are live");
            advance(&mut fnet, &mut slow, now);
            live.retain(|&k| fnet.rate_of(k).is_some());
        }
        let path = paths[rng.next_below(paths.len() as u64) as usize];
        let bytes = 200 + rng.next_below(4_000);
        let k = fnet.start(&topo, now, path, bytes, tok);
        assert_eq!(k, slow.start(&topo, now, path.to_vec(), bytes, tok));
        live.push(k);
        if rng.chance(0.1) {
            let k = live.swap_remove(rng.next_below(live.len() as u64) as usize);
            assert_eq!(fnet.abort(&topo, k), slow.abort(&topo, k));
        }
        assert_rates_match(&fnet, &topo, &format!("start {tok}"));
        assert_same_state(&fnet, &slow, now, &format!("start {tok}"));
    }
    assert!(live.len() >= 250, "{} flows live", live.len());
    while let Some(next) = fnet.next_completion(now) {
        now = next;
        advance(&mut fnet, &mut slow, now);
        assert_rates_match(&fnet, &topo, "drain");
        assert_same_state(&fnet, &slow, now, "drain");
    }
    assert_eq!(slow.active(), 0);
}

proptest! {
    /// Random link-capacity vectors and start/abort/complete schedules:
    /// the incremental kernel tracks both oracles through every mutation.
    #[test]
    fn random_schedule_agrees(
        caps in proptest::collection::vec(0.1f64..20.0, 1..8),
        seed in any::<u64>(),
        steps in 20usize..120,
    ) {
        let caps_bps: Vec<f64> = caps.iter().map(|c| c * 1e6).collect();
        let (topo, links) = build_topology(&caps_bps, 5);
        let mut fnet = FlowNet::new();
        let mut slow = RefFlowNet::new();
        let mut rng = SimRng::new(seed);
        let mut now = SimTime(0);
        let mut live = Vec::new();
        // The caller-owned completion buffer, reused: `advance_into`
        // appends to it.
        let mut done = Vec::new();
        let mut advance = |fnet: &mut FlowNet, slow: &mut RefFlowNet, now: SimTime| {
            done.clear();
            fnet.advance_into(&topo, now, &mut done);
            assert_eq!(done, slow.advance(&topo, now), "completed tokens at {now:?}");
        };
        for step in 0..steps as u64 {
            match rng.next_below(4) {
                0 | 1 => {
                    // Start: biased toward short, overlapping paths; some
                    // empty (same host), some crossing a link twice.
                    let mut path = Vec::new();
                    for &l in &links {
                        if rng.chance(0.35) {
                            path.push(l);
                        }
                    }
                    if !path.is_empty() && rng.chance(0.15) {
                        let again = path[rng.next_below(path.len() as u64) as usize];
                        path.push(again);
                    }
                    let bytes = rng.next_below(100_000);
                    let shared: Rc<[LinkId]> = path.as_slice().into();
                    let k = fnet.start(&topo, now, shared, bytes, step);
                    prop_assert_eq!(k, slow.start(&topo, now, path, bytes, step));
                    live.push(k);
                }
                2 => {
                    if !live.is_empty() {
                        let i = rng.next_below(live.len() as u64) as usize;
                        let k = live.swap_remove(i);
                        prop_assert_eq!(fnet.abort(&topo, k), slow.abort(&topo, k));
                    }
                }
                _ => {
                    if let Some(next) = fnet.next_completion(now) {
                        now = next;
                        advance(&mut fnet, &mut slow, now);
                        live.retain(|&k| fnet.rate_of(k).is_some());
                    }
                }
            }
            assert_rates_match(&fnet, &topo, &format!("step {step}"));
            assert_same_state(&fnet, &slow, now, &format!("step {step}"));
        }
        // Drain: completions must keep agreeing until the net is empty.
        while let Some(next) = fnet.next_completion(now) {
            now = next;
            advance(&mut fnet, &mut slow, now);
            assert_rates_match(&fnet, &topo, "drain");
            assert_same_state(&fnet, &slow, now, "drain");
        }
        prop_assert_eq!(fnet.active(), 0);
        prop_assert_eq!(slow.active(), 0);
    }

    /// Capacity changes (fault injection) fall back to the full pass and
    /// must leave the net in a state the oracle reproduces.
    #[test]
    fn capacity_change_resyncs(seed in any::<u64>()) {
        let (topo, links) = build_topology(&[4e6, 8e6, 2e6], 1);
        let mut fnet = FlowNet::new();
        let mut rng = SimRng::new(seed);
        for tok in 0..12u64 {
            let mut path = Vec::new();
            for &l in &links {
                if rng.chance(0.5) {
                    path.push(l);
                }
            }
            fnet.start(&topo, SimTime(0), path, 10_000 + tok, tok);
        }
        fnet.capacity_changed(&topo);
        assert_rates_match(&fnet, &topo, "capacity_changed");
        // And incremental mutations on top of the resync still agree.
        let k = fnet.start(&topo, SimTime(0), vec![links[1]], 5000, 99);
        assert_rates_match(&fnet, &topo, "start after capacity_changed");
        fnet.abort(&topo, k);
        assert_rates_match(&fnet, &topo, "abort after capacity_changed");
    }
}
