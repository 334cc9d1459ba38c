//! One-pass `PsCpu` vs the three-pass CPU it replaced.
//!
//! `simcore::PsCpu` caches the minimum remaining work over its tasks and
//! drains the finished ones in a single index-order pass into a buffer
//! the caller owns; [`RefPsCpu`] subtracts, collects the finished keys,
//! removes them one by one and folds the minimum afresh on every query.
//! Over random schedules the two must hand back the same tokens in the
//! same order and agree on every key, on `next_completion`, `runnable`
//! and `busy_core_seconds`, bit for bit, after every step.

use gridmon_diff::reference::RefPsCpu;
use proptest::prelude::*;
use simcore::slab::SlabKey;
use simcore::{PsCpu, SimRng, SimTime};

struct Pair {
    fast: PsCpu,
    slow: RefPsCpu,
    now: SimTime,
    live: Vec<SlabKey>,
    /// The caller-owned completion buffer, reused across steps: the fast
    /// side appends to it.
    done: Vec<u64>,
    next_token: u64,
}

impl Pair {
    fn submit(&mut self, work_us: f64) {
        let token = self.next_token;
        self.next_token += 1;
        let k = self.fast.submit(self.now, work_us, token);
        assert_eq!(k, self.slow.submit(self.now, work_us, token), "task key");
        self.live.push(k);
    }

    fn advance(&mut self, to: SimTime) {
        self.now = to;
        let kept = self.done.len();
        self.fast.advance_into(to, &mut self.done);
        let want = self.slow.advance(to);
        assert_eq!(&self.done[kept..], &want[..], "finished tokens at {to:?}");
        // Mostly left non-empty, so appending (not overwriting) is what
        // is checked.
        if self.done.len() > 64 {
            self.done.clear();
        }
    }

    fn check(&mut self, context: &str) {
        assert_eq!(
            self.fast.next_completion(self.now),
            self.slow.next_completion(self.now),
            "next_completion after {context}"
        );
        assert_eq!(self.fast.runnable(), self.slow.runnable(), "{context}");
        assert_eq!(
            self.fast.busy_core_seconds(self.now).to_bits(),
            self.slow.busy_core_seconds(self.now).to_bits(),
            "busy_core_seconds after {context}"
        );
    }
}

proptest! {
    #[test]
    fn random_schedule_agrees(
        cores in 1u32..5,
        speed in 0.25f64..4.0,
        seed in any::<u64>(),
        steps in 20usize..160,
    ) {
        let mut p = Pair {
            fast: PsCpu::new(cores, speed),
            slow: RefPsCpu::new(cores, speed),
            now: SimTime(0),
            live: Vec::new(),
            done: Vec::new(),
            next_token: 0,
        };
        let mut rng = SimRng::new(seed);
        for step in 0..steps {
            let what = rng.next_below(8);
            match what {
                0..=2 => {
                    // One to four submits at one instant: zero-work tasks,
                    // equal tasks (they finish together) and odd ones.
                    let equal = rng.uniform(1.0, 5_000.0);
                    for _ in 0..=rng.next_below(4) {
                        let work = match rng.next_below(4) {
                            0 => 0.0,
                            1 => equal,
                            _ => rng.uniform(0.0, 20_000.0),
                        };
                        p.submit(work);
                    }
                }
                3 => {
                    // Abort: a live task, the one that holds the minimum
                    // as often as any other — or a key long gone.
                    if !p.live.is_empty() {
                        let i = rng.next_below(p.live.len() as u64) as usize;
                        let k = p.live.swap_remove(i);
                        let now = p.now;
                        prop_assert_eq!(p.fast.abort(now, k), p.slow.abort(now, k));
                    }
                }
                4 | 5 => {
                    if let Some(next) = p.fast.next_completion(p.now) {
                        p.advance(next);
                    }
                }
                6 => {
                    // Any distance: nothing (a same-instant drain), part
                    // of a task, or far enough to finish everything.
                    let dt = match rng.next_below(3) {
                        0 => 0,
                        1 => rng.next_below(2_000),
                        _ => rng.next_below(200_000),
                    };
                    let to = SimTime(p.now.as_micros() + dt);
                    p.advance(to);
                }
                _ => {
                    // A load reading between steps moves the accounting
                    // (and every `remaining`) without draining.
                    p.now = SimTime(p.now.as_micros() + rng.next_below(3_000));
                }
            }
            p.check(&format!("step {step} (op {what})"));
        }
        // Drain.  The owned-result form is the same step.
        while let Some(next) = p.fast.next_completion(p.now) {
            p.now = next;
            prop_assert_eq!(p.fast.advance(next), p.slow.advance(next));
            p.check("drain");
        }
        prop_assert_eq!(p.fast.runnable(), 0);
    }
}

/// The shapes the random schedule is meant to reach, reached for sure.
#[test]
fn many_finish_at_once_in_index_order_after_recycling() {
    let mut fast = PsCpu::new(2, 1.0);
    let mut slow = RefPsCpu::new(2, 1.0);
    let t0 = SimTime(0);
    let mut keys = Vec::new();
    for token in 0..8u64 {
        let work = if token % 2 == 0 { 100.0 } else { 1e6 };
        let k = fast.submit(t0, work, token);
        assert_eq!(k, slow.submit(t0, work, token));
        keys.push(k);
    }
    // Free two slots out of order, then refill them: tokens 8 and 9 sit
    // in slots 5 and 1, so index order is no longer submission order.
    for &i in &[1usize, 5] {
        assert_eq!(fast.abort(t0, keys[i]), slow.abort(t0, keys[i]));
    }
    for token in 8..10u64 {
        assert_eq!(fast.submit(t0, 100.0, token), slow.submit(t0, 100.0, token));
    }
    assert_eq!(fast.next_completion(t0), slow.next_completion(t0));
    let t1 = fast.next_completion(t0).unwrap();
    let mut done = Vec::new();
    fast.advance_into(t1, &mut done);
    assert_eq!(done, slow.advance(t1));
    assert_eq!(done, vec![0, 9, 2, 4, 8, 6]);
    assert_eq!(fast.next_completion(t1), slow.next_completion(t1));
    // The free list is in the same order on both sides.
    for token in 10..18u64 {
        assert_eq!(fast.submit(t1, 7.0, token), slow.submit(t1, 7.0, token));
    }
    assert_eq!(fast.next_completion(t1), slow.next_completion(t1));
}
