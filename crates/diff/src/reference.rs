//! The closure-scheduling event calendar, kept verbatim as a differential
//! oracle for the typed-event [`simcore::Engine`].
//!
//! [`RefEngine`] is the engine as it stood before events became values
//! of `World::Event`: every event is a `Box`ed `FnOnce(&mut W, &mut
//! RefEngine<W>)` and slots are a private generational table.
//! `tests/engine_diff.rs` replays identical
//! schedule/cancel/reschedule scripts on both machines and asserts the
//! dispatch streams, clocks and counters match.  Never used by the
//! simulation.

use simcore::{SimDuration, SimRng, SimTime};
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
