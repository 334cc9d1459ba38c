//! The event calendar and simulation driver.
//!
//! [`Engine<W>`] is generic over a [`World`]: the type that owns all
//! mutable simulation state and names its event type.  Events are plain
//! values of [`World::Event`] (in `simnet`, one small `Copy` enum), not
//! closures: [`schedule_at`](Engine::schedule_at) stores the value in a
//! generational [`Slab`] and pushes a `(time, seq, key)` entry onto a
//! binary heap; dispatch removes the value and hands it to
//! [`World::handle`] together with exclusive access to the engine, so a
//! handler can schedule or cancel further events.
//!
//! Ordering guarantees:
//! * events fire in nondecreasing time order;
//! * events scheduled for the same instant fire in scheduling order
//!   (a stable FIFO tie-break via a monotonic sequence number), which is
//!   what makes runs deterministic.
//!
//! Cancellation is lazy: [`cancel`](Engine::cancel) removes the value
//! from the slab (dropping it) and leaves its heap entry behind as a
//! *stale key*, which is skipped when it reaches the top.  A dispatched
//! or cancelled event frees its slab slot before anything else runs, so a
//! self-rescheduling event reuses its own slot and, once the heap and
//! the slab have reached their working size, the schedule/fire loop
//! performs **zero heap allocations** (pinned by the `alloc-profile`
//! test in `crates/bench`).

use crate::rng::SimRng;
use crate::slab::{Slab, SlabKey};
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The simulation state an [`Engine`] drives.
pub trait World: Sized {
    /// What can be scheduled: one value per pending event.
    type Event;

    /// Dispatch one event at `eng.now()`.
    fn handle(&mut self, eng: &mut Engine<Self>, ev: Self::Event);
}

/// Handle to a scheduled event; can be used to cancel it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct EventHandle(SlabKey);

impl EventHandle {
    /// A handle that never resolves.
    pub const NULL: EventHandle = EventHandle(SlabKey::NULL);
}

/// Calendar entry.  `seq` is unique, so `(time, seq)` is already a total
/// order and `key` never takes part in a comparison's outcome.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct QKey {
    time: SimTime,
    seq: u64,
    key: SlabKey,
}

/// The discrete-event simulation engine.
pub struct Engine<W: World> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<QKey>>,
    /// Pending events; a heap entry whose key no longer resolves here is
    /// stale (its event was cancelled).
    events: Slab<W::Event>,
    /// Number of events fired so far (for diagnostics / runaway detection).
    pub fired: u64,
    /// Calendar pops, including stale keys for cancelled events.  The
    /// gap `popped - fired` is pure heap churn — useful when profiling
    /// cancel-heavy workloads (timeouts, retries).
    pub popped: u64,
    /// Strict clock advances (dispatches where `now` actually moved).
    /// `fired - advances` events rode an existing timestamp.
    pub advances: u64,
    /// Root RNG; components should `fork` child streams from it.
    pub rng: SimRng,
}

impl<W: World> Engine<W> {
    pub fn new(seed: u64) -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            events: Slab::new(),
            fired: 0,
            popped: 0,
            advances: 0,
            rng: SimRng::new(seed),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `ev` to fire at absolute time `at` (clamped to `now` if in
    /// the past, which can happen from floating-point rounding in resource
    /// models).
    pub fn schedule_at(&mut self, at: SimTime, ev: W::Event) -> EventHandle {
        let key = self.events.insert(ev);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(QKey {
            time: at.max(self.now),
            seq,
            key,
        }));
        EventHandle(key)
    }

    /// Schedule `ev` to fire after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, ev: W::Event) -> EventHandle {
        self.schedule_at(self.now + delay, ev)
    }

    /// Cancel a pending event, dropping its value.  Returns `true` if the
    /// event existed and was cancelled; cancelling an already-fired or
    /// already-cancelled event is a harmless no-op.
    pub fn cancel(&mut self, h: EventHandle) -> bool {
        self.events.remove(h.0).is_some()
    }

    /// Fire the next event if there is one at or before `limit`; returns
    /// `false` otherwise.  Never moves the clock past an event time: when
    /// nothing fires, `now` is left where it was.
    fn step(&mut self, world: &mut W, limit: SimTime) -> bool {
        loop {
            let Some(Reverse(top)) = self.heap.peek() else {
                return false;
            };
            if top.time > limit {
                return false;
            }
            let Reverse(top) = self.heap.pop().expect("peeked");
            self.popped += 1;
            let Some(ev) = self.events.remove(top.key) else {
                // Cancelled (its slot possibly recycled); skip the stale key.
                continue;
            };
            debug_assert!(top.time >= self.now, "time went backwards");
            if top.time > self.now {
                self.advances += 1;
            }
            self.now = top.time;
            self.fired += 1;
            world.handle(self, ev);
            return true;
        }
    }

    /// Fire every event at or before `until`, in order, then set the clock
    /// to `until`: afterwards `now == until` (or later, if it already
    /// was), so subsequent scheduling is relative to the horizon.
    pub fn run_until(&mut self, world: &mut W, until: SimTime) {
        while self.step(world, until) {}
        self.now = self.now.max(until);
    }

    /// Run until the calendar is completely empty (use with care: periodic
    /// events make this nonterminating).
    pub fn run_to_completion(&mut self, world: &mut W) {
        while self.step(world, SimTime::MAX) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[derive(Default)]
    struct Log {
        entries: Vec<(u64, &'static str)>,
    }

    enum Ev {
        /// Record `(now, name)`.
        Mark(&'static str),
        Noop,
        /// Schedule `Mark(name)` after a delay / at an absolute time.
        MarkIn(SimDuration, &'static str),
        MarkAt(SimTime, &'static str),
        /// Record a tick and re-arm 10 µs later until five were seen.
        Tick,
        /// Owns a refcount until fired, cancelled or dropped with the engine.
        Hold(Rc<()>),
    }

    impl World for Log {
        type Event = Ev;

        fn handle(&mut self, eng: &mut Engine<Log>, ev: Ev) {
            match ev {
                Ev::Mark(name) => self.entries.push((eng.now().as_micros(), name)),
                Ev::Noop => {}
                Ev::Hold(token) => drop(token),
                Ev::MarkIn(d, name) => {
                    eng.schedule_in(d, Ev::Mark(name));
                }
                Ev::MarkAt(t, name) => {
                    eng.schedule_at(t, Ev::Mark(name));
                }
                Ev::Tick => {
                    self.entries.push((eng.now().as_micros(), "tick"));
                    if self.entries.len() < 5 {
                        eng.schedule_in(SimDuration(10), Ev::Tick);
                    }
                }
            }
        }
    }

    fn eng() -> Engine<Log> {
        Engine::new(1)
    }

    #[test]
    fn fires_in_time_order() {
        let mut e = eng();
        let mut w = Log::default();
        e.schedule_at(SimTime(30), Ev::Mark("c"));
        e.schedule_at(SimTime(10), Ev::Mark("a"));
        e.schedule_at(SimTime(20), Ev::Mark("b"));
        e.run_until(&mut w, SimTime(100));
        assert_eq!(w.entries, vec![(10, "a"), (20, "b"), (30, "c")]);
        assert_eq!(e.now(), SimTime(100));
    }

    #[test]
    fn same_time_fifo_order() {
        let mut e = eng();
        let mut w = Log::default();
        for name in ["first", "second", "third"] {
            e.schedule_at(SimTime(5), Ev::Mark(name));
        }
        e.run_until(&mut w, SimTime(10));
        let names: Vec<_> = w.entries.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut e = eng();
        let mut w = Log::default();
        let h = e.schedule_at(SimTime(10), Ev::Mark("x"));
        assert!(e.cancel(h));
        assert!(!e.cancel(h)); // double-cancel is a no-op
        e.run_until(&mut w, SimTime::MAX);
        assert!(w.entries.is_empty());
        assert_eq!((e.fired, e.popped), (0, 1)); // only the stale key
    }

    #[test]
    fn events_can_schedule_events() {
        let mut e = eng();
        let mut w = Log::default();
        e.schedule_at(SimTime(1), Ev::MarkIn(SimDuration(5), "chained"));
        e.run_until(&mut w, SimTime(10));
        assert_eq!(w.entries, vec![(6, "chained")]);
    }

    #[test]
    fn past_schedule_clamps_to_now() {
        let mut e = eng();
        let mut w = Log::default();
        // Fires at 50 and schedules a "past" event: clamped to now = 50.
        e.schedule_at(SimTime(50), Ev::MarkAt(SimTime(10), "clamped"));
        e.run_until(&mut w, SimTime(100));
        assert_eq!(w.entries, vec![(50, "clamped")]);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut e = eng();
        let mut w = Log::default();
        e.schedule_at(SimTime(10), Ev::Mark("in"));
        e.schedule_at(SimTime(200), Ev::Mark("out"));
        e.run_until(&mut w, SimTime(100));
        assert_eq!(w.entries, vec![(10, "in")]);
        e.run_until(&mut w, SimTime(300));
        assert_eq!(w.entries.len(), 2);
    }

    #[test]
    fn slot_reuse_does_not_resurrect_cancelled_events() {
        let mut e = eng();
        let mut w = Log::default();
        let h = e.schedule_at(SimTime(10), Ev::Mark("dead"));
        e.cancel(h);
        // Reuses the slot with a new generation.
        e.schedule_at(SimTime(10), Ev::Mark("live"));
        e.run_until(&mut w, SimTime(20));
        assert_eq!(w.entries, vec![(10, "live")]);
    }

    #[test]
    fn periodic_self_rescheduling() {
        let mut e = eng();
        let mut w = Log::default();
        e.schedule_at(SimTime(0), Ev::Tick);
        e.run_to_completion(&mut w);
        assert_eq!(w.entries.len(), 5);
        assert_eq!(e.now(), SimTime(40));
    }

    #[test]
    fn fired_counter_counts() {
        let mut e = eng();
        let mut w = Log::default();
        for t in 0..10 {
            e.schedule_at(SimTime(t), Ev::Noop);
        }
        e.run_until(&mut w, SimTime(100));
        assert_eq!(e.fired, 10);
    }

    #[test]
    fn cancel_drops_captured_state() {
        let mut e = eng();
        let token = Rc::new(());
        let h = e.schedule_at(SimTime(10), Ev::Hold(Rc::clone(&token)));
        assert_eq!(Rc::strong_count(&token), 2);
        assert!(e.cancel(h));
        assert_eq!(Rc::strong_count(&token), 1, "cancel must drop the event");
    }

    #[test]
    fn dropping_engine_drops_pending_closures() {
        let token = Rc::new(());
        {
            let mut e = eng();
            e.schedule_at(SimTime(10), Ev::Hold(Rc::clone(&token)));
            e.schedule_at(SimTime(20), Ev::Hold(Rc::clone(&token)));
            assert_eq!(Rc::strong_count(&token), 3);
        }
        assert_eq!(
            Rc::strong_count(&token),
            1,
            "engine drop must release pending events"
        );
    }

    #[test]
    fn popped_counts_stale_keys_and_advances_strict_moves() {
        let mut e = eng();
        let mut w = Log::default();
        // Two live events at t=5 (one advance, one same-time dispatch),
        // one at t=9, and one cancelled at t=7 (a stale heap key).
        e.schedule_at(SimTime(5), Ev::Noop);
        e.schedule_at(SimTime(5), Ev::Noop);
        let dead = e.schedule_at(SimTime(7), Ev::Noop);
        e.schedule_at(SimTime(9), Ev::Noop);
        e.cancel(dead);
        e.run_until(&mut w, SimTime(100));
        assert_eq!(e.fired, 3);
        assert_eq!(e.popped, 4, "stale key for the cancelled event pops too");
        assert_eq!(e.advances, 2, "t=0->5 and t=5->9; the second t=5 rides");
    }
}
