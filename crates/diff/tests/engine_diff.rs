//! The event calendar against its oracle and its own accounting law.
//!
//! * Typed events vs closures: `Engine<World>` dispatching values of a
//!   small test `enum` must behave exactly like `RefEngine` running the
//!   equivalent closures — same stream, clock and all three counters.
//! * Lazy deletion: a cancelled event leaves its calendar entry behind
//!   and every such stale key is popped exactly once, so
//!   `popped == fired + cancelled` once the calendar has drained.

use gridmon_diff::reference::RefEngine;
use proptest::prelude::*;
use simcore::{Engine, SimDuration, SimTime};

#[derive(Default)]
struct World {
    dispatched: Vec<(u64, u32)>,
}

#[derive(Clone, Copy)]
enum Ev {
    /// Record `(now, id)`.
    Mark(u32),
    /// Record `(now, id)`, schedule `Mark(1000 + id)` 10 µs out, and
    /// schedule-then-cancel a timeout (retry-style churn).
    Spawn(u32),
    Noop,
}

impl simcore::World for World {
    type Event = Ev;

    fn handle(&mut self, eng: &mut Engine<World>, ev: Ev) {
        match ev {
            Ev::Mark(id) => self.dispatched.push((eng.now().as_micros(), id)),
            Ev::Spawn(id) => {
                self.dispatched.push((eng.now().as_micros(), id));
                eng.schedule_in(SimDuration(10), Ev::Mark(1000 + id));
                let doomed = eng.schedule_in(SimDuration(500), Ev::Noop);
                eng.cancel(doomed);
            }
            Ev::Noop => {}
        }
    }
}

/// `Ev::Mark` / `Ev::Spawn` as the closures the reference engine takes.
fn ref_mark(id: u32) -> impl FnOnce(&mut World, &mut RefEngine<World>) {
    move |w, eng| w.dispatched.push((eng.now().as_micros(), id))
}

fn ref_spawn(id: u32) -> impl FnOnce(&mut World, &mut RefEngine<World>) {
    move |w, eng| {
        w.dispatched.push((eng.now().as_micros(), id));
        eng.schedule_in(SimDuration(10), ref_mark(1000 + id));
        let doomed = eng.schedule_in(SimDuration(500), |_w, _e| {});
        eng.cancel(doomed);
    }
}

/// What a run leaves behind: dispatch stream, `now`, `fired`, `popped`,
/// `advances`.
type Trace = (Vec<(u64, u32)>, u64, u64, u64, u64);

/// One script step: schedule at `t`; `spawn` picks the nested-rescheduling
/// event; `cancel` dooms it (cancelled in bursts of 16 so stale keys pile
/// up the way timeout-heavy services produce them).
type Script = [(u64, bool, bool)];

/// Replay a script on either engine.  The two engines share no trait, so
/// the driver is a macro over their identical method names.
macro_rules! replay {
    ($eng:expr, $script:expr, $mark:expr, $spawn:expr) => {{
        let mut eng = $eng;
        let mut w = World::default();
        let mut doomed = Vec::new();
        for (i, &(t, spawn, cancel)) in $script.iter().enumerate() {
            let i = i as u32;
            let h = if spawn {
                eng.schedule_at(SimTime(t), $spawn(i))
            } else {
                eng.schedule_at(SimTime(t), $mark(i))
            };
            if cancel {
                doomed.push(h);
            }
            if doomed.len() >= 16 {
                for h in doomed.drain(..) {
                    assert!(eng.cancel(h));
                }
            }
        }
        for h in doomed {
            assert!(eng.cancel(h));
        }
        eng.run_until(&mut w, SimTime(1_000_000));
        let now = eng.now().as_micros();
        (w.dispatched, now, eng.fired, eng.popped, eng.advances)
    }};
}

fn run_typed(script: &Script) -> Trace {
    replay!(Engine::<World>::new(42), script, Ev::Mark, Ev::Spawn)
}

fn run_reference(script: &Script) -> Trace {
    replay!(RefEngine::<World>::new(42), script, ref_mark, ref_spawn)
}

proptest! {
    /// Any schedule/cancel pattern pops each cancelled event's stale key
    /// exactly once, and fires everything else.
    #[test]
    fn lazy_deletion_pops_every_stale_key(
        plan in proptest::collection::vec((0u64..5000, any::<bool>()), 1..400),
    ) {
        let script: Vec<_> = plan.iter().map(|&(t, cancel)| (t, false, cancel)).collect();
        let (stream, _, fired, popped, _) = run_typed(&script);
        let cancelled = plan.iter().filter(|&&(_, c)| c).count() as u64;
        prop_assert_eq!(stream.len() as u64, fired);
        prop_assert_eq!(fired, plan.len() as u64 - cancelled);
        prop_assert_eq!(popped, fired + cancelled);
    }

    /// Typed events in slab slots vs the box-per-closure reference engine:
    /// random scripts mixing plain events, events that schedule and cancel
    /// from inside their handler (a freed slot is immediately reused by the
    /// successor) and burst cancellation (recycled slots interleave with
    /// stale keys) must yield the same dispatch stream, clock and counters.
    #[test]
    fn typed_events_match_closure_reference(
        script in proptest::collection::vec(
            (0u64..5000, any::<bool>(), any::<bool>()), 1..300),
    ) {
        prop_assert_eq!(run_typed(&script), run_reference(&script));
    }
}
