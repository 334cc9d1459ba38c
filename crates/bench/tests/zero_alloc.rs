//! Pinned steady-state allocation behaviour of the event kernel.
//!
//! Events are plain values in recycled slab slots, so the schedule/fire
//! loop — the inner loop of every experiment — performs **zero** heap
//! allocations once the heap and the slab have reached their working
//! size.  This test pins that property under the counting allocator:
//! it warms a set-1-shaped world (periodic per-host probe events that
//! reschedule themselves, like the GRIS cache refreshers), then runs
//! thousands of further events and asserts the process allocation
//! counter did not move at all.
//!
//! Runs only with `--features alloc-profile` (which compiles the
//! counting global allocator in); without it the test is a no-op so
//! plain `cargo test` stays green.

use simcore::{Engine, SimDuration, SimTime};

/// A per-host probe that re-arms itself every `period`.
#[derive(Clone, Copy)]
struct Probe {
    host: usize,
    period: SimDuration,
}

/// The measured world: per-host counters bumped by self-rescheduling
/// probe events, the shape of the set-1 MDS refresh loop.
struct World {
    fired: Vec<u64>,
}

impl simcore::World for World {
    type Event = Probe;

    fn handle(&mut self, eng: &mut Engine<World>, probe: Probe) {
        self.fired[probe.host] += 1;
        eng.schedule_in(probe.period, probe);
    }
}

#[test]
fn steady_state_event_loop_allocates_nothing() {
    let Some(_) = gperf::alloc::stats() else {
        eprintln!("count-alloc not compiled in; skipping (run with --features alloc-profile)");
        return;
    };

    const HOSTS: usize = 50;
    let mut world = World {
        fired: vec![0; HOSTS],
    };
    let mut eng: Engine<World> = Engine::new(20030622);
    for h in 0..HOSTS {
        // Co-prime-ish periods so the heap sees interleaved orderings,
        // not one synchronized batch.
        let period = SimDuration::from_micros(900 + 7 * h as u64);
        eng.schedule_in(period, Probe { host: h, period });
    }

    // Warm-up: size the heap and the event slab.
    eng.run_until(&mut world, SimTime::from_secs_f64(0.5));
    let fired_warm: u64 = world.fired.iter().sum();
    assert!(fired_warm > 10_000, "warm-up fired {fired_warm}");

    // Steady state: every event must recycle its own slot.
    let before = gperf::alloc::stats().unwrap();
    eng.run_until(&mut world, SimTime::from_secs(1));
    let after = gperf::alloc::stats().unwrap();

    let fired: u64 = world.fired.iter().sum::<u64>() - fired_warm;
    assert!(fired > 10_000, "measured window fired {fired}");
    assert_eq!(
        after.allocs - before.allocs,
        0,
        "steady-state loop allocated {} times over {} events",
        after.allocs - before.allocs,
        fired
    );
    assert_eq!(after.bytes_total, before.bytes_total);
}
