//! Property-based tests of the DES kernel's invariants.

use proptest::prelude::*;
use simcore::{Engine, PsCpu, SimTime, World};

/// Records `(now, id)` of every dispatched event.
#[derive(Default)]
struct Log {
    fired: Vec<(u64, usize)>,
}

impl World for Log {
    type Event = usize;

    fn handle(&mut self, eng: &mut Engine<Log>, id: usize) {
        self.fired.push((eng.now().as_micros(), id));
    }
}

/// Records one engine-RNG draw per dispatched event.
#[derive(Default)]
struct Draws {
    vals: Vec<u64>,
}

impl World for Draws {
    type Event = ();

    fn handle(&mut self, eng: &mut Engine<Draws>, (): ()) {
        self.vals.push(eng.rng.next_u64());
    }
}

proptest! {
    /// Events fire in nondecreasing time order with FIFO tie-breaking,
    /// for any schedule (including same-instant batches).
    #[test]
    fn calendar_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut eng: Engine<Log> = Engine::new(1);
        let mut w = Log::default();
        for (seq, &t) in times.iter().enumerate() {
            eng.schedule_at(SimTime(t), seq);
        }
        eng.run_until(&mut w, SimTime(10_000));
        prop_assert_eq!(w.fired.len(), times.len());
        for pair in w.fired.windows(2) {
            let (t1, s1) = pair[0];
            let (t2, s2) = pair[1];
            prop_assert!(t1 <= t2, "time went backwards");
            if t1 == t2 {
                prop_assert!(s1 < s2, "same-instant events must fire FIFO");
            }
        }
    }

    /// Cancelling a random subset of events fires exactly the complement.
    #[test]
    fn cancellation_is_exact(
        times in proptest::collection::vec(0u64..100, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut eng: Engine<Log> = Engine::new(1);
        let mut w = Log::default();
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| eng.schedule_at(SimTime(t), i))
            .collect();
        let mut kept = Vec::new();
        for (i, h) in handles.into_iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(eng.cancel(h));
            } else {
                kept.push(i);
            }
        }
        eng.run_until(&mut w, SimTime(10_000));
        let mut fired: Vec<usize> = w.fired.iter().map(|&(_, i)| i).collect();
        fired.sort_unstable();
        prop_assert_eq!(fired, kept);
    }

    /// The processor-sharing CPU conserves work: every task finishes, and
    /// total busy core-time equals the total work submitted (within
    /// rounding), never exceeding capacity.
    #[test]
    fn ps_cpu_work_conservation(
        works in proptest::collection::vec(100.0f64..50_000.0, 1..50),
        cores in 1u32..4,
    ) {
        let mut cpu = PsCpu::new(cores, 1.0);
        let mut now = SimTime(0);
        for (i, &w) in works.iter().enumerate() {
            cpu.submit(now, w, i as u64);
        }
        let mut done = 0usize;
        let mut guard = 0;
        while let Some(next) = cpu.next_completion(now) {
            prop_assert!(next > now);
            now = next;
            done += cpu.advance(now).len();
            guard += 1;
            prop_assert!(guard < 10_000);
        }
        prop_assert_eq!(done, works.len());
        let busy = cpu.busy_core_seconds(now) * 1e6; // back to µs
        let total: f64 = works.iter().sum();
        // Busy time accounts for all work (completion-rounding adds at
        // most ~1µs per task per membership change).
        let slack = 2.0 * works.len() as f64 * works.len() as f64;
        prop_assert!(busy >= total - 1.0, "busy {busy} < work {total}");
        prop_assert!(busy <= total + slack, "busy {busy} >> work {total}");
        // Capacity bound: elapsed * cores >= total work.
        let elapsed = now.as_micros() as f64;
        prop_assert!(elapsed * cores as f64 >= total - 1.0);
    }

    /// Deterministic replay: the same seed gives the same RNG-driven
    /// event interleaving.
    #[test]
    fn engine_rng_replay(seed in any::<u64>()) {
        let run = || {
            let mut eng: Engine<Draws> = Engine::new(seed);
            let mut w = Draws::default();
            for _ in 0..20 {
                let t = eng.rng.next_below(1000);
                eng.schedule_at(SimTime(t), ());
            }
            eng.run_until(&mut w, SimTime(10_000));
            w.vals
        };
        prop_assert_eq!(run(), run());
    }
}
