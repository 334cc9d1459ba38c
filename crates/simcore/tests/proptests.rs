//! Property-based tests of the DES kernel, each against a certificate
//! written from the kernel's contract rather than from its code.
//!
//! * The calendar against an ordered map: pending events keyed by
//!   `(time, seq)`, a cancelled key simply removed.  Dispatch order, the
//!   final clock and the three counters follow from that map alone.
//! * `PsCpu` against the integral that defines processor sharing: each
//!   task's service is ∫ speed·min(1, cores/n) dt since its submit.

use proptest::prelude::*;
use simcore::slab::SlabKey;
use simcore::{Engine, PsCpu, SimDuration, SimRng, SimTime, World};
use std::collections::BTreeMap;

/// Records `(now, id)` of every dispatched event.
#[derive(Default)]
struct Log {
    fired: Vec<(u64, u32)>,
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Record `(now, id)`.
    Mark(u32),
    /// Record `(now, id)`, schedule `Mark(1000 + id)` 10 µs out, and
    /// schedule-then-cancel a timeout (retry-style churn).
    Spawn(u32),
    Noop,
}

impl World for Log {
    type Event = Ev;

    fn handle(&mut self, eng: &mut Engine<Log>, ev: Ev) {
        match ev {
            Ev::Mark(id) => self.fired.push((eng.now().as_micros(), id)),
            Ev::Spawn(id) => {
                self.fired.push((eng.now().as_micros(), id));
                eng.schedule_in(SimDuration(10), Ev::Mark(1000 + id));
                let doomed = eng.schedule_in(SimDuration(500), Ev::Noop);
                eng.cancel(doomed);
            }
            Ev::Noop => {}
        }
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

/// One script step: schedule at `t`; `spawn` picks the nested-rescheduling
/// event; `cancel` dooms it (cancelled in bursts of 16 so stale keys pile
/// up the way timeout-heavy services produce them).
type Script = [(u64, bool, bool)];

/// Every key a script can produce lies before this horizon.
const HORIZON: u64 = 1_000_000;

/// Replay `script` on the engine.
fn run_engine(script: &Script) -> (Log, Engine<Log>) {
    let mut eng = Engine::new(42);
    let mut w = Log::default();
    let mut doomed = Vec::new();
    for (i, &(t, spawn, cancel)) in script.iter().enumerate() {
        let ev = if spawn { Ev::Spawn } else { Ev::Mark };
        let h = eng.schedule_at(SimTime(t), ev(i as u32));
        if cancel {
            doomed.push(h);
        }
        if doomed.len() >= 16 || i + 1 == script.len() {
            for h in doomed.drain(..) {
                assert!(eng.cancel(h));
            }
        }
    }
    eng.run_until(&mut w, SimTime(HORIZON));
    (w, eng)
}

/// The certificate's calendar: returns the dispatch stream, the events
/// scheduled and the events cancelled.  When a script cancels cannot
/// matter here: every cancellation precedes the run.
fn model(script: &Script) -> (Vec<(u64, u32)>, u64, u64) {
    let mut cal = BTreeMap::new();
    let mut cancelled = 0;
    for (i, &(t, spawn, cancel)) in script.iter().enumerate() {
        let ev = if spawn { Ev::Spawn } else { Ev::Mark };
        if cancel {
            cancelled += 1;
        } else {
            cal.insert((t, i as u64), ev(i as u32));
        }
    }
    let mut seq = script.len() as u64;
    let mut stream = Vec::new();
    while let Some(((t, _), ev)) = cal.pop_first() {
        match ev {
            Ev::Mark(id) => stream.push((t, id)),
            Ev::Spawn(id) => {
                stream.push((t, id));
                cal.insert((t + 10, seq), Ev::Mark(1000 + id));
                // The timeout takes the next sequence number and is gone.
                seq += 2;
                cancelled += 1;
            }
            Ev::Noop => unreachable!("every Noop is cancelled"),
        }
    }
    (stream, seq, cancelled)
}

/// Work a task may still owe when `PsCpu` drains it (the kernel's `EPS`).
const EPS: f64 = 1e-3;
/// How far the certificate's sums may sit from the kernel's: within it of
/// its threshold, a task may be drained or kept.
const TOL: f64 = 1e-6;

/// A task as the certificate sees it: service received, work, token.
struct Task {
    served: f64,
    work: f64,
    token: u64,
}

/// Processor sharing from its definition.
struct Cpu {
    cores: f64,
    speed: f64,
    last: u64,
    /// Busy core-µs: whole numbers, so summed exactly.
    busy_us: f64,
    tasks: BTreeMap<SlabKey, Task>,
}

impl Cpu {
    fn rate(&self) -> f64 {
        self.speed * (self.cores / self.tasks.len() as f64).min(1.0)
    }

    /// Serve every task not yet drained from `last` to `now`.
    fn to(&mut self, now: u64) {
        let dt = (now - self.last) as f64;
        self.last = now;
        if dt > 0.0 && !self.tasks.is_empty() {
            self.busy_us += (self.tasks.len() as f64).min(self.cores) * dt;
            let work = self.rate() * dt;
            for t in self.tasks.values_mut() {
                t.served += work;
            }
        }
    }

    /// `batch` must be every task served to within `EPS` of its work, in
    /// key order.
    fn drain(&mut self, batch: &[u64]) {
        let mut want = Vec::new();
        self.tasks.retain(|_, t| {
            let short = t.work - EPS - t.served;
            let done = short <= -TOL || (short < TOL && batch.contains(&t.token));
            if done {
                want.push(t.token);
            }
            !done
        });
        assert_eq!(batch, want, "drained batch");
    }

    /// The instant the least-served task has all its work, rounded up and
    /// at least 1 µs out.
    fn next_completion(&self) -> Option<u64> {
        let owed = self
            .tasks
            .values()
            .map(|t| (t.work.max(EPS) - t.served).max(0.0));
        let least = owed.fold(f64::INFINITY, f64::min);
        let dt = (least / self.rate()).ceil() as u64;
        least.is_finite().then(|| self.last + dt.max(1))
    }

    fn check(&mut self, cpu: &mut PsCpu, now: u64, context: &str) {
        self.to(now);
        let busy = cpu.busy_core_seconds(SimTime(now));
        assert_eq!(busy, self.busy_us / 1e6, "busy after {context}");
        assert_eq!(cpu.runnable(), self.tasks.len(), "{context}");
        let got = cpu.next_completion(SimTime(now)).map(SimTime::as_micros);
        match (got, self.next_completion()) {
            (Some(a), Some(b)) => assert!(a.abs_diff(b) <= 1, "{a} vs {b} after {context}"),
            (a, b) => assert_eq!(a, b, "next_completion after {context}"),
        }
    }
}

proptest! {
    /// Random scripts mixing plain events, events that schedule and cancel
    /// from inside their handler, and burst cancellation: the engine
    /// dispatches what the ordered map pops, in that order, leaves the
    /// clock at the horizon, and its counters obey their laws — `fired`
    /// counts the events not cancelled, `popped` adds one stale key per
    /// cancellation, `advances` counts strict time steps of the stream.
    #[test]
    fn calendar_matches_ordered_map_model(
        script in proptest::collection::vec(
            (0u64..5000, any::<bool>(), any::<bool>()), 1..300),
    ) {
        let (w, eng) = run_engine(&script);
        let (stream, scheduled, cancelled) = model(&script);
        prop_assert_eq!(&w.fired, &stream);
        prop_assert_eq!(eng.now(), SimTime(HORIZON));
        prop_assert_eq!(eng.fired, scheduled - cancelled);
        prop_assert_eq!(eng.popped, eng.fired + cancelled);
        let times: Vec<u64> = std::iter::once(0).chain(stream.iter().map(|e| e.0)).collect();
        let steps = times.windows(2).filter(|w| w[0] < w[1]).count();
        prop_assert_eq!(eng.advances, steps as u64);
    }

    /// Random submit / abort / advance schedules on a `PsCpu`: every batch
    /// it drains, every `next_completion` (±1 µs) and every busy reading
    /// agree with processor sharing worked out task by task.
    #[test]
    fn ps_cpu_serves_by_processor_sharing(
        cores in 1u32..5,
        // Whole-number speeds and work put completions on the knife
        // edges where rounding decides a microsecond.
        speed in prop_oneof![Just(1.0), 0.25f64..4.0],
        seed in any::<u64>(),
        steps in 20usize..160,
    ) {
        let mut cpu = PsCpu::new(cores, speed);
        let mut m = Cpu {
            cores: f64::from(cores),
            speed,
            last: 0,
            busy_us: 0.0,
            tasks: BTreeMap::new(),
        };
        let mut rng = SimRng::new(seed);
        let mut now = 0u64;
        let mut keys: Vec<SlabKey> = Vec::new();
        let mut next_token = 0u64;
        // The caller-owned completion buffer: `advance_into` appends.
        let mut done = Vec::new();
        let mut advance = |cpu: &mut PsCpu, m: &mut Cpu, to: u64| {
            let kept = done.len();
            cpu.advance_into(SimTime(to), &mut done);
            m.to(to);
            m.drain(&done[kept..]);
            let progress = done.len() > kept;
            if done.len() > 64 {
                done.clear();
            }
            progress
        };
        for step in 0..steps {
            let what = rng.next_below(8);
            match what {
                0..=2 => {
                    // One to four submits at one instant: zero-work tasks,
                    // equal tasks (they finish together) and odd ones.
                    let equal = (1 + rng.next_below(5_000)) as f64;
                    for _ in 0..=rng.next_below(4) {
                        let work = match rng.next_below(4) {
                            0 => 0.0,
                            1 => equal,
                            _ => rng.uniform(0.0, 20_000.0),
                        };
                        let token = next_token;
                        next_token += 1;
                        m.to(now);
                        let k = cpu.submit(SimTime(now), work, token);
                        prop_assert!(m.tasks.insert(k, Task { served: 0.0, work, token }).is_none());
                        keys.push(k);
                    }
                }
                3 => {
                    // Abort a task, drained or not.
                    if !keys.is_empty() {
                        let k = keys.swap_remove(rng.next_below(keys.len() as u64) as usize);
                        m.to(now);
                        let want = m.tasks.remove(&k).map(|t| t.token);
                        prop_assert_eq!(cpu.abort(SimTime(now), k), want);
                    }
                }
                4 | 5 => {
                    if let Some(next) = cpu.next_completion(SimTime(now)) {
                        now = next.as_micros();
                        prop_assert!(advance(&mut cpu, &mut m, now), "no progress at {}", now);
                    }
                }
                6 => {
                    // Any distance: nothing (a same-instant drain), part
                    // of a task, or far enough to finish everything.
                    now += match rng.next_below(3) {
                        0 => 0,
                        1 => rng.next_below(2_000),
                        _ => rng.next_below(200_000),
                    };
                    advance(&mut cpu, &mut m, now);
                }
                // A load reading between steps moves the accounting
                // without draining.
                _ => now += rng.next_below(3_000),
            }
            m.check(&mut cpu, now, &format!("step {step} (op {what})"));
        }
        while let Some(next) = cpu.next_completion(SimTime(now)) {
            now = next.as_micros();
            prop_assert!(advance(&mut cpu, &mut m, now), "no progress at {}", now);
            m.check(&mut cpu, now, "drain");
        }
        prop_assert_eq!(cpu.runnable(), 0);
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
