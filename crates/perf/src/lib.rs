//! # gridmon-perf — the instrument turned on the instrument
//!
//! The workspace measures monitoring systems under load; this crate
//! measures the harness itself, so the "as fast as the hardware
//! allows" claim is anchored in numbers rather than vibes.  It
//! provides, mirroring the `gridmon-trace` zero-cost-when-off
//! discipline:
//!
//! * [`phase`] — scoped wall-clock phase timers ([`Phases`] +
//!   drop-guard [`PhaseScope`](phase::PhaseScope)) for the coarse
//!   stages of a run (enumerate, cache probe, execute, report).
//! * [`point`] — per-point execution records ([`PointRecord`]): wall
//!   time vs simulated time, engine events processed, simulated
//!   events per wall second, cache hit/miss and worker attribution —
//!   collected into a [`PerfSink`] the sweep engine threads through.
//! * [`alloc`] — an optional counting global allocator (feature
//!   `count-alloc`): allocation count, cumulative bytes and peak
//!   in-use bytes.  The default build never touches the allocator.
//! * [`report`] — the schema-versioned `perf.json` writer
//!   ([`report::perf_json`]) consumed by `gridmon-inspect --profile`.
//!
//! ## Zero-cost-when-off contract
//!
//! The only instrumentation that reaches simulation code is
//! [`sim_report`], called once per completed harness run (not per
//! event).  It is gated on a process-wide relaxed atomic that counts
//! live [`PerfSink`]s: with no sink alive the call is one predictable
//! branch, and the engine's own counters (`fired`, `popped`,
//! `advances`) are plain `u64` increments that exist regardless.
//! `perf.overhead_ratio` of the repo benchmark (`benchmark/README.md`)
//! is where the cost of a profiled sweep is read off.
//!
//! Profiling never perturbs results: it draws no randomness, schedules
//! no events and only *reads* engine counters after a run completes,
//! so figure CSVs are byte-identical with profiling on or off (pinned
//! by `tests/parallel_figures.rs`).

pub mod alloc;
pub mod phase;
pub mod point;
pub mod report;

pub use phase::Phases;
pub use point::{CacheStats, PerfSink, PointRecord, PointSample, PoolStats, SimCounters};

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Number of live [`PerfSink`]s (a refcount, not a flag, so two
/// concurrently profiled sweeps — e.g. parallel tests — cannot switch
/// each other off).
static ACTIVE_SINKS: AtomicUsize = AtomicUsize::new(0);

/// Is any profile collecting?  One relaxed load; the branch is
/// predictable because the answer almost never changes mid-run.
#[inline(always)]
pub fn profiling() -> bool {
    ACTIVE_SINKS.load(Ordering::Relaxed) != 0
}

/// RAII token keeping [`profiling`] true; held by every [`PerfSink`].
#[derive(Debug)]
pub(crate) struct ProfileGuard(());

impl ProfileGuard {
    pub(crate) fn new() -> ProfileGuard {
        ACTIVE_SINKS.fetch_add(1, Ordering::Relaxed);
        ProfileGuard(())
    }
}

impl Drop for ProfileGuard {
    fn drop(&mut self) {
        ACTIVE_SINKS.fetch_sub(1, Ordering::Relaxed);
    }
}

thread_local! {
    /// Scratch accumulator for the point currently executing on this
    /// thread.  Each sweep worker runs one point at a time, so a plain
    /// `Cell` is enough; [`measure_point`] resets it around the run.
    static SCRATCH: Cell<SimCounters> = const { Cell::new(SimCounters::ZERO) };
}

/// Report one completed engine run's counters into the active point's
/// scratch.  Called by the deployment harness after a simulation
/// finishes; a no-op (one branch) unless a profile is collecting.
///
/// Accumulates within one [`measure_point`]; every point is one
/// harness run, so that is one report per point.
#[inline]
pub fn sim_report(sim_end_us: u64, fired: u64, popped: u64, advances: u64) {
    if !profiling() {
        return;
    }
    SCRATCH.with(|s| {
        let mut c = s.get();
        c.engine_runs += 1;
        c.sim_us += sim_end_us;
        c.events += fired;
        c.popped += popped;
        c.advances += advances;
        s.set(c);
    });
}

/// Run `f` as one profiled point: reset this thread's scratch, execute,
/// and return the result together with the harvested [`PointSample`]
/// (wall time + whatever [`sim_report`] accumulated).
pub fn measure_point<R>(f: impl FnOnce() -> R) -> (R, PointSample) {
    SCRATCH.with(|s| s.set(SimCounters::ZERO));
    let t0 = Instant::now();
    let result = f();
    let wall = t0.elapsed();
    let sim = SCRATCH.with(|s| s.replace(SimCounters::ZERO));
    (result, PointSample { wall, sim })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_report_is_inert_without_a_sink() {
        // No sink alive (tests in this crate never leak one): scratch
        // stays zero even after reporting.
        assert!(!profiling() || ACTIVE_SINKS.load(Ordering::Relaxed) > 0);
        let (_, sample) = measure_point(|| {
            sim_report(1_000_000, 500, 600, 400);
        });
        if !profiling() {
            assert_eq!(sample.sim, SimCounters::ZERO);
        }
    }

    #[test]
    fn sink_enables_collection_and_drop_disables() {
        let sink = PerfSink::new();
        assert!(profiling());
        let (value, sample) = measure_point(|| {
            sim_report(2_000_000, 100, 120, 90);
            sim_report(1_000_000, 50, 60, 40);
            7
        });
        assert_eq!(value, 7);
        assert_eq!(sample.sim.engine_runs, 2);
        assert_eq!(sample.sim.sim_us, 3_000_000);
        assert_eq!(sample.sim.events, 150);
        assert_eq!(sample.sim.popped, 180);
        assert_eq!(sample.sim.advances, 130);
        drop(sink);
    }

    #[test]
    fn nested_sinks_refcount() {
        let a = PerfSink::new();
        let b = PerfSink::new();
        drop(a);
        assert!(profiling(), "second sink keeps profiling on");
        drop(b);
    }
}
