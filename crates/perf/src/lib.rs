//! # gridmon-perf — the instrument turned on the instrument
//!
//! The workspace measures monitoring systems under load; this crate
//! measures the harness itself, so the "as fast as the hardware
//! allows" claim is anchored in numbers rather than vibes.  It
//! provides:
//!
//! * [`phase`] — accumulated wall-clock phases ([`Phases`]) for the
//!   coarse stages of a run (enumerate, cache probe, execute,
//!   assemble), each timed by its caller.
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
//! ## How engine facts reach a profile
//!
//! Nothing in this crate is called from simulation code.  The engine's
//! counters (`fired`, `popped`, `advances`) are plain `u64` increments
//! that exist regardless; the sweep engine copies them into a
//! [`SimCounters`] once per executed point and returns them by value
//! with the point's result, and the caller's [`PerfSink`] records them
//! beside the wall time the thread pool measured.  A sink is always
//! passed; whether `perf.json` is written is the caller's choice, and
//! `perf.overhead_ratio` of the repo benchmark (`benchmark/README.md`)
//! is where the cost of writing it is read off.

pub mod alloc;
pub mod phase;
pub mod point;
pub mod report;

pub use phase::Phases;
pub use point::{CacheStats, PerfSink, PointRecord, PoolStats, SimCounters};
