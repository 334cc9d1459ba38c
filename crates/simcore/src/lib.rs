//! # simcore — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate everything else in the `gridmon` workspace is
//! built on.  It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a microsecond-resolution simulated clock.
//! * [`Engine`] — an event calendar with stable (time, insertion-order)
//!   tie-breaking and cancellable event handles, generic over a [`World`]
//!   whose events are plain values of `World::Event` (no closures).
//! * [`cpu::PsCpu`] — a processor-sharing multi-core CPU model, the resource
//!   used for every compute demand in the simulated testbed.
//! * [`queueing::FifoTokens`] — a FIFO token pool used for server thread
//!   pools, listen backlogs and mutual-exclusion locks.
//! * [`rng::SimRng`] — a small, fully deterministic xoshiro256** PRNG, so
//!   simulation results are reproducible bit-for-bit across runs and
//!   platforms (no dependence on external crate versions).
//! * [`stats`] — online mean/min/max accumulators, an exponentially
//!   weighted moving average (Linux-style load average), log-bucketed
//!   histograms and measurement-window recorders.
//!
//! The kernel is intentionally synchronous and single-threaded per
//! simulation: determinism is a design goal (the same seed must produce the
//! same metric series).  Parallelism in the workspace happens *across*
//! independent simulations (parameter-sweep points), never inside one.

#![forbid(unsafe_code)]

pub mod cpu;
pub mod engine;
pub mod queueing;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use cpu::PsCpu;
pub use engine::{Engine, EventHandle, World};
pub use queueing::{Acquire, FifoTokens};
pub use rng::SimRng;
pub use slab::Slab;
pub use time::{SimDuration, SimTime};
