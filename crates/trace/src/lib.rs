//! # gridmon-trace — zero-cost-when-off observability for the simulator
//!
//! The paper's claims are mechanistic (which queue saturates, which
//! handshake dominates, which cache absorbs load), so reproducing its
//! figures credibly needs component-level visibility — without taxing
//! the default figure sweeps.  This crate provides:
//!
//! * [`events`] — the typed event taxonomy: event-loop dispatches, CPU
//!   grant/done/resched, flow start/rate/finish, connection admission and
//!   backlog drops, cache hits/misses, and query *spans* with causal
//!   parent ids whose phases mirror the request lifecycle.
//! * [`tracer`] — the bounded [`RingTracer`] (drop-oldest, counted).
//! * [`metrics`] — a [`MetricsRegistry`] of named counters, time-weighted
//!   gauges and log-bucketed histograms, snapshotted per measurement
//!   window.
//! * [`obs`] — the [`Obs`] handle worlds embed.  Every recording call is
//!   gated on one branch, so with [`ObsMode::OFF`] an instrumented
//!   site costs nothing else (`perf.overhead_ratio` and
//!   `trace.overhead_ratio` of the repo benchmark track the whole-sweep
//!   cost).
//! * [`export`] — Chrome `trace_event` (for `chrome://tracing` /
//!   Perfetto) and metrics-CSV exporters.
//! * [`inspect`] — parses an exported trace back into a per-phase
//!   latency breakdown, top queues by time-weighted depth and drop
//!   causes; drives the `gridmon-inspect` binary.
//!
//! Determinism contract: tracing observes the simulation and never
//! perturbs it — no RNG draws, no event scheduling — so figure CSVs are
//! byte-identical whatever the [`ObsMode`] (pinned by
//! `tests/parallel_figures.rs`).

#![forbid(unsafe_code)]

pub mod events;
pub mod export;
pub mod inspect;
pub mod json;
pub mod metrics;
pub mod obs;
pub mod tracer;

pub use events::{Ev, Outcome, Phase, SpanId, TraceEvent};
pub use export::{chrome_trace, metrics_csv, Span, TraceMeta};
pub use metrics::{MetricRow, MetricsRegistry};
pub use obs::{Obs, ObsMode, ObsReport};
pub use tracer::{RingTracer, DEFAULT_RING_CAP};
