//! The observability handle the simulated world carries.
//!
//! `Obs` is the single object instrumentation sites talk to.  The
//! zero-cost-when-off contract lives here: every recording method first
//! checks whether its sink is live, so with observability off (the
//! default) an instrumented site costs one predictable branch — no
//! allocation, no formatting.  `perf.overhead_ratio` of the repo
//! benchmark (`benchmark/README.md`) tracks what that costs a whole sweep.

use crate::events::{Ev, TraceEvent};
use crate::metrics::{MetricRow, MetricsRegistry};
use crate::tracer::RingTracer;
use simcore::SimTime;

/// Which observability features are enabled for a run.  Part of a run's
/// identity: the runner folds the fingerprint into its cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsMode {
    /// Record typed events into a ring buffer.
    pub trace: bool,
    /// Maintain the metrics registry.
    pub metrics: bool,
}

impl ObsMode {
    /// Everything off — the production default.
    pub const OFF: ObsMode = ObsMode {
        trace: false,
        metrics: false,
    };

    /// Everything on.
    pub const FULL: ObsMode = ObsMode {
        trace: true,
        metrics: true,
    };

    /// Any feature enabled?
    pub fn enabled(self) -> bool {
        self.trace || self.metrics
    }

    /// Stable string for cache keys and report headers.
    pub fn fingerprint(self) -> String {
        format!(
            "obs=trace:{},metrics:{}",
            u8::from(self.trace),
            u8::from(self.metrics)
        )
    }
}

/// Everything observability collects over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    /// The mode the run used.
    pub mode: ObsMode,
    /// Recorded events in dispatch order (empty unless tracing).
    pub events: Vec<TraceEvent>,
    /// Events the ring had to drop (oldest first).
    pub dropped: u64,
    /// Metrics snapshot at harvest time (empty unless metrics).
    pub metrics: Vec<MetricRow>,
}

/// The observability sink embedded in the simulated world.
pub struct Obs {
    /// Tracing, and the measurement window has begun
    /// ([`Obs::window_begin`]).
    in_window: bool,
    mode: ObsMode,
    /// `Some` exactly when tracing.
    tracer: Option<RingTracer>,
    /// The metrics registry (public so harvesters can inject values).
    pub metrics: MetricsRegistry,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("mode", &self.mode).finish()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::off()
    }
}

impl Obs {
    /// Fully disabled observability (every recording call is a no-op
    /// behind one branch).
    pub fn off() -> Self {
        Obs::from_mode(ObsMode::OFF)
    }

    /// Build the sink a mode asks for.
    pub fn from_mode(mode: ObsMode) -> Self {
        Obs {
            in_window: false,
            mode,
            tracer: mode.trace.then(RingTracer::default),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Is event tracing on?
    #[inline(always)]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Is the metrics registry live?
    #[inline(always)]
    pub fn metrics_on(&self) -> bool {
        self.mode.metrics
    }

    /// Anything enabled?
    #[inline(always)]
    pub fn on(&self) -> bool {
        self.tracer.is_some() || self.mode.metrics
    }

    /// Tracing, and the measurement window has begun?  The world records
    /// its dispatch stream from then on; with tracing off this stays
    /// `false`, so the per-event check is one branch.
    #[inline(always)]
    pub fn in_window(&self) -> bool {
        self.in_window
    }

    /// Record an event (no-op unless tracing).
    #[inline(always)]
    pub fn ev(&mut self, at: SimTime, ev: Ev) {
        if let Some(t) = &mut self.tracer {
            t.record(at, ev);
        }
    }

    /// Record a lazily-built event: `f` only runs when tracing, so
    /// argument computation (lookups, counts) costs nothing when off.
    #[inline(always)]
    pub fn ev_with(&mut self, at: SimTime, f: impl FnOnce() -> Ev) {
        if let Some(t) = &mut self.tracer {
            t.record(at, f());
        }
    }

    /// Bump a counter (no-op unless metrics are on).
    #[inline(always)]
    pub fn incr(&mut self, name: &str, n: u64) {
        if self.mode.metrics {
            self.metrics.incr(name, n);
        }
    }

    /// Set a time-weighted gauge (no-op unless metrics are on).
    #[inline(always)]
    pub fn gauge(&mut self, name: &str, now: SimTime, value: f64) {
        if self.mode.metrics {
            self.metrics.gauge(name, now, value);
        }
    }

    /// Record a histogram sample in µs (no-op unless metrics are on).
    #[inline(always)]
    pub fn observe(&mut self, name: &str, sample_us: f64) {
        if self.mode.metrics {
            self.metrics.observe(name, sample_us);
        }
    }

    /// Mark the start of the measurement window.
    pub fn window_begin(&mut self, now: SimTime) {
        self.in_window = self.tracer.is_some();
        if self.mode.metrics {
            self.metrics.window_begin(now);
        }
    }

    /// Harvest the run: drain events and snapshot metrics at `now`.
    /// Returns `None` when observability was off.
    pub fn finish(&mut self, now: SimTime) -> Option<ObsReport> {
        if !self.on() {
            return None;
        }
        let (events, dropped) = self
            .tracer
            .as_mut()
            .map_or_else(Default::default, RingTracer::take);
        Some(ObsReport {
            mode: self.mode,
            events,
            dropped,
            metrics: self.metrics.snapshot(now),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_reports_none() {
        let mut o = Obs::off();
        assert!(!o.on());
        o.ev(SimTime(1), Ev::Dispatch { seq: 1 });
        o.incr("x", 1);
        o.observe("h", 5.0);
        assert!(o.finish(SimTime(2)).is_none());
        assert!(o.metrics.snapshot(SimTime(2)).is_empty());
    }

    #[test]
    fn full_mode_collects_both() {
        let mut o = Obs::from_mode(ObsMode::FULL);
        o.ev(SimTime(1), Ev::Dispatch { seq: 1 });
        o.ev_with(SimTime(2), || Ev::ConnDrop { svc: 0 });
        o.incr("drops", 1);
        let r = o.finish(SimTime(3)).unwrap();
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.metrics.len(), 1);
        assert_eq!(r.mode, ObsMode::FULL);
    }

    #[test]
    fn metrics_only_mode_skips_events() {
        let mut o = Obs::from_mode(ObsMode {
            trace: false,
            metrics: true,
        });
        let mut lazily_built = false;
        o.ev_with(SimTime(1), || {
            lazily_built = true;
            Ev::ConnDrop { svc: 0 }
        });
        assert!(
            !lazily_built,
            "event closures must not run when not tracing"
        );
        o.incr("c", 2);
        let r = o.finish(SimTime(2)).unwrap();
        assert!(r.events.is_empty());
        assert_eq!(r.metrics.len(), 1);
    }

    #[test]
    fn fingerprints_are_distinct() {
        let all: Vec<String> = [
            ObsMode::OFF,
            ObsMode::FULL,
            ObsMode {
                trace: true,
                metrics: false,
            },
            ObsMode {
                trace: false,
                metrics: true,
            },
        ]
        .iter()
        .map(|m| m.fingerprint())
        .collect();
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i], all[j]);
            }
        }
    }
}
