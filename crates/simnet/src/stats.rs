//! The measurement sink shared by the whole simulation.
//!
//! Experiments fix a measurement window once; simulated users then record
//! each query's outcome — completed, refused, failed, timed out, late —
//! and the analysis layer reads the typed tallies after the run.  Every
//! tally is windowed: an outcome counts only if it lands inside
//! `[start, end)`, the same discipline as the paper's 10-minute spans.

use simcore::stats::WindowedMean;
use simcore::SimTime;

/// Central statistics hub stored in the world.  The three latency
/// series are also the counts of their outcome (`stats().count()`).
pub struct StatsHub {
    /// Response times of completed queries; its rate is the throughput.
    pub completed: WindowedMean,
    /// Latency of failed attempts, kept apart so failures (which resolve
    /// fast) do not drag the completed-query mean.
    pub failed: WindowedMean,
    /// Waits abandoned at the client timeout, kept apart likewise.
    pub timedout: WindowedMean,
    /// Refused connections.
    pub refused: u64,
    /// Outcomes that arrived after their attempt was abandoned.
    pub late: u64,
}

impl StatsHub {
    /// Create a hub whose measurement window is `[start, end)`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        StatsHub {
            completed: WindowedMean::new(start, end),
            failed: WindowedMean::new(start, end),
            timedout: WindowedMean::new(start, end),
            refused: 0,
            late: 0,
        }
    }

    /// A query completed at `at`, `rt_secs` after it started.
    pub fn record_completion(&mut self, at: SimTime, rt_secs: f64) {
        self.completed.record(at, rt_secs);
    }

    /// An attempt failed at `at`, `rt_secs` after its query started.
    pub fn record_failed(&mut self, at: SimTime, rt_secs: f64) {
        self.failed.record(at, rt_secs);
    }

    /// An attempt was abandoned at `at`, `rt_secs` after its query started.
    pub fn record_timedout(&mut self, at: SimTime, rt_secs: f64) {
        self.timedout.record(at, rt_secs);
    }

    /// A connection was refused at `at`.
    pub fn record_refused(&mut self, at: SimTime) {
        self.refused += u64::from(self.completed.contains(at));
    }

    /// An outcome arrived at `at` for an attempt already abandoned.
    pub fn record_late(&mut self, at: SimTime) {
        self.late += u64::from(self.completed.contains(at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn windowed_throughput_and_rt() {
        let mut h = StatsHub::new(s(10), s(20));
        h.record_completion(s(5), 1.0); // before window: ignored
        h.record_completion(s(10), 2.0); // the start is inside
        h.record_completion(s(15), 4.0);
        h.record_completion(s(20), 8.0); // the end is not
        h.record_completion(s(25), 8.0); // after window: ignored
        assert_eq!(h.completed.stats().count(), 2);
        assert!((h.completed.rate_per_sec() - 0.2).abs() < 1e-12);
        assert!((h.completed.stats().mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn every_outcome_counts_only_inside_the_window() {
        let mut h = StatsHub::new(s(10), s(20));
        for at in [s(9), s(10), s(19), s(20)] {
            h.record_refused(at);
            h.record_failed(at, 0.5);
            h.record_timedout(at, 1.5);
            h.record_late(at);
        }
        assert_eq!((h.refused, h.late), (2, 2));
        assert_eq!(h.failed.stats().count(), 2);
        assert_eq!(h.failed.stats().mean(), 0.5);
        assert_eq!(h.timedout.stats().count(), 2);
        assert_eq!(h.timedout.stats().mean(), 1.5);
    }

    #[test]
    fn an_untouched_hub_reads_zero() {
        let h = StatsHub::new(s(0), s(1));
        assert_eq!(h.completed.rate_per_sec(), 0.0);
        assert_eq!(h.completed.stats().mean(), 0.0);
        assert_eq!(h.failed.stats().count(), 0);
        assert_eq!((h.refused, h.late), (0, 0));
    }
}
