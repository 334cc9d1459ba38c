//! Named measurement sinks shared by the whole simulation.
//!
//! Experiments register a measurement window once; simulated users then
//! record response times and completions into named series.  The hub also
//! carries free-form counters (drops, retries, failures) that the analysis
//! layer reads after the run.

use simcore::stats::{MeanAccum, WindowedMean};
use simcore::SimTime;
use std::collections::HashMap;

/// Central statistics hub stored in the world.
pub struct StatsHub {
    window_start: SimTime,
    window_end: SimTime,
    response_times: HashMap<String, WindowedMean>,
    counters: HashMap<String, u64>,
    gauges: HashMap<String, MeanAccum>,
}

/// Apply `f` to `map[name]`, inserting `new()` on first use.  The lookup
/// is by `&str`, so only the first touch of a name allocates its key.
fn with_slot<V, R>(
    map: &mut HashMap<String, V>,
    name: &str,
    new: impl FnOnce() -> V,
    f: impl FnOnce(&mut V) -> R,
) -> R {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_owned()).or_insert_with(new)),
    }
}

impl StatsHub {
    /// Create a hub whose measurement window is `[start, end)`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        StatsHub {
            window_start: start,
            window_end: end,
            response_times: HashMap::new(),
            counters: HashMap::new(),
            gauges: HashMap::new(),
        }
    }

    /// Record a completed operation for `series` finishing at `at` with
    /// response time `rt_secs`.  Only completions inside the window count —
    /// the same discipline as the paper's 10-minute measurement spans.
    pub fn record_completion(&mut self, series: &str, at: SimTime, rt_secs: f64) {
        let (ws, we) = (self.window_start, self.window_end);
        with_slot(
            &mut self.response_times,
            series,
            || WindowedMean::new(ws, we),
            |w| w.record(at, rt_secs),
        );
    }

    /// Throughput of `series` in completions per second over the window.
    pub fn throughput(&self, series: &str) -> f64 {
        self.response_times
            .get(series)
            .map_or(0.0, WindowedMean::rate_per_sec)
    }

    /// Mean response time of `series` (seconds) over the window.
    pub fn mean_response_time(&self, series: &str) -> f64 {
        self.response_times
            .get(series)
            .map_or(0.0, |w| w.stats().mean())
    }

    /// Number of completions of `series` inside the window.
    pub fn completions(&self, series: &str) -> u64 {
        self.response_times
            .get(series)
            .map_or(0, |w| w.stats().count())
    }

    /// Increment a counter (unconditionally — counters are not windowed;
    /// pass `at` to restrict to the window).
    pub fn incr(&mut self, counter: &str) {
        with_slot(&mut self.counters, counter, || 0, |n| *n += 1);
    }

    /// Increment a counter only if `at` is inside the measurement window.
    pub fn incr_windowed(&mut self, counter: &str, at: SimTime) {
        if at >= self.window_start && at < self.window_end {
            self.incr(counter);
        }
    }

    pub fn counter(&self, counter: &str) -> u64 {
        self.counters.get(counter).copied().unwrap_or(0)
    }

    /// Record an arbitrary gauge sample (e.g. cache size at query time).
    pub fn gauge(&mut self, name: &str, value: f64) {
        with_slot(&mut self.gauges, name, MeanAccum::default, |g| {
            g.record(value)
        });
    }

    pub fn gauge_mean(&self, name: &str) -> f64 {
        self.gauges.get(name).map_or(0.0, MeanAccum::mean)
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
        h.record_completion("u", s(5), 1.0); // before window: ignored
        h.record_completion("u", s(12), 2.0);
        h.record_completion("u", s(15), 4.0);
        h.record_completion("u", s(25), 8.0); // after window: ignored
        assert_eq!(h.completions("u"), 2);
        assert!((h.throughput("u") - 0.2).abs() < 1e-12);
        assert!((h.mean_response_time("u") - 3.0).abs() < 1e-12);
    }

    #[test]
    fn counters_and_gauges() {
        let mut h = StatsHub::new(s(0), s(10));
        h.incr("drops");
        h.incr("drops");
        h.incr_windowed("drops_w", s(5));
        h.incr_windowed("drops_w", s(50));
        assert_eq!(h.counter("drops"), 2);
        assert_eq!(h.counter("drops_w"), 1);
        assert_eq!(h.counter("missing"), 0);
        h.gauge("cache", 10.0);
        h.gauge("cache", 20.0);
        assert_eq!(h.gauge_mean("cache"), 15.0);
    }

    #[test]
    fn unknown_series_is_zero() {
        let h = StatsHub::new(s(0), s(1));
        assert_eq!(h.throughput("nope"), 0.0);
        assert_eq!(h.mean_response_time("nope"), 0.0);
    }
}
