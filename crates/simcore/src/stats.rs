//! Statistics primitives for the simulation.
//!
//! The paper reports four metrics for each experiment point: throughput
//! (completed queries/second over a 10-minute window), mean response time,
//! the Ganglia one-minute load average (`load1`) and CPU load (percent of
//! cycles in user+system mode).  The types here provide exactly the
//! accumulators those need:
//!
//! * [`MeanAccum`] — count / mean of samples;
//! * [`WindowedMean`] — a `MeanAccum` that only accepts samples inside a
//!   `[start, end)` measurement window (the paper measures over a 10-minute
//!   span after warm-up);
//! * [`LoadAvg`] — Linux-style exponentially decayed load average;
//! * [`Histogram`] — log-bucketed latency histogram with quantile queries;
//! * [`Series`] — a plain `(t, value)` time series for figure output.

use crate::time::SimTime;

/// Online count/mean accumulator.
#[derive(Debug, Clone, Default)]
pub struct MeanAccum {
    n: u64,
    sum: f64,
}

impl MeanAccum {
    pub fn new() -> Self {
        MeanAccum::default()
    }

    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// A [`MeanAccum`] restricted to a measurement window `[start, end)`.
///
/// Samples are attributed to their *completion* time, matching how the
/// paper's client scripts recorded queries: only queries finishing inside
/// the 10-minute span count.
#[derive(Debug, Clone)]
pub struct WindowedMean {
    pub start: SimTime,
    pub end: SimTime,
    acc: MeanAccum,
}

impl WindowedMean {
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(end >= start);
        WindowedMean {
            start,
            end,
            acc: MeanAccum::new(),
        }
    }

    /// Whether `at` falls inside the window `[start, end)`.
    pub fn contains(&self, at: SimTime) -> bool {
        at >= self.start && at < self.end
    }

    /// Record `x` if `at` falls inside the window; returns whether it did.
    pub fn record(&mut self, at: SimTime, x: f64) -> bool {
        let inside = self.contains(at);
        if inside {
            self.acc.record(x);
        }
        inside
    }

    pub fn stats(&self) -> &MeanAccum {
        &self.acc
    }

    /// Window length in seconds.
    pub fn span_secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Events per second over the window.
    pub fn rate_per_sec(&self) -> f64 {
        let span = self.span_secs();
        if span <= 0.0 {
            0.0
        } else {
            self.acc.count() as f64 / span
        }
    }
}

/// A Linux-style exponentially decayed load average.
///
/// The kernel updates `load = load * e + n * (1 - e)` every 5 seconds with
/// `e = exp(-5s / 60s)` for the one-minute average — exactly the
/// `load_one` metric Ganglia reports and the paper plots as "Load1".
#[derive(Debug, Clone)]
pub struct LoadAvg {
    value: f64,
    tau: f64,
    last: Option<SimTime>,
}

impl LoadAvg {
    /// One-minute load average (`tau` = 60 s).
    pub fn one_minute() -> Self {
        Self::with_tau(60.0)
    }

    pub fn with_tau(tau_secs: f64) -> Self {
        assert!(tau_secs > 0.0);
        LoadAvg {
            value: 0.0,
            tau: tau_secs,
            last: None,
        }
    }

    /// Feed the instantaneous runnable count `n` observed at `now`.
    pub fn update(&mut self, now: SimTime, n: f64) {
        let dt = match self.last {
            None => {
                // First sample initialises the average.
                self.value = 0.0;
                self.last = Some(now);
                5.0
            }
            Some(prev) => {
                let dt = now.saturating_since(prev).as_secs_f64();
                self.last = Some(now);
                dt
            }
        };
        let e = (-dt / self.tau).exp();
        self.value = self.value * e + n * (1.0 - e);
    }

    pub fn value(&self) -> f64 {
        self.value
    }
}

/// Log-bucketed histogram over positive values (e.g. response times in
/// seconds).  Buckets are half-open and grow geometrically by `2^(1/4)`,
/// giving ~19 % resolution over 10 decades with 128 buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    underflow: u64,
    total: u64,
    lo: f64,
    ratio_log2: f64,
}

impl Histogram {
    /// Histogram covering `[lo, ∞)`; values below `lo` count as underflow.
    pub fn new(lo: f64) -> Self {
        assert!(lo > 0.0);
        Histogram {
            buckets: vec![0; 128],
            underflow: 0,
            total: 0,
            lo,
            ratio_log2: 0.25, // 2^(1/4) per bucket
        }
    }

    fn bucket_of(&self, x: f64) -> Option<usize> {
        if x < self.lo {
            return None;
        }
        let b = ((x / self.lo).log2() / self.ratio_log2) as usize;
        Some(b.min(self.buckets.len() - 1))
    }

    pub fn record(&mut self, x: f64) {
        self.total += 1;
        match self.bucket_of(x) {
            Some(b) => self.buckets[b] += 1,
            None => self.underflow += 1,
        }
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Approximate quantile `q` in `[0, 1]` (returns the lower edge of the
    /// bucket containing the quantile).
    ///
    /// Edge cases: an empty histogram returns `0.0` for every `q`, and
    /// `q = 0` on a non-empty histogram returns the lower edge of the
    /// smallest occupied bucket (`0.0` if any sample underflowed) rather
    /// than pretending no data exists.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        // `q = 0` still names a data point (the minimum), so the rank
        // target is at least 1.
        let target = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if seen >= target {
            return 0.0;
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.lo * 2f64.powf(i as f64 * self.ratio_log2);
            }
        }
        self.lo * 2f64.powf((self.buckets.len() - 1) as f64 * self.ratio_log2)
    }
}

/// A `(time, value)` series, e.g. one Ganglia metric on one host.
#[derive(Debug, Clone, Default)]
pub struct Series {
    pub points: Vec<(SimTime, f64)>,
}

impl Series {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(pt, _)| pt <= t),
            "series times must be nondecreasing"
        );
        self.points.push((t, v));
    }

    /// Mean of values with `start <= t < end`.
    pub fn mean_in(&self, start: SimTime, end: SimTime) -> f64 {
        let mut acc = MeanAccum::new();
        for &(t, v) in &self.points {
            if t >= start && t < end {
                acc.record(v);
            }
        }
        acc.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn mean_accum_basic() {
        let mut m = MeanAccum::new();
        for x in [1.0, 2.0, 3.0] {
            m.record(x);
        }
        assert_eq!(m.count(), 3);
        assert!((m.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_accum_is_zeroed() {
        let m = MeanAccum::new();
        assert_eq!(m.mean(), 0.0);
    }

    #[test]
    fn windowed_mean_filters() {
        let mut w = WindowedMean::new(s(10), s(20));
        assert!(!w.record(s(5), 1.0));
        assert!(w.record(s(10), 2.0));
        assert!(w.record(s(19), 4.0));
        assert!(!w.record(s(20), 8.0)); // half-open
        assert_eq!(w.stats().count(), 2);
        assert!((w.rate_per_sec() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn load_avg_converges_to_constant_input() {
        let mut l = LoadAvg::one_minute();
        let mut t = SimTime::ZERO;
        for _ in 0..600 {
            l.update(t, 3.0);
            t += SimDuration::from_secs(5);
        }
        assert!((l.value() - 3.0).abs() < 1e-6, "value {}", l.value());
    }

    #[test]
    fn load_avg_decays_when_idle() {
        let mut l = LoadAvg::one_minute();
        let mut t = SimTime::ZERO;
        for _ in 0..120 {
            l.update(t, 5.0);
            t += SimDuration::from_secs(5);
        }
        let high = l.value();
        for _ in 0..12 {
            l.update(t, 0.0);
            t += SimDuration::from_secs(5);
        }
        // After one minute of idleness, decayed by e^-1.
        assert!(l.value() < high * 0.45);
        assert!(l.value() > high * 0.25);
    }

    #[test]
    fn histogram_quantiles_ordered() {
        let mut h = Histogram::new(1e-3);
        for i in 1..=1000 {
            h.record(i as f64 / 100.0); // 0.01 .. 10.0
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        assert!(p50 < p95);
        assert!(p50 > 3.0 && p50 < 7.0, "p50 {p50}");
        assert!(p95 > 7.0 && p95 < 11.0, "p95 {p95}");
    }

    #[test]
    fn histogram_underflow() {
        let mut h = Histogram::new(1.0);
        h.record(0.5);
        h.record(2.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.25), 0.0); // underflow bucket
    }

    #[test]
    fn histogram_empty_quantiles_are_zero() {
        let h = Histogram::new(1.0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 0.0);
        }
    }

    #[test]
    fn histogram_quantile_zero_is_minimum_bucket_edge() {
        let mut h = Histogram::new(1.0);
        h.record(8.0);
        h.record(64.0);
        // Before the fix, q=0 produced a rank target of 0 and always
        // returned 0.0 even with data present.
        let q0 = h.quantile(0.0);
        assert!(q0 > 0.0, "q0 {q0}");
        assert!(q0 <= 8.0, "q0 {q0} must not exceed the smallest sample");
        assert_eq!(h.quantile(0.0), h.quantile(1e-12));
    }

    #[test]
    fn series_window_stats() {
        let mut ser = Series::new();
        for i in 0..10 {
            ser.push(s(i), i as f64);
        }
        assert_eq!(ser.mean_in(s(2), s(5)), 3.0);
        assert_eq!(ser.mean_in(s(100), s(200)), 0.0);
    }
}
