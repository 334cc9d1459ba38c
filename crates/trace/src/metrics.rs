//! Named counters, time-weighted gauges and histograms, snapshotted per
//! measurement window.
//!
//! Components register metrics lazily by name (`incr` / `gauge` /
//! `observe` create on first use), so a service crate does not need a
//! registration phase.  `window_begin` marks the start of the paper's
//! measurement window; [`MetricsRegistry::snapshot`] then reports both
//! run totals and in-window values for every metric.

use simcore::stats::Histogram;
use simcore::SimTime;
use std::collections::BTreeMap;

/// Monotonic counter with a window baseline.
#[derive(Debug, Clone, Copy, Default)]
struct Counter {
    total: u64,
    window_base: u64,
}

/// Time-weighted gauge of a piecewise-constant signal (queue depths,
/// runnable counts).  Tracks the full-run integral plus a window
/// baseline so per-window means come out exact.
#[derive(Debug, Clone, Copy)]
struct TwGauge {
    value: f64,
    last: SimTime,
    start: SimTime,
    /// Integral of the signal in value·µs since `start`.
    integral: f64,
    max: f64,
    win_start: Option<SimTime>,
    win_base: f64,
}

impl TwGauge {
    fn new(now: SimTime, value: f64) -> Self {
        TwGauge {
            value,
            last: now,
            start: now,
            integral: 0.0,
            max: value,
            win_start: None,
            win_base: 0.0,
        }
    }

    fn integral_at(&self, now: SimTime) -> f64 {
        let dt = now.as_micros().saturating_sub(self.last.as_micros()) as f64;
        self.integral + self.value * dt
    }

    fn set(&mut self, now: SimTime, value: f64) {
        self.integral = self.integral_at(now);
        self.last = now.max(self.last);
        self.value = value;
        self.max = self.max.max(value);
    }

    fn mark_window(&mut self, now: SimTime) {
        self.integral = self.integral_at(now);
        self.last = now.max(self.last);
        self.win_start = Some(now);
        self.win_base = self.integral;
    }

    /// Time-average over the window (or since first set, pre-window).
    fn mean(&self, now: SimTime) -> f64 {
        let (from, base) = match self.win_start {
            Some(ws) => (ws, self.win_base),
            None => (self.start, 0.0),
        };
        let span = now.as_micros().saturating_sub(from.as_micros()) as f64;
        if span <= 0.0 {
            return self.value;
        }
        (self.integral_at(now) - base) / span
    }
}

/// Histogram cell: sample distribution plus sum/count window baselines
/// so window means are exact even though bucket counts are approximate.
#[derive(Debug, Clone)]
struct HistCell {
    h: Histogram,
    sum: f64,
    count_base: u64,
    sum_base: f64,
}

/// One row of a metrics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Metric name, e.g. `mds.ldap_searches`.
    pub name: String,
    /// `counter`, `gauge`, `hist` or `value`.
    pub kind: &'static str,
    /// Run total: counter count, gauge last value, histogram sample
    /// count, or the raw value.
    pub total: f64,
    /// In-window delta (counters/histogram counts) or in-window mean
    /// (gauges); equals `total` when no window was marked.
    pub window: f64,
    /// Mean: gauge time-average, histogram in-window sample mean.
    pub mean: f64,
    /// Maximum observed (gauges only; otherwise 0).
    pub max: f64,
    /// Histogram quantiles over the full run (0 for other kinds).
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

/// The registry all components report into.
///
/// Histograms use a fixed layout (`lo = 1.0`, i.e. samples are expected
/// in microseconds).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, TwGauge>,
    hists: BTreeMap<String, HistCell>,
    values: BTreeMap<String, f64>,
    window_start: Option<SimTime>,
}

/// Lower edge of registry histograms: 1 µs.
pub const HIST_LO_US: f64 = 1.0;

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a counter, creating it at zero on first use.
    pub fn incr(&mut self, name: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            c.total += n;
        } else {
            self.counters.insert(
                name.to_string(),
                Counter {
                    total: n,
                    window_base: 0,
                },
            );
        }
    }

    /// Set a time-weighted gauge to `value` at `now`.
    pub fn gauge(&mut self, name: &str, now: SimTime, value: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            g.set(now, value);
        } else {
            self.gauges
                .insert(name.to_string(), TwGauge::new(now, value));
        }
    }

    /// Record one histogram sample (convention: microseconds).
    pub fn observe(&mut self, name: &str, sample_us: f64) {
        if let Some(c) = self.hists.get_mut(name) {
            c.h.record(sample_us);
            c.sum += sample_us;
        } else {
            let mut h = Histogram::new(HIST_LO_US);
            h.record(sample_us);
            self.hists.insert(
                name.to_string(),
                HistCell {
                    h,
                    sum: sample_us,
                    count_base: 0,
                    sum_base: 0.0,
                },
            );
        }
    }

    /// Set a plain value (end-of-run scalars like per-node busy seconds).
    pub fn set_value(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Mark the start of the measurement window: every metric's window
    /// baseline is reset to its current state.
    pub fn window_begin(&mut self, now: SimTime) {
        self.window_start = Some(now);
        for c in self.counters.values_mut() {
            c.window_base = c.total;
        }
        for g in self.gauges.values_mut() {
            g.mark_window(now);
        }
        for c in self.hists.values_mut() {
            c.count_base = c.h.count();
            c.sum_base = c.sum;
        }
    }

    /// Render every metric into sorted rows, evaluating gauges at `now`.
    pub fn snapshot(&self, now: SimTime) -> Vec<MetricRow> {
        let mut rows = Vec::new();
        for (name, c) in &self.counters {
            rows.push(MetricRow {
                name: name.clone(),
                kind: "counter",
                total: c.total as f64,
                window: (c.total - c.window_base) as f64,
                mean: 0.0,
                max: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
            });
        }
        for (name, g) in &self.gauges {
            rows.push(MetricRow {
                name: name.clone(),
                kind: "gauge",
                total: g.value,
                window: g.mean(now),
                mean: g.mean(now),
                max: g.max,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
            });
        }
        for (name, c) in &self.hists {
            let wn = c.h.count() - c.count_base;
            let wmean = if wn == 0 {
                0.0
            } else {
                (c.sum - c.sum_base) / wn as f64
            };
            rows.push(MetricRow {
                name: name.clone(),
                kind: "hist",
                total: c.h.count() as f64,
                window: wn as f64,
                mean: wmean,
                max: 0.0,
                p50: c.h.quantile(0.5),
                p90: c.h.quantile(0.9),
                p99: c.h.quantile(0.99),
            });
        }
        for (name, &v) in &self.values {
            rows.push(MetricRow {
                name: name.clone(),
                kind: "value",
                total: v,
                window: v,
                mean: v,
                max: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
            });
        }
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime(us)
    }

    fn row<'a>(rows: &'a [MetricRow], name: &str) -> &'a MetricRow {
        rows.iter().find(|r| r.name == name).unwrap()
    }

    #[test]
    fn counter_window_delta() {
        let mut m = MetricsRegistry::new();
        m.incr("c", 3);
        m.window_begin(t(100));
        m.incr("c", 4);
        let rows = m.snapshot(t(200));
        let r = row(&rows, "c");
        assert_eq!((r.total, r.window), (7.0, 4.0));
    }

    #[test]
    fn gauge_window_mean_is_time_weighted() {
        let mut m = MetricsRegistry::new();
        m.gauge("g", t(0), 10.0); // ignored by window mean
        m.window_begin(t(100));
        m.gauge("g", t(150), 2.0); // 10.0 for 50µs, then 2.0 for 50µs
        let rows = m.snapshot(t(200));
        let r = row(&rows, "g");
        assert!((r.mean - 6.0).abs() < 1e-9, "mean {}", r.mean);
        assert_eq!(r.max, 10.0);
        assert_eq!(r.total, 2.0);
    }

    #[test]
    fn hist_window_mean_and_quantiles() {
        let mut m = MetricsRegistry::new();
        m.observe("h", 1000.0);
        m.window_begin(t(10));
        m.observe("h", 2000.0);
        m.observe("h", 4000.0);
        let rows = m.snapshot(t(20));
        let r = row(&rows, "h");
        assert_eq!(r.total, 3.0);
        assert_eq!(r.window, 2.0);
        assert!((r.mean - 3000.0).abs() < 1e-9);
        assert!(r.p50 > 0.0 && r.p50 <= r.p99);
    }

    #[test]
    fn snapshot_is_sorted_and_values_pass_through() {
        let mut m = MetricsRegistry::new();
        m.set_value("z", 9.0);
        m.incr("a", 1);
        m.gauge("m", t(0), 1.0);
        let rows = m.snapshot(t(1));
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
        assert_eq!(row(&rows, "z").total, 9.0);
    }
}
