//! Sweep progress reporting: per-point wall time, completion counter
//! and a wall-clock ETA, written to stderr so stdout stays clean for
//! tables and CSV.

use std::time::{Duration, Instant};

/// Tracks and prints sweep progress; silent with `enabled == false`.
/// It counts only what its `[ 12/175] … ETA` line needs — the sweep's
/// tally is the caller's `PerfSink`.
pub struct Reporter {
    total: usize,
    done: usize,
    executed: usize,
    started: Instant,
    enabled: bool,
}

impl Reporter {
    pub fn new(total: usize, enabled: bool) -> Reporter {
        Reporter {
            total,
            done: 0,
            executed: 0,
            started: Instant::now(),
            enabled,
        }
    }

    /// A point was satisfied from the cache.
    pub fn cache_hit(&mut self, key: &str) {
        self.done += 1;
        if self.enabled {
            eprintln!("[{:>4}/{}] {key}  (cached)", self.done, self.total);
        }
    }

    /// A point finished executing after `wall` of real time.
    pub fn finished(&mut self, key: &str, wall: Duration) {
        self.done += 1;
        self.executed += 1;
        if self.enabled {
            let eta = match self.eta() {
                Some(eta) => format!("  ETA {}", fmt_duration(eta)),
                None => String::new(),
            };
            eprintln!(
                "[{:>4}/{}] {key}  {}{eta}",
                self.done,
                self.total,
                fmt_duration(wall),
            );
        }
    }

    /// Estimated wall-clock time to finish the remaining points, from
    /// the observed aggregate completion rate.  Because the rate is
    /// measured against real elapsed time, parallelism is accounted for
    /// automatically.
    fn eta(&self) -> Option<Duration> {
        eta_from(
            self.total.saturating_sub(self.done),
            self.executed,
            self.started.elapsed(),
        )
    }
}

/// The pure ETA estimator behind [`Reporter`]: time to finish
/// `remaining` points given `executed` completions in `elapsed`.
///
/// `None` whenever no estimate is defensible: nothing remaining,
/// nothing executed yet (e.g. every point so far was a cache hit), an
/// elapsed time too small to carry a rate, or a projection beyond what
/// a `Duration` can hold (`try_from_secs_f64` fails closed, so absurd
/// inputs yield "no estimate" rather than a panic).
pub fn eta_from(remaining: usize, executed: usize, elapsed: Duration) -> Option<Duration> {
    if remaining == 0 || executed == 0 {
        return None;
    }
    let elapsed_s = elapsed.as_secs_f64();
    if elapsed_s <= 0.0 {
        return None;
    }
    let per_point = elapsed_s / executed as f64;
    Duration::try_from_secs_f64(per_point * remaining as f64).ok()
}

/// `93s -> "1m33s"`, `2.34s -> "2.3s"`, `120ms -> "120ms"`,
/// `250us -> "250us"`.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 60.0 {
        format!("{}m{:02}s", (s / 60.0) as u64, (s % 60.0) as u64)
    } else if s >= 1.0 {
        format!("{s:.1}s")
    } else if s >= 0.001 {
        format!("{}ms", d.as_millis())
    } else {
        format!("{}us", d.as_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_format_compactly() {
        assert_eq!(fmt_duration(Duration::from_secs_f64(2.34)), "2.3s");
        assert_eq!(fmt_duration(Duration::from_secs(93)), "1m33s");
        assert_eq!(fmt_duration(Duration::from_secs(3600)), "60m00s");
        assert_eq!(fmt_duration(Duration::from_secs(1)), "1.0s");
    }

    #[test]
    fn sub_second_durations_stay_legible() {
        assert_eq!(fmt_duration(Duration::from_millis(120)), "120ms");
        assert_eq!(fmt_duration(Duration::from_millis(999)), "999ms");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1ms");
        assert_eq!(fmt_duration(Duration::from_micros(250)), "250us");
        assert_eq!(fmt_duration(Duration::from_micros(1)), "1us");
        assert_eq!(fmt_duration(Duration::ZERO), "0us");
    }

    #[test]
    fn eta_estimator_handles_edges() {
        let sec = Duration::from_secs(1);
        // Nothing remaining / nothing executed yet: no estimate.
        assert_eq!(eta_from(0, 5, sec), None);
        assert_eq!(eta_from(5, 0, sec), None, "all-cache-hit sweep");
        assert_eq!(eta_from(5, 0, Duration::ZERO), None);
        // Zero elapsed (first completion within clock resolution).
        assert_eq!(eta_from(5, 1, Duration::ZERO), None);
        // Plain case: 2 done in 10 s, 3 to go -> 15 s.
        let eta = eta_from(3, 2, Duration::from_secs(10)).unwrap();
        assert!((eta.as_secs_f64() - 15.0).abs() < 1e-9);
        // Sub-millisecond rates must not lose the estimate entirely.
        let eta = eta_from(1000, 4, Duration::from_micros(100)).unwrap();
        assert!(eta > Duration::ZERO);
        // Absurd projections fail closed (None), never panic.
        assert_eq!(
            eta_from(usize::MAX, 1, Duration::from_secs(u32::MAX as u64)),
            None
        );
    }

    #[test]
    fn counters_accumulate_quietly() {
        let mut r = Reporter::new(3, false);
        r.cache_hit("a");
        r.finished("b", Duration::from_millis(5));
        r.finished("c", Duration::from_millis(5));
        assert_eq!((r.done, r.executed), (3, 2));
    }
}
