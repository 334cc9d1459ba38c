//! Per-point execution records and the [`PerfSink`] that collects them.
//!
//! One [`PointRecord`] per sweep point: how long the point took on the
//! wall clock, how much simulated time it covered, how many engine
//! events it dispatched (so `events / wall` is the simulator's
//! hot-path speed in sim-events per wall second), whether it was
//! served from the result cache, and which pool worker ran it.  The
//! sink also aggregates cache traffic ([`CacheStats`]) and per-worker
//! busy/idle attribution ([`PoolStats`]).
//!
//! The sweep engine fills the sink its caller passes: an executed
//! point's record is the pool's wall time plus the [`SimCounters`] the
//! point returned with its result.

use crate::phase::Phases;
use std::time::Duration;

/// Engine-side counters of one point's harness run (every point is one
/// run), returned by value with the point's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimCounters {
    /// Simulated microseconds covered (warm-up included).
    pub sim_us: u64,
    /// Events dispatched (`Engine::fired`).
    pub events: u64,
    /// Calendar pops including stale/cancelled keys (`Engine::popped`).
    pub popped: u64,
    /// Strict clock advances (`Engine::advances`): dispatches where the
    /// simulated clock actually moved.
    pub advances: u64,
    /// Flow re-levels that re-rated some flow (`simnet::flow::RelevelWork`),
    /// the flows they re-rated and the route groups they visited.
    pub relevels: u64,
    pub relevel_flows: u64,
    pub relevel_groups: u64,
}

/// One executed (or cache-served) sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// The point's stable identity (`setN/<series>/x=<x>`, `ext/...`).
    pub key: String,
    /// Pool worker that ran it (0 for the inline sequential path and
    /// for cache hits, which resolve on the submitting thread).
    pub worker: usize,
    /// Served from the result cache (no simulation executed)?
    pub cached: bool,
    /// Wall-clock cost (execution, or cache load + decode).
    pub wall: Duration,
    /// Engine counters (all zero for cache hits).
    pub sim: SimCounters,
}

impl PointRecord {
    /// Simulated seconds covered.
    pub fn sim_s(&self) -> f64 {
        self.sim.sim_us as f64 / 1e6
    }

    /// Simulator speed: engine events dispatched per wall second
    /// (0.0 for cache hits and zero-length walls).
    pub fn events_per_sec(&self) -> f64 {
        let w = self.wall.as_secs_f64();
        if w > 0.0 {
            self.sim.events as f64 / w
        } else {
            0.0
        }
    }
}

/// Result-cache traffic over a profiled run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Bytes of cache records read on hits.
    pub bytes_read: u64,
    /// Bytes of fresh records written back.
    pub bytes_written: u64,
}

/// Per-worker busy/idle attribution over a profiled run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolStats {
    /// Resolved worker count of the widest sweep the sink saw.
    pub workers: usize,
    /// Busy wall time per worker (sum of executed-point walls).
    pub busy: Vec<Duration>,
    /// Executed points per worker.
    pub jobs: Vec<usize>,
    /// Wall time of the sweeps' execution phases (accumulated).
    pub wall: Duration,
}

impl PoolStats {
    fn reserve(&mut self, worker: usize) {
        if self.busy.len() <= worker {
            self.busy.resize(worker + 1, Duration::ZERO);
            self.jobs.resize(worker + 1, 0);
        }
    }

    /// Total busy time across workers.
    pub fn busy_total(&self) -> Duration {
        self.busy.iter().sum()
    }

    /// Fraction of `workers x wall` worker-time spent executing points
    /// (the remainder is idle / steal / collect time).  0.0 when no
    /// execution wall was recorded.
    pub fn busy_share(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.workers.max(1) as f64;
        if capacity > 0.0 {
            (self.busy_total().as_secs_f64() / capacity).min(1.0)
        } else {
            0.0
        }
    }
}

/// The collector a sweep writes into.
#[derive(Debug, Default)]
pub struct PerfSink {
    /// Coarse wall-clock stages (enumerate / cache probe / execute /
    /// report), fed by the harness binaries.
    pub phases: Phases,
    /// One record per point, in completion order.
    pub points: Vec<PointRecord>,
    pub cache: CacheStats,
    pub pool: PoolStats,
}

impl PerfSink {
    /// Record one executed point with its worker attribution.
    pub fn record_executed(
        &mut self,
        key: String,
        worker: usize,
        wall: Duration,
        sim: SimCounters,
    ) {
        self.pool.reserve(worker);
        self.pool.busy[worker] += wall;
        self.pool.jobs[worker] += 1;
        self.points.push(PointRecord {
            key,
            worker,
            cached: false,
            wall,
            sim,
        });
    }

    /// Record one cache-served point (`wall` = load + decode time).
    pub fn record_cached(&mut self, key: String, wall: Duration, bytes: u64) {
        self.cache.hits += 1;
        self.cache.bytes_read += bytes;
        self.points.push(PointRecord {
            key,
            worker: 0,
            cached: true,
            wall,
            sim: SimCounters::default(),
        });
    }

    /// Record a cache miss (the execution record follows separately).
    pub fn record_miss(&mut self) {
        self.cache.misses += 1;
    }

    /// Record bytes written back to the cache for a fresh result.
    pub fn record_store(&mut self, bytes: u64) {
        self.cache.bytes_written += bytes;
    }

    /// Note an execution phase: resolved worker count and its wall
    /// time (accumulating across sweeps feeding the same sink).
    pub fn record_pool_run(&mut self, workers: usize, wall: Duration) {
        self.pool.workers = self.pool.workers.max(workers);
        self.pool.reserve(workers.saturating_sub(1));
        self.pool.wall += wall;
    }

    /// Executed (non-cached) records.
    pub fn executed(&self) -> impl Iterator<Item = &PointRecord> {
        self.points.iter().filter(|p| !p.cached)
    }

    /// Aggregate totals over every record in the sink.
    pub fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for p in &self.points {
            if p.cached {
                t.cached += 1;
            } else {
                t.executed += 1;
                t.exec_wall += p.wall;
                t.sim_us += p.sim.sim_us;
                t.events += p.sim.events;
                t.popped += p.sim.popped;
                t.advances += p.sim.advances;
            }
        }
        t
    }
}

/// Sink-wide aggregates (executed points only, except `cached`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub executed: u64,
    pub cached: u64,
    pub exec_wall: Duration,
    pub sim_us: u64,
    pub events: u64,
    pub popped: u64,
    pub advances: u64,
}

impl Totals {
    /// Aggregate simulator speed: events per wall second summed over
    /// executed points (0.0 when nothing executed).
    pub fn events_per_sec(&self) -> f64 {
        let w = self.exec_wall.as_secs_f64();
        if w > 0.0 {
            self.events as f64 / w
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(events: u64) -> SimCounters {
        SimCounters {
            sim_us: 2_000_000,
            events,
            popped: events + 5,
            advances: events,
            ..SimCounters::default()
        }
    }

    #[test]
    fn records_attribute_workers_and_cache() {
        let mut sink = PerfSink::default();
        sink.record_pool_run(2, Duration::from_millis(30));
        sink.record_miss();
        sink.record_miss();
        sink.record_executed("a".into(), 0, Duration::from_millis(10), sim(1000));
        sink.record_executed("b".into(), 1, Duration::from_millis(20), sim(3000));
        sink.record_store(64);
        sink.record_cached("c".into(), Duration::from_micros(50), 128);

        assert_eq!(sink.points.len(), 3);
        assert_eq!(sink.cache.hits, 1);
        assert_eq!(sink.cache.misses, 2);
        assert_eq!(sink.cache.bytes_read, 128);
        assert_eq!(sink.cache.bytes_written, 64);
        assert_eq!(sink.pool.workers, 2);
        assert_eq!(sink.pool.jobs, vec![1, 1]);
        assert_eq!(sink.pool.busy[1], Duration::from_millis(20));
        // Busy share: 30 ms busy over 2 x 30 ms capacity.
        assert!((sink.pool.busy_share() - 0.5).abs() < 1e-9);

        let t = sink.totals();
        assert_eq!((t.executed, t.cached), (2, 1));
        assert_eq!(t.events, 4000);
        assert!((t.events_per_sec() - 4000.0 / 0.030).abs() < 1.0);
    }

    #[test]
    fn point_metrics_derive() {
        let p = PointRecord {
            key: "k".into(),
            worker: 0,
            cached: false,
            wall: Duration::from_millis(500),
            sim: SimCounters {
                sim_us: 1_000_000,
                events: 50_000,
                popped: 50_100,
                advances: 49_000,
                ..SimCounters::default()
            },
        };
        assert!((p.sim_s() - 1.0).abs() < 1e-12);
        assert!((p.events_per_sec() - 100_000.0).abs() < 1e-6);
        let hit = PointRecord {
            cached: true,
            wall: Duration::ZERO,
            sim: SimCounters::default(),
            ..p
        };
        assert_eq!(hit.events_per_sec(), 0.0);
    }
}
