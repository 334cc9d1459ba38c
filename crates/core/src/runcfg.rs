//! Run configuration and the per-point measurement record.

use crate::params::Params;
use gfaults::FaultSpec;
use simcore::{SimDuration, SimTime};
use simnet::ObsMode;

/// How long and at what fidelity to run one experiment point.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// RNG seed (same seed ⇒ identical results).
    pub seed: u64,
    /// Warm-up discarded before the measurement window.
    pub warmup: SimDuration,
    /// The measurement window (the paper uses a 10-minute span).
    pub window: SimDuration,
    /// All model constants.
    pub params: Params,
    /// Observability features (off by default; tracing and metrics
    /// observe the run without perturbing it, so measurements are
    /// byte-identical across modes).
    pub obs: ObsMode,
    /// Fault-injection spec (Experiment Set 5).  `FaultSpec::NONE` by
    /// default, in which case no `FaultDriver` is ever installed and runs
    /// are byte-identical to a build without the faults subsystem.
    pub faults: FaultSpec,
}

impl RunConfig {
    /// The paper's discipline: measure over 10 minutes after 2 minutes of
    /// warm-up.
    pub fn paper(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            warmup: SimDuration::from_secs(120),
            window: SimDuration::from_secs(600),
            params: Params::default(),
            obs: ObsMode::OFF,
            faults: FaultSpec::NONE,
        }
    }

    /// A fast configuration for tests and the bench matrix: the same
    /// mechanisms on a shorter clock.
    pub fn quick(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            warmup: SimDuration::from_secs(45),
            window: SimDuration::from_secs(120),
            params: Params::default(),
            obs: ObsMode::OFF,
            faults: FaultSpec::NONE,
        }
    }

    pub fn window_start(&self) -> SimTime {
        SimTime::ZERO + self.warmup
    }

    pub fn window_end(&self) -> SimTime {
        self.window_start() + self.window
    }
}

/// One experiment point: the four metrics the paper reports, plus
/// bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Measurement {
    /// The swept quantity (users / collectors / servers).
    pub x: f64,
    /// Completed queries per second over the window (Figs 5, 9, 13, 17).
    pub throughput: f64,
    /// Mean response time of completed queries, seconds (Figs 6, 10, 14,
    /// 18).
    pub response_time: f64,
    /// Mean one-minute load average of the server host (Figs 7, 11, 15,
    /// 19).
    pub load1: f64,
    /// Mean CPU load (%) of the server host (Figs 8, 12, 16, 20).
    pub cpu_load: f64,
    /// Refused connections inside the window (the admission mechanism).
    pub refused: u64,
    /// Completed queries inside the window.
    pub completions: u64,
    /// Fraction of windowed query attempts that completed successfully
    /// (completions / (completions + failed + timed-out)); 1.0 when no
    /// attempts landed in the window (Set 5, Fig 21).
    pub availability: f64,
    /// Mean data staleness observed by the resilience probe, seconds
    /// (Set 5, Fig 22).  Zero for Sets 1-4 where no probe runs.
    pub staleness_s: f64,
    /// Time from the heal event until the probe first saw the service
    /// healthy again, seconds; censored at window end (Set 5, Fig 23).
    pub recovery_s: f64,
}

impl Measurement {
    /// Pick one of the figure metrics by name.
    pub fn metric(&self, name: &str) -> f64 {
        match name {
            "throughput" => self.throughput,
            "response_time" => self.response_time,
            "load1" => self.load1,
            "cpu_load" => self.cpu_load,
            "availability" => self.availability,
            "staleness_s" => self.staleness_s,
            "recovery_s" => self.recovery_s,
            _ => f64::NAN,
        }
    }
}

/// The four metric names, in figure order within each of experiment sets
/// 1-4.
pub const METRICS: [&str; 4] = ["throughput", "response_time", "load1", "cpu_load"];

/// The four metric names, in figure order, for the resilience set (Set 5).
/// "throughput" doubles as goodput: only completed queries count.
pub const SET5_METRICS: [&str; 4] = ["availability", "staleness_s", "recovery_s", "throughput"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows() {
        let c = RunConfig::paper(1);
        assert_eq!(c.window_start(), SimTime::from_secs(120));
        assert_eq!(c.window_end(), SimTime::from_secs(720));
        let q = RunConfig::quick(1);
        assert!(q.window_end() < c.window_end());
    }

    #[test]
    fn metric_lookup() {
        let m = Measurement {
            throughput: 1.0,
            response_time: 2.0,
            load1: 3.0,
            cpu_load: 4.0,
            ..Default::default()
        };
        assert_eq!(m.metric("throughput"), 1.0);
        assert_eq!(m.metric("cpu_load"), 4.0);
        assert!(m.metric("nope").is_nan());
        let r = Measurement {
            availability: 0.5,
            staleness_s: 30.0,
            recovery_s: 12.0,
            ..Default::default()
        };
        assert_eq!(r.metric("availability"), 0.5);
        assert_eq!(r.metric("staleness_s"), 30.0);
        assert_eq!(r.metric("recovery_s"), 12.0);
    }

    #[test]
    fn default_config_has_no_faults() {
        assert!(RunConfig::paper(1).faults.is_none());
        assert!(RunConfig::quick(1).faults.is_none());
    }
}
