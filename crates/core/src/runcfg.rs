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

/// The quantity a figure plots: one field of a [`Measurement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    Throughput,
    ResponseTime,
    Load1,
    CpuLoad,
    Availability,
    Staleness,
    Recovery,
}

impl Metric {
    /// This metric's value in `m`.
    pub fn of(self, m: &Measurement) -> f64 {
        match self {
            Metric::Throughput => m.throughput,
            Metric::ResponseTime => m.response_time,
            Metric::Load1 => m.load1,
            Metric::CpuLoad => m.cpu_load,
            Metric::Availability => m.availability,
            Metric::Staleness => m.staleness_s,
            Metric::Recovery => m.recovery_s,
        }
    }
}

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
    fn each_metric_reads_its_own_field() {
        let m = Measurement {
            throughput: 1.0,
            response_time: 2.0,
            load1: 3.0,
            cpu_load: 4.0,
            availability: 0.5,
            staleness_s: 30.0,
            recovery_s: 12.0,
            ..Default::default()
        };
        let all = [
            Metric::Throughput,
            Metric::ResponseTime,
            Metric::Load1,
            Metric::CpuLoad,
            Metric::Availability,
            Metric::Staleness,
            Metric::Recovery,
        ];
        assert_eq!(all.map(|k| k.of(&m)), [1.0, 2.0, 3.0, 4.0, 0.5, 30.0, 12.0]);
    }

    #[test]
    fn default_config_has_no_faults() {
        assert!(RunConfig::paper(1).faults.is_none());
        assert!(RunConfig::quick(1).faults.is_none());
    }
}
