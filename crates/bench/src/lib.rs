//! Shared helpers for the benchmark harness and the `figures`,
//! `gridmon-bench` and `gridmon-inspect` binaries.

#![forbid(unsafe_code)]

pub mod profile;
pub mod suite;

use gridmon_core::figures::{self, FigureData, FigureError, SetData};
use gridmon_core::runcfg::RunConfig;
use simcore::SimDuration;

/// A run profile for the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The paper's discipline: 2 min warm-up + 10 min window, full
    /// sweeps.
    Paper,
    /// Shorter warm-up and window over the full sweeps, for smoke runs.
    Quick,
    /// Tiny windows for the `gridmon-bench` matrix and smoke runs.
    Bench,
}

impl Profile {
    pub fn run_config(self, seed: u64) -> RunConfig {
        match self {
            Profile::Paper => RunConfig::paper(seed),
            Profile::Quick => RunConfig::quick(seed),
            Profile::Bench => {
                let mut c = RunConfig::quick(seed);
                c.warmup = SimDuration::from_secs(20);
                c.window = SimDuration::from_secs(40);
                c
            }
        }
    }

    /// Sweep thinning factor.
    pub fn scale(self) -> f64 {
        match self {
            Profile::Paper => 1.0,
            Profile::Quick => 1.0,
            Profile::Bench => 0.2,
        }
    }
}

/// All four figures of a set.
pub fn figures_of_set(data: &SetData) -> Result<Vec<FigureData>, FigureError> {
    figures::figures_of_set(data.set)?
        .iter()
        .map(|&f| figures::figure(data, f))
        .collect()
}
