//! # gridmon-core — the comparative performance study
//!
//! This crate is the reproduction of the paper's primary contribution:
//! a quantitative, like-for-like scalability study of three monitoring
//! and information services — Globus **MDS 2.1**, EU DataGrid
//! **R-GMA 1.18** and Condor **Hawkeye 0.1.4** — on a common testbed.
//!
//! * [`mapping`] — the functional component mapping of the paper's
//!   Table 1 (Information Collector / Information Server / Aggregate
//!   Information Server / Directory Server across the three systems).
//! * [`params`] — every calibrated constant of the simulation, each
//!   documented with the figure it reproduces.
//! * [`deploy`] — builds the paper's deployments on the simulated
//!   Lucky/UC testbed (which host runs which component).
//! * [`scenario`] — the declarative layer: compiles a
//!   [`gscenario::ScenarioSpec`] (topology + workload + faults as pure
//!   data) into a runnable world and runs it.  Each point yields the
//!   four reported metrics: throughput, response time, host `load1` and
//!   host CPU load.  [`scenario::catalogue`] is the table of built-in
//!   series: the paper's experiment sets 1–4 (sections 3.3–3.6), the
//!   resilience set 5, the federation set 6 and the paper's future-work
//!   studies (the same experiments under a changed deployment).
//! * [`figures`] — sweeps that regenerate every figure (5–28) as named
//!   data series.
//! * [`report`] — aligned text tables, CSV output and quick ASCII plots.
//!
//! ```no_run
//! use gridmon_core::{runcfg::RunConfig, scenario};
//!
//! let cfg = RunConfig::quick(1);
//! let series = scenario::catalogue::find("set1/MDS GRIS (cache)").unwrap();
//! let m = scenario::compile(&(series.spec)(), 50, &cfg).run_and_measure(50.0);
//! println!("50 users -> {:.1} queries/sec", m.throughput);
//! ```

#![forbid(unsafe_code)]

pub mod deploy;
pub mod figures;
mod ganglia;
pub mod mapping;
pub mod params;
pub mod report;
pub mod runcfg;
pub mod scenario;
pub mod stablehash;
mod testbed;

pub use deploy::Harvest;
pub use mapping::{component_mapping, Role, System};
pub use params::Params;
pub use runcfg::{Measurement, RunConfig};
pub use simnet::{Obs, ObsMode};
