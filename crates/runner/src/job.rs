//! The unit of schedulable work: one experiment point — built-in
//! series, user-authored scenario or extension study — self-contained
//! and deterministic.
//!
//! A [`Job`] carries everything the pool needs: how to run the point
//! ([`Job::run`]), a stable textual identity ([`Job::key`]) and a content
//! address for the result cache ([`Job::cache_digest`]).  Results
//! round-trip through the cache bit-exactly via
//! [`Job::encode`]/[`Job::decode`].

use gfaults::FaultSpec;
use gridmon_core::deploy::ObservedPoint;
use gridmon_core::ext::{self, OpenLoopPoint, WanPoint, WAN_CASES};
use gridmon_core::figures::PointSpec;
use gridmon_core::mapping::System;
use gridmon_core::runcfg::{Measurement, RunConfig};
use gridmon_core::scenario;
use gridmon_core::stablehash::digest128;
use gscenario::{ScenarioSpec, SystemId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cache schema version: bump when the encoded record or the digest
/// recipe changes, so stale files can never be misread.  v4 folds the
/// scenario fingerprint (the canonical deployed topology) into every
/// figure and scenario address.
const CACHE_SCHEMA: &str = "gridmon-cache-v4";

/// One extension-study point (the Section-4 future-work studies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExtPoint {
    /// Directory-server experiment under [`WAN_CASES`]`[case]`.
    Wan { users: u32, case: usize },
    /// Flat aggregation baseline: one GIIS over `n` GRISes.
    HierFlat { n: u32 },
    /// Two-level aggregation: `n` GRISes over `branches` mid GIISes.
    HierTree { n: u32, branches: usize },
    /// Direct query of the owning GRIS.
    AggDirect { users: u32 },
    /// The same information via the aggregating GIIS.
    AggViaGiis { users: u32 },
    /// Poisson open-loop arrivals at the ProducerServlet.
    OpenLoop { rate: f64 },
    /// R-GMA composite producer over `sources` site servlets.
    Composite { sources: u32 },
}

/// One `(spec, x)` point of a user-authored scenario.  The spec is
/// shared (`Arc`) across the sweep's jobs; its fingerprint — not its
/// address — is the cache identity.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPoint {
    pub spec: Arc<ScenarioSpec>,
    pub x: u32,
}

impl ScenarioPoint {
    /// Stable textual identity (scenario names are author-chosen; two
    /// different topologies under one name still get distinct cache
    /// addresses via the fingerprint).
    pub fn key(&self) -> String {
        format!("scenario/{}/x={}", self.spec.name, self.x)
    }
}

/// How a [`Job`] runs: compiled from a spec at one x, or by an extension
/// study's own code.
enum How {
    Compile(Arc<ScenarioSpec>, u32),
    Study(ExtPoint),
}

/// A schedulable experiment point.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    /// One `(series, x)` point of experiment sets 1-6.
    Figure(PointSpec),
    /// One extension-study point.
    Ext(ExtPoint),
    /// One point of a user-authored scenario sweep.
    Scenario(ScenarioPoint),
}

/// What a job produced.  `Measurement` for figure, scenario and most
/// extension points; the WAN and open-loop studies report richer
/// records; under an enabled `cfg.obs` figure and scenario points carry
/// their observability harvest.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    Measurement(Measurement),
    Wan(WanPoint),
    OpenLoop(OpenLoopPoint),
    Observed(Box<ObservedPoint>),
}

impl JobOutput {
    /// The underlying measurement, if this output carries one.
    pub fn measurement(&self) -> Option<Measurement> {
        match self {
            JobOutput::Measurement(m) => Some(*m),
            JobOutput::Wan(w) => Some(w.m),
            JobOutput::OpenLoop(_) => None,
            JobOutput::Observed(op) => Some(op.m),
        }
    }
}

impl ExtPoint {
    fn key(self) -> String {
        match self {
            ExtPoint::Wan { users, case } => {
                format!("ext/wan/{}/users={users}", WAN_CASES[case].0)
            }
            ExtPoint::HierFlat { n } => format!("ext/hier-flat/n={n}"),
            ExtPoint::HierTree { n, branches } => {
                format!("ext/hier-tree/n={n}/branches={branches}")
            }
            ExtPoint::AggDirect { users } => format!("ext/agg-direct/users={users}"),
            ExtPoint::AggViaGiis { users } => format!("ext/agg-giis/users={users}"),
            ExtPoint::OpenLoop { rate } => format!("ext/open-loop/rate={rate}"),
            ExtPoint::Composite { sources } => format!("ext/composite/sources={sources}"),
        }
    }

    fn system(self) -> System {
        match self {
            ExtPoint::Wan { .. }
            | ExtPoint::HierFlat { .. }
            | ExtPoint::HierTree { .. }
            | ExtPoint::AggDirect { .. }
            | ExtPoint::AggViaGiis { .. } => System::Mds,
            ExtPoint::OpenLoop { .. } | ExtPoint::Composite { .. } => System::Rgma,
        }
    }

    fn run(self, cfg: &RunConfig) -> JobOutput {
        match self {
            ExtPoint::Wan { users, case } => JobOutput::Wan(ext::wan_point(cfg, users, case)),
            ExtPoint::HierFlat { n } => JobOutput::Measurement(ext::hierarchy_flat_point(cfg, n)),
            ExtPoint::HierTree { n, branches } => {
                JobOutput::Measurement(ext::hierarchy_tree_point(cfg, n, branches))
            }
            ExtPoint::AggDirect { users } => {
                JobOutput::Measurement(ext::agg_direct_point(cfg, users))
            }
            ExtPoint::AggViaGiis { users } => {
                JobOutput::Measurement(ext::agg_via_giis_point(cfg, users))
            }
            ExtPoint::OpenLoop { rate } => JobOutput::OpenLoop(ext::open_loop_point(cfg, rate)),
            ExtPoint::Composite { sources } => {
                JobOutput::Measurement(ext::composite_study(cfg, sources))
            }
        }
    }
}

impl Job {
    /// One job per declared x of a user-authored scenario, in
    /// `spec.x_values` order.
    ///
    /// The spec is validated and dry-compiled at every x first, so
    /// authoring mistakes the validator cannot see (an unknown host, a
    /// TTL-less freshness probe) surface as an error here instead of a
    /// panic on a pool thread.
    pub fn scenario_sweep(spec: &ScenarioSpec, cfg: &RunConfig) -> Result<Vec<Job>, String> {
        spec.validate().map_err(|e| e.to_string())?;
        let shared = Arc::new(spec.clone());
        spec.x_values
            .iter()
            .map(|&x| {
                let job = Job::Scenario(ScenarioPoint {
                    spec: shared.clone(),
                    x,
                });
                let (_, c) = job.resolve(cfg);
                scenario::compile(spec, x, &c).map_err(|e| e.to_string())?;
                Ok(job)
            })
            .collect()
    }

    /// Stable textual identity: drives progress display and seed
    /// derivation and, with the effective configuration, the cache
    /// address.
    pub fn key(&self) -> String {
        match self {
            Job::Scenario(p) => p.key(),
            Job::Figure(p) => p.key(),
            Job::Ext(p) => p.key(),
        }
    }

    /// Resolve this job against a sweep's configuration: how it runs
    /// and the configuration it runs — and is cached — under.
    ///
    /// A figure point builds its spec here, on whichever thread asks, so
    /// queued jobs stay light handles.  Points with a spec follow
    /// [`scenario::point_cfg`]: a per-point seed (independent streams,
    /// order-invariant results) and the sweep's fault plan only if the
    /// spec declares `[faults]`.  Extension points run at the base seed
    /// and, having no spec, pristine.
    fn resolve(&self, cfg: &RunConfig) -> (How, RunConfig) {
        let how = match self {
            Job::Figure(p) => How::Compile(Arc::new((p.series.spec)()), p.x),
            Job::Scenario(p) => How::Compile(p.spec.clone(), p.x),
            Job::Ext(p) => How::Study(*p),
        };
        let c = match &how {
            How::Compile(spec, _) => scenario::point_cfg(spec, &self.key(), cfg),
            How::Study(_) => RunConfig {
                faults: FaultSpec::NONE,
                ..*cfg
            },
        };
        (how, c)
    }

    /// Execute the point.  Pure in `(self, cfg)`: the same job under the
    /// same configuration yields an identical output on any thread.
    /// With `cfg.obs` enabled, a point that has a spec returns its
    /// observability harvest around the (bit-identical) measurement.
    pub fn run(&self, cfg: &RunConfig) -> JobOutput {
        let (spec, x, c) = match self.resolve(cfg) {
            (How::Study(p), c) => return p.run(&c),
            (How::Compile(spec, x), c) => (spec, x, c),
        };
        // Catalogue specs are pinned by tests and authored ones are
        // dry-compiled by `scenario_sweep`, so a failure here is a bug,
        // not user input.
        let out = if c.obs.enabled() {
            scenario::run_point_observed(&spec, x, &c).map(|op| JobOutput::Observed(Box::new(op)))
        } else {
            scenario::run_point(&spec, x, &c).map(JobOutput::Measurement)
        };
        out.unwrap_or_else(|e| panic!("{}: {e}", self.key()))
    }

    /// Content address of this job's result under `cfg`: a stable hash
    /// of everything the outcome depends on — schema version, point
    /// identity, effective seed, measurement discipline, observability
    /// mode, and the calibrated parameters scoped to this job's system.
    /// Editing one system's constants therefore re-runs only that
    /// system's points.
    ///
    /// The observability fingerprint is part of the address even though
    /// tracing is designed not to perturb measurements: the contract is
    /// enforced by tests, not by construction, so a cache entry must
    /// never be allowed to paper over a regression in it.
    pub fn cache_digest(&self, cfg: &RunConfig) -> String {
        // The system scopes which calibrated parameters are part of the
        // address; the fingerprint is the canonical deployed topology.
        let (system, fp, c) = match self.resolve(cfg) {
            (How::Study(p), c) => (p.system(), "-".to_string(), c),
            (How::Compile(spec, _), c) => {
                let system = match spec.system {
                    SystemId::Mds => System::Mds,
                    SystemId::Rgma => System::Rgma,
                    SystemId::Hawkeye => System::Hawkeye,
                };
                (system, spec.fingerprint(), c)
            }
        };
        let material = format!(
            "{CACHE_SCHEMA}\n{key}\nseed={seed}\nwarmup_us={wu}\nwindow_us={wi}\n{obs}\n{faults}\n{params}\nscenario={fp}",
            key = self.key(),
            seed = c.seed,
            wu = c.warmup.as_micros(),
            wi = c.window.as_micros(),
            obs = c.obs.fingerprint(),
            faults = c.faults.fingerprint(),
            params = c.params.fingerprint(system),
        );
        digest128(material.as_bytes())
    }

    /// Serialize an output as `(name, value)` fields.  Floats are stored
    /// as IEEE-754 bit patterns (`f:<16 hex>`) so the round-trip is
    /// bit-exact; counters as `u:<decimal>`.
    pub fn encode(out: &JobOutput) -> Vec<(&'static str, String)> {
        fn f(v: f64) -> String {
            format!("f:{:016x}", v.to_bits())
        }
        fn u(v: u64) -> String {
            format!("u:{v}")
        }
        fn measurement_fields(m: &Measurement) -> Vec<(&'static str, String)> {
            vec![
                ("x", f(m.x)),
                ("throughput", f(m.throughput)),
                ("response_time", f(m.response_time)),
                ("load1", f(m.load1)),
                ("cpu_load", f(m.cpu_load)),
                ("refused", u(m.refused)),
                ("completions", u(m.completions)),
                ("availability", f(m.availability)),
                ("staleness_s", f(m.staleness_s)),
                ("recovery_s", f(m.recovery_s)),
            ]
        }
        let (kind, m) = match out {
            JobOutput::OpenLoop(p) => {
                return vec![
                    ("kind", "openloop".to_string()),
                    ("offered_per_sec", f(p.offered_per_sec)),
                    ("completed_per_sec", f(p.completed_per_sec)),
                    ("lost_per_sec", f(p.lost_per_sec)),
                    ("response_time", f(p.response_time)),
                ]
            }
            JobOutput::Measurement(m) => ("measurement", m),
            // The WAN label/link columns are a pure function of the case
            // index (part of the job identity), so only the measurement
            // is stored; `decode` reconstructs the rest.
            JobOutput::Wan(w) => ("wan", &w.m),
            // A harvest is an artifact to export, not a memoizable
            // scalar: an observed point's record is its measurement.
            JobOutput::Observed(op) => ("measurement", &op.m),
        };
        let mut v = vec![("kind", kind.to_string())];
        v.extend(measurement_fields(m));
        v
    }

    /// Reconstruct an output from cached fields.  Returns `None` on any
    /// mismatch (wrong kind for this job, missing/garbled field) — the
    /// caller then falls back to executing the point.
    pub fn decode(&self, fields: &BTreeMap<String, String>) -> Option<JobOutput> {
        fn f(fields: &BTreeMap<String, String>, name: &str) -> Option<f64> {
            let bits = fields.get(name)?.strip_prefix("f:")?;
            Some(f64::from_bits(u64::from_str_radix(bits, 16).ok()?))
        }
        fn u(fields: &BTreeMap<String, String>, name: &str) -> Option<u64> {
            fields.get(name)?.strip_prefix("u:")?.parse().ok()
        }
        fn measurement(fields: &BTreeMap<String, String>) -> Option<Measurement> {
            Some(Measurement {
                x: f(fields, "x")?,
                throughput: f(fields, "throughput")?,
                response_time: f(fields, "response_time")?,
                load1: f(fields, "load1")?,
                cpu_load: f(fields, "cpu_load")?,
                refused: u(fields, "refused")?,
                completions: u(fields, "completions")?,
                availability: f(fields, "availability")?,
                staleness_s: f(fields, "staleness_s")?,
                recovery_s: f(fields, "recovery_s")?,
            })
        }
        let kind = fields.get("kind")?.as_str();
        match (self, kind) {
            (&Job::Ext(ExtPoint::Wan { case, .. }), "wan") => {
                let (label, bps, lat_ms) = WAN_CASES[case];
                Some(JobOutput::Wan(WanPoint {
                    label: label.to_string(),
                    wan_mbps: bps / 1e6,
                    wan_latency_ms: lat_ms,
                    m: measurement(fields)?,
                }))
            }
            (&Job::Ext(ExtPoint::OpenLoop { .. }), "openloop") => {
                Some(JobOutput::OpenLoop(OpenLoopPoint {
                    offered_per_sec: f(fields, "offered_per_sec")?,
                    completed_per_sec: f(fields, "completed_per_sec")?,
                    lost_per_sec: f(fields, "lost_per_sec")?,
                    response_time: f(fields, "response_time")?,
                }))
            }
            (
                Job::Figure(_)
                | Job::Scenario(_)
                | Job::Ext(
                    ExtPoint::HierFlat { .. }
                    | ExtPoint::HierTree { .. }
                    | ExtPoint::AggDirect { .. }
                    | ExtPoint::AggViaGiis { .. }
                    | ExtPoint::Composite { .. },
                ),
                "measurement",
            ) => Some(JobOutput::Measurement(measurement(fields)?)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmon_core::figures::enumerate_set;

    fn roundtrip(job: &Job, out: &JobOutput) -> JobOutput {
        let fields: BTreeMap<String, String> = Job::encode(out)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        job.decode(&fields).expect("decode what encode produced")
    }

    #[test]
    fn outputs_roundtrip_bit_exactly() {
        let m = Measurement {
            x: 50.0,
            throughput: 12.345_678_901,
            response_time: 0.1 + 0.2, // a value with an inexact decimal form
            load1: f64::MIN_POSITIVE,
            cpu_load: 99.999_999,
            refused: 7,
            completions: 123_456,
            availability: 0.875,
            staleness_s: 31.25,
            recovery_s: 12.5,
        };
        let fig = Job::Figure(enumerate_set(1, 1.0).unwrap()[0]);
        assert_eq!(
            roundtrip(&fig, &JobOutput::Measurement(m)),
            JobOutput::Measurement(m)
        );

        let wan = Job::Ext(ExtPoint::Wan {
            users: 100,
            case: 2,
        });
        let wp = JobOutput::Wan(WanPoint {
            label: WAN_CASES[2].0.to_string(),
            wan_mbps: WAN_CASES[2].1 / 1e6,
            wan_latency_ms: WAN_CASES[2].2,
            m,
        });
        assert_eq!(roundtrip(&wan, &wp), wp);

        let ol = Job::Ext(ExtPoint::OpenLoop { rate: 15.0 });
        let op = JobOutput::OpenLoop(OpenLoopPoint {
            offered_per_sec: 15.0,
            completed_per_sec: 14.2,
            lost_per_sec: 0.8,
            response_time: 0.3,
        });
        assert_eq!(roundtrip(&ol, &op), op);
    }

    #[test]
    fn decode_rejects_kind_mismatch() {
        let fields: BTreeMap<String, String> =
            Job::encode(&JobOutput::Measurement(Measurement::default()))
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
        let ol = Job::Ext(ExtPoint::OpenLoop { rate: 5.0 });
        assert_eq!(ol.decode(&fields), None);
    }

    #[test]
    fn digests_separate_points_seeds_and_params() {
        let cfg = RunConfig::quick(1);
        let specs = enumerate_set(1, 1.0).unwrap();
        let a = Job::Figure(specs[0]);
        let b = Job::Figure(specs[1]);
        assert_ne!(a.cache_digest(&cfg), b.cache_digest(&cfg));

        let mut cfg2 = cfg;
        cfg2.seed = 2;
        assert_ne!(a.cache_digest(&cfg), a.cache_digest(&cfg2));

        // Editing a Hawkeye constant must not disturb an MDS point's
        // address...
        let mut hawk = cfg;
        hawk.params.condor_client_cpu_us += 1.0;
        assert_eq!(a.cache_digest(&cfg), a.cache_digest(&hawk));
        // ...but a shared WAN constant invalidates it.
        let mut wan = cfg;
        wan.params.wan_bps *= 2.0;
        assert_ne!(a.cache_digest(&cfg), a.cache_digest(&wan));
    }

    #[test]
    fn digests_separate_fault_plans_of_declaring_specs_only() {
        use gfaults::{FaultSpec, Scenario};
        let cfg = RunConfig::quick(1);
        let a = Job::Figure(enumerate_set(5, 1.0).unwrap()[0]);

        let mut faulted = cfg;
        faulted.faults = FaultSpec {
            scenario: Scenario::Churn,
            targets: 2,
            start_frac: 0.25,
            heal_frac: 0.6,
        };
        assert_ne!(a.cache_digest(&cfg), a.cache_digest(&faulted));

        // Varying only the target count must also separate addresses.
        let mut wider = faulted;
        wider.faults.targets = 3;
        assert_ne!(a.cache_digest(&faulted), a.cache_digest(&wider));

        // An explicit do-nothing spec shares the unfaulted address, so
        // pristine sweeps never lose their cache to the new field.
        let mut none = cfg;
        none.faults = FaultSpec::NONE;
        assert_eq!(a.cache_digest(&cfg), a.cache_digest(&none));

        // Points whose spec declares no `[faults]` — and extension
        // points, which have no spec — keep their address whatever plan
        // the sweep carries: one job list can span faulted and pristine
        // sets.
        let plain = Job::Figure(enumerate_set(1, 1.0).unwrap()[0]);
        assert_eq!(plain.cache_digest(&cfg), plain.cache_digest(&faulted));
        let ext = Job::Ext(ExtPoint::AggDirect { users: 5 });
        assert_eq!(ext.cache_digest(&cfg), ext.cache_digest(&faulted));
    }

    #[test]
    fn digests_separate_observability_modes() {
        use gridmon_core::ObsMode;
        let cfg = RunConfig::quick(1);
        let a = Job::Figure(enumerate_set(1, 1.0).unwrap()[0]);
        let mut traced = cfg;
        traced.obs = ObsMode::FULL;
        let mut metrics_only = cfg;
        metrics_only.obs = ObsMode {
            trace: false,
            metrics: true,
        };
        let d_off = a.cache_digest(&cfg);
        let d_full = a.cache_digest(&traced);
        let d_metrics = a.cache_digest(&metrics_only);
        assert_ne!(d_off, d_full);
        assert_ne!(d_off, d_metrics);
        assert_ne!(d_full, d_metrics);
    }

    #[test]
    fn ext_jobs_keep_the_base_seed() {
        let cfg = RunConfig::quick(42);
        let job = Job::Ext(ExtPoint::Composite { sources: 5 });
        assert_eq!(job.resolve(&cfg).1.seed, 42);
        let fig = Job::Figure(enumerate_set(1, 1.0).unwrap()[0]);
        assert_ne!(fig.resolve(&cfg).1.seed, 42);
    }
}
