//! The unit of schedulable work: one experiment point — a `(key, spec,
//! x)` triple, whether the spec is a catalogue row (figure series or
//! extension study) or user-authored — self-contained and deterministic.
//!
//! A [`Job`] carries everything the pool needs: how to run the point
//! ([`Job::run`]), a stable textual identity ([`Job::key`]) and a content
//! address for the result cache ([`Job::cache_digest`]).  Results
//! round-trip through the cache bit-exactly via
//! [`Job::encode`]/[`Job::decode`].

use gperf::SimCounters;
use gridmon_core::deploy::Harvest;
use gridmon_core::figures::PointSpec;
use gridmon_core::runcfg::{Measurement, RunConfig};
use gridmon_core::scenario;
use gridmon_core::stablehash::digest128;
use gscenario::{ScenarioError, ScenarioSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cache schema version: bump when the encoded record or the digest
/// recipe changes, so stale files can never be misread, or when the
/// simulation itself changes what a point measures.  v4 folds the
/// scenario fingerprint (the canonical deployed topology) into every
/// address; v5 marks the CPU step that no longer loses a task finishing
/// at the instant of another submit; v6 the GIIS that merges every entry
/// a source answers.
const CACHE_SCHEMA: &str = "gridmon-cache-v6";

/// A schedulable experiment point: `spec` compiled at `x`, under the
/// identity `key`.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Stable textual identity: drives progress display and seed
    /// derivation and, with the effective configuration, the cache
    /// address.
    key: String,
    /// Shared (`Arc`) across the jobs of one series or sweep; its
    /// fingerprint — not its address — is the cache identity.
    spec: Arc<ScenarioSpec>,
    x: u32,
}

/// What a job produced: the point's measurement, what its engine did
/// to produce it, and its observability harvest when the sweep ran
/// under an enabled `cfg.obs`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    pub m: Measurement,
    /// The harness run's engine counters; all zero when the measurement
    /// was served from the cache (nothing ran).
    pub sim: SimCounters,
    pub obs: Option<Box<Harvest>>,
}

impl Job {
    /// One job per catalogue point — figure points and extension rows
    /// alike — in order.  Each series' spec is built once and shared by
    /// its (consecutive) points.
    pub fn points(points: &[PointSpec]) -> Vec<Job> {
        let mut jobs: Vec<Job> = Vec::with_capacity(points.len());
        for (i, p) in points.iter().enumerate() {
            let spec = match jobs.last() {
                Some(prev) if points[i - 1].series == p.series => prev.spec.clone(),
                _ => Arc::new((p.series.spec)()),
            };
            jobs.push(Job {
                key: p.key(),
                spec,
                x: p.x,
            });
        }
        jobs
    }

    /// One job per declared x of a user-authored scenario, in
    /// `spec.x_values` order, keyed `scenario/<name>/x=<x>` (names are
    /// author-chosen; two different topologies under one name still get
    /// distinct cache addresses via the fingerprint).  A spec that fails
    /// [`ScenarioSpec::validate`] yields no jobs, so an authoring mistake
    /// surfaces here instead of on a pool thread.
    pub fn scenario_sweep(spec: &ScenarioSpec) -> Result<Vec<Job>, ScenarioError> {
        spec.validate()?;
        let shared = Arc::new(spec.clone());
        let job = |&x: &u32| Job {
            key: format!("scenario/{}/x={x}", spec.name),
            spec: shared.clone(),
            x,
        };
        Ok(spec.x_values.iter().map(job).collect())
    }

    pub fn key(&self) -> &str {
        &self.key
    }

    /// The configuration this job runs — and is cached — under
    /// ([`scenario::point_cfg`]): a per-point seed (independent streams,
    /// order-invariant results) and the sweep's fault plan only if the
    /// spec declares `[faults]`.
    fn cfg(&self, base: &RunConfig) -> RunConfig {
        scenario::point_cfg(&self.spec, &self.key, base)
    }

    /// Execute the point.  Pure in `(self, cfg)`: the same job under the
    /// same configuration yields an identical output on any thread.
    /// With `cfg.obs` enabled the output carries the observability
    /// harvest around the (bit-identical) measurement.
    pub fn run(&self, cfg: &RunConfig) -> JobOutput {
        let mut h = scenario::compile(&self.spec, self.x, &self.cfg(cfg));
        JobOutput {
            m: h.run_and_measure(f64::from(self.x)),
            sim: SimCounters {
                sim_us: h.eng.now().as_micros(),
                events: h.eng.fired,
                popped: h.eng.popped,
                advances: h.eng.advances,
                relevels: h.net.flow_work().relevels,
                relevel_flows: h.net.flow_work().flows,
                relevel_groups: h.net.flow_work().groups,
            },
            obs: h.harvest().map(Box::new),
        }
    }

    /// Content address of this job's result under `cfg`: a stable hash
    /// of everything the outcome depends on — schema version, point
    /// identity, effective seed, measurement discipline, observability
    /// mode, the calibrated parameters scoped to the spec's system, and
    /// the spec's fingerprint (the canonical deployed topology).
    /// Editing one system's constants therefore re-runs only that
    /// system's points.
    ///
    /// The observability fingerprint is part of the address even though
    /// tracing is designed not to perturb measurements: the contract is
    /// enforced by tests, not by construction, so a cache entry must
    /// never be allowed to paper over a regression in it.
    pub fn cache_digest(&self, cfg: &RunConfig) -> String {
        let c = self.cfg(cfg);
        let material = format!(
            "{CACHE_SCHEMA}\n{key}\nseed={seed}\nwarmup_us={wu}\nwindow_us={wi}\n{obs}\n{faults}\n{params}\nscenario={fp}",
            key = self.key,
            seed = c.seed,
            wu = c.warmup.as_micros(),
            wi = c.window.as_micros(),
            obs = c.obs.fingerprint(),
            faults = c.faults.fingerprint(),
            params = c.params.fingerprint(self.spec.system),
            fp = self.spec.fingerprint(),
        );
        digest128(material.as_bytes())
    }

    /// Serialize an output as `(name, value)` fields.  Floats are stored
    /// as IEEE-754 bit patterns (`f:<16 hex>`) so the round-trip is
    /// bit-exact; counters as `u:<decimal>`.  A harvest is an artifact
    /// to export, not a memoizable scalar: an observed point's record is
    /// its measurement.
    pub fn encode(out: &JobOutput) -> Vec<(&'static str, String)> {
        fn f(v: f64) -> String {
            format!("f:{:016x}", v.to_bits())
        }
        fn u(v: u64) -> String {
            format!("u:{v}")
        }
        let m = &out.m;
        vec![
            ("kind", "measurement".to_string()),
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

    /// Reconstruct an output from cached fields.  Returns `None` on any
    /// mismatch (foreign record kind, missing/garbled field) — the
    /// caller then falls back to executing the point.
    ///
    /// A float is exactly 16 hex digits: the record ends in one, so a
    /// file cut anywhere inside it fails here instead of loading as a
    /// different number.
    pub fn decode(fields: &BTreeMap<String, String>) -> Option<JobOutput> {
        let f = |name: &str| -> Option<f64> {
            let bits = fields.get(name)?.strip_prefix("f:")?;
            if bits.len() != 16 || !bits.bytes().all(|b| b.is_ascii_hexdigit()) {
                return None;
            }
            Some(f64::from_bits(u64::from_str_radix(bits, 16).ok()?))
        };
        let u = |name: &str| -> Option<u64> { fields.get(name)?.strip_prefix("u:")?.parse().ok() };
        if fields.get("kind")? != "measurement" {
            return None;
        }
        let m = Measurement {
            x: f("x")?,
            throughput: f("throughput")?,
            response_time: f("response_time")?,
            load1: f("load1")?,
            cpu_load: f("cpu_load")?,
            refused: u("refused")?,
            completions: u("completions")?,
            availability: f("availability")?,
            staleness_s: f("staleness_s")?,
            recovery_s: f("recovery_s")?,
        };
        Some(JobOutput {
            m,
            sim: SimCounters::default(),
            obs: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmon_core::figures::{enumerate_extensions, enumerate_set};

    /// The first job of experiment set `set`.
    fn first_of(set: u32) -> Job {
        Job::points(&enumerate_set(set, 1.0).unwrap()[..1]).remove(0)
    }

    fn fields_of(out: &JobOutput) -> BTreeMap<String, String> {
        Job::encode(out)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
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
        let out = JobOutput {
            m,
            sim: SimCounters::default(),
            obs: None,
        };
        assert_eq!(Job::decode(&fields_of(&out)), Some(out));
    }

    #[test]
    fn decode_rejects_foreign_and_garbled_records() {
        let good = fields_of(&JobOutput {
            m: Measurement::default(),
            sim: SimCounters::default(),
            obs: None,
        });
        let mut foreign = good.clone();
        foreign.insert("kind".to_string(), "openloop".to_string());
        assert_eq!(Job::decode(&foreign), None);
        let mut garbled = good.clone();
        garbled.insert("load1".to_string(), "f:xyz".to_string());
        assert_eq!(Job::decode(&garbled), None);
        let mut short = good;
        short.remove("refused");
        assert_eq!(Job::decode(&short), None);
    }

    /// A record cut short (a crash mid-copy, a full disk) must read as a
    /// miss, or — cut after its last digit — as itself; never as another
    /// measurement.
    #[test]
    fn truncated_record_never_decodes_to_a_different_value() {
        let out = JobOutput {
            m: Measurement {
                x: 50.0,
                refused: 12,
                completions: 3456,
                recovery_s: 12.5, // f:4029000000000000: every prefix is valid hex
                ..Measurement::default()
            },
            sim: SimCounters::default(),
            obs: None,
        };
        let dir = std::env::temp_dir().join(format!("gridmon-job-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = crate::DiskCache::new(&dir);
        cache.store("dd", "k", &Job::encode(&out)).expect("store");
        let path = dir.join("dd.csv");
        let full = std::fs::read(&path).unwrap();
        assert_eq!(
            cache.load("dd").and_then(|(f, _)| Job::decode(&f)),
            Some(out.clone())
        );
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let got = cache.load("dd").and_then(|(f, _)| Job::decode(&f));
            assert!(
                got.is_none() || got.as_ref() == Some(&out),
                "cut at byte {cut} of {} decoded as {got:?}",
                full.len()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn consecutive_points_of_a_series_share_one_spec() {
        let jobs = Job::points(&enumerate_set(1, 1.0).unwrap());
        assert!(Arc::ptr_eq(&jobs[0].spec, &jobs[1].spec));
        let last = jobs.last().unwrap();
        assert!(!Arc::ptr_eq(&jobs[0].spec, &last.spec));
        assert_ne!(jobs[0].spec.name, last.spec.name);
    }

    #[test]
    fn digests_separate_points_seeds_and_params() {
        let cfg = RunConfig::quick(1);
        let jobs = Job::points(&enumerate_set(1, 1.0).unwrap()[..2]);
        let (a, b) = (&jobs[0], &jobs[1]);
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
        let a = first_of(5);

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

        // Points whose spec declares no `[faults]` — figure points and
        // extension rows alike — keep their address whatever plan the
        // sweep carries: one job list can span faulted and pristine sets.
        let mut plain = Job::points(&enumerate_extensions());
        plain.push(first_of(1));
        for job in &plain {
            assert_eq!(job.cache_digest(&cfg), job.cache_digest(&faulted));
        }
    }

    #[test]
    fn digests_separate_observability_modes() {
        use gridmon_core::ObsMode;
        let cfg = RunConfig::quick(1);
        let a = first_of(1);
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

    /// One seed rule: every job — extension rows included — runs under
    /// the seed derived from its own key, never the sweep's base seed.
    #[test]
    fn every_job_derives_its_seed_from_its_key() {
        let cfg = RunConfig::quick(42);
        let mut jobs = Job::points(&enumerate_extensions());
        jobs.push(first_of(1));
        for job in &jobs {
            let seed = job.cfg(&cfg).seed;
            assert_eq!(seed, scenario::point_seed(42, job.key()));
            assert_ne!(seed, 42, "{}", job.key());
        }
    }
}
