//! # gridmon-runner — parallel, cache-aware sweep execution
//!
//! The figure harness in `gridmon-core` expresses every sweep as a list
//! of self-contained points (one `(spec, x)` pair of a catalogue row —
//! figure series or extension study — or of a user-authored scenario).
//! [`run`] is the one way to execute such a list: it serves what the
//! content-addressed on-disk cache ([`cache`]) already holds, schedules
//! the rest across an in-tree work-stealing thread pool ([`pool`]), and
//! records what every point cost in the caller's [`PerfSink`], so that
//!
//! * `figures --jobs N` regenerates the paper's figures with
//!   **byte-identical** output for every N — every point derives its
//!   own seed from its identity, and results are assembled in
//!   submission order, so neither worker count nor completion order can
//!   influence a single output bit;
//! * editing one system's calibrated parameters and re-running only
//!   recomputes that system's series — every other point is served from
//!   `results/.cache/` (see [`job::Job::cache_digest`]);
//! * a point's engine counters travel with its result
//!   ([`JobOutput::sim`]), not through any side channel.
//!
//! Built on `std::thread` and channels only; no external dependencies.

#![forbid(unsafe_code)]

pub mod cache;
pub mod job;
pub mod pool;
pub mod progress;

pub use cache::DiskCache;
pub use job::{Job, JobOutput};

use gperf::PerfSink;
use gridmon_core::runcfg::RunConfig;
use progress::Reporter;
use std::path::PathBuf;
use std::time::Instant;

/// How a sweep should be executed.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads; `0` means one per available core.
    pub jobs: usize,
    /// Result-cache directory; `None` disables caching entirely.
    pub cache_dir: Option<PathBuf>,
    /// Suppress the per-point progress lines on stderr.
    pub quiet: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            jobs: 0,
            cache_dir: Some(PathBuf::from("results/.cache")),
            quiet: false,
        }
    }
}

/// Execute `jobs` under `cfg`: resolve cache hits first, run the misses
/// across the thread pool, store fresh results back.  Outputs are
/// returned in job order regardless of scheduling.
///
/// `sink` receives one [`gperf::PointRecord`] per point — for an
/// executed point the wall time the pool measured, the worker that ran
/// it and the engine counters it returned ([`JobOutput::sim`]); for a
/// cache hit the probe time and all-zero [`gperf::SimCounters`] — plus
/// cache traffic and pool utilization.  `sink.totals()` is the tally of
/// executed and cached points.
///
/// With `cfg.obs` enabled every point returns its observability
/// harvest ([`JobOutput::obs`]) and the cache is
/// bypassed: it stores figure measurements (a few floats), while a
/// harvest is an artifact to export, not a memoizable scalar.
pub fn run(
    jobs: &[Job],
    cfg: &RunConfig,
    rc: &RunnerConfig,
    sink: &mut PerfSink,
) -> Vec<JobOutput> {
    let t0 = Instant::now();
    let cache = rc
        .cache_dir
        .as_ref()
        .filter(|_| !cfg.obs.enabled())
        .map(DiskCache::new);
    let mut reporter = Reporter::new(jobs.len(), !rc.quiet);

    // Phase 1: satisfy what the cache already has, so a warm re-run
    // executes nothing at all.
    let digests: Vec<String> = match cache {
        Some(_) => jobs.iter().map(|j| j.cache_digest(cfg)).collect(),
        None => Vec::new(),
    };
    let mut outputs: Vec<Option<JobOutput>> = vec![None; jobs.len()];
    let mut misses: Vec<usize> = Vec::new();
    for (i, j) in jobs.iter().enumerate() {
        let t_probe = Instant::now();
        let cached = cache.as_ref().and_then(|c| {
            let (fields, bytes) = c.load(&digests[i])?;
            Some((Job::decode(&fields)?, bytes))
        });
        match cached {
            Some((out, bytes)) => {
                reporter.cache_hit(j.key());
                sink.record_cached(j.key().to_string(), t_probe.elapsed(), bytes);
                outputs[i] = Some(out);
            }
            None => {
                if cache.is_some() {
                    sink.record_miss();
                }
                misses.push(i);
            }
        }
    }
    sink.phases.add("cache probe", t0.elapsed());

    // Phase 2: execute the misses.  The collector callback runs on this
    // thread, so progress, cache writes and sink updates need no
    // synchronisation.
    let workers = pool::resolve_workers(rc.jobs).min(misses.len().max(1));
    let t_exec = Instant::now();
    let fresh = pool::run_indexed(
        &misses,
        rc.jobs,
        |&i| jobs[i].run(cfg),
        |done| {
            let i = misses[done.index];
            let key = jobs[i].key();
            reporter.finished(key, done.wall);
            sink.record_executed(key.to_string(), done.worker, done.wall, done.result.sim);
            if let Some(c) = &cache {
                if let Some(bytes) = c.store(&digests[i], key, &Job::encode(&done.result)) {
                    sink.record_store(bytes);
                }
            }
        },
    );
    for (&i, out) in misses.iter().zip(fresh) {
        outputs[i] = Some(out);
    }
    let exec_wall = t_exec.elapsed();
    sink.record_pool_run(workers, exec_wall);
    sink.phases.add("execute", exec_wall);

    outputs
        .into_iter()
        .map(|o| o.expect("every job resolved by cache or pool"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmon_core::figures::{assemble_set, enumerate_extensions, enumerate_set, SetData};
    use gridmon_core::runcfg::Measurement;
    use gridmon_core::scenario::catalogue;
    use simcore::SimDuration;
    use std::time::Duration;

    /// A deliberately tiny configuration: the mechanisms on a very short
    /// clock, so scheduling tests stay fast.
    fn tiny_cfg(seed: u64) -> RunConfig {
        let mut cfg = RunConfig::quick(seed);
        cfg.warmup = SimDuration::from_secs(5);
        cfg.window = SimDuration::from_secs(15);
        cfg
    }

    /// A sequential, cacheless, silent configuration.
    const SEQUENTIAL: RunnerConfig = RunnerConfig {
        jobs: 1,
        cache_dir: None,
        quiet: true,
    };

    fn scratch_cache(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gridmon-runner-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// One experiment set through the pool: enumerate, run, assemble.
    fn pooled_set(set: u32, cfg: &RunConfig, scale: f64, rc: &RunnerConfig) -> (SetData, PerfSink) {
        let specs = enumerate_set(set, scale).unwrap();
        let (outputs, sink) = run_fresh(&Job::points(&specs), cfg, rc);
        (assemble_set(set, &specs, &measurements(&outputs)), sink)
    }

    /// `run` into a sink of its own.
    fn run_fresh(jobs: &[Job], cfg: &RunConfig, rc: &RunnerConfig) -> (Vec<JobOutput>, PerfSink) {
        let mut sink = PerfSink::default();
        let outputs = run(jobs, cfg, rc, &mut sink);
        (outputs, sink)
    }

    /// `(executed, cached)` of a sweep.
    fn tally(sink: &PerfSink) -> (u64, u64) {
        let t = sink.totals();
        (t.executed, t.cached)
    }

    fn measurements(outputs: &[JobOutput]) -> Vec<Measurement> {
        outputs.iter().map(|o| o.m).collect()
    }

    fn spec_of(id: &str) -> gscenario::ScenarioSpec {
        (catalogue::find(id).unwrap().spec)()
    }

    #[test]
    fn parallel_equals_sequential_bit_for_bit() {
        let cfg = tiny_cfg(7);
        let scale = 0.02;
        let (seq, _) = pooled_set(1, &cfg, scale, &SEQUENTIAL);
        for jobs in [2, 4] {
            let rc = RunnerConfig {
                jobs,
                cache_dir: None,
                quiet: true,
            };
            let (par, sink) = pooled_set(1, &cfg, scale, &rc);
            assert_eq!(tally(&sink), (sink.points.len() as u64, 0));
            assert_eq!(seq.series.len(), par.series.len());
            for ((l1, m1), (l2, m2)) in seq.series.iter().zip(&par.series) {
                assert_eq!(l1, l2);
                for (a, b) in m1.iter().zip(m2) {
                    assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
                    assert_eq!(a.response_time.to_bits(), b.response_time.to_bits());
                    assert_eq!(a.load1.to_bits(), b.load1.to_bits());
                    assert_eq!(a.cpu_load.to_bits(), b.cpu_load.to_bits());
                    assert_eq!((a.refused, a.completions), (b.refused, b.completions));
                }
            }
        }
    }

    #[test]
    fn warm_cache_executes_nothing_and_matches() {
        let cfg = tiny_cfg(3);
        let dir = scratch_cache("warm");
        let rc = RunnerConfig {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            quiet: true,
        };
        let (cold, s1) = pooled_set(2, &cfg, 0.01, &rc);
        let total = s1.points.len() as u64;
        assert!(total > 0);
        assert_eq!(tally(&s1), (total, 0));
        let (warm, s2) = pooled_set(2, &cfg, 0.01, &rc);
        assert_eq!(
            tally(&s2),
            (0, total),
            "warm run must be served entirely from cache"
        );
        for ((_, m1), (_, m2)) in cold.series.iter().zip(&warm.series) {
            for (a, b) in m1.iter().zip(m2) {
                assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
                assert_eq!(a.response_time.to_bits(), b.response_time.to_bits());
            }
        }
        // A different seed addresses different cache entries.
        let cfg2 = tiny_cfg(4);
        let (_, s3) = pooled_set(2, &cfg2, 0.01, &rc);
        assert_eq!(s3.cache.hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One job list may span sets, authored scenarios and extension
    /// points: each point's result is what it is when run alone, and the
    /// sweep's fault plan reaches only the specs that declare `[faults]`.
    #[test]
    fn mixed_job_list_preserves_per_point_results() {
        let mut cfg = tiny_cfg(11);
        cfg.faults = gridmon_core::scenario::DEFAULT_FAULTS;
        let rc = RunnerConfig {
            jobs: 3,
            cache_dir: None,
            quiet: true,
        };
        let mut points: Vec<_> = [1, 5]
            .iter()
            .flat_map(|&set| enumerate_set(set, 0.01).unwrap())
            .collect();
        points.extend(enumerate_extensions());
        let mut jobs = Job::points(&points);
        let mut authored = spec_of("set6/MDS GIIS (3 branches)");
        authored.x_values = vec![3];
        jobs.extend(Job::scenario_sweep(&authored).unwrap());
        let (together, sink) = run_fresh(&jobs, &cfg, &rc);
        assert_eq!(sink.points.len(), jobs.len());
        let mut pristine = cfg;
        pristine.faults = gfaults::FaultSpec::NONE;
        for (job, out) in jobs.iter().zip(&together) {
            let (alone, _) = run_fresh(std::slice::from_ref(job), &cfg, &SEQUENTIAL);
            assert_eq!(&alone[0], out, "{}", job.key());
            if !job.key().starts_with("set5/") {
                assert_eq!(job.run(&pristine), *out, "{} saw the plan", job.key());
            }
        }
    }

    #[test]
    fn observed_points_match_plain_measurements() {
        use gridmon_core::ObsMode;
        let cfg = tiny_cfg(9);
        let mut ocfg = cfg;
        ocfg.obs = ObsMode::FULL;
        let jobs = Job::points(&enumerate_set(1, 0.01).unwrap()[..3]);
        let dir = scratch_cache("observed");
        let rc = RunnerConfig {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            quiet: true,
        };
        let (observed, sink) = run_fresh(&jobs, &ocfg, &rc);
        assert_eq!(tally(&sink), (jobs.len() as u64, 0));
        assert!(!dir.exists(), "observed sweeps bypass the cache");
        for (job, out) in jobs.iter().zip(&observed) {
            let plain = job.run(&cfg);
            assert_eq!(plain.obs, None);
            assert_eq!(out.m, plain.m, "tracing must not perturb {}", job.key());
            assert_eq!(out.sim, plain.sim, "nor its trajectory");
            let harvest = out.obs.as_deref().expect("harvest");
            assert!(!harvest.report.events.is_empty());
            assert!(!harvest.report.metrics.is_empty());
        }
    }

    #[test]
    fn profiled_sweep_pins_cache_and_pool_accounting() {
        let cfg = tiny_cfg(21);
        for jobs in [1usize, 4] {
            let dir = scratch_cache(&format!("prof{jobs}"));
            let rc = RunnerConfig {
                jobs,
                cache_dir: Some(dir.clone()),
                quiet: true,
            };

            // Cold run: every point misses, executes and is stored.
            let (_, cold) = pooled_set(1, &cfg, 0.02, &rc);
            let total = cold.points.len();
            assert_eq!(cold.cache.misses as usize, total, "jobs={jobs}");
            assert_eq!(cold.cache.hits, 0);
            assert!(cold.cache.bytes_written > 0, "fresh results stored");
            assert_eq!(cold.cache.bytes_read, 0);
            assert_eq!(cold.executed().count(), total);
            for p in cold.executed() {
                assert!(p.sim.events > 0, "engine counters for {}", p.key);
                assert!(p.sim.popped >= p.sim.events, "pops include every dispatch");
                assert!(p.wall > Duration::ZERO);
                assert!(p.worker < jobs, "worker id within the pool");
            }
            assert_eq!(cold.pool.jobs.iter().sum::<usize>(), total);
            assert!(cold.pool.workers >= 1 && cold.pool.workers <= jobs);
            assert!(cold.pool.busy_total() > Duration::ZERO);
            let share = cold.pool.busy_share();
            assert!(share > 0.0 && share <= 1.0, "busy share {share}");
            for want in ["cache probe", "execute"] {
                let recorded = cold.phases.entries().iter().any(|(p, _)| p == want);
                assert!(recorded, "phase {want} recorded");
            }

            // Warm run: everything is a hit, nothing executes or stores,
            // and what is read back is what the cold run wrote.
            let (_, warm) = pooled_set(1, &cfg, 0.02, &rc);
            assert_eq!(tally(&warm), (0, total as u64), "jobs={jobs}");
            assert_eq!(warm.cache.hits as usize, total);
            assert_eq!(warm.cache.misses, 0);
            assert_eq!(warm.cache.bytes_read, cold.cache.bytes_written);
            assert_eq!(warm.cache.bytes_written, 0);
            for p in &warm.points {
                assert!(p.cached, "{} served from cache", p.key);
                assert_eq!(p.sim, gperf::SimCounters::default());
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn scenario_sweep_is_order_invariant_and_cached() {
        let cfg = tiny_cfg(17);
        let mut spec = spec_of("set6/MDS GIIS (3 branches)");
        spec.x_values = vec![3, 6];
        let jobs = Job::scenario_sweep(&spec).unwrap();
        let (seq, _) = run_fresh(&jobs, &cfg, &SEQUENTIAL);
        let dir = scratch_cache("scenario");
        let rc = RunnerConfig {
            jobs: 8,
            cache_dir: Some(dir.clone()),
            quiet: true,
        };
        // The sweep records every authored point under its key.
        let (par, sink) = run_fresh(&jobs, &cfg, &rc);
        assert_eq!(sink.cache.hits, 0);
        assert_eq!(seq, par, "worker count must not change a bit");
        let mut keys: Vec<&str> = sink.executed().map(|p| p.key.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "scenario/set6-federated-3/x=3",
                "scenario/set6-federated-3/x=6"
            ]
        );
        // Warm: everything from cache, same bits.
        let (warm, s2) = run_fresh(&jobs, &cfg, &rc);
        assert_eq!(tally(&s2), (0, 2));
        assert_eq!(measurements(&warm), measurements(&par));
        // Editing the topology (not the name) re-addresses the cache.
        let mut edited = spec.clone();
        edited.workload.users = gscenario::Count::Lit(12);
        let edited_jobs = Job::scenario_sweep(&edited).unwrap();
        let (_, s3) = run_fresh(&edited_jobs, &cfg, &rc);
        assert_eq!(s3.cache.hits, 0, "fingerprint must fold into the digest");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The extension studies are ordinary points: their own seeds, any
    /// worker count, the same cache.
    #[test]
    fn extension_rows_are_order_invariant_and_cached() {
        let cfg = tiny_cfg(19);
        let jobs = Job::points(&enumerate_extensions());
        assert_eq!(jobs.len(), 15);
        let (seq, _) = run_fresh(&jobs, &cfg, &SEQUENTIAL);
        let dir = scratch_cache("ext");
        let rc = RunnerConfig {
            jobs: 8,
            cache_dir: Some(dir.clone()),
            quiet: true,
        };
        let (cold, s1) = run_fresh(&jobs, &cfg, &rc);
        assert_eq!(tally(&s1), (15, 0));
        assert_eq!(seq, cold, "worker count must not change a bit");
        let (warm, s2) = run_fresh(&jobs, &cfg, &rc);
        assert_eq!(tally(&s2), (0, 15));
        assert_eq!(measurements(&warm), measurements(&cold));
        // Every point runs under the seed derived from its own key.
        let mut seeds: Vec<u64> = jobs
            .iter()
            .map(|j| gridmon_core::scenario::point_seed(cfg.seed, j.key()))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 15);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_errors_surface_before_the_pool() {
        let mut spec = spec_of("set6/MDS GIIS (flat)");
        spec.services[0].1.host = "lucky2".to_string();
        let err = Job::scenario_sweep(&spec).unwrap_err();
        assert!(err.to_string().contains("lucky2"), "{err}");
    }
}
