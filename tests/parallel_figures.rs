//! End-to-end determinism of the parallel sweep engine.
//!
//! The contract `gridmon-runner` makes is strong: for every figure
//! series of every experiment set, the CSV a parallel run writes is
//! **byte-identical** to a sequential run's, whatever the worker
//! count, and a warm-cache run reproduces the same bytes without
//! executing a single point.  These tests pin that contract on a
//! scaled-down sweep of every set in the catalogue — the sweep carries
//! the canonical fault plan, which reaches the Set-5 resilience points,
//! so injected faults are held to the same byte-identity bar as
//! pristine points.

use gridmon_core::figures::{self, assemble_set, enumerate_extensions, enumerate_set, SetData};
use gridmon_core::report::csv;
use gridmon_core::runcfg::{Measurement, RunConfig};
use gridmon_core::scenario::{catalogue, compile, point_cfg, DEFAULT_FAULTS};
use gridmon_runner::{Job, RunnerConfig};
use simcore::SimDuration;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Short windows so the full six-set sweep stays test-sized; the
/// mechanisms (and the determinism contract) are unchanged.
fn cfg() -> RunConfig {
    let mut c = RunConfig::quick(20030622);
    c.warmup = SimDuration::from_secs(5);
    c.window = SimDuration::from_secs(15);
    c.faults = DEFAULT_FAULTS;
    c
}

const SCALE: f64 = 0.02;

/// The pool-free reference: every point of `set` compiled and run in
/// order on this thread, as `Job::run` runs one.
fn sequential_set(set: u32, cfg: &RunConfig, scale: f64) -> SetData {
    let specs = enumerate_set(set, scale).unwrap();
    let results: Vec<Measurement> = specs
        .iter()
        .map(|p| {
            let spec = (p.series.spec)();
            let cfg = point_cfg(&spec, &p.key(), cfg);
            compile(&spec, p.x, &cfg).run_and_measure(f64::from(p.x))
        })
        .collect();
    assemble_set(set, &specs, &results)
}

/// A sequential, cacheless, silent configuration.
const SEQUENTIAL: RunnerConfig = RunnerConfig {
    jobs: 1,
    cache_dir: None,
    quiet: true,
};

/// One experiment set through the pool: enumerate, run, assemble.
/// Returns the set's data and what the sweep recorded.
fn pooled_set(
    set: u32,
    cfg: &RunConfig,
    scale: f64,
    rc: &RunnerConfig,
) -> (SetData, gperf::PerfSink) {
    let specs = enumerate_set(set, scale).unwrap();
    let mut sink = gperf::PerfSink::default();
    let outputs = gridmon_runner::run(&Job::points(&specs), cfg, rc, &mut sink);
    assert_eq!(sink.points.len(), specs.len(), "one record per point");
    let results: Vec<_> = outputs.iter().map(|o| o.m).collect();
    (assemble_set(set, &specs, &results), sink)
}

/// `(executed, cached)` of a sweep.
fn tally(sink: &gperf::PerfSink) -> (u64, u64) {
    let t = sink.totals();
    (t.executed, t.cached)
}

/// `run` into a throw-away sink.
fn run(jobs: &[Job], cfg: &RunConfig, rc: &RunnerConfig) -> Vec<gridmon_runner::JobOutput> {
    gridmon_runner::run(jobs, cfg, rc, &mut gperf::PerfSink::default())
}

/// Render every figure of a set to CSV, keyed by figure number.
fn csvs_of(data: &SetData) -> BTreeMap<u32, String> {
    figures::figures_of_set(data.set)
        .unwrap()
        .iter()
        .map(|&f| (f, csv(&figures::figure(data, f).unwrap())))
        .collect()
}

fn scratch_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gridmon-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_figure_csv_is_byte_identical_across_job_counts() {
    for set in catalogue::sets() {
        let cfg = cfg();
        // The pool-free sequential run is the reference.
        let reference = csvs_of(&sequential_set(set, &cfg, SCALE));
        assert!(!reference.is_empty());
        for jobs in [1, 2, 8] {
            let rc = RunnerConfig {
                jobs,
                cache_dir: None,
                quiet: true,
            };
            let (data, sink) = pooled_set(set, &cfg, SCALE, &rc);
            assert_eq!(sink.totals().cached, 0, "no cache in play");
            for p in &sink.points {
                assert!(p.sim.events > 0, "{}: no engine counters", p.key);
            }
            let got = csvs_of(&data);
            for (fig, want) in &reference {
                assert_eq!(
                    got.get(fig).unwrap(),
                    want,
                    "set {set} figure {fig} diverged at jobs={jobs}"
                );
            }
        }
    }
}

/// Observability must not perturb the simulation: with tracing and
/// metrics fully on (RingTracer + registry live), every figure CSV is
/// byte-identical to the plain untraced run, sequential or 8-wide —
/// and so are the extension studies' measurements, the open-loop source
/// and the composite producer included, with a non-empty harvest each.
#[test]
fn tracing_never_changes_figure_csvs() {
    let base = cfg();
    let mut traced = base;
    traced.obs = gridmon_core::ObsMode::FULL;
    let ext = Job::points(&enumerate_extensions());
    let plain = run(&ext, &base, &SEQUENTIAL);
    let rc = RunnerConfig {
        jobs: 8,
        ..SEQUENTIAL
    };
    let observed = run(&ext, &traced, &rc);
    for ((job, plain), observed) in ext.iter().zip(&plain).zip(&observed) {
        assert_eq!(observed.m, plain.m, "tracing perturbed {}", job.key());
        assert!(plain.m.completions > 0, "{} measured nothing", job.key());
        let harvest = observed.obs.as_deref().expect("harvest");
        assert!(!harvest.report.events.is_empty() && !harvest.report.metrics.is_empty());
    }

    for set in catalogue::sets() {
        let reference = csvs_of(&sequential_set(set, &base, SCALE));
        for jobs in [1, 8] {
            let rc = RunnerConfig {
                jobs,
                cache_dir: None,
                quiet: true,
            };
            let (data, sink) = pooled_set(set, &traced, SCALE, &rc);
            assert_eq!(sink.totals().cached, 0, "no cache in play");
            assert_eq!(
                csvs_of(&data),
                reference,
                "set {set} diverged under full tracing at jobs={jobs}"
            );
        }
    }
}

#[test]
fn warm_cache_reproduces_identical_csvs_without_executing() {
    let dir = scratch_cache("warm");
    let rc = RunnerConfig {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        quiet: true,
    };
    for set in catalogue::sets() {
        let cfg = cfg();
        let (cold, s_cold) = pooled_set(set, &cfg, SCALE, &rc);
        let (ran, hits) = tally(&s_cold);
        assert_eq!(hits, 0, "set {set}: scratch cache starts cold");
        let (warm, s_warm) = pooled_set(set, &cfg, SCALE, &rc);
        assert_eq!(
            tally(&s_warm),
            (0, ran),
            "set {set}: warm run must execute nothing"
        );
        assert_eq!(
            csvs_of(&cold),
            csvs_of(&warm),
            "set {set}: cached results must render identical CSVs"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_is_seed_and_scale_addressed() {
    let dir = scratch_cache("addr");
    let rc = RunnerConfig {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        quiet: true,
    };
    let (_, first) = pooled_set(1, &cfg(), SCALE, &rc);
    assert_eq!(first.cache.hits, 0);
    // A different base seed shares no cache entries...
    let mut reseeded = cfg();
    reseeded.seed ^= 1;
    let (_, other) = pooled_set(1, &reseeded, SCALE, &rc);
    assert_eq!(other.cache.hits, 0);
    // ...while re-running at a larger scale reuses the shared x-points.
    let (ran, hits) = tally(&pooled_set(1, &cfg(), SCALE * 2.0, &rc).1);
    assert!(hits > 0, "overlapping points must be reused");
    assert!(ran > 0, "new x-points must still run");
    let _ = std::fs::remove_dir_all(&dir);
}
