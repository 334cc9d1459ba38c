//! Repeated-run determinism of the optimized kernels.
//!
//! The hot-path optimizations (compiled ClassAds, the MDS result cache,
//! incremental fair-share, the typed-event calendar) must not introduce any
//! run-to-run or parallelism-dependent nondeterminism.  This test runs
//! the same seeded set-2 and set-4 sweeps **twice** at `--jobs 1` and
//! `--jobs 8` and demands:
//!
//! * byte-identical figure CSVs across all four runs, and
//! * identical engine counters — `fired`, `popped`, `advances`,
//!   simulated span — as aggregated by the self-profiler.
//!
//! Counter identity is a stronger bar than CSV identity: two runs could
//! produce the same figures while scheduling different event streams
//! under the hood.  (Set 4 exercises ClassAd matchmaking and the MDS
//! caches; set 2 leans on the flow network.)

use gridmon_core::figures::{self, assemble_set, enumerate_set, SetData};
use gridmon_core::report::csv;
use gridmon_core::runcfg::RunConfig;
use gridmon_runner::{Job, RunnerConfig};
use simcore::SimDuration;
use std::collections::BTreeMap;

fn cfg() -> RunConfig {
    let mut c = RunConfig::quick(20030622);
    c.warmup = SimDuration::from_secs(5);
    c.window = SimDuration::from_secs(15);
    c
}

const SCALE: f64 = 0.02;

fn csvs_of(data: &SetData) -> BTreeMap<u32, String> {
    figures::figures_of_set(data.set)
        .unwrap()
        .iter()
        .map(|&f| (f, csv(&figures::figure(data, f).unwrap())))
        .collect()
}

/// One profiled run of a set: figure CSVs plus aggregated engine counters.
fn profiled_run(set: u32, jobs: usize) -> (BTreeMap<u32, String>, (u64, u64, u64, u64)) {
    let rc = RunnerConfig {
        jobs,
        cache_dir: None,
        quiet: true,
    };
    let mut sink = gperf::PerfSink::new();
    let specs = enumerate_set(set, SCALE).unwrap();
    let (outputs, stats) = gridmon_runner::run(&Job::points(&specs), &cfg(), &rc, Some(&mut sink));
    assert_eq!(stats.executed, stats.total, "no cache in play");
    let results: Vec<_> = outputs.iter().map(|o| o.m).collect();
    let data = assemble_set(set, &specs, &results);
    let t = sink.totals();
    (csvs_of(&data), (t.events, t.popped, t.advances, t.sim_us))
}

#[test]
fn repeated_runs_are_identical_in_figures_and_counters() {
    for set in [2u32, 4] {
        let (ref_csvs, ref_counters) = profiled_run(set, 1);
        assert!(!ref_csvs.is_empty());
        for (jobs, round) in [(1, 2), (8, 1), (8, 2)] {
            let (csvs, counters) = profiled_run(set, jobs);
            for (fig, want) in &ref_csvs {
                assert_eq!(
                    csvs.get(fig).unwrap(),
                    want,
                    "set {set} figure {fig} CSV diverged at jobs={jobs} round {round}"
                );
            }
            assert_eq!(
                counters, ref_counters,
                "set {set} engine counters (fired, popped, advances, sim_us) \
                 diverged at jobs={jobs} round {round}"
            );
        }
    }
}
