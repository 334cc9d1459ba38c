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
//!   simulated span — point by point, as each point returned them.
//!
//! Counter identity is a stronger bar than CSV identity: two runs could
//! produce the same figures while scheduling different event streams
//! under the hood — and per point is stronger than summed, where two
//! points' differences could cancel.  (Set 4 exercises ClassAd
//! matchmaking and the MDS caches; set 2 leans on the flow network.)

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

/// One run of a set: figure CSVs plus every point's engine counters,
/// in job order.
fn counted_run(set: u32, jobs: usize) -> (BTreeMap<u32, String>, Vec<gperf::SimCounters>) {
    let rc = RunnerConfig {
        jobs,
        cache_dir: None,
        quiet: true,
    };
    let mut sink = gperf::PerfSink::default();
    let specs = enumerate_set(set, SCALE).unwrap();
    let outputs = gridmon_runner::run(&Job::points(&specs), &cfg(), &rc, &mut sink);
    assert_eq!(
        sink.totals().executed as usize,
        specs.len(),
        "no cache in play"
    );
    let results: Vec<_> = outputs.iter().map(|o| o.m).collect();
    let data = assemble_set(set, &specs, &results);
    let counters: Vec<_> = outputs.iter().map(|o| o.sim).collect();
    assert!(counters.iter().all(|c| c.events > 0 && c.sim_us > 0));
    (csvs_of(&data), counters)
}

#[test]
fn repeated_runs_are_identical_in_figures_and_counters() {
    for set in [2u32, 4] {
        let (ref_csvs, ref_counters) = counted_run(set, 1);
        assert!(!ref_csvs.is_empty());
        for (jobs, round) in [(1, 2), (8, 1), (8, 2)] {
            let (csvs, counters) = counted_run(set, jobs);
            for (fig, want) in &ref_csvs {
                assert_eq!(
                    csvs.get(fig).unwrap(),
                    want,
                    "set {set} figure {fig} CSV diverged at jobs={jobs} round {round}"
                );
            }
            assert_eq!(
                counters, ref_counters,
                "set {set} per-point engine counters (events, popped, advances, \
                 sim_us) diverged at jobs={jobs} round {round}"
            );
        }
    }
}
