//! Criterion benches of the sweep-execution engine itself: one full
//! (thinned) experiment-set sweep, sequentially and through the
//! work-stealing pool, plus a warm-cache pass.  The interesting numbers
//! are the jobs=1 vs jobs=N ratio (scheduling overhead / speedup) and
//! the cached pass (pure cache-read cost).

use criterion::{criterion_group, criterion_main, Criterion};
use gbench::Profile;
use gridmon_core::figures::enumerate_set;
use gridmon_runner::{Job, RunnerConfig, SweepStats};

/// The thinned set-1 sweep under `rc`.
fn sweep_set1(rc: &RunnerConfig) -> SweepStats {
    let jobs: Vec<Job> = enumerate_set(1, Profile::Bench.scale())
        .unwrap()
        .into_iter()
        .map(Job::Figure)
        .collect();
    gridmon_runner::run(&jobs, &Profile::Bench.run_config(7), rc, None).1
}

fn seq_rc() -> RunnerConfig {
    RunnerConfig::sequential()
}

fn par_rc() -> RunnerConfig {
    RunnerConfig {
        jobs: 0,
        cache_dir: None,
        quiet: true,
    }
}

fn bench_set1_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep_set1");
    g.sample_size(10);
    g.bench_function("jobs=1", |b| b.iter(|| sweep_set1(&seq_rc())));
    g.bench_function("jobs=auto", |b| b.iter(|| sweep_set1(&par_rc())));
    g.finish();
}

fn bench_warm_cache(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("gridmon-sweep-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rc = RunnerConfig {
        jobs: 0,
        cache_dir: Some(dir.clone()),
        quiet: true,
    };
    // Prime once; the measured iterations are then pure cache reads.
    sweep_set1(&rc);
    c.bench_function("sweep_set1/warm_cache", |b| {
        b.iter(|| {
            assert_eq!(sweep_set1(&rc).executed, 0);
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(sweeps, bench_set1_sweep, bench_warm_cache);
criterion_main!(sweeps);
