//! Observability overhead benches — the "zero-cost-when-off" pin.
//!
//! Two levels:
//!
//! * `obs_gate/*` — the micro cost of one instrumented site.  With
//!   [`ObsMode::OFF`] every `ev_with`/`incr` call is a load of a plain
//!   `bool` and a predicted-not-taken branch; the closure building the
//!   event never runs.  Compare `ev_with_off` against `spin` (the same
//!   loop with no call at all) to see the per-site cost, and against
//!   `ev_with_on` for the recording cost.
//!
//! * `sweep_point/*` — the macro cost on a full figure point: the same
//!   cached-GRIS point simulated with observability off, with metrics
//!   only, and with full tracing.  `off` is what every default figure
//!   sweep pays for the instrumentation being compiled in (budgeted
//!   <2 % over the pre-instrumentation baseline; compare `off` runs
//!   across commits to watch it), `trace_full` is the opt-in price of
//!   `figures --trace`.
//!
//! * `perf_gate/*` — the same pin for the self-profiler.  With no
//!   `PerfSink` alive, `gperf::sim_report` is one relaxed load and a
//!   predictable branch (`sim_report_off` vs `spin`), and a whole
//!   figure point with profiling compiled in but disabled
//!   (`point_unprofiled`) must stay within the same <2 % budget of the
//!   pre-profiler baseline; `point_profiled` shows the opt-in cost of
//!   `figures --perf` / `gridmon-bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use gbench::Profile;
use gridmon_core::runcfg::{Measurement, RunConfig};
use gridmon_core::scenario::{catalogue, run_point};
use gridmon_core::ObsMode;
use gtrace::{Ev, Obs};
use simcore::SimTime;

/// The built-in series `id` at `x`, under `cfg` as given.
fn point(id: &str, x: u32, cfg: &RunConfig) -> Measurement {
    let series = catalogue::find(id).unwrap_or_else(|| panic!("no series {id:?}"));
    run_point(&(series.spec)(), x, cfg).unwrap()
}

/// One instrumented-site call, off vs on.
fn obs_gate(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_gate");
    const N: u64 = 100_000;

    g.bench_function("spin", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..N {
                acc = acc.wrapping_add(criterion::black_box(i));
            }
            criterion::black_box(acc)
        })
    });
    g.bench_function("ev_with_off", |b| {
        let mut obs = Obs::off();
        b.iter(|| {
            for i in 0..N {
                obs.ev_with(SimTime(i), || Ev::Dispatch { seq: i });
            }
            criterion::black_box(obs.tracing())
        })
    });
    g.bench_function("ev_with_on", |b| {
        b.iter(|| {
            let mut obs = Obs::from_mode(ObsMode::FULL);
            for i in 0..N {
                obs.ev_with(SimTime(i), || Ev::Dispatch { seq: i });
            }
            criterion::black_box(obs.finish(SimTime(N)).map(|r| r.events.len()))
        })
    });
    g.finish();
}

/// A whole simulated figure point under each observability mode.
fn sweep_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep_point");
    g.sample_size(10);
    let modes = [
        ("off", ObsMode::OFF),
        (
            "metrics_only",
            ObsMode {
                trace: false,
                metrics: true,
            },
        ),
        ("trace_full", ObsMode::FULL),
    ];
    for (label, mode) in modes {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut cfg = Profile::Bench.run_config(13);
                cfg.obs = mode;
                let m = point("set1/MDS GRIS (cache)", 10, &cfg);
                criterion::black_box(m.response_time)
            })
        });
    }
    g.finish();
}

/// The self-profiler's gate: per-site cost of `sim_report` off vs on,
/// and a whole figure point unprofiled vs profiled.
fn perf_gate(c: &mut Criterion) {
    let mut g = c.benchmark_group("perf_gate");
    const N: u64 = 100_000;

    g.bench_function("spin", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..N {
                acc = acc.wrapping_add(criterion::black_box(i));
            }
            criterion::black_box(acc)
        })
    });
    g.bench_function("sim_report_off", |b| {
        assert!(!gperf::profiling(), "no sink may leak into this bench");
        b.iter(|| {
            for i in 0..N {
                gperf::sim_report(criterion::black_box(i), i, i, i);
            }
            criterion::black_box(gperf::profiling())
        })
    });
    g.bench_function("sim_report_on", |b| {
        let _sink = gperf::PerfSink::new();
        b.iter(|| {
            let (_, sample) = gperf::measure_point(|| {
                for i in 0..N {
                    gperf::sim_report(criterion::black_box(i), i, i, i);
                }
            });
            criterion::black_box(sample.sim.engine_runs)
        })
    });

    g.sample_size(10);
    g.bench_function("point_unprofiled", |b| {
        b.iter(|| {
            let cfg = Profile::Bench.run_config(13);
            let m = point("set1/MDS GRIS (cache)", 10, &cfg);
            criterion::black_box(m.response_time)
        })
    });
    g.bench_function("point_profiled", |b| {
        let _sink = gperf::PerfSink::new();
        b.iter(|| {
            let cfg = Profile::Bench.run_config(13);
            let (m, sample) = gperf::measure_point(|| point("set1/MDS GRIS (cache)", 10, &cfg));
            criterion::black_box((m.response_time, sample.sim.events))
        })
    });
    g.finish();
}

criterion_group!(benches, obs_gate, sweep_point, perf_gate);
criterion_main!(benches);
