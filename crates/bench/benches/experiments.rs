//! Criterion benches: one group per paper table/figure.
//!
//! Each experiment set produces four figures from the same simulation
//! runs, so the benches are organised per set with one benchmark per
//! figure-defining series at a representative sweep point, using the
//! `Bench` profile (short windows) so `cargo bench` completes quickly.

use criterion::{criterion_group, criterion_main, Criterion};
use gbench::Profile;
use gridmon_core::scenario::{catalogue, run_point};

fn cfg() -> gridmon_core::runcfg::RunConfig {
    Profile::Bench.run_config(7)
}

/// Table 1 is a static mapping; benchmark its rendering for completeness.
fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1/render", |b| {
        b.iter(gridmon_core::mapping::render_table1)
    });
}

/// Figures 5-8: information server vs users.  Figures 9-12: directory
/// server vs users.  Figures 13-16: information server vs collectors.
/// Figures 17-20: aggregate information server vs sources.
fn bench_sets(c: &mut Criterion) {
    for (set, group, swept, x) in [
        (1, "set1_figs5-8", "users", 40),
        (2, "set2_figs9-12", "users", 40),
        (3, "set3_figs13-16", "collectors", 30),
        (4, "set4_figs17-20", "servers", 50),
    ] {
        let mut g = c.benchmark_group(group);
        g.sample_size(10);
        for series in catalogue::in_set(set) {
            let spec = (series.spec)();
            g.bench_function(format!("{}/{swept}={x}", series.label), |b| {
                b.iter(|| run_point(&spec, x, &cfg()))
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_table1, bench_sets);
criterion_main!(benches);
