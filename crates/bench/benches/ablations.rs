//! Ablation benches: vary the design choices DESIGN.md calls out and
//! observe their effect on the headline metrics.  Criterion times the
//! wall-clock cost of the simulated run; the interesting output is the
//! simulated metric each configuration produces (black-boxed so the whole
//! pipeline runs).

use criterion::{criterion_group, criterion_main, Criterion};
use gbench::Profile;
use gridmon_core::runcfg::{Measurement, RunConfig};
use gridmon_core::scenario::{catalogue, run_point};
use simcore::SimDuration;

fn base_cfg() -> RunConfig {
    Profile::Bench.run_config(13)
}

/// The built-in series `id` at `x`, under `cfg` as given.
fn point(id: &str, x: u32, cfg: &RunConfig) -> Measurement {
    let series = catalogue::find(id).unwrap_or_else(|| panic!("no series {id:?}"));
    run_point(&(series.spec)(), x, cfg).unwrap()
}

/// Ablation 1 — the GSI bind cost: the paper's flat ~4 s cached-GRIS
/// response comes from session establishment, not the search.  Remove it
/// and the cached GRIS response collapses to milliseconds.
fn ablate_gsi_bind(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_gsi_bind");
    g.sample_size(10);
    for (label, fixed_ms) in [("gsi_3500ms", 3_500u64), ("anonymous_0ms", 0)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut cfg = base_cfg();
                cfg.params.gris_setup.fixed = SimDuration::from_millis(fixed_ms);
                let m = point("set1/MDS GRIS (cache)", 30, &cfg);
                criterion::black_box(m.response_time)
            })
        });
    }
    g.finish();
}

/// Ablation 2 — admission control: shrink/expand the Hawkeye Agent's
/// accept queue.  Tiny queues refuse early and keep served response
/// times flat; big queues trade refusals for queueing delay.
fn ablate_accept_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_agent_accept_queue");
    g.sample_size(10);
    for (label, conns, backlog) in [("tight_12+6", 12u32, 6u32), ("wide_128+128", 128, 128)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut cfg = base_cfg();
                cfg.params.agent_conn_capacity = conns;
                cfg.params.agent_backlog = backlog;
                let m = point("set1/Hawkeye Agent", 80, &cfg);
                criterion::black_box((m.throughput, m.refused))
            })
        });
    }
    g.finish();
}

/// Ablation 3 — the WAN pipe: the paper blames server-side network
/// saturation for its thresholds.  Vary the UC-ANL capacity.
fn ablate_wan_capacity(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_wan_capacity");
    g.sample_size(10);
    for (label, bps) in [("10mbit", 10e6), ("40mbit", 40e6), ("100mbit", 100e6)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut cfg = base_cfg();
                cfg.params.wan_bps = bps;
                let m = point("set2/MDS GIIS", 60, &cfg);
                criterion::black_box(m.throughput)
            })
        });
    }
    g.finish();
}

/// Ablation 4 — the client-side query-tool cost: what caps the fast
/// directory servers at high user counts.
fn ablate_client_cpu(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_client_cpu");
    g.sample_size(10);
    for (label, us) in [("free_client", 0.0), ("condor_status_180ms", 180_000.0)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut cfg = base_cfg();
                cfg.params.condor_client_cpu_us = us;
                let m = point("set2/Hawkeye Manager", 80, &cfg);
                criterion::black_box(m.throughput)
            })
        });
    }
    g.finish();
}

/// Ablation 5 — retry backoff: how fast refused users hammer back
/// changes the equilibrium a saturated server settles into.
fn ablate_retry_backoff(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_retry_backoff");
    g.sample_size(10);
    for (label, cap_s) in [("cap_12s", 12u64), ("cap_60s", 60)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut cfg = base_cfg();
                cfg.params.retry_cap = SimDuration::from_secs(cap_s);
                let m = point("set1/Hawkeye Agent", 80, &cfg);
                criterion::black_box((m.throughput, m.refused))
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    ablate_gsi_bind,
    ablate_accept_queue,
    ablate_wan_capacity,
    ablate_client_cpu,
    ablate_retry_backoff
);
criterion_main!(benches);
