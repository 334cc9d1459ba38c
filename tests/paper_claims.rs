//! The paper's qualitative claims, checked at reduced scale.
//!
//! These tests run real experiment points (shorter windows than the
//! paper's 10 minutes) and assert the *orderings and shapes* the paper
//! reports — who wins, which direction curves move — rather than
//! absolute numbers.

use gridmon::core::runcfg::{Measurement, RunConfig};
use gridmon::core::scenario::{catalogue, compile};
use gridmon::core::Params;
use gridmon::simcore::SimDuration;

fn cfg() -> RunConfig {
    let mut c = RunConfig::quick(99);
    c.warmup = SimDuration::from_secs(30);
    c.window = SimDuration::from_secs(90);
    c
}

/// The built-in series `id` at `x`, under [`cfg`] as given.
fn point(id: &str, x: u32) -> Measurement {
    point_with(id, x, |_| {})
}

/// [`point`] with one calibrated parameter moved — an ablation.
fn point_with(id: &str, x: u32, ablate: impl FnOnce(&mut Params)) -> Measurement {
    let series = catalogue::find(id).unwrap_or_else(|| panic!("no series {id:?}"));
    let mut cfg = cfg();
    ablate(&mut cfg.params);
    compile(&(series.spec)(), x, &cfg).run_and_measure(f64::from(x))
}

#[test]
fn caching_beats_refetching_dramatically() {
    // Section 3.3: "caching can significantly improve performance of the
    // information server".
    let users = 100;
    let cached = point("set1/MDS GRIS (cache)", users);
    let uncached = point("set1/MDS GRIS (nocache)", users);
    assert!(
        cached.throughput > uncached.throughput * 5.0,
        "cache {} vs nocache {}",
        cached.throughput,
        uncached.throughput
    );
    assert!(
        uncached.response_time > cached.response_time * 4.0,
        "cache rt {} vs nocache rt {}",
        cached.response_time,
        uncached.response_time
    );
    // "Its throughput does not exceed 2 queries per second when the data
    // is not in cache."
    assert!(uncached.throughput < 2.5, "nocache {}", uncached.throughput);
}

#[test]
fn gris_cache_throughput_grows_with_users() {
    // Fig 5: near-linear growth for the cached GRIS.
    let a = point("set1/MDS GRIS (cache)", 50);
    let b = point("set1/MDS GRIS (cache)", 150);
    assert!(
        b.throughput > a.throughput * 2.0,
        "50 users {} vs 150 users {}",
        a.throughput,
        b.throughput
    );
    // Fig 6: response time stays in the GSI-bind band.
    assert!(
        a.response_time > 3.0 && a.response_time < 5.5,
        "{}",
        a.response_time
    );
    assert!(
        b.response_time > 3.0 && b.response_time < 5.5,
        "{}",
        b.response_time
    );
}

#[test]
fn directory_servers_outscale_the_registry() {
    // Figs 9-10: GIIS and Manager present good scalability, R-GMA less.
    let users = 150;
    let giis = point("set2/MDS GIIS", users);
    let mgr = point("set2/Hawkeye Manager", users);
    let reg = point("set2/R-GMA Registry(lucky)", users);
    assert!(
        giis.throughput > reg.throughput * 2.0,
        "giis {} reg {}",
        giis.throughput,
        reg.throughput
    );
    assert!(
        mgr.throughput > reg.throughput * 2.0,
        "mgr {} reg {}",
        mgr.throughput,
        reg.throughput
    );
    // The Registry's response time is the worst of the three.
    assert!(reg.response_time > giis.response_time);
    assert!(reg.response_time > mgr.response_time);
}

#[test]
fn giis_host_load_roughly_twice_the_managers() {
    // Fig 12: "the load of GIIS is nearly twice as bad as Hawkeye
    // Manager when the number of users is large", blamed on the LDAP
    // backend vs the indexed resident database.
    let users = 200;
    let giis = point("set2/MDS GIIS", users);
    let mgr = point("set2/Hawkeye Manager", users);
    let ratio = giis.cpu_load / mgr.cpu_load.max(1e-9);
    assert!(
        ratio > 1.5,
        "cpu ratio {ratio}: giis {} mgr {}",
        giis.cpu_load,
        mgr.cpu_load
    );
}

#[test]
fn registry_placement_barely_matters() {
    // Section 3.4: "little difference between the performances of
    // R-GMA's Registry when accessed by two different kinds of simulated
    // Consumers", because Registry contention dominates the network.
    let users = 100;
    let lucky = point("set2/R-GMA Registry(lucky)", users);
    let uc = point("set2/R-GMA Registry(UC)", users);
    let rel = (lucky.throughput - uc.throughput).abs() / lucky.throughput.max(1e-9);
    assert!(
        rel < 0.2,
        "lucky {} vs uc {}",
        lucky.throughput,
        uc.throughput
    );
}

#[test]
fn more_collectors_degrade_every_information_server() {
    // Figs 13-14: all servers degrade; the cached GRIS degrades least.
    let few = point("set3/Hawkeye Agent", 11);
    let many = point("set3/Hawkeye Agent", 90);
    assert!(many.throughput < few.throughput / 3.0);
    assert!(
        many.response_time > 10.0,
        "paper: >10 s at 90 modules; got {}",
        many.response_time
    );
    assert!(
        many.throughput < 1.0,
        "paper: <1 q/s at 90 modules; got {}",
        many.throughput
    );

    let gris_few = point("set3/MDS GRIS(cache)", 10);
    let gris_many = point("set3/MDS GRIS(cache)", 90);
    // The cached GRIS barely notices: still >= 5 q/s with ~sub-second
    // search (paper: 7 q/s, < 1 s response).
    assert!(gris_many.throughput > 5.0, "{}", gris_many.throughput);
    assert!(gris_many.throughput > gris_few.throughput * 0.8);

    let ps_many = point("set3/R-GMA ProducerServlet", 90);
    assert!(ps_many.throughput < 1.0, "{}", ps_many.throughput);
    assert!(ps_many.response_time > 10.0, "{}", ps_many.response_time);
}

#[test]
fn aggregation_degrades_beyond_a_hundred_sources() {
    // Figs 17-18: "no current aggregate information server is capable of
    // aggregating information servers when there are more than 100 of
    // them".
    let small = point("set4/MDS GIIS(query all)", 10);
    let large = point("set4/MDS GIIS(query all)", 150);
    assert!(
        large.throughput < small.throughput / 2.0,
        "10 gris {} vs 150 gris {}",
        small.throughput,
        large.throughput
    );
    assert!(large.response_time > small.response_time * 2.0);

    // Query-part scales further than query-all at the same source count.
    let part = point("set4/MDS GIIS (query part)", 150);
    assert!(part.throughput > large.throughput);

    // The Manager degrades too as the pool grows.
    let m_small = point("set4/Hawkeye Manager", 50);
    let m_large = point("set4/Hawkeye Manager", 700);
    assert!(
        m_large.throughput < m_small.throughput * 0.7,
        "50 machines {} vs 700 {}",
        m_small.throughput,
        m_large.throughput
    );
    assert!(m_large.response_time > m_small.response_time * 3.0);
}

#[test]
fn experiment_points_are_deterministic() {
    // Whole `Measurement`s: every metric, count and resilience field.
    assert_eq!(
        point("set1/Hawkeye Agent", 60),
        point("set1/Hawkeye Agent", 60)
    );
}

// The ablations: DESIGN.md names five load-bearing mechanisms; each test
// below moves one calibrated parameter and asserts the direction and
// rough factor of what it carries — and, where the mechanism only shows
// under some load, the point where it does not.

#[test]
fn gsi_bind_is_the_cached_gris_response_time() {
    // The flat ~4 s of Fig 6 is session establishment, not the search:
    // bind anonymously and the cached GRIS answers in a fraction of a
    // second, and the same 30 users get several times the throughput.
    let gsi = point("set1/MDS GRIS (cache)", 30);
    let anonymous = point_with("set1/MDS GRIS (cache)", 30, |p| {
        p.gris_setup.fixed = SimDuration::ZERO;
    });
    assert!(gsi.response_time > 3.0, "{}", gsi.response_time);
    assert!(anonymous.response_time < 0.5, "{}", anonymous.response_time);
    assert!(
        anonymous.throughput > gsi.throughput * 3.0,
        "gsi {} vs anonymous {}",
        gsi.throughput,
        anonymous.throughput
    );
}

#[test]
fn agent_accept_queue_only_decides_who_is_refused() {
    // The Agent's small accept queue is the admission mechanism: widen
    // it and the refusals vanish, but the saturated Agent serves no more.
    let tight = point("set1/Hawkeye Agent", 80);
    let wide = point_with("set1/Hawkeye Agent", 80, |p| {
        p.agent_conn_capacity = 128;
        p.agent_backlog = 128;
    });
    assert!(tight.refused > 50, "{}", tight.refused);
    assert_eq!(wide.refused, 0);
    assert!(
        (wide.throughput - tight.throughput).abs() < tight.throughput * 0.01,
        "tight {} vs wide {}",
        tight.throughput,
        wide.throughput
    );
}

#[test]
fn query_tool_cpu_caps_the_fast_directory_server() {
    // `condor_status` costs the client ~180 ms of CPU per query; that,
    // not the Manager, is what holds 80 users near 60 queries/s.
    let real = point("set2/Hawkeye Manager", 80);
    let free = point_with("set2/Hawkeye Manager", 80, |p| p.condor_client_cpu_us = 0.0);
    assert!(
        free.throughput > real.throughput * 1.2,
        "free client {} vs condor_status {}",
        free.throughput,
        real.throughput
    );
    assert!(free.response_time < real.response_time / 3.0);
}

#[test]
fn wan_capacity_caps_only_servers_with_large_replies() {
    // The paper's recurring "server-side network" explanation holds where
    // replies are big — a GIIS returning 100 GRISes' worth of entries —
    // and not where they are small: the GIIS of set 2 is CPU-bound, and a
    // 10× wider or narrower pipe moves nothing.
    let wan = |id: &str, x: u32, mbit: f64| point_with(id, x, |p| p.wan_bps = mbit * 1e6);
    let [narrow, calibrated, wide] =
        [10.0, 40.0, 100.0].map(|mbit| wan("set4/MDS GIIS(query all)", 100, mbit));
    assert!(
        narrow.throughput < calibrated.throughput && calibrated.throughput < wide.throughput,
        "10/40/100 Mbit: {} {} {}",
        narrow.throughput,
        calibrated.throughput,
        wide.throughput
    );
    assert!(wide.throughput > narrow.throughput * 2.0);
    assert!(narrow.response_time > wide.response_time * 2.0);

    let small_narrow = wan("set2/MDS GIIS", 60, 10.0);
    let small_wide = wan("set2/MDS GIIS", 60, 100.0);
    let rel = (small_wide.throughput - small_narrow.throughput).abs() / small_wide.throughput;
    assert!(
        rel < 0.02,
        "10 Mbit {} vs 100 Mbit {}",
        small_narrow.throughput,
        small_wide.throughput
    );
}

#[test]
fn retry_backoff_sets_the_refusal_rate_not_the_throughput() {
    // How fast refused users hammer back decides how many connections a
    // saturated server turns away, not how many it serves.  The cap only
    // bites past the fourth straight refusal (3 s doubling), so it shows
    // at 600 users; at 80 the 12 s and 60 s caps are the same run.
    let capped = |x: u32, secs: u64| {
        point_with("set1/Hawkeye Agent", x, |p| {
            p.retry_cap = SimDuration::from_secs(secs);
        })
    };
    let [eager, calibrated, patient] = [3, 12, 60].map(|secs| capped(600, secs));
    for other in [&eager, &patient] {
        assert!(
            (other.throughput - calibrated.throughput).abs() < calibrated.throughput * 0.01,
            "{} vs {}",
            other.throughput,
            calibrated.throughput
        );
    }
    assert!(
        eager.refused > calibrated.refused * 2 && calibrated.refused > patient.refused,
        "3/12/60 s caps: {} {} {}",
        eager.refused,
        calibrated.refused,
        patient.refused
    );
    assert_eq!(capped(80, 12).refused, capped(80, 60).refused);
}
