//! The paper's qualitative claims, checked at reduced scale.
//!
//! These tests run real experiment points (shorter windows than the
//! paper's 10 minutes) and assert the *orderings and shapes* the paper
//! reports — who wins, which direction curves move — rather than
//! absolute numbers.

use gridmon::core::runcfg::{Measurement, RunConfig};
use gridmon::core::scenario::{catalogue, run_point};
use gridmon::simcore::SimDuration;

fn cfg() -> RunConfig {
    let mut c = RunConfig::quick(99);
    c.warmup = SimDuration::from_secs(30);
    c.window = SimDuration::from_secs(90);
    c
}

/// The built-in series `id` at `x`, under [`cfg`] as given.
fn point(id: &str, x: u32) -> Measurement {
    let series = catalogue::find(id).unwrap_or_else(|| panic!("no series {id:?}"));
    run_point(&(series.spec)(), x, &cfg()).unwrap()
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
    let a = point("set1/Hawkeye Agent", 60);
    let b = point("set1/Hawkeye Agent", 60);
    assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
    assert_eq!(a.response_time.to_bits(), b.response_time.to_bits());
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.refused, b.refused);
}
