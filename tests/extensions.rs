//! The paper's future-work items, implemented and verified:
//! hierarchical aggregation, the R-GMA composite producer, WAN sweeps and
//! open-loop access patterns.

use gridmon::core::ext;
use gridmon::core::runcfg::RunConfig;
use gridmon::simcore::SimDuration;

fn cfg() -> RunConfig {
    let mut c = RunConfig::quick(55);
    c.warmup = SimDuration::from_secs(40);
    c.window = SimDuration::from_secs(90);
    c
}

#[test]
fn hierarchy_beats_flat_aggregation() {
    // The paper: "To achieve a higher scalability for an aggregate
    // information server, a multi-layer architecture ... should be
    // examined."  Examined: with 120 sources, a two-level hierarchy
    // answers faster than a flat GIIS because the top level serves a
    // smaller, pre-aggregated directory.
    let flat = ext::hierarchy_flat_point(&cfg(), 120);
    let hier = ext::hierarchy_tree_point(&cfg(), 120, 5);
    assert!(
        hier.throughput > flat.throughput,
        "flat {} vs hierarchical {}",
        flat.throughput,
        hier.throughput
    );
    assert!(
        hier.response_time < flat.response_time,
        "flat rt {} vs hierarchical rt {}",
        flat.response_time,
        hier.response_time
    );
}

#[test]
fn wan_quality_shapes_directory_performance() {
    let points: Vec<ext::WanPoint> = (0..ext::WAN_CASES.len())
        .map(|case| ext::wan_point(&cfg(), 100, case))
        .collect();
    assert_eq!(points.len(), 4);
    // Throughput never improves as the pipe degrades, and the worst link
    // is clearly worse than the best.
    let best = &points[0];
    let worst = &points[3];
    assert!(
        worst.m.throughput < best.m.throughput,
        "best {} worst {}",
        best.m.throughput,
        worst.m.throughput
    );
    assert!(worst.m.response_time > best.m.response_time);
}

#[test]
fn aggregate_query_costs_more_than_direct() {
    // Future work: "determine the difference between querying an
    // aggregate information server and an information server for the
    // same piece of information."  With GSI on the GRIS and anonymous
    // binds on the GIIS the aggregate is actually *faster* per query at
    // low load — the interesting comparison is throughput per host load.
    let direct = ext::agg_direct_point(&cfg(), 50);
    let via = ext::agg_via_giis_point(&cfg(), 50);
    assert!(direct.throughput > 0.0 && via.throughput > 0.0);
    // The aggregate server pays the search over five sites' data: its
    // host CPU per completed query is higher.
    let direct_cost = direct.cpu_load / direct.throughput.max(1e-9);
    let via_cost = via.cpu_load / via.throughput.max(1e-9);
    assert!(
        via_cost > direct_cost,
        "direct {direct_cost} vs aggregate {via_cost}"
    );
}

#[test]
fn open_loop_overload_loses_queries() {
    let light = ext::open_loop_point(&cfg(), 5.0);
    let heavy = ext::open_loop_point(&cfg(), 60.0);
    // Under light offered load nearly everything completes.
    assert!(
        light.completed_per_sec > 0.8 * light.offered_per_sec,
        "light: completed {} of {}",
        light.completed_per_sec,
        light.offered_per_sec
    );
    // Far past the servlet's ~17 q/s capacity, the excess is lost — the
    // open-loop pattern turns saturation into drops instead of the
    // closed-loop slowdown.
    assert!(
        heavy.lost_per_sec > 10.0,
        "heavy: lost {}/s of {} offered",
        heavy.lost_per_sec,
        heavy.offered_per_sec
    );
    assert!(heavy.completed_per_sec < heavy.offered_per_sec * 0.75);
}

#[test]
fn composite_producer_serves_aggregated_sites() {
    let m = ext::composite_study(&cfg(), 5);
    // 10 users querying the composite get answers (it is a single-stop
    // server, so throughput tracks the closed loop).
    assert!(m.throughput > 3.0, "throughput {}", m.throughput);
    assert!(m.response_time < 2.0, "rt {}", m.response_time);
    assert_eq!(m.x, 5.0);
}
