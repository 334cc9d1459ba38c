//! Names and units of every metric, in the order `BENCHMARK.json` lists
//! them (`self-test` checks the two agree).  What each one means and
//! which end-to-end metric it should move is in `benchmark/README.md`.

use std::collections::BTreeMap;

/// Reported by the timed run (`--trace 0`); all lower-is-better.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_ref", "x_ref"),
    ("allocs", "count"),
    ("peak_heap_mb", "MB"),
];

/// Reported by the traced run (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 62] = [
    ("driver.build_s", "s"),
    ("driver.ref_s", "s"),
    ("driver.ref_spread", "ratio"),
    ("driver.wall_s", "s"),
    ("driver.wall_s_min", "s"),
    ("driver.reps", "count"),
    ("core.events", "count"),
    ("core.points", "count"),
    ("core.sim_s", "s"),
    ("core.ns_per_event", "ns"),
    ("core.point_ms_max", "ms"),
    ("simcore.popped", "count"),
    ("simcore.advances", "count"),
    ("simcore.stale_pop_share", "ratio"),
    ("simcore.pscpu_ns_r4", "ns"),
    ("simcore.pscpu_ns_r600", "ns"),
    ("simnet.flow_start_ns_f10", "ns"),
    ("simnet.flow_start_ns_f600", "ns"),
    ("simnet.flow_advance_ns_f600", "ns"),
    ("ldapdir.search_us_n50", "us"),
    ("ldapdir.search_us_n500", "us"),
    ("ldapdir.filter_parse_ns", "ns"),
    ("ldapdir.upsert_us_n500", "us"),
    ("mds.ldap_searches", "count"),
    ("mds.cache_hit_share", "ratio"),
    ("mds.ns_per_event", "ns"),
    ("mds.wall_share", "ratio"),
    ("mds.est_search_share", "ratio"),
    ("relsql.select_indexed_ns", "ns"),
    ("relsql.select_scan_us_r500", "us"),
    ("relsql.insert_ns", "ns"),
    ("relsql.delete_ns", "ns"),
    ("rgma.producer_queries", "count"),
    ("rgma.ns_per_event", "ns"),
    ("rgma.wall_share", "ratio"),
    ("classad.parse_ns", "ns"),
    ("classad.match_ns", "ns"),
    ("classad.scan_us_m1000", "us"),
    ("hawkeye.match_evals", "count"),
    ("hawkeye.ns_per_event", "ns"),
    ("hawkeye.wall_share", "ratio"),
    ("workload.user_failed", "count"),
    ("workload.user_timedout", "count"),
    ("workload.user_refused", "count"),
    ("faults.injected", "count"),
    ("scenario.parse_us", "us"),
    ("intern.hit_ns", "ns"),
    ("runner.enumerate_ms", "ms"),
    ("runner.cache_probe_ms", "ms"),
    ("runner.execute_s", "s"),
    ("runner.assemble_ms", "ms"),
    ("runner.cache.bytes_written", "count"),
    ("runner.cache.hits", "count"),
    ("runner.cache.warm_ms", "ms"),
    ("runner.pool.busy_share_j2", "ratio"),
    ("runner.pool.speedup_j2", "ratio"),
    ("perf.allocs_per_event", "ratio"),
    ("perf.alloc_mb", "MB"),
    ("perf.overhead_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.events_dropped", "count"),
    ("trace.spans", "count"),
];

/// Metric values by name.  A metric nobody set reads 0: it has no source
/// on this workload (no R-GMA series in `backend_scale`, no pool pass
/// outside `regen_quick`, probes that did not build).
pub type Values = BTreeMap<String, f64>;

/// The `"metrics"` object of the result line, in table order.
pub fn metrics_json(table: &[(&str, &str)], values: &Values) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                crate::json::quote(name),
                crate::json::num(values.get(*name).copied().unwrap_or(0.0)),
                crate::json::quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}
