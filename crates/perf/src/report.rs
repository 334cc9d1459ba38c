//! The `perf.json` profile report.
//!
//! [`perf_json`] serializes a [`PerfSink`] into a schema-versioned
//! JSON document (`gridmon-perf-v1`): coarse phases, cache traffic,
//! per-worker pool attribution, allocator counters (when compiled in)
//! and one row per point.  `figures --perf` writes it next to the
//! figure CSVs and `gridmon-inspect --profile RUN_DIR` renders it back
//! into tables.  No external JSON dependency: the writer below emits
//! the document directly over `gtrace::json`'s `escape` and `F64`
//! (readers use the parser in the same module).

use crate::alloc;
use crate::point::{PerfSink, SimCounters};
use gtrace::json::{escape, F64};

/// Schema tag of the emitted document; bump on layout changes so
/// readers can reject files they do not understand.
pub const PERF_SCHEMA: &str = "gridmon-perf-v1";

/// Serialize `sink` as a `gridmon-perf-v1` document.
pub fn perf_json(sink: &PerfSink) -> String {
    let mut out = String::with_capacity(4096 + sink.points.len() * 160);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{PERF_SCHEMA}\",\n"));

    out.push_str("  \"phases\": [");
    for (i, (name, wall)) in sink.phases.entries().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"wall_s\": {}}}",
            escape(name),
            F64(wall.as_secs_f64())
        ));
    }
    out.push_str("\n  ],\n");

    out.push_str(&format!(
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"bytes_read\": {}, \"bytes_written\": {}}},\n",
        sink.cache.hits, sink.cache.misses, sink.cache.bytes_read, sink.cache.bytes_written
    ));

    out.push_str(&format!(
        "  \"pool\": {{\"workers\": {}, \"wall_s\": {}, \"busy_share\": {}, \"busy_s\": [{}], \"jobs\": [{}]}},\n",
        sink.pool.workers,
        F64(sink.pool.wall.as_secs_f64()),
        F64(sink.pool.busy_share()),
        sink.pool
            .busy
            .iter()
            .map(|d| F64(d.as_secs_f64()).to_string())
            .collect::<Vec<_>>()
            .join(", "),
        sink.pool
            .jobs
            .iter()
            .map(|j| j.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));

    match alloc::stats() {
        Some(a) => out.push_str(&format!(
            "  \"alloc\": {{\"allocs\": {}, \"bytes_total\": {}, \"in_use\": {}, \"peak\": {}}},\n",
            a.allocs, a.bytes_total, a.in_use, a.peak
        )),
        None => out.push_str("  \"alloc\": null,\n"),
    }

    let t = sink.totals();
    let sum = |f: fn(&SimCounters) -> u64| sink.executed().map(|p| f(&p.sim)).sum::<u64>();
    out.push_str(&format!(
        "  \"totals\": {{\"executed\": {}, \"cached\": {}, \"exec_wall_s\": {}, \"sim_s\": {}, \"events\": {}, \"popped\": {}, \"advances\": {}, \"relevels\": {}, \"relevel_flows\": {}, \"relevel_groups\": {}, \"events_per_sec\": {}}},\n",
        t.executed,
        t.cached,
        F64(t.exec_wall.as_secs_f64()),
        F64(t.sim_us as f64 / 1e6),
        t.events,
        t.popped,
        t.advances,
        sum(|s| s.relevels),
        sum(|s| s.relevel_flows),
        sum(|s| s.relevel_groups),
        F64(t.events_per_sec())
    ));

    out.push_str("  \"points\": [");
    for (i, p) in sink.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"key\": \"{}\", \"worker\": {}, \"cached\": {}, \"wall_s\": {}, \"sim_s\": {}, \"events\": {}, \"popped\": {}, \"advances\": {}, \"relevels\": {}, \"relevel_flows\": {}, \"relevel_groups\": {}, \"engine_runs\": {}, \"events_per_sec\": {}}}",
            escape(&p.key),
            p.worker,
            p.cached,
            F64(p.wall.as_secs_f64()),
            F64(p.sim_s()),
            p.sim.events,
            p.sim.popped,
            p.sim.advances,
            p.sim.relevels,
            p.sim.relevel_flows,
            p.sim.relevel_groups,
            u32::from(!p.cached),
            F64(p.events_per_sec())
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn report_carries_schema_and_rows() {
        let mut sink = PerfSink::default();
        sink.phases.add("execute", Duration::from_millis(12));
        sink.record_pool_run(2, Duration::from_millis(12));
        sink.record_miss();
        sink.record_executed(
            "set1/MDS GRIS (cache)/x=10".into(),
            1,
            Duration::from_millis(10),
            SimCounters {
                sim_us: 60_000_000,
                events: 1234,
                popped: 1250,
                advances: 0,
                ..SimCounters::default()
            },
        );
        sink.record_cached("set1/MDS GRIS (cache)/x=20".into(), Duration::ZERO, 99);
        let doc = perf_json(&sink);
        assert!(doc.contains("\"schema\": \"gridmon-perf-v1\""));
        assert!(doc.contains("set1/MDS GRIS (cache)/x=10"));
        assert!(doc.contains("\"events\": 1234"));
        assert!(doc.contains("\"engine_runs\": 1,"));
        assert!(doc.contains("\"engine_runs\": 0,"));
        assert!(doc.contains("\"hits\": 1"));
        assert!(doc.contains("\"misses\": 1"));
        assert!(doc.contains("\"workers\": 2"));
        let v = gtrace::json::parse(&doc).expect("valid JSON");
        assert_eq!(v.get("points").and_then(|p| p.as_arr()).unwrap().len(), 2);
    }
}
