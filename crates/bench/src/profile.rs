//! Rendering for `perf.json` harness profiles.
//!
//! `figures --perf` writes `RUN_DIR/perf.json`
//! (schema `gridmon-perf-v1`, see `gperf::report`);
//! `gridmon-inspect --profile RUN_DIR` parses it back here and prints
//! the phase breakdown, cache/pool summary and per-point records.

use gtrace::json::{parse, Val};

/// Render a `gridmon-perf-v1` document as console tables.
pub fn render_perf(doc: &str) -> Result<String, String> {
    let v = parse(doc)?;
    let schema = v.get("schema").and_then(Val::as_str).unwrap_or("");
    if schema != gperf::report::PERF_SCHEMA {
        return Err(format!(
            "unsupported profile schema {schema:?} (expected {:?})",
            gperf::report::PERF_SCHEMA
        ));
    }
    let mut out = String::new();

    out.push_str("phases\n");
    let phases = v.get("phases").and_then(Val::as_arr).unwrap_or(&[]);
    let total: f64 = phases
        .iter()
        .filter_map(|p| p.get("wall_s").and_then(Val::as_f64))
        .sum();
    for p in phases {
        let name = p.get("name").and_then(Val::as_str).unwrap_or("?");
        let wall = p.get("wall_s").and_then(Val::as_f64).unwrap_or(0.0);
        let share = if total > 0.0 {
            wall / total * 100.0
        } else {
            0.0
        };
        out.push_str(&format!("  {name:<14} {wall:>10.4}s  {share:>5.1}%\n"));
    }

    if let Some(c) = v.get("cache") {
        let f = |k| c.get(k).and_then(Val::as_f64).unwrap_or(0.0);
        out.push_str(&format!(
            "\ncache: {} hit(s), {} miss(es), {:.1} KiB read, {:.1} KiB written\n",
            f("hits"),
            f("misses"),
            f("bytes_read") / 1024.0,
            f("bytes_written") / 1024.0
        ));
    }

    if let Some(p) = v.get("pool") {
        let workers = p.get("workers").and_then(Val::as_f64).unwrap_or(0.0);
        let wall = p.get("wall_s").and_then(Val::as_f64).unwrap_or(0.0);
        let share = p.get("busy_share").and_then(Val::as_f64).unwrap_or(0.0);
        out.push_str(&format!(
            "pool:  {workers} worker(s), {wall:.4}s execution wall, {:.1}% busy\n",
            share * 100.0
        ));
        if let (Some(busy), Some(jobs)) = (
            p.get("busy_s").and_then(Val::as_arr),
            p.get("jobs").and_then(Val::as_arr),
        ) {
            for (w, (b, j)) in busy.iter().zip(jobs).enumerate() {
                out.push_str(&format!(
                    "  worker {w}: {} point(s), {:.4}s busy\n",
                    j.as_f64().unwrap_or(0.0),
                    b.as_f64().unwrap_or(0.0)
                ));
            }
        }
    }

    match v.get("alloc") {
        Some(Val::Null) | None => {}
        Some(a) => {
            let f = |k| a.get(k).and_then(Val::as_f64).unwrap_or(0.0);
            out.push_str(&format!(
                "alloc: {} allocation(s), {:.1} MiB total, {:.1} MiB peak in use\n",
                f("allocs"),
                f("bytes_total") / (1024.0 * 1024.0),
                f("peak") / (1024.0 * 1024.0)
            ));
        }
    }

    if let Some(t) = v.get("totals") {
        let f = |k| t.get(k).and_then(Val::as_f64).unwrap_or(0.0);
        out.push_str(&format!(
            "total: {} executed, {} cached, {:.4}s execution wall, {:.0} sim-events/s\n",
            f("executed"),
            f("cached"),
            f("exec_wall_s"),
            f("events_per_sec")
        ));
    }

    let points = v.get("points").and_then(Val::as_arr).unwrap_or(&[]);
    if !points.is_empty() {
        out.push_str(&format!(
            "\n{:<44} {:>3} {:>6} {:>10} {:>9} {:>10} {:>12}\n",
            "point", "wkr", "src", "wall (s)", "sim (s)", "events", "events/s"
        ));
        for p in points {
            let f = |k| p.get(k).and_then(Val::as_f64).unwrap_or(0.0);
            let cached = p.get("cached").and_then(Val::as_bool).unwrap_or(false);
            out.push_str(&format!(
                "{:<44} {:>3} {:>6} {:>10.4} {:>9.1} {:>10} {:>12.0}\n",
                p.get("key").and_then(Val::as_str).unwrap_or("?"),
                f("worker"),
                if cached { "cache" } else { "exec" },
                f("wall_s"),
                f("sim_s"),
                f("events"),
                f("events_per_sec")
            ));
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gperf::{PerfSink, SimCounters};
    use std::time::Duration;

    #[test]
    fn renders_a_real_sink_document() {
        let mut sink = PerfSink::default();
        sink.phases.add("execute", Duration::from_millis(20));
        sink.record_pool_run(2, Duration::from_millis(20));
        sink.record_miss();
        sink.record_executed(
            "set1/MDS GRIS (cache)/x=10".into(),
            1,
            Duration::from_millis(20),
            SimCounters {
                sim_us: 60_000_000,
                events: 4000,
                popped: 4100,
                advances: 0,
                ..SimCounters::default()
            },
        );
        sink.record_cached("set1/MDS GRIS (cache)/x=20".into(), Duration::ZERO, 256);
        let doc = gperf::report::perf_json(&sink);
        let text = render_perf(&doc).unwrap();
        assert!(text.contains("phases"));
        assert!(text.contains("execute"));
        assert!(text.contains("set1/MDS GRIS (cache)/x=10"));
        assert!(text.contains("cache: 1 hit(s), 1 miss(es)"));
        assert!(text.contains("pool:  2 worker(s)"));
        assert!(text.contains("exec"));
        assert!(text.contains("cache"));
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(render_perf("{\"schema\": \"other\"}")
            .unwrap_err()
            .contains("schema"));
        assert!(render_perf("not json").is_err());
    }
}
