//! The traced run's extra passes, from the outside in: the same
//! `figures` command under `--perf` (profiled), under `--trace KEY
//! --metrics` on the workload's named points (observed), at `--jobs 2`
//! (pool), and the leaf-crate probes.  Per-layer numbers come only from
//! here; nothing in this file feeds an end-to-end metric.

use crate::bins::{fresh_dir, run_child, Exit, Paths};
use crate::check::Tally;
use crate::json::Json;
use crate::run::{check_pass, pass, pass_failed, read_perf, Options, Outcome, Timed};
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::path::Path;

/// Warm invocations behind `runner.cache.warm_ms`.
const WARM_RUNS: usize = 20;

/// The backend family of a point id (`setN/<series>/x=<x>`), by the
/// series label's prefix.
fn family(key: &str) -> Option<&'static str> {
    let series = key.split('/').nth(1)?;
    [("MDS", "mds"), ("R-GMA", "rgma"), ("Hawkeye", "hawkeye")]
        .into_iter()
        .find(|(prefix, _)| series.starts_with(prefix))
        .map(|(_, name)| name)
}

fn phase_s(perf: &Json, name: &str) -> f64 {
    perf.get("phases")
        .map_or(&[][..], Json::arr)
        .iter()
        .filter(|p| p.get("name").and_then(Json::str) == Some(name))
        .map(|p| p.num_at(&["wall_s"]))
        .sum()
}

fn points(perf: &Json) -> impl Iterator<Item = (&str, &Json)> {
    perf.get("points")
        .map_or(&[][..], Json::arr)
        .iter()
        .filter_map(|p| Some((p.get("key")?.str()?, p)))
}

/// Whole points through the CLI, and the split of their wall time over
/// the three backend families.
fn profiled_metrics(perf: &Json, out: &mut Outcome) {
    let v = &mut out.values;
    let totals = |k: &str| perf.num_at(&["totals", k]);
    let events = totals("events");
    v.insert("core.events".into(), events);
    v.insert("core.points".into(), totals("executed") + totals("cached"));
    v.insert("core.sim_s".into(), totals("sim_s"));
    v.insert(
        "core.ns_per_event".into(),
        totals("exec_wall_s") * 1e9 / events,
    );
    v.insert("simcore.popped".into(), totals("popped"));
    v.insert("simcore.advances".into(), totals("advances"));
    v.insert(
        "simcore.stale_pop_share".into(),
        (totals("popped") - events) / totals("popped"),
    );

    let mut all_wall = 0.0;
    let mut max_wall = 0.0f64;
    let mut fam: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (key, p) in points(perf) {
        let wall = p.num_at(&["wall_s"]);
        all_wall += wall;
        max_wall = max_wall.max(wall);
        if let Some(f) = family(key) {
            let e = fam.entry(f).or_default();
            e.0 += wall;
            e.1 += p.num_at(&["events"]);
        }
    }
    v.insert("core.point_ms_max".into(), max_wall * 1e3);
    for (f, (wall, events)) in fam {
        v.insert(format!("{f}.wall_share"), wall / all_wall);
        v.insert(format!("{f}.ns_per_event"), wall * 1e9 / events);
    }

    v.insert(
        "runner.enumerate_ms".into(),
        phase_s(perf, "enumerate") * 1e3,
    );
    v.insert(
        "runner.cache_probe_ms".into(),
        phase_s(perf, "cache probe") * 1e3,
    );
    v.insert("runner.execute_s".into(), phase_s(perf, "execute"));
    v.insert("runner.assemble_ms".into(), phase_s(perf, "assemble") * 1e3);
    v.insert(
        "runner.cache.bytes_written".into(),
        perf.num_at(&["cache", "bytes_written"]),
    );
}

/// Counter totals by name, summed over every `*.metrics.csv` in `dir`.
fn counter_totals(dir: &Path) -> Result<BTreeMap<String, f64>, String> {
    let mut totals = BTreeMap::new();
    for name in files_with_suffix(dir, ".metrics.csv") {
        let text = std::fs::read_to_string(dir.join(&name)).map_err(|e| format!("{name}: {e}"))?;
        for line in text.lines().skip(1) {
            let mut cols = line.split(',');
            if let (Some(metric), Some("counter"), Some(total)) =
                (cols.next(), cols.next(), cols.next())
            {
                *totals.entry(metric.to_string()).or_insert(0.0) +=
                    total.parse::<f64>().unwrap_or(0.0);
            }
        }
    }
    Ok(totals)
}

fn files_with_suffix(dir: &Path, suffix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| n.ends_with(suffix))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// What `mds.est_search_share` needs from the observed MDS point: the
/// searches that missed the result cache (the ones that walk the DIT) and
/// the point's plain wall time.
#[derive(Default)]
struct MdsPoint {
    cache_misses: f64,
    plain_s: f64,
}

/// The observed pass: modelled-component counters from `*.metrics.csv`,
/// span outcomes and ring overflow from the per-point traces, and what
/// tracing a point costs against running it plain in the same process.
fn observed_metrics(dir: &Path, perf: &Json, out: &mut Outcome) -> Result<MdsPoint, String> {
    let trace_dir = dir.join("trace");
    let c = counter_totals(&trace_dir)?;
    let count = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let v = &mut out.values;
    v.insert("mds.ldap_searches".into(), count("mds.ldap_searches"));
    let (hits, misses) = (count("mds.cache_hits"), count("mds.cache_misses"));
    if hits + misses > 0.0 {
        v.insert("mds.cache_hit_share".into(), hits / (hits + misses));
    }
    v.insert(
        "rgma.producer_queries".into(),
        count("rgma.producer_queries"),
    );
    v.insert("hawkeye.match_evals".into(), count("hawkeye.match_evals"));
    v.insert(
        "faults.injected".into(),
        ["crashes", "partitions", "freezes", "conn_bursts"]
            .iter()
            .map(|k| count(&format!("fault.{k}")))
            .sum(),
    );

    // A point id occurs twice in this pass's perf.json: first in the plain
    // sweep, then re-run under observation.
    let mut plain: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut plain_s, mut observed_s, mut mds_plain_s) = (0.0, 0.0, 0.0);
    for (key, p) in points(perf) {
        let wall = p.num_at(&["wall_s"]);
        match plain.get(key) {
            None => {
                plain.insert(key, wall);
            }
            Some(first) => {
                plain_s += first;
                observed_s += wall;
                if family(key) == Some("mds") {
                    mds_plain_s += first;
                }
            }
        }
    }
    if plain_s > 0.0 {
        v.insert("trace.overhead_ratio".into(), observed_s / plain_s);
    }

    // Span outcomes and ring overflow, straight from the per-point Chrome
    // traces (the format `gridmon-inspect` reads).
    let (mut failed, mut open, mut refused, mut dropped, mut spans) = (0, 0, 0, 0.0, 0);
    for name in files_with_suffix(&trace_dir, ".trace.json") {
        let text =
            std::fs::read_to_string(trace_dir.join(&name)).map_err(|e| format!("{name}: {e}"))?;
        let roots = |outcome: &str| {
            text.matches(&format!("\"outcome\":\"{outcome}\",\"root\":true"))
                .count()
        };
        failed += roots("failed");
        refused += roots("refused");
        open += roots("unknown");
        spans += text.matches("\"cat\":\"span\"").count();
        dropped += text
            .split("\"events_dropped\":")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|n| n.trim().parse::<f64>().ok())
            .unwrap_or(0.0);
    }
    let v = &mut out.values;
    v.insert("workload.user_failed".into(), failed as f64);
    v.insert("workload.user_timedout".into(), open as f64);
    v.insert("workload.user_refused".into(), refused as f64);
    v.insert("trace.events_dropped".into(), dropped);
    v.insert("trace.spans".into(), spans as f64);

    // The per-point traces run to hundreds of megabytes; the numbers are
    // out, so they go.
    for suffix in [".trace.json", ".jsonl"] {
        for name in files_with_suffix(&trace_dir, suffix) {
            let _ = std::fs::remove_file(trace_dir.join(name));
        }
    }
    Ok(MdsPoint {
        cache_misses: misses,
        plain_s: mds_plain_s,
    })
}

/// `name value unit offset_us dur_us` lines from the probes binary.
fn probe_metrics(text: &str, out: &mut Outcome, tr: &mut Tracer) {
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [name, value, _unit, offset, dur] = f[..] {
            let num = |s: &str| s.parse::<f64>().unwrap_or(0.0);
            out.values.insert(name.to_string(), num(value));
            tr.child_at(name, num(offset), num(dur));
        }
    }
}

pub fn traced_passes(
    paths: &Paths,
    w: &Workload,
    opts: &Options,
    timed: &Timed,
    out: &mut Outcome,
    tr: &mut Tracer,
) -> Result<(), String> {
    let figures = &timed.bins.figures;
    // A pass that has to succeed and reproduce round 0's CSVs.
    let checked = |tr: &mut Tracer,
                   out: &mut Outcome,
                   name: &str,
                   jobs: u32,
                   dir: &Path,
                   extra: &[&str]|
     -> Result<Exit, String> {
        let exit = tr.span(name, |_| pass(figures, w, opts.seed, jobs, dir, extra))?;
        if !exit.ok {
            return Err(pass_failed(name, dir));
        }
        out.tally.add(check_pass(&exit, dir, &timed.reference));
        Ok(exit)
    };

    let v = &mut out.values;
    v.insert("driver.build_s".into(), timed.build_s);
    v.insert("driver.ref_s".into(), stats::median(&timed.refs));
    v.insert(
        "driver.ref_spread".into(),
        stats::max(&timed.refs) / stats::min(&timed.refs),
    );
    v.insert("driver.wall_s".into(), stats::median(&timed.walls));
    v.insert("driver.wall_s_min".into(), stats::min(&timed.walls));
    v.insert("driver.reps".into(), timed.walls.len() as f64);

    // Counted (already run).
    let counted = &timed.counted;
    let counted_events = counted.num_at(&["totals", "events"]);
    v.insert(
        "perf.allocs_per_event".into(),
        counted.num_at(&["alloc", "allocs"]) / counted_events,
    );
    v.insert(
        "perf.alloc_mb".into(),
        counted.num_at(&["alloc", "bytes_total"]) / 1e6,
    );

    // Profiled.
    let dir = timed.scratch.join("profiled");
    fresh_dir(&dir)?;
    let exit = checked(tr, out, "profiled pass", 1, &dir, &["--perf"])?;
    let profiled = read_perf(&dir)?;
    profiled_metrics(&profiled, out);
    out.values.insert(
        "perf.overhead_ratio".into(),
        exit.wall_s / stats::median(&timed.walls),
    );
    // Profiling and counting only read counters: the simulated work must
    // be the same to the event.
    let same = profiled.num_at(&["totals", "events"]) == counted_events;
    out.tally.add(Tally {
        attempted: 1,
        failed: u64::from(!same),
    });
    if !same {
        out.notes.push(format!(
            "profiled pass ran {} events, counted pass {counted_events}",
            profiled.num_at(&["totals", "events"])
        ));
    }

    if !w.no_cache {
        // Warm: the profiled pass left its cache behind.
        let mut warm_ms = Vec::new();
        for _ in 0..WARM_RUNS {
            let exit = tr.span("warm pass", |_| pass(figures, w, opts.seed, 1, &dir, &[]))?;
            warm_ms.push(exit.wall_s * 1e3);
        }
        out.values
            .insert("runner.cache.warm_ms".into(), stats::median(&warm_ms));
        checked(tr, out, "warm profiled pass", 1, &dir, &["--perf"])?;
        out.values.insert(
            "runner.cache.hits".into(),
            read_perf(&dir)?.num_at(&["cache", "hits"]),
        );

        // Pool: the cold pass once more on two workers.
        let dir = timed.scratch.join("pool");
        fresh_dir(&dir)?;
        checked(tr, out, "pool pass", 2, &dir, &["--perf"])?;
        let pool = read_perf(&dir)?;
        out.values.insert(
            "runner.pool.busy_share_j2".into(),
            pool.num_at(&["pool", "busy_share"]),
        );
        out.values.insert(
            "runner.pool.speedup_j2".into(),
            phase_s(&profiled, "execute") / phase_s(&pool, "execute"),
        );
    }

    let mut mds_point = MdsPoint::default();
    if !w.observed.is_empty() {
        let dir = timed.scratch.join("observed");
        fresh_dir(&dir)?;
        let mut extra = vec!["--perf", "--metrics"];
        for key in w.observed {
            extra.extend(["--trace", key]);
        }
        checked(tr, out, "observed pass", 1, &dir, &extra)?;
        mds_point = observed_metrics(&dir, &read_perf(&dir)?, out)?;
    }

    if let Some(probes) = &timed.bins.probes {
        let report = timed.scratch.join("probes.txt");
        let args = [
            "--seed".to_string(),
            opts.seed.to_string(),
            "--min-ms".to_string(),
            format!("{:.0}", (opts.seconds * 4.0).max(1.0)),
        ];
        tr.span("probes", |tr| -> Result<(), String> {
            let exit = run_child(probes, &args, Some(&report), &report.with_extension("log"))?;
            if !exit.ok {
                return Err(format!("probes failed, see {}", report.display()));
            }
            let text = std::fs::read_to_string(&report).map_err(|e| e.to_string())?;
            probe_metrics(&text, out, tr);
            Ok(())
        })?;
    } else {
        out.notes
            .push("probes did not build: probe metrics read 0".into());
    }

    // How much of the observed MDS point the search probe accounts for.
    if mds_point.plain_s > 0.0 {
        let search_us = out.values.get("ldapdir.search_us_n500").copied();
        out.values.insert(
            "mds.est_search_share".into(),
            mds_point.cache_misses * search_us.unwrap_or(0.0) * 1e-6 / mds_point.plain_s,
        );
    }

    let trace_path = paths.out.join("trace.json");
    std::fs::write(&trace_path, tr.chrome_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!("  layer self time (span minus its children), s:");
    for (name, total, own) in tr.self_times() {
        println!(
            "    {name:<28} total {:>9.4}  self {:>9.4}",
            total / 1e6,
            own / 1e6
        );
    }
    println!("  wrote {}", trace_path.display());
    Ok(())
}
