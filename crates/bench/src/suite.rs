//! The pinned benchmark matrix and its exact gate.
//!
//! `gridmon-bench` runs a pinned matrix — for each experiment set, two
//! representative points under the Bench profile, executed inline on
//! the calling thread with no result cache — and writes a
//! schema-versioned `BENCH_<label>.json` with one entry per set.
//!
//! An entry has two kinds of column.  `points`, `events`, `sim_s`,
//! `allocs` and `peak_bytes` are functions of the source tree, the seed
//! and the toolchain alone: they repeat exactly across runs, machines
//! under load, labels and scratch directories, so [`compare`] demands
//! `==` on them, in both directions.  `wall_s`, `events_per_sec` and
//! `allocs_per_event` are there for the reader and are never compared:
//! a single 2–25 ms wall sample is noise, and wall-clock claims belong
//! to `benchmark/driver` and its ten-pair protocol.
//!
//! Because the gate is exact, an improvement fails it just as a
//! regression does; either is acknowledged by regenerating the
//! committed `BENCH_0.json` in the same commit, and the diff of that
//! file is the change's allocation report.

use gridmon_core::figures::{enumerate_set, FigureError};
use gridmon_core::scenario::DEFAULT_FAULTS;
use gridmon_runner::{Job, RunnerConfig};
use gtrace::json::{escape, parse, Val, F64};

/// Schema tag of `BENCH_*.json`; bump on layout changes.
///
/// v3 is the exact gate's layout: one cold entry per set, no warm
/// entries, no `jobs` field.
pub const BENCH_SCHEMA: &str = "gridmon-bench-v3";

/// The sets the full matrix covers.
pub const BENCH_SETS: [u32; 6] = [1, 2, 3, 4, 5, 6];

/// How to refresh the committed baseline after an intended change.
pub const REGENERATE: &str = "cargo run --release -p gridmon-bench --features alloc-profile \
                              --bin gridmon-bench -- --quiet";

/// One benchmark matrix entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// `setN`.
    pub id: String,
    /// Points executed.
    pub points: u64,
    /// Engine events dispatched.
    pub events: u64,
    /// Simulated seconds covered.
    pub sim_s: f64,
    /// Heap allocations performed while the points ran (0 when the
    /// binary was built without `alloc-profile`).
    pub allocs: u64,
    /// Net growth of the in-use high-water mark while the points ran,
    /// bytes (0 without `alloc-profile`).
    pub peak_bytes: u64,
    /// Execution wall seconds.  Information only.
    pub wall_s: f64,
    /// `events / wall_s`.  Information only.
    pub events_per_sec: f64,
    /// `allocs / events`.  Information only.
    pub allocs_per_event: f64,
}

/// A full benchmark report, as serialized to `BENCH_<label>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub label: String,
    pub seed: u64,
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Serialize as a `gridmon-bench-v3` document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.entries.len() * 160);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{BENCH_SCHEMA}\",\n"));
        out.push_str(&format!("  \"label\": \"{}\",\n", escape(&self.label)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"id\": \"{}\", \"points\": {}, \"events\": {}, \"sim_s\": {}, \
                 \"allocs\": {}, \"peak_bytes\": {}, \"wall_s\": {}, \
                 \"events_per_sec\": {}, \"allocs_per_event\": {}}}",
                escape(&e.id),
                e.points,
                e.events,
                F64(e.sim_s),
                e.allocs,
                e.peak_bytes,
                F64(e.wall_s),
                F64(e.events_per_sec),
                F64(e.allocs_per_event)
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a `gridmon-bench-v3` document.
    pub fn from_json(doc: &str) -> Result<BenchReport, String> {
        let v = parse(doc)?;
        let schema = v.get("schema").and_then(Val::as_str).unwrap_or("");
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "unsupported bench schema {schema:?} (expected {BENCH_SCHEMA:?}); \
                 regenerate it: {REGENERATE}"
            ));
        }
        let num = |v: &Val, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Val::as_f64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let entries = v
            .get("entries")
            .and_then(Val::as_arr)
            .ok_or("missing entries array")?
            .iter()
            .map(|e| {
                Ok(BenchEntry {
                    id: e
                        .get("id")
                        .and_then(Val::as_str)
                        .ok_or("entry missing id")?
                        .to_string(),
                    points: num(e, "points")? as u64,
                    events: num(e, "events")? as u64,
                    sim_s: num(e, "sim_s")?,
                    allocs: num(e, "allocs")? as u64,
                    peak_bytes: num(e, "peak_bytes")? as u64,
                    wall_s: num(e, "wall_s")?,
                    events_per_sec: num(e, "events_per_sec")?,
                    allocs_per_event: num(e, "allocs_per_event")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchReport {
            label: v
                .get("label")
                .and_then(Val::as_str)
                .unwrap_or_default()
                .to_string(),
            seed: num(&v, "seed")? as u64,
            entries,
        })
    }

    /// Render the report as an aligned table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "benchmark {} (seed {})\n{:<6} {:>7} {:>10} {:>9} {:>10} {:>10} {:>10} {:>12} {:>10}\n",
            self.label,
            self.seed,
            "entry",
            "points",
            "events",
            "sim (s)",
            "allocs",
            "peak (B)",
            "wall (s)",
            "events/s",
            "allocs/ev"
        );
        for e in &self.entries {
            out.push_str(&format!(
                "{:<6} {:>7} {:>10} {:>9.1} {:>10} {:>10} {:>10.4} {:>12.0} {:>10.2}\n",
                e.id,
                e.points,
                e.events,
                e.sim_s,
                e.allocs,
                e.peak_bytes,
                e.wall_s,
                e.events_per_sec,
                e.allocs_per_event
            ));
        }
        out
    }
}

/// One difference [`compare`] found between two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    pub id: String,
    /// `points`, `events`, `sim_s`, `allocs` or `peak_bytes` — or
    /// `entry` when one side lacks the entry altogether.
    pub column: &'static str,
    /// The two values as the reports print them (`absent` for the side
    /// that lacks the entry).
    pub current: String,
    pub baseline: String,
}

impl BenchEntry {
    /// The columns that repeat exactly, as the report prints them.
    fn pinned(&self) -> [(&'static str, String); 5] {
        [
            ("points", self.points.to_string()),
            ("events", self.events.to_string()),
            ("sim_s", F64(self.sim_s).to_string()),
            ("allocs", self.allocs.to_string()),
            ("peak_bytes", self.peak_bytes.to_string()),
        ]
    }
}

/// Every difference between `current` and `baseline` on what repeats:
/// the set of entry ids, and per entry the five deterministic columns,
/// all by `==`.  Empty means the gate passes.
pub fn compare(current: &BenchReport, baseline: &BenchReport) -> Vec<Mismatch> {
    fn find<'a>(r: &'a BenchReport, id: &str) -> Option<&'a BenchEntry> {
        r.entries.iter().find(|e| e.id == id)
    }
    let mut out = Vec::new();
    let mut differ = |id: &str, column, current: String, baseline: String| {
        out.push(Mismatch {
            id: id.to_string(),
            column,
            current,
            baseline,
        })
    };
    for base in &baseline.entries {
        let Some(cur) = find(current, &base.id) else {
            differ(&base.id, "entry", "absent".into(), "present".into());
            continue;
        };
        for ((column, cur), (_, base_value)) in cur.pinned().into_iter().zip(base.pinned()) {
            if cur != base_value {
                differ(&base.id, column, cur, base_value);
            }
        }
    }
    for cur in &current.entries {
        if find(baseline, &cur.id).is_none() {
            differ(&cur.id, "entry", "present".into(), "absent".into());
        }
    }
    out
}

/// Render the gate's verdict for the console.
pub fn render_mismatches(mismatches: &[Mismatch]) -> String {
    if mismatches.is_empty() {
        return "bench gate: OK (deterministic columns equal the baseline)\n".to_string();
    }
    let mut out = format!(
        "bench gate: {} column(s) differ from the baseline\n",
        mismatches.len()
    );
    for m in mismatches {
        out.push_str(&format!(
            "  {:<6} {:<10} baseline {:>12}  current {:>12}\n",
            m.id, m.column, m.baseline, m.current
        ));
    }
    if mismatches
        .iter()
        .any(|m| m.column == "allocs" && (m.current == "0" || m.baseline == "0"))
    {
        out.push_str(
            "one side carries no allocation counts: rebuild with `--features alloc-profile`\n",
        );
    }
    out.push_str(&format!(
        "these columns repeat exactly, so any difference is a real change; if it is \
         intended, regenerate the baseline and commit it with the change:\n  {REGENERATE}\n"
    ));
    out
}

/// Run the pinned matrix for `sets`: per set, the first and the median
/// enumerated point under the Bench profile, executed inline with no
/// result cache so nothing but the simulation is counted.
pub fn run_matrix(sets: &[u32], seed: u64, quiet: bool) -> Result<Vec<BenchEntry>, FigureError> {
    let profile = crate::Profile::Bench;
    let mut cfg = profile.run_config(seed);
    cfg.faults = DEFAULT_FAULTS;
    // One worker, no cache directory, no progress lines: worker
    // interleaving, path lengths and wall-dependent ETA strings are
    // what used to make `allocs` and `peak_bytes` wobble.
    let rc = RunnerConfig {
        jobs: 1,
        cache_dir: None,
        quiet: true,
    };
    let mut entries = Vec::with_capacity(sets.len());
    for &set in sets {
        let specs = enumerate_set(set, profile.scale())?;
        // Representative small + medium points: the first enumerated
        // point (lightest x of the first series) and the median of the
        // whole set (a mid-series, mid-load point).
        let mut picked = vec![specs[0]];
        if specs.len() > 1 {
            picked.push(specs[specs.len() / 2]);
        }
        let jobs = Job::points(&picked);

        // Bracket the run with allocator snapshots (no-ops without
        // `alloc-profile`): `reset_peak` restarts the high-water mark so
        // `peak_bytes` measures this set, not the whole process so far.
        let mut sink = gperf::PerfSink::default();
        gperf::alloc::reset_peak();
        let pre = gperf::alloc::stats().unwrap_or_default();
        gridmon_runner::run(&jobs, &cfg, &rc, &mut sink);
        let post = gperf::alloc::stats().unwrap_or_default();
        let t = sink.totals();
        let allocs = post.allocs.saturating_sub(pre.allocs);
        let entry = BenchEntry {
            id: format!("set{set}"),
            points: t.executed,
            events: t.events,
            sim_s: t.sim_us as f64 / 1e6,
            allocs,
            peak_bytes: post.peak.saturating_sub(pre.in_use),
            wall_s: t.exec_wall.as_secs_f64(),
            events_per_sec: t.events_per_sec(),
            allocs_per_event: if t.events > 0 {
                allocs as f64 / t.events as f64
            } else {
                0.0
            },
        };
        if !quiet {
            eprintln!(
                "  {}: {} points, {} events in {:.4} s",
                entry.id, entry.points, entry.events, entry.wall_s
            );
        }
        entries.push(entry);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str) -> BenchEntry {
        BenchEntry {
            id: id.into(),
            points: 2,
            events: 5635,
            sim_s: 120.0,
            allocs: 18812,
            peak_bytes: 114677,
            wall_s: 0.002,
            events_per_sec: 2_817_500.0,
            allocs_per_event: 3.338,
        }
    }

    fn report(entries: Vec<BenchEntry>) -> BenchReport {
        BenchReport {
            label: "test".into(),
            seed: 1,
            entries,
        }
    }

    #[test]
    fn json_roundtrips() {
        let r = report(vec![entry("set1"), entry("set2")]);
        let doc = r.to_json();
        assert!(doc.contains("\"schema\": \"gridmon-bench-v3\""));
        assert_eq!(BenchReport::from_json(&doc).unwrap(), r);
    }

    #[test]
    fn older_and_foreign_documents_are_rejected() {
        let v2 = r#"{"schema": "gridmon-bench-v2", "label": "0", "seed": 1,
                     "jobs": 1, "entries": []}"#;
        let err = BenchReport::from_json(v2).unwrap_err();
        assert!(
            err.contains("schema") && err.contains("regenerate"),
            "{err}"
        );
        let other = r#"{"schema": "something-else", "entries": []}"#;
        assert!(BenchReport::from_json(other)
            .unwrap_err()
            .contains("schema"));
        assert!(BenchReport::from_json("{not json").is_err());
    }

    #[test]
    fn one_count_either_way_in_any_deterministic_column_is_a_mismatch() {
        let base = report(vec![entry("set1"), entry("set2")]);
        assert!(compare(&base, &base).is_empty());
        for column in ["points", "events", "sim_s", "allocs", "peak_bytes"] {
            for delta in [1i64, -1] {
                let mut cur = base.clone();
                let e = &mut cur.entries[1];
                match column {
                    "points" => e.points = e.points.wrapping_add_signed(delta),
                    "events" => e.events = e.events.wrapping_add_signed(delta),
                    "sim_s" => e.sim_s += delta as f64 * 1e-6,
                    "allocs" => e.allocs = e.allocs.wrapping_add_signed(delta),
                    _ => e.peak_bytes = e.peak_bytes.wrapping_add_signed(delta),
                }
                let found = compare(&cur, &base);
                assert_eq!(found.len(), 1, "{column} {delta:+}: {found:?}");
                assert_eq!((found[0].id.as_str(), found[0].column), ("set2", column));
                assert_ne!(found[0].current, found[0].baseline);
            }
        }
    }

    #[test]
    fn a_report_without_alloc_counts_fails_with_the_rebuild_hint() {
        let base = report(vec![entry("set1")]);
        let mut cur = base.clone();
        cur.entries[0].allocs = 0;
        cur.entries[0].peak_bytes = 0;
        let text = render_mismatches(&compare(&cur, &base));
        assert!(text.contains("rebuild with"), "{text}");
        assert!(text.contains(REGENERATE), "{text}");
        let one_alloc = render_mismatches(&compare(&report(vec![entry("set9")]), &base));
        assert!(!one_alloc.contains("rebuild with"), "{one_alloc}");
        assert!(render_mismatches(&[]).contains("OK"));
    }
}
