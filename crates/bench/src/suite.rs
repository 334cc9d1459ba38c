//! The continuous benchmark suite and its regression gate.
//!
//! `gridmon-bench` runs a pinned matrix — for each experiment set, a
//! couple of representative points under the Bench profile, once
//! against an empty result cache (`setN/cold`, pinned on simulator
//! throughput in events per wall second) and once against the cache it
//! just filled (`setN/warm`, pinned on sweep wall time, i.e. cache
//! probe + decode cost).  The outcome is a schema-versioned
//! `BENCH_<label>.json`; [`compare`] turns a current report plus a
//! baseline report into a list of [`Regression`]s, which is what the
//! CI perf-smoke job gates on.
//!
//! Wall-clock numbers are machine-dependent, so baselines only make
//! sense against the same hardware class and the gate tolerance is
//! deliberately loose (CI uses 40 %); event *counts* are exactly
//! deterministic and double as a cheap determinism check.

use gperf::report::{json_escape, json_f64};
use gridmon_core::figures::{enumerate_set, FigureError};
use gridmon_core::scenario::DEFAULT_FAULTS;
use gridmon_runner::{Job, RunnerConfig};
use gtrace::json::{parse, Val};
use std::path::Path;

/// Schema tag of `BENCH_*.json`; bump on layout changes.
///
/// v2 added the allocation columns (`allocs`, `peak_bytes`,
/// `allocs_per_event`), populated when the binary is built with
/// `--features alloc-profile` and zero otherwise.
pub const BENCH_SCHEMA: &str = "gridmon-bench-v2";

/// The sets the full matrix covers.
pub const BENCH_SETS: [u32; 6] = [1, 2, 3, 4, 5, 6];

/// One benchmark matrix entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// `setN/cold` or `setN/warm`.
    pub id: String,
    /// Warm entries time the cache path; cold entries time execution.
    pub warm: bool,
    /// Points executed (cold) or served from cache (warm).
    pub points: u64,
    /// Wall seconds: execution wall (cold) / whole-sweep wall (warm).
    pub wall_s: f64,
    /// Engine events dispatched (0 for warm entries; deterministic).
    pub events: u64,
    /// Simulated seconds covered (0 for warm entries).
    pub sim_s: f64,
    /// Simulator speed, `events / wall_s` (0 for warm entries).
    pub events_per_sec: f64,
    /// Heap allocations performed during the phase (0 when the binary
    /// was built without `alloc-profile`).
    pub allocs: u64,
    /// Net growth of the in-use high-water mark over the phase, bytes
    /// (0 without `alloc-profile`).
    pub peak_bytes: u64,
    /// `allocs / events` for cold entries; 0 for warm entries and
    /// without `alloc-profile`.
    pub allocs_per_event: f64,
}

/// A full benchmark report, as serialized to `BENCH_<label>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub label: String,
    pub seed: u64,
    /// Resolved worker count the matrix ran with.
    pub jobs: usize,
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Serialize as a `gridmon-bench-v2` document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.entries.len() * 160);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{BENCH_SCHEMA}\",\n"));
        out.push_str(&format!("  \"label\": \"{}\",\n", json_escape(&self.label)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str("  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"id\": \"{}\", \"warm\": {}, \"points\": {}, \"wall_s\": {}, \
                 \"events\": {}, \"sim_s\": {}, \"events_per_sec\": {}, \
                 \"allocs\": {}, \"peak_bytes\": {}, \"allocs_per_event\": {}}}",
                json_escape(&e.id),
                e.warm,
                e.points,
                json_f64(e.wall_s),
                e.events,
                json_f64(e.sim_s),
                json_f64(e.events_per_sec),
                e.allocs,
                e.peak_bytes,
                json_f64(e.allocs_per_event)
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a `gridmon-bench-v2` document.
    pub fn from_json(doc: &str) -> Result<BenchReport, String> {
        let v = parse(doc)?;
        let schema = v.get("schema").and_then(Val::as_str).unwrap_or("");
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "unsupported bench schema {schema:?} (expected {BENCH_SCHEMA:?})"
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
                    warm: e.get("warm").and_then(Val::as_bool).unwrap_or(false),
                    points: num(e, "points")? as u64,
                    wall_s: num(e, "wall_s")?,
                    events: num(e, "events")? as u64,
                    sim_s: num(e, "sim_s")?,
                    events_per_sec: num(e, "events_per_sec")?,
                    allocs: num(e, "allocs")? as u64,
                    peak_bytes: num(e, "peak_bytes")? as u64,
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
            jobs: num(&v, "jobs")? as usize,
            entries,
        })
    }

    /// Render the report as an aligned table.  The allocation columns
    /// only appear when some entry actually carries alloc data (i.e.
    /// the matrix ran under `alloc-profile`).
    pub fn render(&self) -> String {
        let with_allocs = self.entries.iter().any(|e| e.allocs > 0);
        let mut out = format!(
            "benchmark {} (seed {}, {} worker{})\n{:<14} {:>7} {:>10} {:>12} {:>10} {:>14}",
            self.label,
            self.seed,
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
            "entry",
            "points",
            "wall (s)",
            "events",
            "sim (s)",
            "events/s"
        );
        if with_allocs {
            out.push_str(&format!(
                " {:>12} {:>12} {:>10}",
                "allocs", "peak (B)", "allocs/ev"
            ));
        }
        out.push('\n');
        for e in &self.entries {
            out.push_str(&format!(
                "{:<14} {:>7} {:>10.4} {:>12} {:>10.1} {:>14.0}",
                e.id, e.points, e.wall_s, e.events, e.sim_s, e.events_per_sec
            ));
            if with_allocs {
                out.push_str(&format!(
                    " {:>12} {:>12} {:>10.2}",
                    e.allocs, e.peak_bytes, e.allocs_per_event
                ));
            }
            out.push('\n');
        }
        out
    }
}

/// One gate violation found by [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    pub id: String,
    /// What regressed: `events_per_sec`, `wall_s`, `allocs_per_event`,
    /// or `missing`.
    pub metric: &'static str,
    pub current: f64,
    pub baseline: f64,
    /// Signed change in percent (negative = slower throughput).
    pub delta_pct: f64,
}

/// Below this wall time a warm entry is all timer jitter: the cache
/// path finishes in ~0.1 ms, where a one-scheduler-tick difference
/// reads as a "+300%" regression.  Warm comparisons only fire once the
/// current run is slow enough to be signal.
const WARM_WALL_NOISE_FLOOR_S: f64 = 0.005;

/// Gate `current` against `baseline` with a symmetric `tolerance_pct`.
///
/// Cold entries regress when simulator throughput drops more than the
/// tolerance below the baseline, or when allocations per event grow
/// beyond it (the allocation check only fires when both reports carry
/// alloc data — a matrix run without `alloc-profile` reports zeros and
/// is exempt).  Warm entries regress when the cache path's wall time
/// exceeds the baseline by more than the tolerance *and* clears the
/// absolute noise floor (5 ms: below it a warm entry is all timer
/// jitter).  A baseline
/// entry missing from the current report is itself a regression (a
/// silently shrunken matrix must not pass the gate); entries new in
/// `current` are ignored.
pub fn compare(
    current: &BenchReport,
    baseline: &BenchReport,
    tolerance_pct: f64,
) -> Vec<Regression> {
    let tol = tolerance_pct / 100.0;
    let mut regressions = Vec::new();
    for base in &baseline.entries {
        let Some(cur) = current.entries.iter().find(|e| e.id == base.id) else {
            regressions.push(Regression {
                id: base.id.clone(),
                metric: "missing",
                current: 0.0,
                baseline: if base.warm {
                    base.wall_s
                } else {
                    base.events_per_sec
                },
                delta_pct: -100.0,
            });
            continue;
        };
        if base.warm {
            if base.wall_s > 0.0
                && cur.wall_s > WARM_WALL_NOISE_FLOOR_S
                && cur.wall_s > base.wall_s * (1.0 + tol)
            {
                regressions.push(Regression {
                    id: base.id.clone(),
                    metric: "wall_s",
                    current: cur.wall_s,
                    baseline: base.wall_s,
                    delta_pct: (cur.wall_s / base.wall_s - 1.0) * 100.0,
                });
            }
        } else {
            if base.events_per_sec > 0.0 && cur.events_per_sec < base.events_per_sec * (1.0 - tol) {
                regressions.push(Regression {
                    id: base.id.clone(),
                    metric: "events_per_sec",
                    current: cur.events_per_sec,
                    baseline: base.events_per_sec,
                    delta_pct: (cur.events_per_sec / base.events_per_sec - 1.0) * 100.0,
                });
            }
            if base.allocs_per_event > 0.0
                && cur.allocs_per_event > 0.0
                && cur.allocs_per_event > base.allocs_per_event * (1.0 + tol)
            {
                regressions.push(Regression {
                    id: base.id.clone(),
                    metric: "allocs_per_event",
                    current: cur.allocs_per_event,
                    baseline: base.allocs_per_event,
                    delta_pct: (cur.allocs_per_event / base.allocs_per_event - 1.0) * 100.0,
                });
            }
        }
    }
    regressions
}

/// Render regressions (or the all-clear) for the console.
pub fn render_regressions(regs: &[Regression], tolerance_pct: f64) -> String {
    if regs.is_empty() {
        return format!("perf gate: OK (within {tolerance_pct}% of baseline)\n");
    }
    let mut out = format!(
        "perf gate: {} regression(s) beyond {tolerance_pct}%\n",
        regs.len()
    );
    for r in regs {
        out.push_str(&format!(
            "  {:<14} {:<16} baseline {:>12.2}  current {:>12.2}  ({:+.1}%)\n",
            r.id, r.metric, r.baseline, r.current, r.delta_pct
        ));
    }
    out
}

/// Run the pinned matrix for `sets`: per set, the first and the median
/// enumerated point under the Bench profile, cold then warm.
/// `cache_root` must be a scratch directory (each set caches under its
/// own subdirectory); the caller removes it afterwards.
pub fn run_matrix(
    sets: &[u32],
    seed: u64,
    jobs: usize,
    cache_root: &Path,
    quiet: bool,
) -> Result<Vec<BenchEntry>, FigureError> {
    let profile = crate::Profile::Bench;
    let mut cfg = profile.run_config(seed);
    cfg.faults = DEFAULT_FAULTS;
    let mut entries = Vec::with_capacity(sets.len() * 2);
    for &set in sets {
        let specs = enumerate_set(set, profile.scale())?;
        // Representative small + medium points: the first enumerated
        // point (lightest x of the first series) and the median of the
        // whole set (a mid-series, mid-load point).
        let mut picked = vec![specs[0]];
        if specs.len() > 1 {
            picked.push(specs[specs.len() / 2]);
        }
        let jobs_list: Vec<Job> = picked.iter().map(|&s| Job::Figure(s)).collect();
        let rc = RunnerConfig {
            jobs,
            cache_dir: Some(cache_root.join(format!("set{set}"))),
            quiet,
        };

        // Cold: empty cache, everything executes.  Bracket the run
        // with allocator snapshots (no-ops without `alloc-profile`):
        // `reset_peak` restarts the high-water mark so `peak_bytes`
        // measures this phase, not the whole process so far.
        gperf::alloc::reset_peak();
        let pre = gperf::alloc::stats().unwrap_or_default();
        let mut cold = gperf::PerfSink::new();
        let (_, _) = gridmon_runner::run(&jobs_list, &cfg, &rc, Some(&mut cold));
        let post = gperf::alloc::stats().unwrap_or_default();
        let t = cold.totals();
        let allocs = post.allocs.saturating_sub(pre.allocs);
        entries.push(BenchEntry {
            id: format!("set{set}/cold"),
            warm: false,
            points: t.executed,
            wall_s: t.exec_wall.as_secs_f64(),
            events: t.events,
            sim_s: t.sim_us as f64 / 1e6,
            events_per_sec: t.events_per_sec(),
            allocs,
            peak_bytes: post.peak.saturating_sub(pre.in_use),
            allocs_per_event: if t.events > 0 {
                allocs as f64 / t.events as f64
            } else {
                0.0
            },
        });

        // Warm: the same sweep against the cache the cold run filled.
        gperf::alloc::reset_peak();
        let pre = gperf::alloc::stats().unwrap_or_default();
        let mut warm = gperf::PerfSink::new();
        let (_, stats) = gridmon_runner::run(&jobs_list, &cfg, &rc, Some(&mut warm));
        let post = gperf::alloc::stats().unwrap_or_default();
        debug_assert_eq!(stats.executed, 0, "warm run must be all cache hits");
        entries.push(BenchEntry {
            id: format!("set{set}/warm"),
            warm: true,
            points: warm.cache.hits,
            wall_s: stats.wall.as_secs_f64(),
            events: 0,
            sim_s: 0.0,
            events_per_sec: 0.0,
            allocs: post.allocs.saturating_sub(pre.allocs),
            peak_bytes: post.peak.saturating_sub(pre.in_use),
            allocs_per_event: 0.0,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entries: Vec<BenchEntry>) -> BenchReport {
        BenchReport {
            label: "test".into(),
            seed: 1,
            jobs: 2,
            entries,
        }
    }

    fn cold(id: &str, eps: f64) -> BenchEntry {
        let events = (eps * 1.0) as u64;
        BenchEntry {
            id: id.into(),
            warm: false,
            points: 2,
            wall_s: 1.0,
            events,
            sim_s: 120.0,
            events_per_sec: eps,
            allocs: events * 3,
            peak_bytes: 1 << 20,
            allocs_per_event: 3.0,
        }
    }

    fn warm(id: &str, wall_s: f64) -> BenchEntry {
        BenchEntry {
            id: id.into(),
            warm: true,
            points: 2,
            wall_s,
            events: 0,
            sim_s: 0.0,
            events_per_sec: 0.0,
            allocs: 500,
            peak_bytes: 4096,
            allocs_per_event: 0.0,
        }
    }

    #[test]
    fn json_roundtrips() {
        let r = report(vec![cold("set1/cold", 123456.7), warm("set1/warm", 0.0023)]);
        let doc = r.to_json();
        assert!(doc.contains("\"schema\": \"gridmon-bench-v2\""));
        let back = BenchReport::from_json(&doc).unwrap();
        assert_eq!(back.label, "test");
        assert_eq!(back.seed, 1);
        assert_eq!(back.jobs, 2);
        assert_eq!(back.entries.len(), 2);
        assert_eq!(back.entries[0].id, "set1/cold");
        assert!(!back.entries[0].warm);
        assert!((back.entries[0].events_per_sec - 123456.7).abs() < 1e-6);
        assert_eq!(back.entries[0].allocs, back.entries[0].events * 3);
        assert_eq!(back.entries[0].peak_bytes, 1 << 20);
        assert!((back.entries[0].allocs_per_event - 3.0).abs() < 1e-9);
        assert!(back.entries[1].warm);
    }

    #[test]
    fn v1_documents_are_rejected() {
        let doc = r#"{"schema": "gridmon-bench-v1", "label": "old", "seed": 1,
                      "jobs": 1, "entries": []}"#;
        assert!(BenchReport::from_json(doc).unwrap_err().contains("schema"));
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let doc = r#"{"schema": "something-else", "entries": []}"#;
        assert!(BenchReport::from_json(doc).unwrap_err().contains("schema"));
        assert!(BenchReport::from_json("{not json").is_err());
    }

    #[test]
    fn gate_flags_cold_throughput_drops_beyond_tolerance() {
        let base = report(vec![cold("set1/cold", 100_000.0)]);
        // 5% slower under a 10% gate: fine.
        let ok = report(vec![cold("set1/cold", 95_000.0)]);
        assert!(compare(&ok, &base, 10.0).is_empty());
        // 20% slower: regression.
        let bad = report(vec![cold("set1/cold", 80_000.0)]);
        let regs = compare(&bad, &base, 10.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "events_per_sec");
        assert!((regs[0].delta_pct - -20.0).abs() < 1e-9);
        // Faster is never a regression.
        let fast = report(vec![cold("set1/cold", 150_000.0)]);
        assert!(compare(&fast, &base, 10.0).is_empty());
    }

    #[test]
    fn gate_flags_alloc_per_event_growth() {
        let base = report(vec![cold("set1/cold", 100_000.0)]);
        // Same throughput, 3.0 -> 3.2 allocs/event under 10%: fine.
        let mut ok_entry = cold("set1/cold", 100_000.0);
        ok_entry.allocs_per_event = 3.2;
        assert!(compare(&report(vec![ok_entry]), &base, 10.0).is_empty());
        // 3.0 -> 4.5 allocs/event: regression.
        let mut bad_entry = cold("set1/cold", 100_000.0);
        bad_entry.allocs_per_event = 4.5;
        let regs = compare(&report(vec![bad_entry]), &base, 10.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "allocs_per_event");
        assert!((regs[0].delta_pct - 50.0).abs() < 1e-9);
        // A report without alloc data (feature off) is exempt.
        let mut off_entry = cold("set1/cold", 100_000.0);
        off_entry.allocs = 0;
        off_entry.allocs_per_event = 0.0;
        assert!(compare(&report(vec![off_entry.clone()]), &base, 10.0).is_empty());
        // ... and a baseline without alloc data never gates on it.
        let no_alloc_base = report(vec![off_entry]);
        let mut cur = cold("set1/cold", 100_000.0);
        cur.allocs_per_event = 99.0;
        assert!(compare(&report(vec![cur]), &no_alloc_base, 10.0).is_empty());
    }

    #[test]
    fn gate_flags_warm_wall_growth_and_missing_entries() {
        let base = report(vec![warm("set1/warm", 0.010), cold("set2/cold", 5e5)]);
        let slower = report(vec![warm("set1/warm", 0.020), cold("set2/cold", 5e5)]);
        let regs = compare(&slower, &base, 50.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "wall_s");
        assert!(regs[0].delta_pct > 99.0);
        // A shrunken matrix does not sneak past the gate.
        let shrunk = report(vec![warm("set1/warm", 0.010)]);
        let regs = compare(&shrunk, &base, 50.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "missing");
        assert_eq!(regs[0].id, "set2/cold");
    }

    #[test]
    fn gate_ignores_warm_jitter_below_noise_floor() {
        // 0.1 ms -> 0.4 ms is +300%, but both are timer noise: the
        // absolute floor keeps the warm check quiet until the cache
        // path is slow enough to mean something.
        let base = report(vec![warm("set1/warm", 0.0001)]);
        let jitter = report(vec![warm("set1/warm", 0.0004)]);
        assert!(compare(&jitter, &base, 50.0).is_empty());
        // A genuinely slow cache path still regresses.
        let slow = report(vec![warm("set1/warm", 0.0200)]);
        let regs = compare(&slow, &base, 50.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "wall_s");
    }
}
